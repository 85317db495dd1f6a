"""AST node classes for the mini-MySQL parser.

Nodes are dataclasses: plain data holders with structural ``==`` and a
``repr`` that tests can assert on.  Behaviour lives in the validator
(item-stack construction), the evaluator (:mod:`repro.sqldb.expression`)
and the executor.

A class's field order is its child order.  :func:`children`,
:func:`walk` and :func:`transform` are the only code that enumerates a
node's children — node fields, and the nodes inside list and tuple
fields (``Insert.rows`` is a list of lists, ``Case.whens`` a list of
``(condition, result)`` pairs, ``Select.unions`` of ``(all, Select)``).
The validator pushes an expression's operands in that order, then its
``label``: the operator text the item stack and ``to_sql`` both print.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter

#: the decorator of every concrete node class (structural ``==``, a
#: ``repr``, fields in ``__slots__``)
_node = dataclass(slots=True)


class Node(object):
    """Base class of every tree node."""

    __slots__ = ()


def children(node):
    """The nodes directly under *node*, in field order (a dataclass's
    ``__match_args__`` are its fields)."""
    out = []
    for name in node.__match_args__:
        _collect(out, getattr(node, name))
    return out


def _collect(out, value):
    if isinstance(value, Node):
        out.append(value)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect(out, item)
    return out


def walk(tree, prune=None):
    """Every node of *tree* (a node, or a list / tuple holding nodes),
    parents before children, children in field order.  A node for which
    ``prune(node)`` is true is yielded but not descended into."""
    pending = _collect([], tree)[::-1]
    while pending:
        node = pending.pop()
        yield node
        if prune is None or not prune(node):
            pending.extend(children(node)[::-1])


def transform(tree, fn):
    """*tree* rebuilt bottom-up: each node's children are transformed
    first, then ``fn(node)`` stands where the node stood (*fn* returns
    the node itself to keep it).  Nothing is mutated; a subtree *fn*
    leaves alone is shared, not copied."""
    if isinstance(tree, Node):
        changed = {}
        for name in tree.__match_args__:
            value = getattr(tree, name)
            new = transform(value, fn)
            if new is not value:
                changed[name] = new
        return fn(replace(tree, **changed) if changed else tree)
    if isinstance(tree, (list, tuple)):
        items = [transform(item, fn) for item in tree]
        if any(new is not old for new, old in zip(items, tree)):
            return type(tree)(items)
    return tree


def _negatable(word):
    return property(lambda self: "NOT " + word if self.negated else word)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr(Node):
    __slots__ = ()


@_node
class Literal(Expr):
    """A literal constant.  ``type_tag`` is one of ``int``, ``float``,
    ``string``, ``null``, ``bool`` — the validator maps it to a DATA item
    kind."""

    value: object
    type_tag: str


@_node
class Param(Expr):
    """A value slot: a ``?`` placeholder, or the place where a data
    literal stood in a statement the pipeline cache shares between
    texts.  ``index`` is the slot's position in the values vector an
    execution supplies; the node itself never holds a value."""

    index: int = None


@_node
class ColumnRef(Expr):
    """Reference to a column, optionally qualified by table/alias."""

    name: str
    table: str = None


@_node
class Star(Expr):
    """``*`` or ``table.*`` in a select list or ``COUNT(*)``."""

    table: str = None


@_node
class FuncCall(Expr):
    """Function invocation, including aggregates."""

    name: str
    args: list[Expr]
    distinct: bool = False

    label = property(attrgetter("name"))

    def __post_init__(self):
        self.name = self.name.upper()


@_node
class UnaryOp(Expr):
    """Prefix operator: ``-x``, ``+x``, ``~x``, ``!x``."""

    op: str
    operand: Expr

    label = property(attrgetter("op"))


@_node
class BinaryOp(Expr):
    """Arithmetic / comparison / bitwise binary operator."""

    op: str
    left: Expr
    right: Expr

    label = property(attrgetter("op"))


@_node
class Cond(Expr):
    """N-ary logical condition (AND / OR / XOR).

    MySQL flattens same-operator conjunction chains into a single
    ``Item_cond``; we mirror that so ``a AND b AND c`` yields exactly one
    ``COND_ITEM AND`` node in the stack (this matters for the mimicry
    example in the paper's Figure 4).
    """

    op: str
    operands: list[Expr]

    label = property(attrgetter("op"))


@_node
class Not(Expr):
    """``NOT expr``."""

    operand: Expr

    label = "NOT"


@_node
class InList(Expr):
    """``expr [NOT] IN (items)``; *items* is a list or a ``Subquery``."""

    expr: Expr
    items: list[Expr] | Subquery
    negated: bool = False

    label = _negatable("IN")


@_node
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False

    label = _negatable("BETWEEN")


@_node
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    expr: Expr
    negated: bool = False

    label = property(
        lambda self: "IS NOT NULL" if self.negated else "IS NULL")


@_node
class Like(Expr):
    """LIKE / REGEXP pattern match."""

    expr: Expr
    pattern: Expr
    negated: bool = False
    op: str = "LIKE"

    label = property(
        lambda self: "NOT " + self.op if self.negated else self.op)


@_node
class Case(Expr):
    """``CASE [operand] WHEN .. THEN .. [ELSE ..] END``."""

    operand: Expr | None
    whens: list[tuple[Expr, Expr]]
    default: Expr | None = None


@_node
class Cast(Expr):
    """``CAST(expr AS type)`` / ``CONVERT(expr, type)``."""

    expr: Expr
    type_name: str

    label = property(lambda self: "CAST " + self.type_name)

    def __post_init__(self):
        self.type_name = self.type_name.upper()


@_node
class Subquery(Expr):
    """A scalar subquery, or the list of ``IN (SELECT ...)``."""

    select: Select


@_node
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)``."""

    select: Select
    negated: bool = False

    label = _negatable("EXISTS")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Statement(Node):
    __slots__ = ()


@_node
class SelectField(Node):
    """One select-list entry: ``expr [AS alias]``."""

    expr: Expr
    alias: str = None


@_node
class TableRef(Node):
    """A base table in FROM / JOIN: ``name [AS alias]``."""

    name: str
    alias: str = None


@_node
class DerivedTable(Node):
    """A subquery in the FROM clause: ``FROM (SELECT ...) alias``."""

    select: Select
    alias: str


@_node
class Join(Node):
    """A JOIN clause attached to the preceding table."""

    kind: str                   # INNER / LEFT / RIGHT / CROSS
    table: TableRef | DerivedTable
    on: Expr = None


@_node
class OrderItem(Node):
    """One ORDER BY key: ``expr ASC|DESC``."""

    expr: Expr
    direction: str = "ASC"


@_node
class Limit(Node):
    """``LIMIT count [OFFSET offset]``."""

    count: Expr
    offset: Expr = None


def _list():
    return field(default_factory=list)


@_node
class Select(Statement):
    """``SELECT``; ORDER BY / LIMIT apply to the whole union when
    there are ``unions``."""

    fields: list[SelectField]
    tables: list[TableRef | DerivedTable] = _list()
    joins: list[Join] = _list()
    where: Expr = None
    group_by: list[Expr] = _list()
    having: Expr = None
    order_by: list[OrderItem] = _list()
    limit: Limit = None
    distinct: bool = False
    #: ``(all_flag, Select)`` per UNION branch
    unions: list[tuple[bool, Select]] = _list()


@_node
class Insert(Statement):
    """``INSERT`` / ``REPLACE``, ``VALUES`` or ``SET`` form."""

    table: str
    columns: list[str]          # may be empty: every column, in order
    rows: list[list[Expr]]
    ignore: bool = False
    #: REPLACE INTO semantics (delete conflicting row, then insert)
    replace: bool = False
    #: ON DUPLICATE KEY UPDATE assignments
    on_duplicate: list[tuple[str, Expr]] = _list()


@_node
class Update(Statement):
    """``UPDATE table SET ... [WHERE] [ORDER BY] [LIMIT]``."""

    table: str
    assignments: list[tuple[str, Expr]]
    where: Expr = None
    order_by: list[OrderItem] = _list()
    limit: Limit = None


@_node
class Delete(Statement):
    """``DELETE FROM table [WHERE] [ORDER BY] [LIMIT]``."""

    table: str
    where: Expr = None
    order_by: list[OrderItem] = _list()
    limit: Limit = None


@_node
class ColumnDef(Node):
    """One column of ``CREATE TABLE`` / ``ALTER TABLE ... ADD``."""

    name: str
    type_name: str
    length: int = None
    not_null: bool = False
    primary_key: bool = False
    auto_increment: bool = False
    default: Expr = None
    unique: bool = False


@_node
class CreateTable(Statement):
    """``CREATE TABLE [IF NOT EXISTS] name (columns)``."""

    name: str
    columns: list[ColumnDef]
    if_not_exists: bool = False


@_node
class DropTable(Statement):
    """``DROP TABLE [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@_node
class Begin(Statement):
    """``BEGIN`` / ``START TRANSACTION``."""


@_node
class Commit(Statement):
    """``COMMIT``."""


@_node
class Rollback(Statement):
    """``ROLLBACK``."""


@_node
class CreateIndex(Statement):
    """``CREATE INDEX name ON table (column)``."""

    name: str
    table: str
    column: str


@_node
class DropIndex(Statement):
    """``DROP INDEX name ON table``."""

    name: str
    table: str


@_node
class AlterTableAddColumn(Statement):
    """``ALTER TABLE t ADD [COLUMN] <coldef>``."""

    table: str
    column_def: ColumnDef


@_node
class AlterTableDropColumn(Statement):
    """``ALTER TABLE t DROP [COLUMN] name``."""

    table: str
    column: str


@_node
class TruncateTable(Statement):
    """``TRUNCATE [TABLE] table``."""

    table: str


@_node
class Explain(Statement):
    """``EXPLAIN <select>`` — reports the access plan."""

    select: Select


@_node
class ShowTables(Statement):
    """``SHOW TABLES``."""


@_node
class Describe(Statement):
    """``DESCRIBE table``."""

    table: str
