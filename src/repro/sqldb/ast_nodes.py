"""AST node classes for the mini-MySQL parser.

Nodes are plain data holders; behaviour lives in the validator
(item-stack construction), the evaluator (:mod:`repro.sqldb.expression`)
and the executor.  Every node implements ``__repr__`` and structural
``__eq__`` so tests can assert on parse trees directly.
"""


class Node(object):
    """Base class providing structural equality over ``__slots__``."""

    __slots__ = ()

    def _fields(self):
        out = []
        for cls in type(self).__mro__:
            out.extend(getattr(cls, "__slots__", ()))
        return out

    def __eq__(self, other):
        if type(self) is not type(other):
            return False
        return all(
            getattr(self, f) == getattr(other, f) for f in self._fields()
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(
            (type(self).__name__,)
            + tuple(_hashable(getattr(self, f)) for f in self._fields())
        )

    def __repr__(self):
        args = ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields()
        )
        return "%s(%s)" % (type(self).__name__, args)


def _hashable(value):
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr(Node):
    __slots__ = ()


class Literal(Expr):
    """A literal constant.  ``type_tag`` is one of ``int``, ``float``,
    ``string``, ``null``, ``bool`` — the validator maps it to a DATA item
    kind."""

    __slots__ = ("value", "type_tag")

    def __init__(self, value, type_tag):
        self.value = value
        self.type_tag = type_tag


class Param(Expr):
    """A value slot: a ``?`` placeholder, or the place where a data
    literal stood in a statement the pipeline cache shares between
    texts.  ``index`` is the slot's position in the values vector an
    execution supplies; the node itself never holds a value."""

    __slots__ = ("index",)

    def __init__(self, index=None):
        self.index = index


class ColumnRef(Expr):
    """Reference to a column, optionally qualified by table/alias."""

    __slots__ = ("table", "name")

    def __init__(self, name, table=None):
        self.name = name
        self.table = table


class Star(Expr):
    """``*`` or ``table.*`` in a select list or ``COUNT(*)``."""

    __slots__ = ("table",)

    def __init__(self, table=None):
        self.table = table


class FuncCall(Expr):
    """Function invocation, including aggregates."""

    __slots__ = ("name", "args", "distinct")

    def __init__(self, name, args, distinct=False):
        self.name = name.upper()
        self.args = args
        self.distinct = distinct


class UnaryOp(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op, operand):
        self.op = op
        self.operand = operand


class BinaryOp(Expr):
    """Arithmetic / comparison / bitwise binary operator."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right


class Cond(Expr):
    """N-ary logical condition (AND / OR / XOR).

    MySQL flattens same-operator conjunction chains into a single
    ``Item_cond``; we mirror that so ``a AND b AND c`` yields exactly one
    ``COND_ITEM AND`` node in the stack (this matters for the mimicry
    example in the paper's Figure 4).
    """

    __slots__ = ("op", "operands")

    def __init__(self, op, operands):
        self.op = op
        self.operands = operands


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand


class InList(Expr):
    __slots__ = ("expr", "items", "negated")

    def __init__(self, expr, items, negated=False):
        self.expr = expr
        self.items = items
        self.negated = negated


class Between(Expr):
    __slots__ = ("expr", "low", "high", "negated")

    def __init__(self, expr, low, high, negated=False):
        self.expr = expr
        self.low = low
        self.high = high
        self.negated = negated


class IsNull(Expr):
    __slots__ = ("expr", "negated")

    def __init__(self, expr, negated=False):
        self.expr = expr
        self.negated = negated


class Like(Expr):
    """LIKE / REGEXP pattern match."""

    __slots__ = ("expr", "pattern", "negated", "op")

    def __init__(self, expr, pattern, negated=False, op="LIKE"):
        self.expr = expr
        self.pattern = pattern
        self.negated = negated
        self.op = op


class Case(Expr):
    """``CASE [operand] WHEN .. THEN .. [ELSE ..] END``."""

    __slots__ = ("operand", "whens", "default")

    def __init__(self, whens, operand=None, default=None):
        self.operand = operand
        self.whens = whens          # list of (cond_expr, result_expr)
        self.default = default


class Cast(Expr):
    """``CAST(expr AS type)`` / ``CONVERT(expr, type)``."""

    __slots__ = ("expr", "type_name")

    def __init__(self, expr, type_name):
        self.expr = expr
        self.type_name = type_name.upper()


class Subquery(Expr):
    __slots__ = ("select",)

    def __init__(self, select):
        self.select = select


class Exists(Expr):
    __slots__ = ("select", "negated")

    def __init__(self, select, negated=False):
        self.select = select
        self.negated = negated


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Statement(Node):
    __slots__ = ()


class SelectField(Node):
    __slots__ = ("expr", "alias")

    def __init__(self, expr, alias=None):
        self.expr = expr
        self.alias = alias


class TableRef(Node):
    __slots__ = ("name", "alias")

    def __init__(self, name, alias=None):
        self.name = name
        self.alias = alias


class DerivedTable(Node):
    """A subquery in the FROM clause: ``FROM (SELECT ...) alias``."""

    __slots__ = ("select", "alias")

    def __init__(self, select, alias):
        self.select = select
        self.alias = alias


class Join(Node):
    """A JOIN clause attached to the preceding table."""

    __slots__ = ("kind", "table", "on")

    def __init__(self, kind, table, on=None):
        self.kind = kind            # INNER / LEFT / RIGHT / CROSS
        self.table = table
        self.on = on


class OrderItem(Node):
    __slots__ = ("expr", "direction")

    def __init__(self, expr, direction="ASC"):
        self.expr = expr
        self.direction = direction


class Limit(Node):
    __slots__ = ("count", "offset")

    def __init__(self, count, offset=None):
        self.count = count
        self.offset = offset


class Select(Statement):
    __slots__ = (
        "fields", "tables", "joins", "where", "group_by", "having",
        "order_by", "limit", "distinct", "unions",
    )

    def __init__(
        self,
        fields,
        tables=None,
        joins=None,
        where=None,
        group_by=None,
        having=None,
        order_by=None,
        limit=None,
        distinct=False,
        unions=None,
    ):
        self.fields = fields
        self.tables = tables or []
        self.joins = joins or []
        self.where = where
        self.group_by = group_by or []
        self.having = having
        self.order_by = order_by or []
        self.limit = limit
        self.distinct = distinct
        #: list of (all_flag, Select) attached by UNION
        self.unions = unions or []


class Insert(Statement):
    __slots__ = ("table", "columns", "rows", "ignore", "replace",
                 "on_duplicate")

    def __init__(self, table, columns, rows, ignore=False, replace=False,
                 on_duplicate=None):
        self.table = table
        self.columns = columns      # list of column names (may be empty)
        self.rows = rows            # list of list of Expr
        self.ignore = ignore
        #: REPLACE INTO semantics (delete conflicting row, then insert)
        self.replace = replace
        #: ON DUPLICATE KEY UPDATE assignments: list of (column, Expr)
        self.on_duplicate = on_duplicate or []


class Update(Statement):
    __slots__ = ("table", "assignments", "where", "order_by", "limit")

    def __init__(self, table, assignments, where=None, order_by=None,
                 limit=None):
        self.table = table
        self.assignments = assignments  # list of (column_name, Expr)
        self.where = where
        self.order_by = order_by or []
        self.limit = limit


class Delete(Statement):
    __slots__ = ("table", "where", "order_by", "limit")

    def __init__(self, table, where=None, order_by=None, limit=None):
        self.table = table
        self.where = where
        self.order_by = order_by or []
        self.limit = limit


class ColumnDef(Node):
    __slots__ = (
        "name", "type_name", "length", "not_null", "primary_key",
        "auto_increment", "default", "unique",
    )

    def __init__(self, name, type_name, length=None, not_null=False,
                 primary_key=False, auto_increment=False, default=None,
                 unique=False):
        self.name = name
        self.type_name = type_name
        self.length = length
        self.not_null = not_null
        self.primary_key = primary_key
        self.auto_increment = auto_increment
        self.default = default
        self.unique = unique


class CreateTable(Statement):
    __slots__ = ("name", "columns", "if_not_exists")

    def __init__(self, name, columns, if_not_exists=False):
        self.name = name
        self.columns = columns
        self.if_not_exists = if_not_exists


class DropTable(Statement):
    __slots__ = ("name", "if_exists")

    def __init__(self, name, if_exists=False):
        self.name = name
        self.if_exists = if_exists


class Begin(Statement):
    """``BEGIN`` / ``START TRANSACTION``."""

    __slots__ = ()


class Commit(Statement):
    __slots__ = ()


class Rollback(Statement):
    __slots__ = ()


class CreateIndex(Statement):
    __slots__ = ("name", "table", "column")

    def __init__(self, name, table, column):
        self.name = name
        self.table = table
        self.column = column


class DropIndex(Statement):
    __slots__ = ("name", "table")

    def __init__(self, name, table):
        self.name = name
        self.table = table


class AlterTableAddColumn(Statement):
    """``ALTER TABLE t ADD [COLUMN] <coldef>``."""

    __slots__ = ("table", "column_def")

    def __init__(self, table, column_def):
        self.table = table
        self.column_def = column_def


class AlterTableDropColumn(Statement):
    """``ALTER TABLE t DROP [COLUMN] name``."""

    __slots__ = ("table", "column")

    def __init__(self, table, column):
        self.table = table
        self.column = column


class TruncateTable(Statement):
    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table


class Explain(Statement):
    """``EXPLAIN <select>`` — reports the access plan."""

    __slots__ = ("select",)

    def __init__(self, select):
        self.select = select


class ShowTables(Statement):
    __slots__ = ()


class Describe(Statement):
    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table
