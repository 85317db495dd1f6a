"""Query planning — the *plan* half of the plan/execute split.

Statements travel ``AST → physical plan``: :class:`Planner` lowers a
statement to a tree of :mod:`repro.sqldb.plan` operators.  This module
is the single owner of every access-path, join-strategy and top-k
decision the engine makes:

* **access path** — :meth:`Planner._access_plan` walks the flattened
  AND chain of the WHERE clause and picks an index bucket probe
  (:class:`~repro.sqldb.plan.IndexEqScan`) or a bisect range scan
  (:class:`~repro.sqldb.plan.IndexRangeScan`) over the fallback
  :class:`~repro.sqldb.plan.SeqScan`;
* **join strategy** — :meth:`Planner._equi_join_keys` recognises
  hash-safe equi predicates and chooses
  :class:`~repro.sqldb.plan.HashJoin` over
  :class:`~repro.sqldb.plan.NestedLoopJoin`;
* **top-k** — ORDER BY fused with LIMIT becomes
  :class:`~repro.sqldb.plan.TopK` instead of a full
  :class:`~repro.sqldb.plan.Sort`.

The executor keeps only dispatch and DDL; ``EXPLAIN`` renders the tree
built here, so what EXPLAIN says is by construction what runs.
"""

from repro import faults as faults_mod
from repro.sqldb import ast_nodes as ast
from repro.sqldb import plan as plan_mod
from repro.sqldb.errors import ExecutionError
from repro.sqldb.functions import is_aggregate
from repro.sqldb.prepared import bind_values
from repro.sqldb.types import type_class
from repro.sqldb.unparse import to_sql


# -- physical planning -------------------------------------------------


class Planner(object):
    """Lowers validated statements to physical operator trees.

    One instance plans one statement: it carries the planner toggles
    (the benchmarks flip these to compare strategies on equal footing),
    assigns unique node ids across the whole tree — union branches,
    derived subplans included — and collects every base table the tree
    touches for lock planning."""

    def __init__(self, database, enable_hash_join=True, enable_topk=True,
                 slot_tags=()):
        self._db = database
        self.enable_hash_join = enable_hash_join
        self.enable_topk = enable_topk
        #: literal type tag per value slot of the statement.  A plan is
        #: shared by every execution of its statement, so planning may
        #: depend on a slot's type and never on its value; operators
        #: evaluate the slot when they open.
        self._slot_tags = slot_tags
        self._ids = 0
        self._tables = set()

    def _mk(self, node):
        self._ids += 1
        node.node_id = self._ids
        return node

    def plan_statement(self, stmt):
        """Physical plan for *stmt*, or ``None`` for statement kinds
        that execute without one (DDL, SHOW, transactions...)."""
        if faults_mod.ACTIVE is not None:
            faults_mod.fire("planner.plan")
        if isinstance(stmt, ast.Explain):
            stmt = stmt.select
        if isinstance(stmt, ast.Select):
            root, columns = self._plan_select(stmt)
            return plan_mod.PhysicalPlan("select", root, columns,
                                         self._tables)
        if isinstance(stmt, ast.Insert):
            self._tables.add(stmt.table.lower())
            sink = self._mk(plan_mod.InsertSink(stmt))
            return plan_mod.PhysicalPlan("insert", sink,
                                         tables=self._tables)
        if isinstance(stmt, ast.Update):
            return self._plan_dml(stmt, plan_mod.UpdateSink, "update")
        if isinstance(stmt, ast.Delete):
            return self._plan_dml(stmt, plan_mod.DeleteSink, "delete")
        return None

    # -- SELECT --------------------------------------------------------

    def _plan_select(self, stmt):
        node, columns = self._plan_single(stmt)
        foreign = None
        if stmt.unions:
            # the statement's ORDER BY / LIMIT belong to the union and
            # may only name its output columns
            node = self._plan_union(node, columns, stmt.unions)
            foreign = _union_order_error
        node = _order_limit(self._mk, node, stmt, columns,
                            self.enable_topk, foreign)
        return node, columns

    def _plan_union(self, head, columns, unions):
        """Concat of the branches with Distinct where MySQL puts it: a
        DISTINCT union dedupes everything to its left, overriding any
        ALL union there, and ALL branches after the last DISTINCT one
        append as they come (5.7 manual 13.2.9.3).  Branch arity is
        checked here, at plan time — cached statements are shared
        between executions, so neither planning nor execution mutates
        them."""
        inputs = [head]
        deduped = 0
        for all_flag, branch in unions:
            branch_root, branch_cols = self._plan_select(branch)
            if len(branch_cols) != len(columns):
                raise ExecutionError(
                    "The used SELECT statements have a different "
                    "number of columns", errno=1222,
                )
            inputs.append(branch_root)
            if not all_flag:
                deduped = len(inputs)
        if deduped:
            merged = self._mk(plan_mod.Concat(inputs[:deduped]))
            inputs[:deduped] = [self._mk(plan_mod.Distinct(merged))]
        if len(inputs) == 1:
            return inputs[0]
        return self._mk(plan_mod.Concat(inputs))

    def _plan_single(self, stmt):
        """One SELECT up to its DISTINCT; :meth:`_plan_select` adds the
        ORDER BY / LIMIT tail."""
        node, source_columns = self._plan_sources(stmt)
        if stmt.where is not None:
            node = self._mk(plan_mod.Filter(node, stmt.where, "where"))
        aggregates = _aggregates((stmt.fields, stmt.having, stmt.order_by))
        if stmt.group_by or aggregates:
            node = self._mk(plan_mod.Aggregate(node, stmt.group_by,
                                               aggregates))
            if stmt.having is not None:
                node = self._mk(plan_mod.Filter(node, stmt.having,
                                                "having"))
        columns, specs = self._project_specs(stmt, source_columns)
        node = self._mk(plan_mod.Project(node, columns, specs))
        if stmt.distinct:
            node = self._mk(plan_mod.Distinct(node))
        return node, columns

    def _plan_sources(self, stmt):
        if not stmt.tables:
            return self._mk(plan_mod.SingleRow()), []
        alias_map = self._alias_map(stmt)
        single = len(stmt.tables) == 1 and not stmt.joins
        node, columns = self._plan_table(stmt.tables[0], stmt.where,
                                         single, first_table=True)
        for ref in stmt.tables[1:]:
            right, right_cols = self._plan_table(ref, None, False,
                                                 first_table=False)
            node = self._mk(plan_mod.NestedLoopJoin(
                node, right, "CROSS", None, right_cols, counted=False,
            ))
            columns = columns + right_cols
        left_aliases = {alias for alias, _ in columns}
        for join in stmt.joins:
            right, right_cols = self._plan_table(join.table, None, False,
                                                 first_table=False)
            keys = None
            # the join-strategy decision: hash when the ON clause has a
            # hash-safe equi predicate, nested loops otherwise
            if (self.enable_hash_join and join.on is not None
                    and join.kind in ("INNER", "LEFT", "RIGHT")):
                keys = self._equi_join_keys(join, left_aliases, alias_map)
            if keys is not None:
                right_name = join.table.name.lower()
                node = self._mk(plan_mod.HashJoin(
                    node, right, join.kind, join.on, keys[0], keys[1],
                    right_cols, right_name,
                ))
            else:
                node = self._mk(plan_mod.NestedLoopJoin(
                    node, right, join.kind, join.on, right_cols,
                    counted=True,
                ))
            columns = columns + right_cols
            left_aliases |= {alias for alias, _ in right_cols}
        return node, columns

    def _plan_table(self, ref, where, allow_unqualified, first_table):
        """Scan node + ``[(alias, column), ...]`` for one table ref.
        *where* is only passed for the first table (the access-path
        decision); join and comma right sides always scan."""
        if isinstance(ref, ast.DerivedTable):
            alias = ref.alias.lower()
            inner_root, inner_cols = self._plan_select(ref.select)
            inner_plan = plan_mod.PhysicalPlan("select", inner_root,
                                               inner_cols)
            scan = self._mk(plan_mod.DerivedScan(alias, ref.alias,
                                                 inner_plan))
            return scan, [(alias, name.lower()) for name in inner_cols]
        table = self._db.table(ref.name)
        self._tables.add(table.name)
        alias = (ref.alias or ref.name).lower()
        columns = [(alias, col.name) for col in table.columns]
        if first_table and where is not None:
            plan = self._access_plan(ref, where, allow_unqualified)
            if plan is not None and plan[0] == "eq":
                return self._mk(plan_mod.IndexEqScan(
                    table.name, alias, plan[1], plan[2],
                )), columns
            if plan is not None:
                _, column, low, high, low_incl, high_incl = plan
                return self._mk(plan_mod.IndexRangeScan(
                    table.name, alias, column, low, high,
                    low_incl, high_incl,
                )), columns
        return self._mk(plan_mod.SeqScan(
            table.name, alias, counted=first_table,
        )), columns

    def _project_specs(self, stmt, source_columns):
        """Output column names + plan-time projection specs."""
        columns = []
        specs = []
        for field in stmt.fields:
            if isinstance(field.expr, ast.Star):
                wanted = field.expr.table
                for alias, col in source_columns:
                    if wanted is not None and alias != wanted.lower():
                        continue
                    columns.append(col)
                    specs.append(("col", "%s.%s" % (alias, col)))
                if wanted is not None and not any(
                    alias == wanted.lower() for alias, _ in source_columns
                ):
                    raise ExecutionError("Unknown table '%s'" % wanted)
            else:
                columns.append(field.alias or _field_label(field.expr))
                specs.append(("expr", field.expr))
        return columns, specs

    # -- DML -----------------------------------------------------------

    def _plan_dml(self, stmt, sink_cls, kind):
        table = self._db.tables.get(stmt.table.lower())
        alias = table.name if table is not None else stmt.table.lower()
        self._tables.add(alias)
        node = self._mk(plan_mod.SeqScan(alias, alias, counted=False))
        if stmt.where is not None:
            node = self._mk(plan_mod.Filter(node, stmt.where, "where"))
        sink = self._mk(sink_cls(node, stmt, alias))
        return plan_mod.PhysicalPlan(kind, sink, tables=self._tables)

    # -- decision helpers ----------------------------------------------

    def _alias_map(self, stmt):
        """alias → catalog Table (``None`` for derived tables)."""
        mapping = {}
        for ref in list(stmt.tables) + [join.table for join in stmt.joins]:
            if isinstance(ref, ast.DerivedTable):
                mapping[ref.alias.lower()] = None
            else:
                alias = (ref.alias or ref.name).lower()
                mapping[alias] = self._db.tables.get(ref.name.lower())
        return mapping

    def _access_plan(self, ref, where, allow_unqualified=True):
        """Choose the access path for *ref* from the WHERE clause.

        Walks the flattened operands of (arbitrarily nested) AND chains
        and returns ``("eq", column, constant)`` for an index bucket
        probe, ``("range", column, low, high, low_incl, high_incl)`` for
        a bisect scan, or ``None`` for a full scan; the constants are
        the ``Literal``/``Param`` nodes themselves, evaluated when the
        scan opens.  Equality wins over range.  Unqualified column refs
        are only trusted when the caller says the statement is
        unambiguous (single table, no joins) — with joins in scope,
        only ``alias.column`` predicates narrow the probe side.
        Narrowing is always a superset of the WHERE match (the full
        predicate still filters afterwards), so a declined plan costs a
        scan, never correctness.
        """
        if where is None:
            return None
        table = self._db.tables.get(ref.name.lower())
        if table is None:
            return None
        indexed = table.indexed_columns()
        alias = (ref.alias or ref.name).lower()
        range_plan = None
        for expr in _and_operands(where):
            pair = _equality_pair(expr, alias, allow_unqualified)
            if (pair is not None and pair[0] in indexed
                    and self._fits_column(table, pair[0], pair[1])):
                return ("eq",) + pair
            if range_plan is None:
                bounds = _range_bounds(expr, alias, allow_unqualified)
                if (bounds is not None and bounds[0] in indexed
                        and all(constant is None
                                or self._fits_column(table, bounds[0],
                                                     constant)
                                for constant in (bounds[1], bounds[2]))):
                    range_plan = ("range",) + bounds
        return range_plan

    def _fits_column(self, table, column, constant):
        """Index access is only trusted when the constant's class
        matches the column's storage class: stored values are
        homogeneous after ``store_convert``, so within a class the
        index key order/equality agrees with :func:`compare` — but a
        numeric constant against a string column coerces row-by-row and
        must fall back to a scan.  NULL never matches through an index
        (nor through ``=``).  Decided from the constant's type tag, so
        the decision holds for every value a slot will take."""
        if isinstance(constant, ast.Param):
            index = constant.index
            if index is None or index >= len(self._slot_tags):
                return False
            tag = self._slot_tags[index]
        else:
            tag = constant.type_tag
        cls = type_class(table.column(column).type_name)
        if cls == "n":
            return tag in ("bool", "int", "float", "string")
        if cls == "s":
            return tag == "string"
        return False

    def _equi_join_keys(self, join, left_aliases, alias_map):
        """``(left "alias.col", right "alias.col")`` when the ON clause
        contains a hash-safe equi predicate, else ``None``.

        Hash-safe means: both sides are base-table columns whose types
        share a :func:`type_class` — :func:`compare` coerces *across*
        classes (``'1' = 1`` matches), which a static hash key cannot
        reproduce, so mixed-class keys fall back to nested loops.
        """
        right_ref = join.table
        if isinstance(right_ref, ast.DerivedTable):
            return None
        right_alias = (right_ref.alias or right_ref.name).lower()
        if right_alias in left_aliases:
            return None     # self-join without aliases: refs ambiguous
        for expr in _and_operands(join.on):
            if not isinstance(expr, ast.BinaryOp) or expr.op != "=":
                continue
            sides = []
            for operand in (expr.left, expr.right):
                side = self._join_side(operand, left_aliases, right_alias,
                                       alias_map)
                if side is None:
                    break
                sides.append(side)
            if len(sides) != 2:
                continue
            (side1, key1, class1), (side2, key2, class2) = sides
            if {side1, side2} != {"left", "right"}:
                continue
            if class1 is None or class1 != class2:
                continue
            if side1 == "left":
                return key1, key2
            return key2, key1
        return None

    def _join_side(self, operand, left_aliases, right_alias, alias_map):
        """Classify one ON operand: ``(side, "alias.col", type_class)``
        or ``None`` when it is not a resolvable base-table column."""
        if not isinstance(operand, ast.ColumnRef):
            return None
        name = operand.name.lower()
        if operand.table is not None:
            alias = operand.table.lower()
            if alias == right_alias:
                side = "right"
            elif alias in left_aliases:
                side = "left"
            else:
                return None
        else:
            scope = list(left_aliases) + [right_alias]
            if any(alias_map.get(a) is None for a in scope):
                return None     # a derived table could shadow the name
            owners = [a for a in scope
                      if alias_map[a].has_column(name)]
            if len(owners) != 1:
                return None
            alias = owners[0]
            side = "right" if alias == right_alias else "left"
        table = alias_map.get(alias)
        if table is None or not table.has_column(name):
            return None
        return side, "%s.%s" % (alias, name), \
            type_class(table.column(name).type_name)


# -- AST walking helpers -----------------------------------------------


def _aggregates(tree):
    """The aggregate calls in *tree* that its SELECT computes per group
    (none inside a nested query)."""
    return [node for node in ast.walk(tree, _stops) if _is_aggregate(node)]


def _stops(node):
    return isinstance(node, ast.Select) or _is_aggregate(node)


def _is_aggregate(node):
    return isinstance(node, ast.FuncCall) and is_aggregate(node.name)


def _and_operands(expr):
    """Flatten arbitrarily nested AND chains into their leaf operands."""
    if isinstance(expr, ast.Cond) and expr.op == "AND":
        leaves = []
        for operand in expr.operands:
            leaves.extend(_and_operands(operand))
        return leaves
    return [expr]


def _scoped_column(expr, alias, allow_unqualified):
    """Column name when *expr* is a ColumnRef resolvable to *alias*."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    if expr.table is None:
        return expr.name.lower() if allow_unqualified else None
    return expr.name.lower() if expr.table.lower() == alias else None


#: expression nodes whose value does not depend on the row
_CONSTANTS = (ast.Literal, ast.Param)


def _equality_pair(expr, alias, allow_unqualified=True):
    """``(column, constant node)`` for ``col = constant`` (either side)
    scoped to *alias*, else ``None``."""
    if not isinstance(expr, ast.BinaryOp) or expr.op != "=":
        return None
    for left, right in ((expr.left, expr.right), (expr.right, expr.left)):
        if isinstance(left, ast.ColumnRef) and isinstance(right,
                                                          _CONSTANTS):
            column = _scoped_column(left, alias, allow_unqualified)
            if column is None:
                continue
            return column, right
    return None


#: comparison flips when the literal moves to the left of the operator
_FLIPPED = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _range_bounds(expr, alias, allow_unqualified):
    """``(col, low, high, low_incl, high_incl)`` for an index range
    scan (``<``/``>``/``<=``/``>=``/``BETWEEN`` against a constant);
    *low*/*high* are constant nodes, ``None`` for an open side."""
    if isinstance(expr, ast.Between) and not expr.negated:
        column = _scoped_column(expr.expr, alias, allow_unqualified)
        if (column is not None
                and isinstance(expr.low, _CONSTANTS)
                and isinstance(expr.high, _CONSTANTS)):
            return (column, expr.low, expr.high, True, True)
        return None
    if not isinstance(expr, ast.BinaryOp) or expr.op not in _FLIPPED:
        return None
    op = expr.op
    if isinstance(expr.left, ast.ColumnRef) and isinstance(expr.right,
                                                           _CONSTANTS):
        ref, constant = expr.left, expr.right
    elif isinstance(expr.right, ast.ColumnRef) and isinstance(expr.left,
                                                              _CONSTANTS):
        ref, constant = expr.right, expr.left
        op = _FLIPPED[op]
    else:
        return None
    column = _scoped_column(ref, alias, allow_unqualified)
    if column is None:
        return None
    if op == "<":
        return (column, None, constant, True, False)
    if op == "<=":
        return (column, None, constant, True, True)
    if op == ">":
        return (column, constant, None, False, True)
    return (column, constant, None, True, True)


def _field_label(expr):
    """Column heading MySQL would produce for an unaliased expression."""
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        return "%s(...)" % expr.name.lower()
    if isinstance(expr, ast.Literal):
        from repro.sqldb.types import render_value
        return render_value(expr.value)
    if isinstance(expr, ast.Param):
        return "?"
    return type(expr).__name__.lower()


def _order_limit(mk, node, stmt, columns, topk=True, foreign=None):
    """The ORDER BY / LIMIT tail every SELECT shape gets — a single
    SELECT, a UNION, a shard gather.  The top-k decision: ORDER BY fused
    with LIMIT runs as a bounded heap instead of a full sort.  *foreign*
    goes to :func:`~repro.sqldb.plan.order_keys`."""
    if stmt.order_by:
        ordering = plan_mod.order_keys(stmt.order_by, columns, foreign)
        if stmt.limit is not None and topk:
            node = mk(plan_mod.TopK(node, ordering, stmt.limit.count,
                                    stmt.limit.offset))
        else:
            node = mk(plan_mod.Sort(node, ordering))
    if stmt.limit is not None:
        node = mk(plan_mod.Limit(node, stmt.limit.count, stmt.limit.offset))
    return node


def _union_order_error(expr):
    return ExecutionError(
        "Unknown column '%s' in 'order clause'" % to_sql(expr), errno=1054)


# -- distributed planning ----------------------------------------------
#
# The sharding pass.  A :class:`DistributedPlanner` classifies one
# parsed statement against a shard catalog (a duck-typed object with
# ``shard_key(table)`` and ``columns(table)`` — the router supplies
# :class:`repro.shard.catalog.ShardCatalog`) and returns a
# :class:`ShardRoute`.  The planner never computes a hash: single-shard
# routes carry the *key values* and the router's catalog maps value →
# shard ordinal, which keeps every piece of hash-partitioning
# arithmetic inside ``repro/shard`` (a lint gate pins this).
#
# Route kinds:
#
# * ``"single"`` — shard-key equality (or a keyed DML/INSERT): the
#   original SQL text runs on exactly one shard, preserving that
#   shard's warm pipeline-cache path.  The key may be a ``Param`` slot
#   of a slotting parse: the route then names the slot, the value is
#   read late from each text's values vector, and one route serves
#   every text of the statement's shape;
# * ``"scatter"`` — a cross-shard SELECT: ``plan`` is a
#   :class:`~repro.sqldb.plan.PhysicalPlan` whose leaves are
#   :class:`~repro.sqldb.plan.ShardScan` nodes carrying rewritten
#   per-shard SQL, merged by :class:`~repro.sqldb.plan.Concat` or the
#   partial→final :class:`~repro.sqldb.plan.GatherAggregate`, under the
#   same Distinct and ORDER BY / LIMIT tail a single SELECT gets
#   (``Limit(TopK(Concat(ShardScan…)))`` for a cross-shard top-k);
# * ``"broadcast"`` — DDL fanned out to every shard;
# * ``"any"`` — statements without sharded state (SHOW/DESCRIBE, or a
#   table the catalog pins whole to shard 0).
#
# v1 scope: multi-shard DML, transactions, UNION, HAVING and FROM-
# subqueries across shards raise errno 1235 ("not supported") at plan
# time — before anything executes anywhere.

_UNSUPPORTED_ERRNO = 1235

_BROADCAST_STATEMENTS = (
    ast.CreateTable, ast.DropTable, ast.CreateIndex, ast.DropIndex,
    ast.AlterTableAddColumn, ast.AlterTableDropColumn, ast.TruncateTable,
)

#: aggregate functions with a partial→final decomposition
_DECOMPOSABLE_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")


class ShardRoute(object):
    """One routed statement: where it runs and what runs there.

    A route without a ``plan`` decided nothing by a data literal's
    value, so the router may file it under the statement's *shape*: it
    then holds kind, table, key slots and read class — no AST, and
    ``sql`` only when the caller of :meth:`DistributedPlanner.route`
    passed one."""

    __slots__ = ("kind", "table", "key_values", "key_slots", "read",
                 "slots", "sql", "plan", "ddl")

    def __init__(self, kind, table=None, key_values=(), sql=None,
                 plan=None, key_slots=(), read=False, ddl=None):
        self.kind = kind
        self.table = table
        #: shard-key values for ``"single"`` routes — the router hashes
        #: them; more than one distinct target shard is a routing error
        self.key_values = tuple(key_values)
        #: ... and the value slots that carry further ones, read from
        #: the values vector of the text being routed
        self.key_slots = tuple(key_slots)
        #: the statement only reads: a replica may serve it
        self.read = read
        #: token positions of the statement's value slots, in slot
        #: order — set by whoever files the route under its shape
        self.slots = ()
        self.sql = sql
        self.plan = plan
        #: the parsed statement of a ``"broadcast"`` route (the catalog
        #: observes it as it fans out)
        self.ddl = ddl

    def keys(self, values=()):
        """Every shard-key value of a text whose slots hold *values*."""
        return self.key_values + tuple(values[slot]
                                       for slot in self.key_slots)

    def __repr__(self):
        if self.kind == "scatter":
            return "ShardRoute(scatter, %r)" % (self.plan,)
        return "ShardRoute(%s, table=%r, keys=%r, slots=%r)" % (
            self.kind, self.table, self.key_values, self.key_slots
        )


def _unsupported(what):
    return ExecutionError(
        "%s is not supported across shards (v1: single-shard writes, "
        "scatter/gather reads)" % what, errno=_UNSUPPORTED_ERRNO,
    )


def _refuse_key_move(assignments, table, key):
    """Refuse a write that assigns the shard key: the row's new key may
    belong to another shard, and the row would stay on its old one."""
    for col, _ in assignments:
        if col.lower() == key:
            raise _unsupported("an assignment to %r's shard key %r"
                               % (table, key))


def _shard_order_error(expr):
    return _unsupported("cross-shard ORDER BY on a non-output column")


class DistributedPlanner(object):
    """Classify statements as single-shard or cross-shard and build the
    scatter/gather plan for the latter."""

    def __init__(self, shard_count, catalog):
        self.shard_count = shard_count
        self.catalog = catalog
        self._next_id = 0

    def _mk(self, node):
        self._next_id += 1
        node.node_id = self._next_id
        return node

    # -- classification ------------------------------------------------

    def route(self, stmt, sql_text=None, values=(), comments=()):
        """The :class:`ShardRoute` for one parsed statement.  *values*
        is the values vector of a slotting parse: its ``Param`` slots
        count as the constants they stand for, and only their *types*
        (which every text of the shape shares) are looked at unless the
        statement scatters.  *comments* are the parse's comment bodies:
        a scatter's legs are re-rendered SQL, and carry them again —
        they are the call site's external identifier, without which a
        shard would learn the leg as an unknown query instead of
        comparing it with the call site's models."""
        if isinstance(stmt, _BROADCAST_STATEMENTS):
            return ShardRoute("broadcast", sql=sql_text, ddl=stmt)
        if isinstance(stmt, (ast.Begin, ast.Commit, ast.Rollback)):
            raise _unsupported("an explicit transaction")
        if isinstance(stmt, ast.Insert):
            return self._route_insert(stmt, sql_text, values)
        if isinstance(stmt, (ast.Update, ast.Delete)):
            return self._route_dml(stmt, sql_text, values)
        if isinstance(stmt, ast.Select):
            return self._route_select(stmt, sql_text, values, comments)
        # SHOW TABLES / DESCRIBE / EXPLAIN: schema is identical on every
        # shard (DDL broadcasts), so any one shard answers
        return ShardRoute("any", sql=sql_text, read=True)

    def _key_for(self, table):
        return self.catalog.shard_key(table)

    @staticmethod
    def _constant(node, values):
        """``(True, value)`` when *node* is a constant this pass can
        read — a literal, or a slot *values* fills — else ``(False,
        None)``: an expression, or a ``?`` bound after routing."""
        if isinstance(node, ast.Literal):
            return True, node.value
        if isinstance(node, ast.Param) and node.index < len(values):
            return True, values[node.index]
        return False, None

    def _single(self, table, nodes, sql_text, read=False):
        """The single-shard route keyed by constant *nodes*: a literal's
        value now, a slot's late."""
        return ShardRoute(
            "single", table=table, sql=sql_text, read=read,
            key_values=[node.value for node in nodes
                        if isinstance(node, ast.Literal)],
            key_slots=[node.index for node in nodes
                       if isinstance(node, ast.Param)],
        )

    def _where_key(self, stmt, table, alias, key, values):
        """The constant node the WHERE clause pins the shard key to, if
        any.  A string key compared with a number is no pin: the engine
        compares numerically there, and rows on several shards match."""
        if stmt.where is None:
            return None
        strings_only = self.catalog.key_class(table) == "s"
        for operand in _and_operands(stmt.where):
            pair = _equality_pair(operand, alias)
            if pair is None or pair[0].lower() != key:
                continue
            known, value = self._constant(pair[1], values)
            if known and value is not None and (
                    isinstance(value, str) or not strings_only):
                return pair[1]
        return None

    # -- writes --------------------------------------------------------

    def _route_insert(self, stmt, sql_text, values):
        key = self._key_for(stmt.table)
        if key is None:
            return ShardRoute("any", table=stmt.table, sql=sql_text)
        columns = stmt.columns or self.catalog.columns(stmt.table)
        if not columns:
            raise _unsupported(
                "INSERT into %r before its CREATE TABLE reached the "
                "router (unknown column order)" % stmt.table
            )
        lowered = [c.lower() for c in columns]
        if key not in lowered:
            raise _unsupported(
                "INSERT into %r without its shard key %r" % (stmt.table,
                                                             key)
            )
        _refuse_key_move(stmt.on_duplicate or (), stmt.table, key)
        position = lowered.index(key)
        nodes = []
        for row in stmt.rows:
            if position >= len(row) \
                    or not self._constant(row[position], values)[0]:
                raise _unsupported(
                    "INSERT into %r with a non-literal shard key"
                    % stmt.table
                )
            nodes.append(row[position])
        return self._single(stmt.table, nodes, sql_text)

    def _route_dml(self, stmt, sql_text, values):
        key = self._key_for(stmt.table)
        if key is None:
            return ShardRoute("any", table=stmt.table, sql=sql_text)
        node = self._where_key(stmt, stmt.table, stmt.table, key, values)
        if node is None:
            raise _unsupported(
                "multi-shard %s of %r (no shard-key equality on %r)"
                % (type(stmt).__name__.upper(), stmt.table, key)
            )
        if isinstance(stmt, ast.Update):
            _refuse_key_move(stmt.assignments, stmt.table, key)
        return self._single(stmt.table, (node,), sql_text)

    # -- reads ---------------------------------------------------------

    def _route_select(self, stmt, sql_text, values, comments):
        if stmt.unions:
            raise _unsupported("UNION")
        sources = list(stmt.tables) + [join.table for join in stmt.joins]
        for source in sources:
            if not isinstance(source, ast.TableRef):
                raise _unsupported("a FROM subquery")
        if not sources:
            # SELECT without FROM: pure expression, any shard answers
            return ShardRoute("any", sql=sql_text, read=True)
        keyed = []          # constants pinning sharded sources' keys
        types = set()       # ... and the declared types of those keys
        pinned = 0          # unsharded sources (whole table on shard 0)
        scatterable = []    # sharded sources without a key equality
        for ref in sources:
            key = self._key_for(ref.name)
            if key is None:
                pinned += 1
                continue
            node = self._where_key(stmt, ref.name, ref.alias or ref.name,
                                   key, values)
            if node is None:
                scatterable.append(ref)
            else:
                keyed.append(node)
                types.add(self.catalog.key_type(ref.name))
        if not scatterable and not pinned and len(types) == 1:
            # every source has a shard-key equality: single-shard (the
            # router verifies the key values co-locate, hashing each as
            # the first source's key column stores it — which is how its
            # own column does only when the declared types agree)
            return self._single(sources[0].name, keyed, sql_text,
                                read=True)
        if len(sources) == 1:
            if pinned:
                # the only source lives whole on shard 0
                return ShardRoute("any", table=sources[0].name,
                                  sql=sql_text, read=True)
            # a scatter's per-shard SQL and gather plan embed the
            # literals, so they are planned from the unslotted tree and
            # cached by text
            return self._scatter_select(bind_values(stmt, values),
                                        sources[0], comments)
        raise _unsupported("a cross-shard join")

    # -- scatter/gather plan construction ------------------------------

    def _output_fields(self, stmt, table):
        """Expand ``*`` through the catalog's column order so the
        gather knows its output shape."""
        fields = []
        for field in stmt.fields:
            if isinstance(field.expr, ast.Star):
                columns = self.catalog.columns(table)
                if not columns:
                    raise _unsupported(
                        "SELECT * from %r before its CREATE TABLE "
                        "reached the router" % table
                    )
                fields.extend(
                    ast.SelectField(ast.ColumnRef(name))
                    for name in columns
                )
            else:
                fields.append(field)
        return fields

    @staticmethod
    def _limit_ints(limit):
        """LIMIT/OFFSET as plan-time ints (integer literals only across
        shards: ``LIMIT NULL`` or ``LIMIT ?`` has no count to merge by)."""
        ints = []
        for node in (limit.count, limit.offset):
            if node is None:
                ints.append(0)
            elif isinstance(node, ast.Literal) and node.type_tag == "int":
                ints.append(max(node.value, 0))
            else:
                raise _unsupported("a non-integer cross-shard LIMIT")
        return tuple(ints)

    def _shard_scans(self, stmt, comments):
        """One :class:`ShardScan` per shard ordinal for *stmt*, the
        statement's *comments* back in front of its SQL (a line
        comment's body may hold ``*/``; it goes back as a line)."""
        sql = "".join(
            "-- %s\n" % body if "*/" in body else "/* %s */ " % body
            for body in comments) + to_sql(stmt)
        return [self._mk(plan_mod.ShardScan(shard, sql))
                for shard in range(self.shard_count)]

    def _scatter_select(self, stmt, ref, comments):
        if stmt.having is not None:
            raise _unsupported("cross-shard HAVING")
        fields = self._output_fields(stmt, ref.name)
        columns = [f.alias or _field_label(f.expr) for f in fields]
        window = None if stmt.limit is None \
            else self._limit_ints(stmt.limit)
        if stmt.group_by or _aggregates((stmt.fields, stmt.order_by)):
            root = self._gather_aggregate(stmt, ref, fields, columns,
                                          comments)
        else:
            root = self._gather_rows(stmt, ref, fields, window, comments)
        # the gather's rows are result tuples: ordering may only read
        # what every shard returned
        root = _order_limit(self._mk, root, stmt, columns,
                            foreign=_shard_order_error)
        plan = plan_mod.PhysicalPlan("select", root, columns=columns,
                                     tables=(ref.name.lower(),))
        return ShardRoute("scatter", table=ref.name, plan=plan)

    def _gather_rows(self, stmt, ref, fields, window, comments):
        """Plain SELECT: concatenate disjoint partitions, DISTINCT above
        the gather.  ORDER BY and a LIMIT of ``offset + count`` push
        down, so each shard returns at most the rows the TopK above the
        gather keeps."""
        if stmt.distinct and stmt.order_by and window is not None:
            raise _unsupported("cross-shard SELECT DISTINCT ... LIMIT")
        per_shard = ast.Select(
            fields=fields, tables=[ref], where=stmt.where,
            order_by=list(stmt.order_by), distinct=stmt.distinct,
        )
        if window is not None:
            per_shard.limit = ast.Limit(ast.Literal(sum(window), "int"))
        root = self._mk(plan_mod.Concat(
            self._shard_scans(per_shard, comments)))
        if stmt.distinct:
            root = self._mk(plan_mod.Distinct(root))
        return root

    def _gather_aggregate(self, stmt, ref, fields, columns, comments):
        """COUNT/SUM/MIN/MAX/AVG (with optional GROUP BY): shards
        compute partials, the gather merges and finalizes."""
        if stmt.distinct:
            raise _unsupported("cross-shard SELECT DISTINCT aggregates")
        group_exprs = list(stmt.group_by)
        partial_fields = []     # the per-shard SELECT list
        merges = []             # fold op per partial column
        finals = []             # output projection over merged partials
        describe = []
        key_indexes = []

        def partial(agg):
            """Shard-side partial column(s) of one aggregate call; returns
            the final spec that reads its merged value."""
            name = agg.name
            if name not in _DECOMPOSABLE_AGGREGATES:
                raise _unsupported("cross-shard aggregate %s()" % name)
            if agg.distinct:
                raise _unsupported("cross-shard %s(DISTINCT ...)" % name)
            index = len(partial_fields)
            if name == "AVG":
                partial_fields.extend(
                    ast.SelectField(ast.FuncCall(fold, list(agg.args)))
                    for fold in ("SUM", "COUNT"))
                merges.extend(("sum", "sum"))
                describe.append("avg->sum/count")
                return ("avg", index, index + 1)
            partial_fields.append(ast.SelectField(agg))
            merges.append("sum" if name in ("COUNT", "SUM")
                          else name.lower())
            describe.append("count->sum" if name == "COUNT"
                            else name.lower())
            return ("col", index)

        for field, column in zip(fields, columns):
            expr = field.expr
            if _is_aggregate(expr):
                finals.append(partial(expr))
            elif any(expr == group for group in group_exprs):
                key_indexes.append(len(partial_fields))
                finals.append(("col", len(partial_fields)))
                partial_fields.append(field)
                merges.append("key")
                describe.append(column.lower())
            elif _aggregates(expr) and not any(
                    isinstance(node, (ast.ColumnRef, ast.Star, ast.Select))
                    for node in ast.walk(expr, _stops)):
                # an expression over aggregates only (CAST(SUM(a) AS
                # CHAR)): the gather evaluates it on their merged values
                finals.append(("expr", expr, tuple(
                    (agg, partial(agg)) for agg in _aggregates(expr))))
            else:
                raise _unsupported(
                    "cross-shard SELECT of a non-grouped column"
                )
        # group-by keys the output doesn't show still partition the
        # merge: append them as hidden trailing partial columns
        shown = [field.expr for field in partial_fields]
        for group in group_exprs:
            if not any(group == expr for expr in shown):
                key_indexes.append(len(partial_fields))
                partial_fields.append(ast.SelectField(group))
                merges.append("key")
        per_shard = ast.Select(
            fields=partial_fields, tables=[ref], where=stmt.where,
            group_by=group_exprs,
        )
        return self._mk(plan_mod.GatherAggregate(
            self._shard_scans(per_shard, comments), key_indexes, merges,
            finals, ", ".join(describe),
        ))
