"""Streaming operator trees — the *execute* half of the plan/execute split.

Physical plans produced by :mod:`repro.sqldb.planner` are trees of
:class:`PlanNode` operators in the classic Volcano/iterator style: every
operator exposes :meth:`PlanNode.rows`, a generator that pulls from its
children lazily.  Non-blocking operators (scans, Filter, Project,
Concat, Distinct, Limit) never materialize their input, which is what
makes ``LIMIT n`` stop the upstream scan after *n* rows.  Blocking
operators (joins, Aggregate, Sort, TopK, the DML sinks) buffer exactly
the rows their algorithm requires and report the high-water mark
through :attr:`StageStats.peak_materialized_rows`.

Each of "order, dedupe, cut to a window" has one operator, whoever
asks: :class:`Sort` / :class:`TopK` order (their keys come from
:func:`order_keys`, the only code that maps an ORDER BY item to a
column), :class:`Distinct` dedupes, :class:`Limit` windows, and
:class:`Concat` appends streams.  A UNION, a shard gather and a single
SELECT are different arrangements of the same nodes.

Two stream shapes flow through a tree:

* below :class:`Project`: *env rows* — dicts keyed ``"alias.col"`` plus
  ``"__source__alias"`` pointing at the stored row dict;
* at and above :class:`Project`: ``(env_row, out_tuple)`` pairs.  The
  distributed leaves (:class:`ShardScan`, :class:`GatherAggregate`)
  yield ``(None, out_tuple)``: a shard's rows arrive already projected,
  so ordering above a gather reads output columns only.

Every execution threads an :class:`ExecState` through the tree; its
:class:`StageStats` records per-node rows-out, open/close ticks on a
deterministic virtual clock, and the strategy counters.  ``EXPLAIN`` is
a straight rendering of the tree (:func:`render_explain`), as are the
golden-plan snapshots (:func:`render_tree`) — there is no parallel
bookkeeping.

An operator compiles the expressions it is given when it is built
(:func:`repro.sqldb.expression.compile_expr`) and calls the closures
``fn(row, ctx)`` per row with the statement's one context.  They belong
to the node: they die with the plan and hold nothing of an execution.
"""

import functools
import heapq
import operator

from repro import faults as faults_mod
from repro.sqldb import ast_nodes as ast
from repro.sqldb.errors import ExecutionError
from repro.sqldb.expression import (
    ATTEMPTED_PREFIX, compile_expr, compile_predicate, render_constant,
    _agg_key,
)
from repro.sqldb.storage import ResultSet
from repro.sqldb.types import (
    coerce_to_number, compare, render_value, sort_key,
)


class ExecutionResult(object):
    """Uniform result wrapper: a result set or an affected-row count."""

    __slots__ = ("result_set", "affected_rows", "last_insert_id",
                 "sleep_seconds")

    def __init__(self, result_set=None, affected_rows=0, last_insert_id=None,
                 sleep_seconds=0.0):
        self.result_set = result_set
        self.affected_rows = affected_rows
        self.last_insert_id = last_insert_id
        #: simulated SLEEP()/BENCHMARK() seconds accumulated while executing
        self.sleep_seconds = sleep_seconds

    @property
    def is_select(self):
        return self.result_set is not None

    def __repr__(self):
        if self.is_select:
            return "ExecutionResult(%r)" % (self.result_set,)
        return "ExecutionResult(affected=%d)" % self.affected_rows


class StageStats(object):
    """Per-execution instrumentation rollup.

    Plan nodes are shared between executions (and threads) through the
    pipeline cache, so no counter lives on a node: every row event lands
    here, keyed by ``node_id``.  The clock is virtual — a tick per row
    event — which keeps stage timings deterministic."""

    __slots__ = ("nodes", "order", "ticks", "peak_materialized_rows",
                 "counters")

    def __init__(self):
        self.nodes = {}
        self.order = []
        self.ticks = 0
        #: high-water mark of rows buffered at once by blocking operators
        self.peak_materialized_rows = 0
        #: strategy counters: ``full_scans``, ``index_eq``,
        #: ``index_range``, ``hash_joins``, ``nested_loop_joins``,
        #: ``topk_orders``, ``full_sorts``
        self.counters = {}

    def tick(self):
        self.ticks += 1
        return self.ticks

    def enter(self, node):
        """Record for *node*, created at first open (idempotent).  It
        keeps the node, not its label: only a rendering reads the label
        (:meth:`node_records`), and a warm statement renders nothing."""
        rec = self.nodes.get(node.node_id)
        if rec is None:
            children = node.child_ids
            if children is None:
                # once per plan node: the plan serves every execution
                children = node.child_ids = tuple(
                    c.node_id for c in node.child_nodes())
            self.ticks += 1
            rec = {
                "node": node,
                "kind": node.kind,
                "children": children,
                "rows_out": 0,
                "open_tick": self.ticks,
                "close_tick": None,
            }
            self.nodes[node.node_id] = rec
            self.order.append(node.node_id)
        return rec

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def note_materialized(self, count):
        if count > self.peak_materialized_rows:
            self.peak_materialized_rows = count

    def rows_in(self, node_id):
        """Rows a node consumed = sum of its children's rows-out."""
        rec = self.nodes.get(node_id)
        if rec is None:
            return 0
        return sum(self.nodes[c]["rows_out"] for c in rec["children"]
                   if c in self.nodes)

    def node_records(self):
        """Per-node records in open order, rows-in derived from the
        children's rows-out (an operator never drops rows on input)."""
        out = []
        for node_id in self.order:
            rec = dict(self.nodes[node_id])
            rec["label"] = rec.pop("node").label()
            rec["node_id"] = node_id
            rec["rows_in"] = self.rows_in(node_id)
            out.append(rec)
        return out

    def find(self, kind):
        return [rec for rec in self.node_records() if rec["kind"] == kind]

    def render_timings(self):
        """One line per node: ``label in=N out=M t=open..close``."""
        parts = []
        for rec in self.node_records():
            close = rec["close_tick"]
            parts.append("%s in=%d out=%d t=%d..%s" % (
                rec["label"], rec["rows_in"], rec["rows_out"],
                rec["open_tick"], close if close is not None else "-",
            ))
        return "; ".join(parts)


class ExecState(object):
    """One execution of a plan: evaluation context + instrumentation."""

    __slots__ = ("ctx", "stats", "outer_row")

    def __init__(self, ctx, stats=None, outer_row=None):
        self.ctx = ctx
        self.stats = StageStats() if stats is None else stats
        self.outer_row = outer_row


class PlanNode(object):
    """Base operator.  Subclasses implement :meth:`_generate`, a
    generator (or iterable) over the node's output stream; :meth:`rows`
    wraps it with the per-execution instrumentation and the
    ``operator.next`` fault site (fired once per open, not per row —
    the disarmed-guard budget is per-open)."""

    kind = "node"
    blocking = False
    __slots__ = ("node_id", "children", "child_ids")

    def __init__(self, children=()):
        self.node_id = 0
        self.children = tuple(children)
        #: the node ids of :meth:`child_nodes`, filled at first open
        self.child_ids = None

    def label(self):
        return self.kind

    def child_nodes(self):
        """Children as seen by instrumentation/rendering."""
        return self.children

    def rows(self, state):
        stats = state.stats
        rec = stats.enter(self)
        if faults_mod.ACTIVE is not None:
            faults_mod.fire("operator.next")
        for row in self._generate(state):
            rec["rows_out"] += 1
            stats.ticks += 1
            yield row
        stats.ticks += 1
        rec["close_tick"] = stats.ticks

    def _generate(self, state):
        raise NotImplementedError

    def __repr__(self):
        return "<%s #%d>" % (self.label(), self.node_id)


def _env_rows(stored_rows, alias, outer_row):
    """Wrap stored rows as env rows under *alias*."""
    source_key = "__source__%s" % alias
    prefix = alias + "."
    for stored in stored_rows:
        env = {} if outer_row is None else dict(outer_row)
        for col_name, value in stored.items():
            env[prefix + col_name] = value
        env[source_key] = stored
        yield env


# -- leaf scans --------------------------------------------------------


class SeqScan(PlanNode):
    """Full-table scan.  ``counted`` marks the first-table fallback scan
    (the one the ``full_scans`` counter has always counted); join and
    comma-list right sides scan too but were never counted."""

    kind = "seq_scan"
    __slots__ = ("table_name", "alias", "counted")

    def __init__(self, table_name, alias, counted=True):
        PlanNode.__init__(self)
        self.table_name = table_name
        self.alias = alias
        self.counted = counted

    def label(self):
        if self.alias != self.table_name:
            return "SeqScan(%s AS %s)" % (self.table_name, self.alias)
        return "SeqScan(%s)" % self.table_name

    def _generate(self, state):
        table = state.ctx.database.table(self.table_name)
        if self.counted:
            state.stats.count("full_scans")
        return _env_rows(table.iter_rows(state.ctx.read_view),
                         self.alias, state.outer_row)


class IndexEqScan(PlanNode):
    """Index bucket probe for ``col = constant``.  The probe key is a
    ``Literal``/``Param`` node evaluated when the scan opens: the plan
    belongs to the statement's shape, the key to one execution."""

    kind = "index_eq_scan"
    __slots__ = ("table_name", "alias", "column", "key", "probe")

    def __init__(self, table_name, alias, column, key):
        PlanNode.__init__(self)
        self.table_name = table_name
        self.alias = alias
        self.column = column
        self.key = key
        self.probe = compile_expr(key)

    def label(self):
        return "IndexEqScan(%s.%s = %s)" % (self.table_name, self.column,
                                            render_constant(self.key))

    def _generate(self, state):
        ctx = state.ctx
        table = ctx.database.table(self.table_name)
        state.stats.count("index_eq")
        stored = table.index_lookup_iter(self.column,
                                         self.probe(ctx.row, ctx),
                                         view=ctx.read_view)
        return _env_rows(stored, self.alias, state.outer_row)


class IndexRangeScan(PlanNode):
    """Bisect scan over a sorted index for an inequality/BETWEEN; the
    bounds are constant nodes evaluated at open (``None``: open side)."""

    kind = "index_range_scan"
    __slots__ = ("table_name", "alias", "column", "low", "high",
                 "low_incl", "high_incl", "bounds")

    def __init__(self, table_name, alias, column, low, high,
                 low_incl, high_incl):
        PlanNode.__init__(self)
        self.table_name = table_name
        self.alias = alias
        self.column = column
        self.low = low
        self.high = high
        self.low_incl = low_incl
        self.high_incl = high_incl
        self.bounds = (_compiled(low), _compiled(high))

    def label(self):
        bounds = []
        if self.low is not None:
            bounds.append("%s %s" % (">=" if self.low_incl else ">",
                                     render_constant(self.low)))
        if self.high is not None:
            bounds.append("%s %s" % ("<=" if self.high_incl else "<",
                                     render_constant(self.high)))
        return "IndexRangeScan(%s.%s %s)" % (self.table_name, self.column,
                                             ", ".join(bounds))

    def _generate(self, state):
        ctx = state.ctx
        table = ctx.database.table(self.table_name)
        state.stats.count("index_range")
        low, high = (bound and bound(ctx.row, ctx) for bound in self.bounds)
        stored = table.index_range_iter(self.column, low, high,
                                        self.low_incl, self.high_incl,
                                        view=ctx.read_view)
        return _env_rows(stored, self.alias, state.outer_row)


class SingleRow(PlanNode):
    """The one-row source behind a FROM-less SELECT."""

    kind = "single_row"
    __slots__ = ()

    def label(self):
        return "SingleRow"

    def _generate(self, state):
        yield {} if state.outer_row is None else dict(state.outer_row)


class DerivedScan(PlanNode):
    """A FROM-clause subquery under its alias: runs the inner plan and
    re-keys its output tuples as env rows.  The inner tree shares the
    execution's :class:`StageStats` (its nodes show up in the same
    instrumentation rollup)."""

    kind = "derived_scan"
    __slots__ = ("alias", "display_alias", "plan")

    def __init__(self, alias, display_alias, plan):
        PlanNode.__init__(self)
        self.alias = alias
        #: raw-case alias, the way EXPLAIN has always displayed it
        self.display_alias = display_alias
        self.plan = plan

    def label(self):
        return "Derived(%s)" % self.display_alias

    def child_nodes(self):
        return (self.plan.root,)

    def _generate(self, state):
        names = [c.lower() for c in self.plan.columns]
        outer = state.outer_row
        prefix = self.alias + "."
        for _, values in self.plan.root.rows(state):
            env = {} if outer is None else dict(outer)
            for name, value in zip(names, values):
                env[prefix + name] = value
            yield env


# -- streaming operators -----------------------------------------------


class Filter(PlanNode):
    kind = "filter"
    __slots__ = ("predicate", "role")

    def __init__(self, child, expr, role="where"):
        PlanNode.__init__(self, (child,))
        self.predicate = compile_predicate(expr)
        self.role = role

    def label(self):
        return "Filter(%s)" % self.role

    def _generate(self, state):
        ctx = state.ctx
        predicate = self.predicate
        for row in self.children[0].rows(state):
            if predicate(row, ctx):
                yield row


class Project(PlanNode):
    """Env rows in, ``(env_row, out_tuple)`` pairs out.  Specs are fixed
    at plan time: ``("col", "alias.col")`` for plain column pulls,
    ``("expr", node)`` for anything evaluated — kept compiled."""

    kind = "project"
    __slots__ = ("columns", "specs")

    def __init__(self, child, columns, specs):
        PlanNode.__init__(self, (child,))
        self.columns = list(columns)
        self.specs = tuple(
            (tag, payload if tag == "col" else compile_expr(payload))
            for tag, payload in specs)

    def label(self):
        return "Project(%s)" % ", ".join(self.columns)

    def _generate(self, state):
        ctx = state.ctx
        specs = self.specs
        for row in self.children[0].rows(state):
            out = []
            for tag, payload in specs:
                if tag == "col":
                    out.append(row.get(payload))
                else:
                    out.append(payload(row, ctx))
            yield (row, tuple(out))


class Distinct(PlanNode):
    """Streaming DISTINCT: a seen-set over case-folded output tuples."""

    kind = "distinct"
    __slots__ = ()

    def __init__(self, child):
        PlanNode.__init__(self, (child,))

    def label(self):
        return "Distinct"

    def _generate(self, state):
        seen = set()
        for src, out in self.children[0].rows(state):
            key = _fold_row(out)
            if key not in seen:
                seen.add(key)
                yield (src, out)


class Concat(PlanNode):
    """Its children's streams one after another: UNION ALL, and the
    gather over disjoint shard partitions.  Holds no rows."""

    kind = "concat"
    __slots__ = ()

    def label(self):
        return "Concat(%d inputs)" % len(self.children)

    def _generate(self, state):
        for child in self.children:
            for pair in child.rows(state):
                yield pair


class Limit(PlanNode):
    """Streaming LIMIT/OFFSET: stops pulling from upstream once the
    window is emitted — the early-exit that makes ``LIMIT n`` scan
    O(n), not O(table)."""

    kind = "limit"
    __slots__ = ("window",)

    def __init__(self, child, count_expr, offset_expr):
        PlanNode.__init__(self, (child,))
        self.window = (compile_expr(count_expr), _compiled(offset_expr))

    def label(self):
        return "Limit"

    def _generate(self, state):
        count, offset = _window(self.window, state.ctx)
        if count == 0:
            return
        emitted = 0
        for pair in self.children[0].rows(state):
            if offset > 0:
                offset -= 1
                continue
            yield pair
            emitted += 1
            if emitted >= count:
                break


# -- blocking operators ------------------------------------------------


class NestedLoopJoin(PlanNode):
    """Nested-loop join; buffers the inner side only (the outer side
    streams).  ``counted`` distinguishes explicit JOIN clauses (counted
    in ``nested_loop_joins``) from comma-list cross products (never
    were)."""

    kind = "nested_loop_join"
    blocking = True
    __slots__ = ("join_kind", "on", "right_cols", "counted")

    def __init__(self, left, right, join_kind, on, right_cols,
                 counted=True):
        PlanNode.__init__(self, (left, right))
        self.join_kind = join_kind
        self.on = None if on is None else compile_predicate(on)
        self.right_cols = tuple(right_cols)
        self.counted = counted

    def label(self):
        return "NestedLoopJoin(%s)" % self.join_kind

    def _generate(self, state):
        ctx = state.ctx
        kind = self.join_kind
        on = self.on
        if self.counted:
            state.stats.count("nested_loop_joins")
        if kind == "RIGHT":
            left_rows = list(self.children[0].rows(state))
            state.stats.note_materialized(len(left_rows))
            left_keys = [
                key for key in (left_rows[0] if left_rows else {})
                if not key.startswith("__source__")
            ]
            null_left = {key: None for key in left_keys}
            for b in self.children[1].rows(state):
                matched = False
                for a in left_rows:
                    merged = _merge(a, b)
                    if on is None or on(merged, ctx):
                        matched = True
                        yield merged
                if not matched:
                    yield _merge(null_left, b)
            return
        right_rows = list(self.children[1].rows(state))
        state.stats.note_materialized(len(right_rows))
        if kind in ("INNER", "CROSS"):
            for a in self.children[0].rows(state):
                for b in right_rows:
                    merged = _merge(a, b)
                    if on is None or on(merged, ctx):
                        yield merged
            return
        if kind == "LEFT":
            null_right = {
                "%s.%s" % (alias, col): None
                for alias, col in self.right_cols
            }
            for a in self.children[0].rows(state):
                matched = False
                for b in right_rows:
                    merged = _merge(a, b)
                    if on is None or on(merged, ctx):
                        matched = True
                        yield merged
                if not matched:
                    yield _merge(a, null_right)
            return
        raise ExecutionError("unsupported join kind %r" % kind)


class HashJoin(PlanNode):
    """Hash equi-join, building on the smaller input.

    Matches are bucketed per *outer* row (outer = left, or right for
    RIGHT JOIN) and emitted in outer-major order, which reproduces the
    nested-loop output order exactly regardless of which side the hash
    table was built on.  The full ON expression re-checks every hash
    candidate; NULL keys never match; outer joins null-extend."""

    kind = "hash_join"
    blocking = True
    __slots__ = ("join_kind", "on", "left_key", "right_key", "right_cols",
                 "right_table")

    def __init__(self, left, right, join_kind, on, left_key, right_key,
                 right_cols, right_table):
        PlanNode.__init__(self, (left, right))
        self.join_kind = join_kind
        self.on = compile_predicate(on)
        self.left_key = left_key
        self.right_key = right_key
        self.right_cols = tuple(right_cols)
        #: base-table name of the build/probe side, for EXPLAIN
        self.right_table = right_table

    def label(self):
        return "HashJoin(%s %s = %s)" % (self.join_kind, self.left_key,
                                         self.right_key)

    def _generate(self, state):
        ctx = state.ctx
        on = self.on
        left_rows = list(self.children[0].rows(state))
        right_rows = list(self.children[1].rows(state))
        state.stats.note_materialized(len(left_rows) + len(right_rows))
        state.stats.count("hash_joins")
        outer_is_left = self.join_kind != "RIGHT"
        if outer_is_left:
            outer_rows, inner_rows = left_rows, right_rows
            outer_key, inner_key = self.left_key, self.right_key
        else:
            outer_rows, inner_rows = right_rows, left_rows
            outer_key, inner_key = self.right_key, self.left_key

        def merged_for(outer, inner):
            return _merge(outer, inner) if outer_is_left \
                else _merge(inner, outer)

        matches = [[] for _ in outer_rows]
        if len(inner_rows) <= len(outer_rows):
            # build on inner, probe outer
            buckets = {}
            for inner in inner_rows:
                value = inner.get(inner_key)
                if value is None:
                    continue
                buckets.setdefault(sort_key(value), []).append(inner)
            for pos, outer in enumerate(outer_rows):
                value = outer.get(outer_key)
                if value is None:
                    continue
                for inner in buckets.get(sort_key(value), ()):
                    merged = merged_for(outer, inner)
                    if on(merged, ctx):
                        matches[pos].append(merged)
        else:
            # build on outer, probe inner (inner order per bucket is
            # preserved, so the emitted order is unchanged)
            buckets = {}
            for pos, outer in enumerate(outer_rows):
                value = outer.get(outer_key)
                if value is None:
                    continue
                buckets.setdefault(sort_key(value), []).append(pos)
            for inner in inner_rows:
                value = inner.get(inner_key)
                if value is None:
                    continue
                for pos in buckets.get(sort_key(value), ()):
                    merged = merged_for(outer_rows[pos], inner)
                    if on(merged, ctx):
                        matches[pos].append(merged)
        if self.join_kind == "INNER":
            for bucket in matches:
                for merged in bucket:
                    yield merged
            return
        if outer_is_left:
            null_inner = {
                "%s.%s" % (alias, col): None
                for alias, col in self.right_cols
            }
            for pos, outer in enumerate(outer_rows):
                if matches[pos]:
                    for merged in matches[pos]:
                        yield merged
                else:
                    yield _merge(outer, null_inner)
        else:
            left_keys = [
                key for key in (left_rows[0] if left_rows else {})
                if not key.startswith("__source__")
            ]
            null_inner = {key: None for key in left_keys}
            for pos, outer in enumerate(outer_rows):
                if matches[pos]:
                    for merged in matches[pos]:
                        yield merged
                else:
                    yield _merge(null_inner, outer)


class Aggregate(PlanNode):
    """GROUP BY / aggregate evaluation.  Blocking by nature: every
    group needs all of its members before an aggregate has a value.
    Emits one representative env row per group (insertion order) with
    ``__agg__``-keyed aggregate results spliced in."""

    kind = "aggregate"
    blocking = True
    __slots__ = ("group_by", "aggregates")

    def __init__(self, child, group_by, aggregates):
        PlanNode.__init__(self, (child,))
        self.group_by = tuple(compile_expr(expr) for expr in group_by)
        self.aggregates = tuple(_compile_aggregate(node)
                                for node in aggregates)

    def label(self):
        return "Aggregate(group_by=%d, aggs=%d)" % (len(self.group_by),
                                                    len(self.aggregates))

    def _generate(self, state):
        ctx = state.ctx
        rows = list(self.children[0].rows(state))
        state.stats.note_materialized(len(rows))
        groups = {}
        order = []
        if self.group_by:
            for row in rows:
                key = tuple(_group_key(expr(row, ctx))
                            for expr in self.group_by)
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(row)
        else:
            groups[()] = rows
            order.append(())
        for key in order:
            members = groups[key]
            rep = dict(members[0]) if members else {}
            for agg_key, fold in self.aggregates:
                rep[agg_key] = fold(members, ctx)
            yield rep


class Sort(PlanNode):
    """Full ORDER BY sort (no LIMIT to fuse with): materializes, then
    runs the stable multi-key sort :func:`_sort_items`."""

    kind = "sort"
    blocking = True
    __slots__ = ("ordering",)

    def __init__(self, child, ordering):
        PlanNode.__init__(self, (child,))
        #: ``(keys_for, descending)`` from :func:`order_keys`
        self.ordering = ordering

    def label(self):
        return "Sort(%d keys)" % len(self.ordering[1])

    def _generate(self, state):
        ctx = state.ctx
        state.stats.count("full_sorts")
        keys_for, descending = self.ordering
        decorated = [(keys_for(pair, ctx), pair)
                     for pair in self.children[0].rows(state)]
        state.stats.note_materialized(len(decorated))
        _sort_items(decorated, descending)
        for _, pair in decorated:
            yield pair


class TopK(PlanNode):
    """ORDER BY fused with LIMIT: streams the decorated input into
    ``heapq.nsmallest`` under :func:`_item_order` — the total order
    :class:`Sort` produces (per-key direction, stable by arrival) —
    holding at most ``offset + count`` rows, never the full input.
    Above a shard gather every shard already returns at most that many,
    so the cross-shard peak is O(limit) however large the table is."""

    kind = "topk"
    blocking = True
    __slots__ = ("ordering", "window")

    def __init__(self, child, ordering, count_expr, offset_expr):
        PlanNode.__init__(self, (child,))
        self.ordering = ordering
        self.window = (compile_expr(count_expr), _compiled(offset_expr))

    def label(self):
        return "TopK(%d keys)" % len(self.ordering[1])

    def _generate(self, state):
        ctx = state.ctx
        count, offset = _window(self.window, ctx)
        state.stats.count("topk_orders")
        keys_for, descending = self.ordering
        rows = enumerate(self.children[0].rows(state))
        if len(set(descending)) == 1:
            # one direction for every key: the items compare as tuples
            # (keys, then arrival — negated for the descending heap, so
            # the earlier row still wins a tie) with no Python-level
            # call per comparison
            sign = -1 if descending[0] else 1
            decorated = ((keys_for(pair, ctx), sign * position, pair)
                         for position, pair in rows)
            select = heapq.nlargest if descending[0] else heapq.nsmallest
            top = select(offset + count, decorated)
        else:
            decorated = ((keys_for(pair, ctx), position, pair)
                         for position, pair in rows)
            top = heapq.nsmallest(offset + count, decorated,
                                  key=_item_order(descending))
        state.stats.note_materialized(len(top))
        for _, _, pair in top:
            yield pair


# -- distributed gather operators --------------------------------------
#
# Leaves and the aggregate merge for cross-shard plans built by
# :class:`repro.sqldb.planner.DistributedPlanner`.  These trees never
# touch local tables: :class:`ShardScan` pulls already-projected result
# tuples from a shard through the execution context (the shard router
# supplies a context whose ``shard_rows`` runs SQL text on one shard).
# Everything else in a gather is an ordinary operator — Concat,
# Distinct, Sort, TopK, Limit — over ``(None, out_tuple)`` pairs.


class ShardScan(PlanNode):
    """Leaf of a distributed plan: run *sql* on shard ordinal *shard*
    and stream its result tuples as ``(None, out_tuple)`` pairs.  A
    shard error — including a SEPTIC block on that shard — propagates
    and aborts the whole gather."""

    kind = "shard_scan"
    __slots__ = ("shard", "sql")

    def __init__(self, shard, sql):
        PlanNode.__init__(self)
        self.shard = shard
        self.sql = sql

    def label(self):
        return "ShardScan(shard=%d: %s)" % (self.shard, self.sql)

    def _generate(self, state):
        for out in state.ctx.shard_rows(self.shard, self.sql):
            yield (None, tuple(out))


def _merge_partial(op, a, b):
    """Combine two per-shard partial aggregate values (``None`` = the
    shard saw no non-NULL input, same as single-node semantics)."""
    if b is None:
        return a
    if a is None:
        return b
    if op == "sum":
        return a + b
    if op == "min":
        return a if sort_key(a) <= sort_key(b) else b
    return a if sort_key(a) >= sort_key(b) else b      # "max"


class GatherAggregate(PlanNode):
    """Partial→final aggregate merge.

    Each shard computes partial aggregates over its own rows; this node
    re-groups the partial rows by the group-by key columns
    (*key_indexes*), combines the remaining columns per *merges*
    (``"key"`` keeps the first seen value, ``"sum"``/``"min"``/``"max"``
    fold), then projects the output per *finals*: ``("col", i)`` passes
    a merged column through (COUNT and SUM finalize as SUM of partials,
    MIN/MAX as MIN/MAX), ``("avg", i, j)`` divides a merged SUM by a
    merged COUNT, ``("expr", ...)`` evaluates an expression over merged
    aggregates.  Holds one accumulator per group — O(groups), not
    O(rows)."""

    kind = "gather_aggregate"
    blocking = True
    __slots__ = ("key_indexes", "merges", "finals", "describe")

    def __init__(self, children, key_indexes, merges, finals, describe):
        PlanNode.__init__(self, children)
        self.key_indexes = tuple(key_indexes)
        self.merges = tuple(merges)
        #: ``("expr", expr, ((aggregate, spec), ...))`` evaluates *expr*
        #: with each aggregate's finalized value in its ``__agg__`` key
        self.finals = tuple(
            spec if spec[0] != "expr" else (
                "expr", compile_expr(spec[1]),
                tuple(("__agg__%s" % _agg_key(agg), part)
                      for agg, part in spec[2]))
            for spec in finals)
        self.describe = describe

    def label(self):
        return "Gather(partial-agg: %s)" % self.describe

    def _generate(self, state):
        groups = {}
        for child in self.children:
            for _, out in child.rows(state):
                key = tuple(_group_key(out[i]) for i in self.key_indexes)
                acc = groups.get(key)
                if acc is None:
                    groups[key] = list(out)
                    state.stats.note_materialized(len(groups))
                else:
                    for idx, op in enumerate(self.merges):
                        if op != "key":
                            acc[idx] = _merge_partial(op, acc[idx],
                                                      out[idx])
        ctx = state.ctx
        for acc in groups.values():
            yield (None, tuple(_finalize(spec, acc, ctx)
                               for spec in self.finals))


def _finalize(spec, acc, ctx):
    """One output column of a merged partial-aggregate row."""
    if spec[0] == "avg":
        total, count = acc[spec[1]], acc[spec[2]]
        return None if not count or total is None else total / float(count)
    if spec[0] == "expr":
        return spec[1]({key: _finalize(part, acc, ctx)
                        for key, part in spec[2]}, ctx)
    return acc[spec[1]]


# -- DML sinks ---------------------------------------------------------


class InsertSink(PlanNode):
    """INSERT/REPLACE execution.  A sink: :meth:`run` returns an
    :class:`ExecutionResult` instead of a row stream.  Its fault site
    fires before any mutation so an injected crash never leaves a row
    half-applied ahead of the WAL record."""

    kind = "insert_sink"
    blocking = True
    __slots__ = ("stmt", "rows_of", "on_duplicate")

    def __init__(self, stmt):
        PlanNode.__init__(self)
        self.stmt = stmt
        self.rows_of = [[compile_expr(expr) for expr in row]
                        for row in stmt.rows]
        self.on_duplicate = [(col, compile_expr(expr))
                             for col, expr in stmt.on_duplicate or ()]

    def label(self):
        return "InsertSink(%s)" % self.stmt.table.lower()

    def run(self, state):
        rec = state.stats.enter(self)
        if faults_mod.ACTIVE is not None:
            faults_mod.fire("operator.next")
        ctx = state.ctx
        stmt = self.stmt
        txn = ctx.write_txn
        table = ctx.database.table(stmt.table)
        columns = stmt.columns or table.column_names()
        # Evaluate every VALUES row up front so a bad expression — or a
        # first-writer-wins conflict on a key another transaction's
        # pending UPDATE moved, or on the rows REPLACE / ON DUPLICATE
        # KEY UPDATE would mutate — surfaces before any row is touched.
        pending = []
        for row_exprs in self.rows_of:
            if len(row_exprs) != len(columns):
                raise ExecutionError(
                    "Column count doesn't match value count", errno=1136
                )
            pending.append({col.lower(): expr(ctx.row, ctx)
                            for col, expr in zip(columns, row_exprs)})
        for values in pending:
            table.check_moved_keys(values, txn)
            if stmt.replace or stmt.on_duplicate:
                for conflict in _unique_conflicts(table, values):
                    table.check_write(conflict, txn)
        inserted = 0
        last_id = None
        for values in pending:
            if stmt.replace:
                # REPLACE INTO: delete any row conflicting on a unique
                # key, then insert (affected = deleted + inserted)
                inserted += _delete_conflicting(table, values, txn)
            try:
                auto = table.insert(values, txn=txn)
            except ExecutionError as exc:
                if exc.errno == 1062 and stmt.on_duplicate:
                    inserted += _apply_on_duplicate(
                        table, self.on_duplicate, values, ctx, txn
                    )
                    continue
                if stmt.ignore:
                    continue
                raise
            if auto is not None:
                last_id = auto
            inserted += 1
        if last_id is not None:
            ctx.session.last_insert_id = last_id
        rec["rows_out"] = inserted
        rec["close_tick"] = state.stats.tick()
        return ExecutionResult(
            affected_rows=inserted,
            last_insert_id=last_id,
            sleep_seconds=ctx.sleep_seconds,
        )


class _TargetSink(PlanNode):
    """What UPDATE and DELETE share: an env-row child (scan + filter)
    whose rows are fully materialized, ordered and cut to the LIMIT
    before the first mutation — the scan must not observe its own
    writes, and injected faults in the child stream must fire
    pre-mutation."""

    blocking = True
    __slots__ = ("stmt", "alias", "order", "descending", "limit")

    def __init__(self, child, stmt, alias):
        PlanNode.__init__(self, (child,))
        self.stmt = stmt
        self.alias = alias
        order_by = stmt.order_by or ()
        self.order = [compile_expr(item.expr) for item in order_by]
        self.descending = [item.direction == "DESC" for item in order_by]
        self.limit = None if stmt.limit is None \
            else compile_expr(stmt.limit.count)

    def _targets(self, state):
        """``(stored row, env row)`` per target, in statement order
        (with LIMIT, MySQL updates/deletes the first N *in order*)."""
        ctx = state.ctx
        source_key = "__source__%s" % self.alias
        order = self.order
        targets = [
            ([sort_key(expr(row, ctx)) for expr in order],
             (row[source_key], row))
            for row in self.children[0].rows(state)
        ]
        state.stats.note_materialized(len(targets))
        _sort_items(targets, self.descending)
        if self.limit is not None:
            targets = targets[: max(int(self.limit(ctx.row, ctx)), 0)]
        return [target for _, target in targets]


class UpdateSink(_TargetSink):
    """UPDATE execution over the targets :class:`_TargetSink` selects."""

    kind = "update_sink"
    __slots__ = ("assignments", "assigned")

    def __init__(self, child, stmt, alias):
        _TargetSink.__init__(self, child, stmt, alias)
        self.assignments = [(col, compile_expr(expr))
                            for col, expr in stmt.assignments]
        self.assigned = frozenset(col.lower() for col, _ in stmt.assignments)

    def label(self):
        return "UpdateSink(%s)" % self.alias

    def run(self, state):
        rec = state.stats.enter(self)
        if faults_mod.ACTIVE is not None:
            faults_mod.fire("operator.next")
        ctx = state.ctx
        table = ctx.database.table(self.stmt.table)
        targets = self._targets(state)
        txn = ctx.write_txn
        # Every check runs over every target before the first mutation:
        # a write conflict or a duplicate key aborts the statement with
        # zero rows changed, so the transient-retry path never
        # double-applies and a failed statement has no partial effects
        # for its replay to reproduce.
        for stored, _ in targets:
            table.check_write(stored, txn)
        changes = []
        for stored, env in targets:
            updates = {}
            for col, expr in self.assignments:
                if not table.has_column(col):
                    raise ExecutionError(
                        "Unknown column '%s' in 'field list'" % col,
                        errno=1054,
                    )
                updates[col.lower()] = table.convert(col, expr(env, ctx))
            delta = {k: v for k, v in updates.items()
                     if stored.get(k) != v}
            if delta:
                changes.append((stored, delta))
        table.check_unique_update(self.assigned, changes, txn)
        for stored, delta in changes:
            table.update_row(stored, delta, txn=txn)
        rec["rows_out"] = len(changes)
        rec["close_tick"] = state.stats.tick()
        return ExecutionResult(
            affected_rows=len(changes), sleep_seconds=ctx.sleep_seconds
        )


class DeleteSink(_TargetSink):
    """DELETE execution; same materialize-then-mutate discipline as
    :class:`UpdateSink`."""

    kind = "delete_sink"
    __slots__ = ()

    def label(self):
        return "DeleteSink(%s)" % self.alias

    def run(self, state):
        rec = state.stats.enter(self)
        if faults_mod.ACTIVE is not None:
            faults_mod.fire("operator.next")
        ctx = state.ctx
        table = ctx.database.table(self.stmt.table)
        doomed = [stored for stored, _ in self._targets(state)]
        if doomed:
            # delete_rows runs the first-writer-wins check over every
            # target before removing any, so a conflict leaves the
            # table untouched.
            table.delete_rows(doomed, txn=ctx.write_txn)
        rec["rows_out"] = len(doomed)
        rec["close_tick"] = state.stats.tick()
        return ExecutionResult(
            affected_rows=len(doomed), sleep_seconds=ctx.sleep_seconds
        )


# -- the physical plan -------------------------------------------------


class PhysicalPlan(object):
    """A planned statement: the operator tree plus what the executor
    needs around it (output columns for SELECT, every base table the
    tree touches for lock planning)."""

    __slots__ = ("kind", "root", "columns", "tables", "lock_plan")

    def __init__(self, kind, root, columns=None, tables=()):
        self.kind = kind
        self.root = root
        self.columns = list(columns) if columns is not None else None
        self.tables = frozenset(tables)
        #: memoized LockPlan (filled by the engine on first execution;
        #: deterministic per plan, so sharing across sessions is safe)
        self.lock_plan = None

    def __repr__(self):
        return "PhysicalPlan(%s, %r)" % (self.kind, self.root)


def render_tree(plan):
    """Indented operator-tree snapshot (the golden-plan format)."""
    lines = []

    def walk(node, depth):
        lines.append("  " * depth + node.label())
        for child in node.child_nodes():
            walk(child, depth + 1)

    walk(plan.root, 0)
    return "\n".join(lines)


#: operators EXPLAIN looks through — they add no access-path information
_EXPLAIN_TRANSPARENT = None     # filled after class definitions


def render_explain(plan, database):
    """EXPLAIN output rendered from the physical tree: one row per
    table source with the access type (``ref``/``range`` via an index,
    ``hash`` for a hash join, ``ALL`` for a scan, ``DERIVED`` for a
    FROM-subquery — whose own sources follow) and the key column used.
    Row estimates are the *live* table sizes at render time."""
    rows = []
    _explain_node(plan.root, database, rows)
    return ResultSet(["table", "type", "key", "rows"], rows)


def _explain_node(node, database, rows):
    if isinstance(node, _EXPLAIN_TRANSPARENT):
        _explain_node(node.children[0], database, rows)
        return
    if isinstance(node, Concat):
        for child in node.children:
            _explain_node(child, database, rows)
        return
    if isinstance(node, SingleRow):
        return
    if isinstance(node, DerivedScan):
        rows.append((node.display_alias, "DERIVED", None, None))
        _explain_node(node.plan.root, database, rows)
        return
    if isinstance(node, SeqScan):
        table = database.table(node.table_name)
        rows.append((table.name, "ALL", None, len(table)))
        return
    if isinstance(node, IndexEqScan):
        table = database.table(node.table_name)
        rows.append((table.name, "ref", node.column, len(table)))
        return
    if isinstance(node, IndexRangeScan):
        table = database.table(node.table_name)
        rows.append((table.name, "range", node.column, len(table)))
        return
    if isinstance(node, HashJoin):
        _explain_node(node.children[0], database, rows)
        table = database.table(node.right_table)
        rows.append((table.name, "hash",
                     node.right_key.split(".", 1)[1], len(table)))
        return
    if isinstance(node, NestedLoopJoin):
        _explain_node(node.children[0], database, rows)
        _explain_node(node.children[1], database, rows)
        return
    raise ExecutionError("cannot explain %r" % type(node).__name__)


_EXPLAIN_TRANSPARENT = (Limit, TopK, Sort, Distinct, Project, Aggregate,
                        Filter)


# -- shared evaluation helpers -----------------------------------------


def _merge(a, b):
    return {**a, **b}


def _fold_row(out):
    """Case-folded dedupe key for DISTINCT."""
    return tuple(v.lower() if isinstance(v, str) else v for v in out)


def _group_key(value):
    if isinstance(value, str):
        return ("s", value.lower())
    if value is None:
        return ("n", None)
    return ("v", float(value))


def _compiled(node):
    """An optional expression's closure (``None`` stays ``None``)."""
    return None if node is None else compile_expr(node)


def _window(window, ctx):
    """``(count, offset)`` of a compiled LIMIT for this execution."""
    count, offset = window
    return (max(int(count(ctx.row, ctx)), 0),
            0 if offset is None else max(int(offset(ctx.row, ctx)), 0))


def order_keys(order_by, columns, foreign=None):
    """The one place an ORDER BY item becomes a sort key.

    Returns ``(keys_for, descending)``: ``keys_for(pair, ctx)`` reads
    the keys of one ``(env_row, out_tuple)`` pair.  A position
    (``ORDER BY 2``, always a parser-pinned literal) or an unqualified
    output name reads the output tuple; a position out of range is
    MySQL's 1054, raised here, at plan time, whether or not a row ever
    arrives.  Any other expression evaluates against the env row —
    unless *foreign* is given: above a UNION or a shard gather no env
    row describes an output row, and ``foreign(expr)`` is the error to
    raise instead."""
    lowered = [c.lower() for c in columns]

    def reader(expr):
        index = None
        if isinstance(expr, ast.Literal) and expr.type_tag == "int":
            if not 0 < expr.value <= len(columns):
                raise ExecutionError(
                    "Unknown column '%d' in 'order clause'" % expr.value,
                    errno=1054,
                )
            index = expr.value - 1
        elif isinstance(expr, ast.ColumnRef) and expr.table is None \
                and expr.name.lower() in lowered:
            index = lowered.index(expr.name.lower())
        if index is not None:
            return lambda src, out, ctx: out[index]
        if foreign is not None:
            raise foreign(expr)
        fn = compile_expr(expr)
        return lambda src, out, ctx: fn(src, ctx)

    readers = [reader(item.expr) for item in order_by]

    def keys_for(pair, ctx):
        src, out = pair
        return [sort_key(read(src, out, ctx)) for read in readers]

    return keys_for, tuple(item.direction == "DESC" for item in order_by)


def _sort_items(items, descending):
    """Stable multi-key sort, in place, of ``(keys, ...)`` items: one
    pass per key, last key first, each honouring its direction — the
    ordering :class:`Sort` and the DML target sinks share.  With one
    direction for every key that is one pass over the key lists."""
    if len(set(descending)) == 1:
        items.sort(key=_item_keys, reverse=descending[0])
        return
    for pos in range(len(descending) - 1, -1, -1):
        items.sort(key=lambda item: item[0][pos], reverse=descending[pos])


#: the ``keys`` of a ``(keys, ...)`` item, without a Python-level call
_item_keys = operator.itemgetter(0)


def _item_order(descending):
    """Sort key over ``(keys, position, payload)`` items ranking them in
    :func:`_sort_items`' order, the arrival position breaking ties."""

    def compare(a, b):
        for pos, desc in enumerate(descending):
            key_a, key_b = a[0][pos], b[0][pos]
            if key_a == key_b:
                continue
            return -1 if (key_a < key_b) != desc else 1
        return -1 if a[1] < b[1] else 1     # stability tiebreak

    return functools.cmp_to_key(compare)


def _compile_aggregate(node):
    """``(env-row key, fold(rows, ctx))`` of one aggregate call."""
    name = node.name.upper()
    key = "__agg__%s" % _agg_key(node)
    if name == "COUNT" and node.args and isinstance(node.args[0], ast.Star):
        return key, lambda rows, ctx: len(rows)
    # (an aggregate without arguments fails as it did: per row, at run)
    argument = compile_expr(node.args[0]) if node.args \
        else lambda row, ctx: node.args[0]
    distinct = node.distinct

    def fold(rows, ctx):
        values = [value for value in [argument(row, ctx) for row in rows]
                  if value is not None]
        if distinct:
            unique = []
            for value in values:
                if all(compare(value, v) != 0 for v in unique):
                    unique.append(value)
            values = unique
        if name == "COUNT":
            return len(values)
        if not values:
            return None
        if name == "SUM":
            return sum(coerce_to_number(v) for v in values)
        if name == "AVG":
            nums = [coerce_to_number(v) for v in values]
            return sum(nums) / float(len(nums))
        if name == "MIN":
            return min(values, key=sort_key)
        if name == "MAX":
            return max(values, key=sort_key)
        if name == "GROUP_CONCAT":
            return ",".join(render_value(v) for v in values)
        raise ExecutionError("unknown aggregate %r" % name)

    return key, fold


def _unique_conflicts(table, values):
    """Live rows that collide with *values* on any unique key — the
    table owns the scan so each storage backend (row list vs B-tree)
    answers from its own structures."""
    return table.unique_conflicts(values)


def _delete_conflicting(table, values, txn=None):
    conflicts = _unique_conflicts(table, values)
    if conflicts:
        table.delete_rows(conflicts, txn=txn)
    return len(conflicts)


def _apply_on_duplicate(table, assignments, new_values, ctx, txn=None):
    """ON DUPLICATE KEY UPDATE: update the conflicting row.

    ``VALUES(col)`` inside an assignment refers to the value the
    failed insert attempted for *col* (MySQL semantics): the env row
    carries those under :data:`ATTEMPTED_PREFIX`, where the compiled
    ``VALUES`` call looks.  The update keeps PRIMARY KEY and UNIQUE as
    an UPDATE does: a new key another row holds fails with 1062 before
    anything changes.
    """
    conflicts = _unique_conflicts(table, new_values)
    if not conflicts:
        return 0
    target = conflicts[0]
    env = {"%s.%s" % (table.name, k): v for k, v in target.items()}
    for name in table.column_names():
        env[ATTEMPTED_PREFIX + name.lower()] = new_values.get(name.lower())
    updates = {}
    for col, expr in assignments:
        value = table.convert(col, expr(env, ctx))
        if target.get(col.lower()) != value:
            updates[col.lower()] = value
    if updates:
        table.check_unique_update(updates, [(target, updates)], txn)
        table.update_row(target, updates, txn=txn)
    # MySQL reports 2 affected rows when an ODKU update changed one
    return 2 if updates else 0
