"""``ShardRouter``: the scatter/gather front door of the sharded fleet.

One router fronts N shards; each shard is a
:class:`repro.replica.coordinator.ReplicaSet` (its own primary, its own
replicas, its own WAL shipping and lease elections — PR 7 reused
whole).  The router holds one failover-aware
:class:`~repro.replica.router.RoutingConnection` per shard and decides
*where* a statement runs with the distributed planning pass
(:class:`repro.sqldb.planner.DistributedPlanner`):

* **single-shard** — shard-key equality, keyed DML, keyed INSERT: the
  original SQL text goes to exactly one shard, byte for byte, so that
  shard's pipeline cache stays warm (the router never rewrites the hot
  path);
* **scatter** — cross-shard SELECT: per-shard subqueries stream through
  a gather built from the ordinary :mod:`repro.sqldb.plan` nodes
  (``Concat`` or the partial→final ``GatherAggregate``, then Distinct /
  ``Sort`` / ``TopK`` / ``Limit``);
* **broadcast** — DDL fans out to every shard, *after* the router's
  catalog epoch bumps so no cached route (and no per-shard pipeline
  cache, which keys on each engine's own schema version) can serve a
  stale plan;
* **pinned** — tables without a shard key live whole on shard 0.

Routes are cached the way the engine caches pipelines
(:class:`repro.sqldb.cache.PipelineCache`, the same class): a raw-text
probe, then — after one tokenize — a probe by statement *shape*, and a
parse only when both miss.  A shape entry is a route that decided
nothing by a literal's value (single-shard, pinned): kind, table, which
value slots carry the shard key, read or write — a new key on a known
shape costs one tokenize and one CRC.  Scatter routes embed their
literals in per-shard SQL and stay keyed by text.  The router only
decides *where*; a text whose injected content changes the token stream
has another shape key, is parsed and planned on its own, and reaches
its shard unchanged.

SEPTIC runs *inside each shard* against that shard's own ``QMStore`` —
every shard sees the query after its own decode/parse, exactly the
paper's placement.  A blocked verdict on any shard aborts the whole
statement: reads stop mid-gather with the block as the statement error
(reads have no effects to tear), and writes are single-shard by
construction in v1, so there is never a partial cross-shard effect.

Everything here runs on the replica sets' virtual tick clocks — no
wall-clock reads (lint-gated), which is what lets the sharded crash
sweep replay failovers deterministically.
"""

import os

from repro.replica.coordinator import ReplicaSet
from repro.shard.catalog import ShardCatalog
from repro.sqldb import plan as plan_mod
from repro.sqldb.cache import PipelineCache
from repro.sqldb.connection import ClientSession, QueryOutcome, captured
from repro.sqldb.errors import ExecutionError
from repro.sqldb.lexer import slot_values
from repro.sqldb.parser import parse_sql
from repro.sqldb.planner import DistributedPlanner
from repro.sqldb.storage import ResultSet

#: distinct statement texts and shapes whose routes the router keeps
ROUTE_CACHE_SIZE = 256


class _GatherContext(object):
    """Duck-typed ``ExecState.ctx`` for gather trees.  The only leaf
    below a gather is :class:`~repro.sqldb.plan.ShardScan`, and the only
    thing it needs is ``shard_rows`` — there is no local database and no
    read view.  The one expression a gather evaluates is its LIMIT, an
    integer literal: it reads no row (``row`` is ``None``)."""

    __slots__ = ("_router",)
    row = None

    def __init__(self, router):
        self._router = router

    def shard_rows(self, shard, sql):
        # a leg is a SELECT by construction: no need to parse it to
        # learn that a replica may serve it
        outcome = self._router.connections[shard].query(sql, read=True)
        if outcome.error is not None:
            # a SEPTIC block (or any shard error) aborts the gather —
            # the generator chain unwinds before another shard is asked
            raise outcome.error
        for row in outcome.rows:
            yield row


class ShardRouter(ClientSession):
    """Front N replica-set shards with planner-driven routing."""

    def __init__(self, workdir, shards=2, replicas=1, septic_factory=None,
                 seed=1, charset=None, heartbeat_interval=5,
                 lease_intervals=3, wal_sync="commit", storage="memory",
                 max_lag_lsn=0):
        self.catalog = ShardCatalog(shards)
        self.planner = DistributedPlanner(shards, self.catalog)
        self.shard_sets = [
            ReplicaSet(
                os.path.join(workdir, "shard%d" % ordinal),
                replicas=replicas,
                septic_factory=septic_factory,
                seed=seed + ordinal,
                heartbeat_interval=heartbeat_interval,
                lease_intervals=lease_intervals,
                wal_sync=wal_sync,
                storage=storage,
            )
            for ordinal in range(shards)
        ]
        self.connections = [
            replica_set.connect(max_lag_lsn=max_lag_lsn, charset=charset,
                                seed=seed + ordinal)
            for ordinal, replica_set in enumerate(self.shard_sets)
        ]
        #: bumped before every DDL broadcast; route-cache entries key on
        #: it, so a stale distributed plan can never be served
        self.catalog_epoch = 0
        #: ``(None, text | shape, catalog_epoch)`` -> the text's
        #: binding (route, values) under a text, the :class:`ShardRoute`
        #: under a shape
        self._routes = PipelineCache(ROUTE_CACHE_SIZE)
        self.last_gather_stats = None
        self._counts = {"single_shard": 0, "scatter": 0, "broadcast": 0,
                        "pinned": 0, "gather_peak_rows": 0}

    @property
    def shard_count(self):
        return len(self.shard_sets)

    @property
    def stats(self):
        """Routing counters (a snapshot): ``route_cache_hits`` is every
        lookup served without a parse, ``route_shape_hits`` the ones
        served by shape — the route cache's own counts."""
        return dict(self._counts, route_cache_hits=self._routes.hits,
                    route_shape_hits=self._routes.shape_hits)

    # -- catalog surface ----------------------------------------------

    def declare(self, table, key_column, columns=None):
        """Declare (or re-declare) *table*'s shard key; flushes cached
        routes, since routing decisions depend on it."""
        self.catalog_epoch += 1
        self._routes.clear()
        self.catalog.declare(table, key_column, columns)

    # -- routing -------------------------------------------------------

    def _route(self, sql):
        """``(ShardRoute, values)`` for one statement: the route, and
        the text's literals in the route's slot order.  Probed by text,
        then by shape; parsed only when both are new."""
        bound = self._routes.resolve(None, sql, self.catalog_epoch,
                                     self._plan_route)
        return bound.entry, bound.values

    def _plan_route(self, sql, lexed, slots):
        """The route cache's builder: parse and plan a statement whose
        text and shape are both new.  A route that decided nothing by a
        literal's value is filed by shape."""
        statements, comments = parse_sql(sql, lexed, slots=slots)
        if len(statements) != 1:
            raise ExecutionError(
                "the shard router takes one statement per call",
                errno=1235,
            )
        values = slot_values(lexed.tokens, lexed.slots)
        route = self.planner.route(statements[0], values=values,
                                   comments=comments)
        route.slots = lexed.slots
        return route, values, route.plan is None

    def _target_shard(self, route, values):
        """The one shard *route*'s keys name (0 when it has none: a
        pinned table, or a route that fans out)."""
        ordinals = {
            self.catalog.shard_for(route.table, value)
            for value in route.keys(values)
        }
        if not ordinals:
            return 0
        if len(ordinals) > 1:
            raise ExecutionError(
                "statement touches rows on %d shards (%s) — multi-shard "
                "DML/joins are not supported"
                % (len(ordinals), sorted(ordinals)), errno=1235,
            )
        return ordinals.pop()

    # -- the client surface -------------------------------------------

    def query(self, sql):
        """Run one statement somewhere in the fleet; returns a
        :class:`~repro.sqldb.connection.QueryOutcome`.  Whatever routing
        or gathering raises — a refusal, a shard's error mid-gather, a
        raw fault — comes back captured; the per-shard connections do
        the retrying."""
        outcome, error = captured(self._run, sql)
        return outcome if error is None else QueryOutcome(error=error)

    def _run(self, sql):
        route, values = self._route(sql)
        shard = self._target_shard(route, values)
        if route.kind == "broadcast":
            return self._broadcast(sql, route.ddl), None
        if route.kind == "scatter":
            return self._gather(route), None
        self._counts["single_shard" if route.kind == "single"
                     else "pinned"] += 1
        # the shard gets the text the client sent, byte for byte; the
        # router only tells its replica set which class of node may run it
        return self.connections[shard].query(sql, read=route.read), None

    def _broadcast(self, sql, stmt):
        """DDL to every shard.  The epoch bumps *first* so concurrent
        route lookups re-plan, and each shard engine bumps its own
        schema version as the DDL lands — its pipeline cache can never
        replay a pre-DDL plan.  The fan-out stops at the first shard
        error (DDL here is idempotent-or-retriable; the caller sees
        exactly which shard refused)."""
        self.catalog_epoch += 1
        self._routes.clear()
        self.catalog.observe_ddl(stmt)
        outcome = QueryOutcome()
        for connection in self.connections:
            outcome = connection.query(sql, read=False)
            if not outcome.ok:
                return outcome
        self._counts["broadcast"] += 1
        return outcome

    def _gather(self, route):
        stats = plan_mod.StageStats()
        state = plan_mod.ExecState(_GatherContext(self), stats)
        rows = [out for _, out in route.plan.root.rows(state)]
        self._counts["scatter"] += 1
        self.last_gather_stats = stats
        if stats.peak_materialized_rows > self._counts["gather_peak_rows"]:
            self._counts["gather_peak_rows"] = stats.peak_materialized_rows
        return QueryOutcome(
            result_set=ResultSet(route.plan.columns, rows)
        )

    # -- fleet control (virtual time, crash testing) -------------------

    def tick(self, ticks=1):
        """Advance every shard's virtual clock (heartbeats, leases,
        WAL shipping ride on this)."""
        for replica_set in self.shard_sets:
            replica_set.tick(ticks)

    def ship(self):
        for replica_set in self.shard_sets:
            replica_set.ship()

    def kill_primary(self, shard):
        """Crash one shard's primary (the sharded crash sweep's kill
        switch)."""
        return self.shard_sets[shard].kill_primary()

    def primary_database(self, shard):
        primary = self.shard_sets[shard].primary
        return None if primary is None else primary.database

    def status(self):
        return {
            "shards": self.shard_count,
            "catalog_epoch": self.catalog_epoch,
            "tables": self.catalog.tables(),
            "stats": self.stats,
            "primaries": [
                None if replica_set.primary is None
                else replica_set.primary.name
                for replica_set in self.shard_sets
            ],
        }

    def close(self):
        """End every per-shard session, then stop the shards — in that
        order, so an abandoned session's rollback still finds its log."""
        for connection in self.connections:
            connection.close()
        for replica_set in self.shard_sets:
            replica_set.close()

    def __repr__(self):
        return "ShardRouter(%d shards, epoch=%d)" % (self.shard_count,
                                                     self.catalog_epoch)
