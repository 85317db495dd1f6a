"""Failover-aware client routing over a :class:`ReplicaSet`.

:class:`RoutingConnection` is what an application holds instead of a
single-node :class:`repro.sqldb.connection.Connection`:

* **writes** (and anything unparseable) go to the live primary;
* **reads** (SELECT/EXPLAIN/SHOW/DESCRIBE-only statements) round-robin
  across replicas whose staleness is within ``max_lag_lsn`` records of
  the set's committed frontier — the bounded-staleness contract; the
  primary serves them when no replica qualifies;
* **transient failures** (no live primary mid-failover, an injected
  engine fault) are retried against the survivors by the same
  :class:`~repro.core.resilience.RetryLoop` the base connection runs —
  here its delays are **virtual ticks**, charged via
  ``ReplicaSet.tick``, so the backoff itself drives heartbeat rounds
  forward and a write stalled on a dead primary un-stalls the moment
  the lease expires and election promotes a survivor.  One seed, one
  schedule.

Whether a statement is a read is a property of its *shape*.  A caller
that routed the statement already knows it and says so
(``query(sql, read=...)`` — the shard router, and its gather legs);
otherwise the class is looked up the way the engine looks up a
pipeline (:class:`repro.sqldb.cache.PipelineCache`: raw text, then
shape) and the text is parsed only when both probes miss.
"""

from repro.core.resilience import RetryLoop, RetryStats
from repro.replica.node import Role
from repro.sqldb.cache import PipelineCache
from repro.sqldb.connection import (
    ClientSession, Connection, QueryOutcome, captured,
)
from repro.sqldb.engine import _READ_STATEMENTS
from repro.sqldb.errors import SQLError, TransientEngineError
from repro.sqldb.parser import parse_sql
from repro.sqldb.planner import ShardRoute


def _classify(sql, lexed, slots):
    """The class cache's builder: parse a statement whose text and
    shape are both new, and keep whether it only reads."""
    statements, _comments = parse_sql(sql, lexed, slots=slots)
    route = ShardRoute("any", read=bool(statements) and all(
        isinstance(stmt, _READ_STATEMENTS) for stmt in statements))
    route.slots = lexed.slots
    return route, (), True


class RoutingConnection(ClientSession):
    """Routes queries across a replica set with bounded-staleness reads
    and virtual-time retry/backoff."""

    def __init__(self, replica_set, max_lag_lsn=0, retries=6,
                 backoff_ticks=1, backoff_cap_ticks=16, jitter=0.5,
                 seed=0, charset=None):
        self._set = replica_set
        #: how many WAL records behind the committed frontier a replica
        #: may be and still serve this client's reads (0 = exactly
        #: caught up)
        self.max_lag_lsn = max_lag_lsn
        self.retry_stats = RetryStats()
        #: waiting IS what lets the lease expire and the election run
        self.retry = RetryLoop(
            retries, backoff_ticks, backoff_cap_ticks, jitter, seed,
            replica_set.tick, (self.retry_stats,), whole_ticks=True)
        self.charset = charset
        self._conns = {}
        #: text | shape -> :class:`ShardRoute`, of which only ``read``
        #: (and the shape's ``slots``) is used: no catalog, one epoch
        self._classes = PipelineCache()
        self._round_robin = 0
        #: reads served by a replica vs the primary (the scale-out
        #: split the benchmarks measure)
        self.reads_on_replicas = 0
        self.reads_on_primary = 0
        self.writes_routed = 0

    # -- routing -----------------------------------------------------------

    def _is_read(self, sql):
        try:
            return self._classes.resolve(None, sql, 0, _classify).entry.read
        except SQLError:
            return False  # the primary will produce the real error

    def _connection(self, node):
        conn = self._conns.get(node.name)
        if conn is None:
            # the router does its own retrying (across nodes, in
            # virtual time), so the per-node connection gets no budget;
            # a node's database keeps its identity across a restart
            conn = Connection(node.database, charset=self.charset)
            self._conns[node.name] = conn
        return conn

    def pick_node(self, read):
        """The node this statement should run on right now, or ``None``
        when nothing can serve it (mid-failover)."""
        primary = self._set.primary
        if not read:
            return primary
        frontier = self._set.frontier_lsn()
        # filter on role/liveness explicitly rather than trusting
        # ``replicas()``'s selection: a fenced or detached node (a
        # zombie old primary after an election, a dropped replica) may
        # be fully caught up on LSN and must still never serve reads —
        # fencing means "not part of the set", not "stale"
        eligible = [
            node for node in self._set.replicas()
            if node.alive and node.role == Role.REPLICA
            and frontier - node.applied_lsn <= self.max_lag_lsn
        ]
        if eligible:
            node = eligible[self._round_robin % len(eligible)]
            self._round_robin += 1
            return node
        return primary

    # -- the client surface ------------------------------------------------

    def query(self, sql, read=None):
        """Run one statement somewhere in the set; returns a
        :class:`~repro.sqldb.connection.QueryOutcome`.  *read* is the
        statement's class when the caller already routed it.

        Deterministic SQL errors and SEPTIC blocks return immediately
        (they are verdicts, not faults).  Transient outcomes — no
        eligible node, a mid-flight engine fault — burn the retry
        budget, backing off in virtual ticks between attempts.
        """
        outcome, error = self.retry.run(captured, self._attempt, sql, read)
        return outcome if error is None else QueryOutcome(error=error)

    def _attempt(self, sql, read):
        if read is None:
            read = self._is_read(sql)
        node = self.pick_node(read)
        if node is None:
            raise TransientEngineError(
                "no live node can serve this %s right now "
                "(failover in progress?)" % ("read" if read else "write"))
        outcome = self._connection(node).query(sql)
        if outcome.error is not None:
            return (), outcome.error
        if not read:
            self.writes_routed += 1
        elif node.role == Role.PRIMARY:
            self.reads_on_primary += 1
        else:
            self.reads_on_replicas += 1
        return outcome, None

    def close(self):
        """End every per-node session (idempotent): a transaction this
        client left open rolls back, so nothing it abandoned keeps a
        node from checkpointing.  A dead node's sessions died with it
        (its restart ends them), and its log takes no rollback marker."""
        while self._conns:
            name, conn = self._conns.popitem()
            if self._set.node(name).alive:
                conn.close()

    def __repr__(self):
        return ("RoutingConnection(max_lag_lsn=%d, reads r/p=%d/%d, "
                "writes=%d)" % (self.max_lag_lsn, self.reads_on_replicas,
                                self.reads_on_primary, self.writes_routed))
