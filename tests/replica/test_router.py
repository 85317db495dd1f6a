"""RoutingConnection: bounded-staleness reads, write routing, and
virtual-time retry through a failover.  (That verdicts — SQL errors,
SEPTIC blocks — are never retried is a row of
``tests/test_session_contract.py``.)"""

import pytest

from repro.benchlab.crashsweep import MarkerSeptic
from repro.replica import ReplicaSet, Role
from repro.sqldb.connection import Connection
from repro.sqldb.errors import TransientEngineError


def make_set(tmp_path, **kwargs):
    kwargs.setdefault("replicas", 2)
    kwargs.setdefault("heartbeat_interval", 2)
    kwargs.setdefault("lease_intervals", 2)
    kwargs.setdefault("septic_factory", MarkerSeptic)
    return ReplicaSet(str(tmp_path / "set"), **kwargs)


def seed_rows(replica_set, count=4):
    conn = Connection(replica_set.primary.database, multi_statements=True)
    conn.query_or_raise(
        "CREATE TABLE items (id INT AUTO_INCREMENT PRIMARY KEY, "
        "name VARCHAR(30))")
    for index in range(count):
        conn.query_or_raise(
            "INSERT INTO items (name) VALUES ('row%d')" % index)
    replica_set.ship()
    return conn


class TestReadRouting(object):
    def test_reads_round_robin_across_replicas(self, tmp_path):
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        router = replica_set.connect()
        for _ in range(4):
            outcome = router.query_or_raise("SELECT COUNT(*) FROM items")
            assert outcome.rows[0][0] == 4
        assert router.reads_on_replicas == 4
        assert router.reads_on_primary == 0
        # both replicas served
        picked = set(router.pick_node(True).name for _ in range(2))
        assert picked == {"node1", "node2"}
        replica_set.close()

    def test_stale_replicas_are_skipped(self, tmp_path):
        replica_set = make_set(tmp_path)
        conn = seed_rows(replica_set)
        lagger = replica_set.node("node2")
        replica_set.partition(lagger)
        conn.query_or_raise("INSERT INTO items (name) VALUES ('new')")
        replica_set.ship()
        router = replica_set.connect(max_lag_lsn=0)
        for _ in range(4):
            outcome = router.query_or_raise("SELECT COUNT(*) FROM items")
            # never a stale answer: the bound excludes the lagging node
            assert outcome.rows[0][0] == 5
        assert router.reads_on_replicas == 4
        # a looser bound admits the lagging replica (stale reads allowed)
        loose = replica_set.connect(max_lag_lsn=10)
        counts = set()
        for _ in range(4):
            counts.add(loose.query_or_raise(
                "SELECT COUNT(*) FROM items").rows[0][0])
        assert counts == {4, 5}
        replica_set.close()

    def test_all_replicas_stale_falls_back_to_primary(self, tmp_path):
        replica_set = make_set(tmp_path)
        conn = seed_rows(replica_set)
        for node in list(replica_set.replicas()):
            replica_set.partition(node)
        conn.query_or_raise("INSERT INTO items (name) VALUES ('new')")
        router = replica_set.connect(max_lag_lsn=0)
        outcome = router.query_or_raise("SELECT COUNT(*) FROM items")
        assert outcome.rows[0][0] == 5
        assert router.reads_on_primary == 1
        replica_set.close()


class TestWriteRouting(object):
    def test_writes_go_to_the_primary(self, tmp_path):
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        router = replica_set.connect()
        router.query_or_raise("INSERT INTO items (name) VALUES ('w')")
        assert router.writes_routed == 1
        assert len(replica_set.primary.database.tables["items"].rows) == 5
        replica_set.close()

    def test_write_survives_failover_via_virtual_backoff(self, tmp_path):
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        replica_set.tick(replica_set.heartbeat_interval)
        replica_set.kill_primary()
        router = replica_set.connect(retries=8, seed=3)
        outcome = router.query("INSERT INTO items (name) VALUES ('x')")
        assert outcome.ok
        stats = router.retry_stats.as_dict()
        assert stats["attempts"] == 1
        assert stats["retries"] >= 1
        assert stats["exhausted"] == 0
        assert stats["backoff_seconds"] > 0  # virtual ticks charged
        assert replica_set.promotions == 1
        new_primary = replica_set.primary
        assert new_primary.role == Role.PRIMARY
        names = [row.get("name")
                 for row in new_primary.database.tables["items"].rows]
        assert "x" in names
        replica_set.close()

    def test_close_mid_failover_leaves_the_dead_node_alone(self, tmp_path):
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        router = replica_set.connect(retries=8, seed=3)
        router.query_or_raise("BEGIN")
        router.query_or_raise("INSERT INTO items (name) VALUES ('lost')")
        dead = replica_set.kill_primary()
        router.close()  # the dead primary's log takes no rollback marker
        with router:    # and the same object routes on, to the survivor
            assert router.query("INSERT INTO items (name) "
                                "VALUES ('kept')").ok
        assert replica_set.primary is not dead
        dead.restart()  # which is what ends the session the crash orphaned
        assert not dead.database.in_transaction
        replica_set.close()

    def test_retry_budget_exhausts_when_no_one_can_lead(self, tmp_path):
        replica_set = make_set(tmp_path, replicas=0)
        seed_rows(replica_set)
        replica_set.kill_primary()
        router = replica_set.connect(retries=3)
        outcome = router.query("INSERT INTO items (name) VALUES ('x')")
        assert isinstance(outcome.error, TransientEngineError)
        stats = router.retry_stats.as_dict()
        assert stats["exhausted"] == 1
        assert stats["retries"] == 3
        replica_set.close()

    def test_backoff_schedule_is_seeded_deterministic(self, tmp_path):
        replica_set = make_set(tmp_path)

        def ticks(seed):
            schedule = replica_set.connect(seed=seed).retry.delay
            return [schedule(n) for n in range(1, 9)]

        def seconds(seed):
            conn = Connection(replica_set.primary.database, backoff=0.01,
                              retry_seed=seed)
            return [conn.retry.delay(n) for n in range(1, 9)]

        assert ticks(5) == ticks(5) != ticks(6)
        # bounded: between the pure-exponential base and base * 1.5, cap 16
        for attempt, delay in enumerate(ticks(5), start=1):
            base = min(16, 2 ** (attempt - 1))
            assert base <= delay <= max(1, round(base * 1.5))
        # one loop, two clocks — and each seed's schedule is what
        # ``RoutingConnection._next_backoff_ticks`` and
        # ``Connection.next_backoff`` computed at a73f262, value for value
        assert ticks(5) == [1, 3, 6, 12, 22, 23, 16, 20]
        assert ticks(6) == [1, 3, 5, 9, 16, 21, 20, 22]
        assert seconds(5) == pytest.approx([
            0.01311450847444851, 0.027417869892607298, 0.055903871311313934,
            0.11769801135108202, 0.21919188597919445, 0.4675719994664667,
            0.6492816730507568, 1.5779984988019873], rel=1e-12)
        assert seconds(6) == pytest.approx([
            0.013966700418808316, 0.028219540423197267, 0.049700692558618906,
            0.09046485931778632, 0.1600361371908057, 0.42605097006140286,
            0.7904813622606224, 1.7662276064626516], rel=1e-12)
        replica_set.close()


class TestFencedNodesNeverServeReads(object):
    def test_caught_up_zombie_is_skipped(self, tmp_path):
        """A fenced old primary can be fully caught up on LSN — it was
        the primary — and must still never serve a read: fencing means
        "not part of the set", not "stale"."""
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        zombie = replica_set.primary
        replica_set.partition(zombie)
        replica_set.promote()
        assert zombie.role == Role.FENCED
        assert zombie.alive
        # an unbounded staleness allowance cannot exclude the zombie —
        # only the role filter can, and it must
        router = replica_set.connect(max_lag_lsn=10 ** 6)
        for _ in range(6):
            node = router.pick_node(True)
            assert node is not zombie
            assert node.role in (Role.REPLICA, Role.PRIMARY)
        assert router.pick_node(False) is replica_set.primary
        outcome = router.query_or_raise("SELECT COUNT(*) FROM items")
        assert outcome.rows[0][0] == 4
        replica_set.close()

    def test_detached_dead_node_is_skipped(self, tmp_path):
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        dead = replica_set.kill_primary()
        replica_set.tick(replica_set.lease_ticks
                         + replica_set.heartbeat_interval)
        assert dead.role == Role.DETACHED
        router = replica_set.connect(max_lag_lsn=10 ** 6)
        for _ in range(4):
            assert router.pick_node(True) is not dead
        replica_set.close()


class TestFrontierSurvivesThePrimary(object):
    def test_never_shipped_replica_is_not_caught_up(self, tmp_path):
        """Killing the primary must not amnesia the frontier: a replica
        that never received a shipment is ``durable_lsn`` records
        behind, even though no live node remembers those commits."""
        replica_set = make_set(tmp_path, replicas=1)
        conn = Connection(replica_set.primary.database,
                          multi_statements=True)
        conn.query_or_raise(
            "CREATE TABLE items (id INT AUTO_INCREMENT PRIMARY KEY, "
            "name VARCHAR(30))")
        conn.query_or_raise("INSERT INTO items (name) VALUES ('only')")
        committed = replica_set.primary.database.durable_lsn
        assert committed > 0
        replica_set.kill_primary()  # nothing was ever shipped
        assert replica_set.frontier_lsn() == committed
        router = replica_set.connect(max_lag_lsn=0)
        # the empty replica may not serve a bounded-staleness read —
        # with the primary dead there is no eligible node at all
        assert router.pick_node(True) is None
        replica_set.close()

    def test_promotion_resets_the_timeline(self, tmp_path):
        replica_set = make_set(tmp_path, replicas=1)
        seed_rows(replica_set)  # ships, so the replica is caught up
        conn = Connection(replica_set.primary.database)
        conn.query_or_raise("INSERT INTO items (name) VALUES ('lost')")
        replica_set.kill_primary()  # the tail was never shipped
        survivor = replica_set.promote()
        # the winner's log is the new frontier: its own reads qualify
        # again even though the unshipped tail is gone
        assert replica_set.frontier_lsn() == survivor.database.durable_lsn
        router = replica_set.connect(max_lag_lsn=0)
        outcome = router.query_or_raise("SELECT COUNT(*) FROM items")
        assert outcome.rows[0][0] == 4
        replica_set.close()
