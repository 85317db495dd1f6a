"""ReplicaSet behaviour: heartbeats, election, fencing, retention,
QM-store co-apply, and the replication fault sites."""

import pytest

from repro import faults
from repro.benchlab.crashsweep import MarkerSeptic, state_digest
from repro.core.septic import Mode, Septic
from repro.core.store import QMStore
from repro.faults.plan import FaultKind, FaultPlan, InjectedFault
from repro.replica import ReplicaSet, Role, ShippedBatch
from repro.replica.coordinator import damage_a_field, flip_a_bit
from repro.replica.node import shipped_crc
from repro.sqldb import wal as wal_mod
from repro.sqldb.connection import Connection
from repro.sqldb.errors import QueryBlocked

from tests.core.test_store import qid_for


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
    return conn


class TestHeartbeatsAndShipping(object):
    def test_heartbeat_rounds_converge_the_set(self, tmp_path):
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        replica_set.tick(2 * replica_set.heartbeat_interval)
        golden = state_digest(replica_set.primary.database)
        for node in replica_set.replicas():
            assert node.applied_lsn == replica_set.frontier_lsn()
            assert state_digest(node.database) == golden
            assert node.heartbeats_received > 0
        # a healthy primary never triggers an election
        replica_set.tick(10 * replica_set.lease_ticks)
        assert replica_set.promotions == 0
        replica_set.close()

    def test_septic_blocked_statement_never_replicates(self, tmp_path):
        replica_set = make_set(tmp_path)
        conn = seed_rows(replica_set)
        with pytest.raises(QueryBlocked):
            conn.query_or_raise(
                "INSERT INTO items (name) VALUES ('evil')")
        replica_set.tick(2 * replica_set.heartbeat_interval)
        for node in replica_set.replicas():
            names = [row.get("name")
                     for row in node.database.tables["items"].rows]
            assert "evil" not in names
        replica_set.close()

    def test_a_round_decodes_only_what_arrives(self, tmp_path, monkeypatch):
        """The log is read whole, but records ship as bytes picked by
        their LSN: after k new records each replica decodes the k that
        reach it, nothing else is decoded, and a round with nothing new
        decodes none."""
        replica_set = make_set(tmp_path)
        conn = seed_rows(replica_set)
        replica_set.ship()
        decoded = []
        decode = wal_mod.WalRecord.from_payload.__func__

        def counting(cls, payload):
            decoded.append(payload)
            return decode(cls, payload)

        monkeypatch.setattr(wal_mod.WalRecord, "from_payload",
                            classmethod(counting))
        for index in range(3):
            conn.query_or_raise(
                "INSERT INTO items (name) VALUES ('new%d')" % index)
        replica_set.ship()
        assert len(decoded) == 3 * len(replica_set.replicas())
        replica_set.ship()
        assert len(decoded) == 3 * len(replica_set.replicas())
        for node in replica_set.replicas():
            assert node.applied_lsn == replica_set.frontier_lsn()
        replica_set.close()

    def test_qm_store_co_applies_to_replicas(self, tmp_path):
        replica_set = make_set(
            tmp_path,
            septic_factory=lambda: Septic(mode=Mode.PREVENTION,
                                          store=QMStore()))
        qid, model = qid_for("SELECT a FROM t WHERE a = ?")
        replica_set.primary.database.septic.store.put(qid, model)
        replica_set.ship()
        for node in replica_set.replicas():
            assert node.store_syncs == 1
            assert len(node.database.septic.store) == 1
            assert qid.value in node.database.septic.store.ids()
        # unchanged store does not re-ship
        replica_set.ship()
        for node in replica_set.replicas():
            assert node.store_syncs == 1
        replica_set.close()


class TestElection(object):
    def test_lease_expiry_promotes_max_applied_lsn(self, tmp_path):
        replica_set = make_set(tmp_path)
        seed_rows(replica_set, count=2)
        replica_set.tick(replica_set.heartbeat_interval)
        # node2 stops receiving; node1 keeps up
        lagger = replica_set.node("node2")
        replica_set.partition(lagger)
        conn = Connection(replica_set.primary.database)
        for index in range(3):
            conn.query_or_raise(
                "INSERT INTO items (name) VALUES ('late%d')" % index)
        replica_set.ship()
        assert (replica_set.node("node1").applied_lsn
                > lagger.applied_lsn)
        replica_set.kill_primary()
        replica_set.tick(replica_set.lease_ticks
                         + replica_set.heartbeat_interval)
        assert replica_set.promotions == 1
        assert replica_set.primary is replica_set.node("node1")
        assert replica_set.epoch == 2
        assert replica_set.node("node0").role == Role.DETACHED
        replica_set.close()

    def test_fenced_zombie_records_are_rejected(self, tmp_path):
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        replica_set.tick(replica_set.heartbeat_interval)
        zombie = replica_set.primary
        replica_set.partition(zombie)
        replica_set.tick(replica_set.lease_ticks
                         + replica_set.heartbeat_interval)
        assert replica_set.promotions == 1
        assert zombie.role == Role.FENCED
        survivor = replica_set.replicas()[0]
        # let the new primary's epoch reach the survivor
        replica_set.tick(replica_set.heartbeat_interval)
        assert survivor.epoch == replica_set.epoch
        before = state_digest(survivor.database)
        # the deposed primary keeps committing, unaware
        Connection(zombie.database).query_or_raise(
            "INSERT INTO items (name) VALUES ('from-the-grave')")
        rejected_before = survivor.fenced_batches
        replica_set.ship(source=zombie)
        assert survivor.fenced_batches == rejected_before + 1
        assert state_digest(survivor.database) == before
        replica_set.close()

    def test_promotion_discards_in_flight_transactions(self, tmp_path):
        replica_set = make_set(tmp_path)
        conn = seed_rows(replica_set)
        conn.query_or_raise("BEGIN")
        conn.query_or_raise("INSERT INTO items (name) VALUES ('ghost')")
        replica_set.ship()  # BEGIN + statement ship; COMMIT never will
        survivor = replica_set.node("node1")
        assert survivor.applier.in_flight == 1
        replica_set.kill_primary()
        replica_set.tick(replica_set.lease_ticks
                         + replica_set.heartbeat_interval)
        assert replica_set.primary is not None
        new_primary = replica_set.primary
        assert new_primary.applier.in_flight == 0
        names = [row.get("name")
                 for row in new_primary.database.tables["items"].rows]
        assert "ghost" not in names
        replica_set.close()


class TestRetention(object):
    def test_checkpoint_waits_for_slowest_replica(self, tmp_path):
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        primary_db = replica_set.primary.database
        # replicas have seen nothing yet: rotation must hold
        assert primary_db.checkpoint() is None
        assert primary_db.checkpoints_deferred == 1
        replica_set.tick(2 * replica_set.heartbeat_interval)
        # everyone caught up: rotation may proceed
        assert primary_db.checkpoint() is not None
        assert primary_db.checkpoints_deferred == 1
        replica_set.close()

    def test_replication_lag_escape_hatch_drops_the_replica(self, tmp_path):
        replica_set = make_set(tmp_path, max_retention_lag=3)
        seed_rows(replica_set)
        replica_set.tick(replica_set.heartbeat_interval)
        lagger = replica_set.node("node2")
        replica_set.partition(lagger)
        conn = Connection(replica_set.primary.database)
        for index in range(6):  # push the lag past the threshold
            conn.query_or_raise(
                "INSERT INTO items (name) VALUES ('more%d')" % index)
        replica_set.ship()
        primary_db = replica_set.primary.database
        assert primary_db.checkpoint() is not None
        assert lagger.role == Role.DETACHED
        assert replica_set.replication_lag_drops == 1
        assert any(kind == "replication_lag"
                   for _tick, kind, _detail in replica_set.events)
        # the healthy replica still replicates
        assert replica_set.node("node1") in replica_set.replicas()
        replica_set.close()


class TestFaultSites(object):
    def test_lost_heartbeats_eventually_elect(self, tmp_path):
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        replica_set.tick(replica_set.heartbeat_interval)
        plan = FaultPlan()
        plan.inject("replica.heartbeat", FaultKind.RAISE)
        with faults.armed(plan):
            replica_set.tick(replica_set.lease_ticks
                             + replica_set.heartbeat_interval)
        assert replica_set.missed_heartbeats > 0
        # silence long enough always elects (and keeps electing while
        # every new primary's beats are lost too)
        assert replica_set.promotions >= 1
        # the first deposed primary is fenced, not dead
        assert replica_set.node("node0").role == Role.FENCED
        # once beats flow again the regime is stable
        settled = replica_set.promotions
        replica_set.tick(4 * replica_set.lease_ticks)
        assert replica_set.promotions == settled
        replica_set.close()

    def test_corrupt_shipment_is_rejected_then_reshipped(self, tmp_path):
        replica_set = make_set(tmp_path, replicas=1)
        seed_rows(replica_set)
        replica = replica_set.node("node1")
        plan = FaultPlan()
        plan.inject("replica.ship", FaultKind.CORRUPT, times=1)
        with faults.armed(plan):
            replica_set.ship()
        assert replica.corrupt_rejects >= 1
        stalled = replica.applied_lsn
        assert stalled < replica_set.frontier_lsn()
        # clean re-ship delivers the suffix
        replica_set.ship()
        assert replica.applied_lsn == replica_set.frontier_lsn()
        assert (state_digest(replica.database)
                == state_digest(replica_set.primary.database))
        replica_set.close()

    @pytest.mark.parametrize("damage", [flip_a_bit, damage_a_field])
    def test_damaged_bytes_and_damaged_fields_are_rejected(self, tmp_path,
                                                           damage):
        """Whatever the damage, the record fails its ship CRC: nothing
        of it reaches the replica's log or state.  What the replica
        applies is decoded from the bytes its log appends, so after a
        restart it recovers to the state it served."""
        replica_set = make_set(tmp_path, replicas=1)
        seed_rows(replica_set)
        primary, replica = replica_set.nodes
        data = wal_mod.read_log_bytes(
            wal_mod.log_path(primary.database.data_dir))
        entries = [(payload, shipped_crc(payload))
                   for _lsn, payload in wal_mod.iter_payloads(data)]
        payload, crc = entries[-1]
        assert damage(payload) != payload
        entries[-1] = (damage(payload), crc)
        assert replica.receive(ShippedBatch(primary.epoch, entries)) \
            == len(entries) - 1
        assert replica.corrupt_rejects == 1
        assert wal_mod.read_log_bytes(wal_mod.log_path(
            replica.database.data_dir)) == data[:len(data) - 8 - len(payload)]
        replica_set.ship()
        assert replica.applied_lsn == replica_set.frontier_lsn()
        served = state_digest(replica.database)
        assert served == state_digest(primary.database)
        replica.crash()
        replica.restart()
        assert state_digest(replica.database) == served
        replica_set.close()

    def test_apply_fault_propagates(self, tmp_path):
        replica_set = make_set(tmp_path, replicas=1)
        seed_rows(replica_set)
        plan = FaultPlan()
        plan.inject("replica.apply", FaultKind.RAISE, times=1)
        with faults.armed(plan):
            with pytest.raises(InjectedFault):
                replica_set.ship()
        # the record never entered the replica's log: clean re-ship works
        replica_set.ship()
        assert (replica_set.node("node1").applied_lsn
                == replica_set.frontier_lsn())
        replica_set.close()

    def test_promote_fault_retries_next_round(self, tmp_path):
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        replica_set.tick(replica_set.heartbeat_interval)
        replica_set.kill_primary()
        plan = FaultPlan()
        plan.inject("replica.promote", FaultKind.RAISE, times=1)
        with faults.armed(plan):
            replica_set.tick(replica_set.lease_ticks
                             + replica_set.heartbeat_interval)
        assert any(kind == "promote_faulted"
                   for _tick, kind, _detail in replica_set.events)
        # fault exhausted: the very next rounds elect
        replica_set.tick(2 * replica_set.heartbeat_interval)
        assert replica_set.promotions == 1
        replica_set.close()


class TestNodeLifecycle(object):
    def test_crashed_replica_restarts_and_catches_up(self, tmp_path):
        replica_set = make_set(tmp_path)
        conn = seed_rows(replica_set)
        replica_set.tick(replica_set.heartbeat_interval)
        replica = replica_set.node("node2")
        replica.crash()
        for index in range(3):
            conn.query_or_raise(
                "INSERT INTO items (name) VALUES ('while-down%d')" % index)
        replica_set.tick(replica_set.heartbeat_interval)
        assert replica.applied_lsn < replica_set.frontier_lsn()
        replica.restart()
        replica_set.tick(replica_set.heartbeat_interval)
        assert replica.applied_lsn == replica_set.frontier_lsn()
        assert (state_digest(replica.database)
                == state_digest(replica_set.primary.database))
        replica_set.close()

    def test_status_reports_roles_and_lag(self, tmp_path):
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        status = replica_set.status()
        assert status["frontier_lsn"] > 0
        by_name = {row["name"]: row for row in status["nodes"]}
        assert by_name["node0"]["role"] == Role.PRIMARY
        assert by_name["node0"]["lag"] == 0
        assert by_name["node1"]["lag"] == status["frontier_lsn"]
        replica_set.tick(replica_set.heartbeat_interval)
        status = replica_set.status()
        assert all(row["lag"] == 0 for row in status["nodes"])
        replica_set.close()
