"""Unit tests for the resilience layer: virtual clock, watchdog,
circuit breaker, fail policies and QM-store integrity/recovery."""

import threading

import pytest

from repro import faults
from repro.core.id_generator import QueryId
from repro.core.logger import EventKind, SepticLogger
from repro.core.query_model import QueryModel
from repro.core.query_structure import QueryStructure
from repro.core.resilience import (
    BreakerState,
    CircuitBreaker,
    FailPolicy,
    VirtualClock,
    Watchdog,
    WatchdogTimeout,
)
from repro.core.septic import Mode, Septic
from repro.core.store import QMStore
from repro.faults import FaultKind, FaultPlan
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import QueryBlocked
from repro.sqldb.items import Item

from tests.conftest import TICKETS_SCHEMA, TICKET_QUERY


def _model(value="abc"):
    structure = QueryStructure([
        Item("SELECT", "SELECT"), Item("FIELD", "id"),
        Item("TABLE", "tickets"), Item("DATA_STRING", value),
    ])
    return QueryModel.from_structure(structure)


def _qid(internal="deadbeef", external=None):
    return QueryId(internal, external)


class TestVirtualClock(object):
    def test_advances_only_explicitly(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.advance(3.0)
        assert clock.now() == 3.0

    def test_thread_local(self):
        clock = VirtualClock()
        clock.advance(10.0)
        seen = []

        def other():
            seen.append(clock.now())
            clock.advance(1.0)
            seen.append(clock.now())

        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
        # the other thread started from zero and never saw our 10s
        assert seen == [0.0, 1.0]
        assert clock.now() == 10.0


class TestWatchdog(object):
    def test_within_budget_is_silent(self):
        clock = VirtualClock()
        dog = Watchdog(5.0, clock=clock)
        clock.advance(5.0)
        dog.check()  # exactly at the deadline: still fine

    def test_exceeding_budget_raises(self):
        clock = VirtualClock()
        dog = Watchdog(5.0, clock=clock)
        clock.advance(5.5)
        with pytest.raises(WatchdogTimeout):
            dog.check()

    def test_deadline_is_relative_to_creation(self):
        clock = VirtualClock()
        clock.advance(100.0)  # pre-existing charge must not count
        dog = Watchdog(5.0, clock=clock)
        clock.advance(4.0)
        dog.check()


class TestCircuitBreaker(object):
    def test_trips_after_threshold_consecutive_faults(self):
        breaker = CircuitBreaker(threshold=3, cooldown=2)
        assert breaker.record_fault() is False
        assert breaker.record_fault() is False
        assert breaker.record_fault() is True
        assert breaker.is_open and breaker.trips == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_fault()
        breaker.record_success()
        assert breaker.record_fault() is False  # count restarted
        assert not breaker.is_open

    def test_cooldown_walks_open_to_half_open_then_closed(self):
        breaker = CircuitBreaker(threshold=1, cooldown=3)
        breaker.record_fault()
        assert breaker.state == BreakerState.OPEN
        assert breaker.on_query() is False
        assert breaker.on_query() is False
        assert breaker.on_query() is True  # third fault-free query
        assert breaker.state == BreakerState.HALF_OPEN
        assert breaker.record_success() is True
        assert breaker.state == BreakerState.CLOSED
        assert breaker.resets == 1

    def test_half_open_fault_re_trips(self):
        breaker = CircuitBreaker(threshold=5, cooldown=1)
        for _ in range(5):
            breaker.record_fault()
        breaker.on_query()
        assert breaker.state == BreakerState.HALF_OPEN
        assert breaker.record_fault() is True  # one strike in half-open
        assert breaker.state == BreakerState.OPEN
        assert breaker.trips == 2

    def test_fault_while_open_extends_cooldown_without_new_trip(self):
        breaker = CircuitBreaker(threshold=1, cooldown=5)
        breaker.record_fault()
        breaker.on_query()
        assert breaker.record_fault() is False
        assert breaker.trips == 1
        assert breaker.state_dict()["cooldown_left"] == 5

    def test_none_threshold_never_trips(self):
        breaker = CircuitBreaker(threshold=None)
        for _ in range(50):
            assert breaker.record_fault() is False
        assert not breaker.is_open


class TestStoreIntegrity(object):
    def test_put_journals_the_pristine_model(self):
        store = QMStore()
        store.put(_qid(), _model())
        stats = store.integrity_stats()
        assert stats["models"] == 1 and stats["journal_records"] == 1

    def test_paranoid_get_recovers_a_corrupted_entry(self):
        store = QMStore(paranoid=True)
        qid = _qid()
        model = _model()
        store.put(qid, model)
        pristine = model.canonical()
        model.nodes[0].kind = "XELECT"  # corrupt in place
        recovered = store.get(qid)
        assert recovered.canonical() == pristine
        assert store.corruption_detected == 1
        assert store.recoveries == 1

    def test_recovery_callback_fires(self):
        seen = []
        store = QMStore(paranoid=True, on_recover=seen.append)
        qid = _qid()
        model = _model()
        store.put(qid, model)
        model.nodes[0].kind = "XELECT"
        store.get(qid)
        assert seen == [qid.value]

    def test_non_paranoid_get_skips_verification_when_disarmed(self):
        store = QMStore()
        qid = _qid()
        model = _model()
        store.put(qid, model)
        model.nodes[0].kind = "XELECT"
        # hot path: no verification cost, corruption goes unnoticed here
        assert store.get(qid) is model
        # ...but the explicit sweep still finds it
        assert store.verify_integrity() == [qid.value]
        assert store.get(qid).canonical() != model.canonical() or \
            store.recoveries == 1

    def test_unrecoverable_entry_is_dropped(self):
        store = QMStore(paranoid=True)
        qid = _qid(external="site.php:1")
        model = _model()
        store.put(qid, model)
        del store._journal[:]  # simulate a lost journal
        model.nodes[0].kind = "XELECT"
        assert store.get(qid) is None  # unknown beats corrupted
        assert qid.value not in store._models
        assert store.models_for_external("site.php:1") == []

    def test_snapshot_restore_round_trip(self):
        store = QMStore()
        store.put(_qid("aaaa", external="x.php:1"), _model("one"))
        store.put(_qid("bbbb"), _model("two"))
        snap = store.snapshot()
        store.clear()
        assert len(store) == 0
        assert store.restore(snap) == 2
        assert len(store) == 2
        assert len(store.models_for_external("x.php:1")) == 1

    def test_rebuild_from_journal(self):
        store = QMStore()
        qid_a = _qid("aaaa", external="x.php:1")
        qid_b = _qid("bbbb")
        store.put(qid_a, _model("one"))
        store.put(qid_b, _model("two"))
        # corrupt the table copy; the journal still has the pristine one
        store._models[qid_a.value].nodes[0].kind = "XELECT"
        assert store.rebuild_from_journal() == 2
        assert store._models[qid_a.value].canonical() == \
            _model("one").canonical()

    def test_load_rejects_checksum_mismatch(self, tmp_path):
        path = str(tmp_path / "models.json")
        store = QMStore(path=path)
        qid_a = _qid("aaaa")
        qid_b = _qid("bbbb")
        store.put(qid_a, _model("one"))
        store.put(qid_b, _model("two"))
        store.save()
        # bit-rot one persisted model without touching its checksum
        import json
        with open(path) as handle:
            payload = json.load(handle)
        payload["models"][qid_a.value]["nodes"][0]["kind"] = "XELECT"
        with open(path, "w") as handle:
            json.dump(payload, handle)
        fresh = QMStore(path=path)
        assert fresh.load() == 1  # the damaged entry is dropped
        assert fresh.load_rejected == 1
        assert qid_b.value in fresh._models
        assert qid_a.value not in fresh._models


def _prevention_stack(fail_policy=FailPolicy.CLOSED, breaker=None,
                      watchdog_budget=5.0):
    septic = Septic(mode=Mode.TRAINING, logger=SepticLogger(verbose=False),
                    fail_policy=fail_policy, breaker=breaker,
                    watchdog_budget=watchdog_budget)
    database = Database(septic=septic)
    database.seed(TICKETS_SCHEMA)
    connection = Connection(database)
    connection.query(TICKET_QUERY % ("ID34FG", "1234"))
    septic.mode = Mode.PREVENTION
    return septic, connection


class TestFailPolicies(object):
    def test_fail_closed_drops_the_query(self):
        septic, conn = _prevention_stack(FailPolicy.CLOSED)
        plan = FaultPlan()
        plan.inject("detector.run", FaultKind.RAISE, times=1)
        with faults.armed(plan):
            outcome = conn.query(TICKET_QUERY % ("ZZ11AA", "9999"))
        assert not outcome.ok
        assert isinstance(outcome.error, QueryBlocked)
        assert "fail-closed" in str(outcome.error)
        assert septic.stats.internal_faults == 1
        assert septic.stats.fail_closed_drops == 1
        assert septic.logger.by_kind(EventKind.INTERNAL_FAULT)

    def test_fail_open_lets_the_query_run(self):
        septic, conn = _prevention_stack(FailPolicy.OPEN)
        plan = FaultPlan()
        plan.inject("detector.run", FaultKind.RAISE, times=1)
        with faults.armed(plan):
            outcome = conn.query(TICKET_QUERY % ("ZZ11AA", "9999"))
        assert outcome.ok and len(outcome.rows) == 1
        assert septic.stats.fail_open_passes == 1

    def test_training_mode_never_drops(self):
        septic, conn = _prevention_stack(FailPolicy.CLOSED)
        septic.mode = Mode.TRAINING
        plan = FaultPlan()
        plan.inject("store.put", FaultKind.RAISE)
        with faults.armed(plan):
            outcome = conn.query(
                "SELECT creditCard FROM tickets WHERE id = 1"
            )
        assert outcome.ok
        assert septic.stats.fail_open_passes == 1

    def test_invalid_fail_policy_rejected(self):
        with pytest.raises(ValueError):
            Septic(fail_policy="fail_sideways")

    @pytest.mark.parametrize("policy", FailPolicy.ALL)
    def test_attack_verdict_is_not_a_fault(self, policy):
        """QueryBlocked is a verdict, not a crash: fail-open lets crashed
        checks through, never attacks."""
        septic, conn = _prevention_stack(policy)
        outcome = conn.query(TICKET_QUERY % ("' OR 1=1 -- ", "1"))
        assert isinstance(outcome.error, QueryBlocked)
        assert "SEPTIC" in str(outcome.error)
        assert septic.stats.internal_faults == 0
        assert septic.stats.fail_open_passes == 0
        assert not septic.breaker.is_open

    def test_watchdog_contains_a_hang(self):
        septic, conn = _prevention_stack(FailPolicy.CLOSED,
                                         watchdog_budget=5.0)
        plan = FaultPlan()
        plan.inject("detector.run", FaultKind.HANG, times=1,
                    hang_seconds=30.0)
        with faults.armed(plan):
            outcome = conn.query(TICKET_QUERY % ("ZZ11AA", "9999"))
        assert isinstance(outcome.error, QueryBlocked)
        assert septic.stats.watchdog_timeouts == 1
        assert septic.logger.by_kind(EventKind.WATCHDOG_TIMEOUT)

    def test_breaker_degrades_prevention_to_detection(self):
        breaker = CircuitBreaker(threshold=2, cooldown=2)
        septic, conn = _prevention_stack(FailPolicy.CLOSED, breaker=breaker)
        plan = FaultPlan()
        plan.inject("detector.run", FaultKind.RAISE, times=2)
        with faults.armed(plan):
            first = conn.query(TICKET_QUERY % ("ZZ11AA", "9999"))
            second = conn.query(TICKET_QUERY % ("ZZ11AA", "9999"))
        # first fault: breaker still closed -> fail-closed drop;
        # second fault trips it -> availability wins, query runs
        assert isinstance(first.error, QueryBlocked)
        assert second.ok
        assert septic.effective_mode == Mode.DETECTION
        assert septic.stats.breaker_trips == 1
        assert septic.logger.by_kind(EventKind.BREAKER_TRIPPED)
        # an attack during degradation is logged, not blocked
        attacked = conn.query(TICKET_QUERY % ("' OR 1=1 -- ", "1"))
        assert attacked.ok
        assert septic.stats.attacks_detected == 1
        assert septic.stats.queries_dropped == 0
        # cooldown of clean queries half-opens, one more closes it
        for _ in range(3):
            conn.query(TICKET_QUERY % ("ID34FG", "1234"))
        assert not septic.breaker.is_open
        assert septic.effective_mode == Mode.PREVENTION
        assert septic.stats.breaker_resets == 1
        assert septic.logger.by_kind(EventKind.BREAKER_RESET)

    def test_store_recovery_bumps_stats_and_logs(self):
        septic, conn = _prevention_stack(FailPolicy.CLOSED)
        plan = FaultPlan()
        plan.inject("store.get", FaultKind.CORRUPT, times=1)
        with faults.armed(plan):
            outcome = conn.query(TICKET_QUERY % ("ZZ11AA", "9999"))
        assert outcome.ok  # the corrupted model was rebuilt, not served
        assert septic.stats.store_recoveries == 1
        assert septic.logger.by_kind(EventKind.STORE_RECOVERED)

    def test_status_exposes_the_resilience_state(self):
        septic, _conn = _prevention_stack(FailPolicy.OPEN)
        status = septic.status()
        assert status["fail_policy"] == FailPolicy.OPEN
        assert status["effective_mode"] == Mode.PREVENTION
        assert status["breaker"]["state"] == BreakerState.CLOSED
        assert status["store_integrity"]["models"] == len(septic.store)
        assert status["stats"]["internal_faults"] == 0
