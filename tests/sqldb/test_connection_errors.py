"""The client connector's error contract (satellites of the resilience
work):

* every error path in ``query``/``multi_query`` yields a
  :class:`QueryOutcome` carrying a real :class:`SQLError` — raw
  exceptions never escape to application code;
* ``multi_query`` has defined stop-on-first-error semantics;
* transient engine faults are retried with bounded exponential backoff;
* a SEPTIC :class:`QueryBlocked` mid-transaction leaves the
  transaction/session state fully consistent.
"""

import pytest

from repro import faults
from repro.core.logger import SepticLogger
from repro.core.septic import Mode, Septic
from repro.faults import FaultKind, FaultPlan, InjectedFault
from repro.sqldb.connection import Connection, QueryOutcome
from repro.sqldb.engine import Database
from repro.sqldb.errors import (
    MultiStatementError,
    ParseError,
    QueryBlocked,
    SQLError,
    TransientEngineError,
    ValidationError,
)

from tests.conftest import TICKETS_SCHEMA, TICKET_QUERY


class TestErrorCapture(object):
    def test_parse_error_is_captured(self, conn):
        outcome = conn.query("SELEKT * FROM tickets")
        assert not outcome.ok
        assert isinstance(outcome.error, ParseError)
        assert conn.last_error is outcome.error

    def test_validation_error_is_captured(self, conn):
        outcome = conn.query("SELECT * FROM no_such_table")
        assert isinstance(outcome.error, ValidationError)

    def test_multi_statement_rejected_without_optin(self, conn):
        outcome = conn.query("SELECT 1; SELECT 2")
        assert isinstance(outcome.error, MultiStatementError)

    def test_ok_clears_last_error(self, conn):
        conn.query("SELEKT *")
        assert conn.last_error is not None
        assert conn.query("SELECT * FROM tickets").ok
        assert conn.last_error is None

    def test_injected_engine_crash_is_wrapped(self, conn):
        plan = FaultPlan()
        plan.inject("executor.step", FaultKind.RAISE, times=1)
        with faults.armed(plan):
            outcome = conn.query("SELECT * FROM tickets")
        assert isinstance(outcome.error, TransientEngineError)
        assert not isinstance(outcome.error, InjectedFault)
        assert outcome.error.transient
        assert outcome.error.errno == 2013

    def test_injected_decode_crash_is_wrapped(self, conn):
        plan = FaultPlan()
        plan.inject("charset.decode", FaultKind.RAISE, times=1)
        with faults.armed(plan):
            outcome = conn.query("SELECT * FROM tickets WHERE id = 9")
        assert isinstance(outcome.error, TransientEngineError)

    def test_cache_fault_degrades_to_cold_path(self, db):
        conn = Connection(db)
        assert conn.query("SELECT * FROM tickets").ok  # warm the cache
        plan = FaultPlan()
        plan.inject("cache.lookup", FaultKind.RAISE)
        with faults.armed(plan):
            # a broken cache must not break queries
            outcome = conn.query("SELECT * FROM tickets")
        assert outcome.ok and len(outcome.rows) == 3

    def test_prepared_execute_wraps_raw_exceptions(self, conn):
        prepared = conn.prepare("SELECT * FROM tickets WHERE id = ?")
        plan = FaultPlan()
        plan.inject("executor.step", FaultKind.RAISE, times=1)
        with faults.armed(plan):
            outcome = conn.execute_prepared(prepared, 1)
        assert isinstance(outcome, QueryOutcome)
        assert isinstance(outcome.error, SQLError)


class TestMultiQuerySemantics(object):
    def test_all_ok(self, db):
        conn = Connection(db, multi_statements=True)
        outcomes = conn.multi_query(
            "SELECT * FROM tickets; SELECT * FROM tickets WHERE id = 1"
        )
        assert [o.ok for o in outcomes] == [True, True]
        assert len(outcomes[0].rows) == 3
        assert len(outcomes[1].rows) == 1

    def test_stops_on_first_error_keeps_prefix(self, db):
        conn = Connection(db, multi_statements=True)
        outcomes = conn.multi_query(
            "INSERT INTO tickets (reservID, creditCard) VALUES ('NEW1', 1);"
            "SELECT * FROM no_such_table;"
            "INSERT INTO tickets (reservID, creditCard) VALUES ('NEW2', 2)"
        )
        # one ok outcome for the executed prefix, one error, nothing after
        assert len(outcomes) == 2
        assert outcomes[0].ok and outcomes[0].affected_rows == 1
        assert isinstance(outcomes[1].error, ValidationError)
        assert conn.last_error is outcomes[1].error
        # the third statement never ran
        check = conn.query("SELECT * FROM tickets WHERE reservID = 'NEW1'")
        assert len(check.rows) == 1
        check = conn.query("SELECT * FROM tickets WHERE reservID = 'NEW2'")
        assert len(check.rows) == 0

    def test_setup_error_yields_single_error_outcome(self, db):
        conn = Connection(db, multi_statements=True)
        outcomes = conn.multi_query("SELECT * FROM; SELECT 1")
        assert len(outcomes) == 1
        assert isinstance(outcomes[0].error, SQLError)

    def test_empty_script(self, db):
        conn = Connection(db, multi_statements=True)
        outcomes = conn.multi_query("-- nothing to do")
        assert len(outcomes) == 1 and outcomes[0].ok

    def test_partial_failure_is_never_retried(self, db):
        conn = Connection(db, multi_statements=True, retries=3)
        plan = FaultPlan()
        # second executed statement crashes, transiently
        spec = plan.inject("executor.step", FaultKind.FLAKY, after=1,
                           fails=1)
        with faults.armed(plan):
            outcomes = conn.multi_query(
                "INSERT INTO tickets (reservID, creditCard) "
                "VALUES ('ONCE', 1); SELECT * FROM tickets"
            )
        # retrying would re-run the INSERT; the connector must not
        assert spec.fired == 1
        assert conn.transient_retries == 0
        assert outcomes[0].ok
        assert isinstance(outcomes[1].error, TransientEngineError)
        rows = conn.query(
            "SELECT * FROM tickets WHERE reservID = 'ONCE'"
        ).rows
        assert len(rows) == 1


class TestTransientRetry(object):
    # that deterministic errors and SEPTIC blocks are never retried is a
    # row of tests/test_session_contract.py, for every façade

    def test_flaky_fault_retried_to_success(self, db):
        delays = []
        conn = Connection(db, retries=3, backoff=0.01, jitter=0.0,
                          sleep=delays.append)
        plan = FaultPlan()
        plan.inject("executor.step", FaultKind.FLAKY, fails=2)
        with faults.armed(plan):
            outcome = conn.query("SELECT * FROM tickets")
        assert outcome.ok and len(outcome.rows) == 3
        assert conn.transient_retries == 2
        assert delays == [0.01, 0.02]  # exponential backoff
        assert conn.retry_stats.as_dict()["retries"] == 2

    def test_jittered_backoff_is_seeded_and_bounded(self, db):
        def delays_for(seed):
            delays = []
            conn = Connection(db, retries=4, backoff=0.01, jitter=0.5,
                              retry_seed=seed, sleep=delays.append)
            plan = FaultPlan()
            plan.inject("executor.step", FaultKind.FLAKY, fails=3)
            with faults.armed(plan):
                outcome = conn.query("SELECT * FROM tickets")
            assert outcome.ok
            return delays

        first = delays_for(7)
        # deterministic: same seed, same schedule
        assert first == delays_for(7)
        # a different seed jitters differently
        assert first != delays_for(8)
        # each delay stays within [base, base * (1 + jitter)]
        for attempt, delay in enumerate(first, start=1):
            base = 0.01 * (2 ** (attempt - 1))
            assert base <= delay <= base * 1.5

    def test_backoff_cap_limits_exponential_growth(self, db):
        delays = []
        conn = Connection(db, retries=8, backoff=0.01, jitter=0.0,
                          backoff_cap=0.04, sleep=delays.append)
        plan = FaultPlan()
        plan.inject("executor.step", FaultKind.FLAKY, fails=6)
        with faults.armed(plan):
            outcome = conn.query("SELECT * FROM tickets")
        assert outcome.ok
        assert delays == [0.01, 0.02, 0.04, 0.04, 0.04, 0.04]

    def test_retry_budget_exhausted(self, db):
        conn = Connection(db, retries=1, backoff=0.0)
        plan = FaultPlan()
        plan.inject("executor.step", FaultKind.RAISE)
        with faults.armed(plan):
            outcome = conn.query("SELECT * FROM tickets")
        assert isinstance(outcome.error, TransientEngineError)
        assert conn.transient_retries == 1

    def test_no_retries_by_default(self, db):
        conn = Connection(db)
        plan = FaultPlan()
        plan.inject("executor.step", FaultKind.FLAKY, fails=1)
        with faults.armed(plan):
            outcome = conn.query("SELECT * FROM tickets")
        assert isinstance(outcome.error, TransientEngineError)
        assert conn.transient_retries == 0


class TestBlockedMidTransaction(object):
    def _blocked_stack(self, fail_policy=None):
        septic = Septic(mode=Mode.TRAINING,
                        logger=SepticLogger(verbose=False))
        database = Database(septic=septic)
        database.seed(TICKETS_SCHEMA)
        conn = Connection(database)
        conn.query(TICKET_QUERY % ("ID34FG", "1234"))
        conn.query("INSERT INTO tickets (reservID, creditCard) "
                   "VALUES ('TRAIN', 1)")
        septic.mode = Mode.PREVENTION
        return septic, conn

    def test_block_does_not_abort_the_transaction(self):
        _septic, conn = self._blocked_stack()
        assert conn.query("BEGIN").ok
        ok = conn.query("INSERT INTO tickets (reservID, creditCard) "
                        "VALUES ('TX1', 7)")
        assert ok.ok
        blocked = conn.query(TICKET_QUERY % ("' OR 1=1 -- ", "1"))
        assert isinstance(blocked.error, QueryBlocked)
        # the session is still in the transaction and fully usable
        assert conn.query("INSERT INTO tickets (reservID, creditCard) "
                          "VALUES ('TX2', 8)").ok
        assert conn.query("COMMIT").ok
        rows = conn.query("SELECT * FROM tickets WHERE creditCard = 7").rows
        assert len(rows) == 1
        rows = conn.query("SELECT * FROM tickets WHERE creditCard = 8").rows
        assert len(rows) == 1

    def test_rollback_after_block_discards_only_tx_writes(self):
        _septic, conn = self._blocked_stack()
        conn.query("BEGIN")
        conn.query("INSERT INTO tickets (reservID, creditCard) "
                   "VALUES ('TX1', 7)")
        blocked = conn.query(TICKET_QUERY % ("' OR 1=1 -- ", "1"))
        assert isinstance(blocked.error, QueryBlocked)
        assert conn.query("ROLLBACK").ok
        rows = conn.query("SELECT * FROM tickets WHERE creditCard = 7").rows
        assert rows == []
        # pre-transaction data is intact
        rows = conn.query("SELECT * FROM tickets WHERE reservID = 'TRAIN'")
        assert len(rows.rows) == 1

    def test_fail_closed_drop_mid_transaction_is_consistent(self):
        septic, conn = self._blocked_stack()
        conn.query("BEGIN")
        conn.query("INSERT INTO tickets (reservID, creditCard) "
                   "VALUES ('TX1', 7)")
        plan = FaultPlan()
        plan.inject("detector.run", FaultKind.RAISE, times=1)
        with faults.armed(plan):
            dropped = conn.query("SELECT * FROM tickets WHERE id = 1")
        assert isinstance(dropped.error, QueryBlocked)
        assert septic.stats.fail_closed_drops == 1
        # transaction commits; only the intended write lands
        assert conn.query("COMMIT").ok
        rows = conn.query("SELECT * FROM tickets WHERE creditCard = 7").rows
        assert len(rows) == 1

    def test_blocked_first_statement_leaves_autocommit_clean(self):
        _septic, conn = self._blocked_stack()
        blocked = conn.query(TICKET_QUERY % ("' OR 1=1 -- ", "1"))
        assert isinstance(blocked.error, QueryBlocked)
        # no transaction was opened; normal autocommit writes still work
        assert conn.query("INSERT INTO tickets (reservID, creditCard) "
                          "VALUES ('AFTER', 9)").ok
        assert conn.query("ROLLBACK").ok  # no-op outside a transaction
        rows = conn.query("SELECT * FROM tickets WHERE reservID = 'AFTER'")
        assert len(rows.rows) == 1


def test_query_or_raise_still_raises(conn):
    with pytest.raises(ParseError):
        conn.query_or_raise("SELEKT *")


class TestRetryStatsExport(object):
    def test_retry_stats_ride_along_in_septic_status(self, tmp_path):
        from repro.core.store import QMStore

        septic = Septic(mode=Mode.PREVENTION, store=QMStore(),
                        logger=SepticLogger())
        database = Database.recover(str(tmp_path / "dd"), septic=septic)
        septic.bind_store(database)
        database.seed(TICKETS_SCHEMA)
        plan = FaultPlan()
        plan.inject("executor.step", FaultKind.FLAKY, fails=1)
        conn = Connection(database, retries=2, backoff=0.0)
        with faults.armed(plan):
            outcome = conn.query("SELECT * FROM tickets")
        assert outcome.ok
        stats = septic.status()["retry_stats"]
        assert stats["attempts"] == 1
        assert stats["retries"] == 1
        assert stats["exhausted"] == 0
        # a second connection's retries aggregate into the same export
        plan = FaultPlan()
        plan.inject("executor.step", FaultKind.FLAKY, fails=1)
        other = Connection(database, retries=2, backoff=0.0)
        with faults.armed(plan):
            assert other.query("SELECT * FROM tickets").ok
        assert septic.status()["retry_stats"]["retries"] == 2
        # while each connection keeps its own view
        assert conn.retry_stats.as_dict()["retries"] == 1
        assert other.retry_stats.as_dict()["retries"] == 1
        database.close()

    def test_unbound_septic_exports_none(self):
        septic = Septic(mode=Mode.PREVENTION, logger=SepticLogger())
        assert septic.status()["retry_stats"] is None
