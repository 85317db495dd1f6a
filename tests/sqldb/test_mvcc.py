"""MVCC row versioning: snapshot isolation, conflicts, GC, concurrency.

The tentpole claim — *writers never block readers* — decomposes into
testable pieces: statements read through a pinned watermark and never
see uncommitted or torn state; a transaction sees its own pending
writes; first-writer-wins conflicts surface as the retryable errno 1213
with zero partial effects; version chains are collected once no read
view can need them; and two parked-thread schedules on the real engine
show a reader parked mid-scan never holding back a same-table writer,
and a writer parked under its table lock never delaying a reader —
each with a twin in which a planted SELECT table lock serializes them.
"""

import sys
import threading

import pytest

from repro import faults
from repro.benchlab.crashsweep import state_digest
from repro.sqldb import ast_nodes as ast
from repro.sqldb import engine
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database, LockPlan
from repro.sqldb.errors import TransientEngineError, WriteConflictError


BANK_SCHEMA = (
    "CREATE TABLE accounts (id INT PRIMARY KEY, bal INT); "
    "INSERT INTO accounts (id, bal) VALUES (1, 100), (2, 100)"
)


@pytest.fixture
def bank(backend):
    """(database, churn) — *churn()* evicts the whole buffer pool on
    paged storage (nothing on memory): the cases call it between a
    write and the read that must still find the row's history, so the
    history is looked up from a row image re-read from bytes."""
    database = backend.database(BANK_SCHEMA)
    return database, lambda: backend.churn(database)


def _bal(conn, account_id):
    outcome = conn.query_or_raise(
        "SELECT bal FROM accounts WHERE id = %d" % account_id
    )
    return outcome.result_set.scalar()


def _count(conn):
    return conn.query_or_raise(
        "SELECT COUNT(*) FROM accounts"
    ).result_set.scalar()


class TestSnapshotIsolation(object):
    def test_transaction_reads_repeat_despite_later_commits(self, bank):
        db, churn = bank
        a, b = Connection(db), Connection(db)
        a.begin()
        assert _bal(a, 1) == 100
        b.query_or_raise("UPDATE accounts SET bal = 50 WHERE id = 1")
        churn()
        assert _bal(b, 1) == 50       # autocommit reads the latest commit
        assert _bal(a, 1) == 100      # a's snapshot predates b's commit
        a.commit()
        assert _bal(a, 1) == 50       # new statement, new watermark

    def test_transaction_sees_its_own_pending_writes(self, bank):
        db, churn = bank
        a, b = Connection(db), Connection(db)
        a.begin()
        a.query_or_raise("UPDATE accounts SET bal = 7 WHERE id = 1")
        churn()
        assert _bal(a, 1) == 7        # own uncommitted version
        assert _bal(b, 1) == 100      # invisible to everyone else
        a.commit()
        assert _bal(b, 1) == 7

    def test_pending_delete_is_invisible_until_commit(self, bank):
        db, churn = bank
        a, b = Connection(db), Connection(db)
        a.begin()
        a.query_or_raise("DELETE FROM accounts WHERE id = 2")
        churn()
        assert _count(a) == 1         # deleted for the deleter
        assert _count(b) == 2         # tombstone hidden from others
        a.commit()
        assert _count(b) == 1

    def test_pending_insert_is_invisible_until_commit(self, bank):
        db, churn = bank
        a, b = Connection(db), Connection(db)
        a.begin()
        a.query_or_raise("INSERT INTO accounts (id, bal) VALUES (3, 5)")
        churn()
        assert _count(a) == 3
        assert _count(b) == 2
        a.commit()
        assert _count(b) == 3

    def test_rollback_discards_pending_versions(self, bank):
        db, churn = bank
        a, b = Connection(db), Connection(db)
        a.begin()
        a.query_or_raise("UPDATE accounts SET bal = 1 WHERE id = 1")
        a.rollback()
        assert _bal(a, 1) == 100
        assert _bal(b, 1) == 100
        # the table is writable again afterwards
        b.query_or_raise("UPDATE accounts SET bal = 2 WHERE id = 1")
        assert _bal(a, 1) == 2

    def test_indexed_reads_honour_the_snapshot(self, bank):
        db, churn = bank
        db.seed("CREATE INDEX idx_bal ON accounts (bal)")
        a, b = Connection(db), Connection(db)
        a.begin()
        assert a.query_or_raise(
            "SELECT COUNT(*) FROM accounts WHERE bal = 100"
        ).result_set.scalar() == 2
        b.query_or_raise("UPDATE accounts SET bal = 55 WHERE id = 1")
        # index-assisted probe inside a's transaction: still 2 rows
        assert a.query_or_raise(
            "SELECT COUNT(*) FROM accounts WHERE bal = 100"
        ).result_set.scalar() == 2
        a.commit()
        assert a.query_or_raise(
            "SELECT COUNT(*) FROM accounts WHERE bal = 100"
        ).result_set.scalar() == 1


class TestSnapshotIsolationPaged(TestSnapshotIsolation):
    storage = "paged"


class TestWriteConflicts(object):
    def test_pending_write_conflicts_with_second_writer(self, bank):
        db, churn = bank
        a, b = Connection(db), Connection(db)
        a.begin()
        a.query_or_raise("UPDATE accounts SET bal = 70 WHERE id = 1")
        outcome = b.query("UPDATE accounts SET bal = 30 WHERE id = 1")
        assert not outcome.ok
        assert isinstance(outcome.error, WriteConflictError)
        assert outcome.error.errno == 1213
        assert outcome.error.transient
        a.rollback()

    def test_first_writer_wins_after_commit(self, bank):
        db, churn = bank
        a, b = Connection(db), Connection(db)
        b.begin()                       # pins b's snapshot now
        a.query_or_raise("UPDATE accounts SET bal = 70 WHERE id = 1")
        churn()
        # the row committed after b's snapshot: b lost the race
        outcome = b.query("UPDATE accounts SET bal = 30 WHERE id = 1")
        assert not outcome.ok
        assert outcome.error.errno == 1213
        b.rollback()
        assert _bal(a, 1) == 70

    def test_conflicting_statement_has_zero_partial_effects(self, bank):
        db, churn = bank
        a, b = Connection(db), Connection(db)
        a.begin()
        a.query_or_raise("UPDATE accounts SET bal = 70 WHERE id = 2")
        # b's statement targets both rows; row 2 conflicts, so row 1
        # must be untouched too — the retry can then cleanly re-apply
        outcome = b.query("UPDATE accounts SET bal = 0")
        assert not outcome.ok
        assert outcome.error.errno == 1213
        assert _bal(b, 1) == 100
        a.rollback()

    def test_delete_conflicts_with_pending_update(self, bank):
        db, churn = bank
        a, b = Connection(db), Connection(db)
        a.begin()
        a.query_or_raise("UPDATE accounts SET bal = 70 WHERE id = 1")
        outcome = b.query("DELETE FROM accounts WHERE id = 1")
        assert not outcome.ok
        assert outcome.error.errno == 1213
        assert _count(b) == 2
        a.rollback()

    def test_on_duplicate_key_conflicts_before_mutating(self, bank):
        db, churn = bank
        a, b = Connection(db), Connection(db)
        a.begin()
        a.query_or_raise("UPDATE accounts SET bal = 70 WHERE id = 1")
        outcome = b.query(
            "INSERT INTO accounts (id, bal) VALUES (1, 0) "
            "ON DUPLICATE KEY UPDATE bal = 99"
        )
        assert not outcome.ok
        assert outcome.error.errno == 1213
        a.rollback()
        assert _bal(b, 1) == 100

    def test_retry_resolves_conflict_exactly_once(self, bank):
        db, churn = bank
        a = Connection(db)
        a.begin()
        a.query_or_raise("UPDATE accounts SET bal = 70 WHERE id = 1")
        # b's backoff hook commits a, so b's single retry runs against
        # the committed row and succeeds — the conflict is observed
        # exactly once and the statement applies exactly once
        b = Connection(db, retries=1, backoff=1e-9,
                       sleep=lambda _seconds: a.commit())
        outcome = b.query("UPDATE accounts SET bal = bal + 5 WHERE id = 1")
        assert outcome.ok
        assert outcome.affected_rows == 1
        assert b.transient_retries == 1
        assert _bal(b, 1) == 75

    def test_retry_inside_open_transaction_keeps_conflicting(self, bank):
        db, churn = bank
        a, b = Connection(db), Connection(db)
        b.begin()
        a.query_or_raise("UPDATE accounts SET bal = 70 WHERE id = 1")
        outcome = b.query("UPDATE accounts SET bal = 30 WHERE id = 1")
        assert outcome.error.errno == 1213
        # same snapshot, same verdict: the transaction must restart
        outcome = b.query("UPDATE accounts SET bal = 30 WHERE id = 1")
        assert outcome.error.errno == 1213
        b.rollback()
        b.query_or_raise("UPDATE accounts SET bal = 30 WHERE id = 1")
        assert _bal(b, 1) == 30


class TestWriteConflictsPaged(TestWriteConflicts):
    storage = "paged"


class TestVersionGC(object):
    def test_single_session_workload_leaves_no_chains(self, bank):
        db, churn = bank
        conn = Connection(db)
        for value in (1, 2, 3):
            conn.query_or_raise(
                "UPDATE accounts SET bal = %d WHERE id = 1" % value
            )
        stats = db.table("accounts").mvcc_stats()
        assert stats["versioned_rows"] == 0
        assert stats["chained_images"] == 0
        assert stats["tombstones"] == 0

    def test_open_view_pins_history_until_vacuum(self, bank):
        db, churn = bank
        conn = Connection(db)
        view = db.open_read_view()
        conn.query_or_raise("UPDATE accounts SET bal = 9 WHERE id = 1")
        conn.query_or_raise("DELETE FROM accounts WHERE id = 2")
        churn()
        table = db.table("accounts")
        stats = table.mvcc_stats()
        assert stats["versioned_rows"] == 1
        assert stats["tombstones"] == 1
        # the pinned view still reads the pre-update, pre-delete state
        rows = sorted(row["id"] for row in table.iter_rows(view))
        assert rows == [1, 2]
        old = [row for row in table.iter_rows(view) if row["id"] == 1]
        assert old[0]["bal"] == 100
        db.close_read_view(view)
        assert db.mvcc_horizon() is None
        table.vacuum(db.mvcc_horizon())
        stats = table.mvcc_stats()
        assert stats["versioned_rows"] == 0
        assert stats["tombstones"] == 0

    def test_vacuum_spares_history_above_the_horizon(self, bank):
        db, churn = bank
        conn = Connection(db)
        view = db.open_read_view()
        conn.query_or_raise("UPDATE accounts SET bal = 9 WHERE id = 1")
        table = db.table("accounts")
        # the view's watermark predates the update: its chain must stay
        table.vacuum(db.mvcc_horizon())
        assert table.mvcc_stats()["versioned_rows"] == 1
        db.close_read_view(view)


class TestVersionGCPaged(TestVersionGC):
    storage = "paged"


class TestConcurrentReadersAndWriter(object):
    """Real threads, in-memory store only: lock-free readers beside a
    writer are what :class:`~repro.sqldb.storage.MemoryRows` promises;
    paged storage under two connections is an open finding."""

    def test_sum_invariant_holds_under_a_racing_writer(self):
        """A transfer loop moves balance between the two accounts while
        readers sum them.  Snapshot reads must never observe a torn
        transfer (sum != 200) or an uncommitted half."""
        db = Database()
        db.seed(BANK_SCHEMA)
        stop = threading.Event()
        failures = []

        def writer():
            conn = Connection(db)
            for _ in range(40):
                conn.begin()
                conn.query_or_raise(
                    "UPDATE accounts SET bal = bal - 10 WHERE id = 1"
                )
                conn.query_or_raise(
                    "UPDATE accounts SET bal = bal + 10 WHERE id = 2"
                )
                conn.commit()
            stop.set()

        def reader():
            conn = Connection(db)
            while not stop.is_set():
                total = conn.query_or_raise(
                    "SELECT SUM(bal) FROM accounts"
                ).result_set.scalar()
                if total != 200:
                    failures.append(total)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert failures == []
        conn = Connection(db)
        assert conn.query_or_raise(
            "SELECT SUM(bal) FROM accounts"
        ).result_set.scalar() == 200
        assert _bal(conn, 1) == 100 - 40 * 10

    def test_scans_overlap_a_writer_that_inserts_and_deletes(self):
        """Four lock-free readers count and scan while one writer loops
        INSERT + keyed DELETE.  No reader may error — in particular no
        ``RuntimeError`` from a container resized mid-iteration — and
        every row count lies between the committed minimum and maximum:
        a row being deleted is seen exactly once, never twice (store
        pass and tombstone pass) and never not at all."""
        base, operations = 300, 250
        db = Database()
        db.seed("CREATE TABLE items (id INT PRIMARY KEY, v INT)")
        seeder = Connection(db)
        for key in range(base):
            seeder.query_or_raise(
                "INSERT INTO items (id, v) VALUES (%d, 0)" % key)
        done = threading.Event()
        errors, out_of_range = [], []

        def writer():
            conn = Connection(db)
            try:
                for step in range(operations):
                    conn.query_or_raise(
                        "INSERT INTO items (id, v) VALUES (%d, 1)"
                        % (base + step))
                    # delete old and fresh keys alike: head, middle
                    # and tail of the row list all get removals
                    doomed = (base + step if step % 3 == 0
                              else step * 7 % (base + step))
                    gone = conn.query_or_raise(
                        "DELETE FROM items WHERE id = %d" % doomed)
                    if gone.affected_rows == 0:
                        conn.query_or_raise(
                            "DELETE FROM items WHERE id = %d"
                            % (base + step))
            except Exception as exc:        # surfaced by the assert
                errors.append(exc)
            finally:
                done.set()

        def reader():
            conn = Connection(db)
            try:
                while not done.is_set():
                    counted = conn.query_or_raise(
                        "SELECT COUNT(*) FROM items").result_set.scalar()
                    scanned = conn.query_or_raise(
                        "SELECT id FROM items").result_set.rows
                    ids = [row[0] for row in scanned]
                    if len(ids) != len(set(ids)):
                        out_of_range.append(("duplicate row", len(ids)))
                    for seen in (counted, len(ids)):
                        if not base <= seen <= base + 1:
                            out_of_range.append(seen)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert out_of_range == []
        assert len(db.table("items")) == base


# -- parked-thread schedules ------------------------------------------------
#
# "Writers never block readers" as two fixed schedules on the real
# engine.  ``operator.next`` fires when each operator opens: for a SELECT
# after ``Executor.execute`` has pinned the read view, for DML after the
# statement's locks are taken and before its first mutation.  Parking
# one named thread there holds it at exactly that point.  Each schedule
# has a twin that plants a table-shared lock on SELECT — the lock plan
# MVCC retired — and shows the property then fails.

#: how long a schedule waits for the thread that should make progress;
#: the green paths return as soon as it does, only the twins wait it out
_BOUND = 2.0

SCHEDULE_SCHEMA = (
    "CREATE TABLE t (id INT PRIMARY KEY, v INT); "
    "INSERT INTO t (id, v) VALUES (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)"
)
SUM_COUNT = "SELECT SUM(v), COUNT(*) FROM t"


class _Park(object):
    """A fault plan that parks the thread named *name* at its first
    ``operator.next`` until :meth:`release`; every other firing passes."""

    def __init__(self, name):
        self.name = name
        self.parked = threading.Event()
        self._released = threading.Event()

    def fire(self, site, payload=None, corruptor=None):
        if (site == "operator.next" and not self.parked.is_set()
                and threading.current_thread().name == self.name):
            self.parked.set()
            self._released.wait()
        return payload

    def release(self):
        self._released.set()


def _plant_select_table_lock(monkeypatch):
    """Make every SELECT hold table ``t`` shared for its whole run."""
    retired = engine.lock_plan

    def planted(stmt):
        if isinstance(stmt, ast.Select):
            return LockPlan(True, [("t", True)])
        return retired(stmt)

    monkeypatch.setattr(engine, "lock_plan", planted)


def _run_parked(parked_name, parked_sql, other_sqls):
    """Run *parked_sql* on a thread parked at its first operator, then
    *other_sqls* on a second thread.  Returns ``(progressed, parked rows,
    other rows)``: *progressed* is whether the second thread finished
    while the first was still parked."""
    db = Database()
    db.seed(SCHEDULE_SCHEMA)
    park = _Park(parked_name)
    finished = threading.Event()
    results, errors = {}, []

    def run(name, sqls, done=None):
        try:
            with Connection(db) as conn:
                results[name] = [conn.query_or_raise(sql).rows
                                 for sql in sqls]
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            if done is not None:
                done.set()

    parked = threading.Thread(target=run, name=parked_name,
                              args=(parked_name, [parked_sql]))
    other = threading.Thread(target=run, args=("other", other_sqls,
                                               finished))
    threads = [parked]
    with faults.armed(park):
        try:
            parked.start()
            assert park.parked.wait(_BOUND)
            threads.append(other)
            other.start()
            progressed = finished.wait(_BOUND)
        finally:
            park.release()
            for thread in threads:
                thread.join(10 * _BOUND)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    return progressed, results[parked_name][0], results["other"]


def _parked_reader():
    """Schedule (i): a reader parks inside a scan of ``t`` while a writer
    commits three UPDATE + INSERT pairs on ``t``."""
    writes = []
    for new_id in (6, 7, 8):
        writes += ["UPDATE t SET v = v + 1",
                   "INSERT INTO t (id, v) VALUES (%d, 0)" % new_id]
    return _run_parked("reader", SUM_COUNT, writes)


def _parked_writer():
    """Schedule (ii): a writer's UPDATE of ``t`` parks holding the table
    exclusively while a reader sums ``t``."""
    progressed, _, (rows,) = _run_parked(
        "writer", "UPDATE t SET v = v + 1", [SUM_COUNT])
    return progressed, rows


class TestParkedSchedules(object):
    def test_parked_reader_never_holds_back_a_writer(self):
        progressed, snapshot, writes = _parked_reader()
        assert progressed
        assert len(writes) == 6
        # the reader returns exactly the snapshot it pinned before parking
        assert snapshot == [(0, 5)]

    def test_planted_select_lock_holds_back_the_writer(self, monkeypatch):
        _plant_select_table_lock(monkeypatch)
        progressed, snapshot, _ = _parked_reader()
        assert not progressed
        assert snapshot == [(0, 5)]

    def test_parked_writer_never_delays_a_reader(self):
        progressed, rows = _parked_writer()
        assert progressed
        assert rows == [(0, 5)]          # the pre-write rows

    def test_planted_select_lock_delays_the_reader(self, monkeypatch):
        _plant_select_table_lock(monkeypatch)
        progressed, rows = _parked_writer()
        assert not progressed
        assert rows == [(5, 5)]          # it read only after the commit


class TestAlterBesidePendingRows(object):
    """The catalog is not versioned: an ALTER that reshaped a table
    while another session had rows pending in it would settle them as
    committed, out of that session's ROLLBACK's reach — and out of step
    with recovery, which never saw them commit."""

    @pytest.mark.parametrize("alter", [
        "ALTER TABLE t ADD COLUMN w INT",
        "ALTER TABLE t DROP COLUMN x",
    ], ids=["add", "drop"])
    def test_alter_waits_out_another_sessions_pending_rows(self, tmp_path,
                                                           alter):
        db = Database.recover(str(tmp_path))
        db.run("CREATE TABLE t (id INT PRIMARY KEY, v INT, x INT)")
        db.run("CREATE TABLE u (id INT PRIMARY KEY)")
        db.run("INSERT INTO t (id, v, x) VALUES (1, 10, 0)")
        a, b = db.create_session(), db.create_session()
        db.run("BEGIN", session=a)
        db.run("INSERT INTO t (id, v, x) VALUES (2, 20, 0)", session=a)
        with pytest.raises(TransientEngineError) as refused:
            db.run(alter, session=b)
        assert refused.value.errno == 1205
        # a table the open transaction has not written can be reshaped
        db.run("ALTER TABLE u ADD COLUMN n INT", session=b)
        db.run("ROLLBACK", session=a)
        assert [row["id"] for row in db.table("t").rows] == [1]
        db.run(alter, session=b)           # the retry goes through
        assert state_digest(db) == state_digest(
            Database.recover(str(tmp_path)))
