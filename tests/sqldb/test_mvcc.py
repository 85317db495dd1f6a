"""MVCC row versioning: snapshot isolation, conflicts, GC, concurrency.

The tentpole claim — *writers never block readers* — decomposes into
testable pieces: statements read through a pinned watermark and never
see uncommitted or torn state; a transaction sees its own pending
writes; first-writer-wins conflicts surface as the retryable errno 1213
with zero partial effects; version chains are collected once no read
view can need them; and a deterministic virtual-time schedule shows
eight readers finishing while a long same-table UPDATE still holds its
table lock.
"""

import sys
import threading

import pytest

from repro.benchlab.harness import run_lock_experiment
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import WriteConflictError


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

    def test_eight_readers_progress_during_long_update(self):
        """Deterministic virtual time: with MVCC lock plans the whole
        read side completes while one long UPDATE on the *same* table
        is still holding its table lock; under the exclusive baseline
        everything serializes behind it."""
        setup = BANK_SCHEMA
        reads = ["SELECT bal FROM accounts WHERE id = 1"]
        write = "UPDATE accounts SET bal = bal + 1"
        pinned = dict(reader_service=[1e-3], writer_service=1.0,
                      readers=8, loops=5)
        mvcc = run_lock_experiment(
            setup, reads, write, lock_mode="shared", **pinned
        )
        serial = run_lock_experiment(
            setup, reads, write, lock_mode="exclusive", **pinned
        )
        # every reader finished while the writer still held its lock
        assert mvcc.readers_overlapped_writer
        assert mvcc.makespan < mvcc.writer_service
        # the exclusive baseline parks all reads behind the writer
        assert not serial.readers_overlapped_writer
        assert serial.makespan > serial.writer_service
        assert mvcc.speedup_vs(serial) >= 4.0
        assert mvcc.statements == serial.statements == 40
