"""Incremental index maintenance: deltas, rollback restore, recovery.

The regression this file pins down: a transaction over an indexed table
must not cost an O(n) index rebuild — mutations inside the transaction
apply per-row deltas, and ROLLBACK applies the reverse deltas for the
rowids the transaction touched instead of invalidating the cache.  Every
case runs on both row stores (see ``conftest.backend``): the counters
are the table's, not a backend's.
"""

import pytest

from repro.benchlab.crashsweep import verify_index_consistency
from repro.sqldb.connection import Connection
from repro.sqldb.storage import Column


@pytest.fixture
def table(backend):
    table = backend.table("ledger", [
        Column("acct", "INT"),
        Column("amount", "INT"),
        Column("tag", "VARCHAR", length=10),
    ])
    for acct, amount, tag in ((1, 10, "a"), (2, 20, "b"), (1, 30, "c"),
                              (3, 40, None)):
        table.insert({"acct": acct, "amount": amount, "tag": tag})
    return table


class TestIncrementalDeltas(object):
    def test_insert_applies_delta_not_rebuild(self, table):
        assert len(table.index_lookup("acct", 1)) == 2
        stats = table.index_stats()
        assert stats["rebuilds"] == 1  # the initial build only
        table.insert({"acct": 1, "amount": 99, "tag": "z"})
        assert len(table.index_lookup("acct", 1)) == 3
        after = table.index_stats()
        assert after["rebuilds"] == 1
        assert after["incremental"] > stats["incremental"]

    def test_update_rebuckets_row(self, table):
        table.index_lookup("acct", 1)  # prime the index
        row = table.index_lookup("acct", 2)[0]
        # update_row installs a fresh version dict (MVCC) and returns it;
        # the caller's old reference keeps the pre-update image
        new_row = table.update_row(row, {"acct": 7})
        assert row["acct"] == 2
        assert table.index_lookup("acct", 2) == []
        assert table.index_lookup("acct", 7) == [new_row]
        assert table.index_stats()["rebuilds"] == 1

    def test_delete_removes_from_bucket(self, table):
        table.index_lookup("acct", 1)
        doomed = table.index_lookup("acct", 1)[:1]
        table.delete_rows(doomed)
        assert len(table.index_lookup("acct", 1)) == 1
        assert table.index_stats()["rebuilds"] == 1

    def test_truncate_empties_index(self, table):
        table.index_lookup("acct", 1)
        table.truncate()
        assert table.index_lookup("acct", 1) == []
        assert table.index_stats()["rebuilds"] == 1

    def test_touch_forces_rebuild(self, table):
        # mutations outside the Table API leave the index stale on
        # purpose; the version check catches it on the next lookup
        table.index_lookup("acct", 1)
        row = table.rows[0]
        row["acct"] = 9     # edits the stored image behind the API's back
        table.touch()
        assert table.index_lookup("acct", 9) == [row]
        assert table.index_stats()["rebuilds"] == 2

    def test_buckets_hold_rowids_in_scan_order(self, table):
        # an index probe returns rows in the order a filtered scan
        # would, whatever sequence of updates filled the bucket
        table.index_lookup("acct", 1)
        # out of bucket 1 and back in: last by history, first by rowid
        moved = table.update_row(table.rows[0], {"acct": 5})
        table.update_row(moved, {"acct": 1})
        assert [r["amount"] for r in table.index_lookup("acct", 1)] \
            == [r["amount"] for r in table.rows if r["acct"] == 1] \
            == [10, 30]
        assert table.index_stats()["rebuilds"] == 1


class TestIncrementalDeltasPaged(TestIncrementalDeltas):
    storage = "paged"


class TestRangeIndex(object):
    def test_between_bounds_inclusive(self, table):
        rows = table.index_range("amount", 20, 30)
        assert sorted(r["amount"] for r in rows) == [20, 30]

    def test_exclusive_bounds(self, table):
        rows = table.index_range("amount", 10, 40,
                                 low_inclusive=False,
                                 high_inclusive=False)
        assert sorted(r["amount"] for r in rows) == [20, 30]

    def test_open_range_skips_nulls(self, table):
        rows = table.index_range("tag")
        assert sorted(r["tag"] for r in rows) == ["a", "b", "c"]

    def test_rows_come_back_in_key_order(self, table):
        amounts = [r["amount"] for r in table.index_range("amount", 0, 99)]
        assert amounts == sorted(amounts)


class TestRangeIndexPaged(TestRangeIndex):
    storage = "paged"


@pytest.fixture
def bank(backend):
    database = backend.database(
        """
        CREATE TABLE accounts (
            id INT PRIMARY KEY AUTO_INCREMENT,
            owner VARCHAR(40),
            balance INT
        );
        CREATE INDEX idx_owner ON accounts (owner);
        INSERT INTO accounts (owner, balance) VALUES
            ('alice', 100), ('bob', 50), ('carol', 200);
        """
    )
    return database, Connection(database)


class TestRollbackRestoresIndexes(object):
    def test_rollback_restores_index_without_rebuild(self, bank):
        # the satellite regression: insert -> rollback -> lookups answer
        # from the same live structure, zero rebuilds
        database, conn = bank
        table = database.table("accounts")
        assert len(table.index_lookup("owner", "alice")) == 1
        primed = table.index_stats()["rebuilds"]

        conn.query_or_raise("BEGIN")
        conn.query_or_raise(
            "INSERT INTO accounts (owner, balance) VALUES ('mallory', 1)"
        )
        assert len(table.index_lookup("owner", "mallory")) == 1
        conn.query_or_raise("ROLLBACK")

        assert table.index_lookup("owner", "mallory") == []
        assert len(table.index_lookup("owner", "alice")) == 1
        after = table.index_stats()
        assert after["rebuilds"] == primed

    def test_rollback_restores_updated_buckets(self, bank):
        database, conn = bank
        table = database.table("accounts")
        table.index_lookup("owner", "bob")
        primed = table.index_stats()["rebuilds"]
        conn.query_or_raise("BEGIN")
        conn.query_or_raise(
            "UPDATE accounts SET owner = 'robert' WHERE owner = 'bob'"
        )
        conn.query_or_raise("ROLLBACK")
        assert len(table.index_lookup("owner", "bob")) == 1
        assert table.index_lookup("owner", "robert") == []
        assert table.index_stats()["rebuilds"] == primed

    def test_restored_index_stays_live_for_new_mutations(self, bank):
        database, conn = bank
        table = database.table("accounts")
        table.index_lookup("owner", "alice")
        conn.query_or_raise("BEGIN")
        conn.query_or_raise("DELETE FROM accounts WHERE owner = 'alice'")
        conn.query_or_raise("ROLLBACK")
        primed = table.index_stats()["rebuilds"]
        conn.query_or_raise(
            "INSERT INTO accounts (owner, balance) VALUES ('dave', 5)"
        )
        assert len(table.index_lookup("owner", "dave")) == 1
        assert table.index_stats()["rebuilds"] == primed


class TestRollbackRestoresIndexesPaged(TestRollbackRestoresIndexes):
    storage = "paged"


class TestRecoveryIndexConsistency(object):
    def test_post_recover_lookups_match_full_scan(self, backend):
        database = backend.recover("readings")
        conn = Connection(database)
        conn.query_or_raise(
            "CREATE TABLE readings (id INT PRIMARY KEY AUTO_INCREMENT,"
            " device VARCHAR(20), watts INT)"
        )
        conn.query_or_raise(
            "CREATE INDEX idx_device ON readings (device)"
        )
        for i in range(12):
            conn.query_or_raise(
                "INSERT INTO readings (device, watts) "
                "VALUES ('dev-%d', %d)" % (i % 3, i * 10)
            )
        conn.query_or_raise(
            "UPDATE readings SET watts = watts + 1 WHERE device = 'dev-1'"
        )
        conn.query_or_raise("DELETE FROM readings WHERE watts > 100")
        database.close()

        recovered = backend.recover("readings")
        table = recovered.table("readings")
        scan = sorted(r["id"] for r in table.rows
                      if r["device"] == "dev-1")
        via_index = sorted(
            r["id"] for r in table.index_lookup("device", "dev-1")
        )
        assert via_index == scan
        assert verify_index_consistency(recovered) == []


class TestRecoveryIndexConsistencyPaged(TestRecoveryIndexConsistency):
    storage = "paged"
