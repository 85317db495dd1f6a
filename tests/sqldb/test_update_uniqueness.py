"""UPDATE keeps PRIMARY KEY and UNIQUE, as InnoDB does: row by row in
target order, each new image checked against the latest state with the
earlier targets' new images in place.  A statement that fails changes
zero rows, is logged ``failed`` and fails again on replay.  So does
the update ON DUPLICATE KEY UPDATE makes.  Every case runs on both row
stores (see ``conftest.backend``).
"""

import pytest

from repro.benchlab.crashsweep import state_digest, verify_index_consistency
from repro.net.client import NetClient
from repro.net.server import NetServer
from repro.sqldb import wal
from repro.sqldb.connection import Connection

SCHEMA = ("CREATE TABLE t (id INT PRIMARY KEY, u VARCHAR(5) UNIQUE, v INT);"
          "INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20), (3, 'c', 30)")

ORIGINAL = [(1, "a", 10), (2, "b", 20), (3, "c", 30)]


def _rows(conn):
    return conn.query_or_raise("SELECT id, u, v FROM t ORDER BY id").rows


class TestUpdateUniqueness(object):
    storage = "memory"

    @pytest.fixture
    def conn(self, backend):
        database = backend.recover()
        database.seed(SCHEMA)
        return Connection(database)

    @pytest.mark.parametrize("sql", [
        "UPDATE t SET id = 2 WHERE id = 1",
        "UPDATE t SET u = 'c' WHERE id = 2",
        # ascending: the first target's new key is the second's old one
        "UPDATE t SET id = id + 1",
        # two targets claim one new key
        "UPDATE t SET u = 'z'",
        "UPDATE t SET id = 3, v = 0 WHERE id < 3",
    ])
    def test_a_duplicate_key_fails_and_changes_nothing(self, conn, sql):
        outcome = conn.query(sql)
        assert outcome.error is not None and outcome.error.errno == 1062
        assert _rows(conn) == ORIGINAL
        assert verify_index_consistency(conn.database) == []

    @pytest.mark.parametrize("sql, expected", [
        # descending: each key is freed before the next target takes it
        ("UPDATE t SET id = id + 1 ORDER BY id DESC",
         [(2, "a", 10), (3, "b", 20), (4, "c", 30)]),
        ("UPDATE t SET u = NULL",
         [(1, None, 10), (2, None, 20), (3, None, 30)]),
        ("UPDATE t SET u = 'a' WHERE id = 1", ORIGINAL),
        ("UPDATE t SET v = 0 WHERE id < 3",
         [(1, "a", 0), (2, "b", 0), (3, "c", 30)]),
    ])
    def test_an_update_that_keeps_keys_distinct_succeeds(self, conn, sql,
                                                         expected):
        conn.query_or_raise(sql)
        assert _rows(conn) == expected
        assert verify_index_consistency(conn.database) == []

    def test_a_key_an_earlier_target_vacated_is_free(self, conn):
        conn.query_or_raise("DELETE FROM t WHERE id = 1")
        conn.query_or_raise("UPDATE t SET id = id - 1, u = NULL "
                            "WHERE id > 1 ORDER BY id")
        conn.query_or_raise("UPDATE t SET u = 'c' WHERE id = 1")
        assert _rows(conn) == [(1, "c", 20), (2, None, 30)]
        assert verify_index_consistency(conn.database) == []

    def test_inside_a_transaction_only_the_statement_fails(self, conn):
        conn.query_or_raise("BEGIN")
        conn.query_or_raise("UPDATE t SET v = 99 WHERE id = 3")
        assert conn.query("UPDATE t SET id = id + 1").error.errno == 1062
        conn.query_or_raise("COMMIT")
        assert _rows(conn) == ORIGINAL[:2] + [(3, "c", 99)]

    def test_a_failed_update_is_logged_failed_and_replays(self, backend):
        database = backend.recover()
        database.seed(SCHEMA)
        conn = Connection(database)
        assert conn.query("UPDATE t SET id = id + 1").error.errno == 1062
        conn.query_or_raise("UPDATE t SET v = v + 1 WHERE id = 1")
        records = wal.scan_log(wal.log_path(database.data_dir)).records
        failed = [record.sql for record in records if record.failed]
        assert len(failed) == 1 and failed[0].startswith("UPDATE")
        live = state_digest(database)
        database.close()
        recovered = backend.recover()
        assert state_digest(recovered) == live
        assert _rows(Connection(recovered)) == [(1, "a", 11)] + ORIGINAL[1:]

    def test_a_set_list_without_keys_never_probes(self, conn, monkeypatch):
        table = conn.database.table("t")

        def refuse(values):
            raise AssertionError("probed %r" % (values,))

        monkeypatch.setattr(table, "_unique_matches", refuse)
        conn.query_or_raise("UPDATE t SET v = v + 1")
        assert [row[2] for row in _rows(conn)] == [11, 21, 31]


class TestUpdateUniquenessPaged(TestUpdateUniqueness):
    storage = "paged"


def _logged(database):
    return [(record.lsn, record.sql) for record in
            wal.scan_log(wal.log_path(database.data_dir)).records]


class TestKeyVacatedByAPendingUpdate(object):
    """A's pending ``UPDATE t SET id = 5 WHERE id = 1`` has not vacated
    key 1 for anyone else: its ROLLBACK brings the row back.  B's
    write of key 1 is refused retryably (1213, nothing changed, nothing
    logged); after A's ROLLBACK the retry is a duplicate, after A's
    COMMIT it succeeds.  Live and recovered state agree in every case."""

    storage = "memory"

    @pytest.mark.parametrize("sql, after_rollback", [
        ("INSERT INTO t VALUES (1, 'x', 99)", 1062),
        # REPLACE deletes whatever holds the key: the restored row
        ("REPLACE INTO t VALUES (1, 'x', 99)", None),
        ("UPDATE t SET id = 1 WHERE id = 2", 1062),
    ])
    @pytest.mark.parametrize("end", ["ROLLBACK", "COMMIT"])
    def test_a_key_a_pending_update_vacated_stays_held(
            self, backend, sql, after_rollback, end):
        database = backend.recover()
        database.seed(SCHEMA)
        a, b = Connection(database), Connection(database)
        a.query_or_raise("BEGIN")
        a.query_or_raise("UPDATE t SET id = 5 WHERE id = 1")
        before = _logged(database)
        assert b.query(sql).error.errno == 1213
        assert _logged(database) == before
        a.query_or_raise(end)
        if end == "ROLLBACK":
            assert _rows(b) == ORIGINAL
        retry = b.query(sql)
        if end == "ROLLBACK" and after_rollback is not None:
            assert retry.error.errno == after_rollback
            assert _rows(b) == ORIGINAL
        else:
            assert retry.error is None
        ids = [row[0] for row in _rows(b)]
        assert len(ids) == len(set(ids))
        assert verify_index_consistency(database) == []
        live = state_digest(database)
        database.close()
        assert state_digest(backend.recover()) == live

    def test_a_key_its_own_transaction_vacated_is_free(self, backend):
        database = backend.recover()
        database.seed(SCHEMA)
        a = Connection(database)
        a.query_or_raise("BEGIN")
        a.query_or_raise("UPDATE t SET id = 5 WHERE id = 1")
        a.query_or_raise("INSERT INTO t VALUES (1, 'x', 99)")
        a.query_or_raise("COMMIT")
        assert _rows(a) == [(1, "x", 99), (2, "b", 20), (3, "c", 30),
                            (5, "a", 10)]
        live = state_digest(database)
        database.close()
        assert state_digest(backend.recover()) == live


class TestKeyVacatedByAPendingUpdatePaged(TestKeyVacatedByAPendingUpdate):
    storage = "paged"


ODKU_SCHEMA = ("CREATE TABLE t (id INT PRIMARY KEY, v INT);"
               "INSERT INTO t VALUES (1, 10), (2, 20)")


def _run_odku(database, entry_point, key, value, new_key):
    """``INSERT INTO t VALUES (key, value) ON DUPLICATE KEY UPDATE
    id = new_key`` through *entry_point*; returns the outcome."""
    sql = "INSERT INTO t VALUES (%d, %d) ON DUPLICATE KEY UPDATE id = %d"
    if entry_point == "query":
        return Connection(database).query(sql % (key, value, new_key))
    if entry_point == "execute_prepared":
        conn = Connection(database)
        handle = conn.prepare(sql.replace("%d", "?"))
        return conn.execute_prepared(handle, key, value, new_key)
    server = NetServer(database)
    server.start()
    try:
        with NetClient(server.host, server.port) as client:
            return client.query(sql % (key, value, new_key))
    finally:
        server.stop()


class TestOnDuplicateKeyUpdateKeepsKeys(object):
    """ON DUPLICATE KEY UPDATE updates the row it collided with as an
    UPDATE would, keys included.  With rows (1, 10) and (2, 20), moving
    row 1's key onto 2 is a duplicate: refused with 1062 before anything
    changes, the record of it (if any) marked failed, and the recovered
    table is the live one — by ``query``, ``execute_prepared`` and over
    the wire, on both row stores (before, the statement succeeded and
    left two rows with id 2, and recovery replayed them)."""

    storage = "memory"

    @pytest.mark.parametrize("entry_point",
                             ["query", "execute_prepared", "wire"])
    def test_a_key_moved_onto_another_rows_is_refused(self, backend,
                                                      entry_point):
        database = backend.recover()
        database.seed(ODKU_SCHEMA)
        log = wal.log_path(database.data_dir)
        held = len(wal.scan_log(log).records)
        outcome = _run_odku(database, entry_point, 1, 99, 2)
        assert outcome.error is not None and outcome.error.errno == 1062
        assert all(record.failed
                   for record in wal.scan_log(log).records[held:])
        conn = Connection(database)
        rows = conn.query_or_raise("SELECT id, v FROM t ORDER BY id").rows
        assert rows == [(1, 10), (2, 20)]
        assert verify_index_consistency(database) == []
        live = state_digest(database)
        database.close()
        assert state_digest(backend.recover()) == live

    @pytest.mark.parametrize("entry_point",
                             ["query", "execute_prepared", "wire"])
    def test_a_key_moved_onto_a_free_value_is_updated(self, backend,
                                                      entry_point):
        database = backend.recover()
        database.seed(ODKU_SCHEMA)
        outcome = _run_odku(database, entry_point, 1, 99, 3)
        assert outcome.error is None and outcome.affected_rows == 2
        conn = Connection(database)
        rows = conn.query_or_raise("SELECT id, v FROM t ORDER BY id").rows
        assert rows == [(2, 20), (3, 10)]
        live = state_digest(database)
        database.close()
        assert state_digest(backend.recover()) == live


class TestOnDuplicateKeyUpdateKeepsKeysPaged(
        TestOnDuplicateKeyUpdateKeepsKeys):
    storage = "paged"
