"""The key rule: PRIMARY KEY and UNIQUE compare as the engine's ``=``.

``SELECT 'a' = 'A'`` is 1, and so is ``'it’s' = 'it''s'``: comparison
folds case and unicode confusables (``types.sort_key``).  A key column
folds the same way, as MySQL's ``_ci`` collations do, so a second row
whose key equals a held one under ``=`` is a duplicate (1062) — on
INSERT, on UPDATE, and ON DUPLICATE KEY UPDATE updates the row it
equals.  The same equality decides when a key is held by another
transaction's pending DELETE or pending key-moving UPDATE.  Every case
runs by ``query``, prepared and over the wire, on both row stores, and
the recovered database is the live one.

Also here: a multi-row INSERT whose later row meets a key another
transaction's pending UPDATE moved fails with the retryable 1213, and
the rows it wrote before are taken back, logged nowhere.
"""

import pytest

from repro.benchlab.crashsweep import state_digest, verify_index_consistency
from repro.net.client import NetClient
from repro.net.server import NetServer
from repro.sqldb import wal
from repro.sqldb.connection import Connection

SCHEMA = "CREATE TABLE p (k VARCHAR(10) PRIMARY KEY, v INT)"
#: a confusable (U+2019) reaches a row through a parameter: in a query
#: text the charset step folds it before the lexer sees the literal
CURLY = "it’s"
HELD = [("alice", 1), (CURLY, 2)]


def _literal(value):
    if isinstance(value, str):
        return "'%s'" % value.replace("'", "''")
    return str(value)


class _EntryPoint(object):
    """Runs a statement with ``?`` parameters through one entry point:
    inlined as literals for ``query`` and the wire, bound for
    ``prepared``."""

    def __init__(self, database, kind):
        self.kind = kind
        self.conn = Connection(database)
        self.server = self.client = None
        if kind == "wire":
            self.server = NetServer(database)
            self.server.start()
            self.client = NetClient(self.server.host, self.server.port)

    def run(self, sql, *params):
        if self.kind == "prepared":
            handle = self.conn.prepare(sql)
            return self.conn.execute_prepared(handle, *params)
        for value in params:
            sql = sql.replace("?", _literal(value), 1)
        if self.kind == "wire":
            return self.client.query(sql)
        return self.conn.query(sql)

    def close(self):
        if self.client is not None:
            self.client.close()
            self.server.stop()


def _rows(database):
    return Connection(database).query_or_raise(
        "SELECT k, v FROM p ORDER BY v").rows


class TestKeysFoldAsEquals(object):
    storage = "memory"

    @pytest.fixture(params=["query", "prepared", "wire"])
    def session(self, request, backend):
        database = backend.recover()
        database.seed(SCHEMA)
        seeder = Connection(database)
        handle = seeder.prepare("INSERT INTO p VALUES (?, ?)")
        for key, value in HELD:
            seeder.execute_prepared(handle, key, value)
        entry = _EntryPoint(database, request.param)
        yield database, entry
        entry.close()

    def _unchanged_and_recovers(self, backend, database):
        assert _rows(database) == HELD
        assert verify_index_consistency(database) == []
        live = state_digest(database)
        database.close()
        assert state_digest(backend.recover()) == live

    @pytest.mark.parametrize("key", ["ALICE", "Alice", "it's", "IT'S"])
    def test_an_insert_of_a_folded_key_is_a_duplicate(self, backend,
                                                      session, key):
        database, entry = session
        outcome = entry.run("INSERT INTO p VALUES (?, ?)", key, 9)
        assert outcome.error is not None and outcome.error.errno == 1062
        held = 1 if key.lower() == "alice" else 2
        assert entry.run("SELECT v FROM p WHERE k = ?", key).rows \
            == [(held,)]
        self._unchanged_and_recovers(backend, database)

    @pytest.mark.parametrize("key, where", [("ALICE", 2), ("It's", 1)])
    def test_an_update_onto_a_folded_key_is_a_duplicate(self, backend,
                                                        session, key, where):
        database, entry = session
        outcome = entry.run("UPDATE p SET k = ? WHERE v = ?", key, where)
        assert outcome.error is not None and outcome.error.errno == 1062
        self._unchanged_and_recovers(backend, database)

    def test_on_duplicate_key_update_finds_the_folded_row(self, backend,
                                                          session):
        database, entry = session
        outcome = entry.run("INSERT INTO p VALUES (?, ?) "
                            "ON DUPLICATE KEY UPDATE v = v + 100", "Alice", 9)
        assert outcome.error is None and outcome.affected_rows == 2
        outcome = entry.run("INSERT INTO p VALUES (?, ?) "
                            "ON DUPLICATE KEY UPDATE v = v + 100", "IT'S", 9)
        assert outcome.error is None and outcome.affected_rows == 2
        assert _rows(database) == [("alice", 101), (CURLY, 102)]
        live = state_digest(database)
        database.close()
        assert state_digest(backend.recover()) == live

    def test_an_update_within_the_fold_keeps_its_own_key(self, backend,
                                                         session):
        database, entry = session
        outcome = entry.run("UPDATE p SET k = ? WHERE v = ?", "Alice", 1)
        assert outcome.error is None and outcome.affected_rows == 1
        assert entry.run("SELECT k FROM p WHERE k = ?", "ALICE").rows \
            == [("Alice",)]


class TestKeysFoldAsEqualsPaged(TestKeysFoldAsEquals):
    storage = "paged"


class TestPendingKeysFoldAsEquals(object):
    """A key another open transaction holds by a pending DELETE (1062)
    or has moved by a pending UPDATE (1213) is held under ``=`` too."""

    storage = "memory"

    @pytest.mark.parametrize("pending, errno", [
        ("DELETE FROM p WHERE k = 'alice'", 1062),
        ("UPDATE p SET k = 'bob' WHERE k = 'alice'", 1213),
    ])
    def test_a_folded_key_is_held_while_pending(self, backend, pending,
                                                errno):
        database = backend.recover()
        database.seed(SCHEMA + "; INSERT INTO p VALUES ('alice', 1)")
        a, b = Connection(database), Connection(database)
        a.query_or_raise("BEGIN")
        a.query_or_raise(pending)
        assert b.query("INSERT INTO p VALUES ('ALICE', 9)").error.errno \
            == errno
        a.query_or_raise("ROLLBACK")
        assert _rows(database) == [("alice", 1)]
        live = state_digest(database)
        database.close()
        assert state_digest(backend.recover()) == live


class TestPendingKeysFoldAsEqualsPaged(TestPendingKeysFoldAsEquals):
    storage = "paged"


class TestAMovedKeyMetByALaterRow(object):
    """The moved-key check runs in ``Table.insert``, on the row that
    meets the key: a multi-row INSERT fails there with 1213, and
    statement rollback takes back the rows it stored before, so the
    statement leaves nothing and logs nothing.  After the other
    transaction commits, the retry succeeds."""

    storage = "memory"

    @pytest.mark.parametrize("sql", [
        "INSERT INTO t VALUES (7, 70), (1, 99)",
        "REPLACE INTO t VALUES (7, 70), (1, 99)",
        "INSERT INTO t VALUES (7, 70), (1, 99) "
        "ON DUPLICATE KEY UPDATE v = 0",
    ])
    def test_the_statement_leaves_nothing(self, backend, sql):
        database = backend.recover()
        database.seed("CREATE TABLE t (id INT PRIMARY KEY, v INT);"
                      "INSERT INTO t VALUES (1, 10), (2, 20)")
        a, b = Connection(database), Connection(database)
        a.query_or_raise("BEGIN")
        a.query_or_raise("UPDATE t SET id = 5 WHERE id = 1")
        log = wal.log_path(database.data_dir)
        held = len(wal.scan_log(log).records)
        assert b.query(sql).error.errno == 1213
        assert len(wal.scan_log(log).records) == held
        assert b.query_or_raise("SELECT id, v FROM t ORDER BY id").rows \
            == [(1, 10), (2, 20)]
        a.query_or_raise("COMMIT")
        b.query_or_raise(sql)
        assert b.query_or_raise("SELECT id, v FROM t ORDER BY id").rows \
            == [(1, 99), (2, 20), (5, 10), (7, 70)]
        assert verify_index_consistency(database) == []
        live = state_digest(database)
        database.close()
        assert state_digest(backend.recover()) == live


class TestAMovedKeyMetByALaterRowPaged(TestAMovedKeyMetByALaterRow):
    storage = "paged"
