"""ROLLBACK undoes the transaction's own row versions, by rowid — and
nothing else.

A transaction used to be a BEGIN-time copy of every table, written back
over the live tables by ROLLBACK: whatever another session had
committed (and been acknowledged for) in between was erased from the
live state while the WAL kept it, so a replica or a restart disagreed
with the primary.  Every case here has a second session at work while
the first one's transaction is open; every case runs on both row stores
(see ``conftest.backend``).
"""

import shutil
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.benchlab.crashsweep import (
    MarkerSeptic,
    state_digest,
    verify_index_consistency,
)
from repro.net.client import NetClient
from repro.net.server import NetServer
from repro.replica import ReplicaSet
from repro.sqldb.btree import Row
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database

SCHEMA = (
    "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(8));"
    "CREATE INDEX idx_v ON t (v);"
    "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z');"
)

#: what session A does inside its transaction, by case
A_WRITES = {
    "insert": ["INSERT INTO t VALUES (4, 'a')"],
    "update": ["UPDATE t SET v = 'A' WHERE k = 1"],
    "delete": ["DELETE FROM t WHERE k = 2"],
    "reinsert": ["DELETE FROM t WHERE k = 3",
                 "INSERT INTO t VALUES (3, 'again')",
                 "UPDATE t SET v = 'twice' WHERE k = 3"],
}


def _rows(conn, table="t"):
    return conn.query_or_raise("SELECT * FROM %s ORDER BY k" % table).rows


def _recovered_digest(backend, database, name):
    database.close()
    return state_digest(backend.recover(name))


class TestRollbackSparesOtherSessions(object):
    @pytest.mark.parametrize("case", sorted(A_WRITES))
    def test_two_session_script(self, backend, case):
        database = backend.recover("undo")
        database.seed(SCHEMA)
        a, b, c = (Connection(database) for _ in range(3))
        a.query_or_raise("BEGIN")
        for sql in A_WRITES[case]:
            a.query_or_raise(sql)
        # B commits (and is acknowledged), C leaves a row pending
        b.query_or_raise("INSERT INTO t VALUES (10, 'b')")
        b.query_or_raise("UPDATE t SET v = 'B' WHERE k = %d"
                         % (2 if case != "delete" else 1))
        c.query_or_raise("BEGIN")
        c.query_or_raise("INSERT INTO t VALUES (20, 'c')")
        backend.churn(database)
        a.query_or_raise("ROLLBACK")

        survivors = {1: "x", 2: "y", 3: "z", 10: "b"}
        survivors[2 if case != "delete" else 1] = "B"
        assert dict(_rows(b)) == survivors
        assert dict(_rows(a)) == survivors
        assert dict(_rows(c)) == {**survivors, 20: "c"}
        assert verify_index_consistency(database) == []
        c.query_or_raise("COMMIT")
        assert dict(_rows(b)) == {**survivors, 20: "c"}
        assert verify_index_consistency(database) == []
        live = state_digest(database)
        assert _recovered_digest(backend, database, "undo") == live

    def test_a_key_stays_taken_while_its_delete_is_pending(self, backend):
        database = backend.recover("undo")
        database.seed(SCHEMA)
        a, b = Connection(database), Connection(database)
        a.query_or_raise("BEGIN")
        a.query_or_raise("DELETE FROM t WHERE k = 3")
        # A's ROLLBACK would re-admit k=3 beside B's: refused up front
        assert b.query("INSERT INTO t VALUES (3, 'mine')").error.errno == 1062
        # A itself may reuse the key it freed
        a.query_or_raise("INSERT INTO t VALUES (3, 'own')")
        a.query_or_raise("ROLLBACK")
        assert _rows(b) == [(1, "x"), (2, "y"), (3, "z")]
        b.query_or_raise("DELETE FROM t WHERE k = 3")
        b.query_or_raise("INSERT INTO t VALUES (3, 'mine')")
        assert verify_index_consistency(database) == []
        live = state_digest(database)
        assert _recovered_digest(backend, database, "undo") == live

    def test_auto_increment_rewinds_only_past_its_own_inserts(self, backend):
        database = backend.recover("undo")
        database.seed("CREATE TABLE s (k INT PRIMARY KEY AUTO_INCREMENT, "
                      "v VARCHAR(8)); INSERT INTO s (v) VALUES ('one')")
        a, b = Connection(database), Connection(database)
        a.query_or_raise("BEGIN")
        a.query_or_raise("INSERT INTO s (v) VALUES ('ghost')")      # 2
        b.query_or_raise("INSERT INTO s (k, v) VALUES (3, 'b')")
        a.query_or_raise("INSERT INTO s (v) VALUES ('ghost')")      # 4
        a.query_or_raise("INSERT INTO s (k, v) VALUES (9, 'ghost')")
        a.query_or_raise("ROLLBACK")
        # 9 and 4 were the newest inserts and are forgotten; 2 was
        # followed by B's 3, which recovery replays — the counter stops
        # there on both sides
        assert database.table("s")._auto_counter == 3
        b.query_or_raise("INSERT INTO s (v) VALUES ('next')")
        assert _rows(b, "s") == [(1, "one"), (3, "b"), (4, "next")]
        live = state_digest(database)
        assert _recovered_digest(backend, database, "undo") == live

    def test_begin_and_rollback_do_work_in_proportion_to_the_write_set(
            self, backend, tmp_path, monkeypatch):
        # 2 000 rows: a three-level tree on paged storage, 10x the pool
        kwargs = {}
        if backend.storage == "paged":
            kwargs = dict(storage="paged", page_size=1024, pool_pages=8)
        database = Database.recover(str(tmp_path / "big"), **kwargs)
        backend._opened.append(database)
        database.seed("CREATE TABLE big (k INT PRIMARY KEY, v INT)")
        conn = Connection(database)
        for start in range(0, 2000, 250):
            conn.query_or_raise("INSERT INTO big VALUES " + ", ".join(
                "(%d, %d)" % (k, k % 7) for k in range(start, start + 250)))
        clones = []
        clone = Row.clone
        monkeypatch.setattr(
            Row, "clone", lambda row: clones.append(row.rowid) or clone(row))

        def counters():
            stats = database.storage_stats()
            return (database.lock_manager.stats()["write_acquires"],
                    stats["pager"]["reads"] if stats else 0, len(clones))

        backend.churn(database)
        before = counters()
        conn.query_or_raise("BEGIN")
        assert counters() == before

        conn.query_or_raise("INSERT INTO big VALUES (5000, 1)")
        conn.query_or_raise("UPDATE big SET v = 99 WHERE k = 10")
        conn.query_or_raise("DELETE FROM big WHERE k = 20")
        table = database.table("big")
        touched = []
        revert = table.store.revert
        monkeypatch.setattr(
            table.store, "revert",
            lambda rowid, row: touched.append(rowid) or revert(rowid, row))
        before = counters()
        conn.query_or_raise("ROLLBACK")
        assert len(touched) == len(set(touched)) == 3
        after = counters()
        assert after[0] == before[0] + 1    # one catalog acquisition
        assert after[1:] == before[1:]      # no page read, no row copied
        assert len(table) == 2000
        assert verify_index_consistency(database) == []

    def test_rollback_of_a_transaction_that_never_wrote_takes_no_lock(
            self, backend):
        database = backend.recover("undo")
        database.seed(SCHEMA)
        conn = Connection(database)
        conn.query_or_raise("BEGIN")
        conn.query_or_raise("SELECT * FROM t")
        before = database.lock_manager.stats()["write_acquires"]
        first = database.durable_lsn
        conn.query_or_raise("ROLLBACK")
        assert database.lock_manager.stats()["write_acquires"] == before
        assert database.durable_lsn == first + 1    # the marker

    def test_blocked_statement_then_rollback_spares_the_others(
            self, backend):
        database = backend.recover("undo")
        database.septic = septic = MarkerSeptic()
        database.seed(SCHEMA)
        a, b = Connection(database), Connection(database)
        a.query_or_raise("BEGIN")
        a.query_or_raise("UPDATE t SET v = 'tx' WHERE k = 1")
        b.query_or_raise("INSERT INTO t VALUES (10, 'b')")
        blocked = a.query("UPDATE t SET v = '%s' WHERE k >= 0"
                          % MarkerSeptic.MARKER)
        assert not blocked.ok and septic.blocked == 1
        a.query_or_raise("ROLLBACK")    # what a handler does on failure
        assert _rows(b) == [(1, "x"), (2, "y"), (3, "z"), (10, "b")]
        assert septic.blocked == 1
        live = state_digest(database)
        assert _recovered_digest(backend, database, "undo") == live


class TestRollbackSparesOtherSessionsPaged(TestRollbackSparesOtherSessions):
    storage = "paged"


def test_replica_converges_after_a_rollback_beside_a_commit(tmp_path):
    replica_set = ReplicaSet(str(tmp_path / "set"), replicas=1,
                             heartbeat_interval=2)
    primary = replica_set.primary.database
    primary.seed(SCHEMA)
    a, b = Connection(primary), Connection(primary)
    for case in sorted(A_WRITES):
        a.query_or_raise("BEGIN")
        for sql in A_WRITES[case]:
            a.query_or_raise(sql)
        b.query_or_raise("INSERT INTO t VALUES (%d, 'b')"
                         % (10 + len(_rows(b))))
        a.query_or_raise("ROLLBACK")
    replica_set.tick(2 * replica_set.heartbeat_interval)
    (replica,) = replica_set.replicas()
    assert len(_rows(b)) == 3 + len(A_WRITES)
    assert state_digest(replica.database) == state_digest(primary)
    replica_set.close()


def test_rollbacks_beside_commits_on_real_threads(tmp_path):
    """More writers than cores, a shortened switch interval: every
    thread's rolled-back rows are gone, every committed or autocommit
    row of every thread is there — live and after recovery."""
    database = Database.recover(str(tmp_path / "threads"), wal_sync="off")
    database.seed("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    rounds, errors = 25, []
    deadline = time.monotonic() + 60.0

    def writer(who):
        conn = Connection(database, retries=50)
        try:
            for n in range(rounds):
                assert time.monotonic() < deadline, "timed out"
                key = who * 1000 + 2 * n
                conn.query_or_raise("BEGIN")
                conn.query_or_raise("INSERT INTO t VALUES (%d, 0)" % key)
                conn.query_or_raise(
                    "UPDATE t SET v = v + 1 WHERE k = %d" % key)
                conn.query_or_raise("COMMIT" if n % 2 else "ROLLBACK")
                conn.query_or_raise(
                    "INSERT INTO t VALUES (%d, 7)" % (key + 1))
        except Exception as exc:    # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(who,))
               for who in range(1, 5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    expected = sorted(
        [(who * 1000 + 2 * n + 1, 7)
         for who in range(1, 5) for n in range(rounds)]
        + [(who * 1000 + 2 * n, 1)
           for who in range(1, 5) for n in range(rounds) if n % 2])
    assert _rows(Connection(database)) == expected
    assert verify_index_consistency(database) == []
    assert not database.in_transaction
    database.close()
    recovered = Database.recover(str(tmp_path / "threads"))
    assert _rows(Connection(recovered)) == expected
    recovered.close()


# -- over the wire -----------------------------------------------------


def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


@pytest.fixture
def served(tmp_path):
    database = Database.recover(str(tmp_path / "served"),
                                septic=MarkerSeptic())
    database.seed(SCHEMA)
    server = NetServer(database)
    server.start()
    yield database, server
    server.stop()
    database.close()


class TestOverTheWire(object):
    @pytest.mark.parametrize("leave", ["quit", "reset", "stop"])
    def test_session_is_released(self, served, leave):
        database, server = served
        client = NetClient(server.host, server.port)
        client.query_or_raise("BEGIN")
        client.query_or_raise("INSERT INTO t VALUES (4, 'a')")
        assert database.in_transaction
        assert database.checkpoint() is None    # held back, as it must be
        if leave == "quit":
            client.close()
        elif leave == "reset":
            # no COM_QUIT, and mid-frame: a torn header, then a reset
            client._sock.sendall(b"\x07\x00")
            client._sock.close()
        else:
            server.stop()
            client.close()
        _until(lambda: not database.in_transaction)
        if leave == "stop":
            server = NetServer(database)
            server.start()
        try:
            with NetClient(server.host, server.port) as second:
                assert second.query_or_raise(
                    "SELECT k FROM t ORDER BY k").rows == [(1,), (2,), (3,)]
                second.query_or_raise("INSERT INTO t VALUES (4, 'mine')")
        finally:
            server.stop()
        assert database.checkpoint() is not None

    def test_blocked_statement_then_rollback_over_the_wire(self, served):
        database, server = served
        with NetClient(server.host, server.port) as a, \
                NetClient(server.host, server.port) as b:
            a.query_or_raise("BEGIN")
            a.query_or_raise("UPDATE t SET v = 'tx' WHERE k = 1")
            b.query_or_raise("INSERT INTO t VALUES (10, 'b')")
            blocked = a.query("UPDATE t SET v = '%s' WHERE k >= 0"
                              % MarkerSeptic.MARKER)
            assert blocked.error.blocked
            a.query_or_raise("ROLLBACK")
            assert b.query_or_raise("SELECT * FROM t ORDER BY k").rows == [
                (1, "x"), (2, "y"), (3, "z"), (10, "b")]
        assert database.septic.blocked == 1

    def test_connection_close_is_idempotent(self, served):
        database, _server = served
        conn = Connection(database)
        conn.prepare_statement("SELECT v FROM t WHERE k = ?")
        conn.query_or_raise("BEGIN")
        conn.query_or_raise("DELETE FROM t")
        conn.close()
        conn.close()
        assert not database.in_transaction and conn.open_statements == ()
        assert len(database.table("t")) == 3


# -- three sessions against a dict model -------------------------------

KEYS = st.integers(0, 4)
SESSIONS = st.integers(0, 2)
GONE = object()


class UndoMachine(RuleBasedStateMachine):
    """Three sessions interleave BEGIN / INSERT / UPDATE / DELETE /
    COMMIT / ROLLBACK on five keys; a dict model says what each of them
    must see and what a recovery of the log must rebuild.

    The WAL is statement-based and replays in commit order, so the
    machine only issues statements whose outcome cannot depend on what
    another open transaction does next: inside a transaction, ones that
    take effect (and so own the row until the end) or conflict (1213,
    no effect, not logged); in autocommit, anything on a key no other
    session has pending, plus the refusals a pending row causes.  Left
    out, because replay diverges on them whatever ROLLBACK does (open,
    see ROADMAP): an INSERT of a key another transaction has pending or
    inserted and deleted again, an UPDATE/DELETE of a row another
    transaction's pending delete hides, and inside a transaction any
    statement that fails or matches nothing.
    """

    storage = "memory"

    def __init__(self):
        super().__init__()
        self.workdir = tempfile.mkdtemp(prefix="undo-machine-")
        self.kwargs = {}
        if self.storage == "paged":
            self.kwargs = dict(storage="paged", page_size=512, pool_pages=4)
        self.database = Database.recover(self.workdir + "/live",
                                         **self.kwargs)
        self.database.seed("CREATE TABLE t (k INT PRIMARY KEY, v INT);"
                           "CREATE INDEX idx_v ON t (v)")
        self.conns = [Connection(self.database) for _ in range(3)]
        #: committed state, and the commit number each key last changed at
        self.committed = {}
        self.changed_at = {}
        self.commits = 0
        #: per session: None, or its snapshot / own writes / keys it
        #: inserted and deleted again / begin number
        self.open = [None, None, None]
        self.values = 0
        self.recoveries = 0

    def teardown(self):
        self.database.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- the model -------------------------------------------------------

    def _expect(self, who, op, key):
        """What the statement must do: "ok", "dup" (1062), "conflict"
        (1213), "noop" — or None for one the machine does not issue."""
        mine = self.open[who]
        theirs = [state["own"][key] for state in self.open
                  if state is not None and state is not mine
                  and key in state["own"]]
        if theirs:
            if theirs[0] is GONE:   # a pending delete elsewhere
                return "dup" if op == "insert" and mine is None else None
            return None if op == "insert" else "conflict"
        latest = self.committed.get(key, GONE)
        if mine is not None:
            latest = mine["own"].get(key, latest)
        if op == "insert":
            if any(state is not None and state is not mine
                   and key in state["freed"] for state in self.open):
                return None     # see the class docstring
            if latest is not GONE:
                return "dup" if mine is None else None
            # a key deleted under this snapshot's feet: the old row and
            # the new one would both be visible (as they are in any
            # snapshot-isolation engine without predicate locks)
            hidden = mine is None or key in mine["own"] \
                or key not in mine["snapshot"]
            return "ok" if hidden else None
        if latest is GONE:
            return "noop" if mine is None else None
        if (mine is not None and key not in mine["own"]
                and self.changed_at.get(key, 0) > mine["begun"]):
            return "conflict"       # first writer wins
        return "ok"

    def _write(self, who, op, key, sql):
        expected = self._expect(who, op, key)
        if expected is None:
            return
        outcome = self.conns[who].query(sql)
        if expected == "ok":
            assert outcome.ok and outcome.affected_rows == 1, outcome
            value = GONE if op == "delete" else self.values
            if self.open[who] is None:
                self._commit({key: value})
            elif value is GONE and key not in self.committed:
                del self.open[who]["own"][key]  # its own insert: no trace
                self.open[who]["freed"].add(key)
            else:
                self.open[who]["own"][key] = value
        elif expected == "noop":
            assert outcome.ok and outcome.affected_rows == 0, outcome
        else:
            assert outcome.error.errno == {"dup": 1062,
                                           "conflict": 1213}[expected]

    def _commit(self, own):
        self.commits += 1
        for key, value in own.items():
            self.changed_at[key] = self.commits
            if value is GONE:
                self.committed.pop(key, None)
            else:
                self.committed[key] = value

    def _view(self, who):
        state = self.open[who]
        if state is None:
            return self.committed
        view = {**state["snapshot"], **state["own"]}
        return {key: value for key, value in view.items()
                if value is not GONE}

    # -- the rules -------------------------------------------------------

    @rule(who=SESSIONS)
    def begin(self, who):
        if self.open[who] is not None:
            return
        self.conns[who].query_or_raise("BEGIN")
        self.open[who] = {"snapshot": dict(self.committed), "own": {},
                          "freed": set(), "begun": self.commits}

    @rule(who=SESSIONS, key=KEYS)
    def insert(self, who, key):
        self.values += 1
        self._write(who, "insert", key,
                    "INSERT INTO t VALUES (%d, %d)" % (key, self.values))

    @rule(who=SESSIONS, key=KEYS)
    def update(self, who, key):
        self.values += 1
        self._write(who, "update", key,
                    "UPDATE t SET v = %d WHERE k = %d" % (self.values, key))

    @rule(who=SESSIONS, key=KEYS)
    def delete(self, who, key):
        self._write(who, "delete", key, "DELETE FROM t WHERE k = %d" % key)

    @rule(who=SESSIONS, commit=st.booleans())
    def end(self, who, commit):
        state = self.open[who]
        if state is None:
            return
        self.conns[who].query_or_raise("COMMIT" if commit else "ROLLBACK")
        self.open[who] = None
        if commit:
            self._commit(state["own"])
        self._check_recovery()

    # -- the checks ------------------------------------------------------

    @invariant()
    def every_session_sees_its_own_view(self):
        for who, conn in enumerate(self.conns):
            assert sorted(conn.query_or_raise("SELECT k, v FROM t").rows) \
                == sorted(self._view(who).items()), who

    @invariant()
    def indexes_match_the_rows(self):
        assert verify_index_consistency(self.database) == []

    def _check_recovery(self):
        """A recovery of the log as it stands rebuilds exactly the
        committed state (the live tables also hold what is pending)."""
        self.recoveries += 1
        copy = "%s/copy-%d" % (self.workdir, self.recoveries)
        shutil.copytree(self.workdir + "/live", copy)
        recovered = Database.recover(copy, **self.kwargs)
        try:
            assert sorted(Connection(recovered).query_or_raise(
                "SELECT k, v FROM t").rows) == sorted(self.committed.items())
            assert verify_index_consistency(recovered) == []
        finally:
            recovered.close()
            shutil.rmtree(copy)


class PagedUndoMachine(UndoMachine):
    storage = "paged"


_MACHINE_SETTINGS = settings(max_examples=25, stateful_step_count=30,
                             deadline=None)
TestUndoMachine = UndoMachine.TestCase
TestUndoMachine.settings = _MACHINE_SETTINGS
TestUndoMachinePaged = PagedUndoMachine.TestCase
TestUndoMachinePaged.settings = _MACHINE_SETTINGS
