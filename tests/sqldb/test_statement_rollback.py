"""A failed statement leaves nothing behind, as InnoDB rolls back the
statement and not its transaction.  A multi-row INSERT whose later row
is a duplicate keeps none of its earlier rows; an ON DUPLICATE KEY
UPDATE that collides on a later row takes back the updates it already
made.  Under autocommit the table is as it was; inside a transaction
the transaction stays open where the statement began — its own earlier
writes included — and commits without the statement.  By ``query``,
``execute_prepared`` and the wire, on both row stores (see
``conftest.backend``), with live state equal to ``Database.recover``'s.
"""

import threading
import time

import pytest

from repro import faults
from repro.benchlab.crashsweep import state_digest, verify_index_consistency
from repro.net.client import NetClient
from repro.net.server import NetServer
from repro.sqldb.connection import Connection

SCHEMA = ("CREATE TABLE t (id INT PRIMARY KEY, v INT);"
          "INSERT INTO t VALUES (1, 10), (2, 20)")
ORIGINAL = [(1, 10), (2, 20)]

#: ``(sql with %d slots, values)``: each fails with 1062 on its last row
MULTI_ROW_INSERT = ("INSERT INTO t VALUES (%d, %d), (%d, %d)", (5, 50, 1, 99))
ODKU_LATER_ROW = ("INSERT INTO t VALUES (%d, %d), (%d, %d) "
                  "ON DUPLICATE KEY UPDATE id = 5", (1, 0, 2, 0))


class _Client(object):
    """One session through one entry point: ``run(template, values)``
    sends the statement with its values as literals (``query``, the
    wire) or as parameters of a prepared statement."""

    def __init__(self, database, entry_point):
        self.entry_point = entry_point
        self._server = None
        if entry_point == "wire":
            self._server = NetServer(database)
            self._server.start()
            self._session = NetClient(self._server.host, self._server.port)
        else:
            self._session = Connection(database)

    def run(self, template, values=()):
        if self.entry_point == "execute_prepared" and values:
            handle = self._session.prepare(template.replace("%d", "?"))
            return self._session.execute_prepared(handle, *values)
        return self._session.query(template % tuple(values))

    def rows(self):
        outcome = self.run("SELECT id, v FROM t ORDER BY id")
        assert outcome.error is None
        return [tuple(row) for row in outcome.rows]

    def close(self):
        self._session.close()
        if self._server is not None:
            self._server.stop()


ENTRY_POINTS = ["query", "execute_prepared", "wire"]


class TestAFailedStatementLeavesNothing(object):
    storage = "memory"

    @pytest.fixture(params=ENTRY_POINTS)
    def setup(self, request, backend):
        database = backend.recover()
        database.seed(SCHEMA)
        client = _Client(database, request.param)
        yield database, client
        client.close()

    def _check_recovers(self, backend, database):
        assert verify_index_consistency(database) == []
        live = state_digest(database)
        database.close()
        assert state_digest(backend.recover()) == live

    @pytest.mark.parametrize("statement", [MULTI_ROW_INSERT, ODKU_LATER_ROW],
                             ids=["multi-row", "on-duplicate"])
    def test_under_autocommit(self, backend, setup, statement):
        database, client = setup
        outcome = client.run(*statement)
        assert outcome.error is not None and outcome.error.errno == 1062
        assert client.rows() == ORIGINAL
        # the keys the statement took for a moment are free again
        assert client.run("INSERT INTO t VALUES (%d, %d)", (5, 55)).ok
        assert client.rows() == ORIGINAL + [(5, 55)]
        self._check_recovers(backend, database)

    @pytest.mark.parametrize("statement", [MULTI_ROW_INSERT, ODKU_LATER_ROW],
                             ids=["multi-row", "on-duplicate"])
    def test_inside_a_transaction(self, backend, setup, statement):
        database, client = setup
        assert client.run("BEGIN").ok
        # the transaction's own write before the statement survives it,
        # also where the statement updated the same row
        assert client.run("UPDATE t SET v = %d WHERE id = %d", (11, 1)).ok
        assert client.run("INSERT INTO t VALUES (%d, %d)", (7, 70)).ok
        outcome = client.run(*statement)
        assert outcome.error is not None and outcome.error.errno == 1062
        expected = [(1, 11), (2, 20), (7, 70)]
        assert client.rows() == expected
        assert client.run("INSERT INTO t VALUES (%d, %d)", (8, 80)).ok
        assert client.run("COMMIT").ok
        assert client.rows() == expected + [(8, 80)]
        self._check_recovers(backend, database)

    def test_a_rolled_back_transaction_keeps_nothing(self, backend, setup):
        database, client = setup
        assert client.run("BEGIN").ok
        assert client.run("INSERT INTO t VALUES (%d, %d)", (7, 70)).ok
        assert client.run(*MULTI_ROW_INSERT).error.errno == 1062
        assert client.run("ROLLBACK").ok
        assert client.rows() == ORIGINAL
        self._check_recovers(backend, database)


class TestAFailedStatementLeavesNothingPaged(
        TestAFailedStatementLeavesNothing):
    storage = "paged"


# -- a second session queued behind the failing statement ---------------------

#: how long a schedule waits for a thread to reach its next point
_BOUND = 5.0


class _Park(object):
    """A fault plan that parks the thread named *name* at its first
    ``operator.next`` (for DML: its locks are taken, nothing is written
    yet) until :meth:`release`; every other firing passes."""

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


def _wait_for(predicate):
    deadline = time.monotonic() + _BOUND
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.001)


def _queued_behind(database, failing_sql, queued_sql):
    """Run *failing_sql* on a thread parked holding table ``t``, queue
    *queued_sql* from a second session on the same table, then let the
    first go on and fail.  Returns both outcomes."""
    park = _Park("failing")
    outcomes = {}

    def run(name, sql):
        with Connection(database) as conn:
            outcomes[name] = conn.query(sql)

    failing = threading.Thread(target=run, name="failing",
                               args=("failing", failing_sql))
    queued = threading.Thread(target=run, args=("queued", queued_sql))
    table_lock = database.lock_manager.table_lock("t")
    with faults.armed(park):
        try:
            failing.start()
            assert park.parked.wait(_BOUND)
            queued.start()
            _wait_for(lambda: table_lock.state_dict()["writers_waiting"])
        finally:
            park.release()
            failing.join(_BOUND)
            queued.join(_BOUND)
    assert not failing.is_alive() and not queued.is_alive()
    return outcomes["failing"], outcomes["queued"]


class TestAQueuedWriterMeetsNothing(object):
    """A writer queued on the table while a statement fails runs after
    the statement is taken back, never against its rows: the keys the
    failed statement took are free, the ones it moved are still held,
    and recovery — which replays the failed statement as taken back
    before the queued one — reaches the same state.  A reader that has
    a view open meanwhile holds the undo back until it closes it."""

    storage = "memory"

    @pytest.mark.parametrize("failing, queued, queued_errno, expected", [
        (MULTI_ROW_INSERT, "INSERT INTO t VALUES (5, 55)", None,
         ORIGINAL + [(5, 55)]),
        (ODKU_LATER_ROW, "INSERT INTO t VALUES (1, 99)", 1062, ORIGINAL),
    ], ids=["multi-row", "on-duplicate"])
    def test_the_queued_writer_runs_after_the_undo(
            self, backend, failing, queued, queued_errno, expected):
        database = backend.recover()
        database.seed(SCHEMA)
        template, values = failing
        failed, outcome = _queued_behind(database, template % values, queued)
        assert failed.error is not None and failed.error.errno == 1062
        if queued_errno is None:
            assert outcome.error is None
        else:
            assert outcome.error.errno == queued_errno
        with Connection(database) as conn:
            rows = conn.query_or_raise("SELECT id, v FROM t ORDER BY id").rows
        assert [tuple(row) for row in rows] == expected
        assert verify_index_consistency(database) == []
        live = state_digest(database)
        database.close()
        assert state_digest(backend.recover()) == live


    def test_the_undo_waits_for_open_read_views(self, backend):
        """Readers take no table lock: versions leave the tables only
        once no read view is open, and none opens meanwhile."""
        database = backend.recover()
        database.seed(SCHEMA)
        park = _Park("reader")
        outcomes = {}

        def run(name, sql):
            with Connection(database) as conn:
                outcomes[name] = conn.query(sql)

        reader = threading.Thread(target=run, name="reader", args=(
            "reader", "SELECT id, v FROM t ORDER BY id"))
        failing = threading.Thread(target=run, args=(
            "failing", MULTI_ROW_INSERT[0] % MULTI_ROW_INSERT[1]))
        with faults.armed(park):
            try:
                reader.start()
                assert park.parked.wait(_BOUND)
                failing.start()
                _wait_for(lambda: database._views_barred)
                assert failing.is_alive()
            finally:
                park.release()
                reader.join(_BOUND)
                failing.join(_BOUND)
        assert not reader.is_alive() and not failing.is_alive()
        assert [tuple(row) for row in outcomes["reader"].rows] == ORIGINAL
        assert outcomes["failing"].error.errno == 1062
        assert not database._views_barred
        with Connection(database) as conn:
            rows = conn.query_or_raise("SELECT id, v FROM t ORDER BY id").rows
        assert [tuple(row) for row in rows] == ORIGINAL


class TestAQueuedWriterMeetsNothingPaged(TestAQueuedWriterMeetsNothing):
    storage = "paged"
