"""The client session contract — one suite, four façades.

``Connection``, ``ReplicaSet.connect()`` (a ``RoutingConnection``),
``ShardRouter`` and ``NetClient``-over-``NetServer`` promise an
application the same things, and every promise is checked here once,
against all four:

* ``query`` never raises for a statement: a deterministic SQL error or
  a SEPTIC block comes back *captured*, with its errno, and is never
  retried; ``query_or_raise`` raises that same error;
* a raw exception under ``query`` comes back as the transient errno
  2013 — never as itself;
* a transient fault is retried on the seeded schedule, wherever there
  is a budget, for text and prepared execution alike;
* ``close()`` is idempotent and releases what the session held: an
  abandoned ``BEGIN`` no longer holds back ``checkpoint()``.

Errno 1235 (the router refuses what it cannot route), 1213 (write
conflict) and 1243 (unknown statement handle) each appear once, here.
"""

import pytest

from repro import faults
from repro.benchlab.crashsweep import MarkerSeptic
from repro.faults import FaultKind, FaultPlan
from repro.net.client import NetClient
from repro.net.server import NetServer
from repro.replica import ReplicaSet
from repro.shard import ShardRouter
from repro.sqldb.connection import Connection, QueryOutcome
from repro.sqldb.engine import Database
from repro.sqldb.errors import SQLError
from tests.sqldb.test_transaction_undo import _until

CREATE = "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20))"
READ = "SELECT v FROM t WHERE id = 1"
#: the row READ and the conflict test touch (the router hashes it)
KEY = 1


class Facade(object):
    """One façade under test and what the suite may know about it."""

    #: retries the façade spends on a transient fault
    budget = 0
    #: ``prepare(sql) -> run(*params) -> QueryOutcome``, where offered
    prepare = None

    def __init__(self, client, engines, primaries, stats):
        self.client = client
        #: every Database a statement can reach / those that take writes
        self.engines, self.primaries = engines, primaries
        #: every RetryStats between the client and the engines
        self.stats = stats + [engine.retry_stats for engine in engines]
        client.query_or_raise(CREATE)
        client.query_or_raise("INSERT INTO t VALUES (1, 'one')")
        client.query_or_raise("INSERT INTO t VALUES (2, 'two')")

    def count(self, counter):
        return sum(getattr(stats, counter) for stats in self.stats)

    def blocked(self):
        return sum(engine.septic.blocked for engine in self.engines)

    def waited(self):
        """Total delay the façade's retry loops made pass."""
        return 0

    def twin(self):
        """A fresh retry loop built like the one the façade spends its
        budget through: the seeded schedule, from its start."""
        raise NotImplementedError

    def settle(self):
        """Let what ``close()`` set in motion finish."""

    def closed(self):
        """Whether ``close()`` ended every session the façade held."""
        return not any(engine.in_transaction for engine in self.primaries)

    def teardown(self):
        self.client.close()
        for engine in self.engines:
            engine.close()


class ConnectionFacade(Facade):
    budget = 2
    _retry = dict(retries=2, backoff=0.01, retry_seed=5)

    def __init__(self, tmp_path):
        database = Database.recover(str(tmp_path / "db"),
                                    septic=MarkerSeptic())
        self.sleeps = []
        client = Connection(database, sleep=self.sleeps.append,
                            **self._retry)
        Facade.__init__(self, client, [database], [database], [])

    def prepare(self, sql):
        prepared = self.client.prepare(sql)
        return lambda *params: self.client.execute_prepared(prepared,
                                                            *params)

    def waited(self):
        return sum(self.sleeps)

    def twin(self):
        return Connection(self.engines[0], **self._retry).retry


class RoutingFacade(Facade):
    budget = 4

    def __init__(self, tmp_path):
        self.set = ReplicaSet(str(tmp_path / "set"), replicas=1,
                              septic_factory=MarkerSeptic,
                              heartbeat_interval=2, lease_intervals=2)
        client = self.set.connect(retries=4, seed=5)
        engines = [node.database for node in self.set.nodes]
        Facade.__init__(self, client, engines, [self.set.primary.database],
                        [client.retry_stats])
        self.set.ship()
        self.clock = self.set.clock

    def waited(self):
        return self.set.clock - self.clock

    def twin(self):
        return self.set.connect(retries=4, seed=5).retry

    def settle(self):
        # a later commit reaches the replica, so that only an open
        # session — not log retention — could still hold the checkpoint
        # back (a rolled-back tail is never shipped)
        self.set.connect().query_or_raise("INSERT INTO t VALUES (4, 'four')")
        self.set.ship()

    def teardown(self):
        self.client.close()
        self.set.close()


class RouterFacade(Facade):
    budget = 6  # each per-shard RoutingConnection's default

    def __init__(self, tmp_path):
        client = ShardRouter(str(tmp_path / "fleet"), shards=2, replicas=1,
                             septic_factory=MarkerSeptic, seed=5,
                             heartbeat_interval=2, lease_intervals=2)
        sets = client.shard_sets
        Facade.__init__(
            self, client,
            [node.database for shard in sets for node in shard.nodes],
            [shard.primary.database for shard in sets],
            [conn.retry_stats for conn in client.connections])
        client.ship()
        self.home = client.catalog.shard_for("t", KEY)
        self.clock = sets[self.home].clock

    def waited(self):
        return self.client.shard_sets[self.home].clock - self.clock

    def twin(self):
        return self.client.shard_sets[self.home].connect(
            seed=5 + self.home).retry

    def closed(self):
        return not any(conn._conns for conn in self.client.connections)

    def teardown(self):
        self.client.close()


class WireFacade(Facade):
    def __init__(self, tmp_path):
        database = Database.recover(str(tmp_path / "served"),
                                    septic=MarkerSeptic())
        self.server = NetServer(database)
        self.server.start()
        client = NetClient(self.server.host, self.server.port)
        Facade.__init__(self, client, [database], [database], [])

    def prepare(self, sql):
        handle = self.client.prepare(sql)
        return lambda *params: self.client.execute(handle, *params)

    def settle(self):
        # the server ends the session when it sees the client leave
        _until(lambda: not self.engines[0].in_transaction)

    def teardown(self):
        self.client.close()
        self.server.stop()
        self.engines[0].close()


FACADES = {"connection": ConnectionFacade, "routing": RoutingFacade,
           "router": RouterFacade, "wire": WireFacade}
every_facade = pytest.mark.parametrize("facade", sorted(FACADES),
                                       indirect=True)
#: execution kinds: every façade runs text, two also prepare
every_execution = pytest.mark.parametrize(
    "facade, kind",
    [(name, "text") for name in sorted(FACADES)]
    + [("connection", "prepared"), ("wire", "prepared")],
    indirect=["facade"])


@pytest.fixture
def facade(request, tmp_path):
    built = FACADES[request.param](tmp_path)
    yield built
    built.teardown()


def _runner(facade, kind, text, prepared_text, *params):
    """The same statement as text or as a prepared execution."""
    if kind == "text":
        return lambda: facade.client.query(text)
    run = facade.prepare(prepared_text)
    return lambda: run(*params)


# -- captured, with its errno, never retried -----------------------------------

@every_facade
def test_sql_error_is_captured_and_never_retried(facade):
    outcome = facade.client.query("SELECT * FROM no_such_table")
    assert isinstance(outcome, QueryOutcome) and not outcome.ok
    assert isinstance(outcome.error, SQLError)
    assert outcome.error.errno == 1054 and not outcome.error.transient
    assert outcome.rows == [] and outcome.scalar() is None
    assert facade.count("attempts") == facade.count("retries") == 0
    with pytest.raises(SQLError) as raised:
        facade.client.query_or_raise("SELECT * FROM no_such_table")
    assert raised.value.errno == 1054


@every_facade
def test_septic_block_is_captured_and_never_retried(facade):
    outcome = facade.client.query("INSERT INTO t VALUES (7, 'evil')")
    assert outcome.error.errno == 3090 and not outcome.error.transient
    # a verdict, not a fault: the statement met the hook exactly once
    assert facade.blocked() == 1
    assert facade.count("attempts") == facade.count("retries") == 0
    assert facade.client.query_or_raise(
        "SELECT COUNT(*) FROM t WHERE id = 7").scalar() == 0


@every_facade
def test_raw_exception_under_query_is_transient_2013(facade, monkeypatch):
    def broken(self, *_args, **_kwargs):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(Database, "run_partial", broken)
    outcome = facade.client.query(READ)
    assert outcome.error.errno == 2013
    assert "RuntimeError" in str(outcome.error)
    # transient, so whoever holds a budget spent it — and only then
    # reported it
    assert facade.count("retries") == facade.budget
    assert facade.count("exhausted") == (1 if facade.budget else 0)


@pytest.mark.parametrize("facade", ["routing", "router"], indirect=True)
def test_armed_route_cache_fault_never_reaches_the_application(facade):
    """Defect (i): the routers' route caches are ``PipelineCache``s and
    share its ``cache.lookup`` fault site; at a73f262 an armed fault
    there left ``query`` as a raw ``InjectedFault``, and until 55a1d75
    as a captured 2013.  ``PipelineCache.resolve`` now contains it for
    every front end the way the engine always did: a probe that raises
    is a miss, the statement is parsed and served, no budget is spent."""
    plan = FaultPlan()
    plan.inject("cache.lookup", FaultKind.RAISE)
    with faults.armed(plan):
        outcome = facade.client.query(READ)
    assert plan.hits_by_site["cache.lookup"] >= 2   # router's and engine's
    assert outcome.ok and outcome.rows == [("one",)]
    assert facade.count("retries") == 0
    assert facade.client.query_or_raise(READ).rows == [("one",)]


# -- transient: retried on the seeded schedule ---------------------------------

@every_execution
def test_flaky_transient_is_retried_on_the_seeded_schedule(facade, kind):
    """Defect (ii) is the ``connection-prepared`` row: at a73f262
    ``execute_prepared`` never spent the budget ``query`` spends."""
    run = _runner(facade, kind, READ, "SELECT v FROM t WHERE id = ?", KEY)
    fails = 2 if facade.budget else 1
    plan = FaultPlan()
    plan.inject("executor.step", FaultKind.FLAKY, fails=fails)
    with faults.armed(plan):
        outcome = run()
    if not facade.budget:
        # nobody between this client and the engine retries: reported
        assert outcome.error.errno == 2013
        assert (facade.count("gave_up"), facade.count("retries")) == (1, 0)
        assert run().rows == [("one",)]
        return
    assert outcome.rows == [("one",)]
    assert facade.count("retries") == fails
    assert facade.count("exhausted") == 0
    schedule = facade.twin().delay
    assert facade.waited() == pytest.approx(
        sum(schedule(n) for n in range(1, fails + 1)))


@every_execution
def test_write_conflict_is_1213_and_spends_the_budget(facade, kind):
    run = _runner(facade, kind, "UPDATE t SET v = 'mine' WHERE id = 1",
                  "UPDATE t SET v = ? WHERE id = ?", "mine", KEY)
    home = facade.primaries[getattr(facade, "home", 0)]
    holder = Connection(home)
    holder.query_or_raise("BEGIN")
    holder.query_or_raise("UPDATE t SET v = 'theirs' WHERE id = 1")
    outcome = run()
    assert outcome.error.errno == 1213
    assert facade.count("retries") == facade.budget
    # first writer wins; once it is gone the same statement goes through
    holder.close()
    assert run().affected_rows == 1
    assert facade.client.query_or_raise(READ).rows == [("mine",)]


@pytest.mark.parametrize("facade", ["connection", "wire"], indirect=True)
def test_unknown_statement_handle_is_1243(facade):
    if isinstance(facade.client, Connection):
        outcome = facade.client.execute_statement(10 ** 9, (1,))
    else:
        handle = facade.client.prepare("SELECT v FROM t WHERE id = ?")
        assert facade.client.close_statement(handle) is True
        outcome = facade.client.execute(handle, 1)
    assert outcome.error.errno == 1243 and not outcome.error.transient
    assert facade.count("attempts") == 0


# -- close() releases what the session held ------------------------------------

@every_facade
def test_abandoned_begin_then_close_lets_checkpoint_run(facade):
    """Defect (iii) is the ``routing`` row: at a73f262 a
    ``RoutingConnection`` had no ``close()``, so the routed ``BEGIN`` of
    a client that went away held ``checkpoint()`` back forever."""
    client = facade.client
    begun = client.query("BEGIN")
    if isinstance(client, ShardRouter):
        # no cross-shard transactions in v1: refused, not half-opened
        assert begun.error.errno == 1235
        client.query_or_raise("INSERT INTO t VALUES (3, 'three')")
        assert not facade.closed()
    else:
        assert begun.ok
        client.query_or_raise("INSERT INTO t VALUES (3, 'three')")
        assert facade.primaries[0].checkpoint() is None  # as it must
    with client as entered:
        assert entered is client
    client.close()  # idempotent
    facade.settle()
    assert facade.closed()
    if not isinstance(client, ShardRouter):  # its close() stops the fleet
        assert facade.primaries[0].checkpoint() is not None


@pytest.mark.parametrize("facade", ["connection", "wire"], indirect=True)
def test_close_never_raises_when_a_crash_abandoned_the_log(facade):
    """Recorded as "left as it was" by PR 19: at 55a1d75 ``close()`` on
    a session with an open transaction raised ``WalError`` (1030, "WAL
    is closed") once a crash had abandoned its database's log — so
    ``with Connection(...)`` masked the caller's own error, and the
    wire server's teardown hop failed with the session still open.  The
    versions are undone in memory; a log that is gone takes no marker,
    and recovery discards the unfinished transaction anyway."""
    client, database = facade.client, facade.engines[0]
    with pytest.raises(KeyError, match="the caller's own"):
        with client:
            client.query_or_raise("BEGIN")
            client.query_or_raise("INSERT INTO t VALUES (3, 'three')")
            database.wal.abandon()      # what a crash leaves behind
            raise KeyError("the caller's own")
    facade.settle()
    assert facade.closed()
    assert sorted(row["id"] for row in database.table("t").rows) == [1, 2]
    client.close()  # idempotent
