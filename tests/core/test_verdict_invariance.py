"""Verdict invariance: the memo levels change what the hook costs,
never what it decides or records.

The statements the four applications issue for their recorded requests,
plus those of every ``repro.attacks`` case, are replayed through local
``query``, ``execute_prepared`` and the wire — three times each, so that
every statement meets the hook cold (nothing memoised), L2-hot (its
shape known, its text not) and L1-hot (its own verdict cached).  The
same replay runs against a control with every memo off: no pipeline
cache, and shape memos that forget what they are told.  Blocked/allowed
per statement, ``SepticStats.as_dict()`` and kind + query ID + sequence
number of every significant event must be identical after each pass, in
PREVENTION and DETECTION and under all four Figure 5 configurations.
"""

from collections import Counter

import pytest

from repro.apps.addressbook import AddressBook
from repro.apps.refbase import Refbase
from repro.apps.waspmon import WaspMon
from repro.apps.zerocms import ZeroCMS
from repro.attacks.corpus import waspmon_attacks
from repro.core import manager as manager_mod
from repro.core.manager import QSQMManager
from repro.core.query_model import QueryModel
from repro.core.septic import Mode, Septic, SepticConfig
from repro.core.training import SepticTrainer
from repro.net.client import NetClient
from repro.net.server import NetServer
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import QueryBlocked, SQLError
from repro.web.app import PhpRuntime

APPS = (WaspMon, AddressBook, Refbase, ZeroCMS)
PASSES = ("cold", "L2-hot", "L1-hot")


def _recorded_requests(app):
    if hasattr(app, "workload_requests"):
        return app.workload_requests()
    return app.benign_requests()


def _trained_stack(cache_size):
    """The four applications on one database, trained the way the demo
    trains (recorded series plus the crawler's form samples)."""
    septic = Septic(mode=Mode.TRAINING)
    database = Database(septic=septic, cache_size=cache_size)
    apps = [cls(database) for cls in APPS]
    for app in apps:
        for request in _recorded_requests(app):
            app.handle(request)
        for request in SepticTrainer(app, septic).crawl():
            app.handle(request)
    return database, septic, apps


class _Recorder(object):
    """Stands where ``PhpRuntime.connection`` stood and notes the text
    and charset of every statement."""

    def __init__(self, inner, sink):
        self._inner = inner
        self._sink = sink

    def query(self, sql):
        self._sink.append((sql, self._inner.charset))
        return self._inner.query(sql)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture(scope="module")
def statements():
    """``(sql, charset)`` of every statement the benign series and the
    attack corpus issue — captured in DETECTION, so an attack request
    runs to its last statement."""
    _database, septic, apps = _trained_stack(cache_size=512)
    septic.mode = Mode.DETECTION
    sink = []
    for app in apps:
        for runtime in vars(app).values():
            if isinstance(runtime, PhpRuntime):
                runtime.connection = _Recorder(runtime.connection, sink)
    for app in apps:
        for request in _recorded_requests(app):
            app.handle(request)
    waspmon = apps[0]
    for case in waspmon_attacks():
        for item in case.requests:
            waspmon.handle(item(waspmon) if callable(item) else item)
    assert len(sink) > 80
    assert {charset for _sql, charset in sink} == {"utf8", "gbk"}
    return sink


# -- the three entry points ---------------------------------------------------

def _verdict(error):
    if error is None:
        return "ok"
    if isinstance(error, QueryBlocked) or getattr(error, "blocked", False):
        return "blocked"
    return "error"


class _Local(object):
    def __init__(self, database):
        self._database = database
        self._connections = {}

    def _connection(self, charset):
        if charset not in self._connections:
            self._connections[charset] = Connection(self._database,
                                                    charset=charset)
        return self._connections[charset]

    def run(self, sql, charset):
        return _verdict(self._connection(charset).query(sql).error)

    def close(self):
        pass


class _Prepared(_Local):
    """Each text prepared once (zero parameters) and its handle reused,
    so the third pass finds the handle's cache entry."""

    def __init__(self, database):
        _Local.__init__(self, database)
        self._handles = {}

    def run(self, sql, charset):
        conn = self._connection(charset)
        key = (sql, charset)
        if key not in self._handles:
            try:
                self._handles[key] = conn.prepare(sql)
            except SQLError:
                self._handles[key] = None  # stacked or malformed text
        handle = self._handles[key]
        if handle is None:
            return "unpreparable"
        return _verdict(conn.execute_prepared(handle).error)


class _Wire(object):
    def __init__(self, database):
        self._server = NetServer(database)
        self._server.start()
        self._clients = {}

    def run(self, sql, charset):
        client = self._clients.get(charset)
        if client is None:
            client = self._clients[charset] = NetClient(
                self._server.host, self._server.port, charset=charset)
        return _verdict(client.query(sql).error)

    def close(self):
        for client in self._clients.values():
            client.close()
        self._server.stop()


ENTRY_POINTS = {"query": _Local, "execute_prepared": _Prepared,
                "wire": _Wire}


# -- one replay ---------------------------------------------------------------

def _significant(septic):
    # the register is not verbose, so it holds significant events only
    return [(event.kind, event.query_id, event.sequence)
            for event in septic.logger.events]


def _replay(statements, entry_point, mode, flags, cache_size, counts=None):
    """Train, hand the models to a fresh SEPTIC (empty memos) in *mode*
    under *flags*, and replay three times.  Returns one observation per
    stage — training, then each pass — and, per pass, what *counts*
    (a ``Counter`` some patched callables bump) read."""
    database, trainer, _apps = _trained_stack(cache_size)
    observed = [("training", None, trainer.stats.as_dict(),
                 _significant(trainer))]
    septic = Septic(mode=mode, config=SepticConfig.from_flags(flags),
                    store=trainer.store)
    database.septic = septic
    driver = ENTRY_POINTS[entry_point](database)
    per_pass = []
    try:
        for name in PASSES:
            if name != "L1-hot" and database.pipeline_cache is not None:
                database.pipeline_cache.clear()
            if counts is not None:
                counts.clear()
            verdicts = [driver.run(sql, charset)
                        for sql, charset in statements]
            observed.append((name, verdicts, septic.stats.as_dict(),
                             _significant(septic)))
            per_pass.append(Counter(counts))
    finally:
        driver.close()
    return observed, per_pass


def _count_avoidable_work(monkeypatch):
    """A ``Counter`` of the calls the memos exist to avoid."""
    counts = Counter()
    receive = QSQMManager.receive
    from_structure = QueryModel.__dict__["from_structure"].__func__

    def counting_receive(self, context, checkpoint=None):
        counts["receive"] += 1
        return receive(self, context, checkpoint)

    def counting_from_structure(cls, structure):
        counts["from_structure"] += 1
        return from_structure(cls, structure)

    monkeypatch.setattr(QSQMManager, "receive", counting_receive)
    monkeypatch.setattr(QueryModel, "from_structure",
                        classmethod(counting_from_structure))
    return counts


@pytest.fixture(scope="module")
def controls():
    """Control observations per (entry point, mode, flags): no pipeline
    cache, and shape memos that forget what they are told.  Filled on
    first use by :func:`_control`."""
    return {}


def _control(controls, statements, entry_point, mode, flags, monkeypatch):
    key = (entry_point, mode, flags)
    if key not in controls:
        with monkeypatch.context() as patch:
            patch.setattr(manager_mod.BoundedMemo, "put",
                          lambda self, key_, value: None)
            controls[key], _ = _replay(statements, entry_point, mode,
                                       flags, cache_size=0)
    return controls[key]


@pytest.mark.parametrize("flags", ["NN", "YN", "NY", "YY"])
@pytest.mark.parametrize("mode", [Mode.PREVENTION, Mode.DETECTION])
@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_memos_change_no_verdict_stat_or_event(statements, controls,
                                               monkeypatch, entry_point,
                                               mode, flags):
    control = _control(controls, statements, entry_point, mode, flags,
                       monkeypatch)
    counts = _count_avoidable_work(monkeypatch)
    # large enough that the third pass finds every entry of the second
    memoised, (cold, l2_hot, l1_hot) = _replay(
        statements, entry_point, mode, flags, cache_size=4096,
        counts=counts)
    for expected, actual in zip(control, memoised):
        stage = "%s/%s/%s/%s" % (entry_point, mode, flags, expected[0])
        assert actual[1] == expected[1], stage + ": verdicts"
        assert actual[2] == expected[2], stage + ": stats"
        assert actual[3] == expected[3], stage + ": significant events"
    assert len(memoised) == len(control) == 1 + len(PASSES)

    # the passes were what they claim to be
    assert cold["from_structure"] > 0
    assert l2_hot["from_structure"] == l1_hot["from_structure"] == 0
    assert l1_hot["receive"] < cold["receive"] // 2
    assert l1_hot["receive"] < l2_hot["receive"]


def test_the_replay_blocks_and_passes(statements, controls, monkeypatch):
    """The corpus exercises both verdicts (else equality above is
    vacuous), and DETECTION blocks nothing."""
    prevention = _control(controls, statements, "query", Mode.PREVENTION,
                          "YY", monkeypatch)
    detection = _control(controls, statements, "query", Mode.DETECTION,
                         "YY", monkeypatch)
    for _name, verdicts, stats, _events in prevention[1:]:
        assert verdicts.count("blocked") >= 15
        assert verdicts.count("ok") >= 60
        assert stats["queries_dropped"] > 0
    for _name, verdicts, stats, _events in detection[1:]:
        assert "blocked" not in verdicts
        assert stats["attacks_detected"] > 0
        assert stats["queries_dropped"] == 0
