"""E8 — micro-cost ablation of SEPTIC's pipeline stages.

Supports Figure 5's "very limited impact" claim by timing each module in
isolation: QS build, QM abstraction, ID generation, store lookup, the
two SQLI steps, and the stored-injection plugin scan (benign and
malicious inputs).  Also ablates the two-step detection design: how much
work the cheap structural check saves on structurally-mutated attacks.

The ``hook:`` rows are the whole hook (``Database.septic_seconds_total``
per query) at its two memo states: **L1 hit** — the statement's cache
entry holds a verdict (reached on this text or on another text of its
shape); **cold** — the statement has no cache entry, so nothing is
memoised and every product is derived (the pipeline cache is emptied
before every cold sample: a new text alone rides its shape's entry).
**write path** is a warm INSERT shape executed with values never seen:
the shape's verdict holds and the stored-injection plugins read this
execution's strings (before that, each such write took the full run).

``filter`` is the engine's side of the same ledger: µs per stored row
of the ``Filter(SeqScan)`` under every keyed UPDATE/DELETE, measured as
a prepared DELETE of an absent key on a 2,000-row table — scan, env
row, compiled predicate, nothing else.

``client:`` is what the connector adds on the path every statement
takes: a warm ``Connection.query`` and a warm ``execute_prepared`` of a
one-row point read that succeed first time — one outcome allocated, no
retry bookkeeping touched.  Compare two commits by running this file in
both within the same minute (the host's clock speed drifts).
"""

from repro.core.detector import AttackDetector
from repro.core.id_generator import IdGenerator
from repro.core.plugins import default_plugins
from repro.core.query_model import QueryModel
from repro.core.query_structure import QueryStructure
from repro.core.store import QMStore
from repro.sqldb.engine import Database
from repro.sqldb.parser import parse_one
from repro.sqldb.validator import validate

SQL = ("SELECT r.watts, r.taken_at, r.comment FROM readings r "
       "JOIN devices d ON r.device_id = d.id "
       "WHERE d.serial = 'WM-100-A' AND d.pin = 1234 "
       "ORDER BY r.taken_at LIMIT 50")


def _stack():
    return validate(parse_one(SQL))


HOOK_SCHEMA = (
    "CREATE TABLE devices (id INT, serial VARCHAR(20), pin INT);"
    "CREATE TABLE readings (device_id INT, watts INT, taken_at INT, "
    "comment VARCHAR(80));"
    "INSERT INTO devices VALUES (1, 'WM-100-A', 1234);"
    "INSERT INTO readings VALUES (1, 40, 1, 'ok');"
)
HOOK_SQL = "/* septic:waspmon:history:86 */ " + SQL


def _hook_costs(samples=300, rounds=5):
    """``{state: hook µs per query}``, best of *rounds* means."""
    from repro.core.logger import SepticLogger
    from repro.core.septic import Mode, Septic
    from repro.sqldb.connection import Connection

    def fresh_septic(store=None, mode=Mode.PREVENTION):
        return Septic(mode=mode, store=store,
                      logger=SepticLogger(verbose=False))

    trainer = fresh_septic(mode=Mode.TRAINING)
    database = Database(septic=trainer)
    database.seed(HOOK_SCHEMA)
    conn = Connection(database)
    assert conn.query(HOOK_SQL).ok
    numbers = iter(range(10000, 10 ** 9))

    def new_text():
        return HOOK_SQL.replace("1234", str(next(numbers)))

    def measure(prepare, sql_for):
        best = None
        for _ in range(rounds):
            total = 0.0
            for _ in range(samples):
                prepare()
                sql = sql_for()
                before = database.septic_seconds_total
                assert conn.query(sql).ok
                total += database.septic_seconds_total - before
            mean = total / samples
            best = mean if best is None else min(best, mean)
        return 1e6 * best

    # a SEPTIC that has the models; what it memoises goes with the cache
    database.septic = fresh_septic(store=trainer.store)
    costs = {"cold": measure(database.pipeline_cache.clear, new_text)}
    assert conn.query(HOOK_SQL).ok and conn.query(HOOK_SQL).ok
    costs["L1 hit"] = measure(lambda: None, lambda: HOOK_SQL)
    # a warm write shape, new values every time (trained first: the
    # store is shared)
    insert = ("/* septic:waspmon:add:12 */ INSERT INTO readings VALUES "
              "(1, %d, %d, 'reading %d of the day')")
    database.septic = trainer
    assert conn.query(insert % (0, 0, 0)).ok
    database.septic = fresh_septic(store=trainer.store)
    assert conn.query(insert % (1, 1, 1)).ok

    def new_insert():
        number = next(numbers)
        return insert % (number % 500, number, number)

    costs["write path"] = measure(lambda: None, new_insert)
    return costs


def _filter_cost(rows=2000, executions=20, rounds=5):
    """µs per stored row of ``Filter(SeqScan)``, best of *rounds*."""
    import time

    from repro.sqldb.connection import Connection

    database = Database()
    conn = Connection(database)
    assert conn.query(
        "CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(32), n INT)").ok
    for start in range(0, rows, 250):
        assert conn.query("INSERT INTO kv (k, v, n) VALUES " + ", ".join(
            "(%d, 'val-%06d', %d)" % (key, key, key % 997)
            for key in range(start, start + 250))).ok
    delete = conn.prepare("DELETE FROM kv WHERE k = ?")
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        for miss in range(executions):
            outcome = conn.execute_prepared(delete, -1 - miss)
            assert outcome.ok and outcome.affected_rows == 0
        sample = (time.perf_counter() - start) / (executions * rows)
        best = sample if best is None else min(best, sample)
    return 1e6 * best


def _client_costs(calls=2000, rounds=7):
    """``{call: µs}`` for a warm point read through the connector, as
    text and as a prepared execution; best of *rounds*."""
    import time

    from repro.sqldb.connection import Connection

    database = Database()
    conn = Connection(database)
    assert conn.query("CREATE TABLE kv (k INT PRIMARY KEY, v INT)").ok
    assert conn.query("INSERT INTO kv VALUES (1, 10), (2, 20)").ok
    sql = "SELECT v FROM kv WHERE k = 1"
    prepared = conn.prepare("SELECT v FROM kv WHERE k = ?")
    runs = {"query": lambda: conn.query(sql),
            "execute_prepared": lambda: conn.execute_prepared(prepared, 1)}
    costs = {}
    for name, run in sorted(runs.items()):
        assert run().rows == [(10,)]
        best = None
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(calls):
                run()
            sample = (time.perf_counter() - start) / calls
            best = sample if best is None else min(best, sample)
        costs[name] = 1e6 * best
    return costs


def test_microcosts_artifact(report):
    """Headline stage costs (min-of-5, 200 calls per sample)."""
    import time

    def cost(fn, *args):
        best = None
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(200):
                fn(*args)
            sample = (time.perf_counter() - start) / 200
            best = sample if best is None else min(best, sample)
        return best

    stack = _stack()
    qs = QueryStructure.from_stack(stack)
    qs_us = 1e6 * cost(QueryStructure.from_stack, stack)
    qm_us = 1e6 * cost(QueryModel.from_structure, qs)
    report.line("E8 micro-costs — QS build %.2f us, QM build %.2f us"
                % (qs_us, qm_us))
    report.metric("qs_build", round(qs_us, 3), "us")
    report.metric("qm_build", round(qm_us, 3), "us")
    hook = _hook_costs()
    for state in ("L1 hit", "cold", "write path"):
        report.line("hook: %-10s %6.2f us" % (state, hook[state]))
        report.metric("hook_" + state.lower().replace(" ", "_"),
                      round(hook[state], 3), "us")
    # the memo must pay for itself, and a write with new values rides
    # its shape's verdict: the check plus the plugins, not a run
    assert hook["L1 hit"] < hook["write path"] < hook["cold"]
    for call, micros in sorted(_client_costs().items()):
        report.line("client: warm %-17s %6.2f us" % (call, micros))
        report.metric("client_" + call, round(micros, 3), "us")
    filter_us = _filter_cost()
    report.line("filter: %.2f us/row (SeqScan + Filter, 2,000-row kv)"
                % filter_us)
    report.metric("filter_per_row", round(filter_us, 3), "us")


def test_bench_qs_build(benchmark):
    stack = _stack()
    assert len(benchmark(QueryStructure.from_stack, stack)) == len(stack)


def test_bench_qm_abstraction(benchmark):
    qs = QueryStructure.from_stack(_stack())
    assert len(benchmark(QueryModel.from_structure, qs)) == len(qs)


def test_bench_id_generation(benchmark):
    qm = QueryModel.from_structure(QueryStructure.from_stack(_stack()))
    gen = IdGenerator()
    qid = benchmark(gen.generate, ["septic:waspmon:history:86"], qm)
    assert qid.external


def test_bench_store_lookup_hot(benchmark):
    """Lookup in a store holding 1000 models (a large application)."""
    gen = IdGenerator()
    store = QMStore()
    target = None
    for i in range(1000):
        sql = "SELECT a FROM t WHERE b = %d AND c%d = 1" % (i, i)
        qm = QueryModel.from_structure(
            QueryStructure.from_stack(validate(parse_one(sql)))
        )
        qid = gen.generate(["septic:site:%d" % i], qm)
        store.put(qid, qm)
        if i == 500:
            target = qid
    assert benchmark(store.get, target) is not None


def test_bench_sqli_step1_mismatch(benchmark):
    """Structural attacks exit at the O(1) count check."""
    detector = AttackDetector()
    model = QueryModel.from_structure(QueryStructure.from_stack(_stack()))
    attack = QueryStructure.from_stack(validate(parse_one(
        "SELECT r.watts, r.taken_at, r.comment FROM readings r "
        "JOIN devices d ON r.device_id = d.id WHERE d.serial = 'x'"
    )))
    detection = benchmark(detector.detect_sqli, attack, model)
    assert detection.step == 1


def test_bench_sqli_step2_full_walk(benchmark):
    """Benign queries pay the full node walk — the steady-state cost."""
    detector = AttackDetector()
    model = QueryModel.from_structure(QueryStructure.from_stack(_stack()))
    benign = QueryStructure.from_stack(validate(parse_one(
        SQL.replace("WM-100-A", "WM-200-B").replace("1234", "5678")
    )))
    assert not benchmark(detector.detect_sqli, benign, model).is_attack


def test_bench_plugins_benign_input(benchmark):
    """Step-1 plugin filters on clean text (the overwhelmingly common
    case) — this is what INSERT/UPDATE traffic pays."""
    plugins = default_plugins()
    text = "perfectly normal reading comment with no markup at all"

    def scan():
        return any(p.inspect(text) for p in plugins)

    assert not benchmark(scan)


def test_bench_plugins_malicious_input(benchmark):
    """Step 2 runs (HTML parse) only when step 1 flags the input."""
    plugins = default_plugins()
    text = "<script>alert('Hello!');</script>"

    def scan():
        return any(p.inspect(text) for p in plugins)

    assert benchmark(scan)


def test_bench_full_hook_per_query(benchmark):
    """The end-to-end per-query SEPTIC cost inside the engine (what the
    Figure 5 overhead is made of)."""
    from repro.core.logger import SepticLogger
    from repro.core.septic import Mode, Septic
    from repro.sqldb.connection import Connection

    septic = Septic(mode=Mode.TRAINING, logger=SepticLogger(verbose=False))
    database = Database(septic=septic)
    database.seed(
        "CREATE TABLE t (a INT, b VARCHAR(20));"
        "INSERT INTO t VALUES (1, 'x');"
    )
    conn = Connection(database)
    conn.query("/* septic:s:1 */ SELECT * FROM t WHERE a = 1")
    septic.mode = Mode.PREVENTION
    before = database.septic_seconds_total

    def query():
        return conn.query("/* septic:s:1 */ SELECT * FROM t WHERE a = 2")

    assert benchmark(query).ok
    assert database.septic_seconds_total > before
