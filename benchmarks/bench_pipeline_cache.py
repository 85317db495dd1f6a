"""The pipeline cache — cold vs warm query latency and threaded throughput.

The tentpole claim: after the first execution of a query shape, the
decode→parse→validate pipeline and the SEPTIC QS/QM/ID derivation are
memoized, so the per-query cost converges to a cache lookup plus the
model-store comparison.  This bench measures:

* **text hit / shape hit / cold** — one 26-node query (the micro-cost
  bench's) end to end through ``Connection.query`` at the cache's three
  states: the exact text seen before (one lookup); a text never seen
  whose *shape* was (decode + tokenize + key, then the shared entry with
  this text's literals bound late); nothing cached (parse, validate,
  SEPTIC derivation, plan);
* **cold** — every query through a cache-disabled database
  (``cache_size=0``), i.e. the seed repo's hot path;
* **warm** — the same query mix through a cached database after one
  priming pass;
* **threaded** — four sessions hammering a shared SEPTIC-enabled
  database concurrently, asserting the stats come out exact (the
  counters are lock-protected, so nothing is lost to races).

Acceptance: warm must be at least 3× faster than cold per query.

``test_pipeline_cache`` measures a **cyclic working set**: 256, 1,024
and 4,096 distinct texts over 8 shapes, each pool run once to warm the
cache and then three more times, timed.  It reports the share of the
first warm cycle's statements served by their text binding (no decode,
no lexer) and the thread CPU per statement.  Texts and shapes sit in
separate LRU tiers, the text tier eight times the entry tier, so every
pool up to 4,096 texts stays resident; in one 512-record LRU a cycle
longer than the cache never hits by text.  Asserted: the share at 1,024
texts is at least 0.99 (a count, not a time).
"""

import threading
import time

from repro.core.logger import SepticLogger
from repro.core.septic import Mode, Septic
from repro.sqldb.cache import DEFAULT_CACHE_SIZE
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database

SCHEMA = """
CREATE TABLE tickets (
    id INT PRIMARY KEY AUTO_INCREMENT,
    reservID VARCHAR(20),
    creditCard INT,
    holder VARCHAR(40),
    price INT,
    issued VARCHAR(20)
);
INSERT INTO tickets (reservID, creditCard, holder, price, issued) VALUES
    ('ID34FG', 1234, 'alice', 120, '2016-07-01'),
    ('ZZ11AA', 9999, 'bob', 250, '2016-07-02'),
    ('QQ77MM', 4321, 'carol', 80, '2016-07-03');
"""

#: a web-application-shaped mix: the query *shapes* a handful of PHP call
#: sites issue over and over — long texts (the pipeline cost the cache
#: removes scales with text size), small result sets
QUERY_MIX = [
    "/* septic:report.php:12 */ SELECT reservID, holder, price, issued "
    "FROM tickets WHERE (creditCard = 1234 OR creditCard = 9999) "
    "AND price > 50 AND price < 500 AND holder <> 'mallory' "
    "AND reservID LIKE 'ID%' ORDER BY price DESC, holder ASC LIMIT 5",
    "/* septic:stats.php:9 */ SELECT COUNT(*), MIN(price), MAX(price), "
    "SUM(price) FROM tickets WHERE issued >= '2016-07-01' "
    "AND issued <= '2016-07-31' AND creditCard > 0",
    "/* septic:search.php:22 */ SELECT id, reservID FROM tickets "
    "WHERE holder = 'alice' AND (price BETWEEN 100 AND 300) "
    "UNION SELECT id, reservID FROM tickets WHERE holder = 'bob' "
    "AND creditCard = 9999",
    "/* septic:detail.php:31 */ SELECT UPPER(holder), LENGTH(reservID), "
    "price * 2, CONCAT(reservID, '-', holder) FROM tickets "
    "WHERE id = 2 AND creditCard = 9999 AND price >= 0",
]

#: the cyclic working set's 8 shapes (one literal each varies per text)
CYCLE_SHAPES = [
    "/* septic:cycle.php:%d */ SELECT reservID, holder FROM tickets "
    "WHERE id = %%d" % line for line in range(1, 5)
] + [
    "SELECT COUNT(*) FROM tickets WHERE price > %d",
    "SELECT holder FROM tickets WHERE creditCard = %d AND price > 0",
    "UPDATE tickets SET price = price WHERE id = %d",
    "SELECT id FROM tickets WHERE holder = 'h%d'",
]
CYCLE_TEXTS = (256, 1024, 4096)
CYCLE_ROUNDS = 3

LOOPS = 200
STATE_SAMPLES = 400
STATE_ROUNDS = 5
THREADS = 4
THREAD_LOOPS = 50


def _build(cache_size):
    septic = Septic(mode=Mode.TRAINING, logger=SepticLogger(verbose=False))
    database = Database(septic=septic, cache_size=cache_size)
    database.seed(SCHEMA)
    conn = Connection(database)
    for sql in QUERY_MIX:
        conn.query_or_raise(sql)
    septic.mode = Mode.PREVENTION
    return septic, database, conn


def _time_loop(conn, loops):
    start = time.perf_counter()
    for _ in range(loops):
        for sql in QUERY_MIX:
            conn.query(sql)
    return time.perf_counter() - start


def _state_costs():
    """``{state: µs per query}`` for the 26-node query, best of
    ``STATE_ROUNDS`` means."""
    from bench_microcosts import HOOK_SCHEMA, HOOK_SQL

    septic = Septic(mode=Mode.TRAINING, logger=SepticLogger(verbose=False))
    database = Database(septic=septic)
    database.seed(HOOK_SCHEMA)
    conn = Connection(database)
    conn.query_or_raise(HOOK_SQL)
    septic.mode = Mode.PREVENTION
    conn.query_or_raise(HOOK_SQL)
    cache = database.pipeline_cache
    numbers = iter(range(10000, 10 ** 9))

    def measure(prepare, sql_for):
        best = None
        for _ in range(STATE_ROUNDS):
            total = 0.0
            for _ in range(STATE_SAMPLES):
                prepare()
                sql = sql_for()
                start = time.perf_counter()
                outcome = conn.query(sql)
                total += time.perf_counter() - start
                assert outcome.ok
            mean = total / STATE_SAMPLES
            best = mean if best is None else min(best, mean)
        return 1e6 * best

    costs = {"text hit": measure(lambda: None, lambda: HOOK_SQL)}
    shape_hits = cache.shape_hits
    costs["shape hit"] = measure(
        lambda: None, lambda: HOOK_SQL.replace("1234", str(next(numbers))))
    assert cache.shape_hits - shape_hits == STATE_SAMPLES * STATE_ROUNDS
    misses = cache.misses
    costs["cold"] = measure(cache.clear, lambda: HOOK_SQL)
    assert cache.misses - misses == STATE_SAMPLES * STATE_ROUNDS
    return costs


def test_pipeline_cache_artifact(report, benchmark):
    def run_cold_and_warm():
        _, _, cold_conn = _build(cache_size=0)
        _, warm_db, warm_conn = _build(cache_size=512)
        _time_loop(warm_conn, 1)  # priming pass
        cold = _time_loop(cold_conn, LOOPS)
        warm = _time_loop(warm_conn, LOOPS)
        return cold, warm, warm_db.pipeline_cache.stats_dict()

    cold, warm, cache_stats = benchmark.pedantic(run_cold_and_warm,
                                                 rounds=1, iterations=1)
    queries = LOOPS * len(QUERY_MIX)
    cold_us = 1e6 * cold / queries
    warm_us = 1e6 * warm / queries
    speedup = cold / warm if warm else float("inf")

    # -- threaded run: exact stats under concurrency ----------------------
    septic, database, _ = _build(cache_size=512)
    attack = ("/* septic:detail.php:31 */ SELECT UPPER(holder), "
              "LENGTH(reservID), price * 2, CONCAT(reservID, '-', holder) "
              "FROM tickets WHERE id = 0 OR 1=1 -- AND creditCard = 9999")
    base = septic.stats.as_dict()
    errors = []

    def worker():
        conn = Connection(database)
        for _ in range(THREAD_LOOPS):
            for sql in QUERY_MIX:
                if not conn.query(sql).ok:
                    errors.append("legit blocked")
            if conn.query(attack).ok:
                errors.append("attack passed")

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    threaded_elapsed = time.perf_counter() - start
    stats = septic.stats.as_dict()
    threaded_queries = THREADS * THREAD_LOOPS * (len(QUERY_MIX) + 1)
    expected_processed = base["queries_processed"] + threaded_queries
    expected_attacks = base["attacks_detected"] + THREADS * THREAD_LOOPS

    report.line("Pipeline cache — cold vs warm hot path")
    report.line("(%d queries per side, %d query shapes)" %
                (queries, len(QUERY_MIX)))
    report.line()
    report.table(
        ["path", "total (s)", "per query (us)", "speedup"],
        [
            ["cold (cache off)", "%.4f" % cold, "%.1f" % cold_us, "1.0x"],
            ["warm (cache on)", "%.4f" % warm, "%.1f" % warm_us,
             "%.1fx" % speedup],
        ],
        widths=[20, 12, 16, 10],
    )
    report.line()
    report.line("warm cache counters: entries=%d hits=%d (shape_hits=%d) "
                "misses=%d hit_rate=%.3f" % (cache_stats["entries"],
                                             cache_stats["hits"],
                                             cache_stats["shape_hits"],
                                             cache_stats["misses"],
                                             cache_stats["hit_rate"]))
    report.line()
    states = _state_costs()
    report.line("One 26-node query through Connection.query, by cache state")
    report.table(
        ["state", "per query (us)", "what it pays"],
        [
            ["text hit", "%.1f" % states["text hit"],
             "lookup + L1 hook + execute"],
            ["shape hit", "%.1f" % states["shape hit"],
             "+ decode, tokenize, shape key, bind literals"],
            ["cold", "%.1f" % states["cold"],
             "+ parse, validate, SEPTIC derivation, plan"],
        ],
        widths=[12, 16, 44],
    )
    report.line()
    report.line("Threaded run — %d threads x %d loops over a shared "
                "SEPTIC database" % (THREADS, THREAD_LOOPS))
    report.table(
        ["counter", "expected", "observed"],
        [
            ["queries_processed", expected_processed,
             stats["queries_processed"]],
            ["attacks_detected", expected_attacks,
             stats["attacks_detected"]],
            ["queries_dropped", expected_attacks,
             stats["queries_dropped"]],
            ["errors", 0, len(errors)],
        ],
        widths=[20, 12, 12],
    )
    report.line()
    report.line("threaded: %d queries in %.3f s (%.0f q/s)" %
                (threaded_queries, threaded_elapsed,
                 threaded_queries / threaded_elapsed if threaded_elapsed
                 else 0.0))

    report.metric("warm_vs_cold_speedup", round(speedup, 2), "x")
    report.metric("warm_hit_rate", round(cache_stats["hit_rate"], 4),
                  "fraction")
    for state in ("text hit", "shape hit", "cold"):
        report.metric(state.replace(" ", "_"), round(states[state], 2), "us")
    # each probe must pay for itself
    assert states["text hit"] < states["shape hit"] < states["cold"]
    assert errors == []
    assert stats["queries_processed"] == expected_processed
    assert stats["attacks_detected"] == expected_attacks
    assert stats["queries_dropped"] == expected_attacks
    # acceptance: the warm path must be at least 3x faster than cold
    assert speedup >= 3.0, "warm path only %.1fx faster" % speedup


def _cycle_costs(texts):
    """``(text-hit share, µs per statement)`` of a warm cycle over
    *texts* distinct texts: the share counted over one cycle right after
    the warming one, the cost the best of ``CYCLE_ROUNDS`` cycles'
    thread-CPU means."""
    septic, database, conn = _build(cache_size=DEFAULT_CACHE_SIZE)
    septic.mode = Mode.TRAINING
    for shape in CYCLE_SHAPES:
        conn.query_or_raise(shape % 0)
    septic.mode = Mode.PREVENTION
    per_shape = texts // len(CYCLE_SHAPES)
    pool = [shape % number for number in range(per_shape)
            for shape in CYCLE_SHAPES]
    cache = database.pipeline_cache
    for sql in pool:
        conn.query_or_raise(sql)
    best = None
    share = None
    for _ in range(CYCLE_ROUNDS):
        hits, shape_hits = cache.hits, cache.shape_hits
        start = time.thread_time()
        for sql in pool:
            conn.query(sql)
        mean = (time.thread_time() - start) / len(pool)
        if share is None:
            text_hits = (cache.hits - hits) - (cache.shape_hits - shape_hits)
            share = text_hits / float(len(pool))
        best = mean if best is None else min(best, mean)
    return share, 1e6 * best


def test_pipeline_cache(report):
    costs = {texts: _cycle_costs(texts) for texts in CYCLE_TEXTS}
    report.line("Pipeline cache — cyclic working set over %d shapes "
                "(PREVENTION, warm cycle after one warming cycle)"
                % len(CYCLE_SHAPES))
    report.line()
    report.table(["distinct texts", "text-hit share", "us per statement"],
                 [[texts, "%.3f" % costs[texts][0],
                   "%.1f" % costs[texts][1]] for texts in CYCLE_TEXTS],
                 widths=[16, 16, 18])
    for texts in CYCLE_TEXTS:
        share, cost = costs[texts]
        report.metric("cycle_%d_text_hit_share" % texts, round(share, 4),
                      "fraction", kind="measured")
        report.metric("cycle_%d_us_per_statement" % texts, round(cost, 2),
                      "us", kind="measured")
    # a pool past the entry tier but inside the text tier hits by text
    assert costs[1024][0] >= 0.99, costs
