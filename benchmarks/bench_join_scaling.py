"""E14b — join strategy scaling: hash equi-join vs nested loop.

Three table sizes, same INNER JOIN on an integer equi-key.  With the
hash join enabled the executor builds a hash table on the smaller side
and probes it (O(n + m)); with it disabled the legacy nested loop
evaluates the ON predicate n × m times.  The bench times both across
the sizes, asserts the growth shapes (hash ~linear, nested-loop
super-linear), and pins the chosen strategy through EXPLAIN.

A top-k section measures ORDER BY + LIMIT with and without the heap
fusion, asserting identical rows and the plan counters.
"""

import time

from repro.sqldb.engine import Database

SIZES = (50, 100, 200)


def _build(size):
    database = Database()
    database.run(
        "CREATE TABLE orders (id INT PRIMARY KEY, cust INT, total INT)"
    )
    database.run(
        "CREATE TABLE custs (id INT PRIMARY KEY, name VARCHAR(30))"
    )
    for i in range(size):
        database.run(
            "INSERT INTO orders VALUES (%d, %d, %d)"
            % (i, i % (size // 2), i * 3 % 97)
        )
    for i in range(size // 2):
        database.run(
            "INSERT INTO custs VALUES (%d, 'cust%d')" % (i, i)
        )
    return database

JOIN_SQL = (
    "SELECT o.id, c.name FROM orders o "
    "JOIN custs c ON o.cust = c.id WHERE o.total >= 0"
)


def _time_join(database, repeats=3):
    best = None
    rows = None
    for _ in range(repeats):
        start = time.perf_counter()
        rows = database.run(JOIN_SQL)[0].result_set.rows
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, rows


def test_join_scaling(report):
    hash_times, nested_times = [], []
    for size in SIZES:
        database = _build(size)
        executor = database._executor
        executor.enable_hash_join = True
        t_hash, rows_hash = _time_join(database)
        database.run(JOIN_SQL)
        assert executor.last_stage_stats.counters["hash_joins"] == 1
        # EXPLAIN pins the strategy: probe table joined by hash
        explain = database.run("EXPLAIN " + JOIN_SQL)[0].result_set.rows
        assert [r[0] for r in explain] == ["orders", "custs"]
        assert explain[1][1] == "hash"
        assert explain[1][2] == "id"
        executor.enable_hash_join = False
        t_nested, rows_nested = _time_join(database)
        explain = database.run("EXPLAIN " + JOIN_SQL)[0].result_set.rows
        assert explain[1][1] == "ALL"
        # both strategies must emit identical rows in identical order
        assert rows_hash == rows_nested
        assert len(rows_hash) == size
        hash_times.append(t_hash)
        nested_times.append(t_nested)
    report.line("Join scaling — INNER JOIN on equi-key, %s rows"
                % (SIZES,))
    report.line()
    report.table(
        ["rows", "hash join", "nested loop", "ratio"],
        [
            ["%d" % size, "%.4f ms" % (h * 1e3), "%.4f ms" % (n * 1e3),
             "%.1fx" % (n / h)]
            for size, h, n in zip(SIZES, hash_times, nested_times)
        ],
    )
    hash_growth = hash_times[-1] / hash_times[0]
    nested_growth = nested_times[-1] / nested_times[0]
    report.line()
    report.line("growth %dx input: hash %.1fx, nested %.1fx"
                % (SIZES[-1] // SIZES[0], hash_growth, nested_growth))
    report.metric("hash_join_growth_4x_input", round(hash_growth, 2), "x")
    report.metric("nested_loop_growth_4x_input", round(nested_growth, 2),
                  "x")
    report.metric("hash_vs_nested_at_%d" % SIZES[-1],
                  round(nested_times[-1] / hash_times[-1], 2), "x")
    # 4x input: linear -> ~4x, quadratic -> ~16x.  The hash join must
    # grow sub-quadratically and clearly slower than the nested loop.
    assert hash_growth < 8.0, "hash join grew %.1fx on 4x input" % \
        hash_growth
    assert nested_growth > hash_growth * 1.5, (
        "nested loop grew %.1fx vs hash %.1fx — expected super-linear "
        "vs ~linear" % (nested_growth, hash_growth)
    )
    # at the largest size the hash join must win outright
    assert hash_times[-1] < nested_times[-1]


def test_topk_order_limit(report):
    database = _build(200)
    executor = database._executor
    sql = "SELECT id, total FROM orders ORDER BY total DESC, id LIMIT 10"
    executor.enable_topk = True
    start = time.perf_counter()
    topk_rows = database.run(sql)[0].result_set.rows
    t_topk = time.perf_counter() - start
    assert executor.last_stage_stats.counters == {"full_scans": 1,
                                                  "topk_orders": 1}
    executor.enable_topk = False
    start = time.perf_counter()
    full_rows = database.run(sql)[0].result_set.rows
    t_full = time.perf_counter() - start
    assert executor.last_stage_stats.counters == {"full_scans": 1,
                                                  "full_sorts": 1}
    assert topk_rows == full_rows
    assert len(topk_rows) == 10
    report.line("Top-k ORDER BY + LIMIT 10 over 200 rows")
    report.line("heap top-k: %.4f ms, full sort: %.4f ms"
                % (t_topk * 1e3, t_full * 1e3))
    report.metric("topk_ms_200_rows", round(t_topk * 1e3, 4), "ms")
    report.metric("full_sort_ms_200_rows", round(t_full * 1e3, 4), "ms")
