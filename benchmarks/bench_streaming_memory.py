"""E15 — streaming execution memory: LIMIT pipelines stay O(limit).

The plan/execute split made every non-blocking operator a lazy
generator, so a ``LIMIT n`` query without ORDER BY must stop pulling
rows the moment the n-th result is produced — both the scan row count
and the peak number of rows buffered by any blocking operator must be
bounded by the limit, not the table.  The top-k section shows the same
query *with* ORDER BY: the bounded heap keeps materialization at
O(limit) while the legacy full sort buffers the whole table.

Gates (the streaming property the lint gate protects, measured):

* scan rows-out for ``LIMIT n``   <= 4 * n  (table is 500x larger)
* peak_materialized for ``LIMIT`` <= 4 * n
* peak_materialized for ORDER BY + LIMIT with the heap <= 4 * n,
  and >= table size with the heap disabled (the contrast proves the
  counter measures something real).
"""

from repro.sqldb.engine import Database

ROWS = 2000
LIMIT = 10


def _build():
    database = Database()
    database.run(
        "CREATE TABLE events (id INT PRIMARY KEY AUTO_INCREMENT, val INT)"
    )
    for start in range(0, ROWS, 100):
        values = ", ".join(
            "(%d)" % (i * 13 % (ROWS + 1)) for i in range(start, start + 100)
        )
        database.run("INSERT INTO events (val) VALUES %s" % values)
    return database


def _run(database, sql):
    """Rows, scan rows-out and peak materialization for one query (the
    execution's own StageStats: each starts from zero)."""
    rows = database.run(sql)[0].result_set.rows
    stats = database._executor.last_stage_stats
    scans = stats.find("seq_scan")
    scan_out = scans[0]["rows_out"] if scans else 0
    return rows, scan_out, stats.peak_materialized_rows


def test_streaming_memory(report):
    database = _build()
    executor = database._executor

    plain_sql = "SELECT id, val FROM events WHERE val >= 0 LIMIT %d" % LIMIT
    rows, scan_out, peak = _run(database, plain_sql)
    assert len(rows) == LIMIT

    order_sql = ("SELECT id, val FROM events ORDER BY val, id LIMIT %d"
                 % LIMIT)
    executor.enable_topk = False
    sort_rows, sort_scan, sort_peak = _run(database, order_sql)
    executor.enable_topk = True
    heap_rows, heap_scan, heap_peak = _run(database, order_sql)
    assert heap_rows == sort_rows
    assert len(heap_rows) == LIMIT

    report.line("Streaming memory — %d-row table, LIMIT %d"
                % (ROWS, LIMIT))
    report.line()
    report.table(
        ["query", "scan rows", "peak buffered"],
        [
            ["LIMIT (no ORDER BY)", scan_out, peak],
            ["ORDER BY + full sort", sort_scan, sort_peak],
            ["ORDER BY + top-k heap", heap_scan, heap_peak],
        ],
        widths=[24, 12, 15],
    )
    report.line()
    report.line("streaming LIMIT reads %d/%d rows (%.1f%% of table)"
                % (scan_out, ROWS, 100.0 * scan_out / ROWS))
    report.metric("limit_scan_rows", scan_out, "rows")
    report.metric("limit_peak_materialized", peak, "rows")
    report.metric("full_sort_peak_materialized", sort_peak, "rows")
    report.metric("topk_peak_materialized", heap_peak, "rows")

    # -- the gates ---------------------------------------------------------
    assert scan_out <= 4 * LIMIT, (
        "LIMIT %d pulled %d rows through the scan — the pipeline is "
        "materializing, not streaming" % (LIMIT, scan_out)
    )
    assert peak <= 4 * LIMIT, (
        "LIMIT %d buffered %d rows — O(limit) memory is broken"
        % (LIMIT, peak)
    )
    # ORDER BY must read everything either way …
    assert sort_scan == ROWS and heap_scan == ROWS
    # … but only the full sort may buffer the whole table
    assert sort_peak >= ROWS, (
        "full sort buffered only %d rows — the peak counter is not "
        "measuring blocking operators" % sort_peak
    )
    assert heap_peak <= 4 * LIMIT, (
        "top-k heap buffered %d rows for LIMIT %d — the heap bound "
        "regressed to a full sort" % (heap_peak, LIMIT)
    )
