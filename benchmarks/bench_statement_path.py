"""A warm statement's fixed cost: CPU time per statement on a small table.

The paper's Figure 5 traffic is many small statements on tables of a
handful of rows, so what a statement costs besides its rows — cache
hit, SEPTIC's verdict hit, plan lookup, locks, operator bookkeeping,
result set — is most of what it costs.  Four warm statements on a
12-row table, each text run until its cache entry, SEPTIC verdict and
plan are warm, then timed with ``time.thread_time_ns`` around
``Database.run`` (CPU time of the calling thread):

* **point select** — a primary-key read, one row out;
* **keyed update** — ``views = views + 1`` on one row, logged to a
  batch-synced WAL;
* **topk** — ``ORDER BY views DESC LIMIT 5`` (the bounded heap);
* **sort** — the same ORDER BY without a LIMIT (the full sort).

The median per statement is reported, with the Python-level calls one
execution makes (``sys.setprofile``).  Only orderings are asserted: the
point read is the cheapest of the four.  Compare two commits by running
this file in both within the same minute (the host's clock speed
drifts).
"""

import statistics
import sys
import time

from repro.core.septic import Mode, Septic
from repro.sqldb.engine import Database

ROWS = 12
SAMPLES = 600

SCHEMA = ("CREATE TABLE articles (id INT PRIMARY KEY AUTO_INCREMENT, "
          "title VARCHAR(120) NOT NULL, body TEXT, section VARCHAR(40), "
          "views INT DEFAULT 0)")
STATEMENTS = {
    "point select": "/* septic:bench:article */ "
                    "SELECT title, body, views FROM articles WHERE id = %d",
    "keyed update": "/* septic:bench:views */ "
                    "UPDATE articles SET views = views + 1 WHERE id = %d",
    "topk": "/* septic:bench:top */ SELECT id, title, views FROM articles "
            "ORDER BY views DESC LIMIT 5",
    "sort": "/* septic:bench:all */ SELECT id, title, views FROM articles "
            "ORDER BY views DESC",
}
PATHS = tuple(STATEMENTS)


def _texts(path):
    """The texts of *path*: one per row for the keyed statements."""
    template = STATEMENTS[path]
    if "%d" not in template:
        return [template]
    return [template % key for key in range(1, ROWS + 1)]


def _stack(data_dir):
    septic = Septic(mode=Mode.TRAINING)
    database = Database.recover(data_dir, septic=septic, wal_sync="batch",
                                wal_batch_commits=10 ** 6)
    database.seed(SCHEMA)
    database.run("INSERT INTO articles (title, body, section, views) VALUES "
                 + ", ".join("('title %d', 'body of %d', 's%d', %d)"
                             % (key, key, key % 3, key * 7 % 5)
                             for key in range(ROWS)))
    for path in PATHS:
        database.run(_texts(path)[0])           # trains the shape
    septic.mode = Mode.PREVENTION
    for path in PATHS:
        for _ in range(2):                      # verdicts, plans, L1
            for sql in _texts(path):
                database.run(sql)
    return database


def _python_calls(database, sql):
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        database.run(sql)
    finally:
        sys.setprofile(None)
    return calls


def _statement_costs(data_dir, samples=SAMPLES):
    """``{path: (median µs per statement, python calls)}``."""
    database = _stack(data_dir)
    costs = {}
    try:
        for path in PATHS:
            texts = _texts(path)
            timings = []
            for number in range(samples):
                sql = texts[number % len(texts)]
                start = time.thread_time_ns()
                [result] = database.run(sql)
                timings.append(time.thread_time_ns() - start)
                if path == "keyed update":
                    assert result.affected_rows == 1
                else:
                    assert result.result_set.rows
            costs[path] = (statistics.median(timings) / 1000.0,
                           _python_calls(database, texts[0]))
    finally:
        database.close()
    return costs


def test_statement_path(report, tmp_path):
    costs = _statement_costs(str(tmp_path))
    report.line("Warm statements on a %d-row table — median thread CPU "
                "per statement (%d runs each, SEPTIC in PREVENTION, "
                "batch-synced WAL)" % (ROWS, SAMPLES))
    report.line()
    report.table(["statement", "us per stmt", "python calls"],
                 [[path, "%.2f" % costs[path][0], costs[path][1]]
                  for path in PATHS],
                 widths=[16, 14, 14])
    for path in PATHS:
        name = path.replace(" ", "_")
        report.metric("stmt_" + name, round(costs[path][0], 3), "us",
                      kind="measured")
        report.metric("stmt_" + name + "_calls", costs[path][1], "calls",
                      kind="measured")
    point = costs["point select"][0]
    for path in PATHS[1:]:
        assert point < costs[path][0], (path, costs)
