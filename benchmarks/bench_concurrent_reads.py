"""E14a — concurrent read path: table-granular RW locks vs serialized.

The engine classifies every statement into a lock plan (catalog +
per-table reader–writer locks).  This bench replays a read-heavy
workload through the virtual-time :class:`LockContentionModel` — the
same discrete-event kernel BenchLab uses — once under ``lock_mode=
"shared"`` (the new hierarchy) and once under ``lock_mode="exclusive"``
(the model degrades every plan to catalog-exclusive: the old serialized
engine).  Service times are measured once on the real engine and pinned
across both runs, so the only variable is the admitted schedule.

Gate: at 8 workers the shared schedule must carry at least 2× the
aggregate SELECT throughput of the serialized baseline.

A real-thread section then drives the actual engine from 8 Python
threads (readers + a writer) to prove the lock hierarchy is safe, not
just fast-on-paper: no deadlock, no torn reads, counters consistent.
"""

import threading
import time

from repro.benchlab.harness import run_lock_experiment
from repro.sqldb.engine import Database

SETUP = (
    "CREATE TABLE accounts (id INT AUTO_INCREMENT PRIMARY KEY, "
    "owner VARCHAR(40), balance INT);"
    "CREATE TABLE audit (id INT AUTO_INCREMENT PRIMARY KEY, "
    "note VARCHAR(60));"
    + "".join(
        "INSERT INTO accounts (owner, balance) VALUES ('user%d', %d);"
        % (i, i * 7 % 101)
        for i in range(40)
    )
)

READ_WORKLOAD = [
    "SELECT * FROM accounts WHERE balance > 50",
    "SELECT owner, balance FROM accounts WHERE id = 7",
    "SELECT COUNT(*) FROM accounts",
    "SELECT owner FROM accounts WHERE balance BETWEEN 10 AND 60 "
    "ORDER BY balance LIMIT 5",
]

WORKERS = 8


def test_concurrent_read_speedup(report):
    # measure real service times once, pin them for both schedules so
    # the only difference between the runs is the admitted schedule
    base = run_lock_experiment(
        SETUP, READ_WORKLOAD, readers=1, loops=1, lock_mode="shared"
    )
    per_stmt = base.service_total / max(base.statements, 1)
    pinned = [per_stmt] * len(READ_WORKLOAD)
    shared = run_lock_experiment(
        SETUP, READ_WORKLOAD, readers=WORKERS, loops=6,
        lock_mode="shared", reader_service=pinned,
    )
    serialized = run_lock_experiment(
        SETUP, READ_WORKLOAD, readers=WORKERS, loops=6,
        lock_mode="exclusive", reader_service=pinned,
    )
    speedup = shared.speedup_vs(serialized)
    report.line("Concurrent read path — %d workers, pure-SELECT workload"
                % WORKERS)
    report.line()
    report.table(
        ["mode", "statements", "makespan", "stmts/s"],
        [
            ["shared", "%d" % shared.statements,
             "%.6f s" % shared.makespan, "%.0f" % shared.throughput],
            ["exclusive", "%d" % serialized.statements,
             "%.6f s" % serialized.makespan,
             "%.0f" % serialized.throughput],
        ],
    )
    report.line()
    report.line("aggregate SELECT speedup at %d workers: %.2fx"
                % (WORKERS, speedup))
    report.metric("concurrent_read_speedup_8w", round(speedup, 3), "x")
    report.metric("shared_throughput_8w", round(shared.throughput, 1),
                  "stmts/s")
    report.metric("exclusive_throughput_8w",
                  round(serialized.throughput, 1), "stmts/s")
    # the acceptance gate: >= 2x aggregate SELECT throughput
    assert speedup >= 2.0, (
        "shared lock hierarchy only reached %.2fx over the serialized "
        "baseline (gate: 2x)" % speedup
    )
    # both schedules must have run the identical statement count
    assert shared.statements == serialized.statements


def test_mixed_workload_still_overlaps(report):
    """Writers serialize per table; reads of *other* tables proceed."""
    workload = READ_WORKLOAD + [
        "INSERT INTO audit (note) VALUES ('checkpointed')",
    ]
    pinned = [0.001] * len(workload)
    shared = run_lock_experiment(
        SETUP, workload, readers=WORKERS, loops=4,
        lock_mode="shared", reader_service=pinned,
    )
    serialized = run_lock_experiment(
        SETUP, workload, readers=WORKERS, loops=4,
        lock_mode="exclusive", reader_service=pinned,
    )
    speedup = shared.speedup_vs(serialized)
    report.line("Mixed workload (4 reads + 1 insert per loop), %d workers"
                % WORKERS)
    report.line("speedup vs serialized: %.2fx" % speedup)
    report.metric("mixed_workload_speedup_8w", round(speedup, 3), "x")
    # the audit-table writer excludes itself only; accounts readers
    # still overlap, so the mixed schedule must beat serialized clearly
    assert speedup >= 2.0


def test_real_threads_correctness(report):
    """8 OS threads against the real engine: safety, not throughput."""
    database = Database()
    database.seed(SETUP)
    errors = []
    read_rows = []

    def reader():
        try:
            session = database.create_session()
            for _ in range(30):
                rows = database.run(
                    "SELECT * FROM accounts WHERE balance >= 0",
                    session=session,
                )[0].result_set.rows
                # a statement-consistent read never sees a torn table
                read_rows.append(len(rows))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def writer():
        try:
            session = database.create_session()
            for i in range(30):
                database.run(
                    "INSERT INTO audit (note) VALUES ('w%d')" % i,
                    session=session,
                )
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(WORKERS - 2)]
    threads += [threading.Thread(target=writer) for _ in range(2)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    elapsed = time.perf_counter() - start
    assert not any(thread.is_alive() for thread in threads), "deadlock"
    assert not errors, errors
    # accounts is never written: every read must see all 40 rows
    assert set(read_rows) == {40}
    audit = database.run("SELECT COUNT(*) FROM audit")[0]
    assert audit.result_set.rows[0][0] == 60
    stats = database.lock_manager.stats()
    assert stats["read_acquires"] > 0
    assert stats["write_acquires"] >= 60
    report.line("8 real threads (6 readers, 2 writers): %d reads, "
                "60 writes, %.3f s wall, no errors"
                % (len(read_rows), elapsed))
    report.line("lock stats: %d shared grants, %d exclusive grants, "
                "%d contended"
                % (stats["read_acquires"], stats["write_acquires"],
                   stats["contended"]))
    report.metric("real_thread_reads", len(read_rows), "statements")
