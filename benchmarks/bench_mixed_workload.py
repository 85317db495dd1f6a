"""E16 — MVCC mixed workload: writers never block readers.

Under MVCC, SELECTs take no table locks at all: readers pin a snapshot
watermark and walk the version chains, so a long UPDATE of the *same*
table no longer stalls them.  This bench replays a read workload
against a concurrent same-table writer through the virtual-time
:class:`LockContentionModel` — once under ``lock_mode="shared"`` (the
MVCC lock plans: reads lock nothing, DML locks its target table) and
once under ``lock_mode="exclusive"`` (the model's serialized baseline).  Service
times are pinned so the only variable is the admitted schedule.

Gate: at 8 readers the MVCC schedule must carry at least 4× the
aggregate read throughput of the serialized baseline, and the readers
must finish while the writer is still running (true overlap, not just
reordering).

A real-thread section then drives the actual engine — 8 reader threads
against a same-table writer — to prove snapshot reads are never torn:
every SELECT sees the transfer invariant (SUM constant) hold.
"""

import threading

from repro.benchlab.harness import run_lock_experiment
from repro.sqldb.engine import Database

SETUP = (
    "CREATE TABLE accounts (id INT AUTO_INCREMENT PRIMARY KEY, "
    "owner VARCHAR(40), balance INT);"
    + "".join(
        "INSERT INTO accounts (owner, balance) VALUES ('user%d', 100);"
        % i
        for i in range(40)
    )
)

READ_WORKLOAD = [
    "SELECT * FROM accounts WHERE balance > 50",
    "SELECT owner, balance FROM accounts WHERE id = 7",
    "SELECT COUNT(*) FROM accounts",
    "SELECT owner FROM accounts WHERE balance BETWEEN 10 AND 160 "
    "ORDER BY balance LIMIT 5",
]

# the long same-table writer the readers must NOT wait behind
WRITER_SQL = "UPDATE accounts SET balance = balance + 1"

READERS = 8
LOOPS = 5


def test_mixed_workload(report):
    pinned = [0.001] * len(READ_WORKLOAD)
    mvcc = run_lock_experiment(
        SETUP, READ_WORKLOAD, WRITER_SQL, readers=READERS, loops=LOOPS,
        lock_mode="shared", reader_service=pinned, writer_service=1.0,
    )
    serialized = run_lock_experiment(
        SETUP, READ_WORKLOAD, WRITER_SQL, readers=READERS, loops=LOOPS,
        lock_mode="exclusive", reader_service=pinned, writer_service=1.0,
    )
    speedup = mvcc.speedup_vs(serialized)
    report.line("MVCC mixed workload — %d readers vs one same-table "
                "UPDATE (1 s service time)" % READERS)
    report.line()
    report.table(
        ["mode", "reads", "reader makespan", "writer makespan",
         "reads/s"],
        [
            ["mvcc", "%d" % mvcc.statements,
             "%.6f s" % mvcc.makespan,
             "%.6f s" % mvcc.writer_makespan,
             "%.0f" % mvcc.throughput],
            ["exclusive", "%d" % serialized.statements,
             "%.6f s" % serialized.makespan,
             "%.6f s" % serialized.writer_makespan,
             "%.0f" % serialized.throughput],
        ],
        widths=[12, 8, 18, 18, 12],
    )
    report.line()
    report.line("read throughput speedup at %d readers: %.2fx"
                % (READERS, speedup))
    report.line("readers overlapped the writer: %s"
                % mvcc.readers_overlapped_writer)
    report.metric("mixed_read_speedup_8w", round(speedup, 3), "x")
    report.metric("mvcc_reader_throughput_8w",
                  round(mvcc.throughput, 1), "stmts/s")
    report.metric("exclusive_reader_throughput_8w",
                  round(serialized.throughput, 1), "stmts/s")
    # acceptance gate: >= 4x read throughput with a same-table writer
    assert speedup >= 4.0, (
        "MVCC readers only reached %.2fx over the serialized baseline "
        "with a same-table writer (gate: 4x)" % speedup
    )
    # true overlap: readers drain while the 1 s writer is still running
    assert mvcc.readers_overlapped_writer
    assert not serialized.readers_overlapped_writer
    assert mvcc.statements == serialized.statements


def test_mixed_workload_real_threads(report):
    """8 reader threads vs a same-table writer on the real engine: no
    deadlock, and no reader ever observes a torn transfer."""
    database = Database()
    database.seed(SETUP)
    total = 40 * 100
    errors = []
    sums = []
    done = threading.Event()

    def reader():
        try:
            session = database.create_session()
            while not done.is_set():
                value = database.run(
                    "SELECT SUM(balance) FROM accounts",
                    session=session,
                )[0].result_set.scalar()
                sums.append(value)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def writer():
        try:
            session = database.create_session()
            for i in range(30):
                src, dst = (i % 40) + 1, ((i + 1) % 40) + 1
                database.run("BEGIN", session=session)
                database.run(
                    "UPDATE accounts SET balance = balance - 5 "
                    "WHERE id = %d" % src, session=session)
                database.run(
                    "UPDATE accounts SET balance = balance + 5 "
                    "WHERE id = %d" % dst, session=session)
                database.run("COMMIT", session=session)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=reader) for _ in range(READERS)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), "deadlock"
    assert not errors, errors
    # snapshot isolation: every read saw the invariant hold exactly
    torn = [value for value in sums if value != total]
    assert torn == [], "torn reads observed: %s" % torn[:5]
    report.line("8 reader threads vs same-table transfer writer: "
                "%d snapshot reads, 0 torn (SUM always %d)"
                % (len(sums), total))
    report.metric("real_thread_snapshot_reads", len(sums), "statements")
    report.metric("real_thread_torn_reads", len(torn), "statements")
