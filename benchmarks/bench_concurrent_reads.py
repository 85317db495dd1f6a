"""E14 — concurrent read path: real threads on the real engine.

Since MVCC a SELECT takes no table lock: it pins a snapshot and reads
version chains, so readers overlap each other and any writer.  The
property itself is pinned as two parked-thread schedules in
``tests/sqldb/test_mvcc.py`` (``TestParkedSchedules``): a reader parked
mid-scan never holds back a same-table writer, a writer parked under
its table lock never delays a reader, and each has a twin in which a
planted SELECT table lock turns it red.  Under the GIL real threads do
not overlap CPU-bound statements, so this bench reports no speedup.

What it measures is safety under load: 8 OS threads (6 readers, 2
writers) drive the actual engine — no deadlock, no torn reads, lock
counters consistent.
"""

import threading
import time

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

WORKERS = 8


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
