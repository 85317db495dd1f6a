"""E16 — MVCC mixed workload: writers never block readers.

Under MVCC, SELECTs take no table locks at all: readers pin a snapshot
watermark and walk the version chains, so a writer of the *same* table
never stalls them.  The claims are pinned as schedules, not multipliers:

* ``tests/sqldb/test_mvcc.py::TestParkedSchedules`` — a reader parked
  mid-scan lets a same-table writer commit and still returns its
  snapshot; a writer parked under its table X lock does not delay a
  reader, which sees the pre-write rows.  Each has a twin in which a
  planted SELECT table lock makes the other thread wait.
* ``TestWriteConflicts::test_pending_write_conflicts_with_second_writer``
  and ``::test_conflicting_statement_has_zero_partial_effects`` — the
  first writer wins, the second gets 1213 with zero partial effects.

This bench is the measured companion: 8 reader threads against a
same-table transfer writer on the real engine — no deadlock, and every
SELECT sees the transfer invariant (SUM constant) hold.
"""

import threading

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

READERS = 8


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
