"""Socket front-end throughput: pipelining + pooling vs round trips,
and group-commit fsync amortization.

Two headline gates for the socket front end:

* **pipelined+pooled ≥ 3× one-query-per-round-trip** at 8 concurrent
  client threads — the baseline is the unoptimized web-tier client: a
  fresh connection per query (no pooling), one command per round trip
  (no pipelining).  The pooled side reuses connections and statement
  handles; the pipelined side ships a 16-command window as one coalesced
  send, one server-side batch and one response burst.  The persistent
  round-trip discipline (keep the connection, still one query per round
  trip) is reported alongside to split the two contributions;
* **group-commit fsyncs ≤ ¼ of per-commit mode** for the same write
  workload — concurrent commits coalesce into shared fsyncs, and an OK
  frame is still only written after the fsync covering it.
"""

import shutil
import tempfile
import threading
import time

from repro.net.client import NetClient
from repro.net.pool import ConnectionPool
from repro.net.server import NetServer
from repro.sqldb.engine import Database

SCHEMA = """
CREATE TABLE tickets (
    id INT PRIMARY KEY AUTO_INCREMENT,
    reservID VARCHAR(20),
    creditCard INT
);
INSERT INTO tickets (reservID, creditCard) VALUES
    ('ID34FG', 1234), ('ZZ11AA', 9999), ('QQ77MM', 4321);
"""

CONNECTIONS = 8
QUERIES_PER_CONNECTION = 150
WINDOW = 16

#: the hot-path query: literal text, so repeat sends ride the pipeline
#: cache — both disciplines get the same warm engine
HOT_QUERY = "SELECT reservID, creditCard FROM tickets WHERE id = 1"


def _run_threads(worker):
    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(CONNECTIONS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def _naive_qps(server):
    """The unoptimized client: a fresh connection per query, one query
    per round trip (the PHP-without-persistent-connections shape)."""
    errors = []

    def worker(_index):
        try:
            for _ in range(QUERIES_PER_CONNECTION):
                with NetClient(server.host, server.port) as client:
                    assert client.query(HOT_QUERY).ok
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    elapsed = _run_threads(worker)
    assert not errors, errors
    return CONNECTIONS * QUERIES_PER_CONNECTION / elapsed


def _round_trip_qps(server):
    """Persistent connection, still one query per round trip."""
    errors = []

    def worker(_index):
        try:
            with NetClient(server.host, server.port) as client:
                for _ in range(QUERIES_PER_CONNECTION):
                    outcome = client.query(HOT_QUERY)
                    assert outcome.ok
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    elapsed = _run_threads(worker)
    assert not errors, errors
    return CONNECTIONS * QUERIES_PER_CONNECTION / elapsed


def _pipelined_qps(server, pool):
    """Windowed pipelining over pooled connections."""
    errors = []

    def worker(_index):
        try:
            with pool.connection() as client:
                remaining = QUERIES_PER_CONNECTION
                while remaining:
                    burst = min(WINDOW, remaining)
                    for _ in range(burst):
                        client.send_query(HOT_QUERY)
                    for outcome in client.drain(burst):
                        assert outcome.ok
                    remaining -= burst
        except Exception as exc:
            errors.append(exc)

    elapsed = _run_threads(worker)
    assert not errors, errors
    return CONNECTIONS * QUERIES_PER_CONNECTION / elapsed


def _commit_fsyncs(wal_sync, batch_commits=1):
    """Run the same concurrent write workload against a durable server
    in *wal_sync* mode; returns (fsync_calls, commits)."""
    data_dir = tempfile.mkdtemp(prefix="bench-net-")
    try:
        database = Database.recover(data_dir, wal_sync=wal_sync,
                                    wal_batch_commits=batch_commits)
        for statement in SCHEMA.strip().rstrip(";").split(";"):
            database.run(statement)
        wal = database.wal
        fsyncs_before = wal.fsync_calls
        commits_before = wal.commits
        errors = []
        with NetServer(database) as server:
            def worker(index):
                try:
                    with NetClient(server.host, server.port) as client:
                        for turn in range(25):
                            client.send_query(
                                "INSERT INTO tickets (reservID, creditCard)"
                                " VALUES ('W%d_%d', %d)"
                                % (index, turn, turn)
                            )
                        for outcome in client.drain():
                            assert outcome.ok
                except Exception as exc:
                    errors.append(exc)

            _run_threads(worker)
        assert not errors, errors
        database.close()
        return (wal.fsync_calls - fsyncs_before,
                wal.commits - commits_before)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def test_net_throughput(report):
    database = Database()
    database.seed(SCHEMA)
    with NetServer(database) as server:
        naive_qps = _naive_qps(server)
        rt_qps = _round_trip_qps(server)
        pool = ConnectionPool(server.host, server.port, size=CONNECTIONS,
                              server=server)
        try:
            piped_qps = _pipelined_qps(server, pool)
        finally:
            pool.close()
        stats = server.stats_dict()

    speedup = piped_qps / naive_qps

    batch_fsyncs, batch_commits = _commit_fsyncs("batch",
                                                 batch_commits=10 ** 6)
    percommit_fsyncs, percommit_commits = _commit_fsyncs("commit")
    assert batch_commits == percommit_commits
    fsync_ratio = batch_fsyncs / max(1, percommit_fsyncs)

    report.line("socket front end @ %d connections, %d queries each"
                % (CONNECTIONS, QUERIES_PER_CONNECTION))
    report.line()
    report.table(
        ("discipline", "qps", "speedup"),
        (("connect-per-query", "%.0f" % naive_qps, "1.00x"),
         ("persistent round-trip", "%.0f" % rt_qps,
          "%.2fx" % (rt_qps / naive_qps)),
         ("pipelined+pooled", "%.0f" % piped_qps, "%.2fx" % speedup)),
        widths=(24, 12, 10),
    )
    report.line()
    report.line("server: %d commands in %d batches"
                % (stats["commands"], stats["batches"]))
    report.line()
    report.line("group commit (%d commits across %d connections):"
                % (batch_commits, CONNECTIONS))
    report.table(
        ("wal mode", "fsyncs", "per commit"),
        (("per-commit", percommit_fsyncs,
          "%.2f" % (percommit_fsyncs / max(1, percommit_commits))),
         ("group-commit", batch_fsyncs,
          "%.2f" % (batch_fsyncs / max(1, batch_commits)))),
        widths=(14, 10, 12),
    )

    report.metric("connect_per_query_qps", round(naive_qps, 1),
                  "queries/s")
    report.metric("round_trip_qps", round(rt_qps, 1), "queries/s")
    report.metric("pipelined_qps", round(piped_qps, 1), "queries/s")
    report.metric("pipelining_speedup", round(speedup, 2), "x")
    report.metric("group_commit_fsyncs", batch_fsyncs, "fsyncs")
    report.metric("per_commit_fsyncs", percommit_fsyncs, "fsyncs")
    report.metric("fsync_ratio", round(fsync_ratio, 3), "fraction")

    # the PR's acceptance gates
    assert speedup >= 3.0, "pipelining speedup %.2fx below 3x" % speedup
    assert fsync_ratio <= 0.25, (
        "group commit used %d fsyncs vs %d per-commit (ratio %.2f > 0.25)"
        % (batch_fsyncs, percommit_fsyncs, fsync_ratio)
    )
