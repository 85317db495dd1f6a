"""WAL durability cost: per-commit fsync vs group commit vs none.

The durability layer has one tunable that matters — *when to fsync* —
and this bench puts numbers on it over a write-heavy workload:

* ``no WAL``      — the in-memory engine, the absolute baseline;
* ``sync=off``    — full logging, never fsync (what the framing and
  replay machinery cost by themselves);
* ``sync=batch``  — fsync every 16 durability points (group commit);
* ``sync=commit`` — fsync at *every* durability point (the strict
  default the crash sweep is run under).

Times are wall-clock and environment-dependent; the fsync *counts* are
exact and asserted, so the artifact always shows the real trade:
batched mode buys back almost all of the per-commit fsync traffic at
the price of a bounded tail of acknowledged-but-unsynced commits.

A second section prices the checkpoint image — written whole at every
checkpoint — over a ``kv``-shaped table of 2 k and 20 k rows on memory
and paged storage: bytes on disk per row, the engine's checkpoint call
(``Database.checkpoint``: snapshot, encode, write, rotate — under
``sync=off``, so the time is the CPU's, not the disk's) and the image
load recovery starts from (``wal.load_checkpoint``).
"""

import os
import shutil
import tempfile
import time

from repro.sqldb import wal
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database

WRITES = 400
REPEATS = 3

CHECKPOINT_ROWS = (2000, 20000)
CHECKPOINT_REPEATS = 5
KV_SCHEMA = "CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(32), n INT)"

SCHEMA = ("CREATE TABLE readings (id INT AUTO_INCREMENT PRIMARY KEY, "
          "device VARCHAR(20), watts INT, taken DATETIME)")


def _run_writes(database):
    conn = Connection(database)
    conn.query_or_raise(SCHEMA)
    start = time.perf_counter()
    for index in range(WRITES):
        conn.query_or_raise(
            "INSERT INTO readings (device, watts, taken) "
            "VALUES ('dev-%d', %d, NOW())" % (index % 7, index)
        )
    elapsed = time.perf_counter() - start
    return elapsed, len(database.table("readings"))


def _measure(build):
    """Median elapsed over REPEATS fresh runs of *build* → (db, cleanup)."""
    samples = []
    rows = stats = None
    for _ in range(REPEATS):
        database, cleanup = build()
        try:
            elapsed, rows = _run_writes(database)
            stats = (database.wal.stats_dict()
                     if database.wal is not None else None)
        finally:
            database.close()
            cleanup()
        samples.append(elapsed)
    samples.sort()
    return samples[len(samples) // 2], rows, stats


def _durable_build(sync_mode):
    def build():
        tmp = tempfile.mkdtemp(prefix="wal-bench-")
        database = Database.recover(tmp, wal_sync=sync_mode)
        return database, lambda: shutil.rmtree(tmp, ignore_errors=True)
    return build


def _median_ms(action, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        samples.append(1e3 * (time.perf_counter() - start))
    samples.sort()
    return samples[len(samples) // 2]


def _measure_checkpoint(storage, rows):
    """``(image bytes, write ms, load ms)`` for a ``kv`` table of *rows*
    rows on *storage*; the times are medians after one warm-up
    checkpoint (which, on paged storage, also writes every page)."""
    tmp = tempfile.mkdtemp(prefix="wal-bench-")
    database = Database.recover(tmp, wal_sync="off", storage=storage)
    try:
        database.seed(KV_SCHEMA)
        table = database.table("kv")
        for key in range(rows):
            table.insert({"k": key, "v": "value-%06d" % key, "n": key * 7})
        database.checkpoint()
        write_ms = _median_ms(database.checkpoint, CHECKPOINT_REPEATS)
        image_bytes = os.path.getsize(wal.checkpoint_path(tmp))
        load_ms = _median_ms(lambda: wal.load_checkpoint(tmp),
                             CHECKPOINT_REPEATS)
        loaded = wal.load_checkpoint(tmp)["tables"][0]["rows"]
        assert len(loaded) == rows
    finally:
        database.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return image_bytes, write_ms, load_ms


def test_wal_overhead_artifact(report, benchmark):
    def run_measurements():
        results = {}
        results["none"] = _measure(lambda: (Database(), lambda: None))
        for mode in ("off", "batch", "commit"):
            results[mode] = _measure(_durable_build(mode))
        for storage in ("memory", "paged"):
            for rows in CHECKPOINT_ROWS:
                results[storage, rows] = _measure_checkpoint(storage, rows)
        return results

    results = benchmark.pedantic(run_measurements, rounds=1, iterations=1)

    base, _rows, _ = results["none"]
    rows = []
    for label, key in (("no WAL (baseline)", "none"),
                       ("WAL, sync=off", "off"),
                       ("WAL, batch of 16", "batch"),
                       ("WAL, per-commit", "commit")):
        elapsed, _count, stats = results[key]
        per_write_us = 1e6 * elapsed / (WRITES + 1)
        ratio = elapsed / base if base else 0.0
        fsyncs = stats["fsync_calls"] if stats else 0
        rows.append([label, "%.1f" % per_write_us, "%.2fx" % ratio,
                     str(fsyncs)])

    report.line("WAL durability overhead — %d autocommit INSERTs, "
                "median of %d runs" % (WRITES, REPEATS))
    report.line()
    report.table(["mode", "per write (us)", "vs baseline", "fsyncs"],
                 rows, widths=[22, 16, 14, 8])
    report.line()
    commit_stats = results["commit"][2]
    batch_stats = results["batch"][2]
    report.line("per-commit mode fsyncs once per durability point "
                "(%d); group commit collapses that to %d — the crash "
                "window it opens is bounded at 16 acknowledged commits."
                % (commit_stats["fsync_calls"],
                   batch_stats["fsync_calls"]))

    report.line()
    report.line("Checkpoint image — kv (k INT PRIMARY KEY, v VARCHAR(32), "
                "n INT), median of %d checkpoints after a warm-up"
                % CHECKPOINT_REPEATS)
    report.line()
    rows = []
    for storage in ("memory", "paged"):
        for count in CHECKPOINT_ROWS:
            image_bytes, write_ms, load_ms = results[storage, count]
            rows.append([storage, str(count), str(image_bytes),
                         "%.1f" % (image_bytes / count), "%.2f" % write_ms,
                         "%.2f" % load_ms])
            prefix = "checkpoint_%s_%dk_" % (storage, count // 1000)
            report.metric(prefix + "bytes_per_row",
                          round(image_bytes / count, 2), "bytes")
            report.metric(prefix + "write_ms", round(write_ms, 2), "ms")
            report.metric(prefix + "load_ms", round(load_ms, 2), "ms")
    report.table(["storage", "rows", "image bytes", "bytes/row",
                  "write (ms)", "load (ms)"], rows,
                 widths=[10, 8, 14, 12, 13, 12])

    for key in ("commit", "batch", "off"):
        if key in results and base:
            report.metric("wal_%s_vs_baseline" % key,
                          round(results[key][0] / base, 3), "x")
    # every mode wrote the same workload…
    assert all(results[key][1] == WRITES
               for key in ("none", "off", "batch", "commit"))
    # …and the sync disciplines did what they claim (counts are exact):
    # schema + 400 inserts = 401 durability points
    assert commit_stats["commits"] == WRITES + 1
    assert commit_stats["fsync_calls"] == WRITES + 1
    assert batch_stats["fsync_calls"] <= (WRITES + 1) // 16 + 2
    assert results["off"][2]["fsync_calls"] <= 1  # close() only
