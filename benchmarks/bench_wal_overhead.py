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
and paged storage, and over ``scan_paged``'s three tables (the e2e
workload's own load, plus an audit trickle): bytes on disk per row, the
engine's checkpoint call (``Database.checkpoint``: snapshot, encode,
write, rotate — under ``sync=off``, so the time is the CPU's, not the
disk's) and the image load recovery starts from
(``wal.load_checkpoint``), at each zlib level of ``IMAGE_LEVELS``.  It
also times, in process CPU, the checkpoint ``scan_paged`` takes after
each audit INSERT (one dirty leaf, a doublewrite batch, the image).

A third prices the log record itself, over every record of a mixed
workload (autocommit INSERTs and UPDATEs with ``NOW()``, transactions
committed and rolled back): framed bytes per record by kind, the
encode of a record from its fields and the decode of its payload (µs
per record), and ``wal.scan_log`` over a log of 10 k such records.
"""

import itertools
import os
import random
import shutil
import sys
import tempfile
import time

from repro.sqldb import wal
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.storage import image_rows

WRITES = 400
REPEATS = 3

CHECKPOINT_REPEATS = 5
KV_SCHEMA = "CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(32), n INT)"
#: zlib levels the image section compares (the engine writes
#: ``wal._IMAGE_LEVEL``)
IMAGE_LEVELS = (1, 6)
#: audit rows on top of ``scan_paged``'s load (a few slices' trickle)
AUDIT_ROWS = 300

SCHEMA = ("CREATE TABLE readings (id INT AUTO_INCREMENT PRIMARY KEY, "
          "device VARCHAR(20), watts INT, taken DATETIME)")

LOG_RECORDS = 10000
CODEC_REPEATS = 5
#: the frame header: u32 length + u32 CRC32
FRAME_HEADER_BYTES = 8


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


def _median_ms(action, repeats, clock=time.perf_counter):
    samples = []
    for _ in range(repeats):
        start = clock()
        action()
        samples.append(1e3 * (clock() - start))
    samples.sort()
    return samples[len(samples) // 2]


def _load_kv(rows):
    def load(database):
        database.seed(KV_SCHEMA)
        table = database.table("kv")
        for key in range(rows):
            table.insert({"k": key, "v": "value-%06d" % key,
                          "n": key * 7})
        return rows
    return load


def _scan_paged_module():
    """``benchmarks/e2e/wl_scan_paged.py``, imported read-only for its
    schema and seeded load."""
    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "e2e"))
    try:
        import wl_scan_paged
    finally:
        sys.path.pop(0)
    return wl_scan_paged


def _load_scan_paged(database):
    """``scan_paged``'s tables as its workload loads them, and an audit
    trickle; returns the row count."""
    workload = _scan_paged_module()
    conn = Connection(database)
    for statement in workload.SCHEMA + tuple(workload.load_statements(1.0)):
        conn.query_or_raise(statement)
    orders, customers = workload.sizes(1.0)
    rng = random.Random(5)
    for audit_id in range(AUDIT_ROWS):
        conn.query_or_raise(workload.AUDIT_SQL
                            % (audit_id, rng.randrange(orders)))
    return orders + customers + AUDIT_ROWS


#: image data sets: (label, storage options, loader); ``scan_paged``
#: on its workload's pages and pool
IMAGE_DATA = [
    ("kv 2k, memory", {"storage": "memory"}, _load_kv(2000)),
    ("kv 20k, memory", {"storage": "memory"}, _load_kv(20000)),
    ("kv 2k, paged", {"storage": "paged"}, _load_kv(2000)),
    ("kv 20k, paged", {"storage": "paged"}, _load_kv(20000)),
    ("scan_paged, paged", {"storage": "paged",
                           "page_size": _scan_paged_module().PAGE_SIZE,
                           "pool_pages": _scan_paged_module().POOL_PAGES},
     _load_scan_paged),
]


def _measure_checkpoint(options, load, level):
    """``(rows, image bytes, write ms, load ms, audit checkpoint CPU ms)``
    for the tables *load* fills in a database opened with *options*,
    the image packed at zlib *level*; the times are medians after one
    warm-up checkpoint (which, on paged storage, also writes every
    page).  The last is ``None`` but for ``scan_paged``'s tables."""
    tmp = tempfile.mkdtemp(prefix="wal-bench-")
    saved = wal._IMAGE_LEVEL
    wal._IMAGE_LEVEL = level
    database = Database.recover(tmp, wal_sync="off", **options)
    try:
        rows = load(database)
        database.checkpoint()
        write_ms = _median_ms(database.checkpoint, CHECKPOINT_REPEATS)
        image_bytes = os.path.getsize(wal.checkpoint_path(tmp))
        load_ms = _median_ms(lambda: wal.load_checkpoint(tmp),
                             CHECKPOINT_REPEATS)
        tables = wal.load_checkpoint(tmp)["tables"]
        assert sum(len(table.value_rows()) for table in
                   database.tables.values()) == rows == sum(
            len(image_rows(table)) for table in tables)
        audit_ms = None
        if "audit" in database.tables:
            conn = Connection(database)
            ids = itertools.count(AUDIT_ROWS)

            def audited_checkpoint():
                conn.query_or_raise(
                    "INSERT INTO audit (id, order_id, action) "
                    "VALUES (%d, 1, 'viewed')" % next(ids))
                database.checkpoint()

            audit_ms = _median_ms(audited_checkpoint, 3 * CHECKPOINT_REPEATS,
                                  clock=time.process_time)
    finally:
        wal._IMAGE_LEVEL = saved
        database.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return rows, image_bytes, write_ms, load_ms, audit_ms


def _sample_records():
    """Every log record of a small mixed workload."""
    tmp = tempfile.mkdtemp(prefix="wal-bench-")
    database = Database.recover(tmp, wal_sync="off")
    try:
        conn = Connection(database)
        conn.query_or_raise(SCHEMA)
        for block in range(40):
            in_tx = block % 4 == 0
            if in_tx:
                conn.query_or_raise("BEGIN")
            for index in range(4):
                conn.query_or_raise(
                    "INSERT INTO readings (device, watts, taken) "
                    "VALUES ('dev-%d', %d, NOW())" % (index, block + index))
            conn.query_or_raise("UPDATE readings SET watts = watts + 1 "
                                "WHERE id = %d" % (block + 1))
            if in_tx:
                conn.query_or_raise("ROLLBACK" if block % 8 else "COMMIT")
        database.close()
        return wal.scan_log(wal.log_path(tmp)).records
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _encode(record):
    """*record* encoded from its fields (a fresh record: nothing cached)."""
    return wal.WalRecord(record.lsn, record.op, tx=record.tx,
                         sql=record.sql, clock=record.clock,
                         rand=record.rand, failed=record.failed,
                         undone=record.undone).payload


def _per_record_us(action, items):
    """Median over CODEC_REPEATS passes of *action* over *items*, in µs
    per item."""
    samples = []
    for _ in range(CODEC_REPEATS):
        start = time.perf_counter()
        for item in items:
            action(item)
        samples.append(1e6 * (time.perf_counter() - start) / len(items))
    samples.sort()
    return samples[len(samples) // 2]


def _measure_log_records():
    """``(framed bytes by kind, encode µs, decode µs, 10 k-record log
    bytes, scan ms)``."""
    records = _sample_records()
    framed = {}
    for record in records:
        framed.setdefault(record.op, []).append(
            FRAME_HEADER_BYTES + len(_encode(record)))
    payloads = [_encode(record) for record in records]
    encode_us = _per_record_us(_encode, records)
    decode_us = _per_record_us(wal.WalRecord.from_payload, payloads)
    tmp = tempfile.mkdtemp(prefix="wal-bench-")
    try:
        log = wal.WriteAheadLog(tmp, sync_mode="off")
        for index in range(LOG_RECORDS):
            record = records[index % len(records)]
            log.append(record.op, tx=record.tx, sql=record.sql,
                       clock=record.clock, rand=record.rand,
                       failed=record.failed)
        log.close()
        path = wal.log_path(tmp)
        log_bytes = os.path.getsize(path)
        scan_ms = _median_ms(lambda: wal.scan_log(path), CODEC_REPEATS)
        assert len(wal.scan_log(path).records) == LOG_RECORDS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return framed, encode_us, decode_us, log_bytes, scan_ms


def test_wal_overhead_artifact(report, benchmark):
    def run_measurements():
        results = {}
        results["none"] = _measure(lambda: (Database(), lambda: None))
        for mode in ("off", "batch", "commit"):
            results[mode] = _measure(_durable_build(mode))
        for level in IMAGE_LEVELS:
            for label, options, load in IMAGE_DATA:
                results[label, level] = _measure_checkpoint(options, load,
                                                            level)
        results["records"] = _measure_log_records()
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
                "n INT) and scan_paged's customers / orders / audit, "
                "median of %d checkpoints after a warm-up, at zlib "
                "levels %s (the engine writes level %d)"
                % (CHECKPOINT_REPEATS, " and ".join(map(str, IMAGE_LEVELS)),
                   wal._IMAGE_LEVEL))
    report.line()
    rows = []
    for level in IMAGE_LEVELS:
        for label, _options, _load in IMAGE_DATA:
            count, image_bytes, write_ms, load_ms, _audit = results[
                label, level]
            rows.append([str(level), label, str(count), str(image_bytes),
                         "%.2f" % (image_bytes / count), "%.2f" % write_ms,
                         "%.2f" % load_ms])
            prefix = "image_level%d_%s_" % (
                level, label.replace(",", "").replace(" ", "_"))
            report.metric(prefix + "bytes", image_bytes, "bytes")
            report.metric(prefix + "write_ms", round(write_ms, 2), "ms")
            report.metric(prefix + "load_ms", round(load_ms, 2), "ms")
    report.table(["level", "data", "rows", "image bytes", "bytes/row",
                  "write (ms)", "load (ms)"], rows,
                 widths=[7, 20, 8, 13, 11, 12, 10])
    report.line()
    audit = {level: results["scan_paged, paged", level][4]
             for level in IMAGE_LEVELS}
    report.line("scan_paged's checkpoint after one audit INSERT, median "
                "of %d, process CPU: %s"
                % (3 * CHECKPOINT_REPEATS, ", ".join(
                    "%.2f ms at level %d" % (audit[level], level)
                    for level in IMAGE_LEVELS)))
    for level in IMAGE_LEVELS:
        report.metric("scan_paged_checkpoint_cpu_ms_level%d" % level,
                      round(audit[level], 2), "ms")

    framed, encode_us, decode_us, log_bytes, scan_ms = results["records"]
    count = sum(len(sizes) for sizes in framed.values())
    report.line()
    report.line("Log records — the %d records of a mixed workload "
                "(autocommit INSERT / UPDATE with NOW(), transactions "
                "committed and rolled back), median of %d passes"
                % (count, CODEC_REPEATS))
    report.line()
    rows = []
    for kind in ("stmt", "begin", "commit", "rollback", "all"):
        sizes = (sum(framed.values(), []) if kind == "all"
                 else framed.get(kind, []))
        if not sizes:
            continue
        per_record = sum(sizes) / len(sizes)
        rows.append([kind, str(len(sizes)), "%.1f" % per_record])
        report.metric("log_bytes_per_record_%s" % kind,
                      round(per_record, 1), "bytes")
    report.table(["kind", "records", "framed bytes/record"], rows,
                 widths=[10, 10, 22])
    report.line()
    report.line("encode %.2f us / record, decode %.2f us / record; a "
                "%d-record log is %d bytes and scan_log reads it in %.1f ms"
                % (encode_us, decode_us, LOG_RECORDS, log_bytes, scan_ms))
    report.metric("log_encode_us", round(encode_us, 2), "us")
    report.metric("log_decode_us", round(decode_us, 2), "us")
    report.metric("log_10k_bytes", log_bytes, "bytes")
    report.metric("log_scan_10k_ms", round(scan_ms, 1), "ms")

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
