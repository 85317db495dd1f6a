"""E18 — paged storage under pressure, as a regenerable artifact.

Four claims from the paged-storage work, measured in one artifact
(``out/BENCH_paged_storage.json``):

1. *Bounded residency* — a working set several times the buffer pool
   completes with ``pages_cached <= capacity`` throughout (the pool
   evicts, it never balloons).
2. *Warm-scan overhead* — once the working set is resident, full scans
   through the paged backend stay within 1.5x the in-memory backend.
3. *Scans with a write trickle* — scans over a table ten times an
   8-frame pool, an INSERT into a second table after every few, a
   checkpoint every few writes: the pool evicts clean pages first, so
   no scan steals the leaf a write dirtied and each write costs only
   its checkpoint's page writes.
4. *Crash + corruption sweeps* — kill-at-every-page-write/doublewrite
   offset over three seeds (0 lost commits, 0 phantom rows, every torn
   page repaired, kills inside spill writes included) and a seeded
   bit-flip sweep (100% detection, 0 false repairs).
"""

import shutil
import tempfile
import time

from repro.benchlab.crashsweep import (
    BITFLIP_SWEEP,
    PAGED_SWEEP,
    format_report,
    run_sweep,
)
from repro.sqldb.engine import Database

SWEEP_SEEDS = (1, 2, 3)

CREATE = ("CREATE TABLE t (id INT AUTO_INCREMENT PRIMARY KEY, "
          "name VARCHAR(40), qty INT)")
FILL = "INSERT INTO t (name, qty) VALUES ('payload-%04d-%s', %d)"


def _bounded_residency(workdir):
    """240 rows into 512-byte pages under a 4-frame pool."""
    db = Database.recover(workdir + "/residency", seed=1,
                          storage="paged", page_size=512, pool_pages=4)
    db.run(CREATE)
    peak = 0
    for i in range(240):
        db.run(FILL % (i, "x" * 12, i))
        peak = max(peak, db.storage_stats()["pages_cached"])
    stats = db.storage_stats()
    table_pages = len(db.tables["t"].store.pages())
    db.close()
    return peak, stats, table_pages


def _warm_scan(workdir):
    """Best-of timings for warm full scans, paged vs in-memory."""
    probe = "SELECT id, name, qty FROM t ORDER BY id"
    memory = Database.recover(workdir + "/mem", seed=1)
    paged = Database.recover(workdir + "/warm", seed=1,
                             storage="paged", page_size=4096,
                             pool_pages=64)
    for db in (memory, paged):
        db.run(CREATE)
        for i in range(200):
            db.run(FILL % (i, "x" * 12, i))

    def best_of(db, reps=5, scans=10):
        timings = []
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(scans):
                rows = db.run(probe)[0].result_set.rows
            timings.append((time.perf_counter() - start) / scans)
        return min(timings), rows

    best_of(paged, reps=1, scans=2)    # warm the pool
    mem_s, mem_rows = best_of(memory)
    paged_s, paged_rows = best_of(paged)
    memory.close()
    paged.close()
    assert paged_rows == mem_rows
    return mem_s, paged_s


TRICKLE_ROWS = 1200
TRICKLE_WRITES = 24
TRICKLE_SCANS = 3
TRICKLE_CHECKPOINT_EVERY = 8


def _write_trickle(workdir):
    """``scan_paged``'s shape in process: ``TRICKLE_ROWS`` rows on 4 KiB
    pages (ten times an 8-frame pool), three GROUP BY scans per audit
    INSERT, a checkpoint every eight INSERTs.  Page bytes are counted as
    the e2e harness counts them: pager writes x page size."""
    db = Database.recover(workdir + "/trickle", seed=1, storage="paged",
                          page_size=4096, pool_pages=8)
    db.run("CREATE TABLE orders (id INT PRIMARY KEY, status VARCHAR(10), "
           "amount INT, note VARCHAR(120))")
    db.run("CREATE TABLE audit (id INT PRIMARY KEY, order_id INT)")
    for start in range(0, TRICKLE_ROWS, 200):
        db.run("INSERT INTO orders (id, status, amount, note) VALUES "
               + ", ".join("(%d, '%s', %d, '%s')"
                           % (i, ("new", "paid", "sent")[i % 3], i,
                              "n" * (80 + i % 40))
                           for i in range(start, start + 200)))
    db.checkpoint()
    pool, pager = db.page_store.pool, db.page_store.pager
    steals, writes = pool.dirty_flushes, pager.writes
    for i in range(TRICKLE_WRITES):
        for _ in range(TRICKLE_SCANS):
            db.run("SELECT status, COUNT(*), SUM(amount) FROM orders "
                   "GROUP BY status")
        db.run("INSERT INTO audit (id, order_id) VALUES (%d, %d)" % (i, i))
        if (i + 1) % TRICKLE_CHECKPOINT_EVERY == 0:
            db.checkpoint()
    result = {
        "table_pages": len(db.tables["orders"].store.pages()),
        "capacity": pool.capacity,
        "steals": pool.dirty_flushes - steals,
        "page_writes": pager.writes - writes,
        "page_size": pager.page_size,
    }
    db.close()
    return result


def test_paged_storage(report, benchmark):
    workdir = tempfile.mkdtemp(prefix="paged-storage-")
    try:
        def run():
            residency = _bounded_residency(workdir)
            warm = _warm_scan(workdir)
            trickle = _write_trickle(workdir)
            crash = []
            for seed in SWEEP_SEEDS:
                start = time.perf_counter()
                crash.append((run_sweep(PAGED_SWEEP, workdir, seed),
                              time.perf_counter() - start))
            corrupt = [run_sweep(BITFLIP_SWEEP, workdir, seed, flips=6)
                       for seed in SWEEP_SEEDS]
            return residency, warm, trickle, crash, corrupt

        residency, warm, trickle, crash, corrupt = benchmark.pedantic(
            run, rounds=1, iterations=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak, stats, table_pages = residency
    mem_s, paged_s = warm
    ratio = paged_s / mem_s

    report.line("E18a — bounded residency: 240 rows into 512-byte pages "
                "under a 4-frame pool")
    report.line()
    report.line("table pages:        %d (%.1fx the pool)"
                % (table_pages, table_pages / float(stats["capacity"])))
    report.line("peak resident:      %d / %d frames"
                % (peak, stats["capacity"]))
    report.line("evictions:          %d" % stats["evictions"])
    report.line("dirty steals:       %d" % stats["dirty_flushes"])
    report.line()
    report.line("E18b — warm full scans, 200 rows (best of 5 x 10 scans)")
    report.line()
    report.line("in-memory backend:  %.3f ms/scan" % (mem_s * 1e3))
    report.line("paged (warm pool):  %.3f ms/scan" % (paged_s * 1e3))
    report.line("ratio:              %.2fx (budget 1.5x)" % ratio)
    report.line()
    page_bytes = trickle["page_writes"] * trickle["page_size"]
    report.line("E18c — scans with a write trickle: %d rows on %d pages "
                "(%.1fx an %d-frame pool), %d scans per INSERT, a "
                "checkpoint every %d INSERTs"
                % (TRICKLE_ROWS, trickle["table_pages"],
                   trickle["table_pages"] / float(trickle["capacity"]),
                   trickle["capacity"], TRICKLE_SCANS,
                   TRICKLE_CHECKPOINT_EVERY))
    report.line()
    report.line("acked writes:       %d" % TRICKLE_WRITES)
    report.line("steals:             %d" % trickle["steals"])
    report.line("page writes:        %d (%.3f per acked write)"
                % (trickle["page_writes"],
                   trickle["page_writes"] / float(TRICKLE_WRITES)))
    report.line("page bytes / write: %.0f (pager writes x page size)"
                % (page_bytes / float(TRICKLE_WRITES)))
    report.line()
    report.line("E18d — kill at every page-write/doublewrite offset, "
                "then seeded bit-flip corruption")
    report.line()
    for result, elapsed in crash:
        report.line("%s  (%.1fs)" % (format_report(result), elapsed))
    report.line()
    for result in corrupt:
        report.line(format_report(result))
    report.line()

    kills = sum(r.sites for r, _t in crash)
    lost = sum(1 for r, _t in crash
               for _site, tag, _detail in r.problems if tag == "digest")
    torn = sum(r.counters["torn_repaired"] for r, _t in crash)
    injected = sum(r.counters["injected"] for r in corrupt)
    detected = sum(r.counters["detected"] for r in corrupt)
    false_repairs = sum(r.counters["false_repairs"] for r in corrupt)
    report.line("total: %d kills, %d lost-or-phantom states, %d torn "
                "pages repaired; %d/%d flips detected, %d false repairs"
                % (kills, lost, torn, detected, injected, false_repairs))

    report.metric("table_pages_over_pool",
                  table_pages / float(stats["capacity"]), "ratio")
    report.metric("peak_resident_pages", peak, "pages")
    report.metric("evictions", stats["evictions"], "evictions")
    report.metric("warm_scan_ratio", round(ratio, 3), "x")
    report.metric("warm_scan_paged_ms", round(paged_s * 1e3, 3), "ms")
    report.metric("trickle_steals", trickle["steals"], "steals")
    report.metric("trickle_page_writes_per_write",
                  round(trickle["page_writes"] / float(TRICKLE_WRITES), 3),
                  "writes")
    report.metric("trickle_page_bytes_per_write",
                  round(page_bytes / float(TRICKLE_WRITES), 1), "bytes")
    report.metric("page_write_kills", kills, "kills")
    report.metric("lost_or_phantom_states", lost, "states")
    report.metric("torn_pages_repaired", torn, "pages")
    report.metric("bitflips_detected_pct",
                  100.0 * detected / injected if injected else 0.0, "%")
    report.metric("false_repairs", false_repairs, "repairs")

    assert table_pages >= 4 * stats["capacity"]
    assert peak <= stats["capacity"]
    assert stats["pages_cached"] <= stats["capacity"]
    assert stats["evictions"] > 0
    assert ratio <= 1.5, "warm paged scans %.2fx the in-RAM baseline" % ratio
    assert trickle["table_pages"] >= 10 * trickle["capacity"]
    assert trickle["steals"] == 0
    for result, _elapsed in crash:
        assert result.ok, format_report(result)
        assert result.sites == result.counters["raw_writes"] * 4
        assert result.counters["dirty_flushes"] > 0
    for result in corrupt:
        assert result.ok, format_report(result)
    assert torn > 0
    assert detected == injected
    assert false_repairs == 0
