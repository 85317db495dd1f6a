"""E18 — paged storage under pressure, as a regenerable artifact.

Three claims from the paged-storage work, measured in one artifact
(``out/BENCH_paged_storage.json``):

1. *Bounded residency* — a working set several times the buffer pool
   completes with ``pages_cached <= capacity`` throughout (the pool
   evicts, it never balloons).
2. *Warm-scan overhead* — once the working set is resident, full scans
   through the paged backend stay within 1.5x the in-memory backend.
3. *Crash + corruption sweeps* — kill-at-every-page-write/doublewrite
   offset over three seeds (0 lost commits, 0 phantom rows, every torn
   page repaired) and a seeded bit-flip sweep (100% detection, 0 false
   repairs).
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


def test_paged_storage(report, benchmark):
    workdir = tempfile.mkdtemp(prefix="paged-storage-")
    try:
        def run():
            residency = _bounded_residency(workdir)
            warm = _warm_scan(workdir)
            crash = []
            for seed in SWEEP_SEEDS:
                start = time.perf_counter()
                crash.append((run_sweep(PAGED_SWEEP, workdir, seed),
                              time.perf_counter() - start))
            corrupt = [run_sweep(BITFLIP_SWEEP, workdir, seed, flips=6)
                       for seed in SWEEP_SEEDS]
            return residency, warm, crash, corrupt

        residency, warm, crash, corrupt = benchmark.pedantic(
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
    report.line("E18c — kill at every page-write/doublewrite offset, "
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
    for result, _elapsed in crash:
        assert result.ok, format_report(result)
        assert result.sites == result.counters["raw_writes"] * 4
    for result in corrupt:
        assert result.ok, format_report(result)
    assert torn > 0
    assert detected == injected
    assert false_repairs == 0
