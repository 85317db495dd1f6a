"""E13 — the crash-point sweep as a regenerable artifact.

Runs the exhaustive kill-at-every-byte sweep (see
``repro.benchlab.crashsweep``) over the three seeded workloads the test
suite pins, and writes the per-seed summaries to
``benchmarks/out/crash_sweep_artifact.txt``.  The numbers to look at:
*kill offsets* (= log bytes + 1 — every byte boundary was a crash) and
*mismatches* (must be 0: at every offset, recovery produced exactly the
committed prefix).
"""

import shutil
import tempfile
import time

from repro.benchlab.crashsweep import (WAL_BATCH_SWEEP, WAL_COMMIT_SWEEP,
                                       format_report, run_sweep)

SWEEPS = [
    (1, None),
    (2, 8),      # mid-workload checkpoint: covers snapshot+tail recovery
    (3, None),
]

# batch fsync mode widens the kill window: commits sit appended but
# unsynced until the group syncs, so the sweep additionally covers
# crashes inside that deferred-fsync backlog
BATCH_SWEEPS = [
    (1, None),
    (3, None),
]


def _tagged(result, invariant):
    """Problems of *result* carrying *invariant*."""
    return sum(1 for _site, tag, _detail in result.problems
               if tag == invariant)


def test_crash_sweep_artifact(report, benchmark):
    def run_sweeps():
        results = []
        workdir = tempfile.mkdtemp(prefix="crash-sweep-")
        try:
            for seed, checkpoint_after in SWEEPS:
                start = time.perf_counter()
                result = run_sweep(WAL_COMMIT_SWEEP, workdir, seed,
                                   checkpoint_after=checkpoint_after)
                results.append((result, time.perf_counter() - start))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return results

    results = benchmark.pedantic(run_sweeps, rounds=1, iterations=1)

    report.line("E13 — crash-point sweep: kill at every WAL byte offset, "
                "recover, compare")
    report.line()
    for result, elapsed in results:
        report.line("%s  (%.1fs)" % (format_report(result), elapsed))
    report.line()
    total_offsets = sum(r.sites for r, _t in results)
    lost_or_phantom = sum(_tagged(r, "digest") for r, _t in results)
    report.line("total: %d recoveries across %d workloads, "
                "%d lost-or-phantom states" % (
                    total_offsets, len(results), lost_or_phantom))
    report.metric("crash_recoveries", total_offsets, "recoveries")
    report.metric("lost_or_phantom_states", lost_or_phantom, "states")
    report.metric("index_mismatches_post_recovery",
                  sum(_tagged(r, "index") for r, _t in results),
                  "mismatches")

    for result, _elapsed in results:
        assert result.ok, format_report(result)
        assert result.sites == result.counters["log_bytes"] + 1
        assert result.counters["blocked"] >= 1


def test_crash_sweep_batch_sync(report):
    """The same sweep with ``sync_mode="batch"``: deferred group fsync
    must trade durability latency, never correctness — recovery still
    yields exactly the acknowledged-and-synced prefix at every byte."""
    results = []
    workdir = tempfile.mkdtemp(prefix="crash-sweep-batch-")
    try:
        for seed, checkpoint_after in BATCH_SWEEPS:
            start = time.perf_counter()
            result = run_sweep(WAL_BATCH_SWEEP, workdir, seed,
                               checkpoint_after=checkpoint_after)
            results.append((result, time.perf_counter() - start))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.line("E13b — crash-point sweep under batch (group) fsync")
    report.line()
    for result, elapsed in results:
        report.line("%s  (%.1fs)" % (format_report(result), elapsed))
    report.line()
    lost_or_phantom = sum(_tagged(r, "digest") for r, _t in results)
    backlog = max(r.counters["max_unsynced_backlog"] for r, _t in results)
    report.line("lost-or-phantom states: %d; deepest unsynced commit "
                "backlog crossed by a kill point: %d" % (
                    lost_or_phantom, backlog))
    report.metric("batch_lost_or_phantom_states", lost_or_phantom,
                  "states")
    report.metric("batch_max_unsynced_backlog", backlog, "commits")

    for result, _elapsed in results:
        assert result.ok, format_report(result)
        assert result.name == "wal-batch"
        assert result.sites == result.counters["log_bytes"] + 1
        # the batch kill window was actually exercised: at least one
        # point in the workload had multiple commits awaiting fsync
    assert backlog >= 1
