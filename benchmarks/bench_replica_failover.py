"""E17 — WAL-shipping replication: failover sweep + read scale-out DES.

Two artifacts in one run:

1. the **kill-the-primary-at-every-commit sweep**
   (``repro.benchlab.crashsweep.FAILOVER_SWEEP``) over three seeded
   workloads (including the SEPTIC-blocked-write one): at every commit
   boundary the primary is crashed, the lease expires in virtual time,
   and the election must pick the max-applied-LSN replica whose state
   equals the golden digest at that boundary — zero committed
   transactions lost, zero phantoms — while a fenced zombie primary's
   post-promotion shipments are all rejected;
2. the **failover DES** (``repro.benchlab.harness.run_failover_experiment``):
   replica-served read throughput before/during/after the primary dies,
   against a single-node baseline run under identical pinned service
   times.  Gates: pre-failover read throughput >= 2x the baseline, and
   write service restored within ``lease_intervals + 2`` heartbeat
   intervals of the kill.
"""

import shutil
import tempfile
import time

from repro.benchlab.crashsweep import (FAILOVER_SWEEP, format_report,
                                       run_sweep)
from repro.benchlab.harness import run_failover_experiment

SWEEP_SEEDS = [1, 2, 3]

READ_SERVICE = 2e-3
HEARTBEAT_SECONDS = 0.05
LEASE_INTERVALS = 3
REPLICAS = 3
FAIL_AT = 1.0
DURATION = 3.0


def test_replica_failover(report, benchmark):
    def run_all():
        sweeps = []
        workdir = tempfile.mkdtemp(prefix="replica-failover-")
        try:
            for seed in SWEEP_SEEDS:
                start = time.perf_counter()
                result = run_sweep(FAILOVER_SWEEP, workdir, seed)
                sweeps.append((result, time.perf_counter() - start))
            des = run_failover_experiment(
                workdir + "/des", replicas=REPLICAS, readers=8,
                read_service=READ_SERVICE,
                heartbeat_seconds=HEARTBEAT_SECONDS,
                lease_intervals=LEASE_INTERVALS,
                fail_at=FAIL_AT, duration=DURATION)
            baseline = run_failover_experiment(
                workdir + "/baseline", replicas=0, readers=8,
                read_service=READ_SERVICE,
                heartbeat_seconds=HEARTBEAT_SECONDS,
                lease_intervals=LEASE_INTERVALS,
                fail_at=DURATION + 1.0, duration=DURATION)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return sweeps, des, baseline

    sweeps, des, baseline = benchmark.pedantic(run_all, rounds=1,
                                               iterations=1)

    report.line("E17 — WAL-shipping replication with heartbeat-driven "
                "automatic failover")
    report.line()
    report.line("kill-the-primary-at-every-commit sweep:")
    for result, elapsed in sweeps:
        report.line("  %s  (%.1fs)" % (format_report(result), elapsed))
        assert result.ok, format_report(result)
    kills = sum(r.counters["kills"] for r, _t in sweeps)
    fenced = sum(r.counters["fenced_rejects"] for r, _t in sweeps)
    report.line("  total: %d primary kills, 0 lost commits, 0 phantoms, "
                "%d zombie batches fenced" % (kills, fenced))
    report.line()

    speedup = des.throughput_before / baseline.throughput_before
    report.line("failover DES (%d replicas, %d readers, read service "
                "%.1f ms, heartbeat %.0f ms, lease %d intervals):"
                % (des.replicas, des.readers, READ_SERVICE * 1e3,
                   HEARTBEAT_SECONDS * 1e3, LEASE_INTERVALS))
    report.table(
        ["phase", "reads", "reads/s"],
        [("before kill", des.reads_before, "%.0f" % des.throughput_before),
         ("during outage", des.reads_during,
          "%.0f" % des.throughput_during),
         ("after promote", des.reads_after,
          "%.0f" % des.throughput_after),
         ("single node", baseline.reads_before,
          "%.0f" % baseline.throughput_before)],
        widths=[16, 10, 10],
    )
    report.line("  read scale-out before failover: %.2fx single node"
                % speedup)
    report.line("  write outage: %.1f heartbeat intervals "
                "(promotion at t=%.2fs, first write back at t=%.2fs)"
                % (des.outage_intervals, des.promote_time,
                   des.restore_time))
    report.line("  acknowledged rows after failover: %d/%d, survivors "
                "converged: %s" % (des.rows_on_primary, des.rows_expected,
                                   des.converged))

    assert speedup >= 2.0, "read scale-out %.2fx < 2x" % speedup
    assert des.promotions == 1
    assert des.outage_intervals is not None
    assert des.outage_intervals <= LEASE_INTERVALS + 2, (
        "write outage %.1f intervals exceeds lease + 2"
        % des.outage_intervals)
    assert des.converged, ("survivors diverged: %d/%d rows"
                           % (des.rows_on_primary, des.rows_expected))

    report.metric("primary_kills", kills, "kills")
    report.metric("lost_commits", 0, "transactions")
    report.metric("zombie_batches_fenced", fenced, "batches")
    report.metric("read_scaleout_pre_failover", round(speedup, 2), "x")
    report.metric("write_outage", round(des.outage_intervals, 2),
                  "heartbeat intervals")
