"""Sharded scale-out: routed throughput vs fleet size, gather memory,
and the kill-a-primary-at-every-boundary crash sweep.

Three headline gates for the sharding PR:

* **≥ 3× single-shard-routed throughput at 4 shards** — the virtual-time
  DES (:func:`repro.benchlab.harness.run_scaleout_experiment`) prices
  each shard as a serial FIFO and routes seeded keys through the *real*
  partitioning function, with a 5% scatter tax that occupies every
  shard;
* **cross-shard TopK materializes O(limit), not O(rows)** — the
  merge-``TopK`` gather keeps a bounded heap of ``LIMIT+OFFSET``
  entries per statement regardless of how many rows the shards stream
  up;
* **the sharded crash sweep is clean across 3 seeds** — killing any
  shard's primary at every commit boundary, with a scatter read issued
  mid-failover each time, loses no acked row, resurrects no unacked
  row, and never serves a torn cross-shard snapshot.
"""

import shutil
import tempfile

from repro.benchlab.crashsweep import (
    SHARDED_SWEEP,
    format_report,
    run_sweep,
)
from repro.benchlab.harness import run_scaleout_experiment
from repro.shard import ShardRouter

SWEEP_SEEDS = (7, 11, 23)
TOPK_ROWS = 240
TOPK_LIMIT = 5


def _routed_workload(router):
    """A keyed-heavy mixed workload through the router; returns the
    single-shard route fraction."""
    router.query_or_raise(
        "CREATE TABLE accounts (owner VARCHAR(16) PRIMARY KEY, "
        "amount INT)")
    owners = ["user%03d" % index for index in range(48)]
    for index, owner in enumerate(owners):
        router.query_or_raise(
            "INSERT INTO accounts (owner, amount) VALUES ('%s', %d)"
            % (owner, index * 7 % 101))
    for owner in owners:
        router.query_or_raise(
            "SELECT amount FROM accounts WHERE owner = '%s'" % owner)
    for turn in range(8):
        router.query_or_raise("SELECT COUNT(*), SUM(amount) FROM accounts")
    stats = router.stats
    routed = sum(stats[k] for k in
                 ("single_shard", "scatter", "broadcast", "pinned"))
    return stats["single_shard"] / float(routed)


def _topk_peak(router):
    """Stream TOPK_ROWS rows up through a merge-TopK gather; returns
    (peak_materialized, total_rows)."""
    router.query_or_raise(
        "CREATE TABLE big (k VARCHAR(16) PRIMARY KEY, v INT)")
    for index in range(TOPK_ROWS):
        router.query_or_raise(
            "INSERT INTO big (k, v) VALUES ('row%04d', %d)"
            % (index, (index * 37) % 1009))
    outcome = router.query_or_raise(
        "SELECT k, v FROM big ORDER BY v DESC, k LIMIT %d" % TOPK_LIMIT)
    assert len(outcome.rows) == TOPK_LIMIT
    return router.last_gather_stats.peak_materialized_rows, TOPK_ROWS


def test_sharded_scaleout(report):
    one = run_scaleout_experiment(shards=1)
    two = run_scaleout_experiment(shards=2)
    four = run_scaleout_experiment(shards=4)
    factor = four.throughput / one.throughput

    workdir = tempfile.mkdtemp(prefix="bench-shard-")
    try:
        with ShardRouter(workdir + "/fleet", shards=4) as router:
            single_fraction = _routed_workload(router)
            peak, total_rows = _topk_peak(router)
            fleet_status = router.status()
        sweeps = [run_sweep(SHARDED_SWEEP, workdir, seed, shards=2,
                            writes=6)
                  for seed in SWEEP_SEEDS]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.line("sharded scale-out (virtual-time DES, 5%% scatter, "
                "%d clients)" % one.clients)
    report.line()
    report.table(
        ("shards", "req/s", "factor", "balance"),
        tuple((r.shards, "%.0f" % r.throughput,
               "%.2fx" % (r.throughput / one.throughput),
               "%.2f" % r.balance_ratio)
              for r in (one, two, four)),
        widths=(8, 12, 10, 10),
    )
    report.line()
    report.line("routed workload @ 4 shards: %.0f%% single-shard routed, "
                "epoch=%d" % (single_fraction * 100,
                              fleet_status["catalog_epoch"]))
    report.line("cross-shard TopK: %d rows streamed, %d materialized "
                "(limit %d)" % (total_rows, peak, TOPK_LIMIT))
    report.line()
    for sweep in sweeps:
        report.line(format_report(sweep))
    report.line()

    report.metric("scale_out_factor", round(factor, 2), "x")
    report.metric("throughput_1_shard", round(one.throughput, 1), "req/s")
    report.metric("throughput_4_shards", round(four.throughput, 1),
                  "req/s")
    report.metric("single_shard_route_fraction",
                  round(single_fraction, 3), "fraction")
    report.metric("gather_peak_rows_topk", peak, "rows")
    report.metric("sweep_kills", sum(s.counters["kills"] for s in sweeps),
                  "kills")
    report.metric("sweep_torn_reads",
                  sum(1 for s in sweeps for _site, tag, _detail in s.problems
                      if tag == "scatter"), "reads")
    report.metric("sweep_lost_rows",
                  sum(s.counters["lost_rows"] for s in sweeps), "rows")

    # the PR's acceptance gates
    assert factor >= 3.0, (
        "4-shard throughput only %.2fx a single shard" % factor)
    assert peak <= TOPK_LIMIT, (
        "merge-TopK materialized %d rows for LIMIT %d (should be "
        "O(limit), streamed %d rows total)" % (peak, TOPK_LIMIT,
                                               total_rows))
    for seed, sweep in zip(SWEEP_SEEDS, sweeps):
        assert sweep.ok, "seed %r:\n%s" % (seed, format_report(sweep))
