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

And one wall-clock section beside the modelled factor, **route cost**:
a keyed read with a fresh key through the 4-shard router against the
same text on a direct ``Connection`` — the router parses nothing on a
warm shape and costs at most 3x the direct call.  Its metrics carry
``measured`` in their names; every other number here is modelled or
counted.
"""

import shutil
import statistics
import tempfile
import time

from repro.benchlab.crashsweep import (
    SHARDED_SWEEP,
    format_report,
    run_sweep,
)
from repro.benchlab.harness import run_scaleout_experiment
from repro.shard import ShardRouter
from repro.sqldb import parser as parser_mod
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database

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


def _load_big(target):
    """``big`` with TOPK_ROWS rows, through *target* — a router or a
    plain connection."""
    target.query_or_raise(
        "CREATE TABLE big (k VARCHAR(16) PRIMARY KEY, v INT)")
    for index in range(TOPK_ROWS):
        target.query_or_raise(
            "INSERT INTO big (k, v) VALUES ('row%04d', %d)"
            % (index, (index * 37) % 1009))


def _topk_peak(router):
    """Stream TOPK_ROWS rows up through a merge-TopK gather; returns
    (peak_materialized, total_rows)."""
    _load_big(router)
    outcome = router.query_or_raise(
        "SELECT k, v FROM big ORDER BY v DESC, k LIMIT %d" % TOPK_LIMIT)
    assert len(outcome.rows) == TOPK_LIMIT
    return router.last_gather_stats.peak_materialized_rows, TOPK_ROWS


def _route_cost(router):
    """Fresh-key keyed reads over ``big`` (loaded by :func:`_topk_peak`)
    through the router and, text for text, on a direct connection to a
    single database holding the same rows.  Returns ``(routed us,
    direct us, parser runs per routed read)``, medians over the keys
    left after both sides' shapes are warm."""
    direct = Connection(Database())
    _load_big(direct)
    parsers = [0]
    real_init = parser_mod.Parser.__init__

    def counting_init(self, *args, **kwargs):
        parsers[0] += 1
        real_init(self, *args, **kwargs)

    routed_us, direct_us = [], []
    clock = time.perf_counter
    parser_mod.Parser.__init__ = counting_init
    try:
        for index in range(TOPK_ROWS):
            sql = "SELECT v FROM big WHERE k = 'row%04d'" % index
            if index == 20:     # every node has seen the shape by now
                parsers[0] = 0
                del routed_us[:], direct_us[:]
            start = clock()
            routed = router.query_or_raise(sql)
            middle = clock()
            alone = direct.query_or_raise(sql)
            direct_us.append((clock() - middle) * 1e6)
            routed_us.append((middle - start) * 1e6)
            assert routed.rows == alone.rows == [((index * 37) % 1009,)]
    finally:
        parser_mod.Parser.__init__ = real_init
    # (the count takes in the direct connection's parses too: none)
    return (statistics.median(routed_us), statistics.median(direct_us),
            parsers[0] / float(len(routed_us)))


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
            routed_us, direct_us, parses_per_op = _route_cost(router)
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
    report.line("route cost (measured, wall clock): fresh-key keyed read "
                "%.0f us routed vs %.0f us direct = %.2fx, %.2f parses "
                "per routed read, %d of %d lookups by shape"
                % (routed_us, direct_us, routed_us / direct_us,
                   parses_per_op,
                   fleet_status["stats"]["route_shape_hits"],
                   fleet_status["stats"]["route_cache_hits"]))
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
    report.metric("routed_read_us_measured", round(routed_us, 1), "us")
    report.metric("direct_read_us_measured", round(direct_us, 1), "us")
    report.metric("route_cost_ratio_measured",
                  round(routed_us / direct_us, 2), "x")
    report.metric("parse_calls_per_routed_op_measured",
                  round(parses_per_op, 3), "1/op")
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
    assert parses_per_op == 0, (
        "a fresh key on a warm shape ran the parser %.2f times per read"
        % parses_per_op)
    assert routed_us <= 3.0 * direct_us, (
        "a routed keyed read costs %.0f us, %.2fx the direct %.0f us"
        % (routed_us, routed_us / direct_us, direct_us))
    for seed, sweep in zip(SWEEP_SEEDS, sweeps):
        assert sweep.ok, "seed %r:\n%s" % (seed, format_report(sweep))
