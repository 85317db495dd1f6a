"""Smoke coverage for the sharded crash sweep (the full 3-seed sweep
runs in ``benchmarks/bench_sharded_scaleout.py``)."""

import os

from repro.benchlab.crashsweep import (
    SHARDED_SWEEP,
    format_report,
    generate_sharded_workload,
    run_sweep,
)


class TestWorkload(object):
    def test_deterministic_per_seed(self):
        assert (generate_sharded_workload(5)
                == generate_sharded_workload(5))
        assert (generate_sharded_workload(5)
                != generate_sharded_workload(6))

    def test_shape(self):
        ops = generate_sharded_workload(5, writes=8)
        kinds = [kind for kind, _sql in ops]
        assert kinds.count("w") == 9  # CREATE TABLE + 8 DML boundaries
        assert kinds.count("x") == 2  # blocked write + blocked scatter
        assert kinds.count("r") >= 1
        assert ops[0][1].startswith("CREATE TABLE accounts")


def test_sweep_is_clean(tmp_path):
    report = run_sweep(SHARDED_SWEEP, str(tmp_path), 3, shards=2,
                       replicas=1, writes=4)
    assert report.ok, format_report(report)
    counters = report.counters
    assert counters["durability_points"] == 5   # commit boundaries
    assert report.sites == counters["kills"] == 5 * 2
    assert counters["promotions"] == 10
    assert counters["scatter_reads"] == 10
    assert counters["lost_rows"] == counters["phantom_rows"] == 0
    assert counters["blocked"] == 2
    assert format_report(report).endswith("-> OK")
    assert os.listdir(str(tmp_path)) == []
