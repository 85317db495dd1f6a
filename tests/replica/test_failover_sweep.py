"""The kill-the-primary-at-every-commit sweep, as a test (the full
three-seed version also runs as benchmark E17)."""

import os

import pytest

from repro.benchlab.crashsweep import (FAILOVER_SWEEP, format_report,
                                       run_sweep)


@pytest.mark.parametrize("seed,kills", [(1, 25), (2, 26), (3, 25)],
                         ids=["1", "2", "3"])
def test_failover_sweep_loses_nothing(tmp_path, seed, kills):
    report = run_sweep(FAILOVER_SWEEP, str(tmp_path), seed)
    assert report.ok, format_report(report)
    # pinned coverage: one kill per commit boundary, one promotion per
    # kill plus the zombie scenario's, whose shipments were fenced
    assert report.counters["kills"] == kills
    assert report.counters["durability_points"] == kills
    assert report.sites == kills + 1
    assert report.counters["promotions"] == kills + 1
    assert report.counters["fenced_rejects"] >= 1
    assert report.counters["blocked"] == 1  # the SEPTIC-blocked write ran
    assert os.listdir(str(tmp_path)) == []
