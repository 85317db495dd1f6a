"""The exhaustive crash-point sweep (the tentpole's acceptance gate).

Three seeded workloads — DDL, transactions (committed, rolled back and
SEPTIC-blocked mid-flight), ``NOW()``/``RAND()``, a failing statement
taken back whole — each killed at **every byte offset** of its WAL
and recovered.  At every offset the recovered state must equal the
committed prefix a client could have been acknowledged about: zero lost
committed transactions, zero resurrected rolled-back or blocked writes.
Seed 2 also writes a mid-workload checkpoint, so the sweep covers
checkpoint+log-tail recovery and the replay watermark.
"""

import os

import pytest

from repro.benchlab.crashsweep import (
    WAL_BATCH_SWEEP,
    WAL_COMMIT_SWEEP,
    format_report,
    generate_workload,
    run_sweep,
    run_workload,
)
from repro.sqldb import wal
from repro.sqldb.engine import Database


#: label, seed, checkpoint_after, kill offsets, durability points in the
#: log — the coverage the parent's artifacts record, pinned so a sweep
#: that silently enumerates fewer sites turns red.  The offsets follow
#: the log's byte count: binary record payloads (kind, flags, varints,
#: text) took them from 3592 / 2460 / 3594 under the JSON payload to
#: the numbers below; the durability points did not move.
SWEEPS = [
    ("seed1", 1, None, 1904, 25),
    ("seed2-checkpointed", 2, 8, 1274, 18),
    ("seed3", 3, None, 1906, 25),
]


@pytest.mark.parametrize("label,seed,checkpoint_after,offsets,points",
                         SWEEPS, ids=[s[0] for s in SWEEPS])
def test_crash_sweep_recovers_committed_prefix_at_every_offset(
        tmp_path, label, seed, checkpoint_after, offsets, points):
    report = run_sweep(WAL_COMMIT_SWEEP, str(tmp_path), seed,
                       checkpoint_after=checkpoint_after)
    assert report.ok, format_report(report)
    # the sweep must actually have exercised what it claims to:
    assert report.sites == report.counters["log_bytes"] + 1 == offsets
    assert report.counters["durability_points"] == points
    assert report.counters["blocked"] == 1  # the mid-tx SEPTIC block fired
    assert report.counters["checkpointed"] == (checkpoint_after is not None)
    assert report.counters["max_unsynced_backlog"] == 0
    assert os.listdir(str(tmp_path)) == []      # no litter


def test_batch_sync_sweep_crosses_the_unsynced_backlog(tmp_path):
    """The batch (group fsync) configuration over a thinned offset list
    — every frame end, its neighbours and every 9th byte (the full
    sweep runs in ``benchmarks/bench_crash_sweep.py``)."""
    def thinned(golden):
        ends = {end for _record, end
                in wal.iter_frames(golden.facts["data"])}
        total = len(golden.facts["data"])
        picked = set(range(0, total + 1, 9)) | {total}
        for end in ends:
            picked.update((end - 1, end, min(end + 1, total)))
        return sorted(picked)

    report = run_sweep(WAL_BATCH_SWEEP._replace(sites=thinned),
                       str(tmp_path), 1)
    assert report.ok, format_report(report)
    assert report.name == "wal-batch"
    assert report.counters["log_bytes"] == 1903    # 3591 as JSON payloads
    assert report.counters["durability_points"] == 25
    # the deferred-fsync kill window was actually open during the run
    assert report.counters["max_unsynced_backlog"] == 15
    assert os.listdir(str(tmp_path)) == []


def test_workloads_cover_the_hard_cases():
    """The generator must keep producing the shapes the sweep exists
    for; a refactor that drops one would hollow the guarantee out."""
    for seed in (1, 2, 3):
        sql_blob = "; ".join(sql for _kind, sql in generate_workload(seed))
        for needle in ("ROLLBACK", "COMMIT", "ALTER TABLE", "CREATE INDEX",
                       "TRUNCATE", "DROP TABLE", "NOW()", "RAND()", "evil"):
            assert needle in sql_blob, (seed, needle)


def test_golden_run_digests_every_durability_point(tmp_path):
    run = run_workload(str(tmp_path / "g"), seed=1)
    data = wal.read_log_bytes(wal.log_path(str(tmp_path / "g")))
    points = sum(
        1 for record, _end in wal.iter_frames(data)
        if record.op == wal.WalRecord.COMMIT
        or (record.op == wal.WalRecord.STMT and record.tx == 0)
    )
    # digests[0] is the empty database, then one per durability point
    assert len(run.digests) == points + 1
    assert run.blocked >= 1


def test_full_log_recovery_matches_final_digest(tmp_path):
    """Sanity anchor for the sweep's bookkeeping: offset == len(log)
    must reproduce the last acknowledged state exactly."""
    run = run_workload(str(tmp_path / "g"), seed=3)
    from repro.benchlab.crashsweep import state_digest
    recovered = Database.recover(str(tmp_path / "g"), seed=3)
    assert state_digest(recovered) == run.digests[-1]
    recovered.close()
