"""The sweep kernel judged as a harness: every configuration must be able
to *fail* (a defect planted in its recover step turns the report red,
with the invariant that should have caught it named), and no
configuration may leave anything behind — directories in the workdir
or open databases — whether it returns or raises.

The per-configuration clean runs, with their pinned coverage counters,
live beside the subsystem each one guards (``tests/sqldb``,
``tests/replica``, ``tests/shard``).
"""

import os
from contextlib import closing

import pytest

from repro.benchlab.crashsweep import (
    BITFLIP_SWEEP,
    FAILOVER_SWEEP,
    PAGED_SWEEP,
    SHARDED_SWEEP,
    WAL_BATCH_SWEEP,
    WAL_COMMIT_SWEEP,
    SweepConfig,
    SweepReport,
    WorkloadRun,
    drive_ops,
    format_report,
    run_sweep,
)
from repro.replica import ReplicaSet
from repro.shard import ShardRouter
from repro.sqldb import pager as pager_mod
from repro.sqldb import wal as wal_mod
from repro.sqldb.engine import Database


def last_sites(config, keep):
    """*config* over the last *keep* kill sites only (the mutations
    below need a handful of sites, not thousands)."""
    return config._replace(
        sites=lambda golden: list(config.sites(golden))[-keep:])


# -- one planted defect per configuration ------------------------------------
#
# Each ``plant_*`` patches the engine *inside the recover step only*
# (the golden run stays honest) and names the invariant tag that must
# catch it.


def plant_lost_frame(monkeypatch, _site):
    """Recovery that silently drops the last complete WAL frame."""
    real_write = wal_mod.write_log_bytes

    def lossy_write(path, data):
        ends = [end for _record, end in wal_mod.iter_frames(data)]
        real_write(path, data[:ends[-2]] if len(ends) > 1 else b"")

    monkeypatch.setattr(wal_mod, "write_log_bytes", lossy_write)


def plant_laggard_election(monkeypatch, _site):
    """An election that promotes the *lagging* replica."""
    real_promote = ReplicaSet.promote

    def promote_laggard(self, node=None):
        laggard = sorted(self.replicas(),
                         key=lambda n: (n.applier.applied_lsn, n.name))[0]
        return real_promote(self, laggard)

    monkeypatch.setattr(ReplicaSet, "promote", promote_laggard)


def plant_skipped_doublewrite(monkeypatch, _site):
    """Recovery that never applies the sealed doublewrite batch."""
    monkeypatch.setattr(pager_mod.Pager, "recover_home",
                        lambda self, batch_id: (0, 0))


def plant_blind_scrub(monkeypatch, _site):
    """A scrub pass that leaves the flipped page unscanned."""
    monkeypatch.setattr(pager_mod.Scrubber, "scan_all", lambda self: None)


def plant_stale_shard(monkeypatch, site):
    """The shipment right after the last acked write never happens, so
    the shard that took it fails over to a stale replica and the
    mid-failover scatter read is answered from it."""
    boundary, _shard = site
    if boundary == 1:
        return      # losing the CREATE TABLE would crash the workload
    real_ship = ShardRouter.ship
    calls = {"acked": 0}
    real_query = ShardRouter.query

    def counting_query(self, sql, *args, **kwargs):
        outcome = real_query(self, sql, *args, **kwargs)
        if outcome.ok and not sql.startswith("SELECT"):
            calls["acked"] += 1
        return outcome

    def lossy_ship(self):
        if calls["acked"] == boundary and not calls.get("dropped"):
            calls["dropped"] = True
            return
        real_ship(self)

    monkeypatch.setattr(ShardRouter, "query", counting_query)
    monkeypatch.setattr(ShardRouter, "ship", lossy_ship)


#: configuration id -> (config, seed, params, defect, expected tag)
MUTATIONS = {
    "wal-commit": (last_sites(WAL_COMMIT_SWEEP, 60), 1, {},
                   plant_lost_frame, "digest"),
    "wal-batch": (last_sites(WAL_BATCH_SWEEP, 60), 1, {},
                  plant_lost_frame, "digest"),
    "failover": (FAILOVER_SWEEP, 1, {}, plant_laggard_election, "election"),
    "paged": (PAGED_SWEEP, 11, {}, plant_skipped_doublewrite, "rebuild"),
    "bitflip": (BITFLIP_SWEEP, 11, {"flips": 3}, plant_blind_scrub,
                "detection"),
    "sharded": (SHARDED_SWEEP, 3, {"shards": 2, "replicas": 1, "writes": 4},
                plant_stale_shard, "scatter"),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_configuration_can_fail(tmp_path, name):
    config, seed, params, plant, tag = MUTATIONS[name]

    def defective_recover(own, victim_dir, golden, site, counters):
        with pytest.MonkeyPatch.context() as monkeypatch:
            plant(monkeypatch, site)
            return list(config.recover(own, victim_dir, golden, site,
                                       counters))

    clean = run_sweep(config, str(tmp_path), seed, **params)
    assert clean.ok, format_report(clean)   # the thinned sweep is honest

    report = run_sweep(config._replace(recover=defective_recover),
                       str(tmp_path), seed, **params)
    assert report.ok is False
    assert report.sites == clean.sites
    tags = {invariant for _site, invariant, _detail in report.problems}
    assert tag in tags, format_report(report)
    assert "PROBLEMS" in format_report(report)
    assert os.listdir(str(tmp_path)) == []


# -- nothing left behind, raise or not ----------------------------------------


#: configuration id -> (config, seed, params)
CONFIGS = {name: entry[:3] for name, entry in MUTATIONS.items()}


def databases_of(resource):
    if isinstance(resource, ShardRouter):
        return [database for replica_set in resource.shard_sets
                for database in databases_of(replica_set)]
    if isinstance(resource, ReplicaSet):
        return [node.database for node in resource.nodes]
    return [resource]


def still_open(resource):
    """Databases under *resource* holding a live WAL handle or page
    store (a crashed node's abandoned WAL counts as released)."""
    return [database for database in databases_of(resource)
            if database.page_store is not None
            or (database.wal is not None and not database.wal.closed)]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_raising_recover_leaves_no_litter_and_no_open_database(
        tmp_path, name):
    config, seed, params = CONFIGS[name]
    opened = []

    def raising_recover(own, victim_dir, golden, site, counters):
        def spy(resource):
            opened.append(own(resource))
            return opened[-1]

        # do everything the real step does — open the victim, crash
        # it, recover it — then die before the site's scope ends
        list(config.recover(spy, victim_dir, golden, site, counters))
        raise RuntimeError("invariant blew up at %r" % (site,))

    def spying_golden(own, data_dir, seed, **params):
        def spy(resource):
            opened.append(own(resource))
            return opened[-1]

        return config.golden(spy, data_dir, seed, **params)

    with pytest.raises(RuntimeError, match="invariant blew up"):
        run_sweep(config._replace(golden=spying_golden,
                                  recover=raising_recover),
                  str(tmp_path), seed, **params)
    assert os.listdir(str(tmp_path)) == []
    # every Database / ReplicaSet / ShardRouter the sweep opened —
    # golden run and victim — is closed
    assert opened
    for resource in opened:
        assert still_open(resource) == []


def test_a_raising_golden_run_leaves_no_litter(tmp_path):
    def golden(own, data_dir, seed):
        opened.append(own(closing(Database.recover(data_dir, seed=seed))))
        raise RuntimeError("golden run died")

    opened = []
    with pytest.raises(RuntimeError, match="golden run died"):
        run_sweep(WAL_COMMIT_SWEEP._replace(golden=golden), str(tmp_path), 1)
    assert os.listdir(str(tmp_path)) == []
    assert len(opened) == 1 and still_open(opened[0]) == []


# -- the kernel's own contract -------------------------------------------------


def toy_config(**overrides):
    fields = dict(
        name="toy",
        golden=lambda own, data_dir, seed: WorkloadRun(seed, [], ["d0"]),
        sites=lambda golden: ["a", "b", "c"],
        recover=lambda own, victim_dir, golden, site, counters: (),
        expect=lambda golden, counters: (),
    )
    fields.update(overrides)
    return SweepConfig(**fields)


class TestKernel(object):
    def test_problems_are_tagged_with_site_invariant_detail(self, tmp_path):
        def recover(own, victim_dir, golden, site, counters):
            counters["visited"] += 1
            assert os.listdir(victim_dir) == []     # fresh every site
            open(os.path.join(victim_dir, "junk"), "w").close()
            if site == "b":
                yield "digest", "diverged"

        report = run_sweep(
            toy_config(recover=recover,
                       expect=lambda golden, counters: [("coverage", "x")]),
            str(tmp_path), 7)
        assert isinstance(report, SweepReport)
        assert (report.name, report.seed, report.sites) == ("toy", 7, 3)
        assert report.counters == {"blocked": 0, "visited": 3}
        assert report.problems == [("b", "digest", "diverged"),
                                   (None, "coverage", "x")]
        assert report.ok is False
        assert os.listdir(str(tmp_path)) == []

    def test_a_sweep_that_enumerates_nothing_does_not_pass(self, tmp_path):
        report = run_sweep(toy_config(sites=lambda golden: []),
                           str(tmp_path), 1)
        assert report.sites == 0
        assert [tag for _s, tag, _d in report.problems] == ["coverage"]

    def test_clean_toy_sweep_formats_as_ok(self, tmp_path):
        report = run_sweep(toy_config(), str(tmp_path), 1)
        assert report.ok
        assert format_report(report) == (
            "toy sweep seed=1: 3 kill sites, blocked=0 -> OK")


class TestDriveOps(object):
    OPS = [("q", "a"), ("q", "b"), ("m", "c"), ("q", "d")]

    def run(self, advancing, **hooks):
        """Drive OPS; ops named in *advancing* add a durability point."""
        log = []
        points = [0]

        def execute(kind, sql):
            log.append(sql)
            points[0] += advancing.get(sql, 0)

        resume = drive_ops(self.OPS, execute, lambda: points[0], **hooks)
        return log, resume

    def test_runs_everything_and_fires_the_hooks_in_order(self):
        seen = []
        log, resume = self.run(
            {"a": 1, "c": 1},
            on_point=lambda: seen.append("point"),
            after_op=lambda index: seen.append(index))
        assert log == ["a", "b", "c", "d"] and resume == 4
        assert seen == ["point", 0, 1, "point", 2, 3]

    def test_stops_right_after_the_target_point(self):
        log, resume = self.run({"a": 1, "c": 1, "d": 1}, stop_at=2)
        assert log == ["a", "b", "c"] and resume == 3

    def test_two_durability_points_in_one_op_still_raise(self):
        with pytest.raises(AssertionError, match="at most one per op"):
            self.run({"b": 2})
