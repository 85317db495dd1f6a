"""Crash + corruption sweeps over the paged backend, and the scrubber
repair chain exercised source by source (doublewrite, WAL redo,
replica), including the recovery-time rebuild fallback."""

import os

import pytest

from repro.benchlab.crashsweep import (
    BITFLIP_SWEEP,
    PAGED_SWEEP,
    format_report,
    run_sweep,
    state_digest,
)
from repro.sqldb import pager as pager_mod
from repro.sqldb.engine import Database


def paged_db(tmp_path, name="db", **kwargs):
    kwargs.setdefault("storage", "paged")
    kwargs.setdefault("page_size", 512)
    kwargs.setdefault("pool_pages", 4)
    return Database.recover(str(tmp_path / name), seed=1, **kwargs)


def scrub_full_pass(db):
    """One full scrubber pass via the public tick API; returns new
    corruptions detected."""
    scrubber = db.page_store.scrubber
    pages = max(1, len(scrubber._scan_list))
    ticks = -(-pages // scrubber.pages_per_tick)
    return db.scrub(ticks)


class TestPagedCrashSweep(object):
    def test_kill_at_every_page_write_offset(self, tmp_path):
        report = run_sweep(PAGED_SWEEP, str(tmp_path), 11)
        assert report.ok, format_report(report)
        # the sweep must have exercised what it claims: crashes at
        # every raw write x 4 in-page offsets, torn pages seen and
        # repaired from the doublewrite area, no logical rebuild ever
        # needed (a rebuild is a problem, so ``ok`` covers it).  The
        # workload outgrows its 4-frame pool (the ``bulk`` table), so
        # the schedule holds 13 spill writes besides the two
        # checkpoints' page writes: 40 sites became 132, and the four
        # bulk statements add 4 durability points to 26
        counters = report.counters
        assert report.sites == counters["raw_writes"] * 4 == 132
        assert counters["dirty_flushes"] == 13
        assert counters["clean_evictions"] > 0
        assert counters["torn_repaired"] == 75
        assert counters["dw_applied"] == 93
        assert counters["dw_applied"] >= counters["torn_repaired"] > 0
        assert counters["durability_points"] == 30
        assert counters["blocked"] == 1
        assert os.listdir(str(tmp_path)) == []

    def test_corruption_sweep_detects_and_repairs_every_flip(
            self, tmp_path):
        report = run_sweep(BITFLIP_SWEEP, str(tmp_path), 11, flips=5)
        assert report.ok, format_report(report)
        counters = report.counters
        assert report.sites == 5
        assert counters["injected"] == counters["detected"] == 5
        assert counters["repaired_from_doublewrite"] == 5
        assert counters["false_repairs"] == 0
        assert counters["unrepaired"] == 0
        assert os.listdir(str(tmp_path)) == []


class TestScrubRepairChain(object):
    def _seeded(self, tmp_path, rows=40):
        db = paged_db(tmp_path)
        db.run("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20))")
        for i in range(rows):
            db.run("INSERT INTO t (id, v) VALUES (%d, 'row%04d')"
                   % (i, i))
        db.checkpoint()
        return db

    def _corrupt_live_page(self, db, tmp_path, name="db"):
        page_no = sorted(db.tables["t"].store.pages())[0]
        pager_mod.flip_page_bit(str(tmp_path / name), page_no, 333,
                                page_size=512)
        return page_no

    def test_repair_from_doublewrite(self, tmp_path):
        db = self._seeded(tmp_path)
        golden = state_digest(db)
        self._corrupt_live_page(db, tmp_path)
        assert scrub_full_pass(db) == 1
        stats = db.storage_stats()["scrubber"]
        assert stats["repairs_by_source"].get("doublewrite") == 1
        assert stats["quarantined"] == 0
        assert state_digest(db) == golden
        db.close()

    def test_repair_from_wal_redo_preserves_tail_commits(self, tmp_path):
        """Doublewrite gone, frame dropped: the scrubber must rebuild
        the table from checkpoint rows + the WAL tail — including the
        commits that landed *after* the checkpoint."""
        db = self._seeded(tmp_path)
        db.run("INSERT INTO t (id, v) VALUES (999, 'tail')")
        golden = state_digest(db)
        page_no = self._corrupt_live_page(db, tmp_path)
        # disable source 1 (doublewrite) and source 2 (clean frame)
        with open(pager_mod.doublewrite_path(str(tmp_path / "db")),
                  "r+b") as handle:
            handle.truncate(0)
        db.page_store.pool.drop(page_no)
        assert scrub_full_pass(db) == 1
        stats = db.storage_stats()["scrubber"]
        assert stats["repairs_by_source"].get("wal_redo") == 1
        assert stats["quarantined"] == 0
        assert state_digest(db) == golden
        assert db.run("SELECT v FROM t WHERE id = 999")[0]
        db.close()

    def test_repair_from_registered_replica_source(self, tmp_path):
        """With doublewrite, clean frame and WAL redo all unavailable,
        a registered replica row provider is the last resort."""
        db = self._seeded(tmp_path)
        golden = state_digest(db)
        golden_rows = [dict(row) for row in db.tables["t"].iter_rows()]
        served = []

        def provider(table_name):
            served.append(table_name)
            return golden_rows if table_name == "t" else None

        db.register_page_repair_source(provider)
        page_no = self._corrupt_live_page(db, tmp_path)
        with open(pager_mod.doublewrite_path(str(tmp_path / "db")),
                  "r+b") as handle:
            handle.truncate(0)
        db.page_store.pool.drop(page_no)
        db.page_store.scrubber.redo_source = None
        assert scrub_full_pass(db) == 1
        stats = db.storage_stats()["scrubber"]
        assert stats["repairs_by_source"].get("replica") == 1
        assert served == ["t"]
        assert state_digest(db) == golden
        db.close()

    def test_scrubber_never_rewrites_an_intact_page(self, tmp_path):
        db = self._seeded(tmp_path)
        writes_before = db.page_store.pager.writes
        for _ in range(3):
            scrub_full_pass(db)
        stats = db.storage_stats()["scrubber"]
        assert stats["detected"] == 0
        assert stats["false_repairs"] == 0
        assert db.page_store.pager.writes == writes_before
        db.close()


class TestRecoveryTimeRebuildFallback(object):
    def test_unrepairable_page_rebuilds_the_table_at_recovery(
            self, tmp_path):
        """Corruption found at restart with no doublewrite image to
        apply: verify_scan fails closed and recovery rebuilds the table
        from the checkpoint's logical rows, reporting it."""
        db = paged_db(tmp_path)
        db.run("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20))")
        for i in range(40):
            db.run("INSERT INTO t (id, v) VALUES (%d, 'row%04d')"
                   % (i, i))
        db.checkpoint()
        golden = state_digest(db)
        pages = sorted(db.tables["t"].store.pages())
        db.close()
        pager_mod.flip_page_bit(str(tmp_path / "db"), pages[0], 333,
                                page_size=512)
        with open(pager_mod.doublewrite_path(str(tmp_path / "db")),
                  "r+b") as handle:
            handle.truncate(0)
        recovered = paged_db(tmp_path)
        report = recovered.recovery_report["pages"]
        assert [entry[0] for entry in report["rebuilt_tables"]] == ["t"]
        assert state_digest(recovered) == golden
        recovered.close()
