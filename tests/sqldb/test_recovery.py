"""Crash-recovery semantics at the engine level.

What ``Database.recover`` promises: committed work survives, aborted
work stays dead, replay is deterministic (``NOW()``/``RAND()``, failed
statements that leave nothing behind, AUTO_INCREMENT continuity), running
recovery twice yields identical state, damage is surfaced honestly, and
the restart invalidates every pre-crash pipeline-cache entry.
"""

import pytest

from repro.benchlab.crashsweep import state_digest
from repro.sqldb import wal
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import WalCorruptionError


SCHEMA = ("CREATE TABLE t (id INT AUTO_INCREMENT PRIMARY KEY, "
          "v VARCHAR(20), stamp DATETIME)")


def _seeded(data_dir, **kwargs):
    db = Database.recover(str(data_dir), **kwargs)
    db.run(SCHEMA)
    db.run("INSERT INTO t (v, stamp) VALUES ('a', NOW())")
    db.run("INSERT INTO t (v, stamp) VALUES ('b', NOW())")
    return db


class TestCommittedPrefix(object):
    def test_committed_rows_survive_rolled_back_rows_do_not(self, tmp_path):
        db = _seeded(tmp_path)
        conn = Connection(db)
        conn.begin()
        conn.query_or_raise("INSERT INTO t (v) VALUES ('committed')")
        conn.commit()
        conn.begin()
        conn.query_or_raise("INSERT INTO t (v) VALUES ('aborted')")
        conn.query_or_raise("DELETE FROM t WHERE v = 'a'")
        conn.rollback()
        live = state_digest(db)
        db.close()
        recovered = Database.recover(str(tmp_path))
        values = [row["v"] for row in recovered.table("t").rows]
        assert values == ["a", "b", "committed"]
        assert state_digest(recovered) == live
        recovered.close()

    def test_unfinished_transaction_is_discarded(self, tmp_path):
        db = _seeded(tmp_path)
        conn = Connection(db)
        live = state_digest(db)
        conn.begin()
        conn.query_or_raise("INSERT INTO t (v) VALUES ('limbo')")
        # crash with the transaction still open: no commit marker
        db.reopen()
        assert state_digest(db) == live
        assert not db.in_transaction
        db.close()

    def test_now_and_rand_replay_bit_identically(self, tmp_path):
        db = _seeded(tmp_path)
        db.run("INSERT INTO t (v) VALUES (RAND() * 1000)")
        stamps = [row["stamp"] for row in db.table("t").rows]
        randoms = [row["v"] for row in db.table("t").rows]
        db.close()
        recovered = Database.recover(str(tmp_path))
        assert [row["stamp"] for row in recovered.table("t").rows] == stamps
        assert [row["v"] for row in recovered.table("t").rows] == randoms
        recovered.close()

    def test_failed_statement_leaves_nothing_on_replay(self, tmp_path):
        """A failing multi-row INSERT keeps none of the rows before the
        failure (InnoDB rolls the statement back); it is logged as
        failed, and replay fails it and takes it back the same way."""
        db = _seeded(tmp_path)
        outcome = Connection(db).query(
            "INSERT INTO t (id, v) VALUES (50, 'keeper'), (50, 'dup')"
        )
        assert not outcome.ok
        live = state_digest(db)
        assert "keeper" not in [row["v"] for row in db.table("t").rows]
        db.close()
        recovered = Database.recover(str(tmp_path))
        assert state_digest(recovered) == live
        recovered.close()

    def test_a_failed_record_an_earlier_version_logged_keeps_its_rows(
            self, tmp_path):
        """Before statement rollback a failing multi-row INSERT kept the
        rows before the failure, and the server committed them.  Its
        failed record lacks the taken-back flag and replays that way, so
        the later INSERT that met the kept row fails again on replay."""
        log = wal.WriteAheadLog(str(tmp_path))
        for sql, failed in [
                ("CREATE TABLE t (id INT PRIMARY KEY, v INT)", False),
                ("INSERT INTO t VALUES (5, 50), (5, 99)", True),
                ("INSERT INTO t VALUES (5, 55)", True)]:
            log.append_record(wal.WalRecord(
                log.next_lsn, wal.WalRecord.STMT, sql=sql, failed=failed),
                durability_point=True)
        log.close()
        recovered = Database.recover(str(tmp_path))
        rows = [(row["id"], row["v"]) for row in recovered.table("t").rows]
        assert rows == [(5, 50)]
        recovered.close()


class TestIdempotence(object):
    def test_recover_twice_yields_identical_state(self, tmp_path):
        db = _seeded(tmp_path)
        db.begin()
        db.run("INSERT INTO t (v) VALUES ('tx')")
        db.commit()
        db.close()
        first = Database.recover(str(tmp_path))
        digest = state_digest(first)
        first.close()
        second = Database.recover(str(tmp_path))
        assert state_digest(second) == digest
        second.close()

    def test_recover_twice_with_checkpoint_and_tail(self, tmp_path):
        """The checkpoint watermark must make replay skip everything the
        snapshot already holds — even when stale records survive in the
        log — so double recovery cannot double-apply."""
        db = _seeded(tmp_path)
        assert db.checkpoint() is not None
        db.run("INSERT INTO t (v) VALUES ('after-checkpoint')")
        digest = state_digest(db)
        db.close()
        for _ in range(2):
            recovered = Database.recover(str(tmp_path))
            assert state_digest(recovered) == digest
            report = recovered.recovery_report
            assert report["checkpoint_lsn"] > 0
            assert report["replayed_statements"] == 1
            recovered.close()


class TestCorruption(object):
    def _damage_mid_log(self, data_dir):
        path = wal.log_path(str(data_dir))
        data = bytearray(wal.read_log_bytes(path))
        ends = [end for _r, end in wal.iter_frames(bytes(data))]
        assert len(ends) >= 3
        data[ends[1] + 10] ^= 0x20  # payload byte of the THIRD record
        wal.write_log_bytes(path, bytes(data))
        return ends

    def test_strict_recover_raises_with_clean_prefix_attached(self, tmp_path):
        db = _seeded(tmp_path)
        db.run("INSERT INTO t (v) VALUES ('tail')")
        db.close()
        self._damage_mid_log(tmp_path)
        with pytest.raises(WalCorruptionError) as info:
            Database.recover(str(tmp_path))
        exc = info.value
        assert exc.database is not None
        # the clean prefix: schema + first insert, nothing at or past
        # the damaged record
        assert [row["v"] for row in exc.database.table("t").rows] == ["a"]
        assert exc.database.recovery_report["corrupt"] is True

    def test_salvage_mode_truncates_and_returns_clean_prefix(self, tmp_path):
        db = _seeded(tmp_path)
        db.run("INSERT INTO t (v) VALUES ('tail')")
        db.close()
        self._damage_mid_log(tmp_path)
        salvaged = Database.recover(str(tmp_path), strict=False)
        assert [row["v"] for row in salvaged.table("t").rows] == ["a"]
        salvaged.close()
        # the damage is gone from disk: strict recovery now succeeds
        again = Database.recover(str(tmp_path))
        assert [row["v"] for row in again.table("t").rows] == ["a"]
        assert again.recovery_report["corrupt"] is False
        again.close()


class TestPipelineCacheInvalidation(object):
    def test_restart_clears_cache_and_advances_schema_version(self, tmp_path):
        db = _seeded(tmp_path)
        conn = Connection(db)
        for _ in range(3):
            conn.query_or_raise("SELECT * FROM t WHERE id = 1")
        assert len(db.pipeline_cache) >= 1
        version_before = db.schema_version
        db.reopen()
        assert len(db.pipeline_cache) == 0
        # strictly advances: a pre-crash cache key may never validate
        # against the recovered catalog, even by coincidence
        assert db.schema_version > version_before
        # and the pipeline still works + re-warms afterwards
        outcome = conn.query("SELECT * FROM t WHERE id = 1")
        assert outcome.ok
        assert outcome.result_set.rows_as_dicts()[0]["v"] == "a"
        conn.query_or_raise("SELECT * FROM t WHERE id = 1")
        assert len(db.pipeline_cache) >= 1
        db.close()


class TestAutoIncrementRollback(object):
    def test_counter_restored_by_rollback_and_preserved_by_recovery(
            self, tmp_path):
        db = _seeded(tmp_path)  # ids 1, 2
        db.begin()
        db.run("INSERT INTO t (v) VALUES ('ghost')")  # would take id 3
        db.rollback()
        db.run("INSERT INTO t (v) VALUES ('c')")
        ids = [row["id"] for row in db.table("t").rows]
        assert ids == [1, 2, 3]  # the rollback returned id 3 to the pool
        db.close()
        recovered = Database.recover(str(tmp_path))
        assert [row["id"] for row in recovered.table("t").rows] == [1, 2, 3]
        # the counter itself recovered, not just the rows: the next
        # insert continues the sequence instead of colliding
        recovered.run("INSERT INTO t (v) VALUES ('d')")
        assert [row["id"] for row in recovered.table("t").rows] == [1, 2, 3, 4]
        recovered.close()


class TestSchemaRollback(object):
    def test_ddl_inside_transaction_commits_and_recovers(self, tmp_path):
        """ALTER/CREATE INDEX end the open transaction (MySQL's
        implicit commit): a later ROLLBACK finds nothing to undo, and
        recovery replays the same history."""
        db = _seeded(tmp_path)
        db.begin()
        db.run("INSERT INTO t (v) VALUES ('before')")
        db.run("ALTER TABLE t ADD COLUMN extra INT DEFAULT 0")
        assert not db.in_transaction
        db.run("CREATE INDEX idx_v ON t (v)")
        version_mid = db.schema_version
        db.rollback()
        assert "extra" in [c.name for c in db.table("t").columns]
        assert "idx_v" in db.table("t").indexes
        assert [row["v"] for row in db.table("t").rows][-1] == "before"
        assert db.schema_version == version_mid
        live = state_digest(db)
        db.close()
        recovered = Database.recover(str(tmp_path))
        assert state_digest(recovered) == live
        assert "extra" in [c.name for c in recovered.table("t").columns]
        recovered.close()


NON_FINITE = [float("inf"), float("-inf"), float("nan")]


class TestNonFiniteDoubles(object):
    """No SQL literal spells a non-finite double, so the WAL could not
    log one: it is refused (1367, "Illegal double") before it reaches a
    plan — prepared or over the wire, first execution of a type
    signature or a cached one — and the data directory stays
    recoverable."""

    def _logged(self, data_dir):
        return [rec.sql for rec in
                wal.scan_log(wal.log_path(str(data_dir))).records]

    def _check(self, data_dir, db, execute):
        db.run("CREATE TABLE f (k INT PRIMARY KEY, x DOUBLE)")
        assert execute(1, 1.5).error is None
        logged = self._logged(data_dir)
        for key, value in enumerate(NON_FINITE, start=2):
            outcome = execute(key, value)
            assert outcome.error is not None
            assert outcome.error.errno == 1367
        assert self._logged(data_dir) == logged
        live = state_digest(db)
        db.close()
        recovered = Database.recover(str(data_dir))
        assert state_digest(recovered) == live
        assert [row["k"] for row in recovered.table("f").rows] == [1]
        recovered.close()

    def test_connection(self, tmp_path):
        db = Database.recover(str(tmp_path))
        conn = Connection(db)
        prepared = conn.prepare("INSERT INTO f VALUES (?, ?)")
        self._check(tmp_path, db, lambda key, value:
                    conn.execute_prepared(prepared, key, value))

    def test_wire(self, tmp_path):
        from repro.net.client import NetClient
        from repro.net.server import NetServer

        db = Database.recover(str(tmp_path))
        server = NetServer(db)
        server.start()
        try:
            with NetClient(server.host, server.port) as client:
                def execute(key, value):
                    handle = client.prepare("INSERT INTO f VALUES (?, ?)")
                    return client.execute(handle, key, value)
                self._check(tmp_path, db, execute)
        finally:
            server.stop()

    def test_text_literal_out_of_range(self, tmp_path):
        db = Database.recover(str(tmp_path))
        conn = Connection(db)
        # a shape-cached text takes the first one's entry
        self._check(tmp_path, db, lambda key, value: conn.query(
            "INSERT INTO f VALUES (%d, %s)" % (key, value if value == 1.5
                                               else "-1e999")))
