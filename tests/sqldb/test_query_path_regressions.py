"""Regression tests for the query-path bugfix sweep.

Each test documents a defect that sat on the hot query path:

* ``Connection.query()``/``multi_query()`` crashed with ``IndexError``
  on comment-only or empty input (``results[-1]`` on an empty list);
* a mid-transaction ``CREATE``/``DROP TABLE`` used to roll back half
  way (rows of surviving tables restored, the catalog not); the
  catalog is now outside transactions the way MySQL's is — DDL ends the
  open transaction with an implicit COMMIT before it runs;
* the virtual clock went backwards after 11:59:59 of uptime
  (``12 + hours % 12`` wrapped 23:59:59 → 12:00:00 of the same day).
"""

from repro.sqldb import wal
from repro.sqldb.connection import Connection, QueryOutcome
from repro.sqldb.engine import Database


class TestEmptyAndCommentOnlyQueries(object):
    def _conn(self):
        return Connection(Database())

    def test_empty_query_returns_empty_ok_outcome(self):
        outcome = self._conn().query("")
        assert isinstance(outcome, QueryOutcome)
        assert outcome.ok
        assert outcome.rows == []
        assert outcome.affected_rows == 0

    def test_whitespace_and_semicolons_only(self):
        outcome = self._conn().query("   ;;  ")
        assert outcome.ok

    def test_comment_only_query_returns_empty_ok_outcome(self):
        conn = self._conn()
        for sql in ("/* just a comment */", "-- nothing here", "# nothing"):
            outcome = conn.query(sql)
            assert outcome.ok, sql
            assert outcome.result_set is None

    def test_multi_query_on_comment_only_input(self):
        outcomes = self._conn().multi_query("/* a */ ; /* b */")
        assert len(outcomes) == 1
        assert outcomes[0].ok

    def test_empty_query_clears_last_error(self):
        conn = self._conn()
        conn.query("SELECT broken FROM")  # parse error sets last_error
        assert conn.last_error is not None
        assert conn.query("/* ping */").ok
        assert conn.last_error is None

    def test_run_returns_empty_result_list(self):
        assert Database().run("/* noop */") == []


class TestRollbackCatalogRestore(object):
    """ROLLBACK restores no catalog: DDL inside a transaction commits
    what came before it and is itself final (MySQL 5.7 manual 13.3.3)."""

    def _db(self, tmp_path=None):
        database = Database() if tmp_path is None \
            else Database.recover(str(tmp_path))
        database.seed(
            "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, "
            "a VARCHAR(10));"
            "INSERT INTO t (a) VALUES ('x'), ('y');"
        )
        return database, Connection(database)

    def test_table_created_mid_transaction_survives_rollback(self):
        database, conn = self._db()
        conn.query("BEGIN")
        assert conn.query("INSERT INTO t (a) VALUES ('before')").ok
        assert conn.query("CREATE TABLE mid (x INT)").ok
        assert not conn.in_transaction
        assert conn.query("INSERT INTO mid (x) VALUES (1)").ok
        conn.query("ROLLBACK")
        assert "mid" in database.tables
        assert len(database.table("mid")) == 1
        # the row inserted before the DDL was committed by it
        assert [r["a"] for r in database.table("t").rows] == \
            ["x", "y", "before"]

    def test_table_dropped_mid_transaction_stays_dropped(self):
        database, conn = self._db()
        conn.query("BEGIN")
        assert conn.query("DROP TABLE t").ok
        conn.query("ROLLBACK")
        assert "t" not in database.tables

    def test_failed_ddl_still_commits_the_open_transaction(self):
        database, conn = self._db()
        conn.query("BEGIN")
        conn.query("INSERT INTO t (a) VALUES ('kept')")
        assert conn.query("CREATE TABLE t (x INT)").error.errno == 1050
        conn.query("ROLLBACK")
        assert len(database.table("t")) == 3

    def test_drop_then_recreate_rolls_back_only_the_rows(self):
        database, conn = self._db()
        conn.query("BEGIN")
        conn.query("DROP TABLE t")
        conn.query("CREATE TABLE t (other INT)")
        conn.query("BEGIN")
        conn.query("INSERT INTO t (other) VALUES (9)")
        conn.query("ROLLBACK")
        table = database.table("t")
        assert table.column_names() == ["other"]
        assert table.rows == []     # only the row versions rolled back

    def test_commit_keeps_mid_transaction_catalog_changes(self):
        database, conn = self._db()
        conn.query("BEGIN")
        conn.query("CREATE TABLE mid (x INT)")
        conn.query("DROP TABLE t")
        conn.query("COMMIT")
        assert "mid" in database.tables
        assert "t" not in database.tables

    def test_rollback_of_catalog_change_undoes_nothing_and_cache_revalidates(
            self):
        database, conn = self._db()
        conn.query("BEGIN")
        conn.query("CREATE TABLE mid (x INT)")
        assert conn.query("SELECT x FROM mid").ok  # validated + cached
        conn.query("DROP TABLE mid")
        conn.query("ROLLBACK")
        outcome = conn.query("SELECT x FROM mid")
        assert not outcome.ok  # DDL bumped the version: re-validated

    def test_wal_shows_commit_then_autocommit_ddl(self, tmp_path):
        database, conn = self._db(tmp_path)
        first = database.durable_lsn
        conn.query("BEGIN")
        conn.query("INSERT INTO t (a) VALUES ('z')")
        conn.query("TRUNCATE TABLE t")
        conn.query("ROLLBACK")      # outside a transaction: logs nothing
        database.close()
        records = wal.scan_log(wal.log_path(str(tmp_path))).records
        assert [(rec.op, rec.tx != 0) for rec in records
                if rec.lsn > first] == [
            ("begin", True), ("stmt", True), ("commit", True),
            ("stmt", False),
        ]
        recovered = Database.recover(str(tmp_path))
        assert recovered.table("t").rows == []
        recovered.close()


class TestVirtualClockMonotonic(object):
    def test_day_rollover_instead_of_backwards_jump(self):
        database = Database()
        database._clock_ticks = 12 * 3600 - 2  # two ticks before midnight
        stamps = [database.now() for _ in range(4)]
        assert stamps == [
            "2016-07-05 23:59:59",
            "2016-07-06 00:00:00",
            "2016-07-06 00:00:01",
            "2016-07-06 00:00:02",
        ]

    def test_clock_is_strictly_monotonic_across_days(self):
        database = Database()
        seen = []
        for jump in (0, 11 * 3600, 12 * 3600, 86400, 40 * 86400):
            database._clock_ticks = jump
            seen.append(database.now())
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)

    def test_month_rollover(self):
        database = Database()
        database._clock_ticks = 27 * 86400  # July 5 + 27 days → August 1
        assert database.now().startswith("2016-08-01 ")

    def test_first_seconds_unchanged_from_seed_behaviour(self):
        database = Database()
        assert database.now() == "2016-07-05 12:00:01"
        assert database.now() == "2016-07-05 12:00:02"
