"""Statement lock classification and the engine's lock hierarchy.

Every statement maps to a :class:`LockPlan` — catalog mode plus
per-table modes in the global acquisition order — before it runs.
Under MVCC snapshot reads the classification shrank: SELECTs take no
table locks at all, DML excludes only its mutation target (writer vs
writer), and DDL still excludes everything.
"""

import threading

from repro.sqldb.connection import Connection
from repro.sqldb.engine import (
    Database,
    LockManager,
    LockPlan,
    lock_plan,
)
from repro.sqldb.parser import parse_one


def _plan(sql):
    return lock_plan(parse_one(sql))


class TestClassification(object):
    def test_select_needs_no_table_locks(self):
        # MVCC snapshot reads: SELECT pins a read view instead of
        # parking on table locks, so the plan is catalog-S only
        plan = _plan("SELECT a FROM t JOIN u ON t.x = u.x")
        assert plan.catalog_shared
        assert plan.tables == ()

    def test_explain_is_a_read(self):
        plan = _plan("EXPLAIN SELECT a FROM t")
        assert plan.catalog_shared
        assert plan.tables == ()

    def test_insert_takes_target_exclusive(self):
        plan = _plan("INSERT INTO t (a) VALUES (1)")
        assert plan.catalog_shared
        assert plan.tables == (("t", False),)

    def test_update_with_subquery_locks_target_only(self):
        # the subquery side reads through the statement's snapshot;
        # only the mutation target needs exclusion (writer vs writer)
        plan = _plan(
            "UPDATE t SET a = 1 WHERE b IN (SELECT b FROM u)"
        )
        assert dict(plan.tables) == {"t": False}

    def test_ddl_takes_catalog_exclusive(self):
        for sql in ("CREATE TABLE t (a INT)", "DROP TABLE t",
                    "CREATE INDEX i ON t (a)"):
            plan = _plan(sql)
            assert not plan.catalog_shared
            assert plan.tables == ()

    def test_transaction_control_has_no_plan(self):
        for sql in ("BEGIN", "COMMIT", "ROLLBACK"):
            assert _plan(sql) is None

    def test_tables_come_presorted(self):
        # writers still sort into the global acquisition order; reads
        # no longer contribute entries at all
        plan = LockPlan(True, [("zeta", False), ("alpha", False)])
        assert plan.tables == (("alpha", False), ("zeta", False))
        assert _plan("SELECT * FROM zeta JOIN alpha ON zeta.a = alpha.a"
                     ).tables == ()


class TestLockPlanOrdering(object):
    def test_plan_sorts_its_tables(self):
        plan = LockPlan(True, [("b", True), ("a", False)])
        assert plan.tables == (("a", False), ("b", True))


class TestLockManager(object):
    def test_shared_plans_overlap(self):
        manager = LockManager()
        plan = LockPlan(True, [("t", True)])
        manager.acquire(plan)
        manager.acquire(plan)   # a second reader must not block
        manager.release(plan)
        manager.release(plan)
        stats = manager.stats()
        assert stats["read_acquires"] == 4  # catalog + table, twice
        assert stats["contended"] == 0

    def test_exclusive_table_blocks_reader(self):
        manager = LockManager()
        write_plan = LockPlan(True, [("t", False)])
        read_plan = LockPlan(True, [("t", True)])
        manager.acquire(write_plan)
        got = []

        def reader():
            manager.acquire(read_plan)
            got.append("read")
            manager.release(read_plan)

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join(timeout=0.2)
        assert got == []    # still parked on the table lock
        manager.release(write_plan)
        thread.join(timeout=5)
        assert got == ["read"]
        assert manager.stats()["contended"] >= 1


class TestDatabaseLockModes(object):
    def test_shared_mode_plans_reads_shared(self):
        database = Database()
        plan = database._lock_plan_for(parse_one("SELECT 1 FROM t"))
        assert plan.catalog_shared

    def test_statements_release_their_locks(self):
        database = Database()
        database.seed("CREATE TABLE t (a INT); INSERT INTO t VALUES (1)")
        conn = Connection(database)
        conn.query_or_raise("SELECT a FROM t")
        conn.query_or_raise("UPDATE t SET a = 2")
        stats = database.lock_manager.stats()
        assert stats["read_acquires"] > 0
        assert stats["write_acquires"] > 0
        # nothing is held between statements
        assert stats["catalog"]["readers"] == 0
        assert not stats["catalog"]["writer"]
        for state in stats["tables"].values():
            assert state["readers"] == 0
            assert not state["writer"]

    def test_transactions_run_under_the_hierarchy(self):
        database = Database()
        database.seed("CREATE TABLE t (a INT); INSERT INTO t VALUES (1)")
        conn = Connection(database)
        conn.query_or_raise("BEGIN")
        conn.query_or_raise("UPDATE t SET a = 5")
        conn.query_or_raise("ROLLBACK")
        assert database.table("t").rows[0]["a"] == 1
        stats = database.lock_manager.stats()
        assert stats["catalog"]["readers"] == 0
        assert not stats["catalog"]["writer"]
