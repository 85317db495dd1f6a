"""Tests for transactions, secondary indexes and EXPLAIN, on both row
stores (see ``conftest.backend``)."""

import pytest

from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database


@pytest.fixture
def bank(backend):
    database = backend.database(
        """
        CREATE TABLE accounts (
            id INT PRIMARY KEY AUTO_INCREMENT,
            owner VARCHAR(40),
            balance INT
        );
        INSERT INTO accounts (owner, balance) VALUES
            ('alice', 100), ('bob', 50), ('carol', 200);
        """
    )
    return database, Connection(database)


class TestTransactions(object):
    def test_commit_persists(self, bank):
        database, conn = bank
        conn.query("BEGIN")
        conn.query("UPDATE accounts SET balance = 0 WHERE owner = 'alice'")
        conn.query("COMMIT")
        rows = {r["owner"]: r for r in database.table("accounts").rows}
        assert rows["alice"]["balance"] == 0

    def test_rollback_restores_updates(self, bank):
        database, conn = bank
        conn.query("BEGIN")
        conn.query("UPDATE accounts SET balance = 0")
        conn.query("ROLLBACK")
        rows = {r["owner"]: r for r in database.table("accounts").rows}
        assert rows["alice"]["balance"] == 100
        assert rows["carol"]["balance"] == 200

    def test_rollback_restores_deletes_and_inserts(self, bank):
        database, conn = bank
        conn.query("START TRANSACTION")
        conn.query("DELETE FROM accounts WHERE owner = 'bob'")
        conn.query("INSERT INTO accounts (owner, balance) "
                   "VALUES ('dave', 10)")
        assert len(database.table("accounts")) == 3
        conn.query("ROLLBACK")
        owners = {r["owner"] for r in database.table("accounts").rows}
        assert owners == {"alice", "bob", "carol"}

    def test_rollback_restores_auto_increment(self, bank):
        database, conn = bank
        conn.query("BEGIN")
        conn.query("INSERT INTO accounts (owner, balance) "
                   "VALUES ('dave', 10)")
        conn.query("ROLLBACK")
        conn.query("INSERT INTO accounts (owner, balance) "
                   "VALUES ('erin', 20)")
        assert conn.last_insert_id == 4  # the id sequence rewound

    def test_rollback_without_begin_is_noop(self, bank):
        database, conn = bank
        assert conn.query("ROLLBACK").ok
        assert len(database.table("accounts")) == 3

    def test_begin_inside_transaction_implicitly_commits(self, bank):
        database, conn = bank
        conn.query("BEGIN")
        conn.query("UPDATE accounts SET balance = 1 WHERE owner = 'bob'")
        conn.query("BEGIN")      # implicit COMMIT of the first tx
        conn.query("ROLLBACK")   # only rolls back the (empty) second tx
        rows = {r["owner"]: r for r in database.table("accounts").rows}
        assert rows["bob"]["balance"] == 1

    def test_in_transaction_property(self, bank):
        database, conn = bank
        assert not database.in_transaction
        conn.query("BEGIN")
        assert database.in_transaction
        conn.query("COMMIT")
        assert not database.in_transaction

    def test_transaction_isolation_of_reads(self, bank):
        database, conn = bank
        conn.query("BEGIN")
        conn.query("UPDATE accounts SET balance = 999 "
                   "WHERE owner = 'alice'")
        # reads inside the tx see the change (read-your-writes)
        out = conn.query("SELECT balance FROM accounts "
                         "WHERE owner = 'alice'")
        assert out.result_set.scalar() == 999
        conn.query("ROLLBACK")
        out = conn.query("SELECT balance FROM accounts "
                         "WHERE owner = 'alice'")
        assert out.result_set.scalar() == 100


class TestTransactionsPaged(TestTransactions):
    storage = "paged"


class TestIndexes(object):
    def test_create_and_drop(self, bank):
        database, conn = bank
        assert conn.query("CREATE INDEX idx_owner ON accounts (owner)").ok
        assert "idx_owner" in database.table("accounts").indexes
        assert conn.query("DROP INDEX idx_owner ON accounts").ok
        assert "idx_owner" not in database.table("accounts").indexes

    def test_create_duplicate_rejected(self, bank):
        _, conn = bank
        conn.query("CREATE INDEX i ON accounts (owner)")
        outcome = conn.query("CREATE INDEX i ON accounts (balance)")
        assert not outcome.ok and outcome.error.errno == 1061

    def test_create_on_missing_column(self, bank):
        _, conn = bank
        outcome = conn.query("CREATE INDEX i ON accounts (nope)")
        assert not outcome.ok and outcome.error.errno == 1072

    def test_drop_missing(self, bank):
        _, conn = bank
        outcome = conn.query("DROP INDEX nope ON accounts")
        assert not outcome.ok and outcome.error.errno == 1091

    def test_indexed_query_same_results(self, bank):
        _, conn = bank
        before = conn.query(
            "SELECT id FROM accounts WHERE owner = 'bob'"
        ).rows
        conn.query("CREATE INDEX idx_owner ON accounts (owner)")
        after = conn.query(
            "SELECT id FROM accounts WHERE owner = 'bob'"
        ).rows
        assert before == after == [(2,)]

    def test_index_sees_mutations(self, bank):
        database, conn = bank
        conn.query("CREATE INDEX idx_owner ON accounts (owner)")
        conn.query("SELECT id FROM accounts WHERE owner = 'bob'")  # warm
        conn.query("INSERT INTO accounts (owner, balance) "
                   "VALUES ('bob', 7)")
        out = conn.query("SELECT COUNT(*) FROM accounts "
                         "WHERE owner = 'bob'")
        assert out.result_set.scalar() == 2
        conn.query("UPDATE accounts SET owner = 'robert' "
                   "WHERE balance = 7")
        out = conn.query("SELECT COUNT(*) FROM accounts "
                         "WHERE owner = 'bob'")
        assert out.result_set.scalar() == 1
        conn.query("DELETE FROM accounts WHERE owner = 'bob'")
        out = conn.query("SELECT COUNT(*) FROM accounts "
                         "WHERE owner = 'bob'")
        assert out.result_set.scalar() == 0

    def test_primary_key_always_indexed(self, bank):
        database, _ = bank
        assert "id" in database.table("accounts").indexed_columns()

    def test_index_with_extra_conjuncts(self, bank):
        _, conn = bank
        conn.query("CREATE INDEX idx_owner ON accounts (owner)")
        out = conn.query(
            "SELECT id FROM accounts "
            "WHERE owner = 'alice' AND balance > 10"
        )
        assert out.rows == [(1,)]

    def test_string_index_case_insensitive(self, bank):
        _, conn = bank
        conn.query("CREATE INDEX idx_owner ON accounts (owner)")
        out = conn.query("SELECT id FROM accounts WHERE owner = 'ALICE'")
        assert out.rows == [(1,)]


class TestIndexesPaged(TestIndexes):
    storage = "paged"


class TestExplain(object):
    def test_full_scan(self, bank):
        _, conn = bank
        out = conn.query("EXPLAIN SELECT * FROM accounts "
                         "WHERE balance > 10")
        assert out.rows == [("accounts", "ALL", None, 3)]

    def test_index_access(self, bank):
        _, conn = bank
        conn.query("CREATE INDEX idx_owner ON accounts (owner)")
        out = conn.query("EXPLAIN SELECT * FROM accounts "
                         "WHERE owner = 'bob'")
        assert out.rows == [("accounts", "ref", "owner", 3)]

    def test_primary_key_access(self, bank):
        _, conn = bank
        out = conn.query("EXPLAIN SELECT * FROM accounts WHERE id = 1")
        assert out.rows[0][1] == "ref"

    def test_join_tables_listed(self, bank):
        database, conn = bank
        database.seed("CREATE TABLE logs (account_id INT, what TEXT)")
        out = conn.query(
            "EXPLAIN SELECT * FROM accounts a "
            "JOIN logs l ON a.id = l.account_id"
        )
        assert [row[0] for row in out.rows] == ["accounts", "logs"]

    def test_explain_goes_through_septic(self):
        """EXPLAIN carries the SELECT's structure, so SEPTIC models it
        like the underlying query (no blind spot through EXPLAIN)."""
        from repro.core.septic import Mode, Septic

        septic = Septic(mode=Mode.TRAINING)
        database = Database(septic=septic)
        database.seed("CREATE TABLE t (a INT)")
        conn = Connection(database)
        conn.query("/* septic:s:1 */ SELECT * FROM t WHERE a = 1")
        septic.mode = Mode.PREVENTION
        outcome = conn.query(
            "/* septic:s:1 */ EXPLAIN SELECT * FROM t WHERE a = 1 OR 1=1"
        )
        assert not outcome.ok


class TestExplainPaged(TestExplain):
    storage = "paged"
