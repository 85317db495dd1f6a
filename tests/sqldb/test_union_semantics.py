"""UNION and ORDER BY mean what MySQL means, at every entry point.

Two rules, each checked through the local, prepared and wire entry
points (and the shard router where it accepts the shape):

* **Mixed UNION / UNION ALL** (MySQL 5.7 manual 13.2.9.3): a DISTINCT
  union overrides any ALL union to its left.  ``A UNION B UNION ALL C``
  dedupes only A ∪ B and appends C as it comes; ``A UNION ALL B UNION
  C`` dedupes everything.  ``sqlite3`` applies the same rule and is the
  oracle here.
* **ORDER BY position out of range** is errno 1054 "Unknown column 'N'
  in 'order clause'", whether or not the table has rows: the position
  is resolved when the statement is planned, not when a row arrives.
"""

import sqlite3

import pytest

from repro.net.client import NetClient
from repro.net.server import NetServer
from repro.shard.router import ShardRouter
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database

ROWS = (1, 1, 2)

#: (statement, rows MySQL returns over t = (1, 1, 2)), as sorted lists
MIXED_UNIONS = [
    ("SELECT a FROM t UNION SELECT a FROM t UNION ALL SELECT a FROM t",
     [1, 1, 1, 2, 2]),
    ("SELECT a FROM t UNION ALL SELECT a FROM t UNION SELECT a FROM t",
     [1, 2]),
    ("SELECT a FROM t UNION ALL SELECT a FROM t UNION SELECT a FROM t "
     "UNION ALL SELECT a FROM t",
     [1, 1, 1, 2, 2]),
    ("SELECT a FROM t UNION ALL SELECT a FROM t UNION ALL SELECT a FROM t",
     [1, 1, 1, 1, 1, 1, 2, 2, 2]),
    ("SELECT a FROM t UNION SELECT a FROM t UNION ALL SELECT a FROM t "
     "ORDER BY 1 DESC LIMIT 4",
     [1, 1, 2, 2]),
]

IDS = ["union-then-all", "all-then-union", "all-union-all", "all-only",
       "ordered-window"]


def _database(rows=ROWS):
    database = Database()
    database.seed("CREATE TABLE t (a INT, b INT);")
    conn = Connection(database)
    for value in rows:
        conn.query_or_raise("INSERT INTO t VALUES (%d, 0)" % value)
    return database


def _sqlite_rows(sql, rows=ROWS):
    oracle = sqlite3.connect(":memory:")
    try:
        oracle.execute("CREATE TABLE t (a INT, b INT)")
        oracle.executemany("INSERT INTO t VALUES (?, 0)",
                           [(value,) for value in rows])
        return sorted(row[0] for row in oracle.execute(sql))
    finally:
        oracle.close()


@pytest.fixture(scope="module")
def served():
    database = _database()
    server = NetServer(database)
    server.start()
    yield database, server
    server.stop()


@pytest.mark.parametrize("sql,expected", MIXED_UNIONS, ids=IDS)
def test_expectations_agree_with_sqlite(sql, expected):
    assert _sqlite_rows(sql) == expected


class TestMixedUnion(object):
    @pytest.mark.parametrize("sql,expected", MIXED_UNIONS, ids=IDS)
    def test_local(self, sql, expected):
        rows = Connection(_database()).query_or_raise(sql).rows
        assert sorted(row[0] for row in rows) == expected

    @pytest.mark.parametrize("sql,expected", MIXED_UNIONS, ids=IDS)
    def test_prepared(self, sql, expected):
        # the head's WHERE takes a slot, so the plan is shared by values
        conn = Connection(_database())
        prepared = conn.prepare(sql.replace(
            "SELECT a FROM t", "SELECT a FROM t WHERE a >= ?", 1))
        rows = conn.execute_prepared(prepared, 0).rows
        assert sorted(row[0] for row in rows) == expected

    @pytest.mark.parametrize("sql,expected", MIXED_UNIONS, ids=IDS)
    def test_wire(self, served, sql, expected):
        _database, server = served
        with NetClient(server.host, server.port) as client:
            rows = client.query_or_raise(sql).rows
            handle = client.prepare(sql)
            bound = client.execute(handle)
        assert sorted(row[0] for row in rows) == expected
        assert sorted(row[0] for row in bound.rows) == expected

    def test_ordered_union_is_a_list(self):
        rows = Connection(_database()).query_or_raise(
            "SELECT a FROM t UNION SELECT a FROM t UNION ALL "
            "SELECT a FROM t ORDER BY a DESC").rows
        assert rows == [(2,), (2,), (1,), (1,), (1,)]


#: statements whose ORDER BY names a position past the output columns
BAD_POSITIONS = [
    "SELECT a FROM t ORDER BY 5",
    "SELECT a FROM t ORDER BY 2 LIMIT 1",
    "SELECT a FROM t UNION SELECT a FROM t ORDER BY 5",
    "SELECT a FROM t UNION ALL SELECT a FROM t ORDER BY 0",
]


def _assert_1054(outcome, position):
    assert outcome.error is not None
    assert outcome.error.errno == 1054
    assert "Unknown column '%s' in 'order clause'" % position \
        in str(outcome.error)


def _position(sql):
    return sql.split("ORDER BY ")[1].split()[0]


class TestOrderByPosition(object):
    @pytest.mark.parametrize("rows", [(), ROWS], ids=["empty", "rows"])
    @pytest.mark.parametrize("sql", BAD_POSITIONS)
    def test_local(self, sql, rows):
        outcome = Connection(_database(rows)).query(sql)
        _assert_1054(outcome, _position(sql))

    @pytest.mark.parametrize("rows", [(), ROWS], ids=["empty", "rows"])
    @pytest.mark.parametrize("sql", BAD_POSITIONS)
    def test_prepared(self, sql, rows):
        conn = Connection(_database(rows))
        prepared = conn.prepare(sql.replace("FROM t", "FROM t WHERE b = ?",
                                            1))
        _assert_1054(conn.execute_prepared(prepared, 0), _position(sql))

    @pytest.mark.parametrize("sql", BAD_POSITIONS)
    def test_wire(self, served, sql):
        _database, server = served
        with NetClient(server.host, server.port) as client:
            _assert_1054(client.query(sql), _position(sql))

    def test_in_range_position_still_orders(self):
        rows = Connection(_database()).query_or_raise(
            "SELECT b, a FROM t ORDER BY 2 DESC").rows
        assert [row[1] for row in rows] == [2, 1, 1]

    def test_union_order_by_a_non_output_column(self):
        outcome = Connection(_database()).query(
            "SELECT a FROM t UNION SELECT a FROM t ORDER BY b")
        assert outcome.error is not None
        assert outcome.error.errno == 1054
        assert "Unknown column 'b' in 'order clause'" in str(outcome.error)


class TestScatter(object):
    @pytest.fixture
    def router(self, tmp_path):
        router = ShardRouter(str(tmp_path / "fleet"), shards=2)
        router.query_or_raise("CREATE TABLE t (k INT PRIMARY KEY, a INT)")
        for key, value in enumerate(ROWS):
            router.query_or_raise("INSERT INTO t VALUES (%d, %d)"
                                  % (key, value))
        yield router
        router.close()

    def test_position_out_of_range_is_1054(self, router):
        _assert_1054(router.query("SELECT a FROM t ORDER BY 5"), "5")
        _assert_1054(router.query("SELECT a FROM t ORDER BY 3 LIMIT 1"),
                     "3")

    def test_non_output_column_is_still_refused(self, router):
        outcome = router.query("SELECT a FROM t ORDER BY k LIMIT 2")
        assert outcome.error.errno == 1235

    def test_limit_without_order_by(self, router):
        # a scatter's literal LIMIT evaluates against no row
        assert len(router.query_or_raise("SELECT a FROM t LIMIT 2").rows) \
            == 2
        assert router.query_or_raise(
            "SELECT COUNT(*) FROM t LIMIT 1").rows == [(3,)]


#: a parenthesised branch keeps its own ORDER BY / LIMIT (MySQL 5.7
#: manual 13.2.9.3), over t = (1, 1, 2); sorted rows MySQL returns
OWN_CLAUSES = [
    ("SELECT 1 UNION ALL (SELECT 2 LIMIT 1)", [1, 2]),
    ("SELECT a FROM t UNION ALL (SELECT a FROM t ORDER BY a DESC LIMIT 1)",
     [1, 1, 2, 2]),
    ("SELECT a FROM t UNION ALL (SELECT a FROM t ORDER BY a LIMIT 1) "
     "ORDER BY a DESC LIMIT 3", [1, 1, 2]),
    ("SELECT a FROM t UNION ALL (SELECT a FROM t ORDER BY a DESC LIMIT 2) "
     "LIMIT 4", [1, 1, 2, 2]),
]

#: a parenthesised first branch with clauses of its own is refused
HEAD_CLAUSES = "(SELECT a FROM t ORDER BY a DESC LIMIT 1) UNION ALL " \
    "SELECT a FROM t"


def _assert_head_refused(outcome):
    assert outcome.error is not None
    assert outcome.error.errno == 1064
    assert "parenthesised first UNION branch" in str(outcome.error)


class TestParenthesisedBranch(object):
    @pytest.mark.parametrize("sql,expected", OWN_CLAUSES)
    def test_local(self, sql, expected):
        rows = Connection(_database()).query_or_raise(sql).rows
        assert sorted(row[0] for row in rows) == expected

    @pytest.mark.parametrize("sql,expected", OWN_CLAUSES[1:])
    def test_prepared(self, sql, expected):
        conn = Connection(_database())
        prepared = conn.prepare(sql.replace("FROM t", "FROM t WHERE a >= ?"))
        bound = conn.execute_prepared(prepared, *[0] * sql.count("FROM t"))
        assert sorted(row[0] for row in bound.rows) == expected

    @pytest.mark.parametrize("sql,expected", OWN_CLAUSES)
    def test_wire(self, served, sql, expected):
        _database, server = served
        with NetClient(server.host, server.port) as client:
            rows = client.query_or_raise(sql).rows
        assert sorted(row[0] for row in rows) == expected

    def test_ordered_tail_applies_to_the_union(self):
        rows = Connection(_database()).query_or_raise(OWN_CLAUSES[2][0]).rows
        assert rows == [(2,), (1,), (1,)]

    def test_head_with_its_own_clauses_is_refused(self, served):
        _assert_head_refused(Connection(_database()).query(HEAD_CLAUSES))
        conn = Connection(_database())
        with pytest.raises(Exception) as caught:
            conn.prepare(HEAD_CLAUSES)
        assert caught.value.errno == 1064
        _database_, server = served
        with NetClient(server.host, server.port) as client:
            _assert_head_refused(client.query(HEAD_CLAUSES))

    def test_parenthesised_head_without_clauses_still_unions(self):
        rows = Connection(_database()).query_or_raise(
            "(SELECT a FROM t) UNION ALL (SELECT a FROM t LIMIT 1)").rows
        assert len(rows) == 4
