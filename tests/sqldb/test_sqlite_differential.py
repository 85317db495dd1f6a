"""Differential test against ``sqlite3``: ordering, dedupe and windows.

An oracle that is not this engine.  Hypothesis builds tables of INT and
NULL columns and statements from the operators one owner each now runs
— ORDER BY (mixed directions, positions and names), LIMIT / OFFSET,
DISTINCT and UNION [ALL] chains — and every statement runs on
``sqlite3`` and on the engine.  On this slice of the dialect the two
agree with MySQL: NULLs sort first ascending and last descending,
DISTINCT and UNION treat NULLs as equal, and a DISTINCT union dedupes
everything to its left.

Results compare as lists when the ORDER BY covers every output column
(the order is then total on what is returned), and as multisets
otherwise; a LIMIT is only generated in the first case, since a window
over a partial order may cut anywhere inside a tie.  The same corpus
runs through a 2-shard :class:`~repro.shard.router.ShardRouter`, which
must agree wherever it accepts the shape and refuse with 1235 where it
does not (UNION, a DISTINCT top-k, ordering by a column the shards do
not return).
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.router import ShardRouter
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database

COLUMNS = ("a", "b", "c")
SCHEMA = "CREATE TABLE t (k INT PRIMARY KEY, a INT, b INT, c INT)"
FILTERS = ("", " WHERE a > 0", " WHERE b IS NULL", " WHERE c <= 1",
           " WHERE a = b")

values = st.one_of(st.none(), st.integers(-3, 3))
tables = st.lists(st.tuples(values, values, values), max_size=8)


@st.composite
def statements(draw):
    """``(sql, ordered)``: *ordered* when the ORDER BY covers every
    output column, so the result is a list, not a multiset."""
    width = draw(st.integers(1, 3))

    def select():
        columns = draw(st.permutations(COLUMNS))[:width]
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        return (columns, "SELECT %s%s FROM t%s" % (
            distinct, ", ".join(columns), draw(st.sampled_from(FILTERS))))

    outputs, sql = select()
    unions = draw(st.integers(0, 2))
    for _ in range(unions):
        glue = " UNION ALL " if draw(st.booleans()) else " UNION "
        sql += glue + select()[1]
    plain = not unions and "DISTINCT" not in sql
    keys = []
    covered = set()
    for _ in range(draw(st.integers(0, width + 1))):
        kind = draw(st.sampled_from(("position", "name", "other")))
        index = draw(st.integers(0, width - 1))
        if kind == "position":
            key = str(index + 1)
            covered.add(index)
        elif kind == "name" or not plain:
            key = outputs[index]
            covered.add(index)
        else:
            # a table column, shown or not: read from the env row
            key = draw(st.sampled_from(COLUMNS))
            if key in outputs:
                covered.add(outputs.index(key))
        keys.append(key + draw(st.sampled_from(("", " ASC", " DESC"))))
    if keys:
        sql += " ORDER BY " + ", ".join(keys)
    ordered = bool(keys) and len(covered) == width
    if ordered and draw(st.booleans()):
        sql += " LIMIT %d" % draw(st.integers(0, 5))
        if draw(st.booleans()):
            sql += " OFFSET %d" % draw(st.integers(0, 3))
    return sql, ordered


def _inserts(rows):
    return ["INSERT INTO t VALUES (%d, %s)" % (
        key, ", ".join("NULL" if v is None else str(v) for v in row))
        for key, row in enumerate(rows)]


def _sqlite(rows, sql):
    oracle = sqlite3.connect(":memory:")
    try:
        oracle.execute(SCHEMA)
        for insert in _inserts(rows):
            oracle.execute(insert)
        return [tuple(row) for row in oracle.execute(sql)]
    finally:
        oracle.close()


def _same(got, expected, ordered):
    if ordered:
        return got == expected
    return sorted(got, key=repr) == sorted(expected, key=repr)


@settings(max_examples=300, deadline=None)
@given(rows=tables, statement=statements())
def test_engine_agrees_with_sqlite(rows, statement):
    sql, ordered = statement
    database = Database()
    database.seed(SCHEMA)
    conn = Connection(database)
    for insert in _inserts(rows):
        conn.query_or_raise(insert)
    got = [tuple(row) for row in conn.query_or_raise(sql).rows]
    assert _same(got, _sqlite(rows, sql), ordered), sql


@pytest.fixture(scope="module")
def router(tmp_path_factory):
    router = ShardRouter(str(tmp_path_factory.mktemp("fleet")), shards=2)
    yield router
    router.close()


@settings(max_examples=60, deadline=None)
@given(rows=tables, statement=statements())
def test_router_agrees_with_sqlite(router, rows, statement):
    sql, ordered = statement
    router.query_or_raise("DROP TABLE IF EXISTS t")
    router.query_or_raise(SCHEMA)
    for insert in _inserts(rows):
        router.query_or_raise(insert)
    outcome = router.query(sql)
    if outcome.error is not None:
        # refused: UNION, a DISTINCT top-k, or ordering by a column the
        # shards do not return
        assert outcome.error.errno == 1235, (sql, outcome.error)
        assert any(shape in str(outcome.error) for shape in
                   ("UNION", "DISTINCT", "non-output")), outcome.error
        return
    got = [tuple(row) for row in outcome.rows]
    assert _same(got, _sqlite(rows, sql), ordered), sql


#: an aggregate under CAST, in each clause that may hold one: (engine
#: SQL, the same statement in sqlite3's spelling of the cast types)
CAST_AGGREGATES = [
    ("SELECT CAST(SUM(a) AS CHAR) FROM t",
     "SELECT CAST(SUM(a) AS TEXT) FROM t"),
    ("SELECT b FROM t GROUP BY b HAVING CAST(SUM(a) AS SIGNED) > 2 "
     "ORDER BY b",
     "SELECT b FROM t GROUP BY b HAVING CAST(SUM(a) AS INTEGER) > 2 "
     "ORDER BY b"),
    ("SELECT b FROM t GROUP BY b ORDER BY CAST(MAX(a) AS SIGNED) DESC, b",
     "SELECT b FROM t GROUP BY b ORDER BY CAST(MAX(a) AS INTEGER) DESC, b"),
]
CAST_ROWS = [(1, 1, 0), (2, 1, 0), (3, 2, 0), (-1, 2, 0), (4, None, 0)]


@pytest.mark.parametrize("sql,oracle", CAST_AGGREGATES)
def test_aggregate_under_cast_agrees_with_sqlite(sql, oracle):
    database = Database()
    database.seed(SCHEMA)
    conn = Connection(database)
    for insert in _inserts(CAST_ROWS):
        conn.query_or_raise(insert)
    got = [tuple(row) for row in conn.query_or_raise(sql).rows]
    assert got == _sqlite(CAST_ROWS, oracle)


#: a cross-shard HAVING, or an ORDER BY the shards do not return, is
#: refused (1235) whatever it holds
SCATTER_REFUSED = {CAST_AGGREGATES[1][0]: "HAVING",
                   CAST_AGGREGATES[2][0]: "non-output"}
SCATTER_CASTS = CAST_AGGREGATES + [
    ("SELECT b, CAST(MAX(a) AS SIGNED) - 1 AS m, AVG(a) FROM t GROUP BY b "
     "ORDER BY m, b",
     "SELECT b, CAST(MAX(a) AS INTEGER) - 1 AS m, AVG(a) FROM t GROUP BY b "
     "ORDER BY m, b"),
]


@pytest.mark.parametrize("sql,oracle", SCATTER_CASTS)
def test_router_aggregate_under_cast_agrees_with_sqlite(router, sql, oracle):
    router.query_or_raise("DROP TABLE IF EXISTS t")
    router.query_or_raise(SCHEMA)
    for insert in _inserts(CAST_ROWS):
        router.query_or_raise(insert)
    outcome = router.query(sql)
    if sql in SCATTER_REFUSED:
        assert outcome.error.errno == 1235, outcome.error
        assert SCATTER_REFUSED[sql] in str(outcome.error)
        return
    assert outcome.error is None, outcome.error
    assert [tuple(row) for row in outcome.rows] == \
        _sqlite(CAST_ROWS, oracle)
