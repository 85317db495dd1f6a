"""Property-based tests on the engine subsystems added on top of the
paper's core: indexes (plan-invariance) and transactions (rollback is
the identity)."""

import string

from hypothesis import given, settings, strategies as st

from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
balances = st.integers(min_value=0, max_value=10**6)
rows_strategy = st.lists(
    st.tuples(names, balances), min_size=1, max_size=12
)


def _make_db(rows):
    database = Database()
    database.seed(
        "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, "
        "name VARCHAR(20), val INT);"
    )
    conn = Connection(database)
    for name, value in rows:
        conn.query_or_raise(
            "INSERT INTO t (name, val) VALUES ('%s', %d)" % (name, value)
        )
    return database, conn


@settings(max_examples=40, deadline=None)
@given(rows_strategy, names)
def test_index_is_plan_invariant(rows, needle):
    """The same query returns identical rows with and without an index —
    the index only changes the access path (verified via EXPLAIN)."""
    database, conn = _make_db(rows)
    query = "SELECT id, val FROM t WHERE name = '%s' ORDER BY id" % needle
    without = conn.query_or_raise(query).result_set.rows
    conn.query_or_raise("CREATE INDEX idx_name ON t (name)")
    plan = conn.query_or_raise("EXPLAIN " + query).result_set.rows
    assert plan[0][1] == "ref"
    with_index = conn.query_or_raise(query).result_set.rows
    assert with_index == without


@settings(max_examples=40, deadline=None)
@given(rows_strategy, balances, st.booleans())
def test_rollback_is_identity(rows, new_value, other_commits):
    """BEGIN, arbitrary writes, ROLLBACK leaves the table exactly as it
    would be without them (rows and auto-increment counter) — also when
    a second session commits a row in between."""
    database, conn = _make_db(rows)
    table = database.table("t")
    expected_rows = [dict(row) for row in table.rows]
    expected_auto = table._auto_counter
    conn.query_or_raise("BEGIN")
    conn.query_or_raise("UPDATE t SET val = %d" % new_value)
    if other_commits:
        Connection(database).query_or_raise(
            "INSERT INTO t (name, val) VALUES ('other', 1)")
        expected_auto += 1
        expected_rows.append(
            {"id": expected_auto, "name": "other", "val": 1})
    conn.query_or_raise("DELETE FROM t WHERE MOD(val, 2) = 0")
    conn.query_or_raise("INSERT INTO t (name, val) VALUES ('ghost', 1)")
    conn.query_or_raise("ROLLBACK")
    assert table.rows == expected_rows
    assert table._auto_counter == expected_auto


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_commit_then_rollback_keeps_committed_state(rows):
    database, conn = _make_db(rows)
    conn.query_or_raise("BEGIN")
    conn.query_or_raise("UPDATE t SET val = 7")
    conn.query_or_raise("COMMIT")
    committed = [dict(row) for row in database.table("t").rows]
    conn.query_or_raise("ROLLBACK")  # no tx open: must be a no-op
    assert database.table("t").rows == committed


@settings(max_examples=30, deadline=None)
@given(rows_strategy, names)
def test_index_lookup_matches_scan_semantics(rows, needle):
    """Table.index_lookup agrees with a manual comparison-based scan
    (case-insensitive string equality, like the engine's '=')."""
    from repro.sqldb.types import compare

    database, _ = _make_db(rows)
    table = database.table("t")
    via_index = {id(row) for row in table.index_lookup("name", needle)}
    via_scan = {
        id(row) for row in table.rows
        if row["name"] is not None and compare(row["name"], needle) == 0
    }
    assert via_index == via_scan
