"""Differential test against ``sqlite3``: PRIMARY KEY and UNIQUE.

An oracle that is not this engine decides which writes a key refuses.
Hypothesis builds a table ``t (k INT PRIMARY KEY, u INT [UNIQUE], v
INT)`` — an INT primary key and at most one INT UNIQUE column — and a
sequence of writes, each run on ``sqlite3`` and on the engine:

* multi-row INSERT, INSERT IGNORE (``INSERT OR IGNORE``) and REPLACE;
* INSERT … ON DUPLICATE KEY UPDATE (``ON CONFLICT DO UPDATE``, with
  ``VALUES(v)`` spelled ``excluded.v``);
* ``UPDATE t SET <key> = <key> + c [WHERE …] ORDER BY <key> ASC|DESC``,
  and ``SET <key> = c``, which two targets cannot both take.  MySQL
  checks each row's new key as it updates it, in the ORDER BY's order;
  ``sqlite3`` visits an UPDATE's rows in its own order, so the oracle
  runs the UPDATE one row at a time in that order inside a savepoint,
  and a row it refuses takes the whole statement back.

Compared: whether each statement is accepted or refused (a refusal is
1062 here, a UNIQUE failure there), and the rows after every statement.
``sqlite3`` takes a failed statement back whole, as the engine does.

Out of scope: affected-row counts, where MySQL reports 2 for an
upsert's update and ``sqlite3`` has no equivalent (hand-written cases
below pin them); a row that an ON DUPLICATE KEY UPDATE finds held on
both keys by two different rows, where MySQL picks the row of the first
index that conflicts (such a statement is skipped); tables with two
UNIQUE columns; and text keys, which this engine folds as its ``=``
does (case and confusables, ``test_key_rule.py``) and ``sqlite3``'s
default BINARY collation does not.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database

keys = st.integers(0, 5)
uniques = st.one_of(st.none(), st.integers(0, 5))
rows = st.tuples(keys, uniques, st.integers(-9, 9))
ODKU_SETS = [("v = v + 1", "v = v + 1"),
             ("v = VALUES(v)", "v = excluded.v"),
             ("k = k + 1", "k = k + 1"),
             ("k = 0, v = v - 1", "k = 0, v = v - 1"),
             ("u = u + 1", "u = u + 1")]


def _values(batch):
    return ", ".join("(%d, %s, %d)" % (k, "NULL" if u is None else u, v)
                     for k, u, v in batch)


@st.composite
def writes(draw, unique):
    """``(engine SQL, oracle)``: *oracle* is the ``sqlite3`` text, or
    ``(SET list, WHERE clause, ORDER BY)`` for a row-at-a-time UPDATE."""
    kind = draw(st.sampled_from(("insert", "ignore", "replace", "odku",
                                 "update")))
    if kind == "update":
        key = draw(st.sampled_from(("k", "u") if unique else ("k",)))
        step = draw(st.integers(-2, 2))
        assign = draw(st.sampled_from(("%s = %s + %d" % (key, key, step),
                                       "%s = %d" % (key, step + 2))))
        where = draw(st.sampled_from(("", " WHERE v >= %d" % step)))
        order = " ORDER BY %s %s" % (key, draw(st.sampled_from(("ASC",
                                                                 "DESC"))))
        return ("UPDATE t SET " + assign + where + order,
                (assign, where, order))
    # with a UNIQUE column an upsert is one row, so the skip below is exact
    most = 1 if kind == "odku" and unique else 3
    values = _values(draw(st.lists(rows, min_size=1, max_size=most)))
    if kind == "insert":
        sql = "INSERT INTO t VALUES " + values
        return sql, sql
    if kind == "ignore":
        return ("INSERT IGNORE INTO t VALUES " + values,
                "INSERT OR IGNORE INTO t VALUES " + values)
    if kind == "replace":
        sql = "REPLACE INTO t VALUES " + values
        return sql, sql
    mysql, lite = draw(st.sampled_from(ODKU_SETS if unique
                                       else ODKU_SETS[:4]))
    return ("INSERT INTO t VALUES %s ON DUPLICATE KEY UPDATE %s"
            % (values, mysql),
            "INSERT INTO t VALUES %s ON CONFLICT DO UPDATE SET %s"
            % (values, lite))


@st.composite
def scripts(draw):
    unique = draw(st.booleans())
    return unique, draw(st.lists(writes(unique), min_size=1, max_size=6))


def _oracle_run(oracle, statement):
    """Run one write on ``sqlite3``; ``True`` when it was accepted."""
    try:
        if isinstance(statement, str):
            oracle.execute(statement)
            return True
        assign, where, order = statement
        targets = [rowid for (rowid,) in oracle.execute(
            "SELECT rowid FROM t" + where + order)]
        oracle.execute("SAVEPOINT row_at_a_time")
        try:
            for rowid in targets:
                oracle.execute("UPDATE t SET %s WHERE rowid = ?" % assign,
                               (rowid,))
        except sqlite3.IntegrityError:
            oracle.execute("ROLLBACK TO row_at_a_time")
            raise
        finally:
            oracle.execute("RELEASE row_at_a_time")
        return True
    except sqlite3.IntegrityError:
        return False


def _ambiguous(oracle, sql):
    """An upsert whose row is held on ``k`` and on ``u`` by two rows."""
    if "ON CONFLICT" not in sql:
        return False
    k, u = sql.split("(", 1)[1].split(",")[:2]
    if u.strip() == "NULL":
        return False
    (held,), = oracle.execute("SELECT COUNT(*) FROM t WHERE k = ? OR u = ?",
                              (int(k), int(u)))
    return held > 1


def _rows(source):
    return [tuple(row) for row in source]


@settings(max_examples=250, deadline=None)
@given(script=scripts())
def test_engine_keys_agree_with_sqlite(script):
    unique, statements = script
    schema = "CREATE TABLE t (k INT PRIMARY KEY, u INT%s, v INT)" % (
        " UNIQUE" if unique else "")
    oracle = sqlite3.connect(":memory:", isolation_level=None)
    try:
        oracle.execute(schema)
        database = Database()
        database.seed(schema)
        conn = Connection(database)
        for sql, lite in statements:
            if unique and isinstance(lite, str) and _ambiguous(oracle, lite):
                continue
            accepted = _oracle_run(oracle, lite)
            outcome = conn.query(sql)
            if accepted:
                assert outcome.error is None, (sql, outcome.error)
            else:
                assert outcome.error is not None, sql
                assert outcome.error.errno == 1062, (sql, outcome.error)
            assert _rows(conn.query_or_raise(
                "SELECT k, u, v FROM t ORDER BY k").rows) == _rows(
                oracle.execute("SELECT k, u, v FROM t ORDER BY k")), sql
    finally:
        oracle.close()


SEED = ("CREATE TABLE t (k INT PRIMARY KEY, u INT UNIQUE, v INT);"
        "INSERT INTO t VALUES (1, 1, 10), (2, 2, 20), (3, NULL, 30)")


@pytest.mark.parametrize("sql, affected, after", [
    ("INSERT INTO t VALUES (4, 4, 40), (5, 5, 50)", 2, None),
    ("INSERT IGNORE INTO t VALUES (1, 9, 0), (4, 4, 40)", 1, None),
    # a REPLACE counts the rows it deleted and the one it inserted
    ("REPLACE INTO t VALUES (1, 9, 0)", 2,
     [(1, 9, 0), (2, 2, 20), (3, None, 30)]),
    ("REPLACE INTO t VALUES (1, 2, 0)", 3, [(1, 2, 0), (3, None, 30)]),
    # an upsert that updates counts 2, one that changes nothing 0
    ("INSERT INTO t VALUES (1, 9, 0) ON DUPLICATE KEY UPDATE v = v + 1", 2,
     [(1, 1, 11), (2, 2, 20), (3, None, 30)]),
    ("INSERT INTO t VALUES (9, 2, 0) ON DUPLICATE KEY UPDATE v = v + 1", 2,
     [(1, 1, 10), (2, 2, 21), (3, None, 30)]),
    ("INSERT INTO t VALUES (1, 9, 0) ON DUPLICATE KEY UPDATE v = 10", 0,
     None),
    ("INSERT INTO t VALUES (4, 4, 0) ON DUPLICATE KEY UPDATE v = 10", 1,
     None),
    ("UPDATE t SET k = k + 1 ORDER BY k DESC", 3,
     [(2, 1, 10), (3, 2, 20), (4, None, 30)]),
    # a row whose new values are its old ones is matched, not changed
    ("UPDATE t SET u = u ORDER BY k", 0, None),
])
def test_affected_rows_are_mysqls(sql, affected, after):
    database = Database()
    database.seed(SEED)
    conn = Connection(database)
    before = conn.query_or_raise("SELECT k, u, v FROM t ORDER BY k").rows
    assert conn.query_or_raise(sql).affected_rows == affected
    rows = conn.query_or_raise("SELECT k, u, v FROM t ORDER BY k").rows
    if after is not None:
        assert rows == after
    elif affected == 0:
        assert rows == before
