"""Parse → unparse → parse round-trip: the parser's strongest property.

Canonical re-rendering may change spelling (parentheses, keyword case)
but must never change the AST.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqldb.charset import escape_string
from repro.sqldb.lexer import KEYWORDS
from repro.sqldb.parser import parse_one
from repro.sqldb.unparse import to_sql

CORPUS = [
    "SELECT 1",
    "SELECT * FROM t",
    "SELECT a, b AS bee FROM t",
    "SELECT t.* FROM t",
    "SELECT DISTINCT a FROM t",
    "SELECT * FROM t WHERE a = 1 AND b = 'x'",
    "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3",
    "SELECT * FROM t WHERE NOT a = 1",
    "SELECT * FROM t WHERE a IN (1, 2, 3)",
    "SELECT * FROM t WHERE a NOT IN (SELECT b FROM u)",
    "SELECT * FROM t WHERE a BETWEEN 1 AND 5",
    "SELECT * FROM t WHERE a IS NOT NULL",
    "SELECT * FROM t WHERE a LIKE 'x%'",
    "SELECT * FROM t WHERE a REGEXP '^x'",
    "SELECT * FROM t WHERE a <=> NULL",
    "SELECT CONCAT(a, 'x', 1) FROM t",
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(DISTINCT a) FROM t",
    "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
    "SELECT CASE a WHEN 1 THEN 'x' WHEN 2 THEN 'y' END FROM t",
    "SELECT CAST(a AS SIGNED) FROM t",
    "SELECT (SELECT MAX(a) FROM t) FROM u",
    "SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u)",
    "SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1",
    "SELECT a FROM t ORDER BY a DESC, b ASC LIMIT 5",
    "SELECT a FROM t LIMIT 5 OFFSET 2",
    "SELECT * FROM a JOIN b ON a.x = b.x",
    "SELECT * FROM a LEFT JOIN b ON a.x = b.x",
    "SELECT * FROM a CROSS JOIN b",
    "SELECT * FROM (SELECT a FROM t) AS d WHERE d.a = 1",
    "SELECT a FROM t UNION SELECT b FROM u",
    "SELECT a FROM t UNION ALL SELECT b FROM u",
    "SELECT 1 UNION ALL (SELECT 2 LIMIT 1)",
    "SELECT a FROM t UNION ALL (SELECT a FROM t ORDER BY a DESC LIMIT 1)",
    "SELECT a FROM t UNION (SELECT b FROM u LIMIT 2) ORDER BY a LIMIT 3",
    "SELECT 1 + 2 * 3 - 4 / 5",
    "SELECT a | b & c << 1",
    "SELECT * FROM t WHERE a = ?",
    "INSERT INTO t (a, b) VALUES (1, 'x')",
    "INSERT INTO t (a) VALUES (1), (2), (3)",
    "INSERT IGNORE INTO t (a) VALUES (1)",
    "INSERT INTO t (a) VALUES (1) ON DUPLICATE KEY UPDATE b = b + 1",
    "REPLACE INTO t (a) VALUES (1)",
    "UPDATE t SET a = 1, b = b + 1 WHERE id = 3",
    "UPDATE t SET a = 1 ORDER BY id LIMIT 2",
    "DELETE FROM t WHERE a = 1",
    "DELETE FROM t ORDER BY a DESC LIMIT 1",
    "CREATE TABLE IF NOT EXISTS t (id INT PRIMARY KEY AUTO_INCREMENT, "
    "name VARCHAR(20) NOT NULL DEFAULT 'x', code INT UNIQUE)",
    "CREATE TABLE t (a INT, b FLOAT DEFAULT 1.5, c VARCHAR(8) DEFAULT NULL)",
    "ALTER TABLE t ADD COLUMN c INT DEFAULT 0",
    "ALTER TABLE t DROP COLUMN c",
    "CREATE INDEX idx_a ON t (a)",
    "DROP INDEX idx_a ON t",
    "TRUNCATE TABLE t",
    "DROP TABLE IF EXISTS t",
    "DROP TABLE t",
    "BEGIN",
    "COMMIT",
    "ROLLBACK",
]


@pytest.mark.parametrize("sql", CORPUS)
def test_roundtrip_corpus(sql):
    first = parse_one(sql)
    rendered = to_sql(first)
    second = parse_one(rendered)
    assert second == first, rendered


@pytest.mark.parametrize("sql", CORPUS)
def test_roundtrip_is_fixpoint(sql):
    """Unparsing is canonical: a second round-trip changes nothing."""
    once = to_sql(parse_one(sql))
    twice = to_sql(parse_one(once))
    assert once == twice


idents = st.text(alphabet=string.ascii_lowercase, min_size=1,
                 max_size=8).filter(lambda s: s.upper() not in KEYWORDS)
values = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="ʼʹ‘’′＇“”″＂＜＞；－＃"),
            max_size=20),
)


@settings(max_examples=60, deadline=None)
@given(idents, idents, values, st.sampled_from(["=", "!=", "<", ">="]))
def test_roundtrip_generated_selects(table, column, value, op):
    if isinstance(value, str):
        literal = "'%s'" % escape_string(value)
    else:
        literal = str(value)
    sql = "SELECT %s FROM %s WHERE %s %s %s" % (
        column, table, column, op, literal
    )
    first = parse_one(sql)
    assert parse_one(to_sql(first)) == first
