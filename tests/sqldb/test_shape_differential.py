"""Differential execution: one cache entry per statement shape is
invisible from outside.

Every statement of the four applications' recorded workloads, of the
golden-plan suite and of the ``kv`` / ``scan`` / ``shard`` benchmark
families runs — as written, then with other literals of the same kinds
— against two databases that differ in one thing: one has the pipeline
cache (a shape's second text rides the first one's entry, values bound
late), the other has ``cache_size=0`` (every text parsed, validated and
planned with its literals in place).  Rows, column headings, affected
rows, ``LAST_INSERT_ID``, errnos and messages, ``EXPLAIN`` output and
the bytes of the WAL must be identical.  Last, many threads run one
shape with different values at once and none may see another's.
"""

import random
import re
import sys
import threading

from repro.core.septic import Mode, Septic
from repro.sqldb import plan as plan_mod
from repro.sqldb import wal as wal_mod
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.web.app import PhpRuntime

from tests.conftest import vary_literals
from tests.core.test_verdict_invariance import (
    APPS,
    _Recorder,
    _recorded_requests,
)
from tests.sqldb.test_plans import GOLDEN_PLANS

SHOP = """
CREATE TABLE products (
    id INT PRIMARY KEY AUTO_INCREMENT, name VARCHAR(40) NOT NULL,
    price FLOAT, category VARCHAR(20));
CREATE TABLE orders (
    id INT PRIMARY KEY AUTO_INCREMENT, product_id INT, quantity INT);
CREATE INDEX idx_cat ON products (category);
INSERT INTO products (name, price, category) VALUES
    ('apple', 1.0, 'fruit'), ('banana', 0.5, 'fruit'),
    ('carrot', 0.3, 'veg'), ('donut', 2.0, NULL);
INSERT INTO orders (product_id, quantity) VALUES
    (1, 3), (1, 2), (2, 10), (99, 1);
"""

#: the benchmark workloads' statement families (``benchmarks/e2e``)
FAMILIES_SCHEMA = """
CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(32), n INT);
CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR(40),
    region VARCHAR(8), tier INT);
CREATE TABLE scans (id INT PRIMARY KEY, customer_id INT,
    status VARCHAR(8), amount INT, placed INT, note VARCHAR(40));
CREATE INDEX idx_scans_placed ON scans (placed);
CREATE TABLE audit (id INT PRIMARY KEY, order_id INT, action VARCHAR(16));
CREATE TABLE accounts (owner VARCHAR(16) PRIMARY KEY, amount INT,
    region VARCHAR(8), visits INT);
"""
FAMILIES_LOAD = (
    ["INSERT INTO kv (k, v, n) VALUES (%d, 'val-%06d', %d)"
     % (k, k, k % 997) for k in range(1, 40)]
    + ["INSERT INTO customers (id, name, region, tier) VALUES "
       "(%d, 'cust%d', '%s', %d)" % (c, c, ("north", "south")[c % 2], c % 3)
       for c in range(1, 9)]
    + ["INSERT INTO scans (id, customer_id, status, amount, placed, note) "
       "VALUES (%d, %d, '%s', %d, %d, 'n%d')"
       % (o, 1 + o % 8, ("paid", "open")[o % 2], o * 7 % 100, o * 13, o)
       for o in range(1, 60)]
    + ["INSERT INTO accounts (owner, amount, region, visits) VALUES "
       "('own%04d', %d, '%s', 0)" % (a, a * 37 % 9000, ("eu", "us")[a % 2])
       for a in range(1, 40)]
)
FAMILIES = [
    "SELECT v, n FROM kv WHERE k = 7",
    "UPDATE kv SET v = 'changed', n = 11 WHERE k = 7",
    "INSERT INTO kv (k, v, n) VALUES (1007, 'fresh', 3)",
    "INSERT INTO kv (k, v, n) VALUES (7, 'dup', 3)",              # 1062
    "DELETE FROM kv WHERE k = 9",
    "SELECT status, COUNT(*), SUM(amount) FROM scans GROUP BY status",
    "SELECT c.region, COUNT(*), SUM(o.amount) FROM scans o "
    "JOIN customers c ON o.customer_id = c.id GROUP BY c.region",
    "SELECT id, amount FROM scans ORDER BY amount DESC, id LIMIT 20",
    "SELECT id, customer_id, amount FROM scans WHERE status = 'paid' "
    "ORDER BY placed DESC, id LIMIT 5",
    "SELECT id, amount, placed FROM scans WHERE placed >= 100 "
    "AND placed < 400",
    "SELECT id, amount FROM scans WHERE placed BETWEEN 200 AND 300",
    "SELECT id, status, amount, note FROM scans WHERE id = 17",
    "SELECT name, region, tier FROM customers WHERE id = 3",
    "INSERT INTO audit (id, order_id, action) VALUES (1, 17, 'viewed')",
    "SELECT amount, region, visits FROM accounts WHERE owner = 'own0005'",
    "UPDATE accounts SET amount = 55, visits = 2 WHERE owner = 'own0005'",
    "INSERT INTO accounts (owner, amount, region, visits) "
    "VALUES ('new0000001', 12, 'eu', 0)",
    "DELETE FROM accounts WHERE owner = 'own0006'",
    "SELECT region, COUNT(*), SUM(amount) FROM accounts GROUP BY region",
    "SELECT owner, amount FROM accounts ORDER BY amount DESC, owner "
    "LIMIT 10",
    "SELECT COUNT(*), MAX(amount) FROM accounts WHERE amount > 5000",
    "SELECT owner, amount FROM accounts WHERE amount > 8000 "
    "UNION SELECT owner, amount FROM accounts WHERE amount < 100",
    "SELECT nope FROM kv WHERE k = 3",                             # 1054
    "INSERT INTO kv (k, v) VALUES (2001, 'x', 9)",      # column count
    "SELECT v FROM kv WHERE k IN (SELECT id FROM customers "
    "WHERE tier = 2) AND n > 1",
    "SELECT k, CASE WHEN n > 500 THEN 'big' ELSE 'small' END FROM kv "
    "WHERE v LIKE 'val-0000%' AND k < 12",
]
FAMILIES_PREPARED = [
    ("SELECT v, n FROM kv WHERE k = ?", [(3,), (4,), ("5",), (6.0,)]),
    ("UPDATE kv SET v = ?, n = ? WHERE k = ?",
     [("a", 1, 3), ("b", 2, 4), ("b", None, 4)]),
    ("INSERT INTO kv (k, v, n) VALUES (?, ?, ?)",
     [(3001, "p", 1), (3002, "q", 2), (3001, "dup", 3), (3003, "r", True)]),
    ("DELETE FROM kv WHERE k = ?", [(3001,), (3002,)]),
    ("SELECT id FROM scans WHERE placed >= ? AND placed < ? "
     "ORDER BY id LIMIT ?", [(100, 300, 3), (200, 500, 2)]),
]


class Twin(object):
    """The same set-up and the same statements on a cached and an
    uncached database, each with its own WAL."""

    def __init__(self, tmp_path, septic=False):
        self.sides = []
        for name, cache_size in (("cached", 512), ("uncached", 0)):
            guard = Septic(mode=Mode.TRAINING) if septic else None
            database = Database(septic=guard, cache_size=cache_size)
            database.attach_wal(str(tmp_path / name))
            self.sides.append((database, {}))

    def each(self, action):
        return [action(database) for database, _conns in self.sides]

    def _conn(self, side, charset):
        database, conns = self.sides[side]
        if charset not in conns:
            conns[charset] = Connection(database, charset=charset)
        return conns[charset]

    @staticmethod
    def _seen(conn, outcome):
        error = outcome.error
        return (
            outcome.ok,
            None if error is None else (getattr(error, "errno", None),
                                        str(error)),
            None if outcome.result_set is None
            else (list(outcome.result_set.columns),
                  [tuple(row) for row in outcome.rows]),
            outcome.affected_rows,
            conn.last_insert_id,
        )

    def query(self, sql, charset="utf8"):
        """Run *sql* on both sides; what both saw (asserted equal)."""
        seen = []
        for side in range(2):
            conn = self._conn(side, charset)
            seen.append(self._seen(conn, conn.query(sql)))
        assert seen[0] == seen[1], sql
        return seen[0]

    def execute(self, handles, params):
        seen = []
        for side, handle in enumerate(handles):
            conn = self._conn(side, "utf8")
            seen.append(self._seen(
                conn, conn.execute_prepared(handle, *params)))
        assert seen[0] == seen[1], params
        return seen[0]

    def prepare(self, sql):
        return [self._conn(side, "utf8").prepare(sql) for side in range(2)]

    def assert_same_state(self):
        logs = []
        for database, _conns in self.sides:
            database.wal.fsync()
            with open(wal_mod.log_path(database.data_dir), "rb") as handle:
                logs.append(handle.read())
        assert len(logs[0]) > 0
        assert logs[0] == logs[1], "WAL bytes differ"
        tables = self.each(lambda db: {
            name: sorted(map(repr, db.table(name).rows))
            for name in sorted(db.tables)})
        assert tables[0] == tables[1]

    def cache(self):
        return self.sides[0][0].pipeline_cache


def _twice(twin, statements, seed):
    """Each statement as written, then with other literals; EXPLAIN of
    both for SELECTs."""
    rng = random.Random(seed)
    errnos = set()
    for sql, charset in statements:
        for text in (sql, vary_literals(sql, rng)):
            seen = twin.query(text, charset)
            if seen[1] is not None:
                errnos.add(seen[1][0])
            if re.match(r"\s*(/\*.*?\*/\s*)?SELECT\b", text, re.I | re.S):
                twin.query("EXPLAIN " + text, charset)
    return errnos


def test_benchmark_statement_families(tmp_path):
    twin = Twin(tmp_path)
    for statement in FAMILIES_SCHEMA.strip().split(";\n"):
        assert twin.query(statement)[0], statement
    for statement in FAMILIES_LOAD:
        assert twin.query(statement)[0], statement
    errnos = _twice(twin, [(sql, "utf8") for sql in FAMILIES], seed=3)
    assert {1054, 1062} <= errnos
    for sql, vectors in FAMILIES_PREPARED:
        handles = twin.prepare(sql)
        for params in vectors:
            twin.execute(handles, params)
    twin.assert_same_state()
    stats = twin.cache().stats_dict()
    # the second text of a shape was served by the first one's entry
    assert stats["shape_hits"] >= len(FAMILIES) // 2


def test_golden_plan_inputs(tmp_path):
    twin = Twin(tmp_path)
    for database, _conns in twin.sides:
        database.seed(SHOP)
    _twice(twin, [(sql, "utf8") for sql, _tree in GOLDEN_PLANS], seed=5)
    twin.assert_same_state()
    # and the tree a shared entry runs is the golden one, its constants
    # read from the execution instead of written into the plan
    cached = twin.sides[0][0]
    for sql, expected in GOLDEN_PLANS:
        twin.query(sql)
        text = twin.cache().probe("utf8", sql, cached.schema_version)
        tree = plan_mod.render_tree(text.entry.plan[1])
        bound = re.sub(r"\?(\d+)",
                       lambda match: repr(text.values[int(match.group(1))]),
                       tree)
        assert bound == expected, sql


def test_application_workloads(tmp_path):
    """The four apps set up and trained on both sides through their own
    handlers, then every statement they issued replayed twice."""
    twin = Twin(tmp_path, septic=True)
    sink = []
    for index, (database, _conns) in enumerate(twin.sides):
        apps = [cls(database) for cls in APPS]
        if index == 0:
            for app in apps:
                for runtime in vars(app).values():
                    if isinstance(runtime, PhpRuntime):
                        runtime.connection = _Recorder(runtime.connection,
                                                       sink)
        for app in apps:
            for request in _recorded_requests(app):
                app.handle(request)
        database.septic.mode = Mode.PREVENTION
    assert len(sink) > 60
    _twice(twin, sink, seed=7)
    twin.assert_same_state()
    stats = twin.each(lambda db: db.septic.stats.as_dict())
    assert stats[0] == stats[1]
    assert twin.cache().shape_hits > 20


def test_write_conflict_errno_is_the_same(tmp_path):
    """errno 1213 (first writer wins) out of a shared entry."""
    twin = Twin(tmp_path)
    for database, _conns in twin.sides:
        database.seed("CREATE TABLE c (k INT PRIMARY KEY, v INT);"
                      "INSERT INTO c VALUES (1, 0), (2, 0)")
    seen = []
    for database, _conns in twin.sides:
        first, second = Connection(database), Connection(database)
        assert first.query("UPDATE c SET v = 5 WHERE k = 2").ok  # warms
        first.begin()
        second.begin()
        assert first.query("UPDATE c SET v = 6 WHERE k = 1").ok
        loser = second.query("UPDATE c SET v = 7 WHERE k = 1")
        seen.append((loser.error.errno, str(loser.error)))
        first.commit()
        second.rollback()
    assert seen[0] == seen[1] and seen[0][0] == 1213
    twin.assert_same_state()


def test_concurrent_executions_of_one_shape_keep_their_own_values():
    """The entry is shared and read-only; values live in the execution.
    More threads than cores, a short switch interval, and every result
    checked against the thread's own values."""
    database = Database(septic=Septic(mode=Mode.TRAINING))
    database.seed("CREATE TABLE p (id INT PRIMARY KEY, owner VARCHAR(8), "
                  "n INT); CREATE TABLE log (id INT PRIMARY KEY "
                  "AUTO_INCREMENT, owner VARCHAR(8), n INT)")
    threads, loops = 8, 60
    seeder = Connection(database)
    for index in range(threads):
        seeder.query_or_raise(
            "INSERT INTO p VALUES (%d, 't%d', %d)" % (index, index, index))
    database.septic.mode = Mode.PREVENTION
    errors = []

    def worker(index):
        conn = Connection(database)
        handle = conn.prepare("SELECT id, owner FROM p WHERE id = ?")
        try:
            for loop in range(loops):
                rows = conn.query(
                    "SELECT id, owner FROM p WHERE id = %d AND n < %d"
                    % (index, index + 1 + loop)).rows
                if rows != [(index, "t%d" % index)]:
                    errors.append(("literal", index, rows))
                rows = conn.execute_prepared(handle, index).rows
                if rows != [(index, "t%d" % index)]:
                    errors.append(("prepared", index, rows))
                outcome = conn.query(
                    "INSERT INTO log (owner, n) VALUES ('t%d', %d)"
                    % (index, loop))
                if not outcome.ok:
                    errors.append(("insert", index, str(outcome.error)))
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker, args=(i,))
                for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    logged = sorted((row["owner"], row["n"])
                    for row in database.table("log").rows)
    assert logged == sorted(("t%d" % i, n) for i in range(threads)
                            for n in range(loops))
    # one entry served every literal text of the shape
    assert database.pipeline_cache.shape_hits >= threads * (loops - 1)
