"""Golden-plan suite for the plan/execute split.

Each test plans a query through :class:`repro.sqldb.planner.Planner`
and snapshots the physical operator tree (``render_tree``).  The
goldens pin the access-path and join-strategy decisions — an
accidental planner regression (index lookup degrading to a scan, hash
join degrading to nested loops) changes a tree shape and fails here
long before it would show up as a benchmark slowdown.

Also covered: EXPLAIN rendered from the tree (including UNION branches
and derived-table subqueries), the streaming early-exit property of
LIMIT-without-ORDER-BY, the ``peak_materialized_rows`` counter, and a
source-level pin that the executor no longer owns planning decisions.
"""

import os

import pytest

from repro.sqldb import plan as plan_mod
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.parser import parse_one


@pytest.fixture
def shop():
    """Products/orders with a secondary index, known contents."""
    database = Database()
    database.seed(
        """
        CREATE TABLE products (
            id INT PRIMARY KEY AUTO_INCREMENT,
            name VARCHAR(40) NOT NULL,
            price FLOAT,
            category VARCHAR(20)
        );
        CREATE TABLE orders (
            id INT PRIMARY KEY AUTO_INCREMENT,
            product_id INT,
            quantity INT
        );
        CREATE INDEX idx_cat ON products (category);
        INSERT INTO products (name, price, category) VALUES
            ('apple', 1.0, 'fruit'),
            ('banana', 0.5, 'fruit'),
            ('carrot', 0.3, 'veg'),
            ('donut', 2.0, NULL);
        INSERT INTO orders (product_id, quantity) VALUES
            (1, 3), (1, 2), (2, 10), (99, 1);
        """
    )
    return database


def tree(database, sql):
    prepared = database._executor.prepare(parse_one(sql))
    return plan_mod.render_tree(prepared)


def rows(database, sql):
    outcome = Connection(database).query(sql)
    if not outcome.ok:
        raise outcome.error
    return outcome.result_set.rows


#: (sql, expected operator tree) — the golden plans
GOLDEN_PLANS = [
    ("SELECT * FROM products",
     "Project(id, name, price, category)\n"
     "  SeqScan(products)"),
    ("SELECT name FROM products WHERE category = 'fruit'",
     "Project(name)\n"
     "  Filter(where)\n"
     "    IndexEqScan(products.category = 'fruit')"),
    ("SELECT name FROM products WHERE id = 2",
     "Project(name)\n"
     "  Filter(where)\n"
     "    IndexEqScan(products.id = 2)"),
    ("SELECT name FROM products WHERE id > 1",
     "Project(name)\n"
     "  Filter(where)\n"
     "    IndexRangeScan(products.id > 1)"),
    ("SELECT p.name, o.quantity FROM products p "
     "JOIN orders o ON p.id = o.product_id",
     "Project(name, quantity)\n"
     "  HashJoin(INNER p.id = o.product_id)\n"
     "    SeqScan(products AS p)\n"
     "    SeqScan(orders AS o)"),
    ("SELECT p.name, o.quantity FROM products p "
     "JOIN orders o ON p.id > o.product_id",
     "Project(name, quantity)\n"
     "  NestedLoopJoin(INNER)\n"
     "    SeqScan(products AS p)\n"
     "    SeqScan(orders AS o)"),
    ("SELECT p.name, o.quantity FROM products p, orders o",
     "Project(name, quantity)\n"
     "  NestedLoopJoin(CROSS)\n"
     "    SeqScan(products AS p)\n"
     "    SeqScan(orders AS o)"),
    ("SELECT category, COUNT(*) FROM products "
     "GROUP BY category HAVING COUNT(*) > 1",
     "Project(category, count(...))\n"
     "  Filter(having)\n"
     "    Aggregate(group_by=1, aggs=2)\n"
     "      SeqScan(products)"),
    ("SELECT name FROM products ORDER BY price",
     "Sort(1 keys)\n"
     "  Project(name)\n"
     "    SeqScan(products)"),
    ("SELECT name FROM products ORDER BY price LIMIT 2",
     "Limit\n"
     "  TopK(1 keys)\n"
     "    Project(name)\n"
     "      SeqScan(products)"),
    ("SELECT name FROM products LIMIT 2",
     "Limit\n"
     "  Project(name)\n"
     "    SeqScan(products)"),
    ("SELECT DISTINCT category FROM products",
     "Distinct\n"
     "  Project(category)\n"
     "    SeqScan(products)"),
    # a UNION is no operator of its own: the branches concatenate and
    # the ordinary Distinct dedupes them (MySQL's DISTINCT union)
    ("SELECT name FROM products WHERE category = 'veg' "
     "UNION SELECT name FROM products WHERE id = 1",
     "Distinct\n"
     "  Concat(2 inputs)\n"
     "    Project(name)\n"
     "      Filter(where)\n"
     "        IndexEqScan(products.category = 'veg')\n"
     "    Project(name)\n"
     "      Filter(where)\n"
     "        IndexEqScan(products.id = 1)"),
    ("SELECT t.name FROM (SELECT name, price FROM products "
     "WHERE price > 0.4) t WHERE t.price < 1.5",
     "Project(name)\n"
     "  Filter(where)\n"
     "    Derived(t)\n"
     "      Project(name, price)\n"
     "        Filter(where)\n"
     "          SeqScan(products)"),
    ("INSERT INTO orders (product_id, quantity) VALUES (3, 7)",
     "InsertSink(orders)"),
    ("UPDATE products SET price = 9 WHERE id = 4",
     "UpdateSink(products)\n"
     "  Filter(where)\n"
     "    SeqScan(products)"),
    ("DELETE FROM orders WHERE quantity = 1",
     "DeleteSink(orders)\n"
     "  Filter(where)\n"
     "    SeqScan(orders)"),
]


@pytest.mark.parametrize(
    "sql,expected", GOLDEN_PLANS, ids=[sql for sql, _ in GOLDEN_PLANS])
def test_golden_plan(shop, sql, expected):
    assert tree(shop, sql) == expected


class TestPlanMetadata(object):
    def test_plan_tables_cover_every_base_table(self, shop):
        prepared = shop._executor.prepare(parse_one(
            "SELECT p.name FROM products p JOIN orders o "
            "ON p.id = o.product_id"))
        assert prepared.tables == frozenset(["products", "orders"])

    def test_derived_table_contributes_inner_tables(self, shop):
        prepared = shop._executor.prepare(parse_one(
            "SELECT t.name FROM (SELECT name FROM products) t"))
        assert prepared.tables == frozenset(["products"])

    def test_hash_join_disabled_falls_back_to_nested_loop(self, shop):
        shop._executor.enable_hash_join = False
        got = tree(shop, "SELECT p.name FROM products p "
                         "JOIN orders o ON p.id = o.product_id")
        assert "NestedLoopJoin(INNER)" in got
        assert "HashJoin" not in got

    def test_topk_disabled_falls_back_to_full_sort(self, shop):
        shop._executor.enable_topk = False
        got = tree(shop, "SELECT name FROM products ORDER BY price LIMIT 2")
        assert "Sort(1 keys)" in got
        assert "TopK" not in got

    def test_plan_cache_respects_toggle_fingerprint(self, shop):
        conn = Connection(shop)
        sql = "SELECT name FROM products ORDER BY price LIMIT 2"
        assert [r[0] for r in rows(shop, sql)] == ["carrot", "banana"]
        assert shop._executor.last_stage_stats.counters == {
            "full_scans": 1, "topk_orders": 1}
        shop._executor.enable_topk = False
        assert [r[0] for r in rows(shop, sql)] == ["carrot", "banana"]
        # replanned without TopK
        assert shop._executor.last_stage_stats.counters == {
            "full_scans": 1, "full_sorts": 1}
        del conn


class TestExplainFromTree(object):
    def test_explain_single_table_index(self, shop):
        got = rows(shop, "EXPLAIN SELECT name FROM products "
                         "WHERE category = 'fruit'")
        assert got == [("products", "ref", "category", 4)]

    def test_explain_hash_join(self, shop):
        got = rows(shop, "EXPLAIN SELECT p.name FROM products p "
                         "JOIN orders o ON p.id = o.product_id")
        assert got == [("products", "ALL", None, 4),
                       ("orders", "hash", "product_id", 4)]

    def test_explain_union_lists_every_branch(self, shop):
        got = rows(shop, "EXPLAIN SELECT name FROM products WHERE id = 1 "
                         "UNION SELECT name FROM products WHERE id > 2")
        assert got == [("products", "ref", "id", 4),
                       ("products", "range", "id", 4)]

    def test_explain_derived_table_shows_inner_sources(self, shop):
        got = rows(shop, "EXPLAIN SELECT t.name FROM "
                         "(SELECT name FROM products WHERE id > 1) t")
        assert got == [("t", "DERIVED", None, None),
                       ("products", "range", "id", 4)]

    def test_explain_row_counts_are_live(self, shop):
        conn = Connection(shop)
        rows(shop, "EXPLAIN SELECT name FROM products")
        assert conn.query("INSERT INTO products (name) VALUES ('egg')").ok
        got = rows(shop, "EXPLAIN SELECT name FROM products")
        assert got == [("products", "ALL", None, 5)]


@pytest.fixture
def big():
    """One 500-row table, for streaming-behaviour assertions."""
    database = Database()
    database.seed(
        "CREATE TABLE events (id INT PRIMARY KEY AUTO_INCREMENT, val INT);")
    conn = Connection(database)
    for start in range(0, 500, 50):
        values = ", ".join(
            "(%d)" % (i * 7 % 501) for i in range(start, start + 50))
        outcome = conn.query("INSERT INTO events (val) VALUES %s" % values)
        assert outcome.ok
    return database


class TestStreamingExecution(object):
    def test_limit_stops_the_scan_early(self, big):
        """Satellite (a): LIMIT n without ORDER BY must not scan the
        whole table — the scan's rows-out stays within a small constant
        factor of n."""
        got = rows(big, "SELECT id FROM events LIMIT 5")
        assert len(got) == 5
        stats = big._executor.last_stage_stats
        scans = stats.find("seq_scan")
        assert scans, "expected a SeqScan in the executed plan"
        assert scans[0]["rows_out"] <= 4 * 5, (
            "LIMIT 5 pulled %d rows through the scan — streaming "
            "early-exit is broken" % scans[0]["rows_out"])

    def test_limit_with_filter_still_streams(self, big):
        got = rows(big, "SELECT id FROM events WHERE val >= 0 LIMIT 10")
        assert len(got) == 10
        scans = big._executor.last_stage_stats.find("seq_scan")
        assert scans[0]["rows_out"] <= 4 * 10

    def test_full_scan_still_reads_everything(self, big):
        got = rows(big, "SELECT COUNT(*) FROM events")
        assert got == [(500,)]
        scans = big._executor.last_stage_stats.find("seq_scan")
        assert scans[0]["rows_out"] == 500

    def test_peak_materialized_is_bounded_by_limit(self, big):
        rows(big, "SELECT id FROM events LIMIT 5")
        stats = big._executor.last_stage_stats
        # Limit-only pipelines buffer nothing but the result set itself
        assert stats.peak_materialized_rows <= 4 * 5

    def test_full_sort_materializes_the_table(self, big):
        big._executor.enable_topk = False
        rows(big, "SELECT id FROM events ORDER BY val LIMIT 5")
        stats = big._executor.last_stage_stats
        assert stats.peak_materialized_rows >= 500

    def test_topk_keeps_materialization_at_k(self, big):
        rows(big, "SELECT id FROM events ORDER BY val LIMIT 5")
        stats = big._executor.last_stage_stats
        assert stats.peak_materialized_rows <= 4 * 5

    def test_peak_is_per_execution(self, big):
        """No cumulative rollup: each execution's StageStats starts at
        zero, so a full sort's peak never shows on the next query."""
        big._executor.enable_topk = False
        rows(big, "SELECT id FROM events ORDER BY val LIMIT 5")
        assert big._executor.last_stage_stats.peak_materialized_rows >= 500
        rows(big, "SELECT id FROM events LIMIT 1")
        assert big._executor.last_stage_stats.peak_materialized_rows <= 4


class TestStageInstrumentation(object):
    def test_rows_in_matches_children_rows_out(self, shop):
        rows(shop, "SELECT name FROM products WHERE category = 'fruit'")
        stats = shop._executor.last_stage_stats
        project = stats.find("project")[0]
        filt = stats.find("filter")[0]
        assert project["rows_in"] == filt["rows_out"] == 2
        assert filt["rows_in"] == 2  # index already narrowed the scan

    def test_timings_render_one_line_per_operator(self, shop):
        rows(shop, "SELECT name FROM products LIMIT 1")
        text = shop._executor.last_stage_stats.render_timings()
        assert "SeqScan(products)" in text
        assert "Limit" in text
        assert "t=" in text


def test_executor_owns_no_planning_decisions():
    """Acceptance pin: access-path and join-strategy choices live in
    planner.py only — the executor must not regrow them."""
    here = os.path.dirname(os.path.abspath(__file__))
    executor_py = os.path.join(
        here, "..", "..", "src", "repro", "sqldb", "executor.py")
    with open(executor_py) as handle:
        source = handle.read()
    for marker in ("_access_plan", "_equi_join_keys", "_range_bounds",
                   "index_lookup", "_join_side"):
        assert marker not in source, (
            "executor.py mentions %r — planning logic belongs in "
            "planner.py" % marker)


class TestDistributedPlans(object):
    """Golden trees for the scatter/gather planning pass: which gather
    shape each cross-shard SELECT gets, and which statements route to a
    single shard or are rejected at plan time."""

    @pytest.fixture
    def dplanner(self):
        from repro.shard.catalog import ShardCatalog
        from repro.sqldb.planner import DistributedPlanner
        catalog = ShardCatalog(2)
        catalog.declare("tickets", "reservID",
                        ["reservID", "creditCard", "price"])
        return DistributedPlanner(2, catalog)

    def route(self, dplanner, sql):
        return dplanner.route(parse_one(sql), sql)

    def test_shard_key_equality_routes_single(self, dplanner):
        route = self.route(
            dplanner, "SELECT creditCard FROM tickets "
                      "WHERE reservID = 'ID34FG'")
        assert route.kind == "single"
        assert route.key_values == ("ID34FG",)
        # single-shard routing forwards the ORIGINAL text: the target
        # shard's pipeline cache stays warm
        assert route.sql == ("SELECT creditCard FROM tickets "
                             "WHERE reservID = 'ID34FG'")
        assert route.plan is None

    def test_scatter_select_gathers_with_union(self, dplanner):
        route = self.route(dplanner,
                           "SELECT reservID, creditCard FROM tickets")
        assert route.kind == "scatter"
        # the gather over disjoint partitions is the same Concat a
        # UNION ALL runs
        assert plan_mod.render_tree(route.plan) == (
            "Concat(2 inputs)\n"
            "  ShardScan(shard=0: SELECT reservID, creditCard "
            "FROM tickets)\n"
            "  ShardScan(shard=1: SELECT reservID, creditCard "
            "FROM tickets)"
        )

    def test_aggregates_rewrite_to_partial_final(self, dplanner):
        route = self.route(dplanner,
                           "SELECT COUNT(*), SUM(price) FROM tickets")
        assert route.kind == "scatter"
        assert plan_mod.render_tree(route.plan) == (
            "Gather(partial-agg: count->sum, sum)\n"
            "  ShardScan(shard=0: SELECT COUNT(*), SUM(price) "
            "FROM tickets)\n"
            "  ShardScan(shard=1: SELECT COUNT(*), SUM(price) "
            "FROM tickets)"
        )

    def test_avg_decomposes_to_sum_and_count(self, dplanner):
        route = self.route(dplanner, "SELECT AVG(price) FROM tickets")
        tree_text = plan_mod.render_tree(route.plan)
        assert "Gather(partial-agg: avg->sum/count)" in tree_text
        # each shard ships SUM and COUNT partials, never a local AVG
        assert "SELECT SUM(price), COUNT(price) FROM tickets" in tree_text

    def test_order_by_limit_merges_with_topk(self, dplanner):
        route = self.route(
            dplanner, "SELECT reservID, price FROM tickets "
                      "ORDER BY price DESC LIMIT 3")
        assert route.kind == "scatter"
        # the merge is the single-node ORDER BY / LIMIT tail over a
        # Concat; the push-down to the shards is unchanged
        assert plan_mod.render_tree(route.plan) == (
            "Limit\n"
            "  TopK(1 keys)\n"
            "    Concat(2 inputs)\n"
            "      ShardScan(shard=0: SELECT reservID, price FROM tickets "
            "ORDER BY price DESC LIMIT 3)\n"
            "      ShardScan(shard=1: SELECT reservID, price FROM tickets "
            "ORDER BY price DESC LIMIT 3)"
        )

    def test_ddl_broadcasts(self, dplanner):
        route = self.route(dplanner,
                           "CREATE TABLE t (k INT PRIMARY KEY)")
        assert route.kind == "broadcast"

    def test_multi_shard_dml_is_rejected_at_plan_time(self, dplanner):
        from repro.sqldb.errors import ExecutionError
        with pytest.raises(ExecutionError) as err:
            self.route(dplanner, "UPDATE tickets SET price = 0")
        assert err.value.errno == 1235
        with pytest.raises(ExecutionError) as err:
            self.route(dplanner,
                       "DELETE FROM tickets WHERE price > 100")
        assert err.value.errno == 1235
