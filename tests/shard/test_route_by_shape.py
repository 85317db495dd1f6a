"""The fleet routes by statement shape.

A routed statement is parsed only when its shape is new — never again
for a new key, and never just to learn whether it is a read:

* **work counts** — warm shapes with fresh keys cost no ``Parser`` and
  at most two ``tokenize`` calls (router, shard engine); a warm scatter
  costs no parse on any of its legs;
* **shape route ≡ parsed route** — over the shard suites' corpora and
  ``wl_shard_mix``'s templates, with hypothesis-drawn literals, a router
  that has the shape warm, one that parses the text, and the planner on
  an unslotted parse agree on kind, table, key values, target shard and
  read class, or raise the same 1235;
* **attacks never ride a warm route** — a payload that changes the token
  stream has another shape key, is planned on its own, and reaches its
  shards' SEPTIC exactly as it does with every cache cold;
* **the partitioning function compares like the engine's ``=``** — the
  five routed-vs-twin differences of the literal-type bug.
"""

import ast
import os

import pytest
from hypothesis import given, settings, strategies as st

import repro.sqldb.cache as cache_mod
import repro.sqldb.engine as engine_mod
from repro.attacks import payloads
from repro.benchlab.crashsweep import MarkerSeptic, generate_sharded_workload
from repro.core.septic import Mode, Septic
from repro.shard import ShardRouter
from repro.sqldb import parser as parser_mod
from repro.sqldb import plan as plan_mod
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import ExecutionError, SQLError
from repro.sqldb.parser import parse_sql

from tests.shard.test_charset_parity import (
    FOLDING_PAYLOAD, GBK_PAYLOAD, TEMPLATE,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SCHEMA = (
    "CREATE TABLE accounts (owner VARCHAR(16) PRIMARY KEY, amount INT, "
    "region VARCHAR(8), visits INT)",
    "CREATE TABLE n (id INT PRIMARY KEY, v INT)",
    "CREATE TABLE tickets (reservID VARCHAR(20) PRIMARY KEY, "
    "creditCard INT)",
    "CREATE TABLE logs (id INT AUTO_INCREMENT PRIMARY KEY, "
    "line VARCHAR(40))",
)


def make_router(path, shards=2, septic_factory=MarkerSeptic, **kwargs):
    router = ShardRouter(str(path), shards=shards, replicas=1,
                         heartbeat_interval=1, lease_intervals=2,
                         septic_factory=septic_factory, **kwargs)
    for ddl in SCHEMA:
        router.query_or_raise(ddl)
    return router


def owners_by_shard(router, count, prefix="user"):
    """*count* fresh owner names per shard ordinal."""
    found = {shard: [] for shard in range(router.shard_count)}
    index = 0
    while any(len(names) < count for names in found.values()):
        name = "%s%05d" % (prefix, index)
        index += 1
        home = found[router.catalog.shard_for("accounts", name)]
        if len(home) < count:
            home.append(name)
    return found


# -- work counts -------------------------------------------------------------

POINT_READ = "SELECT amount, region FROM accounts WHERE owner = '%s'"
UPDATE = "UPDATE accounts SET amount = %d WHERE owner = '%s'"
INSERT = ("INSERT INTO accounts (owner, amount, region, visits) "
          "VALUES ('%s', %d, 'north', 0)")
DELETE = "DELETE FROM accounts WHERE owner = '%s'"
SCATTER = "SELECT region, COUNT(*), SUM(amount) FROM accounts GROUP BY region"


def count_front_end_work(monkeypatch):
    """Counts of ``Parser`` constructions and ``tokenize`` calls, and
    the texts the engines were handed."""
    counts = {"parsers": 0, "tokenize": 0, "texts": []}
    real_init = parser_mod.Parser.__init__

    def counting_init(self, *args, **kwargs):
        counts["parsers"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(parser_mod.Parser, "__init__", counting_init)
    # (every front end tokenizes inside ``PipelineCache.resolve``)
    for module in (parser_mod, engine_mod, cache_mod):
        real = module.tokenize

        def counting_tokenize(sql, _real=real):
            counts["tokenize"] += 1
            return _real(sql)

        monkeypatch.setattr(module, "tokenize", counting_tokenize)
    real_run = Database.run_partial

    def recording_run(self, sql, *args, **kwargs):
        counts["texts"].append(sql)
        return real_run(self, sql, *args, **kwargs)

    monkeypatch.setattr(Database, "run_partial", recording_run)
    return counts


def test_fresh_keys_on_warm_shapes_are_never_parsed(tmp_path, monkeypatch):
    router = make_router(tmp_path / "fleet", shards=2)
    names = owners_by_shard(router, 27)
    # warm every shape on every node: primaries by the first round, the
    # replicas' read shape once they have caught up
    for shard, owners in names.items():
        for owner in owners[:2]:
            router.query_or_raise(INSERT % (owner, 1))
            router.query_or_raise(UPDATE % (2, owner))
            router.query_or_raise(POINT_READ % owner)
        router.query_or_raise(DELETE % owners[1])
    router.ship()
    for owners in names.values():
        assert router.query_or_raise(POINT_READ % owners[0]).rows
    before = dict(router.stats)
    counts = count_front_end_work(monkeypatch)
    statements = []
    for owners in names.values():
        for index, owner in enumerate(owners[2:]):
            statements += [INSERT % (owner, index), POINT_READ % owner,
                           UPDATE % (index + 7, owner), DELETE % owner]
    assert len(statements) == 200
    assert len(set(statements)) == 200
    for sql in statements:
        router.query_or_raise(sql)
    assert counts["parsers"] == 0
    assert counts["tokenize"] <= 2 * len(statements)
    # the router decides only where: every engine got the client's text
    assert counts["texts"] == statements
    after = router.stats
    assert after["route_shape_hits"] - before["route_shape_hits"] == 200
    assert after["route_cache_hits"] - before["route_cache_hits"] == 200
    assert after["single_shard"] - before["single_shard"] == 200
    assert router.status()["stats"]["route_shape_hits"] == \
        after["route_shape_hits"]
    router.close()


def test_warm_scatter_parses_on_no_leg(tmp_path, monkeypatch):
    router = make_router(tmp_path / "fleet", shards=4)
    for owners in owners_by_shard(router, 2).values():
        for owner in owners:
            router.query_or_raise(INSERT % (owner, 5))
    want = router.query_or_raise(SCATTER).rows
    counts = count_front_end_work(monkeypatch)
    assert router.query_or_raise(SCATTER).rows == want == [("north", 8, 40)]
    assert counts["parsers"] == 0
    assert counts["tokenize"] == 0
    assert len(counts["texts"]) == 4
    router.close()


def test_direct_replica_set_clients_classify_by_shape(tmp_path, monkeypatch):
    """``ReplicaSet.connect()`` users get the same two probes: a read is
    recognised by its shape, a write never rides a read's entry."""
    router = make_router(tmp_path / "fleet", shards=1)
    connection = router.connections[0]
    connection.query_or_raise(INSERT % ("ann", 1))
    connection.query_or_raise(INSERT % ("bob", 2))
    router.ship()
    connection.query_or_raise(POINT_READ % "ann")
    connection.query_or_raise(POINT_READ % "ann")
    counts = count_front_end_work(monkeypatch)
    reads = connection.reads_on_replicas
    writes = connection.writes_routed
    assert connection.query_or_raise(POINT_READ % "bob").rows == [
        (2, "north")]
    connection.query_or_raise(INSERT % ("cat", 3))
    assert counts["parsers"] == 0
    assert connection.reads_on_replicas == reads + 1
    assert connection.writes_routed == writes + 1
    # unparseable text is a write: the primary produces the real error
    assert not connection._is_read("SELECT FROM WHERE")
    assert not connection._is_read("SELECT 'unterminated")
    router.close()


def test_ddl_leaves_no_shape_entry_behind(tmp_path):
    router = make_router(tmp_path / "fleet")
    router.query_or_raise(INSERT % ("ann", 1))
    router.query_or_raise(POINT_READ % "ann")
    router.query_or_raise(POINT_READ % "bob")
    assert router.stats["route_shape_hits"] == 1
    epoch = router.catalog_epoch
    router.query_or_raise("ALTER TABLE accounts ADD COLUMN note INT")
    assert router.catalog_epoch == epoch + 1
    assert len(router._routes) == 0
    router.query_or_raise(POINT_READ % "cat")
    assert router.stats["route_shape_hits"] == 1
    # re-declaring the key re-plans too
    router.declare("accounts", "region")
    outcome = router.query(UPDATE % (1, "ann"))
    assert outcome.error.errno == 1235
    assert router.stats["route_shape_hits"] == 1
    router.close()


# -- shape route ≡ parsed route ----------------------------------------------

def _shard_mix_templates():
    """``wl_shard_mix``'s eight statement templates, read off its source
    (the benchmark directory is not a package)."""
    path = os.path.join(REPO_ROOT, "benchmarks", "e2e", "wl_shard_mix.py")
    with open(path) as handle:
        tree = ast.parse(handle.read())
    wanted = ("POINT_READ", "UPDATE", "INSERT", "DELETE", "GROUP_BY", "TOPK",
              "FILTERED", "UNION")
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id in wanted:
            found[node.targets[0].id] = ast.literal_eval(node.value)
    assert sorted(found) == sorted(wanted)
    return [found[name] for name in wanted]


def _placeholders(template):
    """A %-template whose every placeholder takes a whole literal."""
    return template.replace("'%s'", "%s").replace("%d", "%s")


#: every statement family the shard suites and ``shard_mix`` route, a
#: ``%s`` where each data literal goes
CORPUS = [_placeholders(template) for template in _shard_mix_templates()] + [
    # tests/shard/test_router.py
    "SELECT amount FROM accounts WHERE owner = %s",
    "SELECT owner, amount FROM accounts",
    "SELECT COUNT(*), SUM(amount), AVG(amount) FROM accounts",
    "SELECT owner, amount FROM accounts ORDER BY amount DESC LIMIT 2",
    "INSERT INTO logs (line) VALUES (%s)",
    "SELECT line FROM logs WHERE id = %s",
    "UPDATE accounts SET amount = 0",
    "UPDATE accounts SET amount = %s WHERE owner = %s",
    "UPDATE accounts SET amount = amount + %s WHERE owner = %s",
    "UPDATE accounts SET amount = 666 WHERE owner = %s -- evil",
    "INSERT INTO accounts (amount) VALUES (%s)",
    "INSERT INTO accounts (owner, amount) VALUES (%s, %s)",
    "SELECT COUNT(*) FROM accounts WHERE owner != %s",
    "BEGIN",
    "SHOW TABLES",
    "ALTER TABLE accounts ADD COLUMN note INT",
    # tests/shard/test_charset_parity.py
    _placeholders(TEMPLATE),
    # a numeric shard key
    "SELECT v FROM n WHERE id = %s",
    "INSERT INTO n (id, v) VALUES (%s, %s)",
    "DELETE FROM n WHERE id = %s",
    "UPDATE n SET v = %s WHERE id = %s AND v < %s",
    # version comments, call-site comments, the key on the right, the
    # key twice, several rows, several tables
    "SELECT /*!40101 amount */ FROM accounts WHERE owner = %s",
    "/*!SELECT*/ amount FROM accounts /* app:lookup */ WHERE owner = %s",
    "SELECT amount FROM accounts WHERE %s = owner",
    "SELECT amount FROM accounts WHERE owner = %s AND owner = %s",
    "SELECT amount FROM accounts WHERE owner = %s OR owner = %s",
    "INSERT INTO accounts (owner, amount) VALUES (%s, %s), (%s, %s)",
    "SELECT a.amount, t.creditCard FROM accounts a JOIN tickets t "
    "ON t.creditCard = a.amount WHERE a.owner = %s AND t.reservID = %s",
    "SELECT a.amount FROM accounts a JOIN n ON n.v = a.amount "
    "WHERE a.owner = %s AND n.id = %s",
    "SELECT amount FROM accounts WHERE owner = %s LIMIT %s",
    "SELECT region, COUNT(*) FROM accounts WHERE amount > %s "
    "GROUP BY region",
    "SELECT amount FROM accounts WHERE owner = ?",
    "SELECT %s",
]
CORPUS += sorted({sql for _kind, sql in generate_sharded_workload(5)
                  if not sql.startswith("CREATE")})

#: literal texts by token kind: a shape hit needs the same kinds
LITERAL_KINDS = {
    "string": st.sampled_from([
        "'alice'", "'ALICE'", "'Bob'", "''", "'o\\'brien'", "'it''s'",
        "\"dq\"", "'40'", "'40abc'", "' 7'", "'%s'" % FOLDING_PAYLOAD,
        "'user00017'", "'a b'", "'naïve'", "'x%'",
    ]),
    "hex": st.sampled_from(["0x616c696365", "x'626f62'", "X'41'", "0x41"]),
    "int": st.sampled_from(["0", "7", "40", "007", "9500", "123456789012"]),
    "float": st.sampled_from(["4.5", "40.0", "1e3", ".5", "2.50", "1E-2"]),
}
#: texts that are no data literal to the lexer: each changes the shape
OTHER_TEXTS = st.sampled_from([
    "NULL", "null", "TRUE", "-5", "- 5", "+7", "1+1", "owner", "LOWER('A')",
    "(SELECT 1)", "'%s'" % GBK_PAYLOAD, "'a' 'b'", "1 OR 1=1",
    "'x' OR '1'='1'", "0; DROP TABLE accounts-- ",
])


@st.composite
def literal_pair(draw):
    """Two texts for one placeholder: mostly two literals of one kind."""
    if draw(st.integers(0, 5)) == 0:
        return draw(OTHER_TEXTS), draw(OTHER_TEXTS)
    kind = LITERAL_KINDS[draw(st.sampled_from(sorted(LITERAL_KINDS)))]
    return draw(kind), draw(kind)


def describe_route(router, route, values):
    shard = None
    if route.kind == "single":
        shard = router._target_shard(route, values)
    keys = tuple(sorted(repr(key) for key in route.keys(values)))
    plan = None if route.plan is None else plan_mod.render_tree(route.plan)
    return (route.kind, route.table, keys, shard, route.read, plan)


def describe(router, sql):
    """What the router decides for *sql*, through its cache."""
    try:
        return describe_route(router, *router._route(sql))
    except SQLError as exc:
        return ("error", getattr(exc, "errno", None), str(exc))


def reference(router, sql):
    """The same decision from an unslotted parse: literals in the tree,
    no cache — what the text-keyed router computed for every text."""
    try:
        statements, comments = parse_sql(sql)
        if len(statements) != 1:
            raise ExecutionError(
                "the shard router takes one statement per call", errno=1235)
        route = router.planner.route(statements[0], sql, comments=comments)
        assert route.key_slots == () and route.slots == ()
        return describe_route(router, route, ())
    except SQLError as exc:
        return ("error", getattr(exc, "errno", None), str(exc))


@pytest.fixture(scope="module")
def routers(tmp_path_factory):
    warm = make_router(tmp_path_factory.mktemp("warm") / "fleet", shards=4)
    cold = make_router(tmp_path_factory.mktemp("cold") / "fleet", shards=4)
    yield warm, cold
    warm.close()
    cold.close()


def check_one(routers, template, pairs):
    warm, cold = routers
    sibling = template % tuple(pair[0] for pair in pairs)
    sql = template % tuple(pair[1] for pair in pairs)
    describe(warm, sibling)
    got = describe(warm, sql)
    cold._routes.clear()
    assert got == describe(cold, sql)
    assert got == reference(cold, sql)
    # and the exact repeat is served by text
    assert describe(warm, sql) == got
    return got


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_shape_route_equals_parsed_route(routers, data):
    template = data.draw(st.sampled_from(CORPUS))
    pairs = [data.draw(literal_pair()) for _ in range(template.count("%s"))]
    check_one(routers, template, pairs)


def test_every_family_with_every_kind(routers):
    """The same property, exhaustively over the corpus with one pair of
    each kind — and the keyed families really are served by shape."""
    warm, _cold = routers
    # what the hypothesis test above happened to route is not part of
    # this property (a cached ``VALUES (null, null)`` made the NULL
    # sibling below a shape hit about one run in forty)
    warm._routes.clear()
    fixed = {"string": ("'alice'", "'Bob'"), "hex": ("0x41", "x'626f62'"),
             "int": ("40", "7"), "float": ("40.0", "4.5"),
             "other": ("NULL", "-5")}
    kinds = {}
    for template in CORPUS:
        for kind, pair in sorted(fixed.items()):
            before = warm.stats["route_shape_hits"]
            got = check_one(routers, template,
                            [pair] * template.count("%s"))
            hit = warm.stats["route_shape_hits"] > before
            kinds.setdefault(got[0], set()).add(hit)
            if hit:
                # only a route that reads no literal's value is shared
                # (its keys are read late, and may then not co-locate)
                assert got[0] in ("single", "any") \
                    or "touches rows on" in got[2]
    assert kinds["single"] == {True, False}
    assert kinds["scatter"] == {False}


def test_bound_slots_are_the_unslotted_tree():
    """``bind_values`` (what a scatter is planned from) rebuilds exactly
    the tree an unslotted parse of the text builds."""
    from repro.sqldb.lexer import slot_values, tokenize
    from repro.sqldb.prepared import bind_values

    checked = 0
    for template in CORPUS:
        for pair in (("'alice'", "7"), ("4.5", "0x41"), ("NULL", "'x'")):
            count = template.count("%s")
            sql = template % tuple(pair[index % 2] for index in range(count))
            lexed = tokenize(sql)
            try:
                slotted, _comments = parse_sql(sql, lexed, slots=True)
            except SQLError:
                continue
            values = slot_values(lexed.tokens, lexed.slots)
            assert bind_values(slotted, values) == parse_sql(sql)[0]
            checked += 1
    assert checked > 100


# -- attacks never ride a warm route ------------------------------------------

#: Kindy & Pathan's classes, from ``repro.attacks.payloads``, each put
#: where the keyed template takes its value
QUOTED_ATTACKS = {
    "tautology": payloads.LOGIN_TAUTOLOGY,
    "union": "x' UNION SELECT owner, amount FROM accounts-- ",
    "unicode tautology": payloads.UNICODE_TAUTOLOGY,
    "unicode union": payloads.UNICODE_UNION,
    "second order": payloads.SECOND_ORDER_CLASSIC,
}
NUMERIC_ATTACKS = {
    "tautology": payloads.NUMERIC_TAUTOLOGY,
    "evasive tautology": payloads.NUMERIC_TAUTOLOGY_EVASIVE,
    "union": payloads.NUMERIC_UNION,
    "piggy-back": payloads.NUMERIC_PIGGYBACK,
    "sleep": payloads.NUMERIC_SLEEP_EVASIVE,
}
QUOTED_TEMPLATE = ("/* septic:accounts.read */ SELECT amount FROM accounts "
                   "WHERE owner = '%s'")
NUMERIC_TEMPLATE = "/* septic:n.read */ SELECT v FROM n WHERE id = %s"


def _trained_fleet(path):
    """Two shards, a real SEPTIC per node, trained on both keyed
    templates (on every node) and armed."""
    router = make_router(
        path, shards=2,
        septic_factory=lambda: Septic(mode=Mode.TRAINING))
    names = owners_by_shard(router, 1)
    ids = {}
    for number in range(64):
        ids.setdefault(router.catalog.shard_for("n", number), number)
    for shard in range(2):
        router.query_or_raise(INSERT % (names[shard][0], 10))
        router.query_or_raise("INSERT INTO n (id, v) VALUES (%d, 1)"
                              % ids[shard])
    for _round in range(2):     # primaries, then the caught-up replicas
        for shard in range(2):
            router.query_or_raise(QUOTED_TEMPLATE % names[shard][0])
            router.query_or_raise(NUMERIC_TEMPLATE % ids[shard])
        router.ship()
    databases = [node.database for replica_set in router.shard_sets
                 for node in replica_set.nodes]
    for database in databases:
        database.septic.mode = Mode.PREVENTION
    return router, databases


def _observe(router, databases, sql):
    before = dict(router.stats)
    outcome = router.query(sql)
    moved = {key: router.stats[key] - before[key] for key in before}
    verdict = ("ok", [tuple(row) for row in outcome.rows]) if outcome.ok \
        else (type(outcome.error).__name__, outcome.error.errno)
    events = [[(event.kind, event.query_id, event.sequence,
                event.attack_type, event.step)
               for event in database.septic.logger.events]
              for database in databases]
    return verdict, events, moved


def test_attacks_never_reuse_a_warm_keyed_route(tmp_path):
    warm, warm_dbs = _trained_fleet(tmp_path / "warm")
    cold, cold_dbs = _trained_fleet(tmp_path / "cold")
    blocked = 0
    rode = set()
    scripts = [(QUOTED_TEMPLATE, QUOTED_ATTACKS),
               (NUMERIC_TEMPLATE, NUMERIC_ATTACKS)]
    for template, attacks in scripts:
        for name, payload in sorted(attacks.items()):
            sql = template % payload
            cold._routes.clear()
            for connection in cold.connections:
                connection._classes.clear()
            got = _observe(warm, warm_dbs, sql)
            want = _observe(cold, cold_dbs, sql)
            # same verdict, same event-register rows on every node
            assert got[:2] == want[:2], name
            if got[2]["route_shape_hits"]:
                rode.add(name)
                assert got[2]["single_shard"] == 1, name
            blocked += got[0][1] == 3090
    assert blocked >= 1
    # a payload whose quotes are all U+02BC stays inside the literal for
    # the lexer the router shares with the engine: to both it *is* the
    # keyed statement with the payload as its key, so it goes — as the
    # text the client sent — to that key's one shard, whose own decode
    # turns the quotes live under its own SEPTIC.  Every other payload
    # changed the token stream and was planned on its own.
    assert rode == {"unicode tautology", "unicode union"}
    # the benign statement still rides its shape afterwards
    before = warm.stats["route_shape_hits"]
    warm.query_or_raise(QUOTED_TEMPLATE % "someone-new")
    assert warm.stats["route_shape_hits"] == before + 1
    warm.close()
    cold.close()


def test_a_scattered_leg_keeps_its_call_site(tmp_path):
    """Found by PR 18, open until 55a1d75: a scattered SELECT reached
    its shards re-rendered without the statement's comments, so the
    call site's external identifier was lost and a numeric tautology on
    a non-key column was *learned* as an unknown query instead of
    being compared with the call site's models."""
    router, databases = _trained_fleet(tmp_path / "fleet")
    site = "/* septic:report:1 */ SELECT owner FROM accounts WHERE amount = %s"
    for septic in (database.septic for database in databases):
        septic.mode = Mode.TRAINING
    assert router.query(site % "5").ok           # amount is no shard key
    for septic in (database.septic for database in databases):
        septic.mode = Mode.PREVENTION
    models = [len(database.septic.store) for database in databases]
    scatters = router.stats["scatter"]
    assert router.query(site % "6").ok
    outcome = router.query(site % "0 OR 1=1")
    assert outcome.error is not None and outcome.error.errno == 3090
    assert router.stats["scatter"] == scatters + 1   # blocked mid-gather
    assert [len(database.septic.store) for database in databases] == models
    assert sum(database.septic.stats.unknown_queries
               for database in databases) == 0
    # every leg carried the identifier, line comments included
    plan = router.planner.route(
        parse_sql("SELECT owner FROM accounts")[0][0],
        comments=["septic:x", "odd */ body"]).plan
    assert plan_mod.render_tree(plan).count(
        "/* septic:x */ -- odd */ body\nSELECT") == router.shard_count
    router.close()


# -- the partitioning function compares like the engine's `=` ------------------

@pytest.fixture
def fleet_and_twin(tmp_path):
    router = make_router(tmp_path / "fleet", shards=4, septic_factory=None)
    twin = Connection(Database())
    for ddl in SCHEMA:
        twin.query_or_raise(ddl)

    def both(sql):
        routed, single = router.query(sql), twin.query(sql)
        assert single.ok
        return routed, single

    yield both
    router.close()


def _rows(outcome):
    return sorted(tuple(row) for row in outcome.rows)


class TestKeyComparesLikeTheEngine(object):
    """Each case failed at ``6fd987a``: the router hashed the literal's
    Python type, the engine compares under MySQL coercion."""

    @pytest.mark.parametrize("literal", ["40", "40.0", "'40abc'", "'40'",
                                         "' 40'", "4e1", "TRUE + 39"])
    def test_numeric_key_read_finds_the_quoted_insert(self, fleet_and_twin,
                                                      literal):
        both = fleet_and_twin
        both("INSERT INTO n (id, v) VALUES ('40', 40)")
        for number in range(12):
            both("INSERT INTO n (id, v) VALUES (%d, %d)" % (number, number))
        routed, single = both("SELECT v FROM n WHERE id = %s" % literal)
        assert _rows(routed) == _rows(single) == [(40,)]

    def test_quoted_delete_on_a_numeric_key_is_not_lost(self,
                                                         fleet_and_twin):
        both = fleet_and_twin
        for number in range(8):
            both("INSERT INTO n (id, v) VALUES (%d, 1)" % number)
        routed, single = both("DELETE FROM n WHERE id = '5'")
        assert routed.affected_rows == single.affected_rows == 1
        routed, single = both("SELECT id FROM n")
        assert _rows(routed) == _rows(single)

    def test_number_against_a_string_key_is_no_key_equality(self,
                                                            fleet_and_twin):
        both = fleet_and_twin
        for owner in ("7", "7abc", "07", "8", "seven"):
            both(INSERT % (owner, 1))
        # numerically, three rows on (maybe) three shards match: a read
        # scatters, a write is refused — never acknowledged with 0 rows
        routed, single = both("SELECT owner FROM accounts WHERE owner = 7")
        assert _rows(routed) == _rows(single) == [("07",), ("7",), ("7abc",)]
        routed, single = both("UPDATE accounts SET amount = 9 "
                              "WHERE owner = 7")
        assert single.affected_rows == 3
        assert routed.error.errno == 1235
        assert "no shard-key equality on 'owner'" in str(routed.error)
        routed, single = both("DELETE FROM accounts WHERE owner = 7.0")
        assert routed.error.errno == 1235

    def test_number_inserted_into_a_string_key_is_found_as_text(
            self, fleet_and_twin):
        both = fleet_and_twin
        for number in range(10):
            both("INSERT INTO accounts (owner, amount) VALUES (%d, %d)"
                 % (number, number))
        for number in range(10):
            routed, single = both("SELECT amount FROM accounts "
                                  "WHERE owner = '%d'" % number)
            assert _rows(routed) == _rows(single) == [(number,)]

    def test_key_hashes_as_its_column_stores_it(self, fleet_and_twin):
        """At a73f262 the router hashed ``0.7`` and the shard stored
        ``0``: 15 of these 20 keyed reads found nothing, and a keyed
        UPDATE or DELETE was acknowledged with 0 rows."""
        both = fleet_and_twin
        for number in range(20):
            both("INSERT INTO n (id, v) VALUES (%s, %d)"
                 % (number + 0.7, number))
        for number in range(20):
            routed, single = both("SELECT v FROM n WHERE id = %d" % number)
            assert _rows(routed) == _rows(single) == [(number,)]
        routed, single = both("UPDATE n SET v = -1 WHERE id = '7'")
        assert routed.affected_rows == single.affected_rows == 1
        routed, single = both("DELETE FROM n WHERE id = 13.0")
        assert routed.affected_rows == single.affected_rows == 1
        # a constant no stored value equals names some shard, which
        # finds nothing — as the single node does
        routed, single = both("SELECT v FROM n WHERE id = 7.7")
        assert _rows(routed) == _rows(single) == []
        # and VARCHAR(16) truncates on the way in
        for index in range(8):
            both(INSERT % ("a-sixteen-char-%d-and-then-some" % index, index))
        for index in range(8):
            routed, single = both(
                "SELECT amount FROM accounts WHERE owner = '%s'"
                % ("a-sixteen-char-%d-and-then-some" % index)[:16])
            assert _rows(routed) == _rows(single) == [(index,)]

    def test_confusable_quote_folds_like_compare(self, tmp_path):
        # a strict connection charset stores U+02BC as data; `=` still
        # folds it with the ASCII quote, and so must the hash
        # (three shards: CRC32 is linear, and the two spellings happen
        # to differ by a multiple of four)
        router = make_router(tmp_path / "fleet", shards=3,
                             septic_factory=None, charset="utf8_strict")
        twin = Connection(Database(), charset="utf8_strict")
        twin.query_or_raise(SCHEMA[0])
        for index in range(8):
            for conn in (router, twin):
                conn.query_or_raise(INSERT % ("oʼneil%d" % index, index))
        for index in range(8):
            sql = ("SELECT amount FROM accounts WHERE owner = 'O\\'Neil%d'"
                   % index)
            assert router.query_or_raise(sql).rows == \
                twin.query_or_raise(sql).rows == [(index,)]
        router.close()

    def test_declared_without_create_keeps_the_type_rule(self, tmp_path):
        router = ShardRouter(str(tmp_path / "fleet"), shards=4, replicas=1)
        router.declare("t", "k", ["k", "v"])
        catalog = router.catalog
        assert catalog.key_class("t") is None
        assert catalog.shard_for("t", 40) == catalog.shard_of(40)
        assert catalog.shard_for("t", "40") == catalog.shard_of("40")
        route, values = router._route("SELECT v FROM t WHERE k = 7")
        assert (route.kind, route.keys(values)) == ("single", (7,))
        router.close()
