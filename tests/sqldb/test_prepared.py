"""Tests for prepared statements and their SEPTIC interplay."""

import pytest

from repro.core.septic import Mode, Septic
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import SQLError
from repro.sqldb.prepared import literal_for
from repro.sqldb.parser import parse_one
from repro.sqldb.unparse import to_sql
from repro.sqldb import ast_nodes as ast
from tests.conftest import TICKETS_SCHEMA


class TestBinding(object):
    """The statement parsed at prepare time is the one that runs: its
    ``?`` are numbered slots, and parameters travel beside it."""

    @pytest.fixture
    def conn(self):
        database = Database()
        database.seed("CREATE TABLE t (a VARCHAR(10), b INT);"
                      "INSERT INTO t VALUES ('x', 5), ('y', 6)")
        return Connection(database)

    def test_count_params(self, conn):
        ps = conn.prepare("SELECT * FROM t WHERE a = ? AND b = ?")
        assert ps.param_count == 2

    def test_bind_in_order(self, conn):
        stmt = parse_one("SELECT * FROM t WHERE a = ? AND b = ?")
        assert stmt.where.operands[0].right == ast.Param(0)
        assert stmt.where.operands[1].right == ast.Param(1)
        assert to_sql(stmt, ("x", 5)) == \
            "SELECT * FROM t WHERE ((a = 'x') AND (b = 5))"
        ps = conn.prepare("SELECT * FROM t WHERE a = ? AND b = ?")
        assert conn.execute_prepared(ps, "x", 5).rows == [("x", 5)]
        assert conn.execute_prepared(ps, "x", 6).rows == []

    def test_bind_does_not_mutate_original(self, conn):
        ps = conn.prepare("SELECT * FROM t WHERE b = ?")
        before = to_sql(ps._statement)
        conn.execute_prepared(ps, 5)
        assert to_sql(ps._statement) == before == \
            "SELECT * FROM t WHERE (b = ?)"
        assert ps.param_count == 1

    def test_bind_in_insert_values(self, conn):
        ps = conn.prepare("INSERT INTO t (b, a) VALUES (?, ?)")
        assert conn.execute_prepared(ps, 1, "z").affected_rows == 1
        assert conn.query("SELECT a FROM t WHERE b = 1").rows == [("z",)]

    def test_bind_in_update_assignment(self, conn):
        ps = conn.prepare("UPDATE t SET a = ? WHERE b = ?")
        assert conn.execute_prepared(ps, "v", 6).affected_rows == 1
        assert conn.query("SELECT a FROM t WHERE b = 6").rows == [("v",)]

    def test_bind_in_limit(self, conn):
        ps = conn.prepare("SELECT * FROM t LIMIT ?")
        assert len(conn.execute_prepared(ps, 1).rows) == 1
        assert len(conn.execute_prepared(ps, 3).rows) == 2

    def test_param_count_mismatch(self, conn):
        ps = conn.prepare("SELECT * FROM t WHERE a = ?")
        with pytest.raises(SQLError):
            ps.execute(1, 2)
        with pytest.raises(SQLError):
            ps.execute()

    def test_literal_types(self):
        assert literal_for(None).type_tag == "null"
        assert literal_for(True).type_tag == "bool"
        assert literal_for(3).type_tag == "int"
        assert literal_for(2.5).type_tag == "float"
        assert literal_for("s").type_tag == "string"
        with pytest.raises(SQLError):
            literal_for(object())

    def test_unbindable_value_is_refused(self, conn):
        ps = conn.prepare("SELECT * FROM t WHERE a = ?")
        outcome = conn.execute_prepared(ps, object())
        assert not outcome.ok and "cannot bind" in str(outcome.error)

    def test_bool_and_null_parameters(self, conn):
        ps = conn.prepare("SELECT ? + 1, ? IS NULL")
        assert conn.execute_prepared(ps, True, None).rows == [(2, 1)]
        assert conn.execute_prepared(ps, False, None).rows == [(1, 1)]


class TestExecution(object):
    def test_prepare_and_execute(self, db, conn):
        ps = conn.prepare(
            "SELECT reservID FROM tickets WHERE creditCard = ?"
        )
        assert ps.param_count == 1
        outcome = conn.execute_prepared(ps, 1234)
        assert outcome.rows == [("ID34FG",)]

    def test_reuse_with_different_params(self, conn):
        ps = conn.prepare(
            "SELECT reservID FROM tickets WHERE creditCard = ?"
        )
        assert conn.execute_prepared(ps, 1234).rows == [("ID34FG",)]
        assert conn.execute_prepared(ps, 9999).rows == [("ZZ11AA",)]

    def test_prepared_insert(self, db, conn):
        ps = conn.prepare(
            "INSERT INTO tickets (reservID, creditCard) VALUES (?, ?)"
        )
        outcome = conn.execute_prepared(ps, "NEW001", 42)
        assert outcome.affected_rows == 1
        assert len(db.table("tickets")) == 4

    def test_params_as_sequence(self, conn):
        ps = conn.prepare(
            "SELECT COUNT(*) FROM tickets WHERE creditCard > ?"
        )
        assert ps.execute([2000]).result_set.scalar() == 2

    def test_multi_statement_prepare_rejected(self, conn):
        with pytest.raises(SQLError):
            conn.prepare("SELECT 1; SELECT 2")

    def test_unbound_param_cannot_execute_directly(self, conn):
        outcome = conn.query("SELECT * FROM tickets WHERE id = ?")
        assert not outcome.ok


class TestInjectionImmunity(object):
    def test_quote_in_parameter_is_data(self, conn):
        ps = conn.prepare(
            "SELECT COUNT(*) FROM tickets WHERE reservID = ?"
        )
        outcome = conn.execute_prepared(ps, "x' OR '1'='1")
        assert outcome.result_set.scalar() == 0  # matched nothing, no dump

    def test_unicode_confusable_in_parameter_stays_verbatim(self, db,
                                                            conn):
        """Binary-protocol binding: the decoder never sees parameters, so
        U+02BC remains data — the channel that beats escaping does not
        exist here."""
        ps = conn.prepare(
            "INSERT INTO tickets (reservID, creditCard) VALUES (?, ?)"
        )
        conn.execute_prepared(ps, "IDʼ-- ", 1)
        stored = db.table("tickets").rows[-1]["reservid"]
        assert stored == "IDʼ-- "  # the prime survived, unfolded

    def test_numeric_context_payload_is_coerced_not_executed(self, conn):
        ps = conn.prepare(
            "SELECT COUNT(*) FROM tickets WHERE creditCard = ?"
        )
        outcome = conn.execute_prepared(ps, "0 OR 1=1")
        # the string is DATA compared against an INT column: coerces to 0
        assert outcome.result_set.scalar() == 0


class TestSepticInterplay(object):
    def test_literal_training_covers_prepared_execution(self):
        """A model learned from a literal query matches the prepared
        execution of the same statement (same stack shape)."""
        septic = Septic(mode=Mode.TRAINING)
        database = Database(septic=septic)
        database.seed(TICKETS_SCHEMA)
        conn = Connection(database)
        conn.query("/* septic:s:1 */ SELECT * FROM tickets "
                   "WHERE reservID = 'a' AND creditCard = 1")
        septic.mode = Mode.PREVENTION
        ps = conn.prepare("/* septic:s:1 */ SELECT * FROM tickets "
                          "WHERE reservID = ? AND creditCard = ?")
        outcome = conn.execute_prepared(ps, "ID34FG", 1234)
        assert outcome.ok
        assert outcome.rows == [(1, "ID34FG", 1234)]
        assert septic.stats.attacks_detected == 0

    def test_prepared_training_covers_literal_queries(self):
        septic = Septic(mode=Mode.TRAINING)
        database = Database(septic=septic)
        database.seed(TICKETS_SCHEMA)
        conn = Connection(database)
        ps = conn.prepare("/* septic:s:2 */ SELECT * FROM tickets "
                          "WHERE reservID = ? AND creditCard = ?")
        conn.execute_prepared(ps, "a", 1)
        septic.mode = Mode.PREVENTION
        outcome = conn.query(
            "/* septic:s:2 */ SELECT * FROM tickets "
            "WHERE reservID = 'b' AND creditCard = 2"
        )
        assert outcome.ok

    def test_attack_through_literal_still_blocked(self):
        septic = Septic(mode=Mode.TRAINING)
        database = Database(septic=septic)
        database.seed(TICKETS_SCHEMA)
        conn = Connection(database)
        ps = conn.prepare("/* septic:s:3 */ SELECT * FROM tickets "
                          "WHERE reservID = ? AND creditCard = ?")
        conn.execute_prepared(ps, "a", 1)
        septic.mode = Mode.PREVENTION
        outcome = conn.query(
            "/* septic:s:3 */ SELECT * FROM tickets "
            "WHERE reservID = 'b' AND 1=1-- ' AND creditCard = 2"
        )
        assert not outcome.ok  # mimicry against the prepared-learned model


class TestExecutionCacheReuse(object):
    """Server-side prepared executions ride the pipeline cache keyed by
    ``(statement id, parameter types)``: after the first execution of a
    type signature every later one skips parse, validation and planning
    whatever values it brings — the parameters are read late, from the
    execution, never baked into the entry."""

    def _db_conn(self):
        database = Database()
        database.seed(TICKETS_SCHEMA)
        connection = Connection(database)
        return database, connection

    def test_repeat_binds_hit_the_cache(self):
        database, conn = self._db_conn()
        prepared = conn.prepare(
            "SELECT reservID FROM tickets WHERE creditCard = ?"
        )
        cache = database.pipeline_cache
        misses_before, hits_before = cache.misses, cache.hits
        first = prepared.execute(1234)
        assert [tuple(r) for r in first.result_set.rows] == [("ID34FG",)]
        assert cache.misses == misses_before + 1
        for _ in range(3):
            again = prepared.execute(1234)
            assert [tuple(r) for r in again.result_set.rows] == \
                [("ID34FG",)]
        assert cache.hits == hits_before + 3

    def test_no_reparse_after_prepare(self, monkeypatch):
        database, conn = self._db_conn()
        prepared = conn.prepare(
            "SELECT reservID FROM tickets WHERE creditCard = ?"
        )

        def boom(*_args, **_kwargs):
            raise AssertionError("execution re-entered the parser")

        monkeypatch.setattr("repro.sqldb.parser.parse_sql", boom)
        monkeypatch.setattr("repro.sqldb.engine.parse_sql", boom)
        monkeypatch.setattr("repro.sqldb.engine.tokenize", boom)
        # every type signature's cold (miss) and hot (hit) paths stay
        # parse-free
        assert prepared.execute(1234).result_set.rows
        assert prepared.execute(1234).result_set.rows
        assert prepared.execute(9999).result_set.rows
        assert prepared.execute("1234").result_set.rows
        assert prepared.execute(1234.0).result_set.rows

    def test_no_revalidation_on_a_hit(self, monkeypatch):
        database, conn = self._db_conn()
        prepared = conn.prepare(
            "SELECT reservID FROM tickets WHERE creditCard = ?"
        )
        prepared.execute(1234)  # populates the int entry's stack

        def boom(*_args, **_kwargs):
            raise AssertionError("cache hit re-entered the validator")

        monkeypatch.setattr("repro.sqldb.engine.validate", boom)
        assert prepared.execute(1234).result_set.rows == \
            [prepared.execute(1234).result_set.rows[0]]
        # a value never bound before is a hit all the same
        assert [tuple(r) for r in prepared.execute(9999).result_set.rows] \
            == [("ZZ11AA",)]

    def test_value_sets_share_an_entry_and_never_a_value(self):
        database, conn = self._db_conn()
        prepared = conn.prepare(
            "SELECT reservID FROM tickets WHERE creditCard = ?"
        )
        cache = database.pipeline_cache
        misses_before, hits_before = cache.misses, cache.hits
        a = prepared.execute(1234)
        b = prepared.execute(9999)
        c = prepared.execute(1234)
        assert [tuple(r) for r in a.result_set.rows] == [("ID34FG",)]
        assert [tuple(r) for r in b.result_set.rows] == [("ZZ11AA",)]
        assert [tuple(r) for r in c.result_set.rows] == [("ID34FG",)]
        # one type signature -> one entry, one plan, read late
        assert cache.misses == misses_before + 1
        assert cache.hits == hits_before + 2

    def test_equal_values_of_different_types_do_not_alias(self):
        database, conn = self._db_conn()
        prepared = conn.prepare(
            "SELECT reservID FROM tickets WHERE creditCard = ?"
        )
        cache = database.pipeline_cache
        prepared.execute(1234)
        # True == 1 and hash(True) == hash(1), 1234 == 1234.0: every
        # type signature gets an entry of its own, once
        for value in (1234.0, True, "1234"):
            misses_before = cache.misses
            prepared.execute(value)
            assert cache.misses == misses_before + 1
            prepared.execute(value)
            assert cache.misses == misses_before + 1

    def test_two_prepares_of_the_same_text_do_not_share(self):
        database, conn = self._db_conn()
        first = conn.prepare("SELECT reservID FROM tickets WHERE id = ?")
        second = conn.prepare("SELECT reservID FROM tickets WHERE id = ?")
        assert first.statement_id != second.statement_id
        a = first.execute(1)
        b = second.execute(2)
        assert [tuple(r) for r in a.result_set.rows] == [("ID34FG",)]
        assert [tuple(r) for r in b.result_set.rows] == [("ZZ11AA",)]

    def test_wrong_param_count_still_raises_after_caching(self):
        _database, conn = self._db_conn()
        prepared = conn.prepare(
            "SELECT reservID FROM tickets WHERE creditCard = ?"
        )
        prepared.execute(1234)
        with pytest.raises(SQLError) as excinfo:
            prepared.execute(1234, 5678)
        assert excinfo.value.errno == 2031

    def test_ddl_invalidates_cached_executions(self):
        database, conn = self._db_conn()
        prepared = conn.prepare(
            "SELECT reservID FROM tickets WHERE creditCard = ?"
        )
        prepared.execute(1234)
        database.run("CREATE TABLE other (id INT PRIMARY KEY)")
        cache = database.pipeline_cache
        misses_before = cache.misses
        # schema_version moved: the old entry must not match, and the
        # re-validated execution still returns the right row
        outcome = prepared.execute(1234)
        assert [tuple(r) for r in outcome.result_set.rows] == [("ID34FG",)]
        assert cache.misses == misses_before + 1

    def test_keyed_mix_hits_and_never_revalidates(self, monkeypatch):
        """The ``kv_prepared`` benchmark's shape (e2e finding 5): four
        handles, every execution a different key.  Keyed per value this
        missed — and validated, and ran the hook in full — three times
        in four; keyed per type signature it misses once per handle."""
        import repro.sqldb.engine as engine_mod

        database = Database()
        database.seed("CREATE TABLE kv (k INT PRIMARY KEY, "
                      "v VARCHAR(32), n INT)")
        conn = Connection(database)
        select = conn.prepare("SELECT v, n FROM kv WHERE k = ?")
        update = conn.prepare("UPDATE kv SET v = ?, n = ? WHERE k = ?")
        insert = conn.prepare("INSERT INTO kv (k, v, n) VALUES (?, ?, ?)")
        delete = conn.prepare("DELETE FROM kv WHERE k = ?")
        validations = []
        validate = engine_mod.validate
        monkeypatch.setattr(
            engine_mod, "validate",
            lambda *args: validations.append(1) or validate(*args))
        cache = database.pipeline_cache
        hits, misses = cache.hits, cache.misses
        for key in range(100):
            assert insert.execute(key, "val-%d" % key, key).affected_rows
            assert select.execute(key).result_set.rows == \
                [("val-%d" % key, key)]
            assert update.execute("new-%d" % key, -key, key).affected_rows
            assert select.execute(key).result_set.rows == \
                [("new-%d" % key, -key)]
            if key % 2:
                assert delete.execute(key).affected_rows == 1
        executed = (cache.hits - hits) + (cache.misses - misses)
        assert executed == 450
        assert cache.misses - misses == 4 == len(validations)
        assert (cache.hits - hits) / executed >= 0.95
        assert len(database.table("kv")) == 50

    def test_cache_off_runs_the_same_statement(self):
        database = Database(cache_size=0)
        database.seed(TICKETS_SCHEMA)
        conn = Connection(database)
        prepared = conn.prepare(
            "SELECT reservID FROM tickets WHERE creditCard = ?"
        )
        for card, reserv in ((1234, "ID34FG"), (9999, "ZZ11AA")):
            rows = prepared.execute(card).result_set.rows
            assert [tuple(r) for r in rows] == [(reserv,)]
