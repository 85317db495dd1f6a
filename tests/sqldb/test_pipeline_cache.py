"""Tests for the query-pipeline cache and the per-session layer.

Covers the cache contract (hit/miss accounting, LRU eviction,
schema-version invalidation, SEPTIC memoization), per-connection session
isolation, and the multi-session concurrency guarantees (exact SEPTIC
stats under a thread storm).
"""

import sys
import threading

import pytest

from repro.core.logger import SepticLogger
from repro.core.manager import QSQMManager
from repro.core.septic import Mode, Septic
from repro.sqldb import cache as cache_mod
from repro.sqldb import engine as engine_mod
from repro.sqldb.cache import (TEXT_TIER_FACTOR, CacheEntry, PipelineCache,
                               TextBinding)
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database

from tests.conftest import TICKET_QUERY, TICKETS_SCHEMA


def _fresh_db():
    database = Database()
    database.seed(TICKETS_SCHEMA)
    return database


class TestPipelineCacheUnit(object):
    def _entry(self):
        return CacheEntry(["stmt"], [])

    def test_miss_then_hit(self):
        cache = PipelineCache(4)
        assert cache.get("utf8", "SELECT 1", 0) is None
        entry = self._entry()
        cache.put("utf8", "SELECT 1", 0, entry)
        assert cache.get("utf8", "SELECT 1", 0) is entry
        assert cache.misses == 1 and cache.hits == 1

    def test_key_includes_charset_and_schema_version(self):
        cache = PipelineCache(8)
        cache.put("utf8", "SELECT 1", 0, self._entry())
        assert cache.get("gbk", "SELECT 1", 0) is None
        assert cache.get("utf8", "SELECT 1", 1) is None

    def test_lru_eviction_order(self):
        cache = PipelineCache(2)
        first, second, third = (self._entry() for _ in range(3))
        cache.put("c", "q1", 0, first)
        cache.put("c", "q2", 0, second)
        cache.get("c", "q1", 0)          # refresh q1 → q2 is now LRU
        cache.put("c", "q3", 0, third)
        assert cache.get("c", "q2", 0) is None
        assert cache.get("c", "q1", 0) is first
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_racy_double_fill_keeps_first_entry(self):
        cache = PipelineCache(4)
        winner, loser = self._entry(), self._entry()
        assert cache.put("c", "q", 0, winner) is winner
        assert cache.put("c", "q", 0, loser) is winner

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            PipelineCache(0)

    def test_stats_dict(self):
        cache = PipelineCache(4)
        cache.put("c", "q", 0, self._entry())
        cache.get("c", "q", 0)
        cache.get("c", "nope", 0)
        stats = cache.stats_dict()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_a_binding_never_evicts_an_entry(self):
        cache = PipelineCache(2)
        first, second = self._entry(), self._entry()
        cache.put("c", ("shape", 1), 0, first)
        cache.put("c", ("shape", 2), 0, second)
        texts = 3 * cache.max_texts
        for number in range(texts):
            entry = first if number % 2 else second
            cache.put("c", "q%d" % number, 0,
                      TextBinding(entry, (number,), "q%d" % number))
        assert cache.get("c", ("shape", 1), 0) is first
        assert cache.get("c", ("shape", 2), 0) is second
        stats = cache.stats_dict()
        assert stats["text_entries"] == cache.max_texts == 2 * TEXT_TIER_FACTOR
        assert stats["entries"] == 2 + cache.max_texts
        assert stats["text_evictions"] == stats["evictions"] == \
            texts - cache.max_texts
        # the newest bindings are the ones kept
        assert cache.probe("c", "q%d" % (texts - 1), 0).values == \
            (texts - 1,)
        assert cache.probe("c", "q0", 0) is None
        assert cache.stats_dict()["text_hits"] == 1

    def test_an_entry_leaves_with_its_bindings(self):
        # a binding must not keep an evicted entry alive: the text tier
        # holds eight times as many records as the entry tier
        cache = PipelineCache(1)
        first, second = self._entry(), self._entry()
        cache.put("c", ("shape", 1), 0, first)
        for number in range(3):
            cache.put("c", "q%d" % number, 0, TextBinding(first, (), ""))
        cache.put("c", ("shape", 2), 0, second)
        assert [cache.probe("c", "q%d" % n, 0) for n in range(3)] == \
            [None] * 3
        stats = cache.stats_dict()
        assert (stats["entries"], stats["evictions"],
                stats["text_evictions"]) == (1, 4, 3)

    def test_a_binding_whose_entry_is_not_cached_is_an_entry(self):
        # a script's or a DDL's binding is the only holder of its entry,
        # so it is sized and evicted as one
        cache = PipelineCache(2)
        cache.put("c", "DROP TABLE a", 0,
                  TextBinding(self._entry(), (), "DROP TABLE a"))
        cache.put("c", ("shape", 1), 0, self._entry())
        cache.put("c", ("shape", 2), 0, self._entry())
        assert cache.probe("c", "DROP TABLE a", 0) is None
        assert cache.stats_dict()["text_entries"] == 0
        assert repr(cache) == \
            "PipelineCache(2/2 entries, 0/16 texts, 0% hits)"


class _Counted(object):
    """Counts the calls of one function patched in its namespaces."""

    def __init__(self, monkeypatch, function, *namespaces):
        self.calls = 0

        def counted(*args, **kwargs):
            self.calls += 1
            return function(*args, **kwargs)

        for namespace in namespaces:
            monkeypatch.setattr(namespace, function.__name__, counted)


class TestTextTier(object):
    """Texts and shapes are cached apart: a cycle of texts longer than
    the entry tier still hits, and a flood of texts costs no shape."""

    SHAPES = (
        "SELECT reservID FROM tickets WHERE id = %d",
        "SELECT id FROM tickets WHERE creditCard = %d",
        "/* septic:flood.php:3 */ SELECT creditCard FROM tickets "
        "WHERE id > %d",
    )

    def test_a_cyclic_working_set_past_the_entry_tier_hits(
            self, monkeypatch):
        database = Database(cache_size=4)
        database.seed(TICKETS_SCHEMA)
        texts = [shape % number for shape in self.SHAPES
                 for number in range(10)]
        # more texts than the entry tier holds, fewer than the text tier
        assert 4 < len(texts) <= TEXT_TIER_FACTOR * 4
        for sql in texts:
            database.run(sql)
        lexer = _Counted(monkeypatch, cache_mod.tokenize, cache_mod)
        parser = _Counted(monkeypatch, engine_mod.parse_sql, engine_mod)
        cache = database.pipeline_cache
        hits = cache.hits
        for sql in texts:
            database.run(sql)
        assert (lexer.calls, parser.calls) == (0, 0)
        assert cache.hits - hits == len(texts)
        assert cache.stats_dict()["text_hits"] >= len(texts)

    def test_a_flood_of_texts_keeps_every_shape(self, monkeypatch):
        septic = Septic(mode=Mode.TRAINING,
                        logger=SepticLogger(verbose=False))
        database = Database(septic=septic, cache_size=4)
        database.seed(TICKETS_SCHEMA)
        conn = Connection(database)
        for shape in self.SHAPES:
            conn.query_or_raise(shape % 1)
        septic.mode = Mode.PREVENTION
        cache = database.pipeline_cache
        warm = {}
        for shape in self.SHAPES[1:]:
            conn.query_or_raise(shape % 2)      # the shape's verdict
            entry = cache.probe("utf8", shape % 2,
                                database.schema_version).entry
            assert entry.septic_memo.verdict is not None
            warm[shape] = (entry, entry.septic_memo.verdict)
        flood = TEXT_TIER_FACTOR * 4 + 8
        for number in range(flood):
            conn.query_or_raise(self.SHAPES[0] % (1000 + number))
        parser = _Counted(monkeypatch, engine_mod.parse_sql, engine_mod)
        receive = _Counted(monkeypatch, QSQMManager.receive, QSQMManager)
        for shape, (entry, verdict) in warm.items():
            sql = shape % 3
            conn.query_or_raise(sql)
            served = cache.probe("utf8", sql, database.schema_version)
            assert served.entry is entry
            assert entry.septic_memo.verdict is verdict
        assert (parser.calls, receive.calls) == (0, 0)
        assert cache.stats_dict()["text_evictions"] >= \
            flood - TEXT_TIER_FACTOR * 4


class TestShapeKey(object):
    """What lands two texts on one entry, and what keeps them apart."""

    BASE = ("/* septic:a.php:1 */ SELECT reservID FROM tickets "
            "WHERE creditCard = 1234 AND reservID <> 'none'")

    def _entry(self, database, sql, charset="utf8"):
        conn = Connection(database, charset=charset)
        assert conn.query(sql).ok, sql
        text = database.pipeline_cache.probe(
            charset, sql, database.schema_version)
        return text.entry, text.values

    @pytest.mark.parametrize("other, values", [
        (BASE.replace("1234", "9999"), (9999, "none")),
        (BASE.replace("'none'", "'x''y'"), (1234, "x'y")),
        (BASE.replace(" WHERE", "\n\t  WHERE"), (1234, "none")),
        (BASE.replace("SELECT", "select").replace("AND", "and"),
         (1234, "none")),
        (BASE.replace("1234", "0001234"), (1234, "none")),
    ])
    def test_same_shape_same_entry(self, other, values):
        database = _fresh_db()
        entry, base_values = self._entry(database, self.BASE)
        assert base_values == (1234, "none")
        shared, other_values = self._entry(database, other)
        assert shared is entry
        assert other_values == values
        assert database.pipeline_cache.shape_hits == 1

    @pytest.mark.parametrize("other", [
        BASE.replace("a.php:1", "a.php:2"),             # call site
        BASE + " /* note */",                           # any comment
        BASE.replace("reservID FROM", "reservid FROM"),  # identifier
        BASE.replace("1234", "'1234'"),                 # literal kind
        BASE.replace("1234", "1234.0"),
        BASE.replace("'none'", "0x6e6f6e65"),
        BASE.replace("<>", "!="),                       # operator
        BASE.replace("1234", "1234 OR 1=1"),            # structure
        BASE.replace("'none'", "'none' -- "),
    ])
    def test_other_shape_other_entry(self, other):
        database = _fresh_db()
        entry, _values = self._entry(database, self.BASE)
        apart, _values = self._entry(database, other)
        assert apart is not entry
        assert database.pipeline_cache.shape_hits == 0

    @pytest.mark.parametrize("first, second", [
        ("SELECT * FROM tickets LIMIT 1", "SELECT * FROM tickets LIMIT 2"),
        ("SELECT * FROM tickets LIMIT 2 OFFSET 1",
         "SELECT * FROM tickets LIMIT 2 OFFSET 0"),
        ("SELECT id, reservID FROM tickets ORDER BY 1",
         "SELECT id, reservID FROM tickets ORDER BY 2"),
        ("SELECT 1, id FROM tickets", "SELECT 2, id FROM tickets"),
        ("SELECT id, COUNT(*) FROM tickets GROUP BY id + 1",
         "SELECT id, COUNT(*) FROM tickets GROUP BY id + 2"),
        ("SELECT CAST(id AS CHAR(1)) FROM tickets",
         "SELECT CAST(id AS CHAR(2)) FROM tickets"),
    ])
    def test_literals_read_by_value_stay_in_the_key(self, first, second):
        database = _fresh_db()
        uncached = Database(cache_size=0)
        uncached.seed(TICKETS_SCHEMA)
        one, _values = self._entry(database, first)
        two, _values = self._entry(database, second)
        assert one is not two
        for sql in (first, second, first):
            got = database.run(sql)[0].result_set
            want = uncached.run(sql)[0].result_set
            assert (got.columns, got.rows) == (want.columns, want.rows)

    def test_charset_and_schema_version_keep_entries_apart(self):
        database = _fresh_db()
        entry, _values = self._entry(database, self.BASE)
        gbk, _values = self._entry(database, self.BASE, charset="gbk")
        assert gbk is not entry
        database.run("CREATE TABLE other (id INT)")
        later, _values = self._entry(database, self.BASE)
        assert later is not entry

    def test_unslotted_statements_are_cached_by_text_only(self):
        database = _fresh_db()
        cache = database.pipeline_cache
        for sql in ("SHOW TABLES", "DESCRIBE tickets",
                    "SELECT * FROM tickets WHERE id = 1; SELECT 2",
                    "CREATE TABLE t9 (a VARCHAR(9) DEFAULT 'x')"):
            database.run(sql, multi=True)
            text = cache.probe("utf8", sql, database.schema_version)
            if text is not None:            # DDL moved the version on
                assert text.entry.slots == () and text.values == ()
        assert cache.shape_hits == 0

    def test_stats_count_parses_as_misses_and_shape_hits_apart(self):
        database = _fresh_db()
        cache = database.pipeline_cache
        cache.hits = cache.misses = 0
        for card in (1, 2, 3, 3, 3):
            database.run(self.BASE.replace("1234", str(card)))
        stats = cache.stats_dict()
        assert (stats["misses"], stats["hits"], stats["shape_hits"]) == \
            (1, 4, 2)


class TestDatabaseCacheIntegration(object):
    def test_repeated_query_hits_cache(self):
        database = _fresh_db()
        cache = database.pipeline_cache
        cache.hits = cache.misses = 0
        for _ in range(5):
            database.run("SELECT * FROM tickets")
        assert cache.misses == 1
        assert cache.hits == 4

    def test_cache_can_be_disabled(self):
        database = Database(cache_size=0)
        assert database.pipeline_cache is None
        database.seed(TICKETS_SCHEMA)
        rows = database.run("SELECT * FROM tickets")[0].result_set.rows
        assert len(rows) == 3

    def test_cached_and_uncached_results_identical(self):
        cached, uncached = _fresh_db(), Database(cache_size=0)
        uncached.seed(TICKETS_SCHEMA)
        sql = "SELECT reservID FROM tickets WHERE creditCard > 2000 " \
              "ORDER BY reservID"
        for _ in range(3):
            a = cached.run(sql)[0].result_set.rows
            b = uncached.run(sql)[0].result_set.rows
            assert a == b

    def test_ddl_between_identical_queries_revalidates(self):
        database = _fresh_db()
        sql = "SELECT * FROM tickets"
        before = database.run(sql)[0].result_set
        assert "notes" not in before.columns
        database.run("ALTER TABLE tickets ADD COLUMN notes VARCHAR(50)")
        after = database.run(sql)[0].result_set
        assert "notes" in after.columns  # stale star-expansion would miss it

    def test_ddl_makes_previously_invalid_query_valid(self):
        database = _fresh_db()
        sql = "SELECT notes FROM tickets"
        conn = Connection(database)
        assert not conn.query(sql).ok          # column does not exist yet
        conn.query("ALTER TABLE tickets ADD COLUMN notes VARCHAR(50)")
        assert conn.query(sql).ok              # must re-validate, not replay

    def test_drop_table_invalidates(self):
        database = _fresh_db()
        conn = Connection(database)
        assert conn.query("SELECT * FROM tickets").ok
        conn.query("DROP TABLE tickets")
        assert not conn.query("SELECT * FROM tickets").ok

    def test_schema_version_bumps_on_ddl_only(self):
        database = _fresh_db()
        version = database.schema_version
        database.run("SELECT * FROM tickets")
        database.run("INSERT INTO tickets (reservID, creditCard) "
                     "VALUES ('NEW', 1)")
        assert database.schema_version == version
        database.run("ALTER TABLE tickets ADD COLUMN c INT")
        assert database.schema_version == version + 1

    def test_validation_stack_memoized_for_single_statements(self):
        database = _fresh_db()
        database.run("SELECT * FROM tickets")
        entry = database.pipeline_cache.get(
            database.charset, "SELECT * FROM tickets",
            database.schema_version)
        assert entry is not None
        assert entry.stack is not None
        assert entry.single_statement

    def test_multi_statement_scripts_not_stack_memoized(self):
        database = _fresh_db()
        script = "CREATE TABLE s1 (x INT); INSERT INTO s1 (x) VALUES (1)"
        database.run(script, multi=True)
        # the script's second statement only validates once the first has
        # executed, so its stack must never be frozen into the cache
        entry = database.pipeline_cache.get(
            database.charset, script, database.schema_version)
        if entry is not None:
            assert entry.stack is None

    def test_failed_validation_not_cached_as_success(self):
        database = _fresh_db()
        conn = Connection(database)
        for _ in range(3):
            outcome = conn.query("SELECT missing_col FROM tickets")
            assert not outcome.ok
            assert "missing_col" in str(outcome.error)


class TestSepticMemoization(object):
    def _stack(self):
        septic = Septic(mode=Mode.TRAINING,
                        logger=SepticLogger(verbose=False))
        database = Database(septic=septic)
        database.seed(TICKETS_SCHEMA)
        connection = Connection(database)
        connection.query(TICKET_QUERY % ("ID34FG", "1234"))
        septic.mode = Mode.PREVENTION
        return septic, database, connection

    def test_memo_fills_after_first_hook_pass(self):
        septic, database, connection = self._stack()
        sql = TICKET_QUERY % ("ZZ11AA", "9999")
        connection.query(sql)
        entry = database.pipeline_cache.get(
            connection.charset, sql, database.schema_version)
        assert entry is not None
        assert entry.septic_memo.ready
        assert entry.septic_memo.query_id is not None

    def test_memoized_hook_detection_unchanged(self):
        septic, database, connection = self._stack()
        legit = TICKET_QUERY % ("ZZ11AA", "9999")
        attack = TICKET_QUERY % ("x' OR 1=1 -- ", "0")
        for _ in range(4):
            assert connection.query(legit).ok
        for _ in range(4):
            outcome = connection.query(attack)
            assert not outcome.ok
        assert septic.stats.attacks_detected == 4
        assert septic.stats.queries_dropped == 4

    def test_memoized_id_matches_fresh_id(self):
        septic, database, connection = self._stack()
        sql = TICKET_QUERY % ("QQ77MM", "4321")
        connection.query(sql)
        entry = database.pipeline_cache.get(
            connection.charset, sql, database.schema_version)
        memo_id = entry.septic_memo.query_id
        # a cold database computes the same composed ID for the same text
        septic2, database2, connection2 = self._stack()
        connection2.query(sql)
        entry2 = database2.pipeline_cache.get(
            connection2.charset, sql, database2.schema_version)
        assert entry2.septic_memo.query_id.value == memo_id.value


class TestSessionIsolation(object):
    def test_last_insert_id_is_per_connection(self):
        database = _fresh_db()
        a, b = Connection(database), Connection(database)
        a.query("INSERT INTO tickets (reservID, creditCard) "
                "VALUES ('AAA', 1)")
        assert a.last_insert_id == 4
        assert b.last_insert_id == 0
        b.query("INSERT INTO tickets (reservID, creditCard) "
                "VALUES ('BBB', 2)")
        assert b.last_insert_id == 5
        assert a.last_insert_id == 4

    def test_last_insert_id_function_uses_own_session(self):
        database = _fresh_db()
        a, b = Connection(database), Connection(database)
        a.query("INSERT INTO tickets (reservID, creditCard) "
                "VALUES ('AAA', 1)")
        rows_a = a.query("SELECT LAST_INSERT_ID() AS lid").rows
        rows_b = b.query("SELECT LAST_INSERT_ID() AS lid").rows
        assert rows_a[0][0] == 4
        assert rows_b[0][0] == 0

    def test_transactions_are_per_connection(self):
        database = _fresh_db()
        a, b = Connection(database), Connection(database)
        a.query("BEGIN")
        a.query("DELETE FROM tickets")
        b.query("INSERT INTO tickets (reservID, creditCard) "
                "VALUES ('KEEP', 7)")
        a.query("ROLLBACK")
        # a's rollback restores its snapshot; it must not have been
        # confused by b never being in a transaction
        assert database.in_transaction is False
        reservations = {r["reservid"] for r in database.table("tickets").rows}
        assert {"ID34FG", "ZZ11AA", "QQ77MM"} <= reservations

    def test_in_transaction_true_while_any_session_open(self):
        database = _fresh_db()
        a, b = Connection(database), Connection(database)
        a.query("BEGIN")
        assert database.in_transaction
        b.query("BEGIN")
        a.query("COMMIT")
        assert database.in_transaction   # b still holds one
        b.query("ROLLBACK")
        assert not database.in_transaction

    def test_connection_charset_rides_its_session(self):
        database = _fresh_db()
        gbk = Connection(database, charset="gbk")
        utf8 = Connection(database)
        assert gbk.session.charset == "gbk"
        assert utf8.session.charset == database.charset


class TestConcurrency(object):
    THREADS = 4
    LOOPS = 25

    def _storm(self, worker):
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_exact_stats_under_thread_storm(self):
        septic = Septic(mode=Mode.TRAINING,
                        logger=SepticLogger(verbose=False))
        database = Database(septic=septic)
        database.seed(TICKETS_SCHEMA)
        trainer = Connection(database)
        trainer.query(TICKET_QUERY % ("ID34FG", "1234"))
        septic.mode = Mode.PREVENTION
        base = septic.stats.queries_processed
        errors = []

        def worker(index):
            try:
                conn = Connection(database)
                legit = TICKET_QUERY % ("ZZ11AA", "9999")
                attack = TICKET_QUERY % ("x' OR 1=1 -- ", "0")
                for _ in range(self.LOOPS):
                    if not conn.query(legit).ok:
                        errors.append("legit blocked")
                    if conn.query(attack).ok:
                        errors.append("attack passed")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(repr(exc))

        self._storm(worker)
        assert errors == []
        expected = self.THREADS * self.LOOPS
        stats = septic.stats.as_dict()
        assert stats["queries_processed"] == base + 2 * expected
        assert stats["attacks_detected"] == expected
        assert stats["queries_dropped"] == expected
        assert stats["sqli_detected"] == expected

    def test_concurrent_inserts_race_free(self):
        database = _fresh_db()
        errors = []

        def worker(index):
            conn = Connection(database)
            for _ in range(self.LOOPS):
                outcome = conn.query(
                    "INSERT INTO tickets (reservID, creditCard) "
                    "VALUES ('T%d', %d)" % (index, index))
                if not outcome.ok:
                    errors.append(str(outcome.error))

        self._storm(worker)
        assert errors == []
        table = database.table("tickets")
        assert len(table.rows) == 3 + self.THREADS * self.LOOPS
        ids = [row["id"] for row in table.rows]
        assert len(set(ids)) == len(ids)  # AUTO_INCREMENT never reused
        assert database.statements_executed >= self.THREADS * self.LOOPS

    def test_concurrent_reads_share_cache_entry(self):
        database = _fresh_db()
        cache = database.pipeline_cache
        cache.hits = cache.misses = 0
        barrier = threading.Barrier(self.THREADS)
        errors = []

        def worker(index):
            conn = Connection(database)
            barrier.wait()
            for _ in range(self.LOOPS):
                if len(conn.query("SELECT * FROM tickets").rows) != 3:
                    errors.append("wrong row count")

        self._storm(worker)
        assert errors == []
        total = self.THREADS * self.LOOPS
        assert cache.hits + cache.misses == total
        # every lookup after the initial fill(s) must hit
        assert cache.hits >= total - self.THREADS
        assert len(cache) >= 1

    def test_tiers_stay_consistent_under_a_thread_storm(self):
        # four threads on two cores churn both tiers at once: entries
        # leave with their bindings while other threads bind texts to
        # them; an insertion error is swallowed by resolve, so the
        # invariants are checked on the cache itself
        database = Database(cache_size=2)
        database.seed(TICKETS_SCHEMA)
        cache = database.pipeline_cache
        shapes = ("SELECT id FROM tickets WHERE id = %d",
                  "SELECT reservID FROM tickets WHERE id = %d",
                  "SELECT creditCard FROM tickets WHERE id = %d")
        errors = []

        def worker(index):
            try:
                for number in range(60):
                    sql = shapes[(number + index) % 3] % (number % 20)
                    if not database.run(sql)[0].result_set.rows == \
                            database.run(sql)[0].result_set.rows:
                        errors.append("unstable result")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.stats_dict()["evictions"] > 0
        assert len(cache._entries) <= cache.max_entries
        assert len(cache._texts) <= cache.max_texts
        # every binding in the text tier serves a resident record and is
        # registered with it, and nothing else is
        resident = {id(record) for record in cache._entries.values()}
        assert set(cache._served) <= resident
        for key, binding in cache._texts.items():
            assert key in cache._served[id(binding.entry)]
        assert sum(map(len, cache._served.values())) == len(cache._texts)

    def test_concurrent_ddl_and_queries_never_crash(self):
        database = _fresh_db()
        errors = []

        def reader(index):
            conn = Connection(database)
            for _ in range(self.LOOPS):
                outcome = conn.query("SELECT * FROM tickets")
                if not outcome.ok:
                    errors.append(str(outcome.error))

        def ddl_worker(index):
            conn = Connection(database)
            for step in range(self.LOOPS):
                name = "scratch_%d_%d" % (index, step)
                if not conn.query("CREATE TABLE %s (x INT)" % name).ok:
                    errors.append("create failed")
                if not conn.query("DROP TABLE %s" % name).ok:
                    errors.append("drop failed")

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(2)]
        threads += [threading.Thread(target=ddl_worker, args=(i,))
                    for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert "tickets" in database.tables
