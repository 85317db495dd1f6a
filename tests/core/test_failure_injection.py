"""Failure injection: broken collaborators must not corrupt protection.

Covers the availability/security trade-offs: a crashing hook, a broken
log sink, a corrupted model store.
"""

import pytest

from repro.core.logger import EventKind, SepticLogger
from repro.core.septic import Mode, Septic
from repro.core.store import QMStore
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from tests.conftest import TICKETS_SCHEMA


class _CrashingSeptic(object):
    """A hook that dies on every query."""

    def process_query(self, context):
        raise RuntimeError("hook crashed")


class TestHookCrash(object):
    def test_fail_closed_by_default(self):
        database = Database(septic=_CrashingSeptic())
        database.septic = None  # seed without the broken hook
        database.seed(TICKETS_SCHEMA)
        database.septic = _CrashingSeptic()
        conn = Connection(database)
        outcome = conn.query("SELECT * FROM tickets")
        assert not outcome.ok
        assert database.statements_executed == 0 or \
            "tickets" in database.tables  # the SELECT itself did not run


class TestBrokenSink(object):
    def test_sink_exception_disables_sink_not_logging(self):
        calls = []

        def bad_sink(line):
            calls.append(line)
            raise IOError("display unplugged")

        logger = SepticLogger(verbose=True, sink=bad_sink)
        logger.log(EventKind.QM_CREATED)
        logger.log(EventKind.ATTACK_DETECTED)
        assert len(calls) == 1          # sink dropped after first failure
        assert len(logger.events) == 2  # register unaffected

    def test_protection_survives_broken_sink(self):
        def bad_sink(line):
            raise IOError("boom")

        septic = Septic(mode=Mode.TRAINING,
                        logger=SepticLogger(verbose=True, sink=bad_sink))
        database = Database(septic=septic)
        database.seed(TICKETS_SCHEMA)
        conn = Connection(database)
        conn.query("/* septic:s:1 */ SELECT * FROM tickets WHERE id = 1")
        septic.mode = Mode.PREVENTION
        outcome = conn.query(
            "/* septic:s:1 */ SELECT * FROM tickets WHERE id = 1 OR 1=1"
        )
        assert not outcome.ok


class TestCorruptedStore(object):
    def test_corrupted_json_raises_cleanly(self, tmp_path):
        path = tmp_path / "models.json"
        path.write_text("{ this is not json")
        store = QMStore(path=str(path))
        with pytest.raises(ValueError) as err:
            store.load()
        assert "corrupted" in str(err.value)

    def test_wrong_layout_raises_cleanly(self, tmp_path):
        path = tmp_path / "models.json"
        path.write_text('{"nothing": "here"}')
        store = QMStore(path=str(path))
        with pytest.raises(ValueError) as err:
            store.load()
        assert "layout" in str(err.value)

    def test_failed_load_preserves_previous_contents(self, tmp_path):
        from repro.core.id_generator import IdGenerator
        from repro.core.query_model import QueryModel
        from repro.core.query_structure import QueryStructure
        from repro.sqldb.parser import parse_one
        from repro.sqldb.validator import validate

        store = QMStore()
        qm = QueryModel.from_structure(
            QueryStructure.from_stack(validate(parse_one("SELECT 1")))
        )
        store.put(IdGenerator().generate([], qm), qm)
        bad = tmp_path / "bad.json"
        bad.write_text("garbage")
        with pytest.raises(ValueError):
            store.load(str(bad))
        assert len(store) == 1  # untouched
