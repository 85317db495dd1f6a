"""Tests for the logger / event register."""

import pytest

from repro.core.logger import EventKind, EventRecord, SepticLogger


class TestLogger(object):
    def test_significant_events_always_recorded(self):
        logger = SepticLogger(verbose=False)
        logger.log(EventKind.ATTACK_DETECTED, query="q")
        logger.log(EventKind.QM_CREATED, query="q")
        logger.log(EventKind.QUERY_DROPPED, query="q")
        logger.log(EventKind.MODE_CHANGED, detail="x")
        assert len(logger) == 4

    def test_verbose_off_drops_chatter(self):
        logger = SepticLogger(verbose=False)
        logger.log(EventKind.QS_BUILT)
        logger.log(EventKind.ID_GENERATED)
        logger.log(EventKind.QUERY_EXECUTED)
        assert len(logger) == 0

    def test_verbose_on_records_everything(self):
        logger = SepticLogger(verbose=True)
        logger.log(EventKind.QS_BUILT)
        logger.log(EventKind.QUERY_EXECUTED)
        assert len(logger) == 2

    def test_sequence_monotonic_even_when_skipped(self):
        logger = SepticLogger(verbose=False)
        logger.log(EventKind.QS_BUILT)           # skipped, still counted
        record = logger.log(EventKind.ATTACK_DETECTED)
        assert record.sequence == 2

    def test_accessors(self):
        logger = SepticLogger()
        logger.log(EventKind.ATTACK_DETECTED, attack_type="SQLI", step=1)
        logger.log(EventKind.QM_CREATED)
        logger.log(EventKind.QUERY_DROPPED)
        assert len(logger.attacks) == 1
        assert len(logger.new_models) == 1
        assert len(logger.drops) == 1

    def test_sink_receives_formatted_lines(self):
        lines = []
        logger = SepticLogger(verbose=True, sink=lines.append)
        logger.log(EventKind.ATTACK_DETECTED, attack_type="SQLI", step=2,
                   query_id="id9", detail="node 5 mismatch")
        assert len(lines) == 1
        assert "ATTACK_DETECTED" in lines[0]
        assert "syntactical" in lines[0]
        assert "id9" in lines[0]

    def test_format_structural_label(self):
        record = EventRecord(EventKind.ATTACK_DETECTED, step=1, sequence=1)
        assert "structural" in record.format()

    def test_long_query_truncated_in_format(self):
        record = EventRecord(EventKind.ATTACK_DETECTED, query="x" * 500,
                             sequence=1)
        assert len(record.format()) < 250

    def test_max_events_bounds_memory(self):
        logger = SepticLogger(verbose=True, max_events=5)
        for _ in range(10):
            logger.log(EventKind.QM_CREATED)
        assert len(logger.events) == 5

    def test_clear(self):
        logger = SepticLogger()
        logger.log(EventKind.QM_CREATED)
        logger.clear()
        assert len(logger) == 0


class TestBoundedRegisterKeepsEvidence(object):
    """Regression tests: a full register used to silently discard
    ATTACK_DETECTED / QUERY_DROPPED records — the one thing the paper's
    administrator workflow depends on seeing."""

    def test_attack_evicts_oldest_chatter_when_full(self):
        logger = SepticLogger(verbose=True, max_events=3)
        for _ in range(3):
            logger.log(EventKind.QUERY_EXECUTED)
        logger.log(EventKind.ATTACK_DETECTED, query="evil")
        kinds = [e.kind for e in logger.events]
        assert kinds == [EventKind.QUERY_EXECUTED, EventKind.QUERY_EXECUTED,
                        EventKind.ATTACK_DETECTED]
        assert logger.dropped_events == 1

    def test_attack_survives_arbitrary_chatter_flood(self):
        logger = SepticLogger(verbose=True, max_events=4)
        logger.log(EventKind.ATTACK_DETECTED, query="evil")
        for _ in range(50):
            logger.log(EventKind.QUERY_EXECUTED)
        assert len(logger.attacks) == 1
        assert logger.attacks[0].query == "evil"

    def test_full_register_of_evidence_evicts_oldest_evidence(self):
        logger = SepticLogger(verbose=False, max_events=2)
        logger.log(EventKind.ATTACK_DETECTED, query="first")
        logger.log(EventKind.ATTACK_DETECTED, query="second")
        logger.log(EventKind.ATTACK_DETECTED, query="third")
        assert [e.query for e in logger.events] == ["second", "third"]
        assert logger.dropped_events == 1

    def test_incoming_chatter_is_dropped_not_evicting(self):
        logger = SepticLogger(verbose=True, max_events=2)
        logger.log(EventKind.ATTACK_DETECTED, query="evil")
        logger.log(EventKind.QM_CREATED)
        logger.log(EventKind.QUERY_EXECUTED)   # register full: discarded
        logger.log(EventKind.QS_BUILT)
        assert [e.kind for e in logger.events] == [
            EventKind.ATTACK_DETECTED, EventKind.QM_CREATED]
        assert logger.dropped_events == 2

    def test_dropped_events_zero_when_register_has_room(self):
        logger = SepticLogger(verbose=True, max_events=10)
        for _ in range(5):
            logger.log(EventKind.QUERY_EXECUTED)
        assert logger.dropped_events == 0

    def test_clear_resets_dropped_counter(self):
        logger = SepticLogger(verbose=True, max_events=1)
        logger.log(EventKind.QUERY_EXECUTED)
        logger.log(EventKind.QUERY_EXECUTED)
        assert logger.dropped_events == 1
        logger.clear()
        assert logger.dropped_events == 0


class _CountingList(list):
    """A register that counts how many records are looked at."""

    looked_at = 0

    def __getitem__(self, index):
        type(self).looked_at += 1
        return list.__getitem__(self, index)

    def __iter__(self):
        for item in list.__iter__(self):
            type(self).looked_at += 1
            yield item


def _reference_log(events, max_events, verbose, kind, sequence):
    """The register's rule, written the obvious way: the eviction scan
    from the front on every full-register significant record.  Returns
    the number of records lost."""
    from repro.core.logger import _SIGNIFICANT

    if not verbose and kind not in _SIGNIFICANT:
        return 0
    if len(events) < max_events:
        events.append((kind, sequence))
        return 0
    if kind not in _SIGNIFICANT:
        return 1
    victim = 0
    for index, (held, _sequence) in enumerate(events):
        if held not in _SIGNIFICANT:
            victim = index
            break
    del events[victim]
    events.append((kind, sequence))
    return 1


class TestEvictionCost(object):
    """A full register used to walk itself, front to back, for every
    significant record — under an attack flood (a quiet register holds
    nothing else) that is ``max_events`` looks per attack."""

    def _logger(self, **kwargs):
        logger = SepticLogger(**kwargs)
        logger.events = _CountingList()
        _CountingList.looked_at = 0
        return logger

    def test_attack_flood_on_a_quiet_register_looks_at_nothing(self):
        logger = self._logger(verbose=False, max_events=50)
        for index in range(550):
            logger.log(EventKind.ATTACK_DETECTED, query=str(index))
            logger.log(EventKind.QUERY_EXECUTED)       # discarded unseen
        assert _CountingList.looked_at == 0
        assert [e.query for e in logger.events] == [
            str(index) for index in range(500, 550)]
        assert logger.dropped_events == 500

    def test_scan_resumes_where_it_stopped(self):
        logger = self._logger(verbose=True, max_events=40)
        for index in range(40):                 # evidence, then chatter
            logger.log(EventKind.QM_CREATED if index < 20
                       else EventKind.QUERY_EXECUTED)
        for _ in range(30):
            logger.log(EventKind.ATTACK_DETECTED)
        # 20 looks to pass the evidence once, one per eviction after —
        # not 20 per eviction
        assert _CountingList.looked_at <= 20 + 30
        kinds = [e.kind for e in logger.events]
        assert kinds == ([EventKind.QM_CREATED] * 10
                         + [EventKind.ATTACK_DETECTED] * 30)
        assert logger.dropped_events == 30

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_obvious_rule_on_random_traffic(self, seed):
        import random

        rng = random.Random(seed)
        kinds = [EventKind.ATTACK_DETECTED, EventKind.QM_CREATED,
                 EventKind.QUERY_EXECUTED, EventKind.QS_BUILT]
        logger = SepticLogger(verbose=True, max_events=7)
        reference, lost = [], 0
        for sequence in range(1, 400):
            if rng.random() < 0.02:
                logger.verbose = not logger.verbose
            if rng.random() < 0.01:
                logger.clear()
                reference, lost = [], 0
            # long runs of one kind: floods of evidence, floods of noise
            kind = rng.choice(kinds[:2] if (sequence // 25) % 2
                              else kinds)
            lost += _reference_log(reference, 7, logger.verbose, kind,
                                   sequence)
            logger.log(kind)
            assert [(e.kind, e.sequence) for e in logger.events] == \
                reference
            assert logger.dropped_events == lost


class TestExportJson(object):
    def test_export_includes_model_field(self, tmp_path):
        import json

        from repro.core.query_model import QueryModel
        from repro.sqldb.items import Item, ItemKind

        logger = SepticLogger()
        model = QueryModel([Item(ItemKind.SELECT_FIELD, "a")])
        logger.log(EventKind.ATTACK_DETECTED, query="q", query_id="id1",
                   model=model, attack_type="SQLI", step=2)
        path = str(tmp_path / "events.json")
        logger.export_json(path)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload[0]["model"] == model.canonical()
        assert payload[0]["attack_type"] == "SQLI"

    def test_export_tolerates_missing_model(self, tmp_path):
        import json

        logger = SepticLogger()
        logger.log(EventKind.MODE_CHANGED, detail="mode=PREVENTION")
        path = str(tmp_path / "events.json")
        logger.export_json(path)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload[0]["model"] is None
