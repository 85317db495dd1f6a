"""Tests for the ID generator module."""

from repro.core.id_generator import IdGenerator, QueryId
from repro.core.query_model import QueryModel
from repro.core.query_structure import QueryStructure
from repro.sqldb.parser import parse_one
from repro.sqldb.validator import validate


def model_of(sql):
    qs = QueryStructure.from_stack(validate(parse_one(sql)))
    return QueryModel.from_structure(qs)


class TestExternalId(object):
    def test_septic_marker_wins(self):
        gen = IdGenerator()
        assert gen.external_id(["septic:app:12"]) == "app:12"

    def test_septic_marker_preferred_over_bare(self):
        gen = IdGenerator()
        assert gen.external_id(["note", "septic:app:12"]) == "app:12"

    def test_bare_token_fallback(self):
        gen = IdGenerator()
        assert gen.external_id(["login.php:33"]) == "login.php:33"

    def test_bare_comment_with_spaces_rejected(self):
        gen = IdGenerator()
        assert gen.external_id(["this is prose"]) is None

    def test_bare_fallback_can_be_disabled(self):
        gen = IdGenerator(accept_bare_comments=False)
        assert gen.external_id(["login.php:33"]) is None
        assert gen.external_id(["septic:x"]) == "x"

    def test_no_comments(self):
        assert IdGenerator().external_id([]) is None

    def test_overlong_bare_token_rejected(self):
        gen = IdGenerator()
        assert gen.external_id(["x" * 200]) is None


class TestInternalId(object):
    def test_stable_across_calls(self):
        gen = IdGenerator()
        model = model_of("SELECT a FROM t WHERE b = 1")
        assert gen.internal_id(model) == gen.internal_id(model)

    def test_data_independent(self):
        gen = IdGenerator()
        a = model_of("SELECT a FROM t WHERE b = 1")
        b = model_of("SELECT a FROM t WHERE b = 999")
        assert gen.internal_id(a) == gen.internal_id(b)

    def test_structure_dependent(self):
        gen = IdGenerator()
        a = model_of("SELECT a FROM t WHERE b = 1")
        b = model_of("SELECT a FROM t WHERE b = 1 AND c = 2")
        assert gen.internal_id(a) != gen.internal_id(b)

    def test_type_dependent(self):
        gen = IdGenerator()
        a = model_of("SELECT a FROM t WHERE b = 1")
        b = model_of("SELECT a FROM t WHERE b = 'one'")
        assert gen.internal_id(a) != gen.internal_id(b)

    def test_length(self):
        assert len(IdGenerator().internal_id(model_of("SELECT 1"))) == 16


class TestComposition(object):
    def test_both_identifiers(self):
        gen = IdGenerator()
        model = model_of("SELECT 1")
        qid = gen.generate(["septic:site:9"], model)
        assert qid.external == "site:9"
        assert qid.value == "site:9§" + qid.internal

    def test_internal_only(self):
        qid = IdGenerator().generate([], model_of("SELECT 1"))
        assert qid.external is None
        assert qid.value == qid.internal

    def test_equality_and_hash(self):
        gen = IdGenerator()
        model = model_of("SELECT 1")
        a = gen.generate(["septic:s"], model)
        b = gen.generate(["septic:s"], model)
        assert a == b and hash(a) == hash(b)

    def test_same_structure_different_sites_distinct(self):
        gen = IdGenerator()
        model = model_of("SELECT a FROM t WHERE b = 1")
        a = gen.generate(["septic:site1"], model)
        b = gen.generate(["septic:site2"], model)
        assert a != b

    def test_value_is_composed_once(self):
        # it used to be re-formatted on every read, hash and comparison
        qid = QueryId("abc", external="site")
        assert qid.value == "site§abc"
        assert qid.value is qid.value
        assert hash(qid) == hash("site§abc")

    def test_queryid_repr(self):
        assert "QueryId" in repr(QueryId("abc", external="e"))
