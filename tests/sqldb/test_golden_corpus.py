"""Golden corpus: the item stack and the ``to_sql`` text stay byte-identical.

SEPTIC's input is the item stack the validator flattens out of the parsed
tree, and the write-ahead log's input is ``to_sql``'s text.  Neither may
move when the tree or its walkers are rewritten: a stack that moves
changes every trained query model and query ID, a text that moves
changes the WAL.  ``golden/corpus.json`` pins, for every statement

* the four applications issue for their recorded requests and the
  ``repro.attacks`` corpus issues (captured at the engine, validated
  against the catalog as it stood when the statement arrived), and
* of :data:`tests.sqldb.test_unparse.CORPUS` (validated without a
  catalog),

the item stack and ``to_sql`` text of the plain parse, the query model's
internal ID, and the stack and ``to_sql(tree, values)`` text of the
slotting parse the pipeline cache runs (the text the WAL logs).

Regenerate after a deliberate change with
``PYTHONPATH=src python -m tests.sqldb.test_golden_corpus`` and say in
the change which entries moved and why.
"""

import json
import os

import pytest

from repro.apps.addressbook import AddressBook
from repro.apps.refbase import Refbase
from repro.apps.waspmon import WaspMon
from repro.apps.zerocms import ZeroCMS
from repro.attacks.corpus import waspmon_attacks
from repro.core.id_generator import IdGenerator
from repro.core.query_model import QueryModel
from repro.core.query_structure import QueryStructure
from repro.sqldb import charset as charset_mod
from repro.sqldb.engine import Database
from repro.sqldb.errors import SQLError
from repro.sqldb.lexer import slot_values, tokenize
from repro.sqldb.parser import parse_sql
from repro.sqldb.prepared import slot_tags
from repro.sqldb.unparse import to_sql
from repro.sqldb.validator import validate
from repro.web.app import PhpRuntime

from tests.sqldb.test_unparse import CORPUS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "corpus.json")
APPS = (WaspMon, AddressBook, Refbase, ZeroCMS)


def _stack(stack):
    return ["%s %r" % (item.kind, item.value) for item in stack]


def _error(exc):
    return "%s %s: %s" % (type(exc).__name__, getattr(exc, "errno", ""),
                          exc)


def describe(sql, charset="utf8", catalog=None):
    """What the corpus pins of one query text."""
    try:
        decoded = charset_mod.decode_query(sql, charset)
        plain, _ = parse_sql(decoded)
        lexed = tokenize(decoded)
        slotted, _ = parse_sql(decoded, lexed, slots=True)
        values = slot_values(lexed.tokens, lexed.slots)
        tags = slot_tags(values)
    except SQLError as exc:
        return {"error": _error(exc)}
    out = []
    for stmt, shared in zip(plain, slotted):
        entry = {"sql": to_sql(stmt), "wal": to_sql(shared, values)}
        try:
            stack = validate(stmt, catalog)
            entry["stack"] = _stack(stack)
            entry["slotted"] = _stack(validate(shared, catalog, tags))
        except SQLError as exc:
            entry["error"] = _error(exc)
        else:
            model = QueryModel.from_structure(
                QueryStructure.from_stack(stack))
            entry["id"] = IdGenerator().internal_id(model)
        out.append(entry)
    return out


class _Recorder(object):
    """Stands where ``PhpRuntime.connection`` stood and describes every
    statement against the catalog it meets."""

    def __init__(self, inner, database, sink):
        self._inner = inner
        self._database = database
        self._sink = sink

    def query(self, sql):
        charset = self._inner.charset
        self._sink.append({
            "text": sql, "charset": charset,
            "statements": describe(sql, charset, self._database.tables),
        })
        return self._inner.query(sql)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _recorded_requests(app):
    if hasattr(app, "workload_requests"):
        return app.workload_requests()
    return app.benign_requests()


def build_corpus():
    database = Database()
    apps = [cls(database) for cls in APPS]
    sink = []
    for app in apps:
        for runtime in vars(app).values():
            if isinstance(runtime, PhpRuntime):
                runtime.connection = _Recorder(runtime.connection, database,
                                               sink)
    for app in apps:
        for request in _recorded_requests(app):
            app.handle(request)
    waspmon = apps[0]
    for case in waspmon_attacks():
        for item in case.requests:
            waspmon.handle(item(waspmon) if callable(item) else item)
    for sql in CORPUS:
        sink.append({"text": sql, "charset": "utf8",
                     "statements": describe(sql)})
    return sink


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


def test_corpus_covers_the_apps_attacks_and_unparse_corpus(golden):
    texts = [entry["text"] for entry in golden]
    assert len(golden) > 120
    assert set(CORPUS) <= set(texts)
    assert {entry["charset"] for entry in golden} == {"utf8", "gbk"}
    kinds = {line.split(" ", 1)[0]
             for entry in golden for stmt in entry["statements"]
             if isinstance(stmt, dict) for line in stmt.get("stack", ())}
    assert {"INSERT_TABLE", "UPDATE_TABLE", "DELETE_TABLE", "CASE_ITEM",
            "SUBSELECT_ITEM", "UNION_ITEM"} <= kinds


def test_stacks_and_texts_match_the_golden_corpus(golden, corpus):
    assert len(corpus) == len(golden)
    for got, want in zip(corpus, golden):
        assert got == want, want["text"]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(build_corpus(), handle, indent=1, ensure_ascii=False)
        handle.write("\n")
