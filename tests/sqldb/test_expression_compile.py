"""Compiled expressions against the interpreter they replaced.

``repro.sqldb.expression.compile_expr`` turns an AST into closures;
``tests/sqldb/reference_eval.py`` is the tree-walking evaluator the
engine used until then, kept as the oracle.  Hypothesis builds
expression trees of every node kind over rows with NULLs, numeric
strings, confusable and case-folded strings, bools and floats; whatever
the reference does with one — a value, an ``ExecutionError`` with its
errno and message, any other exception — the compiled closure must do
too, as a value, as a predicate and through one-shot ``evaluate``, on
the first row and on the ones after it.  Column resolution, the one
place a closure remembers something, gets its cases by hand.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqldb import ast_nodes as ast
from repro.sqldb.errors import ExecutionError
from repro.sqldb.expression import (
    EvalContext, _agg_key, compile_expr, compile_predicate, evaluate,
)
from repro.sqldb.types import is_truthy

from tests.sqldb import reference_eval

AGGREGATE = ast.FuncCall("COUNT", [ast.Star()])
ROW_KEYS = ("t.a", "t.b", "u.b", "u.c", "__agg__%s" % _agg_key(AGGREGATE))

#: NULLs, bools, ints of both signs, floats, numeric strings, strings
#: that differ by case or by a confusable only, LIKE metacharacters
POOL = [None, True, False, 0, 1, -1, 2, 7, -12, 40, 0.0, -0.5, 1.5, 2.0,
        7.25, 1e3, "1abc", "12", " 7", "-3.5e1x", "", ".", "abc", "0",
        "1e2", "+4", "Alice", "ALICE", "alice", "aliçe", "ａlice",
        "OʼBrien", "O'Brien", "a%c", "a_c", "50%", "x(1)", "naïve", "ÜNÏ"]
VALUES = st.sampled_from(POOL)


def _literal(value):
    if value is None:
        return ast.Literal(None, "null")
    tag = {bool: "bool", int: "int", float: "float", str: "string"}
    return ast.Literal(value, tag[type(value)])


LEAVES = st.one_of(
    VALUES.map(_literal),
    st.integers(0, 3).map(ast.Param),          # 3 is unbound
    st.sampled_from([
        ast.ColumnRef("a", "t"), ast.ColumnRef("B", "T"),
        ast.ColumnRef("c", "u"), ast.ColumnRef("a"), ast.ColumnRef("C"),
        ast.ColumnRef("b"),                     # ambiguous: t.b and u.b
        ast.ColumnRef("zzz"), ast.ColumnRef("a", "u"),      # unknown
        AGGREGATE, ast.FuncCall("SUM", [ast.ColumnRef("a")]),  # no key
        ast.Star(), ast.Subquery("scalar"), ast.Subquery("many"),
        ast.Subquery("wide"), ast.Subquery("none"),
        ast.Exists("many"), ast.Exists("none", negated=True),
    ]),
)

#: right operands of a shift: small, or the shift never returns
SHIFTS = st.integers(-1, 70).map(_literal)


def _branches(children):
    """One strategy per way of building a node over *children*."""
    pairs = st.tuples(children, children)
    return {
        "unary": st.tuples(st.sampled_from(["-", "~", "!"]), children).map(
            lambda t: ast.UnaryOp(*t)),
        "comparison": st.tuples(st.sampled_from(
            ["=", "!=", "<", ">", "<=", ">=", "<=>"]), children,
            children).map(lambda t: ast.BinaryOp(*t)),
        "arithmetic": st.tuples(st.sampled_from(
            ["+", "-", "*", "/", "DIV", "%", "|", "&", "**"]), children,
            children).map(lambda t: ast.BinaryOp(*t)),
        "shift": st.tuples(st.sampled_from(["<<", ">>"]), children,
                           SHIFTS).map(lambda t: ast.BinaryOp(*t)),
        "cond": st.tuples(st.sampled_from(["AND", "OR", "XOR", "NAND"]),
                          st.lists(children, min_size=1, max_size=3)).map(
            lambda t: ast.Cond(*t)),
        "not": children.map(ast.Not),
        "in": st.tuples(children, st.lists(children, max_size=3),
                        st.booleans()).map(lambda t: ast.InList(*t)),
        "in subquery": st.tuples(
            children, st.sampled_from(["many", "none"]),
            st.booleans()).map(
            lambda t: ast.InList(t[0], ast.Subquery(t[1]), t[2])),
        "between": st.tuples(children, children, children,
                             st.booleans()).map(lambda t: ast.Between(*t)),
        "is null": st.tuples(children, st.booleans()).map(
            lambda t: ast.IsNull(*t)),
        "like": st.tuples(children, children, st.booleans(),
                          st.sampled_from(["LIKE", "REGEXP"])).map(
            lambda t: ast.Like(*t)),
        "like literal": st.tuples(children, st.sampled_from(
            ["a%", "%C", "_lice", "50\\%", "^a", "(", "x(%)", "", None]),
            st.booleans(), st.sampled_from(["LIKE", "REGEXP"])).map(
            lambda t: ast.Like(t[0], _literal(t[1]), t[2], t[3])),
        "case": st.tuples(st.lists(pairs, min_size=1, max_size=2),
                          st.one_of(st.none(), children),
                          st.one_of(st.none(), children)).map(
            lambda t: ast.Case(operand=t[1], whens=t[0], default=t[2])),
        "cast": st.tuples(children, st.sampled_from(
            ["SIGNED", "UNSIGNED", "INT", "DECIMAL", "DOUBLE", "CHAR",
             "DATE", "BLOB"])).map(lambda t: ast.Cast(*t)),
        "call": st.tuples(st.sampled_from(
            ["CONCAT", "UPPER", "ABS", "IFNULL", "COALESCE", "LENGTH",
             "IF", "SLEEP", "NO_SUCH_FN", "VALUES"]),
            st.lists(children, max_size=3)).map(
            lambda t: ast.FuncCall(*t)),
    }


def _nodes(children):
    return st.one_of(*_branches(children).values())


#: what a node under test is built over: leaves, and trees of one or
#: two more levels
SUBTREES = st.one_of(
    LEAVES, _nodes(LEAVES), _nodes(st.one_of(LEAVES, _nodes(LEAVES))))
KINDS = sorted(_branches(LEAVES))


def _pools(seed=20261001, rows=40):
    """Fixed pools of rows and values vectors, so that an example's
    entropy goes into its tree."""
    rng = random.Random(seed)
    return ([{key: rng.choice(POOL) for key in ROW_KEYS}
             for _ in range(rows)],
            [tuple(rng.choice(POOL) for _ in range(3)) for _ in range(rows)])


ROW_POOL, PARAM_POOL = _pools()
ROWS = st.lists(st.sampled_from(ROW_POOL), min_size=1, max_size=3)
PARAMS = st.sampled_from(PARAM_POOL)


class _Subqueries(object):
    """Stands where the executor stands: a subquery's rows depend on
    its name and — correlated — on the outer row it is handed."""

    def __init__(self):
        self.calls = []

    def run_select_rows(self, select, outer_ctx=None):
        outer = outer_ctx.row
        self.calls.append((select, dict(outer)))
        if select == "none":
            return []
        if select == "scalar":
            return [(outer.get("t.a"),)]
        if select == "wide":
            return [(1, 2)]
        return [(outer.get("t.a"),), (None,), ("alice",)]


def _context(row, params):
    return EvalContext(None, row=row, executor=_Subqueries(), params=params)


def _outcome(call):
    """What *call* did, in a form two evaluators can be compared by:
    1, 1.0 and True are three outcomes."""
    try:
        value = call()
    except ExecutionError as exc:
        return ("sql error", exc.errno, exc.message)
    except Exception as exc:     # the interpreter let these through too
        return ("error", type(exc).__name__, str(exc))
    return ("value", type(value).__name__, value)


def _truth(outcome):
    if outcome[0] != "value":
        return outcome
    truth = is_truthy(outcome[2])
    return ("truth", truth if truth is None else bool(truth))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compiled_matches_the_reference(kind, data):
    node = data.draw(_branches(SUBTREES)[kind])
    rows = data.draw(ROWS)
    params = data.draw(PARAMS)
    compiled = compile_expr(node)
    predicate = compile_predicate(node)
    for row in rows:
        oracle = _context(row, params)
        expected = _outcome(lambda: reference_eval.evaluate(node, oracle))
        # the closure takes the row as an argument: the context it gets
        # holds a decoy, the way a statement's one context does
        ctx = _context({"t.a": "decoy"}, params)
        assert _outcome(lambda: compiled(row, ctx)) == expected
        assert ctx.sleep_seconds == oracle.sleep_seconds
        assert ctx.executor.calls == oracle.executor.calls
        ctx = _context({"t.a": "decoy"}, params)
        got = _outcome(lambda: predicate(row, ctx))
        if got[0] == "value":
            got = ("truth", got[2] if got[2] is None else bool(got[2]))
        assert got == _truth(expected)
        ctx = _context(row, params)
        assert _outcome(lambda: evaluate(node, ctx)) == expected
        assert ctx.sleep_seconds == oracle.sleep_seconds


def _agree(node, row=None, params=()):
    expected = _outcome(lambda: reference_eval.evaluate(
        node, _context(row or {}, params)))
    assert _outcome(lambda: compile_expr(node)(
        row or {}, _context({}, params))) == expected, node
    return expected


def test_every_operator_over_every_pair_of_values():
    """The sign rules of DIV and MOD, coercion in comparisons, NULLs:
    exhaustively over the value pool, not left to chance."""
    pool = [None, True, False, 0, 1, -1, 2, -7, 40, 0.0, -0.5, 2.5, "1abc",
            "-3", " 7", "", "abc", "Alice", "ALICE", "ａlice", "OʼBrien",
            "O'Brien"]
    ops = ["=", "!=", "<", ">", "<=", ">=", "<=>", "+", "-", "*", "/",
           "DIV", "%", "|", "&", "<<", ">>"]
    seen = set()
    for left in pool:
        for right in pool:
            for op in ops:
                if op in ("<<", ">>") and right in ("-3", -7, -1, -0.5):
                    continue    # a negative shift count: ValueError in both
                seen.add(_agree(ast.BinaryOp(op, ast.ColumnRef("l"),
                                             ast.Param(0)),
                                {"t.l": left}, (right,))[:2])
            _agree(ast.Between(_literal(left), ast.Param(0),
                               ast.Literal(2, "int")), None, (right,))
            _agree(ast.InList(_literal(left),
                              [ast.Param(0), ast.Literal(None, "null")],
                              negated=True), None, (right,))
            _agree(ast.Like(_literal(left), ast.Param(0)), None, (right,))
        for op in ("-", "~"):
            _agree(ast.UnaryOp(op, _literal(left)))
        for type_name in ("SIGNED", "UNSIGNED", "DECIMAL", "CHAR"):
            _agree(ast.Cast(_literal(left), type_name))
    assert {("value", "int"), ("value", "float"),
            ("value", "NoneType")} <= seen
    # the cases the sign comments in the evaluator name
    assert _agree(ast.BinaryOp("DIV", ast.Literal(-7, "int"),
                               ast.Literal(2, "int"))) == ("value", "int", -3)
    assert _agree(ast.BinaryOp("%", ast.Literal(5, "int"),
                               ast.Literal(-3, "int"))) == ("value", "int", 2)
    assert _agree(ast.Cast(ast.Literal(-1, "int"), "UNSIGNED")) == (
        "value", "int", (1 << 64) - 1)


# -- column resolution --------------------------------------------------------

def _both(node, row):
    """``(compiled, reference)`` outcomes of *node* over *row*."""
    return (_outcome(lambda: compile_expr(node)(row, _context({}, ()))),
            _outcome(lambda: reference_eval.evaluate(
                node, _context(row, ()))))


class TestColumnResolution(object):
    def test_qualified(self):
        row = {"t.a": 5, "u.a": 6}
        assert _both(ast.ColumnRef("A", "T"), row) == (("value", "int", 5),) * 2
        got, expected = _both(ast.ColumnRef("Zed", "t"), row)
        assert got == expected == ("sql error", 1054, "Unknown column 'Zed'")

    def test_unqualified_unique_and_plain(self):
        assert _both(ast.ColumnRef("A"), {"t.a": 5, "t.b": 6}) == (
            ("value", "int", 5),) * 2
        # a row keyed by plain name wins over a qualified match
        assert _both(ast.ColumnRef("a"), {"a": 1, "t.a": 5}) == (
            ("value", "int", 1),) * 2

    def test_ambiguous_and_unknown(self):
        got, expected = _both(ast.ColumnRef("Id"), {"t.id": 1, "u.id": 2})
        assert got == expected == (
            "sql error", 1105, "Column 'Id' in field list is ambiguous")
        got, expected = _both(ast.ColumnRef("Nope"), {"t.id": 1})
        assert got == expected == ("sql error", 1054, "Unknown column 'Nope'")

    def test_one_node_under_two_operators(self):
        """Two operators compile the same node; each closure finds the
        name among its own operator's keys."""
        node = ast.BinaryOp("+", ast.ColumnRef("v"), ast.Literal(1, "int"))
        under_scan = compile_expr(node)
        under_join = compile_expr(node)
        ctx = _context({}, ())
        for value in range(3):
            assert under_scan({"kv.k": 0, "kv.v": value}, ctx) == value + 1
            assert under_join({"a.k": 0, "b.v": value * 10, "b.w": 1},
                              ctx) == value * 10 + 1

    def test_what_a_closure_remembers_is_checked_against_the_row(self):
        """The remembered key serves rows of the width it was found in;
        a row that lacks it, or is wider, is searched again."""
        node = ast.ColumnRef("a")
        column = compile_expr(node)
        ctx = _context({}, ())
        rows = [{"t.a": 1, "t.b": 0}, {"t.a": 2, "t.b": 0},
                {"u.a": 3, "t.b": 0},                   # same width, other key
                {"t.a": 4, "u.a": 5, "t.b": 0},         # wider: ambiguous
                {"t.b": 0, "t.c": 0},                   # gone
                {"t.a": 6, "t.b": 0}]
        for row in rows:
            assert _outcome(lambda: column(row, ctx)) == _outcome(
                lambda: reference_eval.evaluate(node, _context(row, ())))

    def test_nothing_is_raised_before_a_row_arrives(self):
        """A plan over no rows never evaluates its expressions: what is
        wrong with one surfaces when it is called, not when compiled."""
        for node in (ast.Star(), ast.BinaryOp("**", ast.Star(), ast.Star()),
                     ast.Cast(ast.Star(), "BLOB"), ast.Cond("NAND", []),
                     ast.Like(ast.Star(), ast.Literal("(", "string"),
                              False, "REGEXP"), "not a node"):
            fn = compile_expr(node)
            with pytest.raises(ExecutionError):
                fn({}, _context({}, ()))


def test_values_accessor_reads_the_attempted_insert():
    """``VALUES(col)`` finds what ON DUPLICATE KEY UPDATE put in the
    env row, and is the unknown function it always was without it."""
    from repro.sqldb.expression import ATTEMPTED_PREFIX

    node = ast.BinaryOp("+", ast.FuncCall("VALUES", [ast.ColumnRef("N")]),
                        ast.ColumnRef("n"))
    fn = compile_expr(node)
    ctx = _context({}, ())
    assert fn({"t.n": 1, ATTEMPTED_PREFIX + "n": 41}, ctx) == 42
    with pytest.raises(ExecutionError) as caught:
        fn({"t.n": 1}, ctx)
    assert caught.value.errno == 1305
