"""Expression evaluation over rows: one closure per AST node.

:func:`compile_expr` turns an expression (the AST, not the item stack —
that is SEPTIC's read-only view) into a closure ``fn(row, ctx)`` with
everything the node fixes already bound: operator and comparison
functions, a ``Param``'s index, a column's row key, an aggregate's
``__agg__`` key, a literal LIKE pattern's regex.  *row* is an env row,
a dict keyed ``alias.column`` (see :mod:`repro.sqldb.plan`); *ctx* the
statement's :class:`EvalContext`.

Plan operators compile their expressions when the planner builds them,
so the closures live in the statement's pipeline-cache entry, shared by
every execution and thread.  Hence the rule: a closure captures what
belongs to the statement's *shape*; what belongs to an execution
(``ctx.params``, session, read view, SLEEP accounting) is read from
*ctx* per call.  :func:`evaluate` is the one-shot form.
"""

import functools
import operator
import re

from repro.sqldb import ast_nodes as ast
from repro.sqldb import functions
from repro.sqldb.errors import ExecutionError
from repro.sqldb.types import (
    coerce_to_number,
    compare,
    is_truthy,
    null_safe_equal,
    render_value,
)

#: env-row key prefix under which ON DUPLICATE KEY UPDATE finds the
#: values the failed insert attempted (what ``VALUES(col)`` reads)
ATTEMPTED_PREFIX = "__values__"


class EvalContext(object):
    """What an expression reads besides its row; one per statement."""

    def __init__(self, database, row=None, executor=None, session=None,
                 params=()):
        self.database = database
        self.row = row or {}
        #: this execution's values vector — what ``Param`` slots of the
        #: (shared, read-only) statement evaluate to
        self.params = params
        #: executor is needed to run subqueries; None forbids them.
        self.executor = executor
        #: the per-connection session (LAST_INSERT_ID, transactions);
        #: defaults to the database's own when not supplied
        if session is None and database is not None:
            session = database.default_session
        self.session = session
        #: accumulated simulated SLEEP() seconds for this statement
        self.sleep_seconds = 0.0
        #: MVCC snapshot the statement reads under (None = latest state,
        #: the DML-target behaviour); set by the executor for SELECTs
        self.read_view = None
        #: the WriteTxn mutating statements install versions under
        self.write_txn = None

    def child(self, row):
        ctx = EvalContext(self.database, row, self.executor, self.session,
                          self.params)
        ctx._parent = self
        ctx.read_view = self.read_view
        ctx.write_txn = self.write_txn
        return ctx

    def record_sleep(self, seconds):
        self.sleep_seconds += seconds
        parent = getattr(self, "_parent", None)
        while parent is not None:
            parent.sleep_seconds += seconds
            parent = getattr(parent, "_parent", None)


def evaluate(node, ctx):
    """Evaluate expression *node* in *ctx* once (nothing is kept)."""
    return compile_expr(node)(ctx.row, ctx)


def compile_expr(node):
    """The closure ``fn(row, ctx)`` that evaluates *node*.  Never
    raises: what cannot be evaluated fails when it is called, as a row
    reaches it."""
    maker = _MAKERS.get(type(node))
    if maker is None:
        return _failing("cannot evaluate %r" % type(node).__name__)
    return maker(node)


def compile_predicate(node):
    """*node* in boolean context: ``fn(row, ctx)`` returns something
    true, something false, or ``None`` for NULL."""
    fn = compile_expr(node)
    if type(node) in _BOOLEAN or (
            type(node) is ast.BinaryOp
            and (node.op in _COMPARISONS or node.op == "<=>")):
        return fn       # 1, 0 or None already
    return lambda row, ctx: is_truthy(fn(row, ctx))


def render_constant(node):
    """How a plan label shows a constant: a literal's value, or ``?N``
    for a slot (the plan is shared; the value belongs to an execution)."""
    if isinstance(node, ast.Param):
        return "?%s" % node.index
    return repr(node.value)


def _agg_key(node):
    """Stable textual key for an aggregate call (executor uses the same)."""
    return repr(node)


def _failing(message):
    def fail(row, ctx):
        raise ExecutionError(message)
    return fail


def _reading(key, message, errno=None):
    """``row[key]``, or the error its absence means."""
    def read(row, ctx):
        try:
            return row[key]
        except KeyError:
            raise ExecutionError(message, errno=errno)
    return read


@functools.lru_cache(maxsize=4096)
def _param(index):
    """The reader of values slot *index* — one per index, not one per
    ``Param`` node: a bulk INSERT is thousands of them, and its cache
    entry would hold a closure for each."""
    def param(row, ctx):
        try:
            value = ctx.params[index]
        except (IndexError, TypeError):
            raise ExecutionError("unbound parameter in expression")
        return value if value.__class__ is not bool else int(value)
    return param


def _literal(node):
    value = node.value
    if node.type_tag == "bool":
        value = 1 if value else 0
    return lambda row, ctx: value


def _column(node):
    name = node.name
    lowered = name.lower()
    if node.table is not None:
        return _reading("%s.%s" % (node.table.lower(), lowered),
                        "Unknown column '%s'" % name, errno=1054)
    suffix = "." + lowered
    # (row width, key) of the last resolution: an operator's rows of
    # one width have one key set, so the name is searched for once, not
    # per row.  The one thing a closure writes — a property of the
    # operator's rows, not of an execution; replaced whole (threads)
    found = (-1, None)

    def unqualified(row, ctx):
        nonlocal found
        width, key = found
        if len(row) == width:
            try:
                return row[key]
            except KeyError:
                pass
        if lowered in row:
            key = lowered
        else:
            # fall back to any qualified match
            matches = [k for k in row if k.endswith(suffix)]
            if len(matches) > 1:
                raise ExecutionError(
                    "Column '%s' in field list is ambiguous" % name)
            if not matches:
                raise ExecutionError("Unknown column '%s'" % name, 1054)
            key = matches[0]
        found = (len(row), key)
        return row[key]
    return unqualified


def _call(node):
    name = node.name
    if functions.is_aggregate(name):
        # Aggregates are computed by the Aggregate operator; by the time
        # a plain row evaluation sees one, its value was precomputed and
        # stored in the row under a synthetic key.
        return _reading("__agg__%s" % _agg_key(node),
                        "Invalid use of group function '%s'" % name)
    args = [compile_expr(arg) for arg in node.args]

    def call(row, ctx):
        return functions.call_scalar(name, [a(row, ctx) for a in args], ctx)
    if name == "VALUES" and len(args) == 1 \
            and isinstance(node.args[0], ast.ColumnRef):
        # ON DUPLICATE KEY UPDATE's accessor; anywhere else the row has
        # no such key and VALUES is the unknown function it always was
        key = ATTEMPTED_PREFIX + node.args[0].name.lower()
        return lambda row, ctx: row[key] if key in row else call(row, ctx)
    return call


def _unary(node):
    operand = compile_expr(node.operand)
    op = node.op

    def unary(row, ctx):
        value = operand(row, ctx)
        if value is None:
            return None
        num = coerce_to_number(value)
        if op == "-":
            return -num
        if op == "~":
            return ~int(num) & 0xFFFFFFFFFFFFFFFF
        raise ExecutionError("unknown unary operator %r" % op)
    return unary


def _divide(a, b):
    return None if b == 0 else a / b    # MySQL: division by zero is NULL


def _integer_divide(a, b):
    if b == 0:
        return None
    # MySQL DIV truncates toward zero; Python's // floors toward
    # -inf, so -7 DIV 2 would come out -4 instead of MySQL's -3
    quotient = abs(a) // abs(b)
    return int(-quotient if (a < 0) != (b < 0) else quotient)


def _modulo(a, b):
    if b == 0:
        return None  # MySQL: MOD by zero yields NULL, like division
    # MySQL MOD takes the sign of the dividend (C semantics);
    # Python's % takes the divisor's: 5 % -3 is MySQL 2, Python -1
    remainder = abs(a) % abs(b)
    return -remainder if a < 0 else remainder


_COMPARISONS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}

#: over two numbers (NULL operands never get here)
_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "DIV": _integer_divide, "%": _modulo,
    "|": lambda a, b: int(a) | int(b),
    "&": lambda a, b: int(a) & int(b),
    "<<": lambda a, b: (int(a) << int(b)) & 0xFFFFFFFFFFFFFFFF,
    ">>": lambda a, b: int(a) >> int(b),
}


def _binary(node):
    left = compile_expr(node.left)
    right = compile_expr(node.right)
    op = node.op
    if op == "<=>":
        return lambda row, ctx: null_safe_equal(left(row, ctx),
                                                right(row, ctx))
    test = _COMPARISONS.get(op)
    if test is not None:
        def comparison(row, ctx):
            cmp = compare(left(row, ctx), right(row, ctx))
            if cmp is None:
                return None
            return 1 if test(cmp, 0) else 0
        return comparison
    apply = _ARITHMETIC.get(op)

    def arithmetic(row, ctx):
        a = left(row, ctx)
        b = right(row, ctx)
        if a is None or b is None:
            return None
        if apply is None:
            raise ExecutionError("unknown operator %r" % op)
        return apply(coerce_to_number(a), coerce_to_number(b))
    return arithmetic


def _cond(node):
    operands = [compile_predicate(operand) for operand in node.operands]
    if node.op in ("AND", "OR"):
        # the operand value that settles it: a false one AND, a true one OR
        settles = node.op == "OR"

        def junction(row, ctx):
            saw_null = False
            for operand in operands:
                value = operand(row, ctx)
                if value is None:
                    saw_null = True
                elif (not value) != settles:
                    return int(settles)
            return None if saw_null else int(not settles)
        return junction
    if node.op == "XOR":
        def exclusive(row, ctx):
            result = 0
            for operand in operands:
                value = operand(row, ctx)
                if value is None:
                    return None
                result ^= 1 if value else 0
            return result
        return exclusive
    return _failing("unknown condition %r" % node.op)


def _not(node):
    operand = compile_predicate(node.operand)

    def negation(row, ctx):
        value = operand(row, ctx)
        if value is None:
            return None
        return 0 if value else 1
    return negation


def _in_list(node):
    expr = compile_expr(node.expr)
    negated = node.negated
    if isinstance(node.items, ast.Subquery):
        select = node.items.select
        items = None
    else:
        items = [compile_expr(item) for item in node.items]

    def membership(row, ctx):
        value = expr(row, ctx)
        if items is None:
            candidates = [found[0]
                          for found in _run_subquery(select, row, ctx)]
        else:
            candidates = [item(row, ctx) for item in items]
        if value is None:
            return None
        found = any(
            c is not None and compare(value, c) == 0 for c in candidates
        )
        if not found and any(c is None for c in candidates):
            return None
        result = not found if negated else found
        return 1 if result else 0
    return membership


def _between(node):
    expr = compile_expr(node.expr)
    low_of = compile_expr(node.low)
    high_of = compile_expr(node.high)
    negated = node.negated

    def between(row, ctx):
        value = expr(row, ctx)
        low = low_of(row, ctx)
        high = high_of(row, ctx)
        if value is None or low is None or high is None:
            return None
        result = compare(value, low) >= 0 and compare(value, high) <= 0
        return 1 if result != negated else 0
    return between


def _is_null(node):
    expr = compile_expr(node.expr)
    negated = node.negated
    return lambda row, ctx: 1 if (expr(row, ctx) is None) != negated else 0


def _like(node):
    expr = compile_expr(node.expr)
    pattern_of = compile_expr(node.pattern)
    negated = node.negated
    regexp = node.op == "REGEXP"
    fixed = None
    if not regexp and isinstance(node.pattern, ast.Literal) \
            and node.pattern.type_tag == "string":
        fixed = _like_regex(node.pattern.value)

    def like(row, ctx):
        value = expr(row, ctx)
        pattern = pattern_of(row, ctx)
        if value is None or pattern is None:
            return None
        text = str(value)
        if regexp:
            pat = str(pattern)
            try:
                result = re.search(pat, text, re.IGNORECASE) is not None
            except re.error:
                raise ExecutionError("Got error from regexp: %r" % pat)
        else:
            result = (fixed or _like_regex(str(pattern))).match(text) \
                is not None
        return 1 if result != negated else 0
    return like


@functools.lru_cache(maxsize=512)
def _like_regex(pattern):
    """The compiled regex of a LIKE pattern: a statement applies one
    pattern to every row, an application a handful to every request."""
    return re.compile(_like_to_regex(pattern), re.IGNORECASE | re.DOTALL)


def _like_to_regex(pattern):
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\" and i + 1 < len(pattern) and pattern[i + 1] in "%_":
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return "".join(out) + r"\Z"


def _case(node):
    default = compile_expr(node.default) if node.default is not None \
        else lambda row, ctx: None
    if node.operand is not None:
        operand = compile_expr(node.operand)
        whens = [(compile_expr(cond), compile_expr(result))
                 for cond, result in node.whens]

        def simple_case(row, ctx):
            subject = operand(row, ctx)
            for cond, result in whens:
                candidate = cond(row, ctx)
                if subject is not None and candidate is not None and \
                        compare(subject, candidate) == 0:
                    return result(row, ctx)
            return default(row, ctx)
        return simple_case
    whens = [(compile_predicate(cond), compile_expr(result))
             for cond, result in node.whens]

    def searched_case(row, ctx):
        for cond, result in whens:
            if cond(row, ctx):
                return result(row, ctx)
        return default(row, ctx)
    return searched_case


def _cast(node):
    expr = compile_expr(node.expr)
    type_name = node.type_name

    def cast(row, ctx):
        value = expr(row, ctx)
        if value is None:
            return None
        if type_name in ("SIGNED", "UNSIGNED", "INT", "INTEGER", "BIGINT",
                         "SMALLINT", "TINYINT"):
            number = int(coerce_to_number(value))
            if type_name == "UNSIGNED" and number < 0:
                number += 1 << 64  # MySQL's unsigned wraparound
            return number
        if type_name in ("FLOAT", "DOUBLE", "DECIMAL"):
            return float(coerce_to_number(value))
        if type_name in ("CHAR", "VARCHAR", "TEXT", "DATETIME", "DATE"):
            return render_value(value)
        raise ExecutionError("cannot CAST to %s" % type_name)
    return cast


def _run_subquery(select, row, ctx):
    """Rows of a subquery under outer row *row* — the one place a row
    gets a context of its own (the inner statement's outer context)."""
    if ctx.executor is None:
        raise ExecutionError("subqueries not allowed in this context")
    return ctx.executor.run_select_rows(select, outer_ctx=ctx.child(row))


def _scalar_subquery(node):
    select = node.select

    def scalar(row, ctx):
        rows = _run_subquery(select, row, ctx)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError("Subquery returns more than 1 row",
                                 errno=1242)
        if len(rows[0]) != 1:
            raise ExecutionError("Operand should contain 1 column(s)",
                                 errno=1241)
        return rows[0][0]
    return scalar


def _exists(node):
    select = node.select
    negated = node.negated
    return lambda row, ctx: \
        1 if bool(_run_subquery(select, row, ctx)) != negated else 0


#: node class -> closure maker (constant; closures themselves belong to
#: whoever compiled them — a plan node, or evaluate()'s caller)
_MAKERS = {
    ast.Param: lambda node: _param(node.index), ast.Literal: _literal, ast.ColumnRef: _column,
    ast.FuncCall: _call, ast.UnaryOp: _unary, ast.BinaryOp: _binary,
    ast.Cond: _cond, ast.Not: _not, ast.InList: _in_list,
    ast.Between: _between, ast.IsNull: _is_null, ast.Like: _like,
    ast.Case: _case, ast.Cast: _cast, ast.Subquery: _scalar_subquery,
    ast.Exists: _exists,
    ast.Star: lambda node: _failing("'*' not allowed in this context"),
}

#: node classes whose closures return 1, 0 or None (see compile_predicate)
_BOOLEAN = frozenset([ast.Cond, ast.Not, ast.InList, ast.Between,
                      ast.IsNull, ast.Like, ast.Exists])
