"""The tree-walking evaluator the engine had before expressions were
compiled — the test oracle for :func:`repro.sqldb.expression.compile_expr`.

``evaluate`` and its helpers below are that interpreter's body, moved
here verbatim (``EvalContext.lookup`` rides along as :func:`_lookup`,
its ``self`` being the context).  Test-only: nothing under ``src/``
imports it, and it must not learn anything from the compiler — it
shares with it only what neither of them defines (value semantics in
``repro.sqldb.types``, the scalar function registry, the LIKE-pattern
translation).
"""

import re

from repro.sqldb import ast_nodes as ast
from repro.sqldb import functions
from repro.sqldb.errors import ExecutionError
from repro.sqldb.expression import _agg_key, _like_regex
from repro.sqldb.types import (
    coerce_to_number,
    compare,
    is_truthy,
    null_safe_equal,
)


def _lookup(self, name, table=None):
    key = "%s.%s" % (table.lower(), name.lower()) if table else name.lower()
    if key in self.row:
        return self.row[key]
    if table is None:
        # fall back to any qualified match
        suffix = "." + name.lower()
        matches = [k for k in self.row if k.endswith(suffix)]
        if len(matches) == 1:
            return self.row[matches[0]]
        if len(matches) > 1:
            raise ExecutionError(
                "Column '%s' in field list is ambiguous" % name
            )
    raise ExecutionError("Unknown column '%s'" % name, errno=1054)


def evaluate(node, ctx):
    """Evaluate expression *node* in *ctx*, returning a Python value."""
    if isinstance(node, ast.Param):
        # first: with the pipeline cache on, a statement's data
        # constants are slots, and filters read them once per row
        try:
            value = ctx.params[node.index]
        except (IndexError, TypeError):
            raise ExecutionError("unbound parameter in expression")
        return value if value.__class__ is not bool else int(value)
    if isinstance(node, ast.Literal):
        if node.type_tag == "bool":
            return 1 if node.value else 0
        return node.value
    if isinstance(node, ast.ColumnRef):
        return _lookup(ctx, node.name, node.table)
    if isinstance(node, ast.FuncCall):
        if functions.is_aggregate(node.name):
            # Aggregates are computed by the executor; by the time a plain
            # row evaluation sees one, its value was precomputed and stored
            # in the row under a synthetic key.
            key = "__agg__%s" % _agg_key(node)
            if key in ctx.row:
                return ctx.row[key]
            raise ExecutionError(
                "Invalid use of group function '%s'" % node.name
            )
        args = [evaluate(arg, ctx) for arg in node.args]
        return functions.call_scalar(node.name, args, ctx)
    if isinstance(node, ast.UnaryOp):
        value = evaluate(node.operand, ctx)
        if value is None:
            return None
        num = coerce_to_number(value)
        if node.op == "-":
            return -num
        if node.op == "~":
            return ~int(num) & 0xFFFFFFFFFFFFFFFF
        raise ExecutionError("unknown unary operator %r" % node.op)
    if isinstance(node, ast.BinaryOp):
        return _binary(node, ctx)
    if isinstance(node, ast.Cond):
        return _cond(node, ctx)
    if isinstance(node, ast.Not):
        value = is_truthy(evaluate(node.operand, ctx))
        if value is None:
            return None
        return 0 if value else 1
    if isinstance(node, ast.InList):
        return _in_list(node, ctx)
    if isinstance(node, ast.Between):
        value = evaluate(node.expr, ctx)
        low = evaluate(node.low, ctx)
        high = evaluate(node.high, ctx)
        if value is None or low is None or high is None:
            return None
        result = compare(value, low) >= 0 and compare(value, high) <= 0
        if node.negated:
            result = not result
        return 1 if result else 0
    if isinstance(node, ast.IsNull):
        result = evaluate(node.expr, ctx) is None
        if node.negated:
            result = not result
        return 1 if result else 0
    if isinstance(node, ast.Like):
        return _like(node, ctx)
    if isinstance(node, ast.Case):
        return _case(node, ctx)
    if isinstance(node, ast.Cast):
        return _cast(node, ctx)
    if isinstance(node, ast.Subquery):
        return _scalar_subquery(node.select, ctx)
    if isinstance(node, ast.Exists):
        rows = _run_subquery(node.select, ctx)
        result = bool(rows)
        if node.negated:
            result = not result
        return 1 if result else 0
    if isinstance(node, ast.Star):
        raise ExecutionError("'*' not allowed in this context")
    raise ExecutionError("cannot evaluate %r" % type(node).__name__)


def _binary(node, ctx):
    op = node.op
    left = evaluate(node.left, ctx)
    right = evaluate(node.right, ctx)
    if op == "<=>":
        return null_safe_equal(left, right)
    if op in ("=", "!=", "<", ">", "<=", ">="):
        cmp = compare(left, right)
        if cmp is None:
            return None
        result = {
            "=": cmp == 0,
            "!=": cmp != 0,
            "<": cmp < 0,
            ">": cmp > 0,
            "<=": cmp <= 0,
            ">=": cmp >= 0,
        }[op]
        return 1 if result else 0
    if left is None or right is None:
        return None
    a = coerce_to_number(left)
    b = coerce_to_number(right)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            return None  # MySQL: division by zero yields NULL
        return a / b
    if op == "DIV":
        if b == 0:
            return None
        # MySQL DIV truncates toward zero; Python's // floors toward
        # -inf, so -7 DIV 2 would come out -4 instead of MySQL's -3
        quotient = abs(a) // abs(b)
        return int(-quotient if (a < 0) != (b < 0) else quotient)
    if op == "%":
        if b == 0:
            return None  # MySQL: MOD by zero yields NULL, like division
        # MySQL MOD takes the sign of the dividend (C semantics);
        # Python's % takes the divisor's: 5 % -3 is MySQL 2, Python -1
        remainder = abs(a) % abs(b)
        return -remainder if a < 0 else remainder
    if op == "|":
        return int(a) | int(b)
    if op == "&":
        return int(a) & int(b)
    if op == "<<":
        return (int(a) << int(b)) & 0xFFFFFFFFFFFFFFFF
    if op == ">>":
        return int(a) >> int(b)
    raise ExecutionError("unknown operator %r" % op)


def _cond(node, ctx):
    if node.op == "AND":
        saw_null = False
        for operand in node.operands:
            value = is_truthy(evaluate(operand, ctx))
            if value is None:
                saw_null = True
            elif not value:
                return 0
        return None if saw_null else 1
    if node.op == "OR":
        saw_null = False
        for operand in node.operands:
            value = is_truthy(evaluate(operand, ctx))
            if value is None:
                saw_null = True
            elif value:
                return 1
        return None if saw_null else 0
    if node.op == "XOR":
        result = 0
        for operand in node.operands:
            value = is_truthy(evaluate(operand, ctx))
            if value is None:
                return None
            result ^= 1 if value else 0
        return result
    raise ExecutionError("unknown condition %r" % node.op)


def _in_list(node, ctx):
    value = evaluate(node.expr, ctx)
    if isinstance(node.items, ast.Subquery):
        rows = _run_subquery(node.items.select, ctx)
        candidates = [row[0] for row in rows]
    else:
        candidates = [evaluate(item, ctx) for item in node.items]
    if value is None:
        return None
    found = any(
        c is not None and compare(value, c) == 0 for c in candidates
    )
    if not found and any(c is None for c in candidates):
        return None
    result = not found if node.negated else found
    return 1 if result else 0


def _like(node, ctx):
    value = evaluate(node.expr, ctx)
    pattern = evaluate(node.pattern, ctx)
    if value is None or pattern is None:
        return None
    text = str(value)
    pat = str(pattern)
    if node.op == "REGEXP":
        try:
            result = re.search(pat, text, re.IGNORECASE) is not None
        except re.error:
            raise ExecutionError("Got error from regexp: %r" % pat)
    else:
        result = _like_regex(pat).match(text) is not None
    if node.negated:
        result = not result
    return 1 if result else 0


def _case(node, ctx):
    if node.operand is not None:
        subject = evaluate(node.operand, ctx)
        for cond, result in node.whens:
            candidate = evaluate(cond, ctx)
            if subject is not None and candidate is not None and \
                    compare(subject, candidate) == 0:
                return evaluate(result, ctx)
    else:
        for cond, result in node.whens:
            if is_truthy(evaluate(cond, ctx)):
                return evaluate(result, ctx)
    if node.default is not None:
        return evaluate(node.default, ctx)
    return None


def _cast(node, ctx):
    value = evaluate(node.expr, ctx)
    if value is None:
        return None
    type_name = node.type_name
    if type_name in ("SIGNED", "UNSIGNED", "INT", "INTEGER", "BIGINT",
                     "SMALLINT", "TINYINT"):
        number = int(coerce_to_number(value))
        if type_name == "UNSIGNED" and number < 0:
            number += 1 << 64  # MySQL's unsigned wraparound
        return number
    if type_name in ("FLOAT", "DOUBLE", "DECIMAL"):
        return float(coerce_to_number(value))
    if type_name in ("CHAR", "VARCHAR", "TEXT", "DATETIME", "DATE"):
        from repro.sqldb.types import render_value
        return render_value(value)
    raise ExecutionError("cannot CAST to %s" % type_name)


def _run_subquery(select, ctx):
    if ctx.executor is None:
        raise ExecutionError("subqueries not allowed in this context")
    return ctx.executor.run_select_rows(select, outer_ctx=ctx)


def _scalar_subquery(select, ctx):
    rows = _run_subquery(select, ctx)
    if not rows:
        return None
    if len(rows) > 1:
        raise ExecutionError("Subquery returns more than 1 row", errno=1242)
    if len(rows[0]) != 1:
        raise ExecutionError("Operand should contain 1 column(s)", errno=1241)
    return rows[0][0]
