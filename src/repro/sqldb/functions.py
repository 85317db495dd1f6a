"""Builtin SQL function registry (scalar functions and aggregates).

Scalar functions receive already-evaluated Python values and return Python
values (``None`` is SQL NULL).  ``SLEEP`` is special-cased: it does not
block, it *records* the requested delay on the evaluation context so the
BenchLab simulator can account for it — this is how time-based blind SQLI
payloads remain observable without real sleeping.
"""

import hashlib

from repro.sqldb.errors import ExecutionError
from repro.sqldb.types import coerce_to_number, render_value

# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _as_text(value):
    if value is None:
        return None
    return render_value(value)


def _fn_concat(args):
    if any(a is None for a in args):
        return None
    return "".join(_as_text(a) for a in args)


def _fn_concat_ws(args):
    if not args or args[0] is None:
        return None
    sep = _as_text(args[0])
    return sep.join(_as_text(a) for a in args[1:] if a is not None)


def _fn_length(args):
    return None if args[0] is None else len(_as_text(args[0]).encode("utf-8"))


def _fn_char_length(args):
    return None if args[0] is None else len(_as_text(args[0]))


def _fn_upper(args):
    return None if args[0] is None else _as_text(args[0]).upper()


def _fn_lower(args):
    return None if args[0] is None else _as_text(args[0]).lower()


def _fn_substring(args):
    if args[0] is None:
        return None
    text = _as_text(args[0])
    start = int(coerce_to_number(args[1]))
    if start == 0:
        return ""
    if start < 0:
        start = len(text) + start + 1
        if start < 1:
            return ""
    begin = start - 1
    if len(args) >= 3:
        count = int(coerce_to_number(args[2]))
        if count <= 0:
            return ""
        return text[begin : begin + count]
    return text[begin:]


def _fn_trim(args):
    return None if args[0] is None else _as_text(args[0]).strip()


def _fn_ltrim(args):
    return None if args[0] is None else _as_text(args[0]).lstrip()


def _fn_rtrim(args):
    return None if args[0] is None else _as_text(args[0]).rstrip()


def _fn_replace(args):
    if any(a is None for a in args[:3]):
        return None
    return _as_text(args[0]).replace(_as_text(args[1]), _as_text(args[2]))


def _fn_ascii(args):
    if args[0] is None:
        return None
    text = _as_text(args[0])
    return ord(text[0]) if text else 0


def _fn_char(args):
    return "".join(chr(int(coerce_to_number(a))) for a in args if a is not None)


def _fn_hex(args):
    if args[0] is None:
        return None
    value = args[0]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return format(int(value), "X")
    return _as_text(value).encode("utf-8").hex().upper()


def _fn_unhex(args):
    if args[0] is None:
        return None
    try:
        return bytes.fromhex(_as_text(args[0])).decode("utf-8", "replace")
    except ValueError:
        return None


def _fn_md5(args):
    if args[0] is None:
        return None
    return hashlib.md5(_as_text(args[0]).encode("utf-8")).hexdigest()


def _fn_sha1(args):
    if args[0] is None:
        return None
    return hashlib.sha1(_as_text(args[0]).encode("utf-8")).hexdigest()


def _fn_abs(args):
    return None if args[0] is None else abs(coerce_to_number(args[0]))


def _fn_round(args):
    if args[0] is None:
        return None
    digits = int(coerce_to_number(args[1])) if len(args) > 1 else 0
    result = round(float(coerce_to_number(args[0])), digits)
    return int(result) if digits <= 0 else result


def _fn_floor(args):
    import math
    return None if args[0] is None else math.floor(coerce_to_number(args[0]))


def _fn_ceiling(args):
    import math
    return None if args[0] is None else math.ceil(coerce_to_number(args[0]))


def _fn_mod(args):
    a = coerce_to_number(args[0])
    b = coerce_to_number(args[1])
    if a is None or b is None or b == 0:
        return None
    # MySQL MOD takes the sign of the dividend (C semantics), same as
    # the % operator; Python's % takes the divisor's
    remainder = abs(a) % abs(b)
    return -remainder if a < 0 else remainder


def _fn_pow(args):
    if args[0] is None or args[1] is None:
        return None
    return float(coerce_to_number(args[0])) ** float(coerce_to_number(args[1]))


def _fn_if(args):
    from repro.sqldb.types import is_truthy
    return args[1] if is_truthy(args[0]) else args[2]


def _fn_ifnull(args):
    return args[1] if args[0] is None else args[0]


def _fn_nullif(args):
    from repro.sqldb.types import compare
    if args[0] is not None and args[1] is not None and \
            compare(args[0], args[1]) == 0:
        return None
    return args[0]


def _fn_coalesce(args):
    for value in args:
        if value is not None:
            return value
    return None


def _fn_greatest(args):
    if any(a is None for a in args):
        return None
    return max(args, key=coerce_to_number)


def _fn_least(args):
    if any(a is None for a in args):
        return None
    return min(args, key=coerce_to_number)


def _fn_left(args):
    if args[0] is None or args[1] is None:
        return None
    count = int(coerce_to_number(args[1]))
    return _as_text(args[0])[: max(count, 0)]


def _fn_right(args):
    if args[0] is None or args[1] is None:
        return None
    count = int(coerce_to_number(args[1]))
    if count <= 0:
        return ""
    return _as_text(args[0])[-count:]


def _fn_lpad(args):
    if any(a is None for a in args[:3]):
        return None
    text = _as_text(args[0])
    length = int(coerce_to_number(args[1]))
    pad = _as_text(args[2])
    if length <= len(text):
        return text[:length]
    if not pad:
        return None
    needed = length - len(text)
    return (pad * needed)[:needed] + text


def _fn_rpad(args):
    if any(a is None for a in args[:3]):
        return None
    text = _as_text(args[0])
    length = int(coerce_to_number(args[1]))
    pad = _as_text(args[2])
    if length <= len(text):
        return text[:length]
    if not pad:
        return None
    needed = length - len(text)
    return text + (pad * needed)[:needed]


def _fn_repeat(args):
    if args[0] is None or args[1] is None:
        return None
    return _as_text(args[0]) * max(int(coerce_to_number(args[1])), 0)


def _fn_reverse(args):
    return None if args[0] is None else _as_text(args[0])[::-1]


def _fn_instr(args):
    if args[0] is None or args[1] is None:
        return None
    return _as_text(args[0]).lower().find(_as_text(args[1]).lower()) + 1


def _fn_locate(args):
    # LOCATE(needle, haystack[, start]) — argument order flipped vs INSTR
    if args[0] is None or args[1] is None:
        return None
    needle = _as_text(args[0]).lower()
    haystack = _as_text(args[1]).lower()
    start = int(coerce_to_number(args[2])) - 1 if len(args) > 2 else 0
    return haystack.find(needle, max(start, 0)) + 1


def _fn_strcmp(args):
    from repro.sqldb.types import compare
    if args[0] is None or args[1] is None:
        return None
    return compare(_as_text(args[0]), _as_text(args[1]))


def _fn_space(args):
    if args[0] is None:
        return None
    return " " * max(int(coerce_to_number(args[0])), 0)


def _date_part(value, index, width):
    """Extract a numeric part of a 'YYYY-MM-DD HH:MM:SS' string."""
    if value is None:
        return None
    text = _as_text(value)
    parts = text.replace(":", "-").replace(" ", "-").split("-")
    if index >= len(parts):
        return 0
    try:
        return int(parts[index][:width])
    except ValueError:
        return 0


def _fn_year(args):
    return _date_part(args[0], 0, 4)


def _fn_month(args):
    return _date_part(args[0], 1, 2)


def _fn_day(args):
    return _date_part(args[0], 2, 2)


def _fn_hour(args):
    return _date_part(args[0], 3, 2)


def _fn_minute(args):
    return _date_part(args[0], 4, 2)


def _fn_second(args):
    return _date_part(args[0], 5, 2)


def _fn_date(args):
    if args[0] is None:
        return None
    return _as_text(args[0]).split(" ")[0]


_SIMPLE = {
    "LEFT": _fn_left,
    "RIGHT": _fn_right,
    "LPAD": _fn_lpad,
    "RPAD": _fn_rpad,
    "REPEAT": _fn_repeat,
    "REVERSE": _fn_reverse,
    "INSTR": _fn_instr,
    "LOCATE": _fn_locate,
    "POSITION": _fn_locate,
    "STRCMP": _fn_strcmp,
    "SPACE": _fn_space,
    "YEAR": _fn_year,
    "MONTH": _fn_month,
    "DAY": _fn_day,
    "DAYOFMONTH": _fn_day,
    "HOUR": _fn_hour,
    "MINUTE": _fn_minute,
    "SECOND": _fn_second,
    "DATE": _fn_date,
    "CONCAT": _fn_concat,
    "CONCAT_WS": _fn_concat_ws,
    "LENGTH": _fn_length,
    "CHAR_LENGTH": _fn_char_length,
    "CHARACTER_LENGTH": _fn_char_length,
    "UPPER": _fn_upper,
    "UCASE": _fn_upper,
    "LOWER": _fn_lower,
    "LCASE": _fn_lower,
    "SUBSTRING": _fn_substring,
    "SUBSTR": _fn_substring,
    "MID": _fn_substring,
    "TRIM": _fn_trim,
    "LTRIM": _fn_ltrim,
    "RTRIM": _fn_rtrim,
    "REPLACE": _fn_replace,
    "ASCII": _fn_ascii,
    "ORD": _fn_ascii,
    "CHAR": _fn_char,
    "HEX": _fn_hex,
    "UNHEX": _fn_unhex,
    "MD5": _fn_md5,
    "SHA1": _fn_sha1,
    "SHA": _fn_sha1,
    "ABS": _fn_abs,
    "ROUND": _fn_round,
    "FLOOR": _fn_floor,
    "CEILING": _fn_ceiling,
    "CEIL": _fn_ceiling,
    "MOD": _fn_mod,
    "POW": _fn_pow,
    "POWER": _fn_pow,
    "IF": _fn_if,
    "IFNULL": _fn_ifnull,
    "NULLIF": _fn_nullif,
    "COALESCE": _fn_coalesce,
    "GREATEST": _fn_greatest,
    "LEAST": _fn_least,
}

#: Aggregate function names (evaluated by the executor, not here).
AGGREGATES = frozenset(
    ["COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP_CONCAT"]
)


def is_aggregate(name):
    return name.upper() in AGGREGATES


def call_scalar(name, args, context):
    """Invoke scalar function *name*.

    *context* is the :class:`repro.sqldb.expression.EvalContext`; the
    environment-dependent functions (NOW, DATABASE, SLEEP, RAND, ...) read
    it.  Raises :class:`ExecutionError` for unknown functions (MySQL error
    1305).
    """
    upper = name.upper()
    fn = _SIMPLE.get(upper)
    if fn is not None:
        try:
            return fn(args)
        except (IndexError, TypeError):
            raise ExecutionError(
                "Incorrect parameter count in the call to function '%s'"
                % name
            )
    if upper == "NOW":
        return context.database.now()
    if upper in ("CURDATE", "CURRENT_DATE"):
        return context.database.now().split(" ")[0]
    if upper == "DATABASE":
        return context.database.name
    if upper == "VERSION":
        return context.database.version
    if upper in ("USER", "CURRENT_USER"):
        return context.database.user
    if upper == "LAST_INSERT_ID":
        if context.session is not None:
            return context.session.last_insert_id
        return context.database.last_insert_id
    if upper == "SLEEP":
        context.record_sleep(float(coerce_to_number(args[0])))
        return 0
    if upper == "BENCHMARK":
        # Simulated: account a cost proportional to the iteration count.
        iterations = float(coerce_to_number(args[0]))
        context.record_sleep(iterations * 1e-7)
        return 0
    if upper == "RAND":
        return context.database.rand()
    raise ExecutionError("FUNCTION %s does not exist" % name, errno=1305)
