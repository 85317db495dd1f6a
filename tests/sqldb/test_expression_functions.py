"""Tests for expression evaluation and the builtin function registry."""

import pytest

from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import SQLError


@pytest.fixture
def q(db):
    """Evaluate a scalar SELECT expression and return the single value."""
    connection = Connection(db)

    def run(expression):
        outcome = connection.query("SELECT %s" % expression)
        if not outcome.ok:
            raise outcome.error
        return outcome.result_set.scalar()

    return run


class TestStringFunctions(object):
    def test_concat(self, q):
        assert q("CONCAT('a', 'b', 1)") == "ab1"

    def test_concat_null(self, q):
        assert q("CONCAT('a', NULL)") is None

    def test_concat_ws(self, q):
        assert q("CONCAT_WS('-', 'a', NULL, 'b')") == "a-b"

    def test_length_bytes_vs_chars(self, q):
        assert q("LENGTH('héllo')") == 6
        assert q("CHAR_LENGTH('héllo')") == 5

    def test_upper_lower(self, q):
        assert q("UPPER('aBc')") == "ABC"
        assert q("LOWER('aBc')") == "abc"

    def test_substring_variants(self, q):
        assert q("SUBSTRING('hello', 2)") == "ello"
        assert q("SUBSTRING('hello', 2, 3)") == "ell"
        assert q("SUBSTRING('hello', -3)") == "llo"
        assert q("SUBSTRING('hello', 0)") == ""

    def test_trim_family(self, q):
        assert q("TRIM('  x  ')") == "x"
        assert q("LTRIM('  x')") == "x"
        assert q("RTRIM('x  ')") == "x"

    def test_replace(self, q):
        assert q("REPLACE('aXbXc', 'X', '-')") == "a-b-c"

    def test_ascii_char(self, q):
        assert q("ASCII('A')") == 65
        assert q("ASCII('')") == 0
        assert q("CHAR(39)") == "'"
        assert q("CHAR(72, 105)") == "Hi"

    def test_hex_unhex(self, q):
        assert q("HEX('AB')") == "4142"
        assert q("UNHEX('4142')") == "AB"
        assert q("UNHEX('zz')") is None
        assert q("HEX(255)") == "FF"

    def test_md5_sha1(self, q):
        assert q("MD5('abc')") == "900150983cd24fb0d6963f7d28e17f72"
        assert q("SHA1('abc')").startswith("a9993e36")

    def test_hex_literal_equivalence(self, q):
        assert q("0x414243") == "ABC"


class TestNumericFunctions(object):
    def test_abs_round(self, q):
        assert q("ABS(-3)") == 3
        assert q("ROUND(2.6)") == 3
        assert q("ROUND(2.345, 2)") == 2.35 or q("ROUND(2.345, 2)") == 2.34

    def test_floor_ceiling(self, q):
        assert q("FLOOR(2.7)") == 2
        assert q("CEILING(2.1)") == 3

    def test_mod_pow(self, q):
        assert q("MOD(7, 3)") == 1
        assert q("MOD(7, 0)") is None
        assert q("POW(2, 10)") == 1024.0

    def test_greatest_least(self, q):
        assert q("GREATEST(1, 5, 3)") == 5
        assert q("LEAST(1, 5, 3)") == 1
        assert q("GREATEST(1, NULL)") is None


class TestConditionalFunctions(object):
    def test_if(self, q):
        assert q("IF(1, 'yes', 'no')") == "yes"
        assert q("IF(0, 'yes', 'no')") == "no"

    def test_ifnull_nullif_coalesce(self, q):
        assert q("IFNULL(NULL, 'd')") == "d"
        assert q("IFNULL('v', 'd')") == "v"
        assert q("NULLIF(3, 3)") is None
        assert q("NULLIF(3, 4)") == 3
        assert q("COALESCE(NULL, NULL, 7)") == 7


class TestEnvironmentFunctions(object):
    def test_version_user_database(self, q, db):
        assert "repro" in q("VERSION()")
        assert q("DATABASE()") == db.name
        assert "@" in q("USER()")

    def test_now_is_deterministic_format(self, q):
        value = q("NOW()")
        assert value.startswith("2016-07-05 ")

    def test_rand_seeded(self):
        a = Database(seed=7)
        b = Database(seed=7)
        ca, cb = Connection(a), Connection(b)
        assert ca.query("SELECT RAND()").result_set.rows == \
            cb.query("SELECT RAND()").result_set.rows

    def test_sleep_records_not_blocks(self, q, db, conn):
        outcome = conn.query("SELECT SLEEP(5)")
        assert outcome.ok
        assert outcome.sleep_seconds == 5.0

    def test_benchmark_records(self, conn):
        outcome = conn.query("SELECT BENCHMARK(1000000, 1)")
        assert outcome.sleep_seconds > 0

    def test_unknown_function(self, q):
        with pytest.raises(SQLError) as err:
            q("NO_SUCH_FN(1)")
        assert err.value.errno == 1305


class TestOperators(object):
    def test_arithmetic(self, q):
        assert q("1 + 2 * 3") == 7
        assert q("10 / 4") == 2.5
        assert q("10 DIV 4") == 2
        assert q("10 % 3") == 1

    def test_division_by_zero_is_null(self, q):
        assert q("1 / 0") is None
        assert q("1 DIV 0") is None
        assert q("1 % 0") is None

    def test_comparisons_return_int(self, q):
        assert q("1 = 1") == 1
        assert q("1 > 2") == 0
        assert q("2 >= 2") == 1
        assert q("1 != 2") == 1

    def test_string_number_comparison(self, q):
        assert q("'1abc' = 1") == 1   # the coercion trap
        assert q("'abc' = 0") == 1

    def test_null_comparisons(self, q):
        assert q("NULL = NULL") is None
        assert q("NULL <=> NULL") == 1

    def test_logic(self, q):
        assert q("1 AND 1") == 1
        assert q("1 AND 0") == 0
        assert q("0 OR 1") == 1
        assert q("1 XOR 1") == 0
        assert q("NOT 0") == 1

    def test_three_valued_logic(self, q):
        assert q("NULL AND 1") is None
        assert q("NULL AND 0") == 0      # false short-circuits
        assert q("NULL OR 1") == 1       # true short-circuits
        assert q("NULL OR 0") is None

    def test_bitwise(self, q):
        assert q("5 & 3") == 1
        assert q("5 | 3") == 7
        assert q("1 << 4") == 16
        assert q("16 >> 2") == 4

    def test_unary(self, q):
        assert q("-(3)") == -3
        assert q("-'5x'") == -5

    def test_between(self, q):
        assert q("2 BETWEEN 1 AND 3") == 1
        assert q("5 BETWEEN 1 AND 3") == 0
        assert q("2 NOT BETWEEN 1 AND 3") == 0

    def test_in(self, q):
        assert q("2 IN (1, 2, 3)") == 1
        assert q("9 IN (1, 2)") == 0
        assert q("9 NOT IN (1, 2)") == 1
        assert q("9 IN (1, NULL)") is None

    def test_like(self, q):
        assert q("'hello' LIKE 'h%'") == 1
        assert q("'hello' LIKE 'h_llo'") == 1
        assert q("'hello' LIKE 'x%'") == 0
        assert q("'HELLO' LIKE 'hello'") == 1  # case-insensitive
        assert q("'50%' LIKE '50\\\\%'") == 1

    def test_like_compiled_patterns_are_memoised_not_confused(self, q):
        from repro.sqldb import expression

        # an escaped wildcard is a literal character, a bare one is not
        assert q("'50%' LIKE '50\\\\%'") == 1
        assert q("'500' LIKE '50\\\\%'") == 0
        assert q("'500' LIKE '50%'") == 1
        assert q("'a_c' LIKE 'a\\\\_c'") == 1
        assert q("'abc' LIKE 'a\\\\_c'") == 0
        # non-ASCII text and pattern, case-folded like the rest
        assert q("'Ünïcode →quote' LIKE 'ünï%→q_ote'") == 1
        assert q("'naïve' LIKE 'na_ve'") == 1
        assert q("'naïve' LIKE 'naive'") == 0
        # regex metacharacters in a pattern are text
        assert q("'a.c' LIKE 'a.c'") == 1
        assert q("'abc' LIKE 'a.c'") == 0
        assert q("'x(1)' LIKE 'x(%)'") == 1
        # one compiled regex per distinct pattern, in a bounded map
        hits = expression._like_regex.cache_info().hits
        assert q("'abc' LIKE 'a.c'") == 0
        info = expression._like_regex.cache_info()
        assert info.hits == hits + 1
        for index in range(info.maxsize + 10):
            assert q("'p%d' LIKE 'p%d'" % (index, index)) == 1
        assert expression._like_regex.cache_info().currsize == info.maxsize

    def test_regexp(self, q):
        assert q("'hello' REGEXP '^he'") == 1
        assert q("'hello' REGEXP 'z'") == 0

    def test_case_expressions(self, q):
        assert q("CASE WHEN 1=1 THEN 'a' ELSE 'b' END") == "a"
        assert q("CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END") == "b"
        assert q("CASE 9 WHEN 1 THEN 'a' END") is None
