"""Tests for connection-charset decoding (the semantic-mismatch root)."""

import pytest

from repro.sqldb.charset import (
    GBK_MERGED_CHAR,
    decode_query,
    eat_gbk_escapes,
    escape_string,
    fold_confusables,
)


class TestFoldConfusables(object):
    def test_modifier_letter_apostrophe_becomes_quote(self):
        assert fold_confusables("IDʼ") == "ID'"

    def test_right_single_quotation_mark(self):
        assert fold_confusables("don’t") == "don't"

    def test_fullwidth_apostrophe(self):
        assert fold_confusables("＇") == "'"

    def test_double_quote_confusables(self):
        assert fold_confusables("“x”") == '"x"'

    def test_fullwidth_angle_brackets(self):
        assert fold_confusables("＜script＞") == "<script>"

    def test_ascii_passthrough(self):
        text = "SELECT * FROM t WHERE a = 'b'"
        assert fold_confusables(text) is text  # fast path: same object

    def test_unmapped_unicode_survives(self):
        assert fold_confusables("héllo") == "héllo"

    def test_one_non_ascii_character_anywhere_leaves_the_fast_path(self):
        # the ASCII test must look at every character, not a prefix
        head = "SELECT * FROM t WHERE a = '" + "x" * 200
        assert fold_confusables(head + "ʼ") == head + "'"
        assert fold_confusables("ʼ" + head) == "'" + head
        assert fold_confusables(head + "\x7f") == head + "\x7f"
        assert fold_confusables(head + "\x80") == head + "\x80"

    def test_escaped_percent_survives_decoding(self):
        from repro.sqldb.charset import decode_query

        text = "SELECT * FROM t WHERE a LIKE '50\\%' AND b = 'ʼ'"
        assert decode_query(text, "utf8") == text.replace("ʼ", "'")
        assert decode_query(text, "latin1") == text

    def test_paper_payload(self):
        # the §II-D1 second-order payload decodes to a live quote + comment
        assert fold_confusables("ID34FGʼ-- ") == "ID34FG'-- "


class TestGbkEscapeEating(object):
    def test_bf_backslash_merges(self):
        assert eat_gbk_escapes("¿\\x") == GBK_MERGED_CHAR + "x"

    def test_classic_attack_shape(self):
        # addslashes output: 0xBF 0x5C 0x27 -> merged char + live quote
        out = eat_gbk_escapes("¿\\' OR 1=1")
        assert out == GBK_MERGED_CHAR + "' OR 1=1"

    def test_plain_backslash_untouched(self):
        assert eat_gbk_escapes("a\\'b") == "a\\'b"

    def test_no_lead_byte_no_change(self):
        text = "hello \\' world"
        assert eat_gbk_escapes(text) == text

    def test_lead_byte_without_backslash_untouched(self):
        assert eat_gbk_escapes("¿x") == "¿x"

    def test_trailing_lead_byte(self):
        assert eat_gbk_escapes("abc¿") == "abc¿"


class TestDecodeQuery(object):
    def test_utf8_folds(self):
        assert decode_query("ʼ") == "'"

    def test_utf8_strict_does_not_fold(self):
        assert decode_query("ʼ", "utf8_strict") == "ʼ"

    def test_latin1_does_not_fold(self):
        assert decode_query("ʼ", "latin1") == "ʼ"

    def test_gbk_folds_and_eats(self):
        out = decode_query("¿\\' ʼ", "gbk")
        assert out == GBK_MERGED_CHAR + "' '"

    def test_unknown_charset_rejected(self):
        with pytest.raises(ValueError):
            decode_query("x", "utf16")


class TestEscapeString(object):
    def test_quote(self):
        assert escape_string("a'b") == "a\\'b"

    def test_double_quote(self):
        assert escape_string('a"b') == 'a\\"b'

    def test_backslash(self):
        assert escape_string("a\\b") == "a\\\\b"

    def test_newline_and_nul(self):
        assert escape_string("a\nb\0c") == "a\\nb\\0c"

    def test_ctrl_z(self):
        assert escape_string("\x1a") == "\\Z"

    def test_unicode_confusable_NOT_escaped(self):
        # the heart of the semantic mismatch: the escaper passes U+02BC
        assert escape_string("ʼ") == "ʼ"

    def test_idempotent_on_clean_text(self):
        assert escape_string("hello world 123") == "hello world 123"
