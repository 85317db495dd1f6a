"""SQL tokenizer with MySQL-flavoured syntax.

Produces a list of :class:`Token` plus the comments encountered (comments
matter: SEPTIC's optional *external identifier* travels to the server in a
``/* ... */`` comment concatenated to the query).

MySQL quirks reproduced here:

* ``--`` starts a comment only when followed by whitespace/end of input
  (``a--b`` is a double minus);
* ``#`` comments to end of line;
* ``/*! ... */`` version comments: their *content* is executed, not skipped;
* backslash escapes inside string literals, plus doubled quotes;
* hex literals ``0x414243`` and ``x'41'``;
* backtick-quoted identifiers.
"""

import math
import re

from repro.sqldb.errors import LexerError


class TokenType:
    """Token type tags (plain strings keep debugging output readable)."""

    IDENT = "IDENT"          # unquoted or backtick-quoted identifier
    KEYWORD = "KEYWORD"      # reserved word, value upper-cased
    INT = "INT"
    FLOAT = "FLOAT"
    STRING = "STRING"
    HEX = "HEX"              # hex literal, value is the decoded string
    OP = "OP"                # operator / punctuation
    PARAM = "PARAM"          # `?` placeholder
    EOF = "EOF"


KEYWORDS = frozenset(
    """
    SELECT FROM WHERE AND OR XOR NOT NULL TRUE FALSE INSERT INTO VALUES
    UPDATE SET DELETE CREATE TABLE DROP IF EXISTS PRIMARY KEY AUTO_INCREMENT
    DEFAULT UNIQUE JOIN INNER LEFT RIGHT OUTER CROSS ON AS ORDER BY GROUP
    HAVING LIMIT OFFSET ASC DESC UNION ALL DISTINCT LIKE IN IS BETWEEN
    CASE WHEN THEN ELSE END DIV MOD REGEXP RLIKE SHOW TABLES DESCRIBE
    INTEGER INT BIGINT SMALLINT TINYINT VARCHAR TEXT CHAR DATETIME DATE
    FLOAT DOUBLE DECIMAL BOOLEAN BOOL REPLACE DUPLICATE CAST CONVERT
    SIGNED UNSIGNED BEGIN START TRANSACTION COMMIT ROLLBACK INDEX EXPLAIN
    ALTER ADD COLUMN TRUNCATE COLUMNS
    """.split()
)

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = (
    "<=>", "<<", ">>", "<>", "!=", ">=", "<=", ":=", "&&", "||",
    "=", "<", ">", "+", "-", "*", "/", "%", "(", ")", ",", ";",
    ".", "&", "|", "^", "~", "!", "@",
)


class Token(object):
    """A single lexical token.

    ``value`` is normalized: keywords upper-cased, string/hex literals
    decoded to their contents, numbers kept as text (the parser converts).
    """

    __slots__ = ("type", "value", "pos")

    def __init__(self, type_, value, pos):
        self.type = type_
        self.value = value
        self.pos = pos

    def matches(self, type_, value=None):
        if self.type != type_:
            return False
        return value is None or self.value == value

    def __repr__(self):
        return "Token(%s, %r)" % (self.type, self.value)

    def __eq__(self, other):
        return (
            isinstance(other, Token)
            and self.type == other.type
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.type, self.value))


class LexResult(object):
    """Tokens plus side-channel information the engine needs."""

    __slots__ = ("tokens", "comments", "slots")

    def __init__(self, tokens, comments):
        self.tokens = tokens
        #: All comment bodies in source order (used by the ID generator to
        #: pick up external identifiers).
        self.comments = comments
        #: positions (in ``tokens``) of the literal tokens a slotting
        #: parse turned into value slots, in slot order
        self.slots = ()


def _double(text):
    value = float(text)
    if not math.isfinite(value):
        raise LexerError("Illegal double '%s' value found during parsing"
                         % text, errno=1367)
    return value


#: token type -> (Python conversion, literal type tag) of a data literal
LITERALS = {
    TokenType.INT: (int, "int"),
    TokenType.FLOAT: (_double, "float"),
    TokenType.STRING: (str, "string"),
    TokenType.HEX: (str, "string"),
}

#: statements whose data literals may become value slots
_SLOTTED_COMMANDS = frozenset(
    ["SELECT", "INSERT", "REPLACE", "UPDATE", "DELETE"]
)


def slot_values(tokens, positions):
    """The values vector: the literals at *positions*, converted the
    way the parser converts them."""
    return tuple(LITERALS[tokens[pos].type][0](tokens[pos].value)
                 for pos in positions)


def wildcard_key(tokens):
    """The token stream as a flat ``(type, value, ...)`` tuple with
    every data literal's value replaced by ``None`` — what all texts of
    one statement shape have in common — or ``None`` when the statement
    takes no slots: not a single SELECT/INSERT/REPLACE/UPDATE/DELETE,
    or one that already carries ``?`` placeholders."""
    first = tokens[0]
    if first.type != TokenType.KEYWORD or \
            first.value not in _SLOTTED_COMMANDS:
        return None
    key = []
    ended = False
    for tok in tokens:
        kind = tok.type
        if kind == TokenType.EOF:
            break
        separator = kind == TokenType.OP and tok.value == ";"
        if ended and not separator:
            return None     # a second statement follows
        if kind in LITERALS:
            key.append(kind)
            key.append(None)
            continue
        if kind == TokenType.PARAM:
            return None
        ended = separator
        key.append(kind)
        key.append(tok.value)
    return tuple(key)


_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
#: the rest of an identifier (``_IDENT_CONT`` as one scan)
_IDENT_TAIL = re.compile(r"[A-Za-z0-9_$]*")
_OPERATOR_SET = frozenset(_OPERATORS)
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

_STRING_ESCAPES = {
    "0": "\0",
    "n": "\n",
    "r": "\r",
    "t": "\t",
    "b": "\b",
    "Z": "\x1a",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "%": "\\%",   # MySQL keeps \% and \_ literally (LIKE patterns)
    "_": "\\_",
}


def tokenize(sql):
    """Tokenize *sql* and return a :class:`LexResult`.

    Raises :class:`LexerError` on unterminated strings/comments or
    characters that cannot start a token.
    """
    tokens = []
    comments = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        # -- whitespace ------------------------------------------------
        if ch in " \t\r\n\f\v":
            i += 1
            continue
        # -- comments --------------------------------------------------
        if ch == "#":
            j = sql.find("\n", i)
            j = n if j < 0 else j
            comments.append(sql[i + 1 : j].strip())
            i = j
            continue
        if ch == "-" and sql.startswith("--", i):
            nxt = sql[i + 2 : i + 3]
            if nxt == "" or nxt in " \t\r\n":
                j = sql.find("\n", i)
                j = n if j < 0 else j
                comments.append(sql[i + 2 : j].strip())
                i = j
                continue
            # fall through: "a--b" is two minus signs
        if ch == "/" and sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end < 0:
                raise LexerError("unterminated comment at position %d" % i)
            body = sql[i + 2 : end]
            if body.startswith("!"):
                # Version comment: MySQL executes its content.  Strip the
                # optional 5-digit version number and re-lex the body.
                inner = body[1:]
                k = 0
                while k < len(inner) and k < 5 and inner[k].isdigit():
                    k += 1
                inner = inner[k:]
                sub = tokenize(inner)
                tokens.extend(sub.tokens[:-1])  # drop inner EOF
                comments.extend(sub.comments)
            else:
                comments.append(body.strip())
            i = end + 2
            continue
        # -- string literals -------------------------------------------
        if ch in "'\"":
            value, i = _lex_string(sql, i, ch)
            tokens.append(Token(TokenType.STRING, value, i))
            continue
        # -- hex literals ----------------------------------------------
        if ch in "xX" and sql[i + 1 : i + 2] == "'":
            end = sql.find("'", i + 2)
            if end < 0:
                raise LexerError("unterminated hex literal at %d" % i)
            digits = sql[i + 2 : end]
            tokens.append(Token(TokenType.HEX, _decode_hex(digits, i), i))
            i = end + 1
            continue
        if ch == "0" and sql[i + 1 : i + 2] in "xX":
            j = i + 2
            while j < n and sql[j] in _HEX_DIGITS:
                j += 1
            if j == i + 2 or (j < n and sql[j] in _IDENT_CONT):
                # "0x" with no digits, or 0x12ZZ: lex as number+ident
                tokens.append(Token(TokenType.INT, "0", i))
                i += 1
                continue
            tokens.append(Token(TokenType.HEX, _decode_hex(sql[i + 2 : j], i), i))
            i = j
            continue
        # -- numbers ---------------------------------------------------
        if ch in _DIGITS or (
            ch == "." and sql[i + 1 : i + 2] in _DIGITS
        ):
            tok, i = _lex_number(sql, i)
            tokens.append(tok)
            continue
        # -- identifiers / keywords ------------------------------------
        if ch in _IDENT_START:
            j = _IDENT_TAIL.match(sql, i + 1).end()
            word = sql[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenType.IDENT, word, i))
            i = j
            continue
        if ch == "`":
            end = sql.find("`", i + 1)
            if end < 0:
                raise LexerError("unterminated quoted identifier at %d" % i)
            tokens.append(Token(TokenType.IDENT, sql[i + 1 : end], i))
            i = end + 1
            continue
        # -- placeholder -----------------------------------------------
        if ch == "?":
            tokens.append(Token(TokenType.PARAM, "?", i))
            i += 1
            continue
        # -- operators (maximal munch: three characters, two, one) -----
        op = sql[i : i + 3]
        while op not in _OPERATOR_SET:
            op = op[:-1]
            if not op:
                raise LexerError(
                    "unexpected character %r at position %d" % (ch, i)
                )
        tokens.append(Token(TokenType.OP, op, i))
        i += len(op)
    tokens.append(Token(TokenType.EOF, "", n))
    return LexResult(tokens, comments)


def _lex_string(sql, i, quote):
    """Lex a quoted string starting at ``sql[i] == quote``.

    Returns ``(decoded_value, next_index)``.  Handles backslash escapes and
    doubled quotes.
    """
    out = []
    j = i + 1
    n = len(sql)
    while j < n:
        ch = sql[j]
        if ch == "\\" and j + 1 < n:
            esc = sql[j + 1]
            out.append(_STRING_ESCAPES.get(esc, esc))
            j += 2
            continue
        if ch == quote:
            if sql[j + 1 : j + 2] == quote:  # doubled quote
                out.append(quote)
                j += 2
                continue
            return "".join(out), j + 1
        out.append(ch)
        j += 1
    raise LexerError("unterminated string literal at position %d" % i)


def _lex_number(sql, i):
    """Lex an integer or float starting at position *i*."""
    j = i
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while j < n:
        ch = sql[j]
        if ch in _DIGITS:
            j += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            j += 1
        elif ch in "eE" and not seen_exp and j > i:
            nxt = sql[j + 1 : j + 2]
            nxt2 = sql[j + 2 : j + 3]
            if nxt in _DIGITS or (nxt in "+-" and nxt2 in _DIGITS):
                seen_exp = True
                j += 2 if nxt in "+-" else 1
            else:
                break
        else:
            break
    text = sql[i:j]
    if seen_dot or seen_exp:
        return Token(TokenType.FLOAT, text, i), j
    return Token(TokenType.INT, text, i), j


def _decode_hex(digits, pos):
    """Decode a hex literal's digits to the string MySQL would produce."""
    if len(digits) % 2:
        digits = "0" + digits
    try:
        return bytes.fromhex(digits).decode("utf-8", "replace")
    except ValueError:
        raise LexerError("invalid hex literal at position %d" % pos)
