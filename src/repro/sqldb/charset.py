"""Connection-charset decoding and its semantic-mismatch quirks.

MySQL decodes the bytes of a query according to the *connection character
set* before the parser sees them.  Two families of quirks in that decoding
step are the root cause of the attacks the paper demonstrates:

* **Unicode confusables** — under ``utf8_general_ci``-style collations MySQL
  treats a set of unicode codepoints as equivalent to their ASCII
  counterparts.  The paper's second-order attack smuggles a prime through
  PHP sanitization as ``U+02BC`` (modifier letter apostrophe); MySQL decodes
  it into ``'`` which then terminates the string literal.
* **Multibyte escape eating** — in charsets such as GBK the byte ``0xBF``
  followed by ``0x5C`` (the backslash ``addslashes`` inserted) forms a
  single two-byte character, swallowing the escape and leaving the attacker
  controlled quote live.

Both behaviours are implemented here so the substrate reproduces the exact
decode-then-parse pipeline SEPTIC exploits: SEPTIC sees the query *after*
this decoding, sanitization functions act *before* it.
"""

#: Codepoints MySQL folds onto ASCII equivalents during query decoding.
#: The attack in the paper uses U+02BC; the rest round out the confusable
#: set used by real-world semantic-mismatch exploits.
UNICODE_CONFUSABLES = {
    "ʼ": "'",   # MODIFIER LETTER APOSTROPHE (the paper's payload)
    "ʹ": "'",   # MODIFIER LETTER PRIME
    "‘": "'",   # LEFT SINGLE QUOTATION MARK
    "’": "'",   # RIGHT SINGLE QUOTATION MARK
    "′": "'",   # PRIME
    "＇": "'",   # FULLWIDTH APOSTROPHE
    "“": '"',   # LEFT DOUBLE QUOTATION MARK
    "”": '"',   # RIGHT DOUBLE QUOTATION MARK
    "″": '"',   # DOUBLE PRIME
    "＂": '"',   # FULLWIDTH QUOTATION MARK
    "＜": "<",   # FULLWIDTH LESS-THAN SIGN
    "＞": ">",   # FULLWIDTH GREATER-THAN SIGN
    "；": ";",   # FULLWIDTH SEMICOLON
    "－": "-",   # FULLWIDTH HYPHEN-MINUS
    "＃": "#",   # FULLWIDTH NUMBER SIGN
}

#: Leading bytes that, in GBK-family charsets, combine with a following
#: byte (including ``0x5C`` ``\\``) into a single character.
_GBK_LEAD_LO = 0x81
_GBK_LEAD_HI = 0xFE

#: Placeholder character used for a merged GBK pair.  Any non-syntax char
#: works; the point is that the backslash is *consumed*.
GBK_MERGED_CHAR = "縺"

#: Charsets supported by the engine.
SUPPORTED_CHARSETS = ("utf8", "utf8_strict", "gbk", "latin1")


def fold_confusables(text):
    """Map unicode confusables in *text* onto their ASCII equivalents.

    This is the step that turns a sanitizer-invisible ``U+02BC`` into a
    live single quote inside the DBMS.
    """
    if text.isascii():
        return text
    return "".join(UNICODE_CONFUSABLES.get(ch, ch) for ch in text)


def eat_gbk_escapes(text):
    """Simulate GBK multibyte decoding over a unicode string.

    A character whose codepoint has a GBK lead byte value, immediately
    followed by a backslash, merges with that backslash into one character
    (:data:`GBK_MERGED_CHAR`).  The classic ``%bf%5c`` escape-eating attack
    relies on exactly this: ``addslashes`` produced the ``\\`` and GBK
    decoding consumes it.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if (
            i + 1 < n
            and text[i + 1] == "\\"
            and _GBK_LEAD_LO <= ord(ch) <= _GBK_LEAD_HI
        ):
            out.append(GBK_MERGED_CHAR)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def decode_query(text, charset="utf8"):
    """Decode a raw query string the way the DBMS does before parsing.

    ``utf8``
        MySQL-like behaviour: unicode confusables fold onto ASCII.
    ``utf8_strict``
        No folding — the hypothetical "safe" DBMS with no semantic
        mismatch; used by tests and ablations as a control.
    ``gbk``
        Folding *plus* multibyte escape eating.
    ``latin1``
        No folding, no escape eating (non-ASCII survives untouched).
    """
    if charset not in SUPPORTED_CHARSETS:
        raise ValueError("unsupported connection charset: %r" % (charset,))
    if charset == "utf8":
        return fold_confusables(text)
    if charset == "gbk":
        return fold_confusables(eat_gbk_escapes(text))
    return text


def escape_string(value):
    """Server-side reference implementation of string escaping.

    Mirrors ``mysql_real_escape_string``: escapes the characters MySQL's
    manual lists.  Note what it does **not** do: it does not touch unicode
    confusables, which is precisely why the paper's attack passes through
    sanitized applications.
    """
    replacements = {
        "\\": "\\\\",
        "'": "\\'",
        '"': '\\"',
        "\0": "\\0",
        "\n": "\\n",
        "\r": "\\r",
        "\x1a": "\\Z",
    }
    return "".join(replacements.get(ch, ch) for ch in value)
