"""Remote code execution plugin (RCE).

Targets payloads that become code when the application later evaluates
stored data: PHP code fragments, ``eval``-family calls and serialized
object (PHP object injection) markers.
"""

import re

from repro.core.plugins.base import StoredInjectionPlugin

_STEP1_RE = re.compile(r"[<(${]|%3c|%28", re.IGNORECASE)
#: where any of those can start: one class, 2.5x faster to rule out
_STEP1_START_RE = re.compile(r"[<(${%]")

_CONFIRM_RE = re.compile(
    r"""
    (?:
        <\?php\b                               # php open tag
      | <\?=                                    # short echo tag
      | \b(?:eval|assert|system|exec|passthru|shell_exec|popen|
             proc_open|preg_replace|create_function|call_user_func)\s*\(
      | \bbase64_decode\s*\(
      | \bO:\d+:"[^"]+":\d+:{                   # serialized PHP object
      | \$\{?(?:_GET|_POST|_REQUEST|_COOKIE|GLOBALS)\b
      | \{\{.*\}\}                              # template injection
      | __import__\s*\(                         # python eval-family
      | \bos\.system\s*\(
    )
    """,
    re.IGNORECASE | re.VERBOSE,
)


class RCEPlugin(StoredInjectionPlugin):
    """Detects stored payloads that execute as code server-side."""

    attack_type = "STORED_RCE"
    step1_chars = "<($%{"

    def suspicious(self, text):
        return bool(_STEP1_START_RE.search(text) and _STEP1_RE.search(text))

    def confirm(self, text):
        return bool(_CONFIRM_RE.search(text))
