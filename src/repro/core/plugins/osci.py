"""OS command injection plugin (OSCI)."""

import re

from repro.core.plugins.base import StoredInjectionPlugin

_METACHAR_RE = re.compile(r"[;|&`$\n]|%0a|%3b|%7c|%26", re.IGNORECASE)
#: where any of those can start: one class, 2.5x faster to rule out
_METACHAR_START_RE = re.compile(r"[;|&`$\n%]")

_CMDS = (
    "cat|ls|id|whoami|uname|wget|curl|nc|netcat|bash|sh|rm|cp|mv|"
    "ping|chmod|chown|touch|echo|python|perl|php|sleep|mkdir|kill|"
    "powershell|cmd|dir|type|net|ipconfig|ifconfig"
)

#: shell constructs an attacker actually needs for command injection
_CONFIRM_RE = re.compile(
    r"""
    (?:
        \$\((?:[^)]*)\)                     # $() substitution
      | `[^`]+`                             # backtick substitution
      | \|\s*(?:{cmds})\b                   # pipe into a command
      | (?:;|&&|\|\||\n)\s*(?:{cmds})\b     # chained command
    )
    """.format(cmds=_CMDS),
    re.IGNORECASE | re.VERBOSE,
)


class OSCIPlugin(StoredInjectionPlugin):
    """Detects shell metacharacter sequences that chain OS commands."""

    attack_type = "STORED_OSCI"
    step1_chars = ";|&`$\n%"

    def suspicious(self, text):
        return bool(_METACHAR_START_RE.search(text)
                    and _METACHAR_RE.search(text))

    def confirm(self, text):
        return bool(_CONFIRM_RE.search(text))
