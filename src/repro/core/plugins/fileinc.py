"""Remote and local file inclusion plugins (RFI, LFI)."""

import re

from repro.core.plugins.base import StoredInjectionPlugin

_RFI_URL_RE = re.compile(
    r"(?:https?|ftp|ftps|php|data|expect)\s*:", re.IGNORECASE
)
_RFI_CONFIRM_RE = re.compile(
    r"""
    (?:
        (?:https?|ftp|ftps)://\S+\.(?:php|txt|phtml|php5)\b   # remote script
      | (?:https?|ftp|ftps)://\S+[?&]\S*=                      # remote w/ args
      | data:text/plain;base64,                                # data wrapper
      | php://(?:input|filter|expect)                          # php wrappers
      | expect://                                              # expect wrapper
    )
    """,
    re.IGNORECASE | re.VERBOSE,
)

_LFI_CHARS_RE = re.compile(r"\.\.|/|\\|%2e|%2f|%5c|\x00", re.IGNORECASE)
_LFI_CONFIRM_RE = re.compile(
    r"""
    (?:
        (?:\.\./|\.\.\\){1,}                     # directory traversal
      | (?:%2e%2e(?:%2f|%5c)){1,}                 # encoded traversal
      | /etc/(?:passwd|shadow|hosts|group)\b      # unix secrets
      | /proc/self/environ\b
      | c:[\\/]windows[\\/]                       # windows system path
      | boot\.ini\b
      | \x00                                      # null byte truncation
      | php://filter/\S*resource=
    )
    """,
    re.IGNORECASE | re.VERBOSE,
)


class RFIPlugin(StoredInjectionPlugin):
    """Remote file inclusion: URLs/wrappers pointing at executable code."""

    attack_type = "STORED_RFI"
    step1_chars = ":"

    def suspicious(self, text):
        # every scheme ends in a colon: most inputs stop at this test
        return ":" in text and bool(_RFI_URL_RE.search(text))

    def confirm(self, text):
        return bool(_RFI_CONFIRM_RE.search(text))


class LFIPlugin(StoredInjectionPlugin):
    """Local file inclusion: path traversal and sensitive-file targets."""

    attack_type = "STORED_LFI"
    step1_chars = "./\\%\x00"

    def suspicious(self, text):
        return bool(_LFI_CHARS_RE.search(text))

    def confirm(self, text):
        return bool(_LFI_CONFIRM_RE.search(text))
