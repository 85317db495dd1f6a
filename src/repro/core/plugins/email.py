"""Email header injection plugin — an *extension* beyond the paper.

The paper ships plugins for XSS, RFI, LFI, OSCI and RCE and presents the
plugin pipeline as extensible ("plugins that are executed on the fly to
deal with specific attacks").  This module demonstrates that
extensibility with a sixth class: stored data that, when later embedded
in an outgoing email (contact forms, notifications), smuggles extra
headers or a second body through CR/LF sequences.

Not part of :func:`repro.core.plugins.default_plugins` — add it
explicitly::

    detector = AttackDetector(plugins=default_plugins()
                              + [EmailHeaderInjectionPlugin()])
"""

import re

from repro.core.plugins.base import StoredInjectionPlugin

_STEP1_RE = re.compile(r"[\r\n]|%0d|%0a", re.IGNORECASE)

_CONFIRM_RE = re.compile(
    r"""
    (?:%0d|%0a|[\r\n])\s*
    (?:
        (?:to|cc|bcc|from|subject|reply-to)\s*:   # injected header
      | content-type\s*:                           # MIME smuggling
      | mime-version\s*:
      | \.\s*(?:%0d|%0a|[\r\n])                    # SMTP end-of-message
    )
    """,
    re.IGNORECASE | re.VERBOSE,
)


class EmailHeaderInjectionPlugin(StoredInjectionPlugin):
    """Detects CR/LF header-injection payloads in stored inputs."""

    attack_type = "STORED_EMAIL_HEADER"
    step1_chars = "\r\n%"

    def suspicious(self, text):
        return bool(_STEP1_RE.search(text))

    def confirm(self, text):
        return bool(_CONFIRM_RE.search(text))
