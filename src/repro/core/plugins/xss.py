"""Stored XSS plugin.

Step 1 looks for the characters the paper names (``<`` and ``>``); step 2
"inserts this input in a web page and calls an HTML parser" — we do
exactly that with :class:`html.parser.HTMLParser`, flagging script
elements, event-handler attributes and ``javascript:`` URIs.
"""

from html.parser import HTMLParser

from repro.core.plugins.base import StoredInjectionPlugin

_DANGEROUS_TAGS = frozenset(
    ["script", "iframe", "object", "embed", "svg", "math", "base", "form",
     "meta", "link", "video", "audio", "details", "marquee", "body", "img"]
)

_URI_ATTRS = frozenset(["href", "src", "action", "formaction", "data"])


class _XSSScanner(HTMLParser):
    """Parses a document and records script-capable constructs."""

    def __init__(self):
        HTMLParser.__init__(self, convert_charrefs=True)
        self.findings = []
        self._in_script = False

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        if tag == "script":
            self._in_script = True
            self.findings.append("script element")
        elif tag in _DANGEROUS_TAGS:
            # dangerous only if it carries an active attribute
            pass
        for name, value in attrs:
            name = name.lower()
            if name.startswith("on"):
                self.findings.append("event handler %s" % name)
            elif name in _URI_ATTRS and value:
                uri = value.strip().lower().replace("\t", "").replace("\n", "")
                if uri.startswith("javascript:") or uri.startswith("data:text/html"):
                    self.findings.append("scriptable URI in %s" % name)

    def handle_endtag(self, tag):
        if tag.lower() == "script":
            self._in_script = False

    def handle_data(self, data):
        if self._in_script and data.strip():
            self.findings.append("script body")


class StoredXSSPlugin(StoredInjectionPlugin):
    """Detects persistent cross-site scripting payloads."""

    attack_type = "STORED_XSS"
    step1_chars = "<>"

    def suspicious(self, text):
        return "<" in text or ">" in text

    def confirm(self, text):
        page = "<html><body><p>%s</p></body></html>" % text
        scanner = _XSSScanner()
        try:
            scanner.feed(page)
            scanner.close()
        except Exception:
            # A payload that breaks the parser is itself suspicious.
            return True
        return bool(scanner.findings)

    def explain(self, text):
        """Findings list (used by the demo's event display)."""
        scanner = _XSSScanner()
        scanner.feed("<html><body><p>%s</p></body></html>" % text)
        scanner.close()
        return scanner.findings
