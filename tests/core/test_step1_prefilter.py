"""The fused step-1 pre-check of the stored-injection plugins.

A verdict hit re-inspects the strings an INSERT/UPDATE puts in the
slots its plugins read.  Each plugin declares the characters its
``suspicious()`` cannot flag a string without (``step1_chars``), and
:func:`repro.core.detector.step1_prefilter` joins them into one pattern:
a string that misses it skips the plugin loop.  That is only sound if
every declaration is complete — the property below holds the shipped
plugins to it, and its twin shows it notices a plugin that under-declares.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks import payloads, sqlmap
from repro.attacks.corpus import waspmon_attacks
from repro.core import septic as septic_mod
from repro.core.detector import BENIGN, step1_prefilter
from repro.core.plugins import default_plugins
from repro.core.plugins.email import EmailHeaderInjectionPlugin
from repro.core.plugins.osci import OSCIPlugin
from repro.core.plugins.xss import StoredXSSPlugin


def _attack_strings():
    """Every payload string :mod:`repro.attacks` carries: the payload
    constants, sqlmap-lite's probes and the attack corpus's form values."""
    texts = [value for name, value in vars(payloads).items()
             if name.isupper() and isinstance(value, str)]
    for probes in (sqlmap._BOOLEAN_PROBES, sqlmap._ERROR_PROBES,
                   sqlmap._TIME_PROBES):
        for probe in probes:
            texts.extend(probe if isinstance(probe, tuple) else [probe])
    for case in waspmon_attacks():
        for request in case.requests:
            texts.extend(value for value in getattr(request, "params",
                                                    {}).values()
                         if isinstance(value, str))
    return texts


ATTACK_STRINGS = _attack_strings()

#: every character some plugin declares
_DECLARED = sorted(set("".join(
    plugin.step1_chars
    for plugin in default_plugins() + [EmailHeaderInjectionPlugin()])))

#: each attack string stripped to one declared character: what a plugin
#: that forgot the others would have to flag on that one alone
NARROWED = sorted({"".join(char for char in text
                           if char == keep or char not in _DECLARED)
                   for text in ATTACK_STRINGS for keep in _DECLARED})

#: pieces the plugins' confirm() steps look for, so generated strings
#: reach step 2 and not only step 1
_PIECES = [
    "<", ">", ":", ".", "/", "\\", "%", "\x00", ";", "|", "&", "`", "$",
    "\n", "\r", "(", "{", "}", ")", " ", "'", '"', "=", "x", "ls", "cat",
    "id", "script", "img src=x onerror=alert(1)", "http", "php", "://",
    "etc/passwd", "..", "2e", "2f", "eval", "system", "_GET", "O:8:\"a\":1:",
    "0d", "0a", "to:", "bcc:",
]

_inputs = st.one_of(
    st.text(max_size=40),
    st.lists(st.one_of(st.sampled_from(_PIECES),
                       st.sampled_from(ATTACK_STRINGS + NARROWED)),
             max_size=8).map("".join),
)


def _flagged_past_the_prefilter(plugins, text):
    """Whether *text* misses the pre-check although a plugin flags it —
    a string the hit path would wave through unexamined."""
    prefilter = step1_prefilter(plugins)
    return prefilter.search(text) is None and any(
        plugin.inspect(text) for plugin in plugins)


def _assert_prefilter_sound(plugins):
    assert step1_prefilter(plugins) is not None

    @settings(max_examples=500, derandomize=True, database=None,
              deadline=None)
    @given(_inputs)
    def sound(text):
        assert not _flagged_past_the_prefilter(plugins, text), repr(text)

    for text in ATTACK_STRINGS + NARROWED:
        assert not _flagged_past_the_prefilter(plugins, text), repr(text)
    sound()


def test_the_corpus_reaches_every_default_plugin():
    # the property is only as good as its inputs: each shipped plugin
    # flags at least one of them
    for plugin in default_plugins():
        assert any(plugin.inspect(text) for text in ATTACK_STRINGS), plugin


def test_a_prefilter_miss_means_no_default_plugin_flags():
    _assert_prefilter_sound(default_plugins())


def test_the_email_extension_declares_its_characters_too():
    _assert_prefilter_sound(default_plugins()
                            + [EmailHeaderInjectionPlugin()])


class _ForgetfulOSCI(OSCIPlugin):
    """OSCI that forgets ``;`` — which its suspicious() still needs to
    flag ``; cat /etc/passwd``-style chains."""

    step1_chars = "|&`$\n%"


def test_property_catches_an_under_declared_plugin():
    with pytest.raises(AssertionError):
        _assert_prefilter_sound([_ForgetfulOSCI()])


class _Undeclared(StoredXSSPlugin):
    step1_chars = None


def test_a_plugin_that_declares_nothing_keeps_the_loop():
    assert step1_prefilter(default_plugins() + [_Undeclared()]) is None
    assert step1_prefilter([]) is None


class _Verdict(object):
    def __init__(self, plugins, prefilter, slots):
        self.plugins = plugins
        self.prefilter = prefilter
        self.slots = slots


def test_inputs_pass_runs_the_plugins_only_past_the_prefilter():
    calls = []

    class Counting(StoredXSSPlugin):
        def inspect(self, text):
            calls.append(text)
            return StoredXSSPlugin.inspect(self, text)

    plugins = [Counting()]
    verdict = _Verdict(plugins, step1_prefilter(plugins), (0, 1))
    assert septic_mod._inspect_inputs(verdict, ("plain words", 7)) is BENIGN
    assert calls == []
    flagged = septic_mod._inspect_inputs(verdict, ("<script>x</script>", 7))
    assert flagged.is_attack and flagged.plugin == plugins[0].name
    assert calls == ["<script>x</script>"]
    # with no pattern every string faces the plugins
    unfiltered = _Verdict(plugins, None, (0,))
    assert septic_mod._inspect_inputs(unfiltered,
                                      ("plain words",)) is BENIGN
    assert calls[-1] == "plain words"
