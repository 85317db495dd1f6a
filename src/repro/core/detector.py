"""The attack detector module (paper §II-C3).

Two kinds of discovery:

* **SQLI detection** — compares the query structure (QS) with the learned
  query model (QM) in two steps: (1) *structural* verification — equal
  node counts; (2) *syntactical* verification — node-by-node element
  equality.  Step 2 only runs when step 1 passes.  An attack is flagged
  when either step fails; the logger records which step found it.
* **Stored injection detection** — for INSERT and UPDATE commands, the
  user-input data nodes are run through the plugin pipeline
  (:mod:`repro.core.plugins`): a lightweight character filter first, a
  precise validation second.
"""

import re

from repro import faults as faults_mod
from repro.core.query_model import BOTTOM
from repro.core.plugins import default_plugins


class AttackType(object):
    """Labels recorded with each detection."""

    SQLI = "SQLI"
    STORED = "STORED_INJECTION"


class Detection(object):
    """The outcome of running the detector on one query."""

    __slots__ = ("is_attack", "attack_type", "step", "detail", "plugin")

    def __init__(self, is_attack, attack_type=None, step=None, detail=None,
                 plugin=None):
        self.is_attack = is_attack
        #: :class:`AttackType` label (or the plugin's specific type)
        self.attack_type = attack_type
        #: 1 = structural, 2 = syntactical (SQLI only)
        self.step = step
        #: human-readable mismatch description
        self.detail = detail
        #: plugin name (stored injection only)
        self.plugin = plugin

    @property
    def kind_label(self):
        """``structural`` / ``syntactical`` for SQLI, plugin name otherwise
        (the demo's event display logs this)."""
        if self.attack_type == AttackType.SQLI:
            return "structural" if self.step == 1 else "syntactical"
        return self.plugin or "-"

    def __bool__(self):
        return self.is_attack

    def __repr__(self):
        if not self.is_attack:
            return "Detection(benign)"
        return "Detection(%s, step=%s, %s)" % (
            self.attack_type, self.step, self.detail
        )


BENIGN = Detection(False)


def step1_prefilter(plugins):
    """One compiled character class joining every plugin's
    ``step1_chars`` — a string it does not match is one that no
    plugin's ``suspicious()`` can flag, so it passes them all without
    running one.  ``None`` when a plugin declares no characters (it has
    to run on everything) or there are no plugins."""
    chars = set()
    for plugin in plugins:
        declared = getattr(plugin, "step1_chars", None)
        if not declared:
            return None
        chars.update(declared)
    if not chars:
        return None
    return re.compile("[%s]" % "".join(re.escape(char)
                                       for char in sorted(chars)))


class AttackDetector(object):
    """Runs the SQLI comparison algorithm and the stored-injection plugins."""

    def __init__(self, plugins=None):
        self.plugins = default_plugins() if plugins is None else list(plugins)

    # -- SQLI ----------------------------------------------------------------

    def detect_sqli(self, structure, model):
        """Compare *structure* (QS) against *model* (QM).

        Returns a :class:`Detection`; ``step`` reports whether the
        structural (1) or syntactical (2) verification failed.
        """
        if faults_mod.ACTIVE is not None:
            faults_mod.fire("detector.run")
        if len(structure) != len(model):
            return Detection(
                True,
                AttackType.SQLI,
                step=1,
                detail="node count %d != model %d"
                % (len(structure), len(model)),
            )
        for index, (qs_node, qm_node) in enumerate(zip(structure, model)):
            if qs_node.kind != qm_node.kind:
                return Detection(
                    True,
                    AttackType.SQLI,
                    step=2,
                    detail="node %d: <%s, %s> does not match model <%s, %s>"
                    % (
                        index,
                        qs_node.kind,
                        qs_node.value,
                        qm_node.kind,
                        "⊥" if qm_node.value is BOTTOM else qm_node.value,
                    ),
                )
            if qm_node.value is not BOTTOM and \
                    qs_node.value != qm_node.value:
                return Detection(
                    True,
                    AttackType.SQLI,
                    step=2,
                    detail="node %d: element %r does not match model %r"
                    % (index, qs_node.value, qm_node.value),
                )
        return BENIGN

    def matches_any(self, structure, models):
        """``True`` when *structure* matches at least one of *models*
        (call sites may legitimately produce several query shapes)."""
        return any(
            not self.detect_sqli(structure, model) for model in models
        )

    # -- stored injection ------------------------------------------------------

    def detect_stored(self, structure, checkpoint=None):
        """Run the plugins over the user inputs of an INSERT/UPDATE.

        User inputs are the string payloads of the structure's data nodes
        (paper: "check if the user inputs provided to INSERT and UPDATE
        commands are erroneous").  *checkpoint*, when given, is called
        before each plugin run — the SEPTIC watchdog aborts runaway
        plugin work through it.
        """
        if faults_mod.ACTIVE is not None:
            faults_mod.fire("detector.run")
        if structure.command() not in ("INSERT", "UPDATE"):
            return BENIGN
        for node in structure.data_nodes():
            if not isinstance(node.value, str):
                continue
            for plugin in self.plugins:
                if checkpoint is not None:
                    checkpoint()
                if faults_mod.ACTIVE is not None:
                    faults_mod.fire("plugin." + plugin.name)
                if plugin.inspect(node.value):
                    return stored_detection(plugin, node.value)
        return BENIGN


def stored_detection(plugin, value):
    """What the stored-injection check reports when *plugin* flags the
    user input *value* — :meth:`AttackDetector.detect_stored`'s, and
    SEPTIC's when a warm shape's verdict check caught the same input."""
    return Detection(True, plugin.attack_type,
                     detail="input %r flagged by %s"
                     % (_truncate(value), plugin.name),
                     plugin=plugin.name)


def _truncate(text, limit=80):
    return text if len(text) <= limit else text[: limit - 1] + "…"
