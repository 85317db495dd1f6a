"""Base class for stored-injection plugins."""


class StoredInjectionPlugin(object):
    """One plugin detects one class of stored injection.

    Subclasses set :attr:`attack_type` (the label the logger records) and
    implement :meth:`suspicious` (step 1, cheap filter) and
    :meth:`confirm` (step 2, precise validation).
    """

    #: label recorded by the logger, e.g. ``"STORED_XSS"``
    attack_type = "STORED"

    #: characters :meth:`suspicious` cannot flag a string without (any
    #: one of them, matched case-sensitively); ``None`` declares none,
    #: and then the plugin runs on every input
    step1_chars = None

    def suspicious(self, text):
        """Step 1: lightweight check for characters/tokens associated with
        this plugin's attack class.  Must be cheap — it runs on every
        INSERT/UPDATE input."""
        raise NotImplementedError

    def confirm(self, text):
        """Step 2: precise validation, run only when step 1 flagged the
        input.  Returns ``True`` when the attack is confirmed."""
        raise NotImplementedError

    def inspect(self, text):
        """Run the two-step scheme; returns ``True`` on a confirmed attack."""
        return bool(text) and self.suspicious(text) and self.confirm(text)

    @property
    def name(self):
        return type(self).__name__

    def __repr__(self):
        return "%s()" % self.name
