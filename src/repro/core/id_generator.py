"""The ID generator module (paper §II-C2).

A query's ID is the composition of up to two identifiers:

* an **external identifier** — optional, arbitrary programmer/SSLE-defined
  value transported to the server inside a ``/* ... */`` comment
  concatenated with the query.  Our web layer's ``Zend`` shim injects
  call-site identifiers automatically (the paper's "minimal and optional
  support at server-side language engine level");
* an **internal identifier** — mandatory, produced by SEPTIC from the
  query model to ensure uniqueness (an MD5 over the QM canonical form).

The full ID is the concatenation of both, or just the internal identifier
when no external one is present.
"""

import hashlib
import re

#: Comments carrying external identifiers look like ``septic:<value>``;
#: a bare comment is also accepted as an external ID when it matches this
#: conservative token pattern (so seed-script comments don't become IDs).
_EXTERNAL_RE = re.compile(r"^septic:(?P<value>\S+)$")
_BARE_TOKEN_RE = re.compile(r"^[A-Za-z0-9_.:/@-]{1,120}$")


class QueryId(object):
    """The composed query identifier."""

    __slots__ = ("external", "internal", "value")

    def __init__(self, internal, external=None):
        self.internal = internal
        self.external = external
        #: the full ID (concatenation of both identifiers), composed
        #: once: the hook reads it for every store lookup and log call
        self.value = (
            "%s§%s" % (external, internal) if external is not None
            else internal
        )

    def __eq__(self, other):
        return isinstance(other, QueryId) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return "QueryId(%r)" % self.value


class IdGenerator(object):
    """Produces :class:`QueryId` objects for incoming queries."""

    def __init__(self, accept_bare_comments=True):
        #: whether a bare token comment counts as an external identifier
        self.accept_bare_comments = accept_bare_comments

    def external_id(self, comments):
        """Retrieve the external identifier from the query's comments.

        The first comment explicitly marked ``septic:...`` wins; otherwise
        the first bare token comment is used (if enabled).
        """
        fallback = None
        for comment in comments:
            match = _EXTERNAL_RE.match(comment.strip())
            if match:
                return match.group("value")
            if fallback is None and self.accept_bare_comments and \
                    _BARE_TOKEN_RE.match(comment.strip()):
                fallback = comment.strip()
        return fallback

    def internal_id(self, model):
        """Hash the query model's canonical form (uniqueness guarantee)."""
        digest = hashlib.md5(
            model.canonical().encode("utf-8")
        ).hexdigest()
        return digest[:16]

    def generate(self, comments, model):
        """Compose the full query ID for a query with *comments* whose
        (current) query model is *model*."""
        return QueryId(
            internal=self.internal_id(model),
            external=self.external_id(comments),
        )
