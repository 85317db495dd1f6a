"""The QS&QM manager module (paper Figure 1, §II-C1).

The manager owns the query-structure/query-model lifecycle:

* receive the validated item stack from the DBMS and build the QS;
* derive the QM and (with the ID generator) the query ID;
* look the learned QM up in the store, or create and store a new one.

:class:`repro.core.septic.Septic` wires this manager to the attack
detector and the logger, per the figure's data flow.
"""

from repro.core.id_generator import IdGenerator, QueryId
from repro.core.query_model import BOTTOM, QueryModel
from repro.core.query_structure import QueryStructure
from repro.core.resilience import make_lock
from repro.core.store import QMStore
from repro.sqldb.items import DATA_KINDS, Item, Slot

#: capacity of every shape-keyed memo (entries per map).  A client can
#: mint query shapes at will, so none of these maps may grow with them.
SHAPE_MEMO_MAX = 4096


class BoundedMemo(object):
    """A capped dict for pure-function results shared by all sessions.

    Reads are one lock-free ``dict.get`` (bound as :attr:`get`); inserts
    take a lock so the oldest entry can be evicted once the cap is
    reached.  Values must be immutable or treated as such.
    """

    __slots__ = ("_items", "_cap", "_lock", "get")

    def __init__(self):
        self._items = {}
        self._cap = SHAPE_MEMO_MAX
        self._lock = make_lock()
        self.get = self._items.get

    def put(self, key, value):
        items = self._items
        with self._lock:
            if key not in items and len(items) >= self._cap:
                del items[next(iter(items))]
            items[key] = value

    def __len__(self):
        return len(self._items)


_MISSING = object()


def structure_and_shape(stack, values=()):
    """Copy the DBMS stack into a QS and derive its *shape* in one pass.

    The shape is a flat hashable tuple ``(kind, value-or-⊥, ...)`` — the
    node sequence of the query model — so two stacks with equal shapes
    have equal QMs, canonical texts and internal IDs.  Returns
    ``(structure, None)`` when an element value is not a ``str`` (only
    hand-built stacks): ``1``, ``1.0`` and ``True`` hash alike but
    canonicalise differently, so such stacks are derived the long way.
    Data items of a shared statement's stack take their value from the
    execution's *values*; the shape has ⊥ there either way.
    """
    nodes = []
    shape = []
    for item in stack:
        kind = item.kind
        value = item.value
        if kind in DATA_KINDS:
            if value.__class__ is Slot:
                value = value.bound(values)
            nodes.append(Item(kind, value))
            value = BOTTOM
        elif type(value) is not str:
            return QueryStructure.from_stack(stack, values), None
        else:
            nodes.append(Item(kind, value))
        shape.append(kind)
        shape.append(value)
    return QueryStructure(nodes), tuple(shape)


class LookupResult(object):
    """What the manager hands to the detection stage for one query."""

    __slots__ = ("structure", "model_of_query", "query_id", "model",
                 "candidates", "shape")

    def __init__(self, structure, model_of_query, query_id, model,
                 candidates, shape=None):
        #: the QS built from the DBMS stack
        self.structure = structure
        #: the QM derived from this query's own structure
        self.model_of_query = model_of_query
        #: the composed query ID
        self.query_id = query_id
        #: the learned QM under the exact ID (None when unknown)
        self.model = model
        #: learned QMs sharing the external identifier (call site) —
        #: consulted when the exact ID misses
        self.candidates = candidates
        #: the query's shape key (see :func:`structure_and_shape`), or
        #: ``None`` when it has none
        self.shape = shape

    @property
    def known(self):
        return self.model is not None

    def __repr__(self):
        return "LookupResult(id=%s, known=%s, candidates=%d)" % (
            self.query_id.value, self.known, len(self.candidates)
        )


class QSQMManager(object):
    """Builds structures/models and talks to the learned store."""

    def __init__(self, store=None, id_generator=None):
        self.store = store if store is not None else QMStore()
        self.id_generator = (
            id_generator if id_generator is not None else IdGenerator()
        )
        #: shape -> (QueryModel, internal id): both are pure functions
        #: of the shape, so a seen shape is never re-abstracted,
        #: re-canonicalised or re-hashed
        self._shapes = BoundedMemo()
        #: comments tuple -> external id (the regex pass, per call site)
        self._externals = BoundedMemo()

    def receive(self, context, checkpoint=None):
        """Process one validated query: build QS/QM, compose the ID, and
        perform the store lookup.  Returns a :class:`LookupResult`.

        When the engine hands over a pipeline-cache memo
        (``context.memo``), QM abstraction and ID composition are served
        from (or written back to) that memo: both are pure functions of
        the entry's stack shape and comments, which every execution of
        the entry shares.  The QS is this execution's own — it holds the
        values — and is copied out of the stack each time.
        ``query_id`` is published last so a concurrently-read memo is
        either complete or ignored.

        A statement seen for the first time still rarely has a new
        *shape*: its QM and internal ID come from the shape memo, its
        external ID from the comments memo (see :meth:`_derive`).

        *checkpoint*, when given, is the SEPTIC watchdog's deadline
        check — called after derivation and after the store lookup so a
        hang in either stage is caught here.
        """
        memo = getattr(context, "memo", None)
        values = getattr(context, "values", ())
        if memo is not None and memo.ready:
            structure = QueryStructure.from_stack(context.stack, values)
            model_of_query = memo.model_of_query
            shape = memo.shape
            query_id = memo.query_id
        else:
            structure, model_of_query, shape, query_id = self._derive(
                context.stack, context.comments, values
            )
            if memo is not None:
                memo.model_of_query = model_of_query
                memo.shape = shape
                memo.query_id = query_id
        if checkpoint is not None:
            checkpoint()
        model = self.store.get(query_id)
        candidates = []
        if model is None:
            candidates = self.store.models_for_external(query_id.external)
        if checkpoint is not None:
            checkpoint()
        return LookupResult(structure, model_of_query, query_id, model,
                            candidates, shape)

    def _derive(self, stack, comments, values=()):
        """``(QS, QM, shape, query ID)`` of one validated stack."""
        structure, shape = structure_and_shape(stack, values)
        known = self._shapes.get(shape) if shape is not None else None
        if known is None:
            model_of_query = QueryModel.from_structure(structure)
            internal = self.id_generator.internal_id(model_of_query)
            if shape is not None:
                self._shapes.put(shape, (model_of_query, internal))
        else:
            model_of_query, internal = known
        comments = tuple(comments)
        # None is a legitimate external id, so absence needs its own mark
        external = self._externals.get(comments, _MISSING)
        if external is _MISSING:
            external = self.id_generator.external_id(comments)
            self._externals.put(comments, external)
        return structure, model_of_query, shape, QueryId(internal, external)

    def learn(self, lookup):
        """Store the query's model under its ID.

        Returns ``True`` when a new model was created (the demo shows a
        repeated query creates its model only once).  The store gets a
        copy of its own: ``model_of_query`` is shared by every query of
        the shape, and a stored model can be damaged in place (that is
        what the store's fingerprints and journal are for).
        """
        if lookup.query_id in self.store:
            return False
        return self.store.put(
            lookup.query_id,
            QueryModel(Item(node.kind, node.value)
                       for node in lookup.model_of_query),
        )
