"""The QS&QM manager module (paper Figure 1, §II-C1).

The manager owns the query-structure/query-model lifecycle:

* receive the validated item stack from the DBMS and build the QS;
* derive the QM and (with the ID generator) the query ID;
* look the learned QM up in the store, or create and store a new one.

:class:`repro.core.septic.Septic` wires this manager to the attack
detector and the logger, per the figure's data flow.
"""

from repro.core.id_generator import IdGenerator
from repro.core.query_model import QueryModel
from repro.core.query_structure import QueryStructure
from repro.core.store import QMStore
from repro.sqldb.items import Item


class LookupResult(object):
    """What the manager hands to the detection stage for one query."""

    __slots__ = ("structure", "model_of_query", "query_id", "model",
                 "candidates")

    def __init__(self, structure, model_of_query, query_id, model,
                 candidates):
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

    def receive(self, context, checkpoint=None):
        """Process one validated query: build QS/QM, compose the ID, and
        perform the store lookup.  Returns a :class:`LookupResult`.

        When the engine hands over a pipeline-cache memo
        (``context.memo``), QM abstraction and ID composition are served
        from (or written back to) that memo — the only place a derived
        product outlives the query: both are pure functions of the
        entry's stack shape and comments, which every execution of the
        entry shares.  The QS is this execution's own — it holds the
        values — and is copied out of the stack each time.
        ``query_id`` is published last so a concurrently-read memo is
        either complete or ignored.

        *checkpoint*, when given, is the SEPTIC watchdog's deadline
        check — called after derivation and after the store lookup so a
        hang in either stage is caught here.
        """
        memo = getattr(context, "memo", None)
        structure = QueryStructure.from_stack(
            context.stack, getattr(context, "values", ()))
        if memo is not None and memo.ready:
            model_of_query = memo.model_of_query
            query_id = memo.query_id
        else:
            model_of_query = QueryModel.from_structure(structure)
            query_id = self.id_generator.generate(context.comments,
                                                  model_of_query)
            if memo is not None:
                memo.model_of_query = model_of_query
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
                            candidates)

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
