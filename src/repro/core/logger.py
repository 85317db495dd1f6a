"""The logger module — SEPTIC's register of events (paper §II-C4).

An attack record contains the query received, the query identifier, its
query model and (for SQLI) the step of the algorithm that found the
problem.  For a newly observed query the logger registers the received
query, the query model and its identifier.  The demo adds a verbose event
register showing every action taken (query model creation, query
processing, attack detection); ``verbose=True`` enables that behaviour.
"""

from repro import faults as faults_mod
from repro.core.resilience import make_lock


class EventKind(object):
    """Event type tags."""

    MODE_CHANGED = "MODE_CHANGED"
    QS_BUILT = "QS_BUILT"
    ID_GENERATED = "ID_GENERATED"
    QM_FOUND = "QM_FOUND"
    QM_CREATED = "QM_CREATED"
    COMPARISON_OK = "COMPARISON_OK"
    ATTACK_DETECTED = "ATTACK_DETECTED"
    QUERY_DROPPED = "QUERY_DROPPED"
    QUERY_EXECUTED = "QUERY_EXECUTED"
    # -- resilience events (the fail-policy engine) ---------------------
    INTERNAL_FAULT = "INTERNAL_FAULT"
    WATCHDOG_TIMEOUT = "WATCHDOG_TIMEOUT"
    BREAKER_TRIPPED = "BREAKER_TRIPPED"
    BREAKER_RESET = "BREAKER_RESET"
    STORE_RECOVERED = "STORE_RECOVERED"
    MODELS_RELOADED = "MODELS_RELOADED"


#: kinds always recorded, even when not verbose (attack evidence and
#: operator-facing resilience incidents)
_SIGNIFICANT = frozenset(
    [EventKind.MODE_CHANGED, EventKind.QM_CREATED,
     EventKind.ATTACK_DETECTED, EventKind.QUERY_DROPPED,
     EventKind.INTERNAL_FAULT, EventKind.WATCHDOG_TIMEOUT,
     EventKind.BREAKER_TRIPPED, EventKind.BREAKER_RESET,
     EventKind.STORE_RECOVERED, EventKind.MODELS_RELOADED]
)


class EventRecord(object):
    """One logged event."""

    __slots__ = ("kind", "query", "query_id", "model", "attack_type",
                 "step", "detail", "sequence")

    def __init__(self, kind, query=None, query_id=None, model=None,
                 attack_type=None, step=None, detail=None, sequence=0):
        self.kind = kind
        self.query = query
        self.query_id = query_id
        self.model = model
        self.attack_type = attack_type
        self.step = step
        self.detail = detail
        self.sequence = sequence

    def format(self):
        """One-line rendering for the demo's SEPTIC events display."""
        parts = ["[%05d] %-16s" % (self.sequence, self.kind)]
        if self.attack_type:
            parts.append("type=%s" % self.attack_type)
        if self.step is not None:
            parts.append(
                "step=%d(%s)"
                % (self.step, "structural" if self.step == 1 else "syntactical")
            )
        if self.query_id is not None:
            parts.append("id=%s" % self.query_id)
        if self.detail:
            parts.append(self.detail)
        if self.query:
            parts.append("query=%r" % _short(self.query))
        return " ".join(parts)

    def __repr__(self):
        return "EventRecord(%s)" % self.format()


class SepticLogger(object):
    """Collects :class:`EventRecord` objects; optionally tees to a sink.

    The register is bounded by ``max_events``, but attack evidence must
    never be the casualty of the bound: when the register is full, an
    incoming *significant* record (attack detected, query dropped, model
    created, mode changed) evicts the oldest non-significant record —
    or, if only significant records remain, the oldest of those — so the
    newest evidence is always retained.  Incoming non-significant
    records are discarded instead.  Every record lost either way is
    counted in :attr:`dropped_events`.

    Thread-safe: one logger serves every session of a database instance.
    """

    def __init__(self, verbose=False, sink=None, max_events=100000):
        self.verbose = verbose
        #: optional callable invoked with each record's formatted line
        self.sink = sink
        self.max_events = max_events
        self.events = []
        #: count of records lost to the max_events bound (evicted or
        #: discarded), exposed so operators can tell the register is lossy
        self.dropped_events = 0
        self._sequence = 0
        #: non-significant records currently held, and an index below
        #: which every held record is significant — what lets a full
        #: register make room without walking itself (see _evict_for)
        self._expendable = 0
        self._scan_from = 0
        self._lock = make_lock()

    def log(self, kind, skipped=0, **fields):
        """Number and (if kept) record one event, after numbering the
        *skipped* events a quiet caller counted before it (see
        :meth:`skip`)."""
        if faults_mod.ACTIVE is not None:
            faults_mod.fire("logger.record")
        with self._lock:
            self._sequence += skipped + 1
            significant = kind in _SIGNIFICANT
            if not self.verbose and not significant:
                return None
            record = EventRecord(kind, sequence=self._sequence, **fields)
            if len(self.events) < self.max_events:
                self.events.append(record)
                if not significant:
                    self._expendable += 1
            elif significant:
                self._evict_for(record)
            else:
                self.dropped_events += 1
        if self.sink is not None:
            try:
                self.sink(record.format())
            except Exception:
                # a broken display/sink must never break query processing
                self.sink = None
        return record

    def skip(self, count):
        """Advance the sequence past *count* events nobody will record.

        For a caller that knows its next *count* events are all
        non-significant and that this logger is not ``verbose``: they
        would each be numbered and discarded, and this numbers them in
        one step.  (Not a ``logger.record`` fault site: such a caller
        must not be running under a fault plan.)
        """
        with self._lock:
            self._sequence += count

    def _evict_for(self, record):
        """Make room for a significant *record* in a full register: the
        oldest expendable record goes, or — with only evidence held —
        the oldest evidence, so the newest always survives."""
        events = self.events
        victim = 0
        if self._expendable:
            victim = self._scan_from
            while events[victim].kind in _SIGNIFICANT:
                victim += 1
            self._expendable -= 1
            self._scan_from = victim
        elif self._scan_from:
            self._scan_from -= 1
        del events[victim]
        self.dropped_events += 1
        events.append(record)

    # -- queries over the register ----------------------------------------

    def by_kind(self, kind):
        return [e for e in self.events if e.kind == kind]

    @property
    def attacks(self):
        return self.by_kind(EventKind.ATTACK_DETECTED)

    @property
    def new_models(self):
        return self.by_kind(EventKind.QM_CREATED)

    @property
    def drops(self):
        return self.by_kind(EventKind.QUERY_DROPPED)

    def clear(self):
        with self._lock:
            self.events = []
            self.dropped_events = 0
            self._expendable = 0
            self._scan_from = 0

    def export_json(self, path):
        """Dump the event register as JSON (SIEM-style export)."""
        import json

        payload = [
            {
                "sequence": event.sequence,
                "kind": event.kind,
                "query": event.query,
                "query_id": event.query_id,
                "model": (
                    event.model.canonical()
                    if hasattr(event.model, "canonical")
                    else event.model
                ),
                "attack_type": event.attack_type,
                "step": event.step,
                "detail": event.detail,
            }
            for event in self.events
        ]
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1)
        return path

    def __len__(self):
        return len(self.events)


def _short(text, limit=100):
    return text if len(text) <= limit else text[: limit - 1] + "…"
