"""Query-pipeline cache: text probe, shape entry, late binding.

The paper's Figure 5 argument is that in-DBMS protection costs almost
nothing on top of query processing.  For that to hold at scale the
processing must not redo work: a web application issues a handful of
query *shapes* millions of times with different form values written
into them, and re-parsing, re-validating and re-planning every text
dwarfs the SEPTIC hook it is supposed to showcase.  SEPTIC's query
model is a statement shape with ⊥ for data; a cache entry is the same
idea one stage earlier.

A :class:`CacheEntry` is built once per statement **shape** and is
read-only afterwards: the AST with a ``Param`` slot where each data
literal stood, the validated item stack (``Slot`` in its data items),
SEPTIC's memo and the physical plan.  An execution brings a *values
vector* that evaluator, plan operators and SEPTIC read late; nothing
per-execution is written into the entry, so sessions share it freely.

:class:`PipelineCache` is two LRU maps under one lock: the *entry tier*
holds the records parsing made (shape and prepared-statement entries),
the *text tier* the cheap bindings of raw texts to them, so a flood of
distinct texts evicts only other texts.  Every key carries the
connection charset and the catalog schema version (DDL bumps it, stale
entries stop matching and age out — nothing ever walks the cache to
invalidate), and is one of:

raw SQL text → :class:`TextBinding`
    The first probe: an exact repeat costs one lookup.
``("shape", wildcard key, pins, pinned literals, comments)`` → entry
    Probed on a text miss, after decoding and tokenizing — both can
    change what a text means, so the key is made of the tokens the
    parser would see (:func:`repro.sqldb.lexer.wildcard_key`: the token
    stream with every data literal's value removed).  *Pins* are the
    literal tokens the parser left as literals because a later stage
    reads them by value — LIMIT/OFFSET, ORDER/GROUP BY, a bare literal
    in the select list, lengths in type names; they are matched
    verbatim, so ``LIMIT 10`` and ``LIMIT 20`` are two entries.  So are
    the comments: they carry SEPTIC's external identifier.  Only a
    single SELECT/INSERT/REPLACE/UPDATE/DELETE without ``?`` has a
    shape; DDL, scripts, SHOW ... are cached by text alone.
``("stmt", statement id, parameter types)`` → entry
    A prepared statement: its ``?`` are the slots, the parameters the
    values.  A slot's type decides its item kind and whether an index
    can serve it, hence the types in the key.

Why texts may share an entry under SEPTIC: a shape hit means the token
streams are equal except for the values of slot literals, and neither
parser nor validator branches on such a value, so the item stacks are
equal up to their data nodes — same query model, same query ID.  A text
whose injected content changes the token stream has another key and
never meets the entry of the statement it imitates.
"""

from collections import OrderedDict

from repro import faults as faults_mod
from repro.core.resilience import make_lock
from repro.sqldb.lexer import slot_values, tokenize, wildcard_key

#: wildcard keys whose pinned-literal positions are remembered; cleared
#: whole when full (a client can mint keys at will)
PINS_MAX = 4096

#: entry-tier capacity of a database's pipeline cache (``Database``'s
#: ``cache_size``)
DEFAULT_CACHE_SIZE = 512

#: text-tier capacity per entry-tier slot.  A binding holds ~0.4 KB and
#: an entry ~10 KB (tracemalloc over ``app_replay``'s statements), so at
#: 8 a full text tier costs about a third of a full entry tier
TEXT_TIER_FACTOR = 8


class SepticMemo(object):
    """Per-cache-entry memo of the SEPTIC hook's derived products — the
    only place anything SEPTIC derives from a query outlives it.

    Filled lazily by :meth:`repro.core.manager.QSQMManager.receive` on
    the first hook invocation for the entry; the products depend on the
    statement's shape and comments, never on its values.  ``query_id``
    is written last so concurrent readers either see a complete memo or
    none.

    ``verdict`` is the hook's own slot: after a full run that ended
    *benign against a known model*, :class:`repro.core.septic.Septic`
    leaves there what made that true, and later executions skip the run
    while all of it still holds (see ``Septic._verdict_holds``).  It is
    one immutable object, replaced whole, so a reader never sees half
    of one.
    """

    __slots__ = ("model_of_query", "query_id", "verdict")

    def __init__(self):
        self.model_of_query = None
        self.query_id = None
        self.verdict = None

    @property
    def ready(self):
        return self.query_id is not None


class CacheEntry(object):
    """Everything derived from one statement shape (see the module
    docstring); shared between executions and read-only once filled."""

    __slots__ = ("statements", "comments", "slots", "slot_tags", "stack",
                 "septic_memo", "plan")

    def __init__(self, statements, comments, slots=(), slot_tags=()):
        #: parsed AST statements, ``Param`` nodes where values go
        self.statements = statements
        #: comment bodies (the external-identifier channel)
        self.comments = comments
        #: token positions of the literals that became slots, in slot
        #: order (literal text only; a prepared statement's slots are
        #: its ``?``)
        self.slots = slots
        #: literal type tag of each slot (``int``/``float``/``string``/
        #: ``null``/``bool``) — all that validation and planning may
        #: know about a value
        self.slot_tags = slot_tags
        #: validated item stack — single-statement entries only, filled
        #: on first execution (multi-statement scripts may contain DDL
        #: whose later statements only validate mid-script)
        self.stack = None
        #: SEPTIC's memoized QM/ID products and verdict for this entry
        self.septic_memo = SepticMemo()
        #: memoized physical plan, as ``(planner fingerprint, plan)`` —
        #: single-statement entries only, filled by ``Executor.prepare``
        #: and replaced whenever the planner toggles change (the cache
        #: key pins schema_version, so DDL invalidates the whole entry)
        self.plan = None

    @property
    def single_statement(self):
        return len(self.statements) == 1


class TextBinding(object):
    """What the cache knows about one raw text: the entry of its shape,
    the text's own literals as that entry's values vector, and its
    decoded form."""

    __slots__ = ("entry", "values", "decoded")

    def __init__(self, entry, values, decoded):
        self.entry = entry
        self.values = values
        self.decoded = decoded


class PipelineCache(object):
    """Thread-safe two-tier LRU cache.

    The *entry tier* (*max_entries*) holds what parsing made: shape and
    prepared-statement :class:`CacheEntry` objects, the routers' records
    — and a :class:`TextBinding` whose record nothing else holds (a
    script, DDL, a route that embeds its literals), since it costs what
    an entry costs.  The *text tier* (``TEXT_TIER_FACTOR`` times as
    many) holds the bindings of texts to records resident in the entry
    tier.  A web application's literal-varied traffic is many texts
    over few shapes, and a binding costs a fraction of an entry, so
    texts get the larger tier — and their own: in one LRU a cycle of
    texts longer than the cache never hits, and a flood of new texts
    evicts the shapes, with their plans and SEPTIC verdicts, that every
    later text of the shape needs.  A binding never evicts an entry; an
    entry leaves with its bindings, so the text tier never keeps an
    evicted entry alive.
    """

    def __init__(self, max_entries=DEFAULT_CACHE_SIZE):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.max_texts = TEXT_TIER_FACTOR * max_entries
        #: the entry tier: key -> record
        self._entries = OrderedDict()
        #: the text tier: raw-text key -> :class:`TextBinding`
        self._texts = OrderedDict()
        #: ``id()`` of each record in the entry tier (other than a
        #: binding) -> the text-tier keys of the bindings it serves
        self._served = {}
        #: wildcard key -> token positions of its pinned literals
        self._pins = {}
        self._lock = make_lock()
        #: lookups served without parsing / lookups that had to parse
        self.hits = 0
        self.misses = 0
        #: the hits served by a text binding (no decode, no lexer)
        self.text_hits = 0
        #: the hits that missed by text and were served by shape
        self.shape_hits = 0
        #: records dropped by either tier / bindings dropped
        self.evictions = 0
        self.text_evictions = 0

    # -- by key ------------------------------------------------------------

    @staticmethod
    def _lookup(tier, key, fallback=None):
        """The record under *key* in *tier* — else in *fallback*, when
        given — refreshed, or ``None``; lock held.

        A ``cache.lookup`` fault may raise (the engine degrades to the
        cold path) or corrupt the lookup into a miss — never into a
        wrong entry.
        """
        record = tier.get(key)
        if record is None and fallback is not None:
            tier = fallback
            record = tier.get(key)
        if faults_mod.ACTIVE is not None:
            record = faults_mod.fire("cache.lookup", record,
                                     faults_mod.forget)
        if record is not None:
            tier.move_to_end(key)
        return record

    def get(self, charset, key, schema_version):
        """The entry under *key* — a prepared statement's ``("stmt", id,
        types)`` or a raw SQL text — or ``None`` (counted as hit/miss).
        The entry tier is probed first, so a prepared execution's hit
        costs one probe."""
        with self._lock:
            record = self._lookup(self._entries,
                                  (charset, key, schema_version),
                                  self._texts)
            if record is None:
                self.misses += 1
                return None
            self.hits += 1
            if isinstance(record, TextBinding):
                self.text_hits += 1
                return record.entry
        return record

    def probe(self, charset, raw_sql, schema_version):
        """The first probe: the :class:`TextBinding` of a text seen
        before, else ``None`` — not yet a miss, the shape probe
        follows."""
        with self._lock:
            record = self._lookup(self._texts,
                                  (charset, raw_sql, schema_version),
                                  self._entries)
            if record is not None:
                self.hits += 1
                self.text_hits += 1
            return record

    def put(self, charset, key, schema_version, record):
        """Insert *record* — a :class:`TextBinding` under a raw SQL
        text, anything else under any other key; evicts its tier's
        least-recently-used beyond capacity.  A binding goes to the
        text tier when its entry is in the entry tier, else to the
        entry tier.

        Returns the record actually cached — when two threads race to
        fill the same key, the first insertion wins and both use it, so
        the SEPTIC memo is shared rather than split.
        """
        key = (charset, key, schema_version)
        binding = isinstance(record, TextBinding)
        with self._lock:
            served = self._served.get(id(record.entry)) if binding else None
            if served is None:
                tier, capacity = self._entries, self.max_entries
            else:
                tier, capacity = self._texts, self.max_texts
            existing = tier.get(key)
            if existing is not None:
                tier.move_to_end(key)
                return existing
            tier[key] = record
            if served is not None:
                served.add(key)
            elif not binding:
                self._served.setdefault(id(record), set())
            while len(tier) > capacity:
                self._evict(tier)
            return record

    def _evict(self, tier):
        """Drop *tier*'s least-recently-used record — an entry with the
        bindings it serves; lock held."""
        key, record = tier.popitem(last=False)
        self.evictions += 1
        if tier is self._texts:
            self.text_evictions += 1
            self._served[id(record.entry)].discard(key)
            return
        for text_key in self._served.pop(id(record), ()):
            del self._texts[text_key]
            self.evictions += 1
            self.text_evictions += 1

    # -- by shape ----------------------------------------------------------

    @staticmethod
    def _shape_key(wild, lexed, pins):
        # the pin positions are in the key too, so a hit means exactly
        # this: every token but the entry's slots matched verbatim
        tokens = lexed.tokens
        return ("shape", wild, pins,
                tuple(tokens[pos].value for pos in pins),
                tuple(lexed.comments))

    def probe_shape(self, charset, lexed, schema_version):
        """The second probe, for a tokenized text that missed by text.

        Returns ``(wild, entry, values)``: *wild* is the text's wildcard
        key (``None``: the statement takes no slots), *entry* the shape
        entry serving it or ``None``, *values* its literals in the
        entry's slot order.  Counts the lookup as a hit (and a shape
        hit) or as a miss.
        """
        wild = wildcard_key(lexed.tokens)
        pins = self._pins.get(wild) if wild is not None else None
        key = None
        if pins is not None:
            key = (charset, self._shape_key(wild, lexed, pins),
                   schema_version)
        with self._lock:
            record = (self._lookup(self._entries, key)
                      if key is not None else None)
            if record is None:
                self.misses += 1
                return wild, None, None
            self.hits += 1
            self.shape_hits += 1
        return wild, record, slot_values(lexed.tokens, record.slots)

    def put_shape(self, charset, wild, lexed, schema_version, entry):
        """File *entry*, just parsed from *lexed* with slots, under its
        shape key.  Returns the entry actually cached (see :meth:`put`).
        """
        slots = set(entry.slots)
        # a literal token is the one kind the wildcard key gives no value
        pins = tuple(pos for pos in range(len(wild) // 2)
                     if wild[2 * pos + 1] is None and pos not in slots)
        with self._lock:
            if len(self._pins) >= PINS_MAX and wild not in self._pins:
                self._pins.clear()
            self._pins[wild] = pins
        return self.put(charset, self._shape_key(wild, lexed, pins),
                        schema_version, entry)

    # -- the probe sequence ------------------------------------------------

    def resolve(self, charset, text, schema_version, build, decode=None):
        """The :class:`TextBinding` of *text*, by the one probe sequence
        every front end runs (the engine for pipelines, the shard and
        replica routers for routes): by text; then, decoded
        (``decode(text, charset)``, when the caller's texts need it) and
        tokenized, by shape; and only when both miss ``build(decoded,
        lexed, slots) -> (record, values, by_shape)`` — the caller
        parses, leaving value slots where *slots* says the statement
        takes them, and makes what it caches of a statement.  The record
        is filed under its shape when *by_shape* says nothing in it
        depends on a value, and under the text either way.

        Hits and misses are counted here.  A cache fault never fails a
        statement: a probe that raises is a miss, an insertion that
        raises is skipped (the record is still used).  What *decode*,
        the lexer or *build* raise is the statement's own error.
        """
        try:
            bound = self.probe(charset, text, schema_version)
        except Exception:
            bound = None  # a broken cache degrades to the cold path
        if bound is not None:
            return bound
        decoded = text if decode is None else decode(text, charset)
        lexed = tokenize(decoded)
        try:
            wild, record, values = self.probe_shape(charset, lexed,
                                                    schema_version)
        except Exception:
            wild = record = None  # parse, and keep the record unfiled
        by_shape = False
        if record is None:
            record, values, by_shape = build(decoded, lexed,
                                             wild is not None)
        bound = TextBinding(record, values, decoded)
        try:
            if by_shape and wild is not None:
                # on a racy double-fill the first insertion wins, so
                # every thread shares one record (one SEPTIC memo) per
                # shape
                bound.entry = self.put_shape(charset, wild, lexed,
                                             schema_version, record)
            bound = self.put(charset, text, schema_version, bound)
        except Exception:
            pass  # cache insertion is best-effort
        return bound

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._texts.clear()
            self._served.clear()
            self._pins.clear()

    def __len__(self):
        """Records held, both tiers."""
        with self._lock:
            return len(self._entries) + len(self._texts)

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return (self.hits / total) if total else 0.0

    def stats_dict(self):
        """Counters snapshot (benchmarks and the status display read
        it): ``entries`` and ``evictions`` count both tiers, the
        ``text_`` fields the text tier's share."""
        with self._lock:
            texts = len(self._texts)
            entries = len(self._entries) + texts
        return {
            "entries": entries,
            "max_entries": self.max_entries,
            "text_entries": texts,
            "max_texts": self.max_texts,
            "hits": self.hits,
            "misses": self.misses,
            "text_hits": self.text_hits,
            "shape_hits": self.shape_hits,
            "evictions": self.evictions,
            "text_evictions": self.text_evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self):
        with self._lock:
            entries, texts = len(self._entries), len(self._texts)
        return "PipelineCache(%d/%d entries, %d/%d texts, %.0f%% hits)" % (
            entries, self.max_entries, texts, self.max_texts,
            100.0 * self.hit_rate
        )
