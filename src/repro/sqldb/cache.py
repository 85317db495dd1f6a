"""Query-pipeline cache: memoizes the decode→parse→validate products.

The paper's Figure 5 argument is that in-DBMS protection costs almost
nothing on top of query processing.  For that to hold at scale, the
processing itself must not redo work: a web application issues the same
handful of query *shapes* millions of times, and re-tokenizing,
re-parsing and re-validating each one from scratch dwarfs the SEPTIC
hook it is supposed to showcase.

:class:`PipelineCache` is an LRU map keyed by
``(connection charset, raw SQL text, catalog schema version)`` whose
entries hold everything the pipeline derived from one raw query string:

* the charset-decoded text (the exact bytes SEPTIC must see);
* the parsed AST statements and the comment list (external-ID channel);
* for single-statement entries, the validated item stack; and
* a :class:`SepticMemo` slot in which the QS&QM manager caches the
  query structure, query model and composed query ID, and SEPTIC the
  verdict of its last full run.

Keying on the **schema version** makes invalidation automatic and
race-free: any DDL bumps :attr:`repro.sqldb.engine.Database.schema_version`,
so stale entries simply stop matching and age out of the LRU.  Nothing
ever has to walk the cache to invalidate it.

Correctness notes:

* decoding is a pure function of ``(charset, raw_sql)`` and parsing a
  pure function of the decoded text, so those products are shareable
  across sessions unconditionally;
* validation additionally reads the catalog, hence the schema version
  in the key;
* cached AST statements are *shared* between executions — the executor
  treats statements as read-only (see ``Executor._select``'s copy-free
  UNION handling), and prepared statements clone before binding.
"""

from collections import OrderedDict

from repro import faults as faults_mod
from repro.core.resilience import make_lock


class SepticMemo(object):
    """Per-cache-entry memo of the SEPTIC hook's derived products.

    Filled lazily by :meth:`repro.core.manager.QSQMManager.receive` on
    the first hook invocation for the entry.  ``query_id`` is written
    last so concurrent readers either see a complete memo or none.

    ``verdict`` is the hook's own slot: after a full run that ended
    *benign against a known model*, :class:`repro.core.septic.Septic`
    leaves there what made that true, and repeats of this exact
    statement skip the run while all of it still holds (see
    ``Septic._verdict_holds``).  It is one immutable object, replaced
    whole, so a reader never sees half of one.
    """

    __slots__ = ("structure", "model_of_query", "shape", "query_id",
                 "verdict")

    def __init__(self):
        self.structure = None
        self.model_of_query = None
        self.shape = None
        self.query_id = None
        self.verdict = None

    @property
    def ready(self):
        return self.query_id is not None


class CacheEntry(object):
    """Everything derived from one ``(charset, raw_sql, schema_version)``."""

    __slots__ = ("decoded", "statements", "comments", "stack",
                 "septic_memo", "plan")

    def __init__(self, decoded, statements, comments):
        #: charset-decoded query text (what the parser and SEPTIC see)
        self.decoded = decoded
        #: parsed AST statements (shared, read-only)
        self.statements = statements
        #: comment bodies (the external-identifier channel)
        self.comments = comments
        #: validated item stack — single-statement entries only, filled
        #: on first execution (multi-statement scripts may contain DDL
        #: whose later statements only validate mid-script)
        self.stack = None
        #: SEPTIC's memoized QS/QM/ID products and verdict for this entry
        self.septic_memo = SepticMemo()
        #: memoized physical plan, as ``(planner fingerprint, plan)`` —
        #: single-statement entries only, filled by ``Executor.prepare``
        #: and replaced whenever the planner toggles change (the cache
        #: key pins schema_version, so DDL invalidates the whole entry)
        self.plan = None

    @property
    def single_statement(self):
        return len(self.statements) == 1


class PipelineCache(object):
    """Thread-safe LRU cache of :class:`CacheEntry` objects."""

    def __init__(self, max_entries=512):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries = OrderedDict()
        self._lock = make_lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, charset, raw_sql, schema_version):
        """The entry for the key, or ``None`` (counted as hit/miss).

        A ``cache.lookup`` fault may raise (the engine degrades to the
        cold path) or corrupt the lookup into a miss — never into a
        wrong entry.
        """
        key = (charset, raw_sql, schema_version)
        with self._lock:
            entry = self._entries.get(key)
            if faults_mod.ACTIVE is not None:
                entry = faults_mod.fire("cache.lookup", entry,
                                        faults_mod.forget)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, charset, raw_sql, schema_version, entry):
        """Insert *entry*; evicts the least-recently-used beyond capacity.

        Returns the entry actually cached — when two threads race to fill
        the same key, the first insertion wins and both use it, so the
        SEPTIC memo is shared rather than split.
        """
        key = (charset, raw_sql, schema_version)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            return entry

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __len__(self):
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return (self.hits / total) if total else 0.0

    def stats_dict(self):
        """Counters snapshot (benchmarks and the status display read it)."""
        return {
            "entries": len(self),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self):
        return "PipelineCache(%d/%d entries, %.0f%% hits)" % (
            len(self), self.max_entries, 100.0 * self.hit_rate
        )
