"""The "QM learned" store (paper Figure 1), with integrity and recovery.

Maps full query IDs to query models, with a secondary index by external
identifier so that a structurally-mutated query (whose internal hash no
longer matches anything) can still be confronted with the models learned
for its call site.  Models live in memory and can be persisted to a JSON
file — the demo restarts MySQL between training and normal mode and the
"persistent query models are loaded" (paper §IV-D).

A corrupted QM is worse than a missing one: SEPTIC would *silently
mis-classify* — flagging legitimate queries as attacks (a corrupted node
no longer matches) or, worse, letting attacks match a mangled model.
The store therefore keeps, per entry:

* a fast in-memory **fingerprint** (``hash()`` over the node tuples),
  verified on access when :attr:`paranoid` is set or a fault plan is
  armed (chaos runs always verify);
* an append-only **journal** of pristine serialized models with CRC32
  checksums, from which a corrupted or partially-written entry is
  rebuilt (:meth:`_recover`) instead of being served;
* CRC32 **checksums in the persistence file**, so a bit-rotted JSON
  store is detected at load time and the damaged entries are dropped,
  not trusted.

``verify_integrity()`` sweeps the whole store on demand;
``snapshot()``/``restore()`` give O(1) whole-store recovery points;
``rebuild_from_journal()`` reconstructs everything from the journal.
"""

import json
import os
import threading
import zlib

from repro import faults as faults_mod
from repro.core.query_model import QueryModel


def _crc(model):
    """Stable cross-process checksum of a model (used by journal/file)."""
    return zlib.crc32(model.canonical().encode("utf-8")) & 0xFFFFFFFF


class _ReadView(object):
    """One immutable copy-on-write snapshot of the store's lookup state.

    Readers load ``store._reads`` once (a single atomic reference read)
    and then see a mutually-consistent ``models``/``by_external``/
    ``fingerprints`` trio, no matter how many writers swap new views in
    underneath.  Views are never mutated after publication — writers
    build a fresh one under the store lock and assign it in one step.
    """

    __slots__ = ("models", "by_external", "fingerprints")

    def __init__(self, models, by_external, fingerprints):
        self.models = models
        self.by_external = by_external
        self.fingerprints = fingerprints


_EMPTY_VIEW = _ReadView({}, {}, {})


class QMStore(object):
    """In-memory store of learned query models with JSON persistence.

    Thread-safe: one store serves every session of a database instance,
    and :meth:`put` must decide "new model?" atomically so concurrent
    learners of the same query count exactly one creation.
    """

    def __init__(self, path=None, paranoid=False, on_recover=None,
                 lsn_provider=None, autosave=False):
        #: full ID value -> QueryModel
        self._models = {}
        #: external identifier -> list of full ID values
        self._by_external = {}
        #: full ID value -> in-memory fingerprint of the pristine model
        self._fingerprints = {}
        #: append-only log of (full, external, model_dict, crc32)
        self._journal = []
        #: optional persistence file
        self._path = path
        #: verify fingerprints on *every* get (otherwise only while a
        #: fault plan is armed, and on explicit verify_integrity sweeps)
        self.paranoid = paranoid
        #: callback(full_id) invoked after an entry is rebuilt (SEPTIC
        #: wires its logger/stats here)
        self.on_recover = on_recover
        #: corrupted entries detected (served-recovered or dropped)
        self.corruption_detected = 0
        #: entries successfully rebuilt from the journal
        self.recoveries = 0
        #: persisted entries rejected by the load-time checksum
        self.load_rejected = 0
        #: callback() → current WAL LSN; when set, every save stamps the
        #: payload with it so a restarted server knows which data-plane
        #: state its models were trained against
        self.lsn_provider = lsn_provider
        #: persist on every new model (kill-at-any-point durability for
        #: trained models; requires ``path``)
        self.autosave = autosave
        #: the WAL watermark read back by the last load (0 = none)
        self.wal_lsn = 0
        self._lock = threading.RLock()
        #: the published immutable read view; swapped (never mutated)
        #: by every completed write, so the SEPTIC hot read path needs
        #: no lock at all
        self._reads = _EMPTY_VIEW
        #: read views published so far (testability/observability)
        self.snapshot_swaps = 0

    def _publish(self):
        """Swap in a fresh read view (caller holds the lock).

        The copy makes writes O(n) in store size, which is the right
        trade here: models are learned once per distinct query (rare
        after warm-up) while every processed query reads."""
        self._reads = _ReadView(
            dict(self._models),
            {ext: tuple(fulls) for ext, fulls in self._by_external.items()},
            dict(self._fingerprints),
        )
        self.snapshot_swaps += 1

    def __len__(self):
        return len(self._models)

    def __contains__(self, query_id):
        return query_id.value in self._models

    def get(self, query_id):
        """The model stored under the full ID, or ``None``.

        Lock-free: reads one published :class:`_ReadView` reference.
        When integrity verification is active (``paranoid`` or a fault
        plan armed), a fingerprint mismatch triggers journal recovery
        instead of returning the damaged model.
        """
        full = query_id.value
        view = self._reads
        model = view.models.get(full)
        if model is None:
            return None
        verify = self.paranoid
        if faults_mod.ACTIVE is not None:
            model = faults_mod.fire("store.get", model,
                                    faults_mod.corrupt_model)
            verify = True
        if verify:
            fingerprint = view.fingerprints.get(full)
            if fingerprint is not None and _fingerprint(model) != fingerprint:
                model = self._recover(full)
        return model

    def models_for_external(self, external):
        """All models learned for an external identifier (call site).

        Lock-free: a single read view gives a consistent pairing of the
        external index and the model table."""
        if external is None:
            return []
        view = self._reads
        models = [
            view.models.get(full)
            for full in view.by_external.get(external, ())
        ]
        # recovery may have dropped unrecoverable entries; skip them
        return [model for model in models if model is not None]

    def put(self, query_id, model):
        """Store *model* under *query_id*.

        Returns ``True`` when a new model was added, ``False`` when a model
        with this ID already existed (the demo shows a query processed
        twice creates its model only once).  The pristine model is
        journaled before anything can corrupt it, so a fault between
        journal and table is recoverable.
        """
        full = query_id.value
        with self._lock:
            if full in self._models:
                return False
            fingerprint = _fingerprint(model)
            pristine = model.to_dict()
            checksum = _crc(model)
            if faults_mod.ACTIVE is not None:
                # may raise (raise/flaky) — nothing stored, nothing
                # journaled — or corrupt the model in place, which the
                # fingerprint (taken above) will catch on access
                model = faults_mod.fire("store.put", model,
                                        faults_mod.corrupt_model)
            self._journal.append((full, query_id.external, pristine,
                                  checksum))
            self._models[full] = model
            self._fingerprints[full] = fingerprint
            if query_id.external is not None:
                self._by_external.setdefault(query_id.external, []).append(
                    full
                )
            self._publish()
            if self.autosave and self._path is not None:
                self.save()
            return True

    def clear(self):
        with self._lock:
            self._models.clear()
            self._by_external.clear()
            self._fingerprints.clear()
            del self._journal[:]
            self._publish()

    def ids(self):
        return sorted(self._reads.models)

    # -- integrity & recovery ----------------------------------------------

    def _recover(self, full):
        """Rebuild the entry *full* from the newest valid journal record;
        drop it entirely when no valid record exists (an unknown query is
        safer than a corrupted model).  Returns the recovered model or
        ``None``."""
        with self._lock:
            self.corruption_detected += 1
            for entry in reversed(self._journal):
                record_full, _external, model_dict, checksum = entry
                if record_full != full:
                    continue
                model = QueryModel.from_dict(model_dict)
                if _crc(model) != checksum:
                    continue  # the journal record itself is damaged
                self._models[full] = model
                self._fingerprints[full] = _fingerprint(model)
                self.recoveries += 1
                callback = self.on_recover
                self._publish()
                break
            else:
                # unrecoverable: forget the entry (and its external index)
                self._models.pop(full, None)
                self._fingerprints.pop(full, None)
                for fulls in self._by_external.values():
                    if full in fulls:
                        fulls.remove(full)
                self._publish()
                return None
        if callback is not None:
            callback(full)
        return model

    def verify_integrity(self):
        """Sweep every entry; recover (or drop) corrupted ones.

        Returns the list of full IDs that failed verification.
        """
        with self._lock:
            damaged = [
                full
                for full, model in self._models.items()
                if _fingerprint(model) != self._fingerprints.get(full)
            ]
        for full in damaged:
            self._recover(full)
        return damaged

    def integrity_stats(self):
        with self._lock:
            return {
                "models": len(self._models),
                "journal_records": len(self._journal),
                "corruption_detected": self.corruption_detected,
                "recoveries": self.recoveries,
                "load_rejected": self.load_rejected,
            }

    def snapshot(self):
        """A self-contained recovery point (same layout as :meth:`save`)."""
        with self._lock:
            return self._payload()

    def restore(self, snapshot):
        """Replace the contents from a :meth:`snapshot` payload; entries
        failing their checksum are dropped.  Returns models restored."""
        return self._install(snapshot, source="<snapshot>")

    def rebuild_from_journal(self):
        """Reconstruct the whole store from the journal (first write per
        ID wins, matching :meth:`put` semantics).  Returns models kept."""
        with self._lock:
            journal = list(self._journal)
            self._models.clear()
            self._by_external.clear()
            self._fingerprints.clear()
            for full, external, model_dict, checksum in journal:
                if full in self._models:
                    continue
                model = QueryModel.from_dict(model_dict)
                if _crc(model) != checksum:
                    continue
                self._models[full] = model
                self._fingerprints[full] = _fingerprint(model)
                if external is not None:
                    self._by_external.setdefault(external, []).append(full)
            self._publish()
            return len(self._models)

    # -- persistence -------------------------------------------------------

    def _payload(self):
        """The serialized store (caller holds the lock)."""
        payload = {
            "models": {
                full: model.to_dict()
                for full, model in self._models.items()
            },
            "externals": {
                ext: list(fulls)
                for ext, fulls in self._by_external.items()
            },
            "checksums": {
                full: _crc(model)
                for full, model in self._models.items()
            },
        }
        if self.lsn_provider is not None:
            payload["wal_lsn"] = self.lsn_provider()
        return payload

    def save(self, path=None):
        """Persist all models as JSON; returns the path written."""
        target = path or self._path
        if target is None:
            raise ValueError("no persistence path configured")
        with self._lock:
            payload = self._payload()
        tmp = target + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        return target

    def load(self, path=None):
        """Load models from JSON, replacing the in-memory contents.

        Missing file is not an error (first boot has nothing to load);
        returns the number of models loaded.  Entries whose persisted
        checksum no longer matches are dropped and counted in
        :attr:`load_rejected` — a bit-rotted model must not be trusted.
        """
        source = path or self._path
        if source is None:
            raise ValueError("no persistence path configured")
        if not os.path.exists(source):
            return 0
        with open(source) as handle:
            try:
                payload = json.load(handle)
            except ValueError as exc:
                raise ValueError(
                    "QM store file %r is corrupted: %s" % (source, exc)
                )
        return self._install(payload, source=source)

    def _install(self, payload, source):
        """Validate *payload* and swap it in (shared by load/restore)."""
        try:
            models = {
                full: QueryModel.from_dict(data)
                for full, data in payload["models"].items()
            }
            externals = {
                ext: list(fulls)
                for ext, fulls in payload["externals"].items()
            }
            checksums = payload.get("checksums", {})
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                "QM store file %r has an unexpected layout: %s"
                % (source, exc)
            )
        rejected = [
            full for full, model in models.items()
            if full in checksums and _crc(model) != checksums[full]
        ]
        for full in rejected:
            del models[full]
        with self._lock:
            self.wal_lsn = payload.get("wal_lsn", 0)
            self._models = models
            self._by_external = {
                ext: [full for full in fulls if full in models]
                for ext, fulls in externals.items()
            }
            self._fingerprints = {
                full: _fingerprint(model)
                for full, model in models.items()
            }
            # re-seed the journal so recovery works for loaded models too
            self._journal = [
                (full, None, model.to_dict(), _crc(model))
                for full, model in models.items()
            ]
            self.load_rejected += len(rejected)
            self._publish()
            return len(self._models)


def _fingerprint(model):
    """Fast in-process integrity fingerprint (hash over node tuples)."""
    return hash(tuple((node.kind, node.value) for node in model.nodes))
