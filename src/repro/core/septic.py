"""The SEPTIC facade: modules wired per Figure 1, modes per Table I.

``Septic.process_query`` is the hook the DBMS calls for every validated
query, right before execution:

* **training mode** — build QS, derive QM, generate ID, store the model
  (once per distinct ID), log, let the query execute;
* **normal mode** (*prevention* or *detection*) — build QS, generate ID,
  look the QM up; if found, run the attack detector (SQLI comparison +
  stored-injection plugins) and, on attack, log it and (prevention only)
  drop the query by raising :class:`repro.sqldb.errors.QueryBlocked`;
  if no QM is known for the ID, learn it incrementally and log the event
  for later administrator review.

The two detection switches (``detect_sqli`` / ``detect_stored``) give the
four configurations evaluated in the paper's Figure 5 (NN, YN, NY, YY).

``process_query`` is additionally a **crash-containment boundary**: an
internal SEPTIC fault (broken plugin, corrupted store, wedged logger,
watchdog timeout) never escapes raw.  It is logged, counted, fed to the
circuit breaker, and converted into the configured fail-policy outcome —
``fail_closed`` drops the query like an attack, ``fail_open`` lets it
run detection-style (see :mod:`repro.core.resilience`).

One memo keeps the hook cheap without changing a verdict: a
pipeline-cache entry (one statement shape, executed with many values)
keeps the query model and ID the manager derived from it, and
remembers that its last full run ended benign against a known model,
and with what (:class:`_Verdict`); while all of that still holds, the
next execution costs the check plus the run's bookkeeping.  A verdict
is only left where it serves every value the shape can carry: the
learned model has ⊥ for every data node (a model that pins a literal
leaves none, and is compared every time).  Where the run's
stored-injection plugins read the values (INSERT/UPDATE/REPLACE under
``detect_stored``) the verdict names the slots they read, and the check
runs the same plugins over this execution's strings in those slots (a
string with none of the characters their step 1 needs skips them).  A
plugin hit there decides the query as the full run would: the
comparison would pass (the model has ⊥ wherever values go), and the
first value × plugin flagged in slot order is the detection
``detect_stored`` would report — so it is reported and dropped
without the run.  A plugin that raises takes the full run, which
contains the fault.  Attacks (which leave no verdict), unknown and
candidate-matched queries, TRAINING and every contained fault always
take the full path; so does everything when there is no pipeline
cache.
"""

from repro import faults as faults_mod
from repro.core import resilience
from repro.core.detector import (BENIGN, AttackDetector, AttackType,
                                 step1_prefilter, stored_detection)
from repro.core.id_generator import IdGenerator
from repro.core.logger import EventKind, SepticLogger
from repro.core.manager import QSQMManager
from repro.core.query_model import BOTTOM
from repro.core.resilience import BreakerState, FailPolicy
from repro.core.store import QMStore
from repro.sqldb.errors import QueryBlocked
from repro.sqldb.items import DATA_KINDS, Slot


class Mode(object):
    """Operation modes (paper §II-E, Table I)."""

    TRAINING = "TRAINING"
    PREVENTION = "PREVENTION"
    DETECTION = "DETECTION"

    ALL = (TRAINING, PREVENTION, DETECTION)


class SepticConfig(object):
    """Tunable switches.

    ``detect_sqli`` / ``detect_stored`` are the Y/N pair of Figure 5;
    ``incremental_learning`` controls whether unknown queries are learned
    in normal mode (the paper's second learning path, the feature
    distinguishing SEPTIC from GreenSQL/Percona, §II-B).
    """

    __slots__ = ("detect_sqli", "detect_stored", "incremental_learning")

    def __init__(self, detect_sqli=True, detect_stored=True,
                 incremental_learning=True):
        self.detect_sqli = detect_sqli
        self.detect_stored = detect_stored
        self.incremental_learning = incremental_learning

    @classmethod
    def from_flags(cls, flags):
        """Build from the paper's two-letter notation: ``"NN"``, ``"YN"``,
        ``"NY"`` or ``"YY"`` (SQLI first, stored injection second)."""
        if len(flags) != 2 or any(f not in "YN" for f in flags.upper()):
            raise ValueError("flags must be two of Y/N, e.g. 'YN'")
        flags = flags.upper()
        return cls(detect_sqli=flags[0] == "Y", detect_stored=flags[1] == "Y")

    @property
    def flags(self):
        return ("Y" if self.detect_sqli else "N") + (
            "Y" if self.detect_stored else "N"
        )


class SepticStats(object):
    """Counters exposed for the evaluation harness.

    Increments happen under ``_lock`` (:meth:`bump`, or a hot path's
    own critical section): a ``+=`` on an attribute is a
    read-modify-write, and with the hook running on many
    sessions concurrently lost updates would make the paper's exact
    counts (Table I, Figure 5) non-reproducible.
    """

    _COUNTERS = ("queries_processed", "models_learned", "attacks_detected",
                 "queries_dropped", "sqli_detected", "stored_detected",
                 "unknown_queries",
                 # resilience counters (all zero unless SEPTIC itself
                 # faulted — the fault-matrix tests assert exact values)
                 "internal_faults", "watchdog_timeouts", "breaker_trips",
                 "breaker_resets", "fail_open_passes", "fail_closed_drops",
                 "store_recoveries")

    __slots__ = _COUNTERS + ("_lock",)

    def __init__(self, lock):
        #: the event register's lock (:class:`Septic` passes it): the
        #: verdict hit counts its query and numbers its events in one
        #: critical section
        self._lock = lock
        for name in self._COUNTERS:
            setattr(self, name, 0)

    def bump(self, name, amount=1):
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def as_dict(self):
        with self._lock:
            return {name: getattr(self, name) for name in self._COUNTERS}


class _Verdict(object):
    """Why one cached statement's last full run ended benign against a
    known model — everything that run's outcome depended on, as read
    *before* it was used (immutable; see ``Septic._verdict_holds``)."""

    __slots__ = ("full_id", "model", "mode", "detect_sqli", "detect_stored",
                 "incremental_learning", "detector", "plugins", "prefilter",
                 "events", "slots")

    def __init__(self, full_id, model, basis, events, slots):
        self.full_id = full_id
        #: the learned model object the store served for the ID
        self.model = model
        # what :meth:`Septic._basis` returned to the run, field by field
        (self.mode, self.detect_sqli, self.detect_stored,
         self.incremental_learning, self.detector, plugins) = basis
        #: a list, so the check compares it with the detector's own
        #: list without copying either
        self.plugins = list(plugins)
        #: the plugins' step-1 characters as one pattern, or None (no
        #: slots, or a plugin that declares none): a string it misses
        #: passes every plugin without running them
        self.prefilter = step1_prefilter(plugins) if slots else None
        #: non-significant events the run logged (all of its events)
        self.events = events
        #: indices of the value slots the run's stored-injection plugins
        #: inspected; every execution's strings there face them again
        self.slots = slots


def _inspect_inputs(verdict, values):
    """Run the plugins of the verdict's run over every string this
    execution puts in a slot that run inspected (pinned literals are
    part of the entry's key: that run saw them, and they passed).

    :data:`BENIGN` when every string passes; else the :class:`Detection`
    ``detect_stored`` would report — the first string a plugin flags,
    in slot order (which is data-node order), and the first plugin that
    flags it.  ``None`` when a plugin raises: the full run contains its
    fault."""
    plugins = verdict.plugins
    prefilter = verdict.prefilter
    try:
        for index in verdict.slots:
            value = values[index]
            if isinstance(value, str) and (
                    prefilter is None or prefilter.search(value)):
                for plugin in plugins:
                    if plugin.inspect(value):
                        return stored_detection(plugin, value)
    except Exception:
        return None
    return BENIGN


def _abstracts_all_data(model):
    """Every data node of *model* is ⊥ (true of every model SEPTIC
    derives; a hand-written one may pin a literal)."""
    return all(node.value is BOTTOM for node in model
               if node.kind in DATA_KINDS)


class Septic(object):
    """The mechanism, ready to be plugged into a Database's hook point."""

    def __init__(self, mode=Mode.TRAINING, config=None, store=None,
                 logger=None, detector=None, id_generator=None,
                 fail_policy=FailPolicy.CLOSED, breaker=None,
                 watchdog_budget=5.0):
        self._mode = mode
        # "X if X is not None else default": several of these collaborators
        # define __len__, so an empty one is falsy and `X or default()`
        # would silently discard it.
        self.config = config if config is not None else SepticConfig()
        self.manager = QSQMManager(
            store=store if store is not None else QMStore(),
            id_generator=(
                id_generator if id_generator is not None else IdGenerator()
            ),
        )
        self.logger = logger if logger is not None else SepticLogger()
        self.detector = detector if detector is not None else AttackDetector()
        self.stats = SepticStats(self.logger._lock)
        if fail_policy not in FailPolicy.ALL:
            raise ValueError("unknown fail policy %r" % fail_policy)
        #: what a contained internal fault does to the in-flight query
        self.fail_policy = fail_policy
        #: trips PREVENTION down to DETECTION after repeated faults
        self.breaker = (
            breaker if breaker is not None else resilience.CircuitBreaker()
        )
        #: per-query virtual-clock budget (seconds); None disables
        self.watchdog_budget = watchdog_budget
        #: the database whose data dir co-persists the store (set by
        #: :meth:`bind_store`) — its retry stats ride ``status()``
        self.bound_database = None
        # a recovered store entry is an operator-relevant incident
        self.store.on_recover = self._store_recovered

    # the manager owns the store and ID generator (Figure 1); keep the
    # flat attributes as aliases for the public API
    @property
    def store(self):
        return self.manager.store

    @property
    def id_generator(self):
        return self.manager.id_generator

    # -- durability (co-persist the models with the data plane) ----------

    def bind_store(self, database, path=None, autosave=True):
        """Co-persist the QM store with *database*'s data directory.

        Wires the store to ``<data_dir>/qm_store.json`` (or *path*),
        stamps every save with the database's durable LSN and — with
        *autosave* — persists on every new model, so a kill at any
        point leaves the trained models on disk alongside the WAL they
        were trained against.  Loads whatever the file already holds
        and returns the number of models loaded.
        """
        store = self.store
        if path is None:
            if database.data_dir is None:
                raise ValueError(
                    "database has no data_dir; attach a WAL first or "
                    "pass an explicit path"
                )
            from repro.sqldb import wal as wal_mod

            path = wal_mod.qm_store_path(database.data_dir)
        self.bound_database = database
        store._path = path
        store.lsn_provider = lambda: database.durable_lsn
        store.autosave = autosave
        return self.reload_models()

    def reload_models(self):
        """Re-load persisted query models (the restart path: the demo
        restarts MySQL between training and normal mode, §IV-D).
        Returns the number of models loaded; 0 when nothing persists."""
        store = self.store
        if store._path is None:
            return 0
        count = store.load()
        self._safe_log(
            EventKind.MODELS_RELOADED,
            detail="%d models, wal_lsn=%d" % (count, store.wal_lsn),
        )
        return count

    # -- mode management ---------------------------------------------------

    @property
    def mode(self):
        return self._mode

    @mode.setter
    def mode(self, new_mode):
        if new_mode not in Mode.ALL:
            raise ValueError("unknown mode %r" % new_mode)
        self._mode = new_mode
        self.logger.log(EventKind.MODE_CHANGED, detail="mode=%s" % new_mode)

    @property
    def effective_mode(self):
        """The mode actually applied to this query: an OPEN circuit
        breaker degrades PREVENTION to DETECTION (availability first)
        until the cool-down closes it again."""
        if self._mode == Mode.PREVENTION and self.breaker.is_open:
            return Mode.DETECTION
        return self._mode

    def status(self):
        """Snapshot for the demo's "SEPTIC status" display.

        When the store is bound to a database (:meth:`bind_store`) the
        connector's transient-retry counters ride along under
        ``retry_stats``, so detection stats and retry pressure show up
        in one place."""
        database = getattr(self, "bound_database", None)
        retry_stats = getattr(database, "retry_stats", None)
        storage_stats = getattr(database, "storage_stats", None)
        net_stats = getattr(database, "net_stats", None)
        pipeline_cache = getattr(database, "pipeline_cache", None)
        return {
            "retry_stats": (
                retry_stats.as_dict() if retry_stats is not None else None
            ),
            # socket front-end connection counters (open/active/pooled/
            # rejected and friends); None until a NetServer is started
            # over the bound database
            "net": (net_stats() if callable(net_stats) else None),
            # buffer-pool / pager / scrubber accounting (None for the
            # in-memory backend): pages_cached, evictions, dirty_flushes,
            # scrub_repairs and friends
            "storage": (
                storage_stats() if storage_stats is not None else None
            ),
            # pipeline-cache counters: hits (served without parsing, of
            # which text_hits by a text binding and shape_hits by
            # shape), misses (parsed); text_entries / text_evictions are
            # the text tier's size and churn
            "pipeline_cache": (
                pipeline_cache.stats_dict()
                if pipeline_cache is not None else None
            ),
            "mode": self._mode,
            "effective_mode": self.effective_mode,
            "detect_sqli": self.config.detect_sqli,
            "detect_stored": self.config.detect_stored,
            "incremental_learning": self.config.incremental_learning,
            "fail_policy": self.fail_policy,
            "watchdog_budget": self.watchdog_budget,
            "breaker": self.breaker.state_dict(),
            "store_integrity": self.store.integrity_stats(),
            "models": len(self.store),
            "plugins": [plugin.name for plugin in self.detector.plugins],
            "stats": self.stats.as_dict(),
        }

    # -- the DBMS hook -------------------------------------------------------

    def process_query(self, context):
        """Inspect one validated query (called by the engine).

        Raises :class:`QueryBlocked` to drop the query (prevention mode,
        or a contained internal fault under the fail-closed policy);
        returns normally to let execution proceed.  No other exception
        ever escapes: this is the crash-containment boundary.
        """
        stats = self.stats
        memo = context.memo
        verdict = memo.verdict if memo is not None else None
        detection = BENIGN
        if verdict is not None and self._verdict_holds(verdict) and (
                not verdict.slots or (detection := _inspect_inputs(
                    verdict, context.values)) is not None):
            logger = self.logger
            # (the stats' lock is the register's: see __init__)
            with logger._lock:
                stats.queries_processed += 1
                if detection is BENIGN:
                    # all the run not made would leave behind: its event
                    # numbers (SepticLogger.skip, inline)
                    logger._sequence += verdict.events
            if detection is not BENIGN:
                # a stored payload in a shape whose verdict holds: the
                # full run would pass the comparison (the model has ⊥
                # wherever values go), number the verdict's events but
                # QUERY_EXECUTED, then report this very detection
                try:
                    self._handle_attack(detection, verdict.full_id,
                                        context, verdict.model,
                                        verdict.events - 1)
                except QueryBlocked:
                    raise
                except Exception as exc:    # contained as the run would
                    self._contain(exc, context, watchdog=False)
            return
        with stats._lock:       # bump(), without its lookups by name
            stats.queries_processed += 1
        self.breaker.on_query()
        checkpoint = None
        if faults_mod.ACTIVE is not None and self.watchdog_budget:
            # the virtual clock only moves under an armed fault plan (or
            # explicitly instrumented plugins), so the watchdog costs
            # nothing — and can never fire — in normal operation
            checkpoint = resilience.Watchdog(self.watchdog_budget).check
        try:
            self._process(context, checkpoint)
        except QueryBlocked:
            # a verdict, not a fault: the mechanism worked
            self.breaker.record_success()
            raise
        except resilience.WatchdogTimeout as exc:
            self._contain(exc, context, watchdog=True)
        except Exception as exc:
            self._contain(exc, context, watchdog=False)
        else:
            if self.breaker.record_success():
                self.stats.bump("breaker_resets")
                self._safe_log(EventKind.BREAKER_RESET,
                               detail="circuit closed after trial query")

    # -- internals --------------------------------------------------------------

    def _process(self, context, checkpoint):
        lookup = self.manager.receive(context, checkpoint)
        logger = self.logger
        # Without a fault plan to fire at ``logger.record`` or a verbose
        # register to keep them, the run's routine events (QS_BUILT,
        # ID_GENERATED, QM_FOUND, COMPARISON_OK, QUERY_EXECUTED) would
        # each be numbered and discarded: they are counted here instead,
        # and numbered in one step — with the next event the register
        # keeps, or when the run ends, however it ends.
        quiet = faults_mod.ACTIVE is None and not logger.verbose
        routine = 0
        try:
            if quiet:
                routine = 2             # QS_BUILT, ID_GENERATED
            else:
                # (a prepared execution renders its text on demand: not
                # for a record the register is about to discard)
                logger.log(EventKind.QS_BUILT,
                           query=context.sql if logger.verbose else None,
                           detail="%d nodes" % len(lookup.structure)
                           if logger.verbose else None)
                logger.log(EventKind.ID_GENERATED,
                           query_id=lookup.query_id.value)
            if checkpoint is not None:
                checkpoint()
            mode = self._mode
            if mode == Mode.TRAINING:
                if self._learn(lookup, context, True, routine):
                    routine = 0
                return
            structure = lookup.structure
            query_id = lookup.query_id
            model = lookup.model
            known = lookup.known
            # everything the outcome depends on is read once, here, and
            # used from these locals: the verdict left behind must name
            # exactly what this run used, whatever another thread flips
            # meanwhile
            basis = self._basis(mode)
            (_, detect_sqli, detect_stored, incremental_learning, detector,
             _) = basis
            # The internal hash changes whenever the structure changes,
            # so a mutated query will not match exactly.  When the query
            # carries an external identifier (call site), the manager
            # also returns the models learned for that call site.
            candidates = None if known else lookup.candidates
            if known:
                if quiet:
                    routine += 1
                else:
                    logger.log(EventKind.QM_FOUND, query_id=query_id.value)
            if detect_sqli:
                detection = self._sqli_detection(lookup, detector,
                                                 candidates, checkpoint)
                if checkpoint is not None:
                    checkpoint()
                if detection is not None and detection.is_attack:
                    skipped, routine = routine, 0
                    self._handle_attack(detection, query_id.value, context,
                                        model or (candidates[0]
                                                  if candidates else None),
                                        skipped)
                    return
                if detection is not None:
                    if quiet:
                        routine += 1
                    else:
                        logger.log(EventKind.COMPARISON_OK,
                                   query_id=query_id.value)
                known = known or bool(candidates)
            if detect_stored:
                detection = detector.detect_stored(structure,
                                                   checkpoint=checkpoint)
                if checkpoint is not None:
                    checkpoint()
                if detection.is_attack:
                    skipped, routine = routine, 0
                    self._handle_attack(detection, query_id.value, context,
                                        model, skipped)
                    return
            if not known and not self.store.get(query_id):
                # Unknown query: incremental learning (administrator
                # reviews these later, paper §II-E).
                self.stats.bump("unknown_queries")
                if incremental_learning and self._learn(
                        lookup, context, False, routine):
                    routine = 0
            if quiet:
                routine += 1
            else:
                logger.log(EventKind.QUERY_EXECUTED, query_id=query_id.value)
            if checkpoint is not None:
                checkpoint()
        finally:
            if routine:
                logger.skip(routine)
        memo = context.memo
        if memo is not None and model is not None \
                and _abstracts_all_data(model):
            # benign against a known model.  The run logged QS_BUILT,
            # ID_GENERATED, QM_FOUND and QUERY_EXECUTED, plus
            # COMPARISON_OK when it compared — none of them significant.
            # The entry is shared by every text of the statement's
            # shape, and the outcome holds for their values too: the
            # model has ⊥ wherever they go (one that pins a literal
            # leaves no verdict) — given that the values the plugins
            # read here pass them again there.
            slots = ()
            if detect_stored and structure.command() in ("INSERT", "UPDATE"):
                slots = tuple(item.value.index for item in context.stack
                              if item.value.__class__ is Slot)
            memo.verdict = _Verdict(query_id.value, model, basis,
                                    4 + bool(detect_sqli), slots)

    def _verdict_holds(self, verdict):
        """Whether a full run now would repeat the one *verdict* records.

        With :func:`_inspect_inputs`, the only condition under which
        :meth:`process_query` may skip the run.  One predicate, every
        term read in this frame (a hit makes no other call):

        * no fault plan is armed;
        * mode, the three switches, the detector and its plugin list are
          the ones the run read (compared one by one against what
          :meth:`_basis` gave it, so a hit builds nothing);
        * the store serves the very model object that run compared
          against — one lock-free read of the published view, so
          learning an unrelated query invalidates nothing — and is not
          paranoid (then every read verifies);
        * the breaker is CLOSED with no fault counted, so its
          ``on_query`` and ``record_success`` would change nothing (an
          unlocked read of two fields: a fault recorded an instant later
          is the same race as a query arriving an instant earlier);
        * the register is not verbose (it would record the run's events).
        """
        config = self.config
        detector = self.detector
        store = self.manager.store
        breaker = self.breaker
        return (
            faults_mod.ACTIVE is None
            and verdict.mode == self._mode
            and verdict.detect_sqli == config.detect_sqli
            and verdict.detect_stored == config.detect_stored
            and verdict.incremental_learning == config.incremental_learning
            and verdict.detector == detector
            and verdict.plugins == detector.plugins
            and not store.paranoid
            and store._reads.models.get(verdict.full_id) is verdict.model
            and breaker.state == BreakerState.CLOSED
            and not breaker._consecutive
            and not self.logger.verbose
        )

    def _basis(self, mode):
        """``(mode, detect_sqli, detect_stored, incremental_learning,
        detector, plugins)`` — the settings a run in normal mode reads.
        The plugins are copied out of the detector's list, which can be
        edited in place."""
        config = self.config
        detector = self.detector
        return (mode, config.detect_sqli, config.detect_stored,
                config.incremental_learning, detector,
                tuple(detector.plugins))

    def _contain(self, exc, context, watchdog):
        """Absorb one internal fault per the fail policy (never re-raise
        anything but :class:`QueryBlocked`)."""
        self.stats.bump("internal_faults")
        if watchdog:
            self.stats.bump("watchdog_timeouts")
            self._safe_log(EventKind.WATCHDOG_TIMEOUT, query=context.sql,
                           detail=str(exc))
        else:
            self._safe_log(EventKind.INTERNAL_FAULT, query=context.sql,
                           detail="%s: %s" % (type(exc).__name__, exc))
        if self.breaker.record_fault():
            self.stats.bump("breaker_trips")
            self._safe_log(
                EventKind.BREAKER_TRIPPED,
                detail="circuit open after %s consecutive faults; "
                       "degrading to %s" % (self.breaker.threshold,
                                            Mode.DETECTION),
            )
        if self._mode == Mode.TRAINING or self.breaker.is_open \
                or self.fail_policy == FailPolicy.OPEN:
            # availability: let the query run, detection-style (training
            # never drops; an open breaker overrides fail-closed — that
            # is exactly the degradation it exists to provide)
            self.stats.bump("fail_open_passes")
            return
        self.stats.bump("fail_closed_drops")
        raise QueryBlocked(
            "query dropped by SEPTIC fail-closed policy "
            "(internal fault: %s)" % type(exc).__name__
        )

    def _safe_log(self, kind, **fields):
        """Log on the resilience path: a faulty logger must never turn
        fault handling into a second crash."""
        try:
            self.logger.log(kind, **fields)
        except Exception:
            pass

    def _store_recovered(self, full_id):
        """Callback from the QM store after a journal recovery."""
        self.stats.bump("store_recoveries")
        self._safe_log(EventKind.STORE_RECOVERED, query_id=full_id,
                       detail="model rebuilt from journal")

    def _learn(self, lookup, context, training, skipped=0):
        """Learn *lookup*'s model if it is new; its QM_CREATED event is
        numbered after the *skipped* routine events before it."""
        created = self.manager.learn(lookup)
        if created:
            self.stats.bump("models_learned")
            self.logger.log(
                EventKind.QM_CREATED,
                skipped=skipped,
                query=context.sql,
                query_id=lookup.query_id.value,
                model=lookup.model_of_query,
                detail="training" if training else "incremental",
            )
        return created

    def _sqli_detection(self, lookup, detector, candidates, checkpoint=None):
        """Run the two-step comparison.

        Returns a Detection, or ``None`` when there is nothing to compare
        against (no model and no call-site candidates).
        """
        structure = lookup.structure
        if lookup.model is not None:
            return detector.detect_sqli(structure, lookup.model)
        if candidates:
            # match against every model learned for this call site; an
            # attack is flagged only if none matches
            best = None
            for candidate in candidates:
                if checkpoint is not None:
                    checkpoint()
                detection = detector.detect_sqli(structure, candidate)
                if not detection.is_attack:
                    return detection
                if best is None or (detection.step or 0) > (best.step or 0):
                    best = detection  # prefer the most precise mismatch
            return best
        return None

    def _handle_attack(self, detection, query_id, context, model,
                       skipped=0):
        """Count, log and (PREVENTION) drop one detected attack; the
        counters move in one critical section, and the attack's event is
        numbered after the *skipped* routine events before it."""
        drop = self.effective_mode == Mode.PREVENTION
        stats = self.stats
        with stats._lock:
            stats.attacks_detected += 1
            if detection.attack_type == AttackType.SQLI:
                stats.sqli_detected += 1
            else:
                stats.stored_detected += 1
            if drop:
                stats.queries_dropped += 1
        record = self.logger.log(
            EventKind.ATTACK_DETECTED,
            skipped=skipped,
            query=context.sql,
            query_id=query_id,
            model=model,
            attack_type=detection.attack_type,
            step=detection.step,
            detail=detection.detail,
        )
        if drop:
            self.logger.log(
                EventKind.QUERY_DROPPED,
                query=context.sql,
                query_id=query_id,
                attack_type=detection.attack_type,
            )
            raise QueryBlocked(
                "query dropped by SEPTIC (%s, %s)"
                % (detection.attack_type, detection.kind_label),
                record=record,
            )
        # detection mode: log only, let the query execute
