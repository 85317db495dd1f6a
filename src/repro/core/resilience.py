"""Resilience primitives for the SEPTIC hook (the fail-policy engine).

The paper's pitch is that SEPTIC runs *inside* the DBMS with negligible
overhead and no interference.  That claim has a flip side the paper never
tests: when SEPTIC itself misbehaves — a detector plugin raises, the QM
store is corrupted, the logger wedges — the query path must not go down
with it, or operators will simply disable the protection.  This module
provides the building blocks :class:`repro.core.septic.Septic` uses to
degrade gracefully instead:

* :class:`VirtualClock` — a deterministic, thread-local clock the
  watchdog measures against.  It advances only when explicitly charged
  (by the fault injector's *hang* faults, or by instrumented plugins),
  so with nothing armed the watchdog can never fire spuriously and the
  hot path pays nothing.
* :class:`Watchdog` — a per-query deadline over the virtual clock.
  Checkpoints sprinkled through the hook call :meth:`Watchdog.check`;
  exceeding the budget raises :class:`WatchdogTimeout`, which the
  containment boundary converts into the configured fail-policy outcome.
* :class:`CircuitBreaker` — trips after ``threshold`` *consecutive*
  internal faults, degrading SEPTIC from PREVENTION to DETECTION
  (availability over blocking) until a ``cooldown`` of fault-free
  queries has passed; then it half-opens and one clean query closes it.
* :class:`FailPolicy` — what a contained internal fault does to the
  in-flight query: ``fail_closed`` drops it (security first, the query
  is refused like an attack), ``fail_open`` lets it run with
  detection-style logging (availability first) — the two columns of the
  paper's Table I applied to SEPTIC's own failures.
* :class:`RetryLoop` + :class:`RetryStats` — the one transient-retry
  loop every client connector runs (capped exponential backoff, seeded
  jitter, exact accounting) and its counters.
* :class:`RWLock` + :func:`make_lock`/:func:`make_rlock` — the locking
  toolkit for the whole package.  Table-granular reader–writer locks let
  SELECT-heavy traffic overlap while writers stay exclusive; the factory
  helpers are the only sanctioned way for modules outside the engine to
  construct plain mutexes (enforced by a lint gate), so every lock in
  the system is auditable from one place.
"""

import random
import threading


def make_lock():
    """A plain mutex.  All modules outside ``engine.py``/``store.py``
    must construct their locks through this factory (or
    :func:`make_rlock`) so the lint gate can prove no ad-hoc locking
    grows outside the audited hierarchy."""
    return threading.Lock()


def make_rlock():
    """A reentrant mutex, same contract as :func:`make_lock`."""
    return threading.RLock()


class RWLock(object):
    """A writer-preference reader–writer lock.

    Readers share; a writer is exclusive.  A waiting writer blocks *new*
    readers (writer preference), so a stream of SELECTs cannot starve an
    UPDATE indefinitely.  Not reentrant in either mode — the engine's
    lock plans acquire each resource at most once per statement, in a
    global order, which is what makes deadlock freedom provable.

    Counters (``read_acquires``/``write_acquires``/``contended``) are
    exact and cheap; the lock tests and the real-thread benchmarks read
    them to verify that shared mode really overlaps.
    """

    __slots__ = ("_mutex", "_readers_done", "_writers_done", "_readers",
                 "_writer", "_writers_waiting", "read_acquires",
                 "write_acquires", "contended")

    def __init__(self):
        self._mutex = threading.Lock()
        self._readers_done = threading.Condition(self._mutex)
        self._writers_done = self._readers_done  # one wait-set is enough
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self.read_acquires = 0
        self.write_acquires = 0
        self.contended = 0

    def acquire_read(self):
        with self._mutex:
            if self._writer or self._writers_waiting:
                self.contended += 1
            while self._writer or self._writers_waiting:
                self._readers_done.wait()
            self._readers += 1
            self.read_acquires += 1

    def release_read(self):
        with self._mutex:
            self._readers -= 1
            # the last reader out can only be keeping writers waiting: a
            # reader waits only while a writer holds the lock or waits
            if self._readers == 0 and self._writers_waiting:
                self._readers_done.notify_all()

    def acquire_write(self):
        with self._mutex:
            if self._writer or self._readers:
                self.contended += 1
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._writers_done.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
            self.write_acquires += 1

    def release_write(self):
        with self._mutex:
            self._writer = False
            self._readers_done.notify_all()

    def acquire(self, shared):
        """Acquire in the given mode (``shared=True`` → read)."""
        if shared:
            self.acquire_read()
        else:
            self.acquire_write()

    def release(self, shared):
        if shared:
            self.release_read()
        else:
            self.release_write()

    def state_dict(self):
        with self._mutex:
            return {
                "readers": self._readers,
                "writer": self._writer,
                "writers_waiting": self._writers_waiting,
                "read_acquires": self.read_acquires,
                "write_acquires": self.write_acquires,
                "contended": self.contended,
            }


class WatchdogTimeout(Exception):
    """The per-query watchdog budget was exhausted.

    Deliberately *not* an :class:`repro.sqldb.errors.SQLError`: it is an
    internal signal for the containment boundary, never shown raw to a
    client.
    """


class VirtualClock(object):
    """A thread-local virtual clock, in seconds.

    Real wall time never moves it; only explicit :meth:`advance` calls
    do (hang faults, or plugins charging their own cost).  Per-thread so
    a hang injected into one session can never trip another session's
    watchdog — keeps chaos tests deterministic under concurrency.
    """

    def __init__(self):
        self._local = threading.local()

    def now(self):
        return getattr(self._local, "seconds", 0.0)

    def advance(self, seconds):
        self._local.seconds = self.now() + seconds


#: the clock every SEPTIC watchdog measures against (and hang faults charge)
HOOK_CLOCK = VirtualClock()


class Watchdog(object):
    """A per-query deadline on the virtual clock."""

    __slots__ = ("deadline", "clock", "budget")

    def __init__(self, budget, clock=None):
        self.clock = clock if clock is not None else HOOK_CLOCK
        self.budget = budget
        self.deadline = self.clock.now() + budget

    def check(self):
        """Raise :class:`WatchdogTimeout` when the budget is exceeded."""
        if self.clock.now() > self.deadline:
            raise WatchdogTimeout(
                "SEPTIC hook exceeded its %.3fs budget" % self.budget
            )


class FailPolicy(object):
    """What a contained internal SEPTIC fault does to the query."""

    #: drop the query (security over availability)
    CLOSED = "fail_closed"
    #: let the query run, detection-style (availability over security)
    OPEN = "fail_open"

    ALL = (CLOSED, OPEN)


class BreakerState(object):
    """Circuit breaker states."""

    CLOSED = "CLOSED"
    OPEN = "OPEN"
    HALF_OPEN = "HALF_OPEN"


class CircuitBreaker(object):
    """Trips PREVENTION down to DETECTION after repeated internal faults.

    State machine::

        CLOSED --threshold consecutive faults--> OPEN
        OPEN   --cooldown fault-free queries---> HALF_OPEN
        HALF_OPEN --clean query--> CLOSED   (reset)
        HALF_OPEN --fault-------> OPEN      (re-trip)

    All transitions happen under one lock so concurrent sessions observe
    exactly one trip per incident (the counters are exact, which the
    concurrency tests assert).  ``threshold=None`` disables tripping
    entirely.
    """

    def __init__(self, threshold=3, cooldown=8):
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = BreakerState.CLOSED
        self.trips = 0
        self.resets = 0
        self._consecutive = 0
        self._cooldown_left = 0
        self._lock = threading.Lock()

    @property
    def is_open(self):
        return self.state == BreakerState.OPEN

    def on_query(self):
        """Called once per processed query; walks OPEN toward HALF_OPEN.

        Returns ``True`` when this call transitioned the breaker to
        HALF_OPEN.
        """
        with self._lock:
            if self.state != BreakerState.OPEN:
                return False
            self._cooldown_left -= 1
            if self._cooldown_left > 0:
                return False
            self.state = BreakerState.HALF_OPEN
            return True

    def record_fault(self):
        """One internal fault; returns ``True`` when it tripped the
        breaker (CLOSED/HALF_OPEN → OPEN)."""
        with self._lock:
            self._consecutive += 1
            if self.state == BreakerState.OPEN:
                # already open: extend the cooldown, no new trip
                self._cooldown_left = self.cooldown
                return False
            if self.threshold is None:
                return False
            if (self.state == BreakerState.HALF_OPEN
                    or self._consecutive >= self.threshold):
                self.state = BreakerState.OPEN
                self._cooldown_left = self.cooldown
                self._consecutive = 0
                self.trips += 1
                return True
            return False

    def record_success(self):
        """One fault-free query; returns ``True`` when it closed (reset)
        the breaker out of HALF_OPEN."""
        with self._lock:
            self._consecutive = 0
            if self.state != BreakerState.HALF_OPEN:
                return False
            self.state = BreakerState.CLOSED
            self.resets += 1
            return True

    def state_dict(self):
        """Snapshot for ``Septic.status()`` and the tests."""
        with self._lock:
            return {
                "state": self.state,
                "threshold": self.threshold,
                "cooldown": self.cooldown,
                "cooldown_left": self._cooldown_left,
                "consecutive_faults": self._consecutive,
                "trips": self.trips,
                "resets": self.resets,
            }

    def __repr__(self):
        return "CircuitBreaker(%s, trips=%d, resets=%d)" % (
            self.state, self.trips, self.resets
        )


class RetryStats(object):
    """Counters for the client connectors' :class:`RetryLoop`.

    One instance hangs off every :class:`repro.sqldb.engine.Database`
    (aggregating across all its connections) and one off each
    :class:`repro.sqldb.connection.Connection`;
    ``Septic.status()`` exports the database-level aggregate alongside
    :class:`repro.core.septic.SepticStats`, so operators see retry
    pressure and detection stats in one place.
    """

    _COUNTERS = ("attempts", "retries", "exhausted", "gave_up")

    __slots__ = _COUNTERS + ("backoff_seconds", "_lock")

    def __init__(self):
        self._lock = make_lock()
        #: queries that hit at least one transient fault
        self.attempts = 0
        #: individual retry attempts issued
        self.retries = 0
        #: retry budgets fully spent (the error went back to the client)
        self.exhausted = 0
        #: transient errors returned without any retry (budget was 0 or
        #: partial results made a retry unsafe)
        self.gave_up = 0
        #: total backoff delay charged, in seconds
        self.backoff_seconds = 0.0

    def bump(self, name, amount=1):
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def add_backoff(self, seconds):
        with self._lock:
            self.backoff_seconds += seconds

    def as_dict(self):
        with self._lock:
            body = {name: getattr(self, name) for name in self._COUNTERS}
            body["backoff_seconds"] = round(self.backoff_seconds, 9)
            return body

    def __repr__(self):
        return "RetryStats(attempts=%d, retries=%d, exhausted=%d)" % (
            self.attempts, self.retries, self.exhausted
        )


class RetryLoop(object):
    """The one transient-retry loop under every client connector.

    An *attempt* is any callable returning ``(results, error)``, *error*
    being ``None`` or a :class:`~repro.sqldb.errors.SQLError`.
    :meth:`run` makes the first attempt and hands its answer straight
    back unless it failed *transiently*; only then does it count, wait
    and try again, up to *retries* times.  Two rules keep a retry safe:

    * **never retry a block** — a SEPTIC verdict is not a fault
      (``QueryBlocked.transient`` is false, like every deterministic
      SQL error), so it is returned the first time it is seen;
    * **never retry past partial results** — a truthy *results* beside
      the error means part of a script already took effect.

    A first-writer-wins write conflict (errno 1213) is transient and
    rides the same loop: the engine checks for conflicts before it
    touches a row, so a retried autocommit statement never applies
    twice.  Inside an explicit transaction the retry keeps the
    transaction's snapshot and conflicts again — MySQL's advice holds:
    roll back and restart the whole transaction.

    The delay before retry *n* is ``min(cap, backoff * 2**(n-1))``
    scaled by a seeded factor in ``[1, 1 + jitter]`` — same seed, same
    schedule, so retrying clients de-correlate yet replay exactly.  The
    loop is parameterised only by how a delay is made to pass: *wait*
    is ``time.sleep`` (seconds) for a ``Connection`` and
    ``ReplicaSet.tick`` for a ``RoutingConnection``, whose delays are
    *whole_ticks* of the set's virtual clock, at least one — there the
    waiting is what lets a dead primary's lease expire.  Every counter
    is bumped in each of *stats*.
    """

    __slots__ = ("retries", "backoff", "cap", "jitter", "whole_ticks",
                 "stats", "_rng", "_wait")

    def __init__(self, retries, backoff, cap, jitter, seed, wait, stats,
                 whole_ticks=False):
        self.retries = retries
        self.backoff = backoff
        self.cap = cap
        self.jitter = jitter
        self.whole_ticks = whole_ticks
        self.stats = stats
        self._rng = random.Random(seed)
        self._wait = wait

    def delay(self, attempt):
        """The delay before retry *attempt* (1-based); each call draws
        the next jitter factor of the seeded schedule."""
        base = min(self.cap, self.backoff * (2 ** (attempt - 1)))
        if self.jitter:
            base *= 1.0 + self.jitter * self._rng.random()
        return max(1, int(round(base))) if self.whole_ticks else base

    def _count(self, counter):
        for stats in self.stats:
            stats.bump(counter)

    def run(self, attempt, *args):
        """``attempt(*args)``, retried while it fails transiently."""
        results, error = attempt(*args)
        retried = 0
        while error is not None and error.transient:
            if not retried:
                self._count("attempts")
            if results or retried >= self.retries:
                # partial results make a retry unsafe; otherwise the
                # budget is spent (or was zero to begin with)
                self._count("exhausted" if retried else "gave_up")
                break
            retried += 1
            self._count("retries")
            delay = self.delay(retried)
            if delay:
                for stats in self.stats:
                    stats.add_backoff(delay)
                self._wait(delay)
            results, error = attempt(*args)
        return results, error
