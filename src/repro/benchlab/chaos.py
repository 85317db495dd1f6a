"""Chaos workload: replay an application under an armed fault plan.

The resilience claims of the fault-injection subsystem only mean
something at system scale: a fault inside the SEPTIC hook must surface
to a *browser* as either a served page (fail-open) or a clean error page
(fail-closed) — never a stack trace, never a hung worker, never a
corrupted learned store.  ``run_chaos`` drives exactly that experiment:
build a full SEPTIC-enabled stack, train it, arm a :class:`FaultPlan`,
replay the recorded workload for a number of loops, and report what the
clients saw next to what the hook's resilience layer counted.

The run is deterministic end to end — the plan is seeded, workload
replay order is fixed, and hangs use the virtual clock — so a chaos
result is a regression artifact, not a flaky observation.
"""

from repro import faults
from repro.benchlab.harness import build_stack
from repro.core.resilience import CircuitBreaker, FailPolicy
from repro.core.septic import Mode


class ChaosResult(object):
    """What one chaos replay produced, from both sides of the fault."""

    __slots__ = ("label", "requests", "ok_responses", "error_responses",
                 "septic_stats", "breaker", "store_integrity",
                 "injected", "hits_by_site", "final_effective_mode")

    def __init__(self, label, requests, ok_responses, error_responses,
                 septic_stats, breaker, store_integrity, injected,
                 hits_by_site, final_effective_mode):
        self.label = label
        #: requests replayed
        self.requests = requests
        #: 2xx responses (includes fail-open passes)
        self.ok_responses = ok_responses
        #: non-2xx responses (fail-closed drops surface here, as clean
        #: application error pages)
        self.error_responses = error_responses
        #: :meth:`SepticStats.as_dict` snapshot after the replay
        self.septic_stats = septic_stats
        #: circuit-breaker ``state_dict()`` after the replay
        self.breaker = breaker
        #: :meth:`QMStore.integrity_stats` snapshot after the replay
        self.store_integrity = store_integrity
        #: faults the plan actually injected
        self.injected = injected
        #: injection-site hit counts (proves coverage, not just survival)
        self.hits_by_site = hits_by_site
        #: SEPTIC's effective mode once the dust settled
        self.final_effective_mode = final_effective_mode

    @property
    def survived(self):
        """True when every request produced a well-formed response —
        the chaos experiment's baseline claim."""
        return self.requests == self.ok_responses + self.error_responses

    def __repr__(self):
        return ("ChaosResult(%s: %d req, %d ok, %d err, %d faults "
                "injected)") % (self.label, self.requests,
                                self.ok_responses, self.error_responses,
                                self.injected)


def default_chaos_plan(seed=0):
    """The stock storm: one of each fault kind, spread across layers.

    * a flaky model store (transient put failures — the breaker's diet);
    * a detector that crashes once mid-run;
    * a hang inside the stored-injection plugins (watchdog fodder);
    * a corrupted learned model on read (store integrity fodder);
    * an amnesiac pipeline cache (must degrade to the cold path).
    """
    plan = faults.FaultPlan(seed=seed)
    plan.inject("store.put", faults.FaultKind.FLAKY, fails=2)
    plan.inject("detector.run", faults.FaultKind.RAISE, times=1, after=3)
    plan.inject("plugin.StoredXSSPlugin", faults.FaultKind.HANG,
                times=1, after=2, hang_seconds=30.0)
    plan.inject("store.get", faults.FaultKind.CORRUPT, times=1, after=5)
    plan.inject("cache.lookup", faults.FaultKind.FLAKY, fails=3)
    return plan


def run_chaos(app_class, plan=None, septic_flags="YY",
              fail_policy=FailPolicy.CLOSED, breaker_threshold=3,
              breaker_cooldown=8, loops=3, label=None):
    """Replay *app_class*'s workload *loops* times under *plan*.

    The stack is built and trained with no plan armed (training must be
    clean — corrupting the learning phase is a different experiment),
    then the plan is armed for the replay only.  Returns a
    :class:`ChaosResult`.
    """
    if fail_policy not in FailPolicy.ALL:
        raise ValueError("unknown fail policy %r" % fail_policy)
    server, app, septic = build_stack(app_class, septic_flags,
                                      mode=Mode.PREVENTION)
    septic.fail_policy = fail_policy
    septic.breaker = CircuitBreaker(threshold=breaker_threshold,
                                    cooldown=breaker_cooldown)
    if plan is None:
        plan = default_chaos_plan()
    requests = ok = errors = 0
    with faults.armed(plan):
        for _ in range(loops):
            for request in app.workload_requests():
                requests += 1
                response = app.handle(request)
                if response.ok:
                    ok += 1
                else:
                    errors += 1
    return ChaosResult(
        label or ("%s/%s/%s" % (app_class.name, septic_flags,
                                septic.fail_policy)),
        requests, ok, errors,
        septic.stats.as_dict(),
        septic.breaker.state_dict(),
        septic.store.integrity_stats(),
        plan.injected,
        dict(plan.hits_by_site),
        septic.effective_mode,
    )


def format_chaos_result(result):
    """Human-readable chaos report (the benchmark artifact body)."""
    lines = [
        "chaos replay: %s" % result.label,
        "  requests:        %d (%d ok, %d error) survived=%s"
        % (result.requests, result.ok_responses, result.error_responses,
           result.survived),
        "  faults injected: %d" % result.injected,
        "  effective mode:  %s" % result.final_effective_mode,
        "  breaker:         %s" % (result.breaker,),
    ]
    stats = result.septic_stats
    for name in ("internal_faults", "watchdog_timeouts", "breaker_trips",
                 "breaker_resets", "fail_open_passes", "fail_closed_drops",
                 "store_recoveries"):
        lines.append("  %-22s %d" % (name + ":", stats[name]))
    lines.append("  store integrity: %s" % (result.store_integrity,))
    return "\n".join(lines)
