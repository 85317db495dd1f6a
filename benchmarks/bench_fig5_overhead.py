"""E5 — Figure 5: SEPTIC's average-latency overhead on the three
applications (PHP Address Book, refbase, ZeroCMS), four detection
configurations (NN/YN/NY/YY), 20 browsers on 4 machines.

Paper: overheads between 0.5% and 2.2%; YN ≈ 0.8%; similar per app.
We assert the reproduced *shape*: every overhead is small (< 4%), all
apps land in the same band, and YY is the most expensive configuration
*where the configurations differ*: on executions that take the hook's
full run.  BenchLab's browsers repeat the same requests, so nearly every
statement finds its verdict cached (SEPTIC's L1 memo), and a hit costs
the same validity check whatever is switched on — the four columns of
the headline table are one number plus noise.  The ordering is therefore
measured on the same workload with the pipeline cache off.
"""

from repro.apps import AddressBook, Refbase, ZeroCMS
from repro.benchlab.harness import (
    build_stack,
    run_benchlab,
    run_overhead_experiment,
)

APPS = [AddressBook, Refbase, ZeroCMS]
PAPER = {"NN": 0.005, "YN": 0.008, "NY": None, "YY": 0.022}


def _full_run_hook_us(app_class, config, passes=5):
    """Hook µs per request when no verdict is cached: the application's
    workload against a stack without a pipeline cache, best of *passes*
    (the first pass also fills the shape memos, as training does)."""
    server, app, _septic = build_stack(app_class, config, cache_size=0)
    database = app.database
    requests = app.workload_requests()
    best = None
    for _ in range(passes):
        before = database.septic_seconds_total
        for request in requests:
            server.handle(request)
        sample = (database.septic_seconds_total - before) / len(requests)
        best = sample if best is None else min(best, sample)
    return 1e6 * best


def test_figure5_artifact(report, benchmark):
    table = benchmark.pedantic(
        run_overhead_experiment,
        args=(APPS,),
        kwargs={"loops": 4, "repeats": 3},
        rounds=1, iterations=1,
    )
    report.line("Figure 5 — average latency overhead of SEPTIC")
    report.line("(20 browsers / 4 machines; paper band: 0.5%% .. 2.2%%)")
    report.line()
    configs = ("NN", "YN", "NY", "YY")
    report.table(
        ["app"] + list(configs),
        [
            [app] + ["%.2f%%" % (table[app][c] * 100) for c in configs]
            for app in sorted(table)
        ],
    )
    for app in sorted(table):
        for config in configs:
            report.metric("overhead_%s_%s" % (app, config),
                          round(table[app][config] * 100, 3), "%")
    report.line()
    report.line("paper reports: NN=0.5%  YN=0.8%  YY=2.2%")
    report.line()
    report.line("measured SEPTIC hook time (the overhead's numerator) — "
                "nearly all verdict-memo hits,")
    report.line("which cost the same check under every configuration:")
    septic_us = {}
    for app in sorted(table):
        results = table[app]["_results"]
        row = []
        for config in configs:
            res = results[config]
            row.append(1e6 * res.measured_seconds / max(res.requests, 1))
        septic_us[app] = dict(zip(configs, row))
    report.table(
        ["app"] + ["%s (µs/req)" % c for c in configs],
        [
            [app] + ["%.1f" % septic_us[app][c] for c in configs]
            for app in sorted(septic_us)
        ],
        widths=[14, 14, 14, 14, 14],
    )
    for app, row in table.items():
        for config in configs:
            # every configuration lands in (a small band around) the
            # paper's 0.5%..2.2% overhead range
            assert -0.005 < row[config] < 0.04, (app, config, row[config])
    # the ordering claim is made where the configurations do different
    # work — executions that take the full run — and on the measured
    # hook time, where it is not buried under scheduler noise: enabling
    # detection costs more than the NN floor (QS build + ID + lookup)
    full_us = {
        app_class.name: {config: _full_run_hook_us(app_class, config)
                         for config in configs}
        for app_class in APPS
    }
    report.line()
    report.line("hook time of executions that find no cached verdict "
                "(pipeline cache off):")
    report.table(
        ["app"] + ["%s (µs/req)" % c for c in configs],
        [
            [app] + ["%.1f" % full_us[app][c] for c in configs]
            for app in sorted(full_us)
        ],
        widths=[14, 14, 14, 14, 14],
    )
    for app in sorted(full_us):
        for config in configs:
            report.metric("hook_us_hits_%s_%s" % (app, config),
                          round(septic_us[app][config], 2), "us")
            report.metric("hook_us_full_run_%s_%s" % (app, config),
                          round(full_us[app][config], 2), "us")
    total = {c: sum(full_us[a][c] for a in full_us) for c in configs}
    assert total["YY"] > total["NN"]
    for config in ("YN", "NY"):
        assert total[config] > total["NN"] * 0.95, (config, total)


def test_bench_one_benchlab_run_baseline(benchmark):
    result = benchmark.pedantic(
        run_benchlab, args=(Refbase, None),
        kwargs={"machines": 4, "browsers_per_machine": 5, "loops": 2},
        rounds=1, iterations=1,
    )
    assert result.requests == 4 * 5 * 2 * 14


def test_bench_one_benchlab_run_yy(benchmark):
    result = benchmark.pedantic(
        run_benchlab, args=(Refbase, "YY"),
        kwargs={"machines": 4, "browsers_per_machine": 5, "loops": 2},
        rounds=1, iterations=1,
    )
    assert result.measured_seconds > 0
