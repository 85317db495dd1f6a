"""``run.py --selfcheck``: is the benchmark steadier than its own bounds?

Runs every selected workload in two sets of five untraced runs, each run
a fresh process with its own seed, and prints each end-to-end metric's
median and quartiles per set.  A metric fails when

* the second set's median is worse than the first's by more than the
  bound, or
* its spread over the ten runs together (distance between the first and
  third quartile, as a share of the median — the figure the benchmark
  contract judges a benchmark by) exceeds its bound; ``setup_s`` is
  excepted from this one, as in the contract.

The exit code is non-zero when any metric of any workload fails or any
run was incorrect.
"""

import json
import os
import statistics
import subprocess
import sys

from common import HERE, spread

#: runs per set
RUNS = 5


def one_run(workload, seed, seconds):
    """One untraced run in its own process; returns the result object."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("run of %s with seed %d died (exit %d)"
                           % (workload, seed, done.returncode))
    # an incorrect run still has its result line; main() reports it
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    first, _mid, third = statistics.quantiles(values, n=4)
    return first, third


def main(manifest, workloads, seed, seconds):
    out = sys.stdout
    ok = True
    for workload in workloads:
        sets = []
        for which in range(2):
            results = []
            for turn in range(RUNS):
                result = one_run(workload, seed + which * RUNS + turn,
                                 seconds)
                ok = ok and result["correct"]
                results.append(result)
                out.write("  %s set %d run %d: attempted %d failed %d\n"
                          % (workload, which + 1, turn + 1,
                             result["attempted"], result["failed"]))
                out.flush()
            sets.append(results)
        out.write("== %s: two sets of %d runs ==\n" % (workload, RUNS))
        out.write("%-20s %5s  %12s %8s  %12s %8s  %8s  %8s  %s\n"
                  % ("metric", "bound", "median A", "spread A",
                     "median B", "spread B", "B worse", "ten runs",
                     "verdict"))
        for entry in manifest["end_to_end"]:
            name, better, bound = (entry["name"], entry["better"],
                                   entry["bound"])
            columns = [[result["metrics"][name]["value"]
                        for result in results] for results in sets]
            medians = [statistics.median(column) for column in columns]
            spreads = [spread(column) for column in columns]
            change = (medians[1] - medians[0]) / medians[0] \
                if medians[0] else 0.0
            worse = change if better == "lower" else -change
            ten_runs = spread(columns[0] + columns[1])
            steady = name == "setup_s" or ten_runs <= bound
            verdict = "ok" if steady and worse <= bound else "FAIL"
            ok = ok and verdict == "ok"
            out.write("%-20s %5.2f  %12.4f %7.1f%%  %12.4f %7.1f%%  %+7.1f%%"
                      "  %7.1f%%  %s\n"
                      % (name, bound, medians[0], spreads[0] * 100,
                         medians[1], spreads[1] * 100, worse * 100,
                         ten_runs * 100, verdict))
            for which, column in enumerate(columns):
                first, third = quartiles(column)
                out.write("    set %s quartiles [%.4f, %.4f]  values %s\n"
                          % ("AB"[which], first, third,
                             " ".join("%.4g" % value for value in column)))
        out.flush()
    return 0 if ok else 1
