"""BenchLab — testbed simulator for the performance evaluation.

The paper measures SEPTIC's overhead with BenchLab (web-app benchmarking
testbed) on a six-machine cluster: one MySQL server, one Apache/PHP
server, four client machines running 1–5 browsers each, every browser
replaying a recorded workload in a loop.

We rebuild that scaffolding as a discrete-event simulation
(:mod:`repro.benchlab.simulation`): machines, network links and browsers
are simulated; the **work itself is real** — each simulated request is
served by actually invoking the Python application stack (PHP handler →
SQL engine → SEPTIC hook) and measuring its CPU time with a monotonic
clock.  Synthetic constants model the parts of the testbed we cannot run
(Apache/PHP process overhead, network transfer); they are identical
across SEPTIC configurations, so the *relative overhead* — the paper's
metric — comes entirely from measured SEPTIC work.
"""

from repro.benchlab.simulation import Simulator
from repro.benchlab.workload import Workload
from repro.benchlab.machines import BrowserClient, ServerMachine, NetworkLink
from repro.benchlab.harness import (
    BenchLabResult,
    run_benchlab,
    run_overhead_experiment,
    run_scaling_experiment,
)
from repro.benchlab.report import (
    format_overhead_table,
    format_result_line,
    format_scaling_rows,
)
from repro.benchlab.chaos import (
    ChaosResult,
    default_chaos_plan,
    format_chaos_result,
    run_chaos,
)

__all__ = [
    "Simulator",
    "Workload",
    "BrowserClient",
    "ServerMachine",
    "NetworkLink",
    "BenchLabResult",
    "run_benchlab",
    "run_overhead_experiment",
    "run_scaling_experiment",
    "format_overhead_table",
    "format_result_line",
    "format_scaling_rows",
    "ChaosResult",
    "default_chaos_plan",
    "format_chaos_result",
    "run_chaos",
]
