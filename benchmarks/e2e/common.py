"""Shared plumbing for the end-to-end benchmark: paths, scratch
directories, order statistics, the host-speed probe, and the in-phase
figures and recovery timing every workload shares.

Nothing here imports :mod:`repro` at module load — ``run.py`` calls
:func:`add_src_to_path` first, and a checkout without ``src/`` must fail
there with a non-zero exit instead of half-running.
"""

import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: traces and scratch data directories live here (git-ignored); the
#: benchmark never writes outside its own checkout
OUT_DIR = os.path.join(HERE, "out")


def add_src_to_path():
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SystemExit(
            "benchmarks/e2e: no src/repro beside this checkout (%s) — "
            "the benchmark measures the program, it does not contain it"
            % SRC_DIR
        )
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)


def load_manifest():
    """``BENCHMARK.json`` — the one place the workloads and the metrics'
    names, units and bounds are written down."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _scratch_root():
    return os.path.join(OUT_DIR, "tmp", "run-%d" % os.getpid())


def scratch_dir(prefix):
    """A fresh directory under this process's ``out/tmp/run-<pid>``."""
    os.makedirs(_scratch_root(), exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix + "-", dir=_scratch_root())


def remove_tree(path):
    shutil.rmtree(path, ignore_errors=True)


def remove_scratch():
    """Drop everything :func:`scratch_dir` handed out in this process."""
    remove_tree(_scratch_root())


# -- order statistics ---------------------------------------------------------

def percentile(sorted_values, fraction):
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    rank = int(fraction * len(sorted_values))
    return sorted_values[min(rank, len(sorted_values) - 1)]


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def zipf_cdf(count, exponent):
    """Cumulative Zipf weights over ranks 1..count (sample a rank with
    ``bisect_left(cdf, random())``)."""
    weights = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    total = sum(weights)
    acc = 0.0
    cdf = []
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    return cdf


def spread(values):
    """Inter-quartile distance as a share of the median — the steadiness
    figure the benchmark contract is judged by."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


# -- the host's speed ---------------------------------------------------------

#: thread-CPU seconds one chunk of :class:`SpeedProbe` work takes on the
#: host the baseline was measured on, at the faster of its two speeds.
#: Times are reported as if the CPU always ran at this speed.
REFERENCE_CHUNK_S = 0.000330


class _Point(object):
    __slots__ = ("x", "tag")

    def __init__(self, x, tag):
        self.x = x
        self.tag = tag

    def shifted(self, by):
        return self.x + by if by & 1 else self.x


def _probe_chunk():
    """A fixed piece of interpreter work: dict, string, object and sort
    traffic, the mix the engine's own code is made of.  (A bare
    arithmetic loop tracked the slowdown of such code half as well.)"""
    counts = {}
    seen = []
    for index in range(350):
        key = "k%d" % (index & 63)
        counts[key] = counts.get(key, 0) + index
        seen.append(_Point(index, key).shifted(index))
        if not index & 31:
            seen.sort(key=str)
            seen = ",".join(map(str, seen)).split(",")[:8]
    return counts


class SpeedProbe(threading.Thread):
    """Measures how fast this process's CPU is running, while it runs.

    The host is a small VM whose CPU runs 1.4–1.6× slower for spells of
    a tenth of a second to tens of minutes (what a busy neighbour on the
    sibling hardware thread does), each vCPU on its own schedule; the
    same code read a third slower from one run to the next.  This thread times the same
    chunk of work every 20 ms with ``thread_time`` — so waiting for the
    interpreter lock does not count — and keeps the running totals.
    :func:`speed_between` turns two readings into the factor that brings
    a time measured between them to the reference speed.  It costs the
    process about 2 % of a CPU, the same on every commit.
    """

    INTERVAL = 0.02

    def __init__(self):
        super(SpeedProbe, self).__init__(name="bench-speed-probe",
                                         daemon=True)
        #: ``(chunks timed, their thread-CPU seconds)`` — one tuple, so a
        #: reader on another thread never sees half an update
        self.totals = (0, 0.0)

    def run(self):
        clock = time.thread_time
        while True:
            start = clock()
            _probe_chunk()
            spent = clock() - start
            count, seconds = self.totals
            self.totals = (count + 1, seconds + spent)
            time.sleep(self.INTERVAL)

    def read(self):
        return self.totals


def speed_between(before, after, default=1.0):
    """Reference speed ÷ the speed measured between two probe readings:
    multiply a time taken between them by this.  *default* where the
    interval held under three chunks."""
    chunks = after[0] - before[0]
    if chunks < 3:
        return default
    return REFERENCE_CHUNK_S / ((after[1] - before[1]) / chunks)


def pin_to_cpu(cpu):
    """Run this process on one CPU only, where the platform can: the
    probe then measures the CPU the work runs on."""
    if cpu is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


def two_cpus():
    """``(server cpu, generator cpu)`` out of the CPUs this process may
    use, or ``(None, None)`` where it cannot choose."""
    if not hasattr(os, "sched_getaffinity"):
        return (None, None)
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[-1])


# -- what every workload measures the same way --------------------------------

def slice_metrics(marks, phase):
    """The in-phase end-to-end figures.

    *marks* holds one ``(time, operations so far, snapshot)`` per slice
    boundary, the snapshot carrying cumulative ``cpu_s`` (the stack's
    own, without its probe's), ``septic_s`` and the probe reading; *phase* the latencies, stamped on the
    same clock.  Every slice's times are brought to the reference speed
    by the probe's reading over that slice; rates and costs are the
    median slice, latencies percentiles over the whole phase.
    """
    whole = speed_between(marks[0][2]["probe"], marks[-1][2]["probe"])
    qps, cpu_per_op, septic, edges = [], [], [], []
    for (t0, ops0, snap0), (t1, ops1, snap1) in zip(marks, marks[1:]):
        ops = ops1 - ops0
        if ops <= 0 or t1 <= t0:
            continue
        speed = speed_between(snap0["probe"], snap1["probe"], whole)
        cpu = snap1["cpu_s"] - snap0["cpu_s"]
        qps.append(ops / ((t1 - t0) * speed))
        cpu_per_op.append(cpu * speed / ops * 1e6)
        if cpu > 0:
            # a ratio of two times from the same CPU over the same
            # seconds: the speed cancels
            septic.append((snap1["septic_s"] - snap0["septic_s"]) / cpu)
        edges.append((t1, speed))
    out = {
        "qps": median(qps),
        "cpu_us_per_op": median(cpu_per_op),
        "septic_share": median(septic),
        "host_speed": whole,
    }
    for prefix, threads in (("read", phase.reads), ("write", phase.writes)):
        scaled = []
        cursor = 0
        for done_at, latency in sorted(pair for thread in threads
                                       for pair in thread):
            while cursor < len(edges) - 1 and done_at > edges[cursor][0]:
                cursor += 1
            scaled.append(latency * (edges[cursor][1] if edges else whole))
        scaled.sort()
        out[prefix + "_p50_ms"] = percentile(scaled, 0.50) * 1e3
        out[prefix + "_p95_ms"] = percentile(scaled, 0.95) * 1e3
    return out


#: peak memory is read this many slices into the measured phase — a
#: fixed number of operations, about a quarter of what the seed commit
#: gets through in a run — so a faster commit, whose tables grow further
#: in the same seconds, is not charged for it
RSS_SLICES = 10

def rss_at_fixed_work(marks):
    """Peak memory :data:`RSS_SLICES` slices in (at the last mark of a
    shorter phase)."""
    return marks[min(RSS_SLICES, len(marks) - 1)][2]["rss_mb"]


#: whole set-ups, and recoveries, timed per run; their median is reported
REPEATS = 5


def time_recoveries(name, data_dir, recover, repeats, probe):
    """Recover private copies of a crashed data directory *repeats*
    times.  Returns ``(last database, [seconds at the reference speed],
    [copies to remove])``."""
    seconds = []
    copies = []
    database = None
    # the generator's heap (latency samples, twin, models) is large by
    # now, and replay allocates enough to trigger full collections over
    # it: park it where the collector does not look while the clock runs
    gc.collect()
    gc.freeze()
    try:
        for _turn in range(repeats):
            copy = scratch_dir(name + "-recover")
            copies.append(copy)
            os.rmdir(copy)
            shutil.copytree(data_dir, copy)
            if database is not None:
                database.close()
            before = probe.read()
            start = time.perf_counter()
            database = recover(copy)
            elapsed = time.perf_counter() - start
            seconds.append(elapsed * speed_between(before, probe.read()))
    finally:
        gc.unfreeze()
    return database, seconds, copies


# -- host noise ---------------------------------------------------------------

def read_cpu_jiffies():
    """``(steal, total)`` jiffies from the aggregate ``cpu`` line of
    ``/proc/stat`` (``(0, 0)`` where the file is missing)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return (0, 0)
    if not fields or fields[0] != "cpu":
        return (0, 0)
    numbers = [int(value) for value in fields[1:]]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already inside user/nice
    steal = numbers[7] if len(numbers) > 7 else 0
    return (steal, sum(numbers[:8]))


def steal_share(before, after):
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0
