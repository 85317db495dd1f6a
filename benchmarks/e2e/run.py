"""End-to-end benchmark: one real client, one composed stack.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``

runs one workload and prints every metric by name with its unit, then —
as the last line of standard output — one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics: counters of
the same untraced run, plus self times from a separate traced pass.
Without ``--workload`` every workload runs in turn.  The exit code is
non-zero when any correctness oracle fails.

``--smoke`` runs everything at 1/50 size with every oracle still on;
``--selfcheck`` repeats the run and compares two sets of five runs
against the benchmark's own bounds.  ``BENCHMARK.json`` at the repository
root names the workloads and the metrics with their units and bounds;
this program reads them from there.

Times are reported as if the CPU ran at one reference speed throughout:
a probe thread measures how fast it is running while the work runs
(``common.SpeedProbe``; README.md, "Times are reported at a reference
speed").

README.md beside this file says what each metric and workload means.
"""

import argparse
import collections
import gc
import importlib
import json
import os
import sys
import time

from common import (
    OUT_DIR, REPEATS, SpeedProbe, add_src_to_path, load_manifest, median,
    pin_to_cpu, read_cpu_jiffies, remove_scratch, remove_tree, scratch_dir,
    rss_at_fixed_work, slice_metrics, speed_between, steal_share,
    time_recoveries, two_cpus,
)
from spans import LAYERS, Tracer

#: measured and printed by every run, but outside ``BENCHMARK.json``
#: (README, "Bounds")
INFORMATIONAL = (
    ("recover_s", "s"),
    ("read_p95_ms", "ms"),
    ("write_p95_ms", "ms"),
)

#: how one run is sized.  ``repeats``: whole set-ups, and recoveries,
#: timed per run (``setup_s`` / ``recover_s`` are their medians).
#: ``trace_ops`` / ``trace_budget``: the in-process passes run this many
#: operations, or for this many seconds.
Settings = collections.namedtuple(
    "Settings", "seconds scale repeats trace_ops trace_budget")


def full_settings(seconds, trace):
    return Settings(seconds=seconds, scale=1.0,
                    repeats=1 if trace else REPEATS,
                    trace_ops=2000, trace_budget=max(1.0, seconds / 2.0))


def smoke_settings(seconds):
    return Settings(seconds=seconds, scale=0.02, repeats=1,
                    trace_ops=40, trace_budget=0.5)


def load_workload(name):
    return importlib.import_module("wl_" + name)


# -- the wire workloads -------------------------------------------------------

def start_server(workload, repeats, cpu):
    """Set the stack up *repeats* times on *cpu*; keeps the last one
    running.  Returns ``(server, data_dir, [setup seconds])``."""
    from wire import ServerProcess

    seconds = []
    server = data_dir = None
    for _turn in range(repeats):
        if server is not None:
            server.kill()
            remove_tree(data_dir)
        data_dir = scratch_dir(workload.name)
        config = workload.server_config(data_dir)
        config["cpu"] = cpu
        server = ServerProcess(config)
        seconds.append(server.setup_seconds)
    return server, data_dir, seconds


def bytes_written(first, last):
    """Bytes pushed toward the data directory (log appends, page writes,
    checkpoint images) between two snapshots."""
    def total(snap):
        return snap["wal_bytes"] + snap["page_bytes"] + snap["image_bytes"]

    return total(last) - total(first)


def run_wire(module, seed, settings, probe, server_cpu):
    from repro.net.client import NetClient
    from wire import run_phase

    workload = module.Workload(seed, settings.scale, module.CONNECTIONS)
    workload.prepare()
    server, data_dir, setups = start_server(workload, settings.repeats,
                                            server_cpu)
    clients = []
    copies = []
    try:
        clients = [NetClient("127.0.0.1", server.port)
                   for _ in range(module.CONNECTIONS)]
        sessions = [workload.session(client, index)
                    for index, client in enumerate(clients)]
        warm = run_phase(sessions, module.WINDOW,
                         max_ops=workload.warmup_ops)

        marks = []

        def on_mark(result):
            # every slice ends the same way: a checkpoint taken while no
            # statement is in flight, then the mark — one checkpoint per
            # slice on every run, never one landing mid-slice by chance
            if marks:
                server.command("checkpoint")
            snapshot = server.command("mark")
            marks.append((time.perf_counter(), result.attempted, snapshot))

        steal_before = read_cpu_jiffies()
        client_cpu = time.process_time() - probe.read()[1]
        phase = run_phase(sessions, module.WINDOW,
                          cycle_ops=workload.cycle_ops,
                          seconds=settings.seconds, on_mark=on_mark)
        client_cpu = time.process_time() - probe.read()[1] - client_cpu
        steal = steal_share(steal_before, read_cpu_jiffies())

        # the crash: after the last slice's checkpoint a tail of acked
        # writes of known length for recovery to redo, then SIGKILL
        for session in sessions:
            session.writes_only = True
        tail = run_phase(sessions, module.WINDOW, max_ops=workload.tail_ops)
        before_kill = workload.before_kill(clients[0])
        server.kill()
        for client in clients:
            client.close()
        clients = []
        database, recover_seconds, copies = time_recoveries(
            workload.name, data_dir, module.recover, settings.repeats, probe)
        checked, wrong = workload.verify_recovered(database, before_kill)
        database.close()
    finally:
        for client in clients:
            client.close()
        server.kill()
        remove_tree(data_dir)
        for copy in copies:
            remove_tree(copy)

    attempted = warm.attempted + phase.attempted + tail.attempted + checked
    failed = (sum(warm.failed) + sum(phase.failed) + sum(tail.failed)
              + wrong)
    for sample in warm.samples + phase.samples + tail.samples:
        sys.stderr.write("oracle failure: %s\n" % sample)
    if wrong:
        sys.stderr.write("oracle failure: %d of %d recovered rows/answers "
                         "differ from what was acked\n" % (wrong, checked))
    first, last = marks[0][2], marks[-1][2]
    in_phase = last["checkpoints"][len(first["checkpoints"]):]
    writes = sum(len(thread) for thread in phase.writes)
    end_to_end = slice_metrics(marks, phase)
    end_to_end.update({
        "setup_s": median(setups),
        "recover_s": median(recover_seconds),
        "disk_bytes_per_op": bytes_written(first, last) / max(1, writes),
        "server_rss_mb": rss_at_fixed_work(marks),
    })
    info = {
        "ops": phase.attempted,
        "slices": len(marks) - 1,
        "reads": sum(len(thread) for thread in phase.reads),
        "writes": writes,
        # the generator's own cost: when it nears the server's, qps is
        # the client's ceiling and only cpu_us_per_op shows server gains
        "client_cpu_us_per_op": round(
            client_cpu / max(1, phase.attempted) * 1e6, 1),
        # times as measured = times as reported / this
        "host_speed": round(end_to_end["host_speed"], 3),
        # a noisy run can be told from a slow program
        "host_steal_share": round(steal, 4),
    }
    if getattr(workload, "capture", None):
        info["capture"] = workload.capture
    counters = wire_counters(first, last, in_phase, phase.attempted, workload)
    counters["host.steal_share"] = steal
    return workload, attempted, failed, end_to_end, info, counters


def wire_counters(first, last, checkpoints, ops, workload):
    """The per-layer counters of one untraced wire run, from the server
    child's first and last marks."""
    def dig(snap, path):
        for key in path:
            snap = snap.get(key) if isinstance(snap, dict) else None
        return snap or 0

    def delta(*path):
        return dig(last, path) - dig(first, path)

    def share(part, whole):
        return part / whole if whole else 0.0

    # a faster commit gets through more operations in the same seconds,
    # so every count is per operation
    out = {}
    out["net.server.cmds_per_batch"] = share(delta("net", "commands"),
                                             delta("net", "batches"))
    out["net.server.flow_pauses"] = share(delta("net", "flow_pauses"), ops)
    out["net.group.fsyncs_per_commit"] = share(
        delta("net", "group_commit", "flushes"), delta("commits"))
    out["net.group.coalesced_share"] = share(
        delta("net", "group_commit", "coalesced"),
        delta("net", "group_commit", "waits"))
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    out["sqldb.cache.hit_share"] = share(hits, hits + misses)
    out["sqldb.cache.evictions"] = share(delta("cache", "evictions"), ops)
    out["sqldb.engine.lock_contended"] = share(delta("locks_contended"),
                                               ops)
    out["sqldb.wal.bytes_per_op"] = share(delta("wal_bytes"), ops)
    out["sqldb.wal.checkpoints"] = share(len(checkpoints), ops)
    out["sqldb.wal.checkpoint_s"] = median(
        record["seconds"] for record in checkpoints)
    pool_hits, pool_misses = delta("storage", "hits"), \
        delta("storage", "misses")
    out["sqldb.pager.hit_share"] = share(pool_hits, pool_hits + pool_misses)
    out["sqldb.pager.evictions_per_op"] = share(
        delta("storage", "evictions"), ops)
    out["sqldb.pager.reads_per_op"] = share(
        delta("storage", "pager", "reads"), ops)
    out["sqldb.pager.writes_per_op"] = share(
        delta("storage", "pager", "writes"), ops)
    out["sqldb.pager.dirty_flushes"] = share(
        delta("storage", "dirty_flushes"), ops)
    out["core.septic.hook_us_per_query"] = share(
        delta("septic_s") * 1e6, delta("septic", "queries_processed"))
    out["core.septic.blocked"] = share(delta("septic", "queries_dropped"),
                                       ops)
    # oracle failures of the whole run, 0 on a correct one
    out["core.septic.false_positives"] = getattr(
        workload, "false_positives", 0)
    out["core.septic.false_negatives"] = getattr(
        workload, "false_negatives", 0)
    out["core.septic.unknown_queries"] = share(
        delta("septic", "unknown_queries"), ops)
    out["core.store.models"] = last["models"]
    return out


def wire_inprocess_pass(module, base, settings, max_ops, budget, tracer):
    """The same generator against the same stack with everything in this
    process: one connection, depth 1.  Returns ``(ops, seconds, failed)``."""
    from repro.net.client import NetClient
    from repro.net.server import NetServer

    workload = base.fresh(1)
    data_dir = scratch_dir(workload.name + "-inproc")
    database = server = client = None
    try:
        database, _septic = module.build_stack(
            workload.server_config(data_dir))
        server = NetServer(database)
        server.start()
        client = NetClient("127.0.0.1", server.port)
        session = workload.session(client, 0)
        ops = failed = 0
        clock = time.perf_counter
        # caches fill and lazy imports happen off the clock, or the
        # first pass in a process would always look slower
        for _turn in range(max(10, max_ops // 20)):
            op = session.next_op()
            if not session.check(op, session.roundtrip(op)):
                failed += 1
        if tracer is not None:
            tracer.active = True
        start = clock()
        while ops < max_ops and clock() - start < budget:
            op = session.next_op()
            if not session.check(op, session.roundtrip(op)):
                failed += 1
            ops += 1
        elapsed = clock() - start
        if tracer is not None:
            tracer.active = False
        return ops, elapsed, failed
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()
        if database is not None:
            database.close()
        remove_tree(data_dir)


def traced_metrics(name, untraced_pass, traced_pass, probe):
    """Run the untraced in-process pass, install the shims, run the
    traced pass over the same operations; returns the trace-derived
    per-layer figures and ``(attempted, failed)``."""
    # as in time_recoveries: the measured phase's samples stay out of the
    # collector's way, or a full collection over them lands in some span
    gc.collect()
    gc.freeze()
    try:
        before = probe.read()
        ops, seconds, failed = untraced_pass()
        middle = probe.read()
        tracer = Tracer()
        tracer.install()
        # the traced pass replays exactly the operations the untraced
        # one got through in its budget, however long the shims make
        # that take
        traced_ops, traced_seconds, traced_failed = traced_pass(tracer, ops)
        # the two passes run minutes apart on the host's clock: compare
        # them at one speed
        seconds *= speed_between(before, middle)
        traced_seconds *= speed_between(middle, probe.read())
    finally:
        gc.unfreeze()
    layers, rooted_ops, coverage = tracer.analyse()
    tracer.write(os.path.join(OUT_DIR, "trace_%s.jsonl" % name))
    out = {}
    per_op = max(1, rooted_ops)
    for layer in LAYERS:
        self_seconds, calls = layers.get(layer, (0.0, 0))
        out[layer + ".self_us_per_op"] = self_seconds / per_op * 1e6
        out[layer + ".calls_per_op"] = calls / per_op
    out["net.protocol.bytes_per_op"] = tracer.frame_bytes / per_op
    out["sqldb.plan.rows_scanned_per_row_returned"] = (
        tracer.rows_scanned / tracer.rows_returned
        if tracer.rows_returned else 0.0)
    out["sqldb.plan.peak_materialized_rows"] = tracer.peak_materialized
    out["trace.coverage"] = coverage
    untraced_per_op = seconds / max(1, ops)
    traced_per_op = traced_seconds / max(1, traced_ops)
    out["trace.overhead"] = (traced_per_op / untraced_per_op - 1.0
                             if untraced_per_op else 0.0)
    return out, ops + traced_ops, failed + traced_failed


# -- one run ------------------------------------------------------------------

def run_one(manifest, name, seed, settings, trace, probe, server_cpu):
    """Run one workload; prints its metrics and the result line, returns
    the result object."""
    module = load_workload(name)
    if hasattr(module, "run"):
        # the in-process fleet brings its own driver
        attempted, failed, end_to_end, info, counters = module.run(
            seed, settings, probe)

        def untraced_pass():
            return module.inprocess_pass(seed, settings, probe,
                                         settings.trace_ops,
                                         settings.trace_budget)

        def traced_pass(tracer, ops):
            return module.inprocess_pass(seed, settings, probe, ops,
                                         settings.trace_budget * 8, tracer)
    else:
        workload, attempted, failed, end_to_end, info, counters = run_wire(
            module, seed, settings, probe, server_cpu)

        def untraced_pass():
            return wire_inprocess_pass(module, workload, settings,
                                       settings.trace_ops,
                                       settings.trace_budget, None)

        def traced_pass(tracer, ops):
            return wire_inprocess_pass(module, workload, settings, ops,
                                       settings.trace_budget * 8, tracer)

    out = sys.stdout
    out.write("== %s (seed %d, %.1f s, scale %g) ==\n"
              % (name, seed, settings.seconds, settings.scale))
    for key in sorted(info):
        out.write("  %-32s %s\n" % (key, info[key]))
    table = [(entry["name"], entry["unit"], end_to_end[entry["name"]])
             for entry in manifest["end_to_end"]]
    for key, unit, value in table:
        out.write("%-46s %18.6f %s\n" % (key, value, unit))
    for key, unit in INFORMATIONAL:
        out.write("%-46s %18.6f %s  (informational)\n"
                  % (key, end_to_end[key], unit))
    if trace:
        traced, more_attempted, more_failed = traced_metrics(
            name, untraced_pass, traced_pass, probe)
        attempted += more_attempted
        failed += more_failed
        counters.update(traced)
        table = [(entry["name"], entry["unit"],
                  counters.get(entry["name"], 0.0))
                 for entry in manifest["per_layer"]]
        for key, unit, value in table:
            out.write("%-46s %18.6f %s\n" % (key, value, unit))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, unit, value in table},
    }
    out.write(json.dumps(result) + "\n")
    out.flush()
    return result


def main(argv=None):
    manifest = load_manifest()
    workloads = [entry["name"] for entry in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(manifest["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/50 size, every oracle still applied")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets of runs, compared with the bounds")
    args = parser.parse_args(argv)
    names = workloads if args.workload == "all" else [args.workload]
    add_src_to_path()
    if args.selfcheck:
        import selfcheck

        return selfcheck.main(manifest, names, args.seed, args.seconds)
    # the server child on one CPU, this process on another, each with a
    # probe that says how fast its CPU is running (common.SpeedProbe)
    server_cpu, own_cpu = two_cpus()
    pin_to_cpu(own_cpu)
    probe = SpeedProbe()
    probe.start()
    ok = True
    try:
        for name in names:
            if args.smoke:
                settings = smoke_settings(min(args.seconds, 0.4))
                trace = 1
            else:
                settings = full_settings(args.seconds, args.trace)
                trace = args.trace
            ok = run_one(manifest, name, args.seed, settings, trace, probe,
                         server_cpu)["correct"] and ok
    finally:
        remove_scratch()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
