"""The BenchLab measurement harness (drives the §II-F experiments).

``run_benchlab`` assembles one full testbed — SEPTIC-enabled database,
application, server machine, client machines with browsers — runs the
closed-loop replay and returns latency statistics.

``run_overhead_experiment`` reproduces Figure 5: for each application it
measures the original server (no SEPTIC) and the four SEPTIC detection
configurations (NN / YN / NY / YY), reporting average-latency overheads.

``run_scaling_experiment`` reproduces the §II-F ramp: 1→4 machines with
one browser each, then 8/12/16/20 browsers on four machines.
"""

import random
import time
from collections import defaultdict

from repro.benchlab.machines import BrowserClient, NetworkLink, ServerMachine
from repro.benchlab.simulation import FifoResource, Simulator
from repro.benchlab.workload import workload_for
from repro.core.logger import SepticLogger
from repro.core.septic import Mode, Septic, SepticConfig
from repro.sqldb.cache import DEFAULT_CACHE_SIZE
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.web.server import WebServer

#: SEPTIC detection configurations of Figure 5 (None = original MySQL)
FIG5_CONFIGS = ("baseline", "NN", "YN", "NY", "YY")


class BenchLabResult(object):
    """Latency statistics of one testbed run."""

    __slots__ = ("label", "latencies", "virtual_duration",
                 "measured_seconds", "requests", "cache_stats")

    def __init__(self, label, latencies, virtual_duration, measured_seconds,
                 cache_stats=None):
        self.label = label
        self.latencies = latencies
        self.virtual_duration = virtual_duration
        self.measured_seconds = measured_seconds
        self.requests = len(latencies)
        #: pipeline-cache counters of the database under test (``None``
        #: when the cache is disabled); the replayed workload loops over
        #: a fixed query mix, so the hit rate shows how much of the
        #: request cost the cache absorbed
        self.cache_stats = cache_stats

    @property
    def avg_latency(self):
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def p95_latency(self):
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]

    @property
    def throughput(self):
        if self.virtual_duration <= 0:
            return 0.0
        return self.requests / self.virtual_duration

    def overhead_vs(self, baseline):
        """Average-latency overhead relative to *baseline* (a fraction;
        multiply by 100 for the paper's percentages)."""
        if baseline.avg_latency == 0:
            return 0.0
        return (self.avg_latency - baseline.avg_latency) / \
            baseline.avg_latency

    def __repr__(self):
        return "BenchLabResult(%s, %d req, avg=%.3f ms)" % (
            self.label, self.requests, self.avg_latency * 1000.0
        )


def build_stack(app_class, septic_flags=None, mode=Mode.PREVENTION,
                training_passes=1, cache_size=DEFAULT_CACHE_SIZE,
                data_dir=None):
    """Build (server, app, septic) for one configuration.

    *septic_flags* is ``None`` for the original server (no SEPTIC) or a
    two-letter Y/N string (Figure 5 notation).  SEPTIC stacks are trained
    by replaying the workload in training mode first, like the demo.
    *cache_size* sizes the database's pipeline cache (``0`` disables it,
    for cold-path ablations).  With a *data_dir* the stack is durable:
    the database is recovered from that directory (WAL + checkpoint)
    and SEPTIC's models are co-persisted with its LSN watermark, so
    ``database.reopen()`` + ``septic.reload_models()`` is a restart.
    """
    septic = None
    if septic_flags is not None:
        septic = Septic(
            mode=Mode.TRAINING,
            config=SepticConfig.from_flags(septic_flags),
            logger=SepticLogger(verbose=False),
        )
    if data_dir is None:
        database = Database(name=app_class.name, septic=septic,
                            cache_size=cache_size)
    else:
        database = Database.recover(data_dir, name=app_class.name,
                                    septic=septic, cache_size=cache_size)
        if septic is not None:
            septic.bind_store(database)
    app = app_class(database)
    if septic is not None:
        for _ in range(training_passes):
            for request in app.workload_requests():
                app.handle(request)
        septic.mode = mode
    return WebServer(app), app, septic


def run_benchlab(app_class, septic_flags=None, machines=4,
                 browsers_per_machine=5, loops=5, workers=8,
                 link=None, label=None, think_time=0.0):
    """Run one full testbed configuration and collect latencies."""
    server, app, septic = build_stack(app_class, septic_flags)
    simulator = Simulator()
    station = ServerMachine(simulator, server, workers=workers)
    link = link or NetworkLink()
    workload = workload_for(app)
    browsers = []
    for machine in range(machines):
        for slot in range(browsers_per_machine):
            browser = BrowserClient(
                simulator, station, link, workload, loops,
                name="m%d-b%d" % (machine, slot),
                think_time=think_time,
            )
            # stagger starts like real browsers ramping up
            browser.start(initial_delay=0.01 * len(browsers))
            browsers.append(browser)
    simulator.run()
    latencies = []
    for browser in browsers:
        latencies.extend(browser.latencies)
    cache = app.database.pipeline_cache
    return BenchLabResult(
        label or (septic_flags or "baseline"),
        latencies,
        simulator.now,
        station.septic_seconds,
        cache_stats=cache.stats_dict() if cache is not None else None,
    )


def run_overhead_experiment(app_classes, configs=FIG5_CONFIGS, machines=4,
                            browsers_per_machine=5, loops=5, repeats=3):
    """Figure 5: average latency overhead per SEPTIC configuration.

    Returns ``{app_name: {config: overhead_fraction}}`` plus the raw
    results under the ``"_results"`` key of each app entry.  Each
    configuration is run *repeats* times and the run with the median
    average latency is kept (damps scheduler noise in the measured
    service times).
    """
    table = {}
    for app_class in app_classes:
        results = {}
        for config in configs:
            flags = None if config == "baseline" else config
            runs = [
                run_benchlab(
                    app_class, flags, machines=machines,
                    browsers_per_machine=browsers_per_machine, loops=loops,
                    label=config,
                )
                for _ in range(repeats)
            ]
            runs.sort(key=lambda r: r.avg_latency)
            results[config] = runs[len(runs) // 2]
        baseline = results["baseline"]
        overheads = {
            config: results[config].overhead_vs(baseline)
            for config in configs if config != "baseline"
        }
        overheads["_results"] = results
        table[app_class.name] = overheads
    return table


def run_scaling_experiment(app_class, loops=5, workers=8, repeats=1):
    """§II-F ramp for one application (the paper uses refbase):

    1→4 machines × 1 browser, then 4 machines × 2/3/4/5 browsers
    (8, 12, 16, 20 browsers total).  Returns a list of
    ``(total_browsers, machines, result)`` rows for the YY configuration.
    """
    steps = [(1, 1), (2, 1), (3, 1), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5)]
    rows = []
    for machines, per_machine in steps:
        runs = [
            run_benchlab(
                app_class, "YY", machines=machines,
                browsers_per_machine=per_machine, loops=loops,
                workers=workers,
                label="%dx%d" % (machines, per_machine),
            )
            for _ in range(repeats)
        ]
        runs.sort(key=lambda r: r.avg_latency)
        result = runs[len(runs) // 2]
        rows.append((machines * per_machine, machines, result))
    return rows


class _Record(object):
    """A result record: keyword construction over ``__slots__``, every
    field required, nothing else accepted."""

    __slots__ = ()

    def __init__(self, **kwargs):
        for name in self.__slots__:
            setattr(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError("unexpected fields: %s" % sorted(kwargs))

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class FailoverExperimentResult(_Record):
    """What :func:`run_failover_experiment` measured."""

    __slots__ = ("replicas", "readers", "read_service", "heartbeat_seconds",
                 "lease_intervals", "fail_at", "duration", "reads_before",
                 "reads_during", "reads_after", "throughput_before",
                 "throughput_during", "throughput_after", "promote_time",
                 "restore_time", "outage_intervals", "failed_reads",
                 "writes_ok", "write_failures", "promotions", "rows_expected",
                 "rows_on_primary", "converged")

    def __repr__(self):
        return ("FailoverExperimentResult(replicas=%d, thr before/during/"
                "after=%.0f/%.0f/%.0f reads/s, outage=%s intervals)"
                % (self.replicas, self.throughput_before,
                   self.throughput_during, self.throughput_after,
                   self.outage_intervals))


def run_failover_experiment(workdir, replicas=2, readers=6, seed=1,
                            read_service=None, heartbeat_seconds=0.05,
                            lease_intervals=3, fail_at=1.0, duration=3.0,
                            max_lag_lsn=8, rows=64):
    """The failover DES: replica-served read throughput before, during
    and after the primary dies, in virtual time.

    A real :class:`~repro.replica.coordinator.ReplicaSet` (primary plus
    *replicas* WAL-shipping followers over *workdir*) runs under the
    simulator's clock: every *heartbeat_seconds* of virtual time is one
    coordinator tick, so leases, elections and shipments all advance as
    the simulation does.  *readers* closed-loop virtual clients issue
    reads routed by the set's own :class:`RoutingConnection` staleness
    policy (each serving node modelled as a serial FIFO resource with
    *read_service* seconds per read, measured live when not pinned); a
    writer probes one real INSERT against the live primary every
    interval.  At *fail_at* the primary is killed in place.  In-flight
    reads on the dead node fail and retry against survivors with
    seeded exponential backoff + jitter.

    ``restore_time`` is the first successful probe write after the
    kill; ``outage_intervals`` expresses the write outage in heartbeat
    intervals (the ISSUE's bound: lease expiry + election, not
    wall-clock luck).  After the run the set is flushed and the result
    records whether every survivor converged to the same applied LSN
    and the primary holds exactly the acknowledged row count.
    """
    from repro.replica import ReplicaSet

    replica_set = ReplicaSet(workdir, replicas=replicas, seed=seed,
                             heartbeat_interval=1,
                             lease_intervals=lease_intervals)
    connections = {}

    def conn_for(node):
        conn = connections.get(node.name)
        if conn is None or conn.database is not node.database:
            conn = Connection(node.database)
            connections[node.name] = conn
        return conn

    setup = conn_for(replica_set.primary)
    setup.query_or_raise(
        "CREATE TABLE kv (id INT AUTO_INCREMENT PRIMARY KEY, v INT)")
    for index in range(rows):
        setup.query_or_raise("INSERT INTO kv (v) VALUES (%d)" % index)
    replica_set.ship()
    read_sql = "SELECT COUNT(*) FROM kv"
    if read_service is None:
        best = None
        for _ in range(3):
            start = time.perf_counter()
            setup.query_or_raise(read_sql)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        read_service = max(best, 1e-6)
    router = replica_set.connect(max_lag_lsn=max_lag_lsn, seed=seed)
    simulator = Simulator()
    rng = random.Random(seed)
    serving = defaultdict(FifoResource)     # one serial server per node
    counts = {"failed_reads": 0, "writes_ok": 0, "write_failures": 0}
    state = {"promote_time": None, "restore_time": None}
    completions = []

    def beat():
        replica_set.tick(1)
        if replica_set.promotions and state["promote_time"] is None:
            state["promote_time"] = simulator.now
        if simulator.now + heartbeat_seconds <= duration + 1e-9:
            simulator.schedule(heartbeat_seconds, beat)

    def probe_write():
        primary = replica_set.primary
        if primary is None:
            counts["write_failures"] += 1
        else:
            outcome = conn_for(primary).query(
                "INSERT INTO kv (v) VALUES (%d)" % rng.randrange(1000))
            if outcome.ok:
                # semi-sync: ship before acknowledging, so every write
                # this probe counts survives the failover
                replica_set.ship()
                counts["writes_ok"] += 1
                if (simulator.now >= fail_at
                        and state["restore_time"] is None):
                    state["restore_time"] = simulator.now
            else:
                counts["write_failures"] += 1
        if simulator.now + heartbeat_seconds <= duration + 1e-9:
            simulator.schedule(heartbeat_seconds, probe_write)

    def issue_read(reader_id, attempt):
        if simulator.now >= duration:
            return
        node = router.pick_node(True)
        if node is None or not node.alive:
            counts["failed_reads"] += 1
            delay = min(8.0, float(2 ** attempt)) * heartbeat_seconds * 0.5
            delay *= 1.0 + 0.5 * rng.random()
            simulator.schedule(delay, issue_read, reader_id, attempt + 1)
            return
        finish = serving[node.name].serve(simulator.now, read_service)
        simulator.schedule(finish - simulator.now, finish_read,
                           reader_id, node)

    def finish_read(reader_id, node):
        if not node.alive:
            # died mid-flight: the retry goes to a survivor
            counts["failed_reads"] += 1
            simulator.schedule(heartbeat_seconds * 0.5, issue_read,
                               reader_id, 1)
            return
        completions.append(simulator.now)
        issue_read(reader_id, 0)

    simulator.schedule(0.0, beat)
    simulator.schedule(heartbeat_seconds * 0.5, probe_write)
    if fail_at <= duration:
        simulator.schedule(fail_at, replica_set.kill_primary)
    for reader in range(readers):
        simulator.schedule((reader + 1) * 1e-9, issue_read, reader, 0)
    simulator.run()

    restore = state["restore_time"]
    cut = fail_at if fail_at <= duration else duration
    boundary = restore if restore is not None else duration
    before = [t for t in completions if t < cut]
    during = [t for t in completions if cut <= t < boundary]
    after = [t for t in completions if boundary <= t <= duration]

    def rate(count, window):
        return count / window if window > 1e-12 else 0.0

    outage = None
    if restore is not None and fail_at <= duration:
        outage = (restore - fail_at) / heartbeat_seconds
    # drain: ship whatever the probes wrote since the last beat, then
    # check the survivors all landed on one applied frontier and the
    # primary holds exactly the acknowledged rows
    replica_set.ship()
    alive = [node for node in replica_set.nodes if node.alive]
    frontiers = set(node.applied_lsn for node in alive)
    rows_expected = rows + counts["writes_ok"]
    rows_on_primary = None
    primary = replica_set.primary
    if primary is not None:
        outcome = conn_for(primary).query_or_raise(read_sql)
        rows_on_primary = outcome.rows[0][0]
    converged = (len(frontiers) == 1
                 and rows_on_primary == rows_expected)
    promotions = replica_set.promotions
    replica_set.close()
    return FailoverExperimentResult(
        replicas=replicas, readers=readers, read_service=read_service,
        heartbeat_seconds=heartbeat_seconds,
        lease_intervals=lease_intervals, fail_at=fail_at,
        duration=duration, reads_before=len(before),
        reads_during=len(during), reads_after=len(after),
        throughput_before=rate(len(before), cut),
        throughput_during=rate(len(during), boundary - cut),
        throughput_after=rate(len(after), duration - boundary),
        promote_time=state["promote_time"], restore_time=restore,
        outage_intervals=outage, failed_reads=counts["failed_reads"],
        writes_ok=counts["writes_ok"],
        write_failures=counts["write_failures"], promotions=promotions,
        rows_expected=rows_expected, rows_on_primary=rows_on_primary,
        converged=converged,
    )


class ScaleOutResult(_Record):
    """What :func:`run_scaleout_experiment` measured for one fleet size."""

    __slots__ = ("shards", "clients", "duration", "service_seconds",
                 "scatter_fraction", "completed", "single_shard",
                 "scatter", "throughput", "per_shard_served",
                 "balance_ratio")

    def __repr__(self):
        return ("ScaleOutResult(shards=%d, %.0f req/s, balance=%.2f)"
                % (self.shards, self.throughput, self.balance_ratio))


def run_scaleout_experiment(shards=4, clients=16, seed=1, duration=5.0,
                            service_seconds=0.002, scatter_fraction=0.05,
                            keyspace=4096):
    """The sharded scale-out DES: closed-loop throughput vs fleet size,
    in virtual time.

    Each shard is a serial FIFO resource charging *service_seconds* per
    statement it executes — the single-engine bottleneck the sharding
    work exists to split.  *clients* closed-loop virtual clients draw
    seeded keys from *keyspace* and route them through the **real
    partitioning function** (:meth:`ShardCatalog.shard_of`), so the DES
    inherits exactly the key distribution (and any skew) production
    routing would see.  A *scatter_fraction* of requests are cross-shard
    reads: they occupy *every* shard's FIFO and complete when the
    slowest shard finishes — the gather barrier, priced honestly.

    Single-shard-routed work scales with the fleet; scattered work does
    not.  Comparing ``throughput`` at 1 vs 4 shards is the benchmark's
    scale-out gate; ``balance_ratio`` (min/max per-shard served counts)
    sanity-checks the hash spread.
    """
    from repro.shard.catalog import ShardCatalog

    catalog = ShardCatalog(shards)
    simulator = Simulator()
    rng = random.Random(seed)
    fleet = [FifoResource() for _ in range(shards)]
    counts = {"completed": 0, "single": 0, "scatter": 0}

    def issue():
        if simulator.now >= duration:
            return
        if shards > 1 and rng.random() < scatter_fraction:
            finish = max(shard.serve(simulator.now, service_seconds)
                         for shard in fleet)
            kind = "scatter"
        else:
            key = "user%05d" % rng.randrange(keyspace)
            finish = fleet[catalog.shard_of(key)].serve(simulator.now,
                                                        service_seconds)
            kind = "single"
        simulator.schedule(finish - simulator.now, complete, kind)

    def complete(kind):
        if simulator.now <= duration + 1e-9:
            counts["completed"] += 1
            counts[kind] += 1
        issue()

    for client in range(clients):
        # stagger arrivals so the closed loop doesn't start in lockstep
        simulator.schedule(client * (service_seconds / max(clients, 1)),
                           issue)
    simulator.run(until=duration + service_seconds * 4)

    served = [shard.served for shard in fleet]
    low, high = min(served), max(served)
    return ScaleOutResult(
        shards=shards, clients=clients, duration=duration,
        service_seconds=service_seconds,
        scatter_fraction=scatter_fraction,
        completed=counts["completed"], single_shard=counts["single"],
        scatter=counts["scatter"],
        throughput=counts["completed"] / duration,
        per_shard_served=served,
        balance_ratio=(low / float(high)) if high else 1.0,
    )
