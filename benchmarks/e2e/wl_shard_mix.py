"""``shard_mix`` — the fleet, in-process.

``ShardRouter(shards=4, replicas=1, septic_factory=…)``, one thread,
depth 1: 60 % keyed point reads, 20 % keyed writes, 15 % scatter
(GROUP BY / TopK / filtered aggregate) and 5 % cross-shard union, with
``router.tick()`` every 20 operations so WAL shipping and heartbeats
run.  It is the only workload where ``shard.router``,
``DistributedPlanner``, ``replica.router`` and ``replica.coordinator``
do work, and it gives the first *measured* number beside the modelled
3.24×.

It runs in this process because ``NetServer`` cannot front a
``ShardRouter`` yet; when the composition root lands, a later benchmark
issue moves it onto the wire.  So there is no server child here:
``cpu_us_per_op`` is the driving thread's own CPU around the router calls,
``server_rss_mb`` is this process's peak RSS (twin included), and the
phase clock only runs while the router does — the single-node twin every
result is compared with runs between operations, off the clock.

``recover_s`` restarts shard 0's primary from a copy of its data
directory after the fleet is closed; the recovered rows must be exactly
the twin's rows that hash to shard 0.
"""

import bisect
import os
import random
import resource
import time

from common import (
    median, read_cpu_jiffies, remove_tree, rss_at_fixed_work, scratch_dir,
    slice_metrics, speed_between, steal_share, time_recoveries, zipf_cdf,
)

NAME = "shard_mix"

SHARDS = 4
REPLICAS = 1
ROWS = 2000
#: operations between ``router.tick()`` calls: one deck.  The issue
#: sketched 50; at 20 a heartbeat interval — a slice — is a hundred
#: operations and a run holds a dozen, whose median is steadier than
#: the median of five
TICK_EVERY = 20
#: operations per slice: one whole heartbeat interval (5 ticks), i.e.
#: exactly one WAL shipment per shard
CYCLE_OPS = TICK_EVERY * 5
#: keyed UPDATEs on shard 0 after its last checkpoint, before its restart
TAIL_OPS = 60
ZIPF_S = 0.99
REGIONS = ("north", "south", "east", "west", "centre")

DDL = ("CREATE TABLE accounts (owner VARCHAR(16) PRIMARY KEY, amount INT, "
       "region VARCHAR(8), visits INT)")
POINT_READ = "SELECT amount, region, visits FROM accounts WHERE owner = '%s'"
UPDATE = "UPDATE accounts SET amount = %d, visits = %d WHERE owner = '%s'"
INSERT = ("INSERT INTO accounts (owner, amount, region, visits) "
          "VALUES ('%s', %d, '%s', %d)")
DELETE = "DELETE FROM accounts WHERE owner = '%s'"
GROUP_BY = "SELECT region, COUNT(*), SUM(amount) FROM accounts GROUP BY region"
TOPK = ("SELECT owner, amount FROM accounts ORDER BY amount DESC, owner "
        "LIMIT 10")
FILTERED = "SELECT COUNT(*), MAX(amount) FROM accounts WHERE amount > %d"
UNION = "SELECT owner, amount FROM accounts WHERE amount > %d"

#: one shuffled deck of these per 20 operations, five to a slice: 60 %
#: keyed reads, 20 % keyed writes, 15 % scatter, 5 % union — exact on
#: every seed; one INSERT per DELETE, so the table keeps its size however
#: many operations a run gets through
DECK = (("read",) * 12 + ("update",) * 2 + ("insert", "delete", "group",
                                            "topk", "filtered", "union"))


def owner(index):
    return "user%05d" % index


def _septic_factory():
    from repro.core.septic import Mode, Septic

    return Septic(mode=Mode.TRAINING)


class Fleet(object):
    """The router plus the single-node twin, loaded and trained alike."""

    def __init__(self, workdir, seed, scale):
        from repro.core.septic import Mode
        from repro.shard import ShardRouter
        from repro.sqldb.connection import Connection
        from repro.sqldb.engine import Database

        self.rows = max(80, int(ROWS * scale))
        self.router = ShardRouter(workdir, shards=SHARDS, replicas=REPLICAS,
                                  septic_factory=_septic_factory, seed=seed)
        self.twin = Connection(Database())
        rng = random.Random(seed * 2741 + 1)
        self.both(DDL)
        # multi-row INSERTs must land on one shard each: group the rows
        # by the catalog's own partitioning function
        by_shard = {}
        for index in range(self.rows):
            name = owner(index)
            shard = self.router.catalog.shard_for("accounts", name)
            by_shard.setdefault(shard, []).append(
                "('%s', %d, '%s', %d)" % (name, rng.randrange(10000),
                                          rng.choice(REGIONS), 0))
        for shard in sorted(by_shard):
            values = by_shard[shard]
            for start in range(0, len(values), 125):
                self.both("INSERT INTO accounts (owner, amount, region, "
                          "visits) VALUES " + ", ".join(
                              values[start:start + 125]))
        # training: every statement shape; the keyed ones once per
        # shard, so each shard's own SEPTIC has seen each of them
        trained = set()
        for index in range(self.rows):
            shard = self.router.catalog.shard_for("accounts", owner(index))
            if shard in trained:
                continue
            trained.add(shard)
            self.both(POINT_READ % owner(index))
            self.both(UPDATE % (index, 1, owner(index)))
            self.both(DELETE % owner(index))
            self.both(INSERT % (owner(index), index, "north", 0))
            if len(trained) == SHARDS:
                break
        for sql in (GROUP_BY, TOPK, FILTERED % 5000, UNION % 9900):
            self.both(sql)
        self.router.ship()
        for database in self.databases():
            database.septic.mode = Mode.PREVENTION

    def both(self, sql):
        self.router.query_or_raise(sql)
        self.twin.query_or_raise(sql)

    def databases(self):
        return [node.database for replica_set in self.router.shard_sets
                for node in replica_set.nodes]

    def septic_seconds(self):
        return sum(db.septic_seconds_total for db in self.databases())

    def septic_counters(self):
        """Every node's SEPTIC counters, summed."""
        total = {}
        for database in self.databases():
            for key, value in database.septic.stats.as_dict().items():
                total[key] = total.get(key, 0) + value
        return total

    def wal_bytes(self):
        return sum(db.wal.stats_dict()["bytes_written"]
                   for db in self.databases() if db.wal is not None)

    def max_lag(self):
        return max(row["lag"] for replica_set in self.router.shard_sets
                   for row in replica_set.status()["nodes"])

    def shipped_records(self):
        """Log records replicas have taken in so far."""
        from repro.replica.node import Role

        return sum(
            row["seen_lsn"]
            for replica_set in self.router.shard_sets
            for row in replica_set.status()["nodes"]
            if row["role"] == Role.REPLICA)


class Generator(object):
    """``(is_write, ordered, sql)`` operations, seeded."""

    def __init__(self, seed, rows):
        self.rng = random.Random(seed * 9173 + 2)
        self.keys = [owner(index) for index in range(rows)]
        self.rng.shuffle(self.keys)
        self.cdf = zipf_cdf(rows, ZIPF_S)
        self.inserted = []
        self.counter = 0
        self.deck = []
        #: the tail before the restart: when set, every operation is an
        #: UPDATE of one of these keys
        self.tail_keys = None

    def _key(self):
        rank = bisect.bisect_left(self.cdf, self.rng.random())
        return self.keys[min(rank, len(self.keys) - 1)]

    def next_op(self):
        self.counter += 1
        rng = self.rng
        if not self.deck:
            self.deck = list(DECK)
            rng.shuffle(self.deck)
        kind = self.deck.pop()
        if self.tail_keys is not None:
            return (True, True, UPDATE % (rng.randrange(10000), self.counter,
                                          rng.choice(self.tail_keys)))
        if kind == "delete" and not self.inserted:
            kind = "insert"  # nothing of ours to delete yet
        if kind == "read":
            return (False, True, POINT_READ % self._key())
        if kind == "update":
            return (True, True, UPDATE % (rng.randrange(10000),
                                          self.counter, self._key()))
        if kind == "insert":
            name = "new%07d" % self.counter
            self.inserted.append(name)
            return (True, True, INSERT % (name, rng.randrange(10000),
                                          rng.choice(REGIONS), 0))
        if kind == "delete":
            return (True, True, DELETE % self.inserted.pop(0))
        if kind == "group":
            return (False, False, GROUP_BY)
        if kind == "topk":
            return (False, True, TOPK)
        if kind == "filtered":
            return (False, True, FILTERED % (rng.randrange(5, 9) * 1000))
        return (False, False, UNION % rng.randrange(9500, 9900))


class Recorder(object):
    """What :func:`drive` measured, in the shape ``run.slice_metrics``
    takes: latencies stamped on the router-busy clock, and one mark per
    slice boundary."""

    def __init__(self):
        self.reads = [[]]
        self.writes = [[]]
        self.attempted = 0
        self.failed = [0]
        self.write_ops = 0
        self.marks = []
        self.max_lag = 0


def _same(outcome, expected, is_write, ordered):
    if (outcome.error is None) != (expected.error is None):
        return False
    if outcome.error is not None:
        return False  # no operation of this workload may fail
    if is_write:
        return outcome.affected_rows == expected.affected_rows
    rows = [tuple(row) for row in outcome.rows]
    want = [tuple(row) for row in expected.rows]
    if not ordered:
        rows.sort(key=repr)
        want.sort(key=repr)
    return rows == want


def drive(fleet, generator, probe, seconds=None, max_ops=None, cycle=None,
          tracer=None):
    """The measured loop.  Only the router's own time advances the phase
    clock; the twin runs between operations, off it — and, with a
    *tracer*, outside the spans: the oracle's statements are not the
    program's.

    With *cycle*, a mark is taken every *cycle* operations and the loop
    only stops on a mark, so every slice holds the same number of
    heartbeat rounds: a slice cut by the wall clock held one or two WAL
    shipments by chance, and its throughput swung 40 % with it."""
    router, twin = fleet.router, fleet.twin
    out = Recorder()
    reads, writes = out.reads[0], out.writes[0]
    busy = cpu = 0.0
    # the fleet runs on this thread alone, and the probe's chunks, on
    # theirs, are not its CPU
    clock, cpu_clock = time.perf_counter, time.thread_time

    def mark():
        out.marks.append((busy, out.attempted, {
            "cpu_s": cpu, "septic_s": fleet.septic_seconds(),
            "probe": probe.read(),
            "rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}))

    start = clock()
    mark()
    while max_ops is None or out.attempted < max_ops:
        on_mark = cycle is None or out.attempted % cycle == 0
        if on_mark and out.attempted and cycle is not None:
            mark()
        if seconds is not None and on_mark and clock() - start >= seconds:
            break
        is_write, ordered, sql = generator.next_op()
        c0 = cpu_clock()
        t0 = clock()
        outcome = router.query(sql)
        t1 = clock()
        c1 = cpu_clock()
        busy += t1 - t0
        cpu += c1 - c0
        (writes if is_write else reads).append((busy, t1 - t0))
        out.attempted += 1
        out.write_ops += is_write
        if tracer is not None:
            tracer.active = False
        expected = twin.query(sql)
        if tracer is not None:
            tracer.active = True
        if not _same(outcome, expected, is_write, ordered):
            out.failed[0] += 1
        if out.attempted % TICK_EVERY == 0:
            lag = fleet.max_lag()
            if lag > out.max_lag:
                out.max_lag = lag
            c0 = cpu_clock()
            t0 = clock()
            router.tick()
            busy += clock() - t0
            cpu += cpu_clock() - c0
    if out.marks[-1][1] != out.attempted:
        mark()
    return out


def inprocess_pass(seed, settings, probe, max_ops, budget, tracer=None):
    """A fresh fleet driven for *max_ops* operations (or *budget*
    seconds): the untraced and the traced pass of ``--trace 1``.
    Returns ``(ops, router seconds, failed)``."""
    workdir = scratch_dir(NAME + "-inproc")
    fleet = None
    try:
        fleet = Fleet(os.path.join(workdir, "fleet"), seed, settings.scale)
        generator = Generator(seed, fleet.rows)
        warm = drive(fleet, generator, probe, max_ops=max(10, max_ops // 20))
        if tracer is not None:
            tracer.active = True
        out = drive(fleet, generator, probe, seconds=budget, max_ops=max_ops,
                    tracer=tracer)
        if tracer is not None:
            tracer.active = False
        return (out.attempted, out.marks[-1][0],
                out.failed[0] + warm.failed[0])
    finally:
        if fleet is not None:
            fleet.router.close()
        remove_tree(workdir)


def run(seed, settings, probe):
    """One whole run; returns ``(attempted, failed, end-to-end metrics,
    info, per-layer counters)``."""
    from repro.sqldb.connection import Connection
    from repro.sqldb.engine import Database

    seconds = settings.seconds
    setups = []
    fleet = workdir = None
    copies = []
    try:
        for _turn in range(settings.repeats):
            if fleet is not None:
                fleet.router.close()
                remove_tree(workdir)
            workdir = scratch_dir(NAME)
            before = probe.read()
            start = time.perf_counter()
            fleet = Fleet(os.path.join(workdir, "fleet"), seed,
                          settings.scale)
            elapsed = time.perf_counter() - start
            setups.append(elapsed * speed_between(before, probe.read()))
        generator = Generator(seed, fleet.rows)
        warm = drive(fleet, generator, probe, max_ops=CYCLE_OPS)
        wal_before = fleet.wal_bytes()
        shipped_before = fleet.shipped_records()
        stats_before = dict(fleet.router.stats)
        septic_before = fleet.septic_counters()
        steal_before = read_cpu_jiffies()
        phase = drive(fleet, generator, probe, seconds=seconds,
                      cycle=CYCLE_OPS)
        steal = steal_share(steal_before, read_cpu_jiffies())
        wal_bytes = fleet.wal_bytes() - wal_before
        shipped = fleet.shipped_records() - shipped_before
        stats = {key: value - stats_before.get(key, 0)
                 for key, value in fleet.router.stats.items()}
        septic = {key: value - septic_before[key]
                  for key, value in fleet.septic_counters().items()}
        gather_peak = fleet.router.stats["gather_peak_rows"]
        models = sum(len(db.septic.store) for db in fleet.databases())

        # restart shard 0's primary from its data directory after one
        # checkpoint and a tail of known length (the replicas must be
        # caught up first, or their retention pin defers the checkpoint);
        # it must hold exactly the twin's rows that hash to shard 0
        catalog = fleet.router.catalog
        primary = fleet.router.primary_database(0)
        fleet.router.ship()
        if primary.checkpoint() is None:
            raise RuntimeError("shard 0's checkpoint was deferred")
        generator.tail_keys = [
            name for name in generator.keys
            if catalog.shard_for("accounts", name) == 0]
        tail = drive(fleet, generator, probe,
                     max_ops=max(10, int(TAIL_OPS * min(1.0,
                                                        settings.scale * 4))))
        primary_dir = primary.data_dir
        fleet.router.close()
        database, recover_seconds, copies = time_recoveries(
            NAME, primary_dir, Database.recover, settings.repeats, probe)
        recovered = {
            tuple(row) for row in Connection(database).query_or_raise(
                "SELECT owner, amount, region, visits FROM accounts").rows}
        database.close()
        expected = {
            tuple(row) for row in fleet.twin.query_or_raise(
                "SELECT owner, amount, region, visits FROM accounts").rows
            if catalog.shard_for("accounts", row[0]) == 0}
        wrong = len(recovered ^ expected)
        checked = len(expected)
    finally:
        if fleet is not None:
            fleet.router.close()
        if workdir is not None:
            remove_tree(workdir)
        for copy in copies:
            remove_tree(copy)

    end_to_end = slice_metrics(phase.marks, phase)
    end_to_end.update({
        "setup_s": median(setups),
        "recover_s": median(recover_seconds),
        # no page writes and no checkpoint images in the phase: the log
        # appends of every node are all the fleet pushes toward its disks
        "disk_bytes_per_op": wal_bytes / max(1, phase.write_ops),
        "server_rss_mb": rss_at_fixed_work(phase.marks),
    })
    info = {
        "ops": phase.attempted,
        "slices": len(phase.marks) - 1,
        "host_speed": round(end_to_end["host_speed"], 3),
        "reads": len(phase.reads[0]),
        "writes": len(phase.writes[0]),
        "router_busy_share": round(phase.marks[-1][0] / seconds, 3),
        "host_steal_share": round(steal, 4),
    }
    routed = sum(stats[key] for key in
                 ("single_shard", "scatter", "broadcast", "pinned"))
    septic_seconds = (phase.marks[-1][2]["septic_s"]
                      - phase.marks[0][2]["septic_s"])
    counters = {
        "shard.router.single_shard_share":
            stats["single_shard"] / max(1, routed),
        "shard.router.scatter_share": stats["scatter"] / max(1, routed),
        "shard.router.route_cache_hit_share":
            stats["route_cache_hits"] / max(1, phase.attempted),
        "shard.router.gather_peak_rows": gather_peak,
        "replica.coordinator.records_shipped_per_write":
            shipped / max(1, phase.write_ops),
        "replica.coordinator.max_lag_lsn": phase.max_lag,
        "sqldb.wal.bytes_per_op": wal_bytes / max(1, phase.attempted),
        "core.septic.hook_us_per_query":
            septic_seconds * 1e6 / max(1, septic["queries_processed"]),
        "core.septic.blocked":
            septic["queries_dropped"] / max(1, phase.attempted),
        "core.septic.unknown_queries":
            septic["unknown_queries"] / max(1, phase.attempted),
        "core.store.models": models,
        "host.steal_share": steal,
    }
    attempted = warm.attempted + phase.attempted + tail.attempted + checked
    failed = warm.failed[0] + phase.failed[0] + tail.failed[0] + wrong
    return attempted, failed, end_to_end, info, counters
