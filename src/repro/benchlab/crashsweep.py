"""Crash sweeps: prove recovery at *every* possible kill site.

The durability claims of the stack — "after a crash, recovery yields
exactly the committed prefix", "a failover loses no acknowledged
commit", "a torn page is repaired, never rebuilt", "a scatter read
mid-failover is never torn" — are easy to assert and easy to get subtly
wrong.  The sweeps here do not sample crash points; they enumerate
them.  Every sweep has the same shape, so there is one kernel
(:func:`run_sweep`) and six declarative configurations of it:

* a **golden run** executes a seeded workload once, uncrashed, and
  records a state digest at every durability point — the exact sequence
  of states a client could have been acknowledged about
  (:class:`WorkloadRun`);
* a **kill-site enumerator** lists every place the run could have died
  (every byte of the log, every commit boundary, every raw page write x
  byte offset, ...);
* a **crash-and-recover fn** reproduces the run up to one site in a
  fresh victim directory, kills it there, recovers, and returns the
  invariants the survivor violates — each tagged, so a report says
  *which* guarantee broke *where*;
* **whole-sweep expectations** check that the sweep exercised what it
  claims to (a sweep that enumerated nothing must not pass).

The kernel owns what the configurations would otherwise repeat: the
golden/victim directory lifecycle, closing whatever a site opened (also
when an invariant raises), the per-site loop, problem collection and
counter accumulation.  One op driver (:func:`drive_ops`) runs workload
ops for every configuration — golden or victim, local or routed.

Workloads include DDL (CREATE/ALTER/INDEX/TRUNCATE/DROP), transactions
(committed and rolled back), a SEPTIC-blocked statement mid-transaction
(must never resurrect — it never reached the executor), a failing
multi-row INSERT (taken back whole, logged as failed), and
``NOW()``/``RAND()`` to exercise deterministic replay of the
environment functions.  An indexed
table with insert/update/delete churn rides along, and every recovered
victim additionally passes :func:`verify_index_consistency` — each live
index must agree with a fresh full scan, or the site counts as a
problem even when the row digest matches.
"""

import json
import os
import random
import shutil
from bisect import bisect_right
from collections import Counter, namedtuple
from contextlib import ExitStack, closing
from hashlib import sha1

from repro.replica import ReplicaSet
from repro.shard import ShardRouter
from repro.sqldb import pager as pager_mod
from repro.sqldb import wal as wal_mod
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import QueryBlocked
from repro.sqldb.types import sort_key


class MarkerSeptic(object):
    """A deterministic stand-in for SEPTIC: blocks any statement whose
    text carries the attack marker.  The sweep needs "a query was
    dropped mid-transaction" as a workload event, not a full trained
    stack."""

    MARKER = "evil"

    def __init__(self):
        self.blocked = 0

    def process_query(self, context):
        if self.MARKER in context.sql:
            self.blocked += 1
            raise QueryBlocked("blocked by marker septic")


def state_digest(database):
    """Stable digest of everything the WAL promises to preserve: every
    table's schema, rows (in order), auto-increment counter and
    indexes."""
    body = {name: table.to_dict() for name, table in database.tables.items()}
    blob = json.dumps(body, sort_keys=True)
    return sha1(blob.encode("utf-8")).hexdigest()


def _by_rowid(rows):
    """``(rowid, columns)`` per row image, in rowid order."""
    return sorted(((row.rowid, dict(row)) for row in rows),
                  key=lambda pair: pair[0])


def verify_index_consistency(database):
    """Cross-check every index of *database* against a full scan, by
    rowid.

    For each indexed column: every distinct key's lookup (the NULL
    bucket included) must return exactly the rows a scan finds for that
    key, and the open-ended range exactly the non-NULL rows, in key
    order.  A row is its rowid *and* its image, so an index that hands
    back a stale image of the right row is as broken as one that hands
    back the wrong row; ``row_count`` must agree with the scan too.
    Only the scan/lookup iterators the plan layer itself uses are
    touched, so this holds for any row store.  Returns a list of
    human-readable problem strings (empty = healthy).
    """
    problems = []
    for name in sorted(database.tables):
        table = database.tables[name]
        scanned = list(table.iter_rows())
        if table.row_count() != len(scanned):
            problems.append("%s: row_count %d != scanned %d"
                            % (name, table.row_count(), len(scanned)))
        for column in sorted(table.indexed_columns()):
            index = "%s.%s" % (name, column)
            by_key = {}
            for row in scanned:
                by_key.setdefault(sort_key(row.get(column)), []).append(row)
            for expected in by_key.values():
                value = expected[0].get(column)
                got = list(table.index_lookup_iter(column, value))
                if _by_rowid(got) != _by_rowid(expected):
                    problems.append("%s: lookup(%r) -> %d rows, scan -> %d"
                                    % (index, value, len(got), len(expected)))
            ranged = list(table.index_range_iter(column))
            keys = [sort_key(row.get(column)) for row in ranged]
            if keys != sorted(keys):
                problems.append("%s: range scan out of key order" % index)
            non_null = [row for row in scanned if row.get(column) is not None]
            if _by_rowid(ranged) != _by_rowid(non_null):
                problems.append("%s: open range -> %d rows, scan -> %d"
                                % (index, len(ranged), len(non_null)))
    return problems


def generate_workload(seed):
    """A deterministic operation list for *seed*.

    Each entry is ``(kind, sql)`` with kind ``"q"`` (single statement)
    or ``"m"`` (multi-statement script).  Every operation produces at
    most one durability point, so the golden digest sequence captures
    every state a client could have been acknowledged about.
    """
    rng = random.Random(seed)
    names = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]

    def insert():
        return (
            "INSERT INTO items (name, qty, added) "
            "VALUES ('%s%d', %d, NOW())"
            % (rng.choice(names), rng.randrange(100), rng.randrange(50))
        )

    ops = [("q", "CREATE TABLE items (id INT AUTO_INCREMENT PRIMARY KEY, "
                 "name VARCHAR(40), qty INT, added DATETIME)")]
    for _ in range(rng.randrange(3, 5)):
        ops.append(("q", insert()))
    # consumes RNG draws without being logged: replay must fast-forward
    ops.append(("q", "SELECT RAND(), COUNT(*) FROM items"))
    # a logged statement that *uses* the RNG (replays bit-identically)
    ops.append(("q", "INSERT INTO items (name, qty) "
                     "VALUES ('randy', RAND() * 100)"))
    # multi-statement committed transaction
    ops.append(("m", "BEGIN; %s; UPDATE items SET qty = qty + %d "
                     "WHERE id = 1; COMMIT"
                     % (insert(), rng.randrange(2, 9))))
    # DDL mid-stream
    ops.append(("q", "ALTER TABLE items ADD COLUMN note VARCHAR(20) "
                     "DEFAULT 'ok'"))
    ops.append(("q", "CREATE INDEX idx_name ON items (name)"))
    ops.append(("q", insert()))
    # an indexed table with churn: inserts, an update that moves rows
    # between index buckets, a delete, and a NULL key — the sweep
    # cross-checks every recovered index against a full scan
    ops.append(("q", "CREATE TABLE ledger (acct INT, amount INT, "
                     "tag VARCHAR(10))"))
    ops.append(("q", "CREATE INDEX idx_acct ON ledger (acct)"))
    for _ in range(3):
        ops.append(("q", "INSERT INTO ledger (acct, amount, tag) "
                         "VALUES (%d, %d, '%s')"
                         % (rng.randrange(4), rng.randrange(100),
                            rng.choice(names)[:4])))
    ops.append(("q", "UPDATE ledger SET acct = acct + 1 "
                     "WHERE amount > 40"))
    ops.append(("q", "INSERT INTO ledger (acct, amount, tag) "
                     "VALUES (NULL, %d, 'nil')" % rng.randrange(9)))
    ops.append(("q", "DELETE FROM ledger WHERE acct = %d"
                     % rng.randrange(4)))
    # a second table: create, fill, truncate, drop
    ops.append(("q", "CREATE TABLE scratch (k INT, v VARCHAR(10))"))
    ops.append(("q", "INSERT INTO scratch (k, v) VALUES (%d, 'tmp')"
                     % rng.randrange(9)))
    ops.append(("q", "TRUNCATE TABLE scratch"))
    ops.append(("q", "DROP TABLE scratch"))
    # rolled-back transaction: must never resurrect
    ops.append(("m", "BEGIN; INSERT INTO items (name, qty) "
                     "VALUES ('ghost', 1); DELETE FROM items "
                     "WHERE id = 2; ROLLBACK"))
    # SEPTIC blocks the second statement mid-transaction; the script
    # stops there and the client closes the transaction explicitly —
    # the committed unit holds the first UPDATE only, never the attack
    ops.append(("m", "BEGIN; UPDATE items SET note = 'tx' WHERE id = 1; "
                     "UPDATE items SET note = '%s' WHERE qty >= 0; "
                     "COMMIT" % MarkerSeptic.MARKER))
    ops.append(("q", "COMMIT"))
    # failing multi-row INSERT: the duplicate key fails the statement,
    # which is taken back whole (the first row does not stick) and
    # logged as failed
    ops.append(("q", "INSERT INTO items (id, name, qty) "
                     "VALUES (70, 'keeper', 1), (70, 'dup', 2)"))
    for _ in range(rng.randrange(2, 4)):
        ops.append(("q", insert()))
    return ops


# -- the kernel ---------------------------------------------------------------


class WorkloadRun(object):
    """The golden record of one sweep: what the uncrashed run did, which
    every kill site is judged against."""

    __slots__ = ("seed", "ops", "digests", "blocked", "counters", "facts")

    def __init__(self, seed, ops, digests):
        self.seed = seed
        #: operations executed
        self.ops = ops
        #: state digest after durability point ``k`` (``digests[0]`` is
        #: the empty database)
        self.digests = digests
        #: statements the marker septic dropped during the run
        self.blocked = 0
        #: golden-side numbers the report's counters start from (log
        #: bytes, raw writes, ...); the recover fn accumulates on top
        self.counters = {}
        #: configuration-specific artifacts the recover fn reads (log
        #: bytes, frame ends, per-boundary totals, ...)
        self.facts = {}


class SweepReport(namedtuple("SweepReport",
                             "name seed sites counters problems")):
    """Outcome of one sweep, whatever its configuration: the number of
    kill ``sites`` enumerated (each one crashed, recovered, judged),
    ``counters`` naming what the sweep exercised (golden-side numbers
    plus whatever the recover fn counted across sites), and one
    ``(site, invariant, detail)`` problem per violated invariant —
    ``site`` is ``None`` for a whole-sweep expectation."""

    @property
    def ok(self):
        return not self.problems


def format_report(report):
    """Human-readable sweep report (the benchmark artifact body); the
    first few problems ride along so a failed assertion explains
    itself."""
    lines = ["%s sweep seed=%s: %d kill sites, %s -> %s" % (
        report.name, report.seed, report.sites,
        ", ".join("%s=%s" % pair for pair in sorted(report.counters.items())),
        "OK" if report.ok else "%d PROBLEMS" % len(report.problems))]
    lines.extend("  site %r: %s: %s" % problem
                 for problem in report.problems[:5])
    return "\n".join(lines)


#: A sweep, declaratively.  ``golden(own, golden_dir, seed, **params)``
#: runs the workload uncrashed and returns its :class:`WorkloadRun`;
#: ``sites(golden)`` enumerates the kill sites; ``recover(own,
#: victim_dir, golden, site, counters)`` crashes one victim at *site*,
#: recovers it and yields an ``(invariant, detail)`` pair per invariant
#: the survivor violates; ``expect(golden, counters)`` yields the same
#: for the sweep as a whole, after the last site (default: nothing
#: beyond the kernel's own "at least one site").  ``own(closing(x))``
#: hands a Database / ReplicaSet / ShardRouter to the kernel and returns
#: it; the kernel closes it when the site (for ``golden``: the sweep)
#: ends — raise or not.
SweepConfig = namedtuple("SweepConfig", "name golden sites recover expect",
                         defaults=(lambda golden, counters: (),))


def run_sweep(config, workdir, seed, **params):
    """Run one sweep configuration; returns its :class:`SweepReport`.

    Everything the sweep creates lives in two directories under
    *workdir* (the golden run's and the current victim's, the latter
    emptied before every site); both are gone, and everything the
    configuration opened is closed, when this returns or raises.
    """
    golden_dir = os.path.join(workdir, "%s-golden-%s" % (config.name, seed))
    victim_dir = os.path.join(workdir, "%s-victim-%s" % (config.name, seed))

    def fresh(path):
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    problems = []
    try:
        with ExitStack() as sweep_scope:
            golden = config.golden(sweep_scope.enter_context,
                                   fresh(golden_dir), seed, **params)
            counters = Counter(golden.counters, blocked=golden.blocked)
            sites = list(config.sites(golden))
            if not sites:
                problems.append((None, "coverage", "no kill site enumerated"))
            for site in sites:
                with ExitStack() as site_scope:
                    found = config.recover(site_scope.enter_context,
                                           fresh(victim_dir), golden, site,
                                           counters)
                    problems.extend((site,) + problem for problem in found)
            problems.extend((None,) + problem
                            for problem in config.expect(golden, counters))
    finally:
        shutil.rmtree(golden_dir, ignore_errors=True)
        shutil.rmtree(victim_dir, ignore_errors=True)
    return SweepReport(config.name, seed, len(sites), dict(counters),
                       problems)


def drive_ops(ops, execute, points, on_point=None, after_op=None,
              stop_at=None):
    """The one op driver: ``execute(kind, sql)`` each op in turn.

    ``points()`` counts the durability points so far; when an op adds
    one, ``on_point()`` fires (the golden runs digest there).
    ``after_op(index)`` is the ship / tick / checkpoint hook.  The drive
    stops once ``points()`` reaches *stop_at* — exactly that many
    acknowledged, nothing after.  Returns the index of the first op not
    executed."""
    last = points()
    for index, (kind, sql) in enumerate(ops):
        execute(kind, sql)
        now = points()
        if now - last > 1:
            raise AssertionError("op %d produced %d durability points, the "
                                 "golden digests need at most one per op"
                                 % (index, now - last))
        if now > last:
            last = now
            if on_point is not None:
                on_point()
        if after_op is not None:
            after_op(index)
        if stop_at is not None and now >= stop_at:
            return index + 1
    return len(ops)


def _sql_executor(database):
    """``execute`` for :func:`drive_ops` over one local connection."""
    connection = Connection(database, multi_statements=True)
    run = {"q": connection.query, "m": connection.multi_query}
    return lambda kind, sql: run[kind](sql)


def _digest_run(database, seed, ops, checkpoint_after):
    """Drive *ops* over *database*, digesting every durability point;
    ``checkpoint_after`` (an op index) writes a mid-workload checkpoint.
    Returns the :class:`WorkloadRun`."""
    run = WorkloadRun(seed, ops, [state_digest(database)])
    backlog = [0]

    def after_op(index):
        backlog.append(database.wal.pending_unsynced_commits)
        if index == checkpoint_after and database.checkpoint() is not None:
            # durability-point count at the checkpoint
            run.facts["checkpoint_index"] = len(run.digests) - 1

    drive_ops(ops, _sql_executor(database), lambda: database.wal.commits,
              on_point=lambda: run.digests.append(state_digest(database)),
              after_op=after_op)
    run.blocked = database.septic.blocked
    # the backlog high-water mark of acknowledged-but-unsynced commits
    # is always 0 in ``commit`` sync mode; in ``batch`` mode it proves
    # the append-to-deferred-fsync kill window was actually open
    run.counters.update(durability_points=len(run.digests) - 1,
                        max_unsynced_backlog=max(backlog))
    return run


def run_workload(data_dir, seed, sync_mode="commit", checkpoint_after=None):
    """Execute the seed's workload durably, digesting every durability
    point.  ``checkpoint_after`` (an op index) writes a mid-workload
    checkpoint, so the sweep also covers checkpoint+log recovery."""
    with closing(Database.recover(data_dir, seed=seed, septic=MarkerSeptic(),
                                  wal_sync=sync_mode)) as database:
        return _digest_run(database, seed, generate_workload(seed),
                           checkpoint_after)


def _state_problems(database, expected_digest):
    """The two invariants every recovered database answers for: its
    digest is the golden digest of the committed prefix (nothing lost,
    nothing resurrected), and every index agrees with a full scan."""
    if state_digest(database) != expected_digest:
        yield "digest", "not the committed prefix (lost commit or phantom)"
    for problem in verify_index_consistency(database):
        yield "index", problem


#: what the replica sets under test share, bare or behind a router
_SET_KNOBS = dict(septic_factory=MarkerSeptic, heartbeat_interval=1,
                  lease_intervals=2)


# -- WAL: kill at every byte offset of the log --------------------------------


def _wal_sweep(sync_mode):
    """For every byte offset ``X`` of the golden log, plant ``log[:X]``
    (plus the checkpoint file, when the workload wrote one) and run full
    recovery over it; the result must equal ``digests[k]`` where ``k``
    counts the durability-point frames *entirely contained* in the first
    ``X`` bytes.

    With ``sync_mode="batch"`` the golden run defers fsyncs (group
    commit), so the byte prefixes enumerate crashes *inside* the
    append-to-deferred-fsync window — commits acknowledged to the client
    but not yet synced.  The invariant is the same; batch mode merely
    makes more of those prefixes reachable by a real power cut (bounded
    loss, quantified by the ``max_unsynced_backlog`` counter)."""

    def golden(_own, data_dir, seed, checkpoint_after=None):
        run = run_workload(data_dir, seed, sync_mode, checkpoint_after)
        data = wal_mod.read_log_bytes(wal_mod.log_path(data_dir))
        checkpoint = wal_mod.checkpoint_path(data_dir)
        # durability-point frame ends, computed from the bytes
        # themselves — independent of the recovery code being judged
        ends = [end for record, end in wal_mod.iter_frames(data)
                if record.op == wal_mod.WalRecord.COMMIT
                or (record.op == wal_mod.WalRecord.STMT and record.tx == 0)]
        run.facts.update(data=data, ends=ends, checkpoint=checkpoint)
        # durability points still in the log (a checkpoint rotates the
        # earlier ones away)
        run.counters.update(log_bytes=len(data), durability_points=len(ends),
                            checkpointed=int(os.path.exists(checkpoint)))
        return run

    return SweepConfig("wal-" + sync_mode, golden,
                       lambda golden: range(len(golden.facts["data"]) + 1),
                       _wal_recover)


def _wal_recover(own, victim_dir, golden, offset, _counters):
    facts = golden.facts
    if golden.counters["checkpointed"]:
        shutil.copy(facts["checkpoint"], wal_mod.checkpoint_path(victim_dir))
    wal_mod.write_log_bytes(wal_mod.log_path(victim_dir),
                            facts["data"][:offset])
    expected = (facts.get("checkpoint_index", 0)
                + bisect_right(facts["ends"], offset))
    recovered = own(closing(Database.recover(victim_dir, seed=golden.seed)))
    return _state_problems(recovered, golden.digests[expected])


WAL_COMMIT_SWEEP = _wal_sweep("commit")
WAL_BATCH_SWEEP = _wal_sweep("batch")


# -- failover: kill the primary at every commit boundary ----------------------
#
# For each durability point ``k`` of the golden run: build a fresh
# replica set, replay the workload with synchronous shipping until the
# primary has acknowledged exactly ``k`` commits (partitioning the last
# replica halfway so one candidate genuinely lags), crash the primary,
# and let the heartbeat/lease machinery elect.  The elected node must be
# the max-applied-LSN replica, its state must equal the golden digest at
# ``k``, its indexes must agree with a full scan, and the healed lagging
# replica must converge to the same state from the new primary's log.
# One extra site per seed partitions the primary instead of killing it
# and asserts every post-promotion record the zombie ships is rejected
# by epoch fencing.


def _failover_sites(golden):
    commit_points = len(golden.digests) - 1
    return ([("kill", k) for k in range(1, commit_points + 1)]
            + [("zombie", max(1, commit_points // 2))])


def _await_promotion(replica_set):
    """Advance virtual time until the lease expires and an election
    completes (bounded — a sweep must fail loudly, not hang)."""
    deadline = (replica_set.clock + replica_set.lease_ticks
                + 4 * replica_set.heartbeat_interval)
    before = replica_set.promotions
    while replica_set.promotions == before and replica_set.clock < deadline:
        replica_set.tick(1)
    return replica_set.promotions > before


def _failover_recover(own, set_dir, golden, site, counters):
    scenario, k = site
    replica_set = own(closing(ReplicaSet(set_dir, replicas=2,
                                         seed=golden.seed, **_SET_KNOBS)))
    primary = replica_set.primary
    # partitioned once half of the k commits have landed, so it falls
    # behind and the election has a real choice to get right
    lag_node = replica_set.nodes[-1]
    lag_after = (k + 1) // 2 if scenario == "kill" and k >= 2 else None

    def ship(_index):
        replica_set.ship()
        if (lag_after is not None
                and primary.database.wal.commits >= lag_after
                and lag_node.name not in replica_set._partitioned):
            replica_set.partition(lag_node)

    drive_ops(golden.ops, _sql_executor(primary.database),
              lambda: primary.database.wal.commits, after_op=ship, stop_at=k)
    if scenario == "zombie":
        yield from _fence_zombie(replica_set, primary, counters)
        return
    replica_set.kill_primary()
    counters["kills"] += 1
    if not _await_promotion(replica_set):
        yield "election", "no promotion"
        return
    counters["promotions"] += 1
    elected = replica_set.primary
    expected = sorted(replica_set.nodes[1:],
                      key=lambda n: (-n.applied_lsn, n.name))[0]
    if elected is not expected:
        yield "election", ("elected %s, the max-applied-LSN replica is %s"
                           % (elected.name, expected.name))
    yield from _state_problems(elected.database, golden.digests[k])
    # the lagging replica heals and converges from the new primary
    if lag_after is not None:
        replica_set.heal(lag_node)
        replica_set.tick(2 * replica_set.heartbeat_interval)
        if (lag_node.alive and lag_node.role == "replica"
                and state_digest(lag_node.database) != golden.digests[k]):
            yield "catchup", "%s did not converge" % lag_node.name


def _fence_zombie(replica_set, zombie, counters):
    """Partition (not kill) the primary, let the survivors elect, then
    have the deposed primary keep committing and shipping — fencing must
    reject every record."""
    replica_set.partition(zombie)
    if not _await_promotion(replica_set):
        yield "fencing", "no promotion in the zombie scenario"
        return
    counters["promotions"] += 1
    replica_set.tick(replica_set.heartbeat_interval)
    survivors = [node for node in replica_set.nodes if node is not zombie]
    digests = [state_digest(node.database) for node in survivors]
    fenced = sum(node.fenced_batches for node in survivors)
    Connection(zombie.database).query(
        "INSERT INTO items (name, qty) VALUES ('zombie', 13)")
    replica_set.ship(source=zombie)
    counters["fenced_rejects"] += sum(
        node.fenced_batches for node in survivors) - fenced
    for node, digest in zip(survivors, digests):
        if state_digest(node.database) != digest:
            yield "fencing", "%s changed after a zombie shipment" % node.name


def _failover_expect(golden, counters):
    if counters["fenced_rejects"] == 0:
        yield "fencing", "no survivor fenced the zombie's batches"
    if counters["promotions"] != len(golden.digests):
        yield "promotions", "%d, not one per site" % counters["promotions"]


FAILOVER_SWEEP = SweepConfig(
    "failover", lambda _own, data_dir, seed: run_workload(data_dir, seed),
    _failover_sites, _failover_recover, _failover_expect)


# -- paged storage: kill at every raw page write, then flip bits --------------


def _paged_workload(seed):
    """The seed's workload grown past a 4-frame pool of 4 KiB pages, and
    the op index of its mid-workload checkpoint.

    Just before that checkpoint a ``bulk`` table of six ~1 KiB rows
    loads: every frame is dirty meanwhile, so the pool steals (WAL
    barrier, spill write) until the checkpoint homes it all.  Last, a
    write, a read and a write over it: the read's scan evicts clean
    pages around the dirty leaf the first write left."""
    ops = generate_workload(seed)
    half = len(ops) // 2
    rng = random.Random("bulk-%s" % seed)
    rows = 6
    pads = ["b" * rng.randrange(900, 1100) for _ in range(rows)]
    ops[half:half] = [
        ("q", "CREATE TABLE bulk (k INT PRIMARY KEY, pad VARCHAR(1200))"),
        ("q", "INSERT INTO bulk (k, pad) VALUES " + ", ".join(
            "(%d, '%s')" % pair for pair in enumerate(pads)))]
    ops += [("q", "UPDATE bulk SET pad = 'short' WHERE k = %d"
                  % rng.randrange(rows)),
            ("q", "SELECT COUNT(*), SUM(LENGTH(pad)) FROM bulk"),
            ("q", "INSERT INTO bulk (k, pad) VALUES (%d, 'tail')" % rows)]
    return ops, half + 1


def _paged_run(own, data_dir, seed, pool_pages, workload, crash_plan=None):
    """Run *workload* (``(ops, checkpoint_after)``) on paged storage,
    digesting every durability point, with a checkpoint after op
    ``checkpoint_after`` and a final one (the big page-write burst the
    kill sweep targets).

    With ``crash_plan`` ``(write_index, byte_offset)`` a crash is
    planted before the first op, in whole-run raw-write coordinates.
    Returns ``(database, run)`` — ``run`` is ``None`` when the plan
    fired (the database is left mid-crash for the caller to reopen)."""
    database = own(closing(Database.recover(
        data_dir, seed=seed, septic=MarkerSeptic(), wal_sync="commit",
        storage="paged", pool_pages=pool_pages)))
    if crash_plan is not None:
        database.page_store.pager.plant_crash(*crash_plan)
    try:
        run = _digest_run(database, seed, *workload)
        database.checkpoint()
    except pager_mod.SimulatedCrash:
        if crash_plan is None:
            raise AssertionError("golden paged run crashed without a plan")
        return database, None
    return database, run


def _paged_golden(own, data_dir, seed):
    """The golden paged run fixes the write schedule: spill flushes
    while ``bulk`` loads into a 4-frame pool, then each checkpoint's
    doublewrite body, seal and sorted home writes."""
    database, run = _paged_run(own, data_dir, seed, 4,
                               _paged_workload(seed))
    pool = database.page_store.pool
    run.counters.update(raw_writes=database.page_store.pager.raw_writes,
                        dirty_flushes=pool.dirty_flushes,
                        clean_evictions=pool.evictions - pool.dirty_flushes)
    database.close()
    return run


def _paged_sites(golden):
    """Every raw write of the golden schedule x four cuts inside it."""
    size = pager_mod.DEFAULT_PAGE_SIZE
    return [(write_index, cut)
            for write_index in range(golden.counters["raw_writes"])
            for cut in (0, 1, size // 2, size - 1)]


def _paged_recover(own, victim_dir, golden, site, counters):
    """Replay the same deterministic workload with the write truncated
    at the site and the process "dead".  Recovery
    (:meth:`Database.reopen`) must reproduce the golden digest for the
    durable commit count, repair every torn page from the doublewrite
    area (never by rebuilding a table), and leave every index
    consistent with a full scan."""
    database, run = _paged_run(own, victim_dir, golden.seed, 4,
                               _paged_workload(golden.seed), crash_plan=site)
    if run is not None:
        # the plan never fired (schedule drift) — a correctness bug in
        # the sweep itself, not the engine
        raise AssertionError("no crash at write %d (golden schedule has %d)"
                             % (site[0], golden.counters["raw_writes"]))
    commits = database.wal.commits
    database.reopen()
    pages = (database.recovery_report or {}).get("pages") or {}
    counters["dw_applied"] += pages.get("dw_applied", 0)
    counters["torn_repaired"] += pages.get("torn_repaired", 0)
    for entry in pages.get("rebuilt_tables") or []:
        yield "rebuild", "recovery rebuilt %r from logical rows" % (entry,)
    expected = (golden.digests[commits] if commits < len(golden.digests)
                else None)
    yield from _state_problems(database, expected)


def _paged_expect(golden, _counters):
    """Both kinds of eviction ran, so some kill sites sit inside a spill
    write (every dirty flush is one raw write)."""
    if not golden.counters["dirty_flushes"]:
        yield "coverage", "the golden run stole no page"
    if not golden.counters["clean_evictions"]:
        yield "coverage", "the golden run evicted no clean page"


PAGED_SWEEP = SweepConfig("paged", _paged_golden, _paged_sites,
                          _paged_recover, _paged_expect)


def _bitflip_golden(own, data_dir, seed, flips=6):
    """The paged workload, left open: the rounds corrupt and scrub this
    very database, so repairs accumulate like they would in service."""
    ops = generate_workload(seed)
    database, run = _paged_run(own, data_dir, seed, 6, (ops, len(ops) // 2))
    run.facts.update(database=database, baseline=state_digest(database),
                     rng=random.Random("corrupt-%s" % seed), flips=flips)
    run.counters["detected"] = 0
    return run


def _bitflip_recover(_own, _victim_dir, golden, _round, counters):
    """Flip one seeded bit in the page file, then scrub.  Every flip
    must be detected on the next full scrub pass (CRC32 covers the whole
    page, so any single-bit flip breaks it).  Pages are re-listed each
    round because a WAL-redo repair rebuilds the owning table onto fresh
    pages."""
    database, rng = golden.facts["database"], golden.facts["rng"]
    pages = sorted({page for table in database.tables.values()
                    for page in table.store.pages()})
    if not pages:
        return
    page_size = database.page_store.pager.page_size
    page_no = rng.choice(pages)
    bit = rng.randrange(page_size * 8)
    scrubber = database.page_store.scrubber
    before = scrubber.detected
    pager_mod.flip_page_bit(database.data_dir, page_no, bit,
                            page_size=page_size)
    counters["injected"] += 1
    scrubber.scan_all()
    if scrubber.detected == before + 1:
        counters["detected"] += 1
    else:
        yield "detection", "page %d bit %d went unnoticed" % (page_no, bit)


def _bitflip_expect(golden, counters):
    """After the last round: every page must verify again, repaired
    from one of the scrubber's sources without changing logical state
    and without ever rewriting an intact page."""
    database = golden.facts["database"]
    scrubber = database.page_store.scrubber
    scrubber.scan_all()     # a clean pass: everything must verify again
    stats = scrubber.stats_dict()
    counters["false_repairs"] = stats["false_repairs"]
    counters["unrepaired"] = stats["quarantined"]
    for source, count in stats["repairs_by_source"].items():
        counters["repaired_from_" + source] = count
    if counters["injected"] == 0:
        yield "coverage", "no bit was flipped"
    if stats["quarantined"]:
        yield "repair", "%d pages still quarantined" % stats["quarantined"]
    if stats["false_repairs"]:
        yield "false_repair", "%d intact pages" % stats["false_repairs"]
    if state_digest(database) != golden.facts["baseline"]:
        yield "digest", "logical state changed across repairs"


BITFLIP_SWEEP = SweepConfig(
    "bitflip", _bitflip_golden, lambda golden: range(golden.facts["flips"]),
    _bitflip_recover, _bitflip_expect)


# -- sharded: kill any shard's primary at every commit boundary ---------------
#
# The cross-shard extension of the failover sweep: a hash-sharded fleet
# (each shard its own replica set) runs a keyed workload through the
# ShardRouter, and the sweep kills *any shard's* primary at *every*
# commit boundary, issuing a scatter read mid-failover each time.  The
# guarantees under test:
#
# * no lost rows — every write acked before the kill survives the
#   shard's election;
# * no phantom rows — nothing unacked resurrects;
# * no torn cross-shard reads — a scatter COUNT/SUM issued while one
#   shard is electing must still see exactly the committed prefix on
#   every shard (the router's virtual-tick retry rides the failover);
# * SEPTIC blocks stay side-effect-free fleet-wide (the marker septic
#   runs per shard).


def generate_sharded_workload(seed, writes=10):
    """Deterministic keyed ops for one sharded sweep.

    Returns ``(kind, sql)`` pairs: ``"w"`` single-shard writes and
    broadcast DDL (each a commit boundary), ``"r"`` cross-shard scatter
    reads, ``"x"`` statements the marker septic must block."""
    rng = random.Random(seed)
    pool = ["alice", "bob", "carol", "dave", "erin", "frank", "grace",
            "heidi", "ivan", "judy", "mallory", "nina", "oscar", "peggy"]
    ops = [("w", "CREATE TABLE accounts (owner VARCHAR(12) PRIMARY KEY, "
                 "amount INT)")]
    live = []
    spare = list(pool)
    emitted = 0
    while emitted < writes and (spare or live):
        roll = rng.random()
        if live and roll < 0.25:
            owner = rng.choice(live)
            ops.append(("w", "UPDATE accounts SET amount = amount + %d "
                             "WHERE owner = '%s'"
                             % (rng.randrange(1, 50), owner)))
        elif live and roll < 0.35:
            owner = live.pop(rng.randrange(len(live)))
            ops.append(("w", "DELETE FROM accounts WHERE owner = '%s'"
                        % owner))
        elif spare:
            owner = spare.pop(rng.randrange(len(spare)))
            live.append(owner)
            ops.append(("w", "INSERT INTO accounts (owner, amount) "
                             "VALUES ('%s', %d)"
                             % (owner, rng.randrange(100))))
        else:
            continue
        emitted += 1
        if rng.random() < 0.4:
            ops.append(("r", "SELECT COUNT(*), SUM(amount) FROM accounts"))
    # one blocked single-shard write and one blocked scatter read: both
    # must be fleet-wide no-ops
    if live:
        ops.append(("x", "UPDATE accounts SET amount = 666 "
                         "WHERE owner = '%s' -- evil" % live[0]))
    ops.append(("x", "SELECT COUNT(*) FROM accounts WHERE owner != 'evil'"))
    ops.append(("r", "SELECT owner, amount FROM accounts "
                     "ORDER BY amount DESC, owner LIMIT 3"))
    return ops


def _fleet_snapshot(router):
    """``(digest, (rows, sum))`` straight off the shard primaries: the
    combined state digest (order-stable) and the ground truth a scatter
    COUNT/SUM must agree with."""
    parts = []
    count = total = 0
    for shard in range(router.shard_count):
        database = router.primary_database(shard)
        parts.append("" if database is None else state_digest(database))
        if database is not None and "accounts" in database.tables:
            for row in database.tables["accounts"].rows:
                count += 1
                total += row.get("amount") or 0
    return sha1("|".join(parts).encode("ascii")).hexdigest(), (count, total)


def _drive_fleet(router, ops, on_point=None, stop_at=None):
    """Drive *ops* through the router, shipping after each op.  Every
    ``"w"`` op is a commit boundary and must be acked; every ``"x"`` op
    must be blocked.  Returns :func:`drive_ops`'s resume index."""
    done = []

    def execute(kind, sql):
        outcome = router.query(sql)
        router.ship()
        if kind == "w" and not outcome.ok:
            raise AssertionError("workload write failed: %s -> %s"
                                 % (sql, outcome.error))
        errno = getattr(outcome.error, "errno", None)
        if kind == "x" and (outcome.ok or errno != 3090):
            raise AssertionError("marker septic let %r through: %r"
                                 % (sql, outcome))
        done.append(kind)

    return drive_ops(ops, execute, lambda: done.count("w"), on_point,
                     stop_at=stop_at)


def _sharded_golden(own, path, seed, shards=2, replicas=1, writes=10):
    """The full workload through a fresh sharded fleet, snapshotting
    ``(rows, sum)`` and the fleet digest at every commit boundary."""
    fleet = dict(shards=shards, replicas=replicas, seed=seed, **_SET_KNOBS)
    router = own(ShardRouter(path, **fleet))
    run = WorkloadRun(seed, generate_sharded_workload(seed, writes=writes), [])
    run.facts.update(fleet=fleet, totals=[])

    def snapshot():
        digest, totals = _fleet_snapshot(router)
        run.digests.append(digest)
        run.facts["totals"].append(totals)

    snapshot()
    _drive_fleet(router, run.ops, snapshot)
    router.close()
    # every "x" op was blocked, or the drive would have raised
    run.blocked = [kind for kind, _sql in run.ops].count("x")
    run.counters["durability_points"] = len(run.digests) - 1
    return run


def _sharded_sites(golden):
    return [(k, shard) for k in range(1, len(golden.digests))
            for shard in range(golden.facts["fleet"]["shards"])]


def _sharded_recover(own, path, golden, site, counters):
    """Fresh fleet, replay exactly ``k`` boundaries, crash shard ``s``'s
    primary, and — with the failover still in flight — issue a
    cross-shard scatter read through the router.  The read must see
    exactly the golden ``k`` snapshot (no torn cross-shard state), the
    election must promote, and finishing the workload must converge
    every shard to the golden final digest (no lost, no phantom rows).
    Indexes are cross-checked against full scans on every post-failover
    primary."""
    k, shard = site
    router = own(ShardRouter(path, **golden.facts["fleet"]))
    resume = _drive_fleet(router, golden.ops, stop_at=k)
    victim_set = router.shard_sets[shard]
    promotions_before = victim_set.promotions
    router.kill_primary(shard)
    counters["kills"] += 1
    # scatter read mid-failover: the router's virtual-tick retry backoff
    # is what drives the election forward
    outcome = router.query("SELECT COUNT(*), SUM(amount) FROM accounts")
    counters["scatter_reads"] += 1
    expected = golden.facts["totals"][k]
    if not outcome.ok:
        yield "scatter", "error: %s" % outcome.error
    else:
        got_count, got_total = outcome.rows[0]
        counters["lost_rows"] += max(0, expected[0] - got_count)
        counters["phantom_rows"] += max(0, got_count - expected[0])
        if (got_count, got_total or 0) != expected:
            yield "scatter", "%r, not %r" % (outcome.rows[0], expected)
    if victim_set.primary is None:
        _await_promotion(victim_set)
    if victim_set.promotions > promotions_before:
        counters["promotions"] += 1
    else:
        yield "election", "shard %d did not promote" % shard
    # finish the workload over the promoted fleet
    _drive_fleet(router, golden.ops[resume:])
    if _fleet_snapshot(router)[0] != golden.digests[-1]:
        yield "digest", "final fleet state diverged (lost or phantom rows)"
    for ordinal in range(router.shard_count):
        database = router.primary_database(ordinal)
        if database is None:
            yield "index", "shard %d has no primary" % ordinal
        else:
            for problem in verify_index_consistency(database):
                yield "index", problem


def _sharded_expect(golden, counters):
    if counters["blocked"] < 2:
        yield "coverage", "%d blocked, 2 planted" % counters["blocked"]
    if counters["kills"] != len(_sharded_sites(golden)):
        yield "coverage", "%d kills, not one per site" % counters["kills"]


SHARDED_SWEEP = SweepConfig("sharded", _sharded_golden, _sharded_sites,
                            _sharded_recover, _sharded_expect)
