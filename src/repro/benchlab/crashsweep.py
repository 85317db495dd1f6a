"""Crash-point sweep: prove recovery at *every* possible kill point.

The WAL's correctness claim — "after a crash, recovery yields exactly
the committed prefix" — is easy to assert and easy to get subtly wrong
(a record fsynced one byte short, a commit marker that lands before its
transaction's statements, a rolled-back write resurrected by replay).
This harness does not sample crash points; it enumerates them:

1. run a seeded workload against a WAL-backed database (per-commit
   fsync, unbuffered writes), capturing a **state digest at every
   durability point** — the exact sequence of states a client could
   have been acknowledged about;
2. read the golden log back as bytes and, for every byte offset ``X``
   from 0 to the full length, plant ``log[:X]`` in a fresh victim
   directory (plus the checkpoint file, when the workload wrote one)
   and run full recovery over it;
3. the recovered state must equal ``digests[k]`` where ``k`` counts the
   durability-point records *entirely contained* in the first ``X``
   bytes — committed-prefix consistency, computed independently of the
   recovery code under test.

Workloads include DDL (CREATE/ALTER/INDEX/TRUNCATE/DROP), transactions
(committed and rolled back), a SEPTIC-blocked statement mid-transaction
(must never resurrect — it never reached the executor), a failing
multi-row INSERT with partial effects, and ``NOW()``/``RAND()`` to
exercise deterministic replay of the environment functions.  An indexed
table with insert/update/delete churn rides along, and every recovered
victim additionally passes :func:`verify_index_consistency` — each live
index must agree with a fresh full scan, or the recovery counts as a
mismatch even when the row digest matches.
"""

import json
import os
import random
import shutil
from bisect import bisect_right
from hashlib import sha1

from repro.sqldb import pager as pager_mod
from repro.sqldb import wal as wal_mod
from repro.sqldb.pager import SimulatedCrash
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
    body = {
        name: database.tables[name].to_dict()
        for name in sorted(database.tables)
    }
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
            by_key = {}
            for row in scanned:
                by_key.setdefault(sort_key(row.get(column)), []).append(row)
            for expected in by_key.values():
                value = expected[0].get(column)
                got = list(table.index_lookup_iter(column, value))
                if _by_rowid(got) != _by_rowid(expected):
                    problems.append(
                        "%s.%s: lookup(%r) -> %d rows, scan -> %d"
                        % (name, column, value, len(got), len(expected))
                    )
            ranged = list(table.index_range_iter(column))
            keys = [sort_key(row.get(column)) for row in ranged]
            if keys != sorted(keys):
                problems.append("%s.%s: range scan out of key order"
                                % (name, column))
            non_null = [row for row in scanned
                        if row.get(column) is not None]
            if _by_rowid(ranged) != _by_rowid(non_null):
                problems.append(
                    "%s.%s: open range -> %d rows, scan -> %d"
                    % (name, column, len(ranged), len(non_null))
                )
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
    # failing multi-row INSERT: the first row sticks (partial effects),
    # the duplicate key fails the statement — logged as failed=True
    ops.append(("q", "INSERT INTO items (id, name, qty) "
                     "VALUES (70, 'keeper', 1), (70, 'dup', 2)"))
    for _ in range(rng.randrange(2, 4)):
        ops.append(("q", insert()))
    return ops


class WorkloadRun(object):
    """Golden-run artifacts the sweep validates against."""

    __slots__ = ("digests", "checkpoint_index", "blocked", "ops",
                 "max_unsynced_backlog")

    def __init__(self, digests, checkpoint_index, blocked, ops,
                 max_unsynced_backlog=0):
        #: state digest after durability point ``k`` (``digests[0]`` is
        #: the empty database)
        self.digests = digests
        #: durability-point count at the checkpoint, or ``None``
        self.checkpoint_index = checkpoint_index
        #: statements the marker septic dropped during the run
        self.blocked = blocked
        #: operations executed
        self.ops = ops
        #: high-water mark of acknowledged-but-unsynced commits during
        #: the run (always 0 in ``commit`` sync mode; in ``batch`` mode
        #: this proves the append-to-deferred-fsync kill window was
        #: actually open while the workload ran)
        self.max_unsynced_backlog = max_unsynced_backlog


def run_workload(data_dir, seed, sync_mode="commit", checkpoint_after=None):
    """Execute the seed's workload durably, digesting every durability
    point.  ``checkpoint_after`` (an op index) writes a mid-workload
    checkpoint, so the sweep also covers checkpoint+log recovery."""
    septic = MarkerSeptic()
    database = Database.recover(data_dir, seed=seed, septic=septic,
                                wal_sync=sync_mode)
    connection = Connection(database, multi_statements=True)
    digests = [state_digest(database)]
    checkpoint_index = None
    ops = generate_workload(seed)
    last = database.wal.commits
    max_backlog = 0
    for index, (kind, sql) in enumerate(ops):
        if kind == "m":
            connection.multi_query(sql)
        else:
            connection.query(sql)
        commits = database.wal.commits
        if commits - last > 1:
            raise AssertionError(
                "workload op %d produced %d durability points; the "
                "golden digest sequence needs at most one per op"
                % (index, commits - last)
            )
        if commits > last:
            digests.append(state_digest(database))
            last = commits
        backlog = database.wal.pending_unsynced_commits
        if backlog > max_backlog:
            max_backlog = backlog
        if checkpoint_after is not None and index == checkpoint_after:
            if database.checkpoint() is not None:
                checkpoint_index = len(digests) - 1
    database.close()
    return WorkloadRun(digests, checkpoint_index, septic.blocked, ops,
                       max_unsynced_backlog=max_backlog)


class SweepResult(object):
    """Outcome of one crash-point sweep."""

    __slots__ = ("seed", "log_bytes", "offsets_tested",
                 "durability_points", "blocked", "mismatches",
                 "index_mismatches", "checkpointed", "sync_mode",
                 "max_unsynced_backlog")

    def __init__(self, seed, log_bytes, offsets_tested, durability_points,
                 blocked, mismatches, checkpointed, index_mismatches=(),
                 sync_mode="commit", max_unsynced_backlog=0):
        self.seed = seed
        self.log_bytes = log_bytes
        self.offsets_tested = offsets_tested
        self.durability_points = durability_points
        self.blocked = blocked
        #: (offset, expected_index) pairs where recovery diverged
        self.mismatches = mismatches
        #: (offset, problem) pairs where a recovered index disagreed
        #: with a full scan
        self.index_mismatches = list(index_mismatches)
        self.checkpointed = checkpointed
        #: WAL sync discipline the golden run used
        self.sync_mode = sync_mode
        #: peak acked-but-unsynced commit backlog of the golden run
        self.max_unsynced_backlog = max_unsynced_backlog

    @property
    def ok(self):
        return not self.mismatches and not self.index_mismatches

    def __repr__(self):
        return ("SweepResult(seed=%r, %d bytes, %d offsets, %d commits, "
                "%d mismatches)") % (self.seed, self.log_bytes,
                                     self.offsets_tested,
                                     self.durability_points,
                                     len(self.mismatches))


def run_crash_sweep(workdir, seed, checkpoint_after=None, stride=1,
                    sync_mode="commit"):
    """Kill-at-every-byte sweep for one seeded workload.

    With ``stride > 1`` only every stride-th offset is tested (plus the
    final one); record boundaries are always included, since those are
    the offsets where the expected state changes.

    With ``sync_mode="batch"`` the golden run defers fsyncs (group
    commit), so the byte prefixes enumerate crashes *inside* the
    append-to-deferred-fsync window — commits acknowledged to the
    client but not yet synced.  The invariant is the same: every
    prefix must recover to exactly the committed states its bytes
    contain, never a torn or phantom one; batch mode merely makes more
    of those prefixes reachable by a real power cut (bounded loss,
    quantified by :attr:`SweepResult.max_unsynced_backlog`).
    """
    golden_dir = os.path.join(workdir, "golden-%s" % seed)
    run = run_workload(golden_dir, seed, sync_mode=sync_mode,
                       checkpoint_after=checkpoint_after)
    data = wal_mod.read_log_bytes(wal_mod.log_path(golden_dir))
    # durability-point frame ends, computed from the bytes themselves —
    # independent of the recovery code the sweep is judging
    ends = []
    for record, end in wal_mod.iter_frames(data):
        is_commit_point = record.op == wal_mod.WalRecord.COMMIT or (
            record.op == wal_mod.WalRecord.STMT and record.tx == 0
        )
        if is_commit_point:
            ends.append(end)
    base_index = run.checkpoint_index or 0
    offsets = sorted(set(
        list(range(0, len(data) + 1, stride)) + [len(data)]
        + [end for _record, end in wal_mod.iter_frames(data)]
    ))
    checkpoint_src = wal_mod.checkpoint_path(golden_dir)
    checkpointed = os.path.exists(checkpoint_src)
    victim_dir = os.path.join(workdir, "victim-%s" % seed)
    mismatches = []
    index_mismatches = []
    for offset in offsets:
        shutil.rmtree(victim_dir, ignore_errors=True)
        os.makedirs(victim_dir)
        if checkpointed:
            shutil.copy(checkpoint_src,
                        wal_mod.checkpoint_path(victim_dir))
        wal_mod.write_log_bytes(wal_mod.log_path(victim_dir),
                                data[:offset])
        expected = base_index + bisect_right(ends, offset)
        recovered = Database.recover(victim_dir, seed=seed)
        digest = state_digest(recovered)
        for problem in verify_index_consistency(recovered):
            index_mismatches.append((offset, problem))
        recovered.close()
        if digest != run.digests[expected]:
            mismatches.append((offset, expected))
    shutil.rmtree(victim_dir, ignore_errors=True)
    return SweepResult(seed, len(data), len(offsets), len(ends),
                       run.blocked, mismatches, checkpointed,
                       index_mismatches=index_mismatches,
                       sync_mode=sync_mode,
                       max_unsynced_backlog=run.max_unsynced_backlog)


def format_sweep_result(result):
    """Human-readable sweep report (the benchmark artifact body)."""
    return (
        "crash sweep seed=%s sync=%s: %d log bytes, %d kill offsets, "
        "%d durability points, %d blocked statements, checkpoint=%s -> %s"
        % (result.seed, result.sync_mode, result.log_bytes,
           result.offsets_tested, result.durability_points,
           result.blocked, result.checkpointed,
           "OK" if result.ok else "%d MISMATCHES"
           % (len(result.mismatches) + len(result.index_mismatches)))
    )


# -- failover sweep (kill the primary at every commit boundary) --------------


class FailoverSweepResult(object):
    """Outcome of one kill-the-primary-at-every-commit sweep."""

    __slots__ = ("seed", "replicas", "commit_points", "promotions",
                 "wrong_elections", "digest_mismatches", "index_mismatches",
                 "catchup_mismatches", "fenced_rejects", "fencing_failures",
                 "blocked")

    def __init__(self, seed, replicas, commit_points, promotions,
                 wrong_elections, digest_mismatches, index_mismatches,
                 catchup_mismatches, fenced_rejects, fencing_failures,
                 blocked):
        self.seed = seed
        self.replicas = replicas
        #: durability points of the golden run (= kill points swept)
        self.commit_points = commit_points
        #: successful promotions observed (must equal commit_points + 1:
        #: one per kill point plus the zombie scenario)
        self.promotions = promotions
        #: (k, elected, expected) where election did not pick the
        #: max-applied-LSN replica
        self.wrong_elections = wrong_elections
        #: (k, node) where a post-promotion state diverged from the
        #: golden digest at the kill point — a lost committed
        #: transaction or a phantom
        self.digest_mismatches = digest_mismatches
        #: (k, problem) index-vs-scan disagreements on the new primary
        self.index_mismatches = index_mismatches
        #: (k, node) where the healed lagging replica failed to converge
        self.catchup_mismatches = catchup_mismatches
        #: stale-epoch batches rejected in the zombie scenario (> 0)
        self.fenced_rejects = fenced_rejects
        #: descriptions of fencing holes (zombie records accepted)
        self.fencing_failures = fencing_failures
        #: statements the marker septic dropped during the golden run
        self.blocked = blocked

    @property
    def ok(self):
        return (not self.wrong_elections and not self.digest_mismatches
                and not self.index_mismatches
                and not self.catchup_mismatches
                and not self.fencing_failures
                and self.fenced_rejects > 0
                and self.promotions == self.commit_points + 1)

    def __repr__(self):
        return ("FailoverSweepResult(seed=%r, %d commit points, "
                "%d promotions, %d wrong elections, %d digest mismatches)"
                % (self.seed, self.commit_points, self.promotions,
                   len(self.wrong_elections),
                   len(self.digest_mismatches)))


def _drive_until_commit(replica_set, connection, ops, target, lag_after,
                        lag_node):
    """Run *ops* against the primary, synchronously shipping after each
    op, until its WAL holds *target* durability points.  *lag_node* is
    partitioned once *lag_after* commits land, so it falls behind and
    the election has a real choice to get right."""
    primary_wal = replica_set.primary.database.wal
    for kind, sql in ops:
        if kind == "m":
            connection.multi_query(sql)
        else:
            connection.query(sql)
        replica_set.ship()
        commits = primary_wal.commits
        if lag_after is not None and commits >= lag_after:
            if lag_node.name not in replica_set._partitioned:
                replica_set.partition(lag_node)
            lag_after = None
        if commits >= target:
            return commits
    return primary_wal.commits


def _await_promotion(replica_set):
    """Advance virtual time until the lease expires and an election
    completes (bounded — a sweep must fail loudly, not hang)."""
    deadline = (replica_set.clock + replica_set.lease_ticks
                + 4 * replica_set.heartbeat_interval)
    before = replica_set.promotions
    while replica_set.promotions == before and replica_set.clock < deadline:
        replica_set.tick(1)
    return replica_set.promotions > before


def run_failover_sweep(workdir, seed, replicas=2):
    """Kill the primary at every commit boundary of the seed's workload.

    For each durability point ``k`` of the golden run: build a fresh
    replica set, replay the workload with synchronous shipping until the
    primary has acknowledged exactly ``k`` commits (partitioning the
    last replica halfway so one candidate genuinely lags), crash the
    primary, and let the heartbeat/lease machinery elect.  The elected
    node must be the max-applied-LSN replica, its state must equal the
    golden digest at ``k`` (zero committed transactions lost, zero
    phantoms), its indexes must agree with a full scan, and the healed
    lagging replica must converge to the same state from the new
    primary's log.  One extra scenario per seed partitions the primary
    instead of killing it and asserts every post-promotion record the
    zombie ships is rejected by epoch fencing.
    """
    from repro.replica import ReplicaSet

    golden_dir = os.path.join(workdir, "failover-golden-%s" % seed)
    run = run_workload(golden_dir, seed)
    commit_points = len(run.digests) - 1
    set_dir = os.path.join(workdir, "failover-set-%s" % seed)
    promotions = 0
    wrong_elections = []
    digest_mismatches = []
    index_mismatches = []
    catchup_mismatches = []

    def build_set():
        shutil.rmtree(set_dir, ignore_errors=True)
        replica_set = ReplicaSet(
            set_dir, replicas=replicas, septic_factory=MarkerSeptic,
            seed=seed, heartbeat_interval=1, lease_intervals=2,
        )
        connection = Connection(replica_set.primary.database,
                                multi_statements=True)
        return replica_set, connection

    for k in range(1, commit_points + 1):
        replica_set, connection = build_set()
        lag_node = replica_set.nodes[-1]
        lag_after = (k + 1) // 2 if k >= 2 else None
        _drive_until_commit(replica_set, connection, run.ops, k,
                            lag_after, lag_node)
        replica_set.kill_primary()
        if not _await_promotion(replica_set):
            wrong_elections.append((k, None, "no promotion"))
            replica_set.close()
            continue
        promotions += 1
        new_primary = replica_set.primary
        candidates = [node for node in replica_set.nodes[1:]]
        expected = sorted(
            candidates, key=lambda n: (-n.applied_lsn, n.name))[0]
        if new_primary is not expected:
            wrong_elections.append((k, new_primary.name, expected.name))
        if state_digest(new_primary.database) != run.digests[k]:
            digest_mismatches.append((k, new_primary.name))
        for problem in verify_index_consistency(new_primary.database):
            index_mismatches.append((k, problem))
        # the lagging replica heals and converges from the new primary
        if k >= 2:
            replica_set.heal(lag_node)
            replica_set.tick(2 * replica_set.heartbeat_interval)
            if (lag_node.alive and lag_node.role == "replica"
                    and state_digest(lag_node.database) != run.digests[k]):
                catchup_mismatches.append((k, lag_node.name))
        replica_set.close()

    # zombie scenario: partition (not kill) the primary mid-workload,
    # let the survivors elect, then have the deposed primary keep
    # committing and shipping — fencing must reject every record
    fenced_rejects = 0
    fencing_failures = []
    k = max(1, commit_points // 2)
    replica_set, connection = build_set()
    _drive_until_commit(replica_set, connection, run.ops, k, None, None)
    zombie = replica_set.primary
    replica_set.partition(zombie)
    if not _await_promotion(replica_set):
        fencing_failures.append("no promotion in the zombie scenario")
    else:
        promotions += 1
        replica_set.tick(replica_set.heartbeat_interval)
        survivor_digests = {
            node.name: state_digest(node.database)
            for node in replica_set.nodes if node is not zombie
        }
        zombie_conn = Connection(zombie.database)
        zombie_conn.query(
            "INSERT INTO items (name, qty) VALUES ('zombie', 13)")
        before = [node.fenced_batches for node in replica_set.nodes]
        replica_set.ship(source=zombie)
        for node, count in zip(replica_set.nodes, before):
            fenced_rejects += node.fenced_batches - count
        for node in replica_set.nodes:
            if node is zombie:
                continue
            if state_digest(node.database) != survivor_digests[node.name]:
                fencing_failures.append(
                    "%s state changed after a zombie shipment" % node.name)
        if fenced_rejects == 0:
            fencing_failures.append(
                "no survivor fenced the zombie's batches")
    replica_set.close()
    shutil.rmtree(set_dir, ignore_errors=True)
    return FailoverSweepResult(
        seed, replicas, commit_points, promotions, wrong_elections,
        digest_mismatches, index_mismatches, catchup_mismatches,
        fenced_rejects, fencing_failures, run.blocked,
    )


def format_failover_result(result):
    """Human-readable failover-sweep report (benchmark artifact body)."""
    return (
        "failover sweep seed=%s: %d commit-boundary kills over %d-replica "
        "sets, %d promotions, %d blocked statements, %d fenced zombie "
        "batches -> %s"
        % (result.seed, result.commit_points, result.replicas,
           result.promotions, result.blocked, result.fenced_rejects,
           "OK" if result.ok else "%d PROBLEMS"
           % (len(result.wrong_elections) + len(result.digest_mismatches)
              + len(result.index_mismatches)
              + len(result.catchup_mismatches)
              + len(result.fencing_failures)))
    )


def _run_paged_workload(data_dir, seed, pool_pages, checkpoint_after,
                        crash_plan=None):
    """Run the seed's workload on paged storage, digesting every
    durability point, with a mid-workload checkpoint and a final
    checkpoint (the big page-write burst the kill sweep targets).

    With ``crash_plan`` ``(write_index, byte_offset)`` a crash is
    planted before the first op, in whole-run raw-write coordinates.
    Returns ``(database, digests, total_raw_writes, blocked)`` —
    ``total_raw_writes`` is ``None`` when the plan fired (the database
    is returned un-closed, mid-crash, for the caller to reopen)."""
    septic = MarkerSeptic()
    database = Database.recover(data_dir, seed=seed, septic=septic,
                                wal_sync="commit", storage="paged",
                                pool_pages=pool_pages)
    if crash_plan is not None:
        database.page_store.pager.plant_crash(*crash_plan)
    connection = Connection(database, multi_statements=True)
    digests = [state_digest(database)]
    ops = generate_workload(seed)
    if checkpoint_after is None:
        checkpoint_after = len(ops) // 2
    last = database.wal.commits
    try:
        for index, (kind, sql) in enumerate(ops):
            if kind == "m":
                connection.multi_query(sql)
            else:
                connection.query(sql)
            commits = database.wal.commits
            if commits - last > 1:
                raise AssertionError(
                    "workload op %d produced %d durability points"
                    % (index, commits - last))
            if commits > last:
                digests.append(state_digest(database))
                last = commits
            if index == checkpoint_after:
                database.checkpoint()
        database.checkpoint()
    except SimulatedCrash:
        return database, digests, None, septic.blocked
    return (database, digests, database.page_store.pager.raw_writes,
            septic.blocked)


class PagedSweepResult(object):
    """Outcome of a kill-at-every-page-write sweep on paged storage."""

    __slots__ = ("seed", "raw_writes", "kills", "offsets",
                 "durability_points", "blocked", "mismatches",
                 "consistency_problems", "rebuilds", "dw_applied",
                 "torn_repaired")

    def __init__(self, seed, raw_writes, kills, offsets,
                 durability_points, blocked, mismatches,
                 consistency_problems, rebuilds, dw_applied,
                 torn_repaired):
        #: workload seed
        self.seed = seed
        #: raw page-file writes in the golden run (kill coordinate space)
        self.raw_writes = raw_writes
        #: crashes actually exercised (kill points x byte offsets)
        self.kills = kills
        #: byte offsets tried at each write
        self.offsets = offsets
        #: durability points in the golden run
        self.durability_points = durability_points
        #: statements the marker septic dropped
        self.blocked = blocked
        #: (write_index, offset, commits) where the recovered digest
        #: diverged from the golden digest — lost commits / phantoms
        self.mismatches = mismatches
        #: (write_index, offset, problem) index-vs-scan violations
        self.consistency_problems = consistency_problems
        #: (write_index, offset, entry) tables recovery had to rebuild
        #: from logical rows — torn writes must instead be repaired
        #: in place from the doublewrite area, so this stays empty
        self.rebuilds = rebuilds
        #: doublewrite images applied across all recoveries
        self.dw_applied = dw_applied
        #: torn home pages repaired across all recoveries
        self.torn_repaired = torn_repaired

    @property
    def ok(self):
        return (self.kills > 0 and not self.mismatches
                and not self.consistency_problems and not self.rebuilds)


def run_paged_crash_sweep(workdir, seed, pool_pages=4, checkpoint_after=None,
                          stride=1, offsets=None):
    """Kill the engine at every raw page-file write x byte offset.

    A golden paged run fixes the write schedule (spill flushes during
    the workload under a small pool, then the checkpoint's doublewrite
    body, seal and sorted home writes) and the digest at every
    durability point.  Each victim replays the same deterministic
    workload with a crash planted at one ``(write_index, byte_offset)``
    — the write is truncated at the offset and the process "dies".
    Recovery (:meth:`Database.reopen`) must then reproduce the golden
    digest for the durable commit count, repair every torn page from
    the doublewrite area (never by rebuilding a table), and leave every
    index consistent with a full scan."""
    if offsets is None:
        half = pager_mod.DEFAULT_PAGE_SIZE // 2
        offsets = (0, 1, half, pager_mod.DEFAULT_PAGE_SIZE - 1)
    golden_dir = os.path.join(workdir, "paged-golden-%s" % seed)
    shutil.rmtree(golden_dir, ignore_errors=True)
    database, digests, total, blocked = _run_paged_workload(
        golden_dir, seed, pool_pages, checkpoint_after)
    if total is None:
        raise AssertionError("golden paged run crashed without a plan")
    database.close()
    shutil.rmtree(golden_dir, ignore_errors=True)

    kills = 0
    mismatches = []
    consistency_problems = []
    rebuilds = []
    dw_applied = 0
    torn_repaired = 0
    victim_dir = os.path.join(workdir, "paged-victim-%s" % seed)
    for write_index in range(0, total, stride):
        for offset in offsets:
            shutil.rmtree(victim_dir, ignore_errors=True)
            database, _victim_digests, done, _ = _run_paged_workload(
                victim_dir, seed, pool_pages, checkpoint_after,
                crash_plan=(write_index, offset))
            if done is not None:
                # the plan never fired (schedule drift) — a correctness
                # bug in the sweep itself, not the engine
                database.close()
                raise AssertionError(
                    "no crash at write %d (golden schedule has %d)"
                    % (write_index, total))
            commits = database.wal.commits
            database.reopen()
            report = (database.recovery_report or {}).get("pages") or {}
            dw_applied += report.get("dw_applied", 0)
            torn_repaired += report.get("torn_repaired", 0)
            for entry in report.get("rebuilt_tables") or []:
                rebuilds.append((write_index, offset, entry))
            if (commits >= len(digests)
                    or state_digest(database) != digests[commits]):
                mismatches.append((write_index, offset, commits))
            for problem in verify_index_consistency(database):
                consistency_problems.append((write_index, offset, problem))
            database.close()
            kills += 1
    shutil.rmtree(victim_dir, ignore_errors=True)
    return PagedSweepResult(
        seed, total, kills, tuple(offsets), len(digests) - 1, blocked,
        mismatches, consistency_problems, rebuilds, dw_applied,
        torn_repaired,
    )


def format_paged_sweep_result(result):
    """Human-readable paged-sweep report (benchmark artifact body)."""
    return (
        "paged crash sweep seed=%s: %d kills over %d raw writes x %d "
        "offsets, %d durability points, %d blocked statements, "
        "%d doublewrite images applied, %d torn pages repaired -> %s"
        % (result.seed, result.kills, result.raw_writes,
           len(result.offsets), result.durability_points, result.blocked,
           result.dw_applied, result.torn_repaired,
           "OK" if result.ok else "%d PROBLEMS"
           % (len(result.mismatches) + len(result.consistency_problems)
              + len(result.rebuilds)))
    )


class CorruptionSweepResult(object):
    """Outcome of a seeded bit-flip corruption sweep."""

    __slots__ = ("seed", "injected", "detected", "repairs",
                 "repairs_by_source", "false_repairs", "unrepaired",
                 "digest_ok", "blocked")

    def __init__(self, seed, injected, detected, repairs,
                 repairs_by_source, false_repairs, unrepaired, digest_ok,
                 blocked):
        self.seed = seed
        #: single-bit flips written to the page file
        self.injected = injected
        #: flips the scrubber caught as fresh corruptions
        self.detected = detected
        #: successful repairs, total and per source
        self.repairs = repairs
        self.repairs_by_source = repairs_by_source
        #: intact pages the scrubber tried to rewrite (must stay 0)
        self.false_repairs = false_repairs
        #: pages still quarantined at the end (must stay 0)
        self.unrepaired = unrepaired
        #: logical state unchanged after all repairs
        self.digest_ok = digest_ok
        self.blocked = blocked

    @property
    def ok(self):
        return (self.injected > 0 and self.detected == self.injected
                and self.unrepaired == 0 and self.false_repairs == 0
                and self.digest_ok)


def run_corruption_sweep(workdir, seed, flips=6, pool_pages=6):
    """Flip one seeded bit per round in the page file, then scrub.

    Every flip must be detected on the next full scrub pass (CRC32
    covers the whole page, so any single-bit flip breaks it), repaired
    from one of the scrubber's sources without changing logical state,
    and never trigger a rewrite of an intact page.  Pages are re-listed
    each round because a WAL-redo repair rebuilds the owning table onto
    fresh pages."""
    data_dir = os.path.join(workdir, "corrupt-%s" % seed)
    shutil.rmtree(data_dir, ignore_errors=True)
    database, _digests, total, blocked = _run_paged_workload(
        data_dir, seed, pool_pages, None)
    if total is None:
        raise AssertionError("corruption-sweep setup run crashed")
    baseline = state_digest(database)
    scrubber = database.page_store.scrubber
    rng = random.Random("corrupt-%s" % seed)
    injected = 0
    detected = 0
    for _ in range(flips):
        pages = sorted({page for table in database.tables.values()
                        for page in table.store.pages()})
        if not pages:
            break
        page_no = rng.choice(pages)
        bit = rng.randrange(database.page_store.pager.page_size * 8)
        before = scrubber.detected
        pager_mod.flip_page_bit(data_dir, page_no, bit,
                                page_size=database.page_store.pager.page_size)
        injected += 1
        scrubber.scan_all()
        if scrubber.detected == before + 1:
            detected += 1
    scrubber.scan_all()     # a clean pass: everything must verify again
    stats = scrubber.stats_dict()
    unrepaired = stats["quarantined"]
    digest_ok = state_digest(database) == baseline
    database.close()
    shutil.rmtree(data_dir, ignore_errors=True)
    return CorruptionSweepResult(
        seed, injected, detected, stats["scrub_repairs"],
        dict(stats["repairs_by_source"]), stats["false_repairs"],
        unrepaired, digest_ok, blocked,
    )


def format_corruption_result(result):
    """Human-readable corruption-sweep report."""
    sources = ", ".join("%s=%d" % pair for pair in
                        sorted(result.repairs_by_source.items())) or "none"
    return (
        "corruption sweep seed=%s: %d bit flips, %d detected, %d "
        "repaired (%s), %d false repairs, %d unrepaired -> %s"
        % (result.seed, result.injected, result.detected, result.repairs,
           sources, result.false_repairs, result.unrepaired,
           "OK" if result.ok else "PROBLEMS")
    )


# -- sharded crash sweep ------------------------------------------------
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


def fleet_digest(router):
    """Combined digest over every shard primary (order-stable)."""
    parts = []
    for shard in range(router.shard_count):
        database = router.primary_database(shard)
        parts.append("" if database is None else state_digest(database))
    return sha1("|".join(parts).encode("ascii")).hexdigest()


def _fleet_totals(router):
    """(row_count, amount_sum) straight off the shard primaries — the
    ground truth a scatter read must agree with."""
    count = 0
    total = 0
    for shard in range(router.shard_count):
        database = router.primary_database(shard)
        if database is None or "accounts" not in database.tables:
            continue
        for row in database.tables["accounts"].rows:
            count += 1
            total += row.get("amount") or 0
    return count, total


class ShardedSweepResult(object):
    """Outcome of one kill-any-shard-primary-at-every-commit sweep."""

    __slots__ = ("seed", "shards", "replicas", "boundaries", "kills",
                 "promotions", "torn_reads", "lost_rows", "phantom_rows",
                 "digest_mismatches", "index_mismatches", "blocked",
                 "scatter_reads")

    def __init__(self, seed, shards, replicas, boundaries, kills,
                 promotions, torn_reads, lost_rows, phantom_rows,
                 digest_mismatches, index_mismatches, blocked,
                 scatter_reads):
        self.seed = seed
        self.shards = shards
        self.replicas = replicas
        #: commit boundaries of the golden run (each swept × shards)
        self.boundaries = boundaries
        self.kills = kills
        self.promotions = promotions
        #: (k, shard, expected, got) scatter reads that disagreed with
        #: the committed prefix mid-failover
        self.torn_reads = torn_reads
        #: acked rows missing after failover, summed over runs
        self.lost_rows = lost_rows
        #: unacked rows that resurrected, summed over runs
        self.phantom_rows = phantom_rows
        #: (k, shard) final fleet digests diverging from golden
        self.digest_mismatches = digest_mismatches
        #: (k, shard, problem) index-vs-scan disagreements
        self.index_mismatches = index_mismatches
        #: statements the marker septic dropped in the golden run
        self.blocked = blocked
        #: scatter reads issued mid-failover across the sweep
        self.scatter_reads = scatter_reads

    @property
    def ok(self):
        return (not self.torn_reads and not self.lost_rows
                and not self.phantom_rows and not self.digest_mismatches
                and not self.index_mismatches and self.blocked >= 2
                and self.kills == self.boundaries * self.shards
                and self.promotions == self.kills)

    def __repr__(self):
        return ("ShardedSweepResult(seed=%r, %d boundaries x %d shards, "
                "%d kills, %d torn reads, %d lost, %d phantom)"
                % (self.seed, self.boundaries, self.shards, self.kills,
                   len(self.torn_reads), self.lost_rows,
                   self.phantom_rows))


def _replay_sharded(router, ops, stop_after=None):
    """Drive *ops* through the router, shipping after each op.  Returns
    ``(boundary_states, blocked)`` where ``boundary_states[k]`` is the
    ``(count, total, digest)`` snapshot after the k-th commit boundary
    (``boundary_states[0]`` = before any write).  Stops once
    *stop_after* boundaries have landed."""
    boundary_states = [(0, 0, fleet_digest(router))]
    blocked = 0
    for kind, sql in ops:
        if stop_after is not None and len(boundary_states) > stop_after:
            break
        outcome = router.query(sql)
        router.ship()
        if kind == "w":
            if not outcome.ok:
                raise AssertionError(
                    "workload write failed: %s -> %s" % (sql, outcome.error)
                )
            count, total = _fleet_totals(router)
            boundary_states.append((count, total, fleet_digest(router)))
        elif kind == "x":
            if outcome.ok or getattr(outcome.error, "errno", None) != 3090:
                raise AssertionError(
                    "marker septic let %r through: %r" % (sql, outcome)
                )
            blocked += 1
    return boundary_states, blocked


def run_sharded_sweep(workdir, seed, shards=2, replicas=1, writes=10):
    """Kill every shard's primary at every commit boundary mid-scatter.

    Golden run first: the full workload through a fresh sharded fleet,
    snapshotting ``(rows, sum, digest)`` at every commit boundary.  Then
    for every boundary ``k`` and every shard ``s``: fresh fleet, replay
    exactly ``k`` boundaries, crash shard ``s``'s primary, and — with
    the failover still in flight — issue a cross-shard scatter read
    through the router.  The read must see exactly the golden ``k``
    snapshot (no torn cross-shard state), the election must promote,
    and finishing the workload must converge every shard to the golden
    final digest (no lost, no phantom rows).  Indexes are cross-checked
    against full scans on every post-failover primary.
    """
    from repro.shard import ShardRouter

    ops = generate_sharded_workload(seed, writes=writes)

    def build_router(tag):
        path = os.path.join(workdir, "sharded-%s-%s" % (seed, tag))
        shutil.rmtree(path, ignore_errors=True)
        return ShardRouter(
            path, shards=shards, replicas=replicas,
            septic_factory=MarkerSeptic, seed=seed if isinstance(seed, int)
            else 1, heartbeat_interval=1, lease_intervals=2,
        )

    golden = build_router("golden")
    try:
        golden_states, blocked = _replay_sharded(golden, ops)
        golden_final = golden_states[-1][2]
    finally:
        golden.close()
    boundaries = len(golden_states) - 1

    kills = 0
    promotions = 0
    scatter_reads = 0
    torn_reads = []
    lost_rows = 0
    phantom_rows = 0
    digest_mismatches = []
    index_mismatches = []

    for k in range(1, boundaries + 1):
        for shard in range(shards):
            router = build_router("victim")
            try:
                _replay_sharded(router, ops, stop_after=k)
                victim_set = router.shard_sets[shard]
                promotions_before = victim_set.promotions
                router.kill_primary(shard)
                kills += 1
                # scatter read mid-failover: the router's virtual-tick
                # retry backoff is what drives the election forward
                outcome = router.query(
                    "SELECT COUNT(*), SUM(amount) FROM accounts"
                )
                scatter_reads += 1
                expected_count, expected_total, _ = golden_states[k]
                if not outcome.ok:
                    torn_reads.append((k, shard, "error",
                                       str(outcome.error)))
                else:
                    got_count, got_total = outcome.rows[0]
                    if (got_count, got_total or 0) != (expected_count,
                                                       expected_total):
                        torn_reads.append(
                            (k, shard,
                             (expected_count, expected_total),
                             (got_count, got_total))
                        )
                        if got_count < expected_count:
                            lost_rows += expected_count - got_count
                        elif got_count > expected_count:
                            phantom_rows += got_count - expected_count
                if victim_set.primary is None:
                    _await_promotion(victim_set)
                if victim_set.promotions > promotions_before:
                    promotions += 1
                # finish the workload over the promoted fleet
                remaining = _count_remaining(ops, k)
                if remaining:
                    _replay_sharded(router, remaining)
                final = fleet_digest(router)
                if final != golden_final:
                    digest_mismatches.append((k, shard))
                for ordinal in range(shards):
                    database = router.primary_database(ordinal)
                    if database is None:
                        index_mismatches.append((k, shard, "no primary"))
                        continue
                    for problem in verify_index_consistency(database):
                        index_mismatches.append((k, shard, problem))
            finally:
                router.close()

    return ShardedSweepResult(
        seed=seed, shards=shards, replicas=replicas,
        boundaries=boundaries, kills=kills, promotions=promotions,
        torn_reads=torn_reads, lost_rows=lost_rows,
        phantom_rows=phantom_rows, digest_mismatches=digest_mismatches,
        index_mismatches=index_mismatches, blocked=blocked,
        scatter_reads=scatter_reads,
    )


def _count_remaining(ops, boundaries_done):
    """The op suffix after the first *boundaries_done* commit
    boundaries (what the victim run still has to execute)."""
    landed = 0
    for index, (kind, _sql) in enumerate(ops):
        if kind == "w":
            landed += 1
            if landed == boundaries_done:
                return ops[index + 1:]
    return []


def format_sharded_result(result):
    lines = [
        "sharded crash sweep: seed=%r %d shards x %d replicas" % (
            result.seed, result.shards, result.replicas),
        "  %d commit boundaries, %d kills (every shard at every "
        "boundary), %d promotions" % (result.boundaries, result.kills,
                                      result.promotions),
        "  %d scatter reads mid-failover, %d torn" % (
            result.scatter_reads, len(result.torn_reads)),
        "  lost rows: %d, phantom rows: %d" % (result.lost_rows,
                                               result.phantom_rows),
        "  digest mismatches: %d, index mismatches: %d, blocked: %d" % (
            len(result.digest_mismatches), len(result.index_mismatches),
            result.blocked),
        "  verdict: %s" % ("OK" if result.ok else "FAILED"),
    ]
    return "\n".join(lines)
