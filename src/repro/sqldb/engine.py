"""The database server object and its SEPTIC hook point.

:class:`Database` implements the MySQL-like processing pipeline::

    raw SQL --charset decode--> parse --> validate (item stack)
            --> [SEPTIC hook] --> execute

The hook sits *after* all query modifications (charset decoding, version
comment expansion, escape processing) and *before* execution — the exact
placement the paper requires so that SEPTIC sees queries the way they will
actually run, closing the semantic mismatch.

Two scale-oriented layers sit around that pipeline:

* a **pipeline cache** (:mod:`repro.sqldb.cache`): the parse/validate/
  plan products of each statement *shape* are memoized per catalog
  :attr:`~Database.schema_version` and shared by every text that
  differs only in its data literals, which travel beside the statement
  as a values vector; a repeated text costs one lookup, a new text of a
  known shape decoding and tokenizing.  DDL bumps the schema version,
  which invalidates by construction;
* a **per-session execution layer** (:class:`Session`): connection-scoped
  state — the open transaction, the connection charset and
  ``LAST_INSERT_ID()`` — lives on a session object created per
  connection, so one server instance can serve concurrent clients
  without sharing what MySQL scopes per connection.
"""

import os
import random
import threading
import time
from datetime import datetime, timedelta

from repro import faults as faults_mod
from repro.core import resilience
from repro.sqldb import ast_nodes as ast
from repro.sqldb import charset as charset_mod
from repro.sqldb import wal as wal_mod
from repro.sqldb.cache import (DEFAULT_CACHE_SIZE, CacheEntry, PipelineCache,
                               TextBinding)
from repro.sqldb.errors import (
    ExecutionError,
    MultiStatementError,
    PageCorruptionError,
    QueryBlocked,
    SQLError,
    TransientEngineError,
    WalCorruptionError,
    WalError,
)
from repro.sqldb.executor import DDL_STATEMENTS, Executor
from repro.sqldb.lexer import slot_values, tokenize
from repro.sqldb.parser import parse_sql
from repro.sqldb.prepared import slot_tags
from repro.sqldb.storage import (
    MemoryRows,
    PagedRows,
    ReadView,
    Table,
    WriteTxn,
    seal_txn,
    undo_txn,
)
from repro.sqldb.unparse import to_sql
from repro.sqldb.validator import validate

#: statement kinds the WAL must persist (everything that mutates durable
#: state; SELECT/EXPLAIN and the transaction-control statements are
#: handled separately — the latter become begin/commit/rollback markers)
_DURABLE_STATEMENTS = (
    ast.Insert, ast.Update, ast.Delete, ast.TruncateTable,
) + DDL_STATEMENTS

#: process-wide replay parse memo (WAL SQL text → parsed statement).
#: Replay re-parses the same canonical text for every recovery of the
#: same log — the crash-point sweep does thousands of recoveries — and
#: parsed statements are immutable once built (the pipeline cache
#: already shares them across sessions), so sharing here is safe.
_REPLAY_PARSE_MEMO = {}

#: statements that read but never mutate table or catalog state
_READ_STATEMENTS = (ast.Select, ast.Explain, ast.ShowTables, ast.Describe)

#: transaction control — no statement locks (a ROLLBACK with versions
#: to undo takes the catalog itself, in Session.rollback)
_TX_STATEMENTS = (ast.Begin, ast.Commit, ast.Rollback)


class LockPlan(object):
    """What one statement must hold while executing: the catalog lock
    mode plus per-table modes, pre-sorted into the global acquisition
    order (catalog first, then tables by name) so any set of concurrent
    statements acquires resources in one total order — deadlock free."""

    __slots__ = ("catalog_shared", "tables")

    def __init__(self, catalog_shared, tables=()):
        self.catalog_shared = catalog_shared
        self.tables = tuple(sorted(tables))

    def __repr__(self):
        return "LockPlan(catalog=%s, tables=%r)" % (
            "S" if self.catalog_shared else "X", self.tables
        )


def lock_plan(stmt):
    """Classify *stmt* into its :class:`LockPlan`.

    MVCC demoted this hierarchy: readers carry a snapshot
    :class:`~repro.sqldb.storage.ReadView` instead of table locks, so
    only *writers* exclude each other per table.

    * reads (SELECT/EXPLAIN/SHOW/DESCRIBE): catalog shared, **no table
      locks** — reads overlap with each other and with any DML;
    * DML (INSERT/UPDATE/DELETE/TRUNCATE): catalog shared plus the
      target table exclusive (writer–writer exclusion only; tables read
      by subqueries take nothing);
    * DDL: catalog exclusive (conflicts with everything — every other
      statement holds the catalog at least shared);
    * BEGIN/COMMIT/ROLLBACK: ``None`` — only a ROLLBACK that has
      versions to undo locks anything, and :class:`Session` takes the
      catalog itself for that.

    Unknown statement kinds get the conservative catalog-exclusive
    plan.
    """
    if isinstance(stmt, _TX_STATEMENTS):
        return None
    if isinstance(stmt, DDL_STATEMENTS):
        return LockPlan(catalog_shared=False)
    if isinstance(stmt, _READ_STATEMENTS):
        return LockPlan(True, [])
    if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete,
                         ast.TruncateTable)):
        return LockPlan(True, [(stmt.table.lower(), False)])
    return LockPlan(catalog_shared=False)


class LockManager(object):
    """The engine's two-level reader–writer lock hierarchy.

    One catalog :class:`~repro.core.resilience.RWLock` plus one per
    table, created on demand and acquired strictly in plan order.
    Locks are scoped to a single statement — never held across
    statements, so a stuck client cannot convoy the server.  The
    legacy ``Database.catalog_lock`` RLock remains underneath as a
    short-critical-section guard for catalog dict mutations; this
    layer is what makes *statements* overlap or exclude each other.
    """

    def __init__(self):
        self.catalog = resilience.RWLock()
        self._tables = {}
        self._registry_lock = resilience.make_lock()

    def table_lock(self, name):
        # a table's lock, once made, is never replaced: reading it takes
        # no lock (one dict read), making it takes the registry's
        lock = self._tables.get(name)
        if lock is None:
            with self._registry_lock:
                lock = self._tables.setdefault(name, resilience.RWLock())
        return lock

    def acquire(self, plan):
        if plan.catalog_shared:
            self.catalog.acquire_read()
        else:
            self.catalog.acquire_write()
        for name, shared in plan.tables:
            self.table_lock(name).acquire(shared)

    def release(self, plan):
        for name, shared in reversed(plan.tables):
            self.table_lock(name).release(shared)
        if plan.catalog_shared:
            self.catalog.release_read()
        else:
            self.catalog.release_write()

    def stats(self):
        """Aggregate + per-resource counters (the benches read these)."""
        with self._registry_lock:
            tables = dict(self._tables)
        per_table = {name: lock.state_dict()
                     for name, lock in tables.items()}
        out = {
            "catalog": self.catalog.state_dict(),
            "tables": per_table,
            "read_acquires": self.catalog.read_acquires,
            "write_acquires": self.catalog.write_acquires,
            "contended": self.catalog.contended,
        }
        for state in per_table.values():
            out["read_acquires"] += state["read_acquires"]
            out["write_acquires"] += state["write_acquires"]
            out["contended"] += state["contended"]
        return out


def _decode(sql, charset):
    """The query text as the lexer should see it."""
    if faults_mod.ACTIVE is not None:
        faults_mod.fire("charset.decode")
    return charset_mod.decode_query(sql, charset)


def _build_entry(decoded, lexed, slots):
    """What the pipeline cache keeps of a statement it has to parse
    (:meth:`repro.sqldb.cache.PipelineCache.resolve`'s builder): the
    :class:`CacheEntry` of its shape, and the text's own literals as
    the entry's values."""
    statements, comments = parse_sql(decoded, lexed, slots=slots)
    values = slot_values(lexed.tokens, lexed.slots)
    return (CacheEntry(statements, comments, lexed.slots, slot_tags(values)),
            values, True)


class QueryContext(object):
    """Everything SEPTIC's hook receives about one statement."""

    __slots__ = ("_sql", "statement", "stack", "comments", "database",
                 "memo", "values")

    def __init__(self, sql, statement, stack, comments, database,
                 memo=None, values=()):
        #: the decoded query text; ``None`` (a prepared execution) is
        #: rendered from statement and values when somebody asks
        self._sql = sql
        #: the parsed AST statement (``Param`` slots where values go)
        self.statement = statement
        #: the validated item stack (bottom → top); data items of a
        #: shared statement hold a :class:`~repro.sqldb.items.Slot`,
        #: resolved in *values*
        self.stack = stack
        #: comment bodies found in the query (external ID channel)
        self.comments = comments
        self.database = database
        #: pipeline-cache memo slot (:class:`repro.sqldb.cache.SepticMemo`)
        #: the QS&QM manager fills on first sight; ``None`` when uncached
        self.memo = memo
        #: this execution's values vector (data literals / parameters)
        self.values = values

    @property
    def sql(self):
        """The query text as decoded — what the events quote."""
        if self._sql is None:
            self._sql = to_sql(self.statement, self.values)
        return self._sql

    @property
    def command(self):
        return type(self.statement).__name__.upper()


class Session(object):
    """Per-connection server-side state (what MySQL scopes per session).

    Holds the connection charset, ``LAST_INSERT_ID()`` and the open
    transaction.  :class:`repro.sqldb.connection.Connection` creates one
    per connection; callers that talk to the :class:`Database` directly
    use its default session.
    """

    __slots__ = ("database", "charset", "last_insert_id", "tx_id",
                 "tx_read_stamp", "write_txn")

    def __init__(self, database, charset=None):
        self.database = database
        self.charset = charset or database.charset
        self.last_insert_id = 0
        #: WAL transaction id while a transaction is open (0 otherwise /
        #: when no WAL is attached)
        self.tx_id = 0
        #: MVCC snapshot watermark pinned at BEGIN (None when autocommit)
        self.tx_read_stamp = None
        #: the open transaction (None when autocommit): a
        #: :class:`~repro.sqldb.storage.WriteTxn` owning every pending
        #: row version it installed — COMMIT seals them, ROLLBACK undoes
        #: them, nothing else describes the transaction
        self.write_txn = None

    # -- transactions ----------------------------------------------------
    #
    # A transaction is the row versions it owns.  The catalog is not
    # transactional: DDL and TRUNCATE end the open transaction with an
    # implicit COMMIT before they run (the executor does that), and so
    # does a BEGIN inside one — all MySQL behaviour.

    def begin(self):
        if self.write_txn is not None:
            self.commit()  # implicit commit, like MySQL
        db = self.database
        # pin the snapshot-isolation read position: everything committed
        # so far is visible to this transaction, nothing newer will be.
        # Registered under the lock a seal holds, so no commit can decide
        # "nobody needs the old images" between the two.
        with db._mvcc_lock:
            self.tx_read_stamp = db._commit_stamp
            self.write_txn = WriteTxn(read_stamp=self.tx_read_stamp)
            db._tx_sessions.add(self)
        if wal_mod.ATTACHED and db._wal is not None:
            self.tx_id = db._next_tx_id()
            db._wal.append(wal_mod.WalRecord.BEGIN, tx=self.tx_id)

    def commit(self, under_locks=False):
        """Commit the open transaction.  *under_locks*: the caller holds
        a statement's locks (the implicit COMMIT before DDL), so a
        checkpoint this commit makes due waits for their release."""
        if self.write_txn is None:
            return  # COMMIT outside a transaction is a no-op
        db = self.database
        lsn = None
        if wal_mod.ATTACHED and db._wal is not None and self.tx_id:
            db._wal.append(wal_mod.WalRecord.COMMIT, tx=self.tx_id,
                           durability_point=True)
            lsn = db._wal.last_lsn
        # seal pending versions with the commit LSN before the commit
        # point may trigger a checkpoint (whose vacuum walks sealed meta)
        db._seal_txn(self.write_txn, lsn=lsn)
        if lsn is not None:
            db._note_commit_point()
        self._end()
        if not under_locks:
            db._checkpoint_if_due()

    def rollback(self):
        txn = self.write_txn
        if txn is None:
            return  # ROLLBACK outside a transaction is a no-op
        db = self.database
        # a transaction that never wrote (read-only, or every statement
        # failed its pre-mutation conflict check) has nothing to undo
        # and takes no lock
        if txn.entries:
            # versions leave the tables: exclude all other statements
            db.lock_manager.catalog.acquire_write()
            try:
                with db.catalog_lock:
                    undo_txn(txn)
            finally:
                db.lock_manager.catalog.release_write()
        wal = db._wal
        # a log a crash abandoned takes no marker, and needs none:
        # recovery discards a transaction that never committed
        if wal_mod.ATTACHED and wal is not None and not wal.closed \
                and self.tx_id:
            wal.append(wal_mod.WalRecord.ROLLBACK, tx=self.tx_id)
        self._end()

    def _end(self):
        """Back to autocommit (the transaction is sealed, undone, or
        lost to a restart)."""
        self.write_txn = None
        self.tx_read_stamp = None
        self.tx_id = 0
        self.database._tx_sessions.discard(self)

    @property
    def in_transaction(self):
        return self.write_txn is not None


class Database(object):
    """An in-memory database server instance.

    ``septic`` may be set to any object exposing
    ``process_query(QueryContext)`` — normally a
    :class:`repro.core.septic.Septic` instance.  When it raises
    :class:`repro.sqldb.errors.QueryBlocked` the statement is dropped.

    ``cache_size`` sizes the query-pipeline cache (its entry tier; the
    text tier holds ``TEXT_TIER_FACTOR`` times as many texts); ``0``
    disables caching entirely (every statement re-decodes, re-parses and
    re-validates — the cold path, kept for benchmarks and ablations).
    """

    #: virtual clock start, kept fixed for reproducibility
    _EPOCH = "2016-07-05 12:00:00"

    def __init__(self, name="repro", septic=None, charset="utf8", seed=1,
                 cache_size=DEFAULT_CACHE_SIZE, storage="memory",
                 page_size=4096, pool_pages=64):
        self.name = name
        #: ``"memory"`` keeps rows in plain lists (the historical
        #: backend); ``"paged"`` stores them in checksummed B-tree pages
        #: behind a buffer pool — it takes effect when the database is
        #: opened through :meth:`recover` (the page files live beside
        #: the WAL in the data directory).
        if storage not in ("memory", "paged"):
            raise ValueError("storage must be 'memory' or 'paged'")
        self.storage = storage
        self.page_size = page_size
        self.pool_pages = pool_pages
        #: the :class:`repro.sqldb.pager.PageStore` (paged storage only)
        self.page_store = None
        #: scrubber repair sources beyond local WAL redo (see
        #: :meth:`register_page_repair_source`); every page store a
        #: recovery opens tries this very list, so they survive reopen()
        self._page_repair_sources = []
        #: statement-scope RW locks (catalog + per table)
        self.lock_manager = LockManager()
        self.version = "5.7.16-repro"
        self.user = "webapp@localhost"
        self.tables = {}
        #: bumped by every DDL change; part of the pipeline-cache key, so
        #: cached validations of the old catalog stop matching instantly
        self.schema_version = 0
        #: guards the catalog (``tables`` and ``schema_version``) against
        #: concurrent DDL/validation/transaction snapshots
        self.catalog_lock = threading.RLock()
        self.septic = septic
        self.charset = charset
        self._executor = Executor(self)
        self._rand_seed = seed
        self._rand = random.Random(seed)
        #: RNG draws issued so far — logged with each WAL record so
        #: replay can fast-forward a re-seeded RNG to the same point
        self._rand_calls = 0
        self._clock_ticks = 0
        self._clock_lock = threading.Lock()
        # -- durability (all inert until a WAL is attached) ---------------
        #: the attached :class:`repro.sqldb.wal.WriteAheadLog` (or None)
        self._wal = None
        #: data directory backing the WAL/checkpoint files (or None)
        self.data_dir = None
        #: durability points between automatic checkpoints (0 = manual)
        self.checkpoint_interval = 0
        self._commit_points_since_checkpoint = 0
        #: a commit point made an automatic checkpoint due; it runs once
        #: the statement that reached the point has released its locks
        self._checkpoint_due = False
        #: one checkpoint at a time: each rotates the log to its own cut
        self._checkpoint_lock = threading.Lock()
        #: WAL transaction-id counter
        self._tx_counter = 0
        #: highest LSN seen during recovery (next append starts above it)
        self._recovered_lsn = 0
        self._recovered_dir = None
        #: checkpoint retention pins: name -> callable returning the
        #: lowest LSN that holder still needs kept in the log (or None
        #: to release).  Replication pins the slowest replica's applied
        #: LSN here so rotation never truncates records a replica has
        #: yet to fetch.
        self._lsn_pins = {}
        #: checkpoints skipped because a retention pin was behind the
        #: log frontier (they retry at the next commit point)
        self.checkpoints_deferred = 0
        #: transient-retry counters aggregated across every connection
        #: to this database (exported via ``Septic.status()``)
        self.retry_stats = resilience.RetryStats()
        #: summary of the last recovery (:meth:`recover` fills it)
        self.recovery_report = None
        #: tables rebuilt from the WAL because their checkpoint tree was
        #: corrupt — ``[(table_name, bad_page_no)]``
        self._pages_rebuilt = []
        self._epoch_moment = datetime.strptime(
            self._EPOCH, "%Y-%m-%d %H:%M:%S"
        )
        #: the query-pipeline cache (``None`` when disabled)
        self.pipeline_cache = (
            PipelineCache(cache_size) if cache_size else None
        )
        # -- MVCC ---------------------------------------------------------
        #: newest published commit stamp (max-coupled with WAL LSNs, so
        #: version stamps and the log share one ordering)
        self._commit_stamp = 0
        #: pinned read-view watermarks -> refcount; the min is the GC
        #: horizon no vacuum may cross
        self._active_views = {}
        #: guards stamp allocation, meta sealing and view pinning — the
        #: seal happens entirely inside it, so a pinned watermark never
        #: observes a half-stamped commit
        self._mvcc_lock = threading.Lock()
        #: set while a failed statement is taken back: no read view
        #: opens, and the undo waits for the open ones to close
        #: (:meth:`_undo_statement`)
        self._views_barred = False
        self._views_closed = threading.Condition(self._mvcc_lock)
        #: the session used when a caller does not bring its own
        self._default_session = Session(self, charset)
        #: sessions currently holding an open transaction (any session)
        self._tx_sessions = set()
        self._stats_lock = threading.Lock()
        #: count of statements actually executed (not dropped)
        self.statements_executed = 0
        #: count of statements that entered the pipeline (incl. dropped)
        self.statements_received = 0
        #: cumulative wall-clock seconds spent inside the SEPTIC hook
        #: (measured live; the BenchLab harness reads this)
        self.septic_seconds_total = 0.0
        #: stats provider installed by the socket front end
        #: (:class:`repro.net.server.NetServer`); ``Septic.status()``
        #: surfaces its connection counters under ``"net"``
        self.net_stats = None

    # -- sessions ----------------------------------------------------------

    @property
    def default_session(self):
        return self._default_session

    def create_session(self, charset=None):
        """A fresh :class:`Session` (one per client connection)."""
        return Session(self, charset)

    #: per-connection state kept reachable through the server object for
    #: callers that treat the Database as a single-client engine
    @property
    def last_insert_id(self):
        return self._default_session.last_insert_id

    @last_insert_id.setter
    def last_insert_id(self, value):
        self._default_session.last_insert_id = value

    # -- catalog -----------------------------------------------------------

    def _row_store(self, pages_meta=None):
        """The row store a table of this database keeps its images in —
        wiring from ``storage``; *pages_meta* re-opens a paged store
        onto its checkpointed pages."""
        if self.storage != "paged":
            return MemoryRows()
        if self.page_store is None:
            raise WalError(
                "paged storage requires a data directory: open the "
                "database through Database.recover()"
            )
        return PagedRows(self.page_store, pages_meta)

    def create_table(self, name, columns):
        table = Table(name, columns, self._row_store())
        with self.catalog_lock:
            self.tables[table.name] = table
            self.schema_version += 1
        return table

    def drop_table(self, name):
        with self.catalog_lock:
            table = self.tables.pop(name.lower())
            self.schema_version += 1
        table.dispose()  # free the table's pages: DROP TABLE is final

    def bump_schema_version(self):
        """Record a catalog change done in place (ALTER TABLE paths)."""
        with self.catalog_lock:
            self.schema_version += 1

    def table(self, name):
        table = self.tables.get(name.lower())
        if table is None:
            raise ExecutionError(
                "Table '%s.%s' doesn't exist" % (self.name, name), errno=1146
            )
        return table

    # -- transactions ----------------------------------------------------
    #
    # Delegates of the default session, for direct-engine callers.

    def begin(self):
        self._default_session.begin()

    def commit(self):
        self._default_session.commit()

    def rollback(self):
        self._default_session.rollback()

    @property
    def in_transaction(self):
        """True while *any* session holds an open transaction."""
        return bool(self._tx_sessions)

    # -- MVCC --------------------------------------------------------------

    def open_read_view(self, session=None):
        """Pin a snapshot read position for one statement.

        Inside an open transaction the view reuses the watermark pinned
        at BEGIN (repeatable reads) and carries the transaction's write
        txn so it sees its own pending changes; otherwise the watermark
        is the newest published commit stamp.  Must be paired with
        :meth:`close_read_view` — the pin is what holds vacuum back, and
        a failed statement's undo waits for it (:meth:`_undo_statement`),
        so the view must not outlive the statement that reads through it.
        """
        txn = None
        watermark = None
        if session is not None and session.write_txn is not None:
            txn = session.write_txn
            watermark = session.tx_read_stamp
        with self._mvcc_lock:
            while self._views_barred:
                self._views_closed.wait()
            if watermark is None:
                watermark = self._commit_stamp
            self._active_views[watermark] = (
                self._active_views.get(watermark, 0) + 1
            )
        return ReadView(watermark, txn)

    def close_read_view(self, view):
        with self._mvcc_lock:
            count = self._active_views.get(view.watermark, 0) - 1
            if count > 0:
                self._active_views[view.watermark] = count
            else:
                self._active_views.pop(view.watermark, None)
                if self._views_barred and not self._active_views:
                    self._views_closed.notify_all()

    def mvcc_horizon(self):
        """Oldest pinned watermark, or ``None`` when nothing is pinned
        (vacuum may then reclaim all sealed history).

        Pins come from two places: read views open right now, and
        sessions inside an open transaction — their BEGIN-time stamp
        stays pinned *between* statements, which is what makes their
        reads repeatable."""
        with self._mvcc_lock:
            pins = list(self._active_views)
        for session in list(self._tx_sessions):
            stamp = session.tx_read_stamp
            if stamp is not None:
                pins.append(stamp)
        return min(pins) if pins else None

    def _seal_txn(self, txn, lsn=None):
        """Commit *txn*'s pending versions under one fresh stamp.

        The stamp is ``max(counter + 1, lsn)`` so version stamps track
        the WAL's LSN sequence whenever one is attached.  Stamping and
        counter publication happen inside the MVCC lock: a reader either
        pins a watermark below the stamp (sees the old images) or pins
        it at/after full publication (sees the new ones) — never a torn
        mixture.

        When nothing can ever read the superseded images — no open read
        view, no *other* session inside a transaction (whose pinned
        BEGIN stamp needs them for repeatable reads and whose writes
        need the begin stamps for first-writer-wins) — the sealed
        metadata is collected on the spot, so single-session workloads
        never grow version chains at all.
        """
        if txn is None or txn.sealed:
            return
        with self._mvcc_lock:
            others_in_tx = any(
                session.write_txn is not txn
                for session in list(self._tx_sessions)
            )
            stamp = max(self._commit_stamp + 1, lsn or 0)
            seal_txn(txn, stamp,
                     collect=not self._active_views and not others_in_tx)
            self._commit_stamp = stamp

    def _undo_statement(self, txn, since):
        """InnoDB rolls back a failed statement, not its transaction:
        *txn*'s entries from *since* on go, and an open transaction
        stays open where the statement began.  The statement still
        holds its table lock, so no other writer meets its versions.
        Readers take no table lock, and none may sit between a row
        image and its metadata while versions leave: no read view opens
        until the undo is done, and the undo waits for the open ones to
        close.  A reader waits on no statement lock while its view is
        open, so they all do; the catalog lock would not do, as a writer
        queued on the table holds it shared."""
        with self._mvcc_lock:
            while self._views_barred:       # another undo is running
                self._views_closed.wait()
            self._views_barred = True
            while self._active_views:
                self._views_closed.wait()
        try:
            undo_txn(txn, since)
        finally:
            with self._mvcc_lock:
                self._views_barred = False
                self._views_closed.notify_all()

    # -- environment ---------------------------------------------------------

    def now(self):
        """Deterministic virtual clock (advances one second per call,
        with proper day/month rollover — it never runs backwards)."""
        with self._clock_lock:
            self._clock_ticks += 1
            ticks = self._clock_ticks
        moment = self._epoch_moment + timedelta(seconds=ticks)
        return moment.strftime("%Y-%m-%d %H:%M:%S")

    def rand(self):
        with self._clock_lock:
            self._rand_calls += 1
            return self._rand.random()

    # -- durability --------------------------------------------------------

    @classmethod
    def recover(cls, data_dir, name="repro", septic=None, charset="utf8",
                seed=1, cache_size=DEFAULT_CACHE_SIZE, wal_sync="commit",
                wal_batch_commits=16, checkpoint_interval=0, strict=True,
                storage="memory", page_size=4096, pool_pages=64):
        """Rebuild a database from *data_dir* and attach its WAL.

        The redo-only recovery path: restore the newest checkpoint (if
        any), then replay every *committed* unit the log holds above the
        checkpoint LSN — autocommit statements and transactions closed
        by a commit marker, in commit order.  Rolled-back and unfinished
        transactions are discarded; a torn tail is truncated.  Running
        recovery twice over the same directory yields identical state
        (replay always restarts from the checkpoint, never from partial
        results).

        Mid-log corruption (a CRC-failing record with valid data after
        it) raises :class:`~repro.sqldb.errors.WalCorruptionError` when
        *strict* (the default); the exception carries the clean-prefix
        database as ``.database``.  With ``strict=False`` the damaged
        suffix is truncated and the clean-prefix database is returned.

        An empty or missing *data_dir* simply yields a fresh database
        with durability enabled — the bootstrap path.
        """
        db = cls(name=name, septic=septic, charset=charset, seed=seed,
                 cache_size=cache_size, storage=storage, page_size=page_size,
                 pool_pages=pool_pages)
        db._recover_state(data_dir, strict=strict)
        db.attach_wal(data_dir, sync_mode=wal_sync,
                      batch_commits=wal_batch_commits,
                      checkpoint_interval=checkpoint_interval)
        return db

    def attach_wal(self, data_dir, sync_mode="commit", batch_commits=16,
                   checkpoint_interval=0):
        """Turn on durability: every mutation from here on is logged.

        The directory must be fresh or already recovered by this
        instance — attaching over unread on-disk state would assign
        duplicate LSNs and shadow the existing history.
        """
        if self._wal is not None:
            raise WalError("a WAL is already attached")
        if self._tx_sessions:
            raise WalError(
                "cannot attach a WAL while a transaction is open"
            )
        os.makedirs(data_dir, exist_ok=True)
        log_file = wal_mod.log_path(data_dir)
        has_state = os.path.exists(wal_mod.checkpoint_path(data_dir)) or (
            os.path.exists(log_file) and os.path.getsize(log_file) > 0
        )
        if has_state and self._recovered_dir != data_dir:
            raise WalError(
                "data directory %r holds existing state; use "
                "Database.recover() instead of attaching directly"
                % data_dir
            )
        self.data_dir = data_dir
        self.checkpoint_interval = checkpoint_interval
        self._commit_points_since_checkpoint = 0
        self._wal = wal_mod.WriteAheadLog(
            data_dir, sync_mode=sync_mode, batch_commits=batch_commits,
            start_lsn=self._recovered_lsn + 1,
        )
        wal_mod._note_attached(+1)
        return self._wal

    def close(self):
        """Clean shutdown: fsync and detach the WAL (no-op without one)."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None
            wal_mod._note_attached(-1)
        if self.page_store is not None:
            self.page_store.close()
            self.page_store = None

    def reopen(self):
        """Crash-restart in place: drop every volatile structure and
        rebuild from :attr:`data_dir`, keeping the object identity so
        live :class:`Session`/``Connection`` objects survive the
        restart (their open transactions are gone, like any client's
        after a server bounce)."""
        if self.data_dir is None:
            raise WalError("no data directory attached")
        data_dir = self.data_dir
        wal = self._wal
        sync_mode, batch = "commit", 16
        if wal is not None:
            sync_mode, batch = wal.sync_mode, wal.batch_commits
            wal.abandon()
            self._wal = None
            wal_mod._note_attached(-1)
        if self.page_store is not None:
            # drop the handles without flushing — the on-disk files are
            # exactly what the simulated crash left behind
            self.page_store.abandon()
            self.page_store = None
        interval = self.checkpoint_interval
        with self.catalog_lock:
            old_schema_version = self.schema_version
            self.tables = {}
            self.schema_version = 0
        self._clock_ticks = 0
        self._rand = random.Random(self._rand_seed)
        self._rand_calls = 0
        self._tx_counter = 0
        for session in list(self._tx_sessions):
            session._end()
        with self._mvcc_lock:
            self._active_views = {}
        self._recovered_lsn = 0
        self._recovered_dir = None
        self._recover_state(data_dir, strict=True)
        with self.catalog_lock:
            # the version must move strictly past its pre-crash value:
            # replay can land on the same number, and an in-flight
            # pipeline entry put() back after the restart would then
            # carry a key that still validates against the new catalog
            if self.schema_version <= old_schema_version:
                self.schema_version = old_schema_version + 1
        self.attach_wal(data_dir, sync_mode=sync_mode,
                        batch_commits=batch,
                        checkpoint_interval=interval)
        return self

    # -- group commit (the socket front end's durability hook) -------------

    def wal_synced_lsn(self):
        """Highest LSN known durable, or ``None`` with no WAL attached.

        The socket front end compares this against the commit frontier
        to decide whether an acknowledgement may go out yet."""
        wal = self._wal
        if wal is None or wal.closed:
            return None
        return wal.synced_lsn

    def wal_commit_frontier(self):
        """``(commit_count, last_lsn)`` — how many durability points the
        log has seen and where its frontier sits (``(0, 0)`` with no WAL
        attached).  The front end snapshots this around a batch of
        statements: if the commit count moved, the batch wrote, and its
        acks must wait for ``last_lsn`` to become durable."""
        wal = self._wal
        if wal is None or wal.closed:
            return (0, 0)
        return (wal.commits, wal.last_lsn)

    def wal_sync_to(self, lsn):
        """Group-commit flush: make everything up to *lsn* durable (one
        fsync shared by every commit below the horizon).  Returns
        ``True`` when an fsync actually ran, ``False`` when the horizon
        was already durable or no WAL is attached."""
        wal = self._wal
        if wal is None or wal.closed:
            return False
        return wal.sync_to(lsn)

    # -- WAL retention (replication pins) ---------------------------------

    def pin_lsn(self, name, provider):
        """Register a retention pin: *provider* is called before every
        checkpoint and returns the lowest LSN its holder still needs in
        the log (``None`` releases the pin for that round).  Replication
        registers one pin per replica set, returning the slowest
        replica's applied LSN."""
        self._lsn_pins[name] = provider

    def unpin_lsn(self, name):
        """Drop a retention pin (idempotent)."""
        self._lsn_pins.pop(name, None)

    def retention_low_water(self):
        """The lowest LSN any retention pin still needs, or ``None``
        when nothing is pinned.  Providers that raise release their pin
        for the round rather than wedging checkpoints forever."""
        lows = []
        for name in list(self._lsn_pins):
            provider = self._lsn_pins.get(name)
            if provider is None:
                continue
            low = provider()
            if low is not None:
                lows.append(low)
        return min(lows) if lows else None

    def checkpoint(self):
        """Write a full-state checkpoint and rotate the log.

        Skipped (returns ``None``) while any transaction is open — a
        checkpoint must capture a transaction-consistent snapshot — or
        while a retention pin (a lagging replica) still needs log
        records the rotation would truncate.  Returns the checkpoint
        LSN when written.

        The image and the LSN it covers are cut together, with the
        catalog held exclusively.  Every durable statement holds the
        catalog, shared or exclusive, from its execution through its
        log append, so at the cut none is between the two: each is in
        the image and at or below the cut, or in neither and appended
        after it, where the rotation keeps it.  So the caller must hold
        no statement lock; an automatic checkpoint waits for the
        statement that made it due to release its locks
        (:meth:`_note_commit_point`).  Only the cut is exclusive: the
        doublewrite batch, the image file, the rotation and the home
        writes run from bytes already encoded, with statements running
        again; on paged storage the catalog is taken once more to settle
        the pages the images hold (a page changed since stays dirty) and
        to re-list the pages the scrubber walks.
        """
        wal = self._wal
        if wal is None:
            raise WalError("no WAL attached")
        catalog = self.lock_manager.catalog
        with self._checkpoint_lock:
            catalog.acquire_write()
            try:
                if self._tx_sessions:
                    return None
                cut = wal.frontier()
                low_water = self.retention_low_water()
                if low_water is not None and low_water < cut[0]:
                    self.checkpoints_deferred += 1
                    return None
                with self.catalog_lock:
                    state = {
                        "tables": [
                            table.to_dict() for table in self.tables.values()
                        ],
                        "schema_version": self.schema_version,
                        "clock": self._clock_ticks,
                        "rand": self._rand_calls,
                        "seed": self._rand_seed,
                        "tx_counter": self._tx_counter,
                    }
                images = None
                store = self.page_store
                if store is not None:
                    # the page images are encoded here, so what follows
                    # the cut writes bytes no statement can change
                    images, taken = store.collect_images(lsn=cut[0])
                    state["pages"] = {
                        "page_size": store.pager.page_size,
                        "page_count": store.pager.page_count,
                        "freelist": sorted(store.pager.freelist),
                        "tables": {
                            name: table.store.pages_meta()
                            for name, table in self.tables.items()
                        },
                    }
            finally:
                catalog.release_write()
            if store is not None:
                # doublewrite-first checkpoint protocol: (1) every dirty
                # page image lands in the sealed doublewrite batch, (2)
                # the checkpoint JSON references the batch id, (3) only
                # then do the home writes start.  Recovery applies the
                # doublewrite copies over the home file exactly when the
                # sealed batch matches the JSON's — so whichever step a
                # crash tears, the home file reconstructs to a
                # consistent image.
                state["pages"]["batch"] = store.checkpoint_begin(images)
            lsn = wal.write_checkpoint(state, cut)
            if store is not None:
                store.checkpoint_finish(images)
                # with statements excluded again: a page changed after
                # the cut must stay dirty, and the scrub set's tree walk
                # goes through the buffer pool the statements share
                catalog.acquire_write()
                try:
                    store.settle(taken)
                    self._rebuild_scrub_set()
                finally:
                    catalog.release_write()
            self._commit_points_since_checkpoint = 0
        # GC rides the checkpoint: reclaim version chains and tombstones
        # no pinned read view can still need
        horizon = self.mvcc_horizon()
        with self.catalog_lock:
            for table in self.tables.values():
                table.vacuum(horizon)
        return lsn

    # -- paged storage -----------------------------------------------------

    def _rebuild_scrub_set(self):
        """Point the scrubber at every page reachable from the current
        table catalog.  Called after each checkpoint (and recovery) so
        the scan set only ever names pages the checkpoint references —
        freed or never-allocated pages are not scanned and cannot raise
        false alarms."""
        store = self.page_store
        if store is None:
            return
        with self.catalog_lock:
            scan = {}
            for name, table in self.tables.items():
                for page_no in table.store.pages():
                    scan[page_no] = name
        store.scrubber.set_scan_set(scan)

    def _wal_barrier(self):
        """Flush the WAL before a dirty page image leaves the buffer
        pool (steal).  The spill copy may embed effects of commits the
        log hasn't fsynced yet; forcing the log first preserves
        write-ahead ordering for the spill file."""
        wal = self._wal
        if wal is not None and wal.pending_unsynced_commits:
            wal.fsync()

    def _wal_tail_is_replayable(self):
        return self._wal is not None and self._recovered_dir is not None

    def _scrub_redo_repair(self, page_no, table_name):
        """Scrubber repair source of last resort before the replica
        list: rebuild *table_name* from checkpoint JSON + WAL redo in a
        scratch in-memory engine, then reload the live paged table from
        the recovered rows.  Returns True when the table was rebuilt
        and re-checkpointed (the quarantined page is freed or rewritten
        either way)."""
        if table_name is None or not self._wal_tail_is_replayable():
            return False
        if self._tx_sessions:
            # an open transaction means the WAL tail is still moving
            # and a checkpoint (step 2 of the repair) would be skipped
            return False
        # the scratch replay reads wal.log from disk — flush the
        # buffered tail first or the rebuild silently loses the
        # newest commits
        self._wal.fsync()
        data_dir = self._recovered_dir
        scratch = Database(name=self.name, seed=self._rand_seed,
                           cache_size=0)
        try:
            scratch._redo(data_dir, wal_mod.load_checkpoint(data_dir))
            source = scratch.tables.get(table_name)
            if source is None:
                return False
            rows = source.value_rows()
        except (SQLError, KeyError, TypeError, ValueError):
            return False
        return self._rebuild_table_from_rows(table_name, rows)

    def _rebuild_table_from_rows(self, table_name, rows):
        """Reload a live paged table from recovered *rows* and
        checkpoint so the new tree becomes the durable image.  Returns
        False (page stays quarantined, repair retried later) when the
        table is gone or the checkpoint was deferred."""
        with self.catalog_lock:
            table = self.tables.get(table_name)
        if table is None:
            return False
        table.load_rows(rows)
        # the old (corrupt) tree's pages were freed by load_rows; a
        # checkpoint makes the rebuilt tree the durable home image and
        # refreshes the scrub set so the quarantined page is forgotten
        lsn = self.checkpoint()
        return lsn is not None

    def register_page_repair_source(self, provider):
        """Install *provider(table_name) -> rows | None* (typically a
        caught-up replica's table snapshot) as a scrubber repair
        source, tried after doublewrite / clean frame / WAL redo.  It
        stays installed across :meth:`reopen`."""
        if self.page_store is None:
            raise WalError("page repair sources need paged storage")

        def _repair(page_no, table_name):
            if table_name is None:
                return False
            rows = provider(table_name)
            if rows is None:
                return False
            return self._rebuild_table_from_rows(table_name, rows)

        self._page_repair_sources.append(_repair)

    def scrub(self, ticks=1):
        """Advance the online scrubber by *ticks* virtual ticks; each
        tick verifies a bounded batch of cold pages.  Returns the
        number of new corruptions detected (0 without paged
        storage)."""
        if self.page_store is None:
            return 0
        return self.page_store.scrubber.tick(ticks)

    def storage_stats(self):
        """Buffer-pool / pager / scrubber counters, or ``None`` for the
        in-memory backend."""
        if self.page_store is None:
            return None
        return self.page_store.stats_dict()

    @property
    def durable_lsn(self):
        """LSN of the newest appended record (0 without a WAL)."""
        return 0 if self._wal is None else self._wal.last_lsn

    @property
    def wal(self):
        return self._wal

    def _lock_plan_for(self, stmt, prepared=None):
        """The statement's lock plan.

        When the *prepared* physical plan is passed, the result is
        memoized on it — the lock plan is deterministic per plan, and
        the AST walk is a measurable share of a warm query, so cached
        plans classify once, not per execution."""
        if prepared is None:
            return lock_plan(stmt)
        plan = prepared.lock_plan
        if plan is None:
            plan = prepared.lock_plan = lock_plan(stmt)
        return plan

    def _next_tx_id(self):
        with self._stats_lock:
            self._tx_counter += 1
            return self._tx_counter

    def _note_commit_point(self):
        """Count a durability point; every ``checkpoint_interval`` of
        them make a checkpoint due.  It is not written here: a commit
        point is often reached under a statement's locks (an autocommit
        statement's log append, the implicit COMMIT before DDL), and
        :meth:`checkpoint` takes the catalog exclusively — it runs from
        :meth:`_checkpoint_if_due` once they are released."""
        if not self.checkpoint_interval:
            return
        self._commit_points_since_checkpoint += 1
        if self._commit_points_since_checkpoint >= self.checkpoint_interval:
            self._checkpoint_due = True

    def _checkpoint_if_due(self):
        """Write the checkpoint a commit point made due (the caller
        holds no statement lock)."""
        if self._checkpoint_due:
            self._checkpoint_due = False
            self.checkpoint()  # stays pending while a tx is open

    def _wal_prepare(self, stmt, values):
        """Pre-execution capture for a statement that must be logged:
        its canonical SQL (the execution's *values* written into their
        slots) plus the clock/RNG position, so replay recalls
        ``NOW()``/``RAND()`` bit-identically.  Only for the statements
        the WAL persists (the caller checks ``_DURABLE_STATEMENTS``)."""
        sql_text = to_sql(stmt, values)
        with self._clock_lock:
            return (sql_text, self._clock_ticks, self._rand_calls)

    def _wal_log(self, wal_state, session, failed):
        wal = self._wal
        if wal is None:
            return
        sql_text, clock, rand = wal_state
        tx = session.tx_id
        durable = tx == 0  # autocommit: the statement is its own commit
        wal.append(wal_mod.WalRecord.STMT, tx=tx, sql=sql_text,
                   clock=clock, rand=rand, failed=failed,
                   durability_point=durable)
        if durable:
            self._note_commit_point()

    # -- recovery (the redo path) -----------------------------------------

    def _recover_state(self, data_dir, strict=True):
        # lock state is volatile: a restart leaves no holder alive, so
        # recovery starts from a fresh hierarchy (reopen() relies on
        # this — a lock held at crash time must not survive the bounce)
        self.lock_manager = LockManager()
        os.makedirs(data_dir, exist_ok=True)
        checkpoint = wal_mod.load_checkpoint(data_dir)
        pages_report = None
        self._pages_rebuilt = []
        if self.storage == "paged":
            from repro.sqldb import btree as btree_mod
            from repro.sqldb import pager as pager_mod
            self.page_store = pager_mod.PageStore(
                data_dir, page_size=self.page_size,
                pool_pages=self.pool_pages,
                encoder=btree_mod.encode_node,
                decoder=btree_mod.decode_node,
            )
            self.page_store.scrubber.redo_source = self._scrub_redo_repair
            self.page_store.scrubber.replica_sources = \
                self._page_repair_sources
            self.page_store.pool.wal_barrier = self._wal_barrier
            pages_state = (checkpoint or {}).get("pages") or {}
            self.page_store.restore_allocation(pages_state)
            # torn-write repair: the sealed doublewrite batch overwrites
            # the home copies iff its id is the one this checkpoint
            # references (see Database.checkpoint for the protocol)
            applied, torn = self.page_store.pager.recover_home(
                pages_state.get("batch", 0)
            )
            # the spill file is volatile steal state — ignore whatever
            # a crash left in it
            self.page_store.pager.clear_spill()
            pages_report = {
                "dw_applied": applied,
                "torn_repaired": torn,
                "page_count": self.page_store.pager.page_count,
            }
        applied_lsn, scan, _, replayed, corruption = self._redo(
            data_dir, checkpoint)
        self._recovered_dir = data_dir
        if scan.torn_bytes:
            # a torn tail is the normal crash artifact: cut it off
            wal_mod.truncate_log(scan.path, scan.clean_offset)
        self.recovery_report = {
            "checkpoint_lsn": applied_lsn,
            "log_records": scan.records_seen,
            "replayed_statements": replayed,
            "torn_bytes": scan.torn_bytes,
            "corrupt": corruption is not None,
        }
        if pages_report is not None:
            pages_report["rebuilt_tables"] = list(self._pages_rebuilt)
            self.recovery_report["pages"] = pages_report
            self._rebuild_scrub_set()
        if corruption is not None:
            if strict:
                corruption.database = self
                raise corruption
            # salvage mode: keep the clean prefix, drop the damage
            wal_mod.truncate_log(scan.path, scan.clean_offset)
        return self

    def _redo(self, data_dir, checkpoint):
        """The one redo pass recovery, the dry-run audit and scrub
        repair share: restore *checkpoint* (``None``: start empty),
        replay every *committed* unit the log of *data_dir* holds above
        the checkpoint LSN, then open the recovery epoch.

        A unit is either one autocommit statement record or the
        statement records of a transaction closed by a commit marker;
        units apply in commit-LSN order, each as soon as its closing
        record streams by, so memory holds only the statements of
        still-open transactions, never the whole log.  Rolled-back and
        unfinished transactions contribute nothing.  Units at or below
        the checkpoint LSN were already captured by the checkpoint and
        are skipped — this is what makes double replay idempotent.

        Mid-log corruption ends the pass at the clean prefix and is
        handed back, not raised.  Returns ``(checkpoint_lsn, stream,
        units, replayed, corruption)`` — the drained
        :class:`~repro.sqldb.wal.LogStream`, the
        :class:`~repro.sqldb.wal.CommitGrouper` it fed, the number of
        statements redone."""
        applied_lsn = 0
        if checkpoint is not None:
            applied_lsn = self._restore_checkpoint(checkpoint)
        stream = wal_mod.LogStream(wal_mod.log_path(data_dir))
        units = wal_mod.CommitGrouper()
        replayed = 0
        corruption = None
        try:
            for rec in stream:
                unit = units.feed(rec)
                if unit is not None and rec.lsn > applied_lsn:
                    for held in unit:
                        self._replay_statement(held)
                    replayed += len(unit)
        except WalCorruptionError as exc:
            corruption = exc
        self._recovered_lsn = max(applied_lsn, stream.last_lsn)
        self._finish_recovery()
        return applied_lsn, stream, units, replayed, corruption

    def _restore_checkpoint(self, body):
        try:
            tables = {}
            pages_meta = {}
            if self.page_store is not None:
                pages_meta = (body.get("pages") or {}).get("tables", {})
            for data in body.get("tables", []):
                table = self._open_table(data,
                                         pages_meta.get(data["name"]))
                tables[table.name] = table
        except (KeyError, TypeError, ValueError) as exc:
            raise WalCorruptionError(
                "checkpoint table snapshot is malformed (%s: %s)"
                % (type(exc).__name__, exc)
            )
        with self.catalog_lock:
            self.tables = tables
            self.schema_version = body.get("schema_version", 0)
        self._clock_ticks = body.get("clock", 0)
        self._rand_seed = body.get("seed", self._rand_seed)
        self._rand = random.Random(self._rand_seed)
        self._rand_calls = 0
        self._fast_forward_rand(body.get("rand", 0))
        self._tx_counter = body.get("tx_counter", 0)
        return body.get("lsn", 0)

    def _open_table(self, data, pages_meta):
        """One checkpointed table, back in a row store.

        With page metadata the existing tree is adopted and verified
        page-by-page; a checksum failure anywhere falls back to
        rebuilding the tree from the checkpoint's logical rows (the
        corrupt tree's pages are abandoned — they are absent from the
        rebuilt scrub set, so they never alarm again).  Without
        metadata (memory storage, or a pre-paged checkpoint) the rows
        are loaded fresh."""
        if pages_meta is not None:
            store = self._row_store(pages_meta)
            try:
                store.verify_scan()
                return Table.from_dict(data, store, adopt=True)
            except PageCorruptionError as exc:
                self._pages_rebuilt.append((data["name"], exc.page_no))
        return Table.from_dict(data, self._row_store())

    def _fast_forward_rand(self, draws):
        while self._rand_calls < draws:
            self._rand.random()
            self._rand_calls += 1

    def _replay_statement(self, rec):
        """Re-execute one logged statement deterministically.

        Bypasses SEPTIC (the statement already passed the hook when it
        was first executed and logged) and the WAL itself (no WAL is
        attached during recovery).
        """
        self._clock_ticks = rec.clock
        self._fast_forward_rand(rec.rand)
        stmt = _REPLAY_PARSE_MEMO.get(rec.sql)
        if stmt is None:
            try:
                statements, _comments = parse_sql(rec.sql)
            except SQLError as exc:
                raise WalError(
                    "WAL record %d holds unparseable SQL (%s)"
                    % (rec.lsn, exc)
                )
            if len(statements) != 1:
                raise WalError(
                    "WAL record %d does not hold exactly one statement"
                    % rec.lsn
                )
            stmt = statements[0]
            if len(_REPLAY_PARSE_MEMO) < 4096:
                _REPLAY_PARSE_MEMO[rec.sql] = stmt
        try:
            # a failed statement this version logged was taken back; one
            # an earlier version logged kept what it wrote before failing
            self._executor.execute(stmt, session=self._default_session,
                                   keep_partial=rec.failed and not rec.undone)
        except ExecutionError as exc:
            if not rec.failed:
                raise WalError(
                    "replay of LSN %d diverged: original succeeded, "
                    "replay raised %s" % (rec.lsn, exc)
                )
        else:
            if rec.failed:
                raise WalError(
                    "replay of LSN %d diverged: original failed, "
                    "replay succeeded" % rec.lsn
                )

    def redo_apply(self, rec):
        """Apply one shipped WAL record through the redo path.

        The replication apply loop's only mutation entry point (a lint
        gate enforces that): identical semantics to recovery replay —
        deterministic clock/RNG restore, SEPTIC bypassed (the statement
        already passed the hook on the primary), the local WAL untouched
        (the applier persists shipped records verbatim itself, keeping
        the primary's LSNs).
        """
        self._replay_statement(rec)

    def note_applied_lsn(self, lsn):
        """Advance the recovered-LSN watermark after a replica applied
        shipped records up to *lsn* (promotion and MVCC stamps stay
        monotone with the primary's log)."""
        if lsn > self._recovered_lsn:
            self._recovered_lsn = lsn
        with self._mvcc_lock:
            self._commit_stamp = max(self._commit_stamp, lsn)

    @classmethod
    def verify_wal(cls, data_dir, name="repro", seed=1):
        """Dry-run recovery: replay *data_dir*'s history into a
        throwaway in-memory database and report on it **without
        mutating anything on disk** — no WAL attach, no torn-tail
        truncation, no checkpoint.

        Returns a report dict: the checkpoint LSN, record counts by
        kind, the commit-LSN watermark (newest durability point —
        everything a client was ever acknowledged about), committed /
        rolled-back / unfinished transaction counts, torn bytes, and
        per-table row counts of the verified state.  Mid-log corruption
        is reported (``corrupt_offset``) rather than raised: the clean
        prefix is still verified.

        The log is consumed through one streaming pass (:meth:`_redo`),
        so the file is never held in memory whole.
        """
        db = cls(name=name, seed=seed, cache_size=0)
        applied_lsn, stream, units, replayed, corruption = db._redo(
            data_dir, wal_mod.load_checkpoint(data_dir))
        return {
            "data_dir": data_dir,
            "checkpoint_lsn": applied_lsn,
            "log_records": stream.records_seen,
            "records_by_op": stream.ops,
            "commit_lsn": max(applied_lsn, units.commit_lsn),
            "last_lsn": db._recovered_lsn,
            "replayed_statements": replayed,
            "committed_transactions": units.committed,
            "rolled_back_transactions": units.rolled_back,
            "unfinished_transactions": len(units.open_tx),
            "torn_bytes": stream.torn_bytes,
            "corrupt_offset": (None if corruption is None
                               else corruption.offset),
            "tables": {
                tname: len(db.tables[tname])
                for tname in sorted(db.tables)
            },
        }

    def _finish_recovery(self):
        """Recovery epoch: no pipeline-cache entry from before the
        restart may validate against the recovered catalog, so the
        schema version moves past everything replay produced and the
        cache is emptied outright.  Redo rebuilds the *newest* version
        only — replay ran single-session, so the version chains it
        accumulated carry no information a reader could need — and the
        commit counter moves past every recovered LSN so post-recovery
        stamps stay monotone with the log."""
        with self.catalog_lock:
            self.schema_version += 1
            for table in self.tables.values():
                table.reset_mvcc()
        with self._mvcc_lock:
            self._commit_stamp = max(self._commit_stamp,
                                     self._recovered_lsn)
        if self.pipeline_cache is not None:
            self.pipeline_cache.clear()

    # -- query pipeline --------------------------------------------------------

    def run(self, sql, multi=False, charset=None, session=None):
        """Run *sql* through the full pipeline.

        Returns a list of :class:`repro.sqldb.executor.ExecutionResult`,
        one per statement (empty for comment-only/empty input).  With
        ``multi=False`` (the default, matching ``mysql_query``) more than
        one statement raises :class:`MultiStatementError` — the classic
        reason piggy-backed injection fails against the PHP ``mysql_*``
        API.  *session* scopes transaction/LAST_INSERT_ID state; the
        database's default session is used when omitted.
        """
        results, error = self.run_partial(sql, multi=multi, charset=charset,
                                          session=session)
        if error is not None:
            raise error
        return results

    def run_partial(self, sql, multi=False, charset=None, session=None):
        """Like :meth:`run`, but with defined partial-failure semantics.

        Returns ``(results, error)``: the results of every statement
        that executed, plus the :class:`SQLError` (or ``None``) that
        stopped the script.  Execution stops at the first failing
        statement — the ``mysqli_multi_query`` contract — and already
        executed statements stay applied (their effects are the
        session's/transaction's business, not this method's).  Any
        non-SQL exception out of the pipeline machinery is wrapped into
        a :class:`TransientEngineError`, so callers only ever see
        ``SQLError``.
        """
        if session is None:
            session = self._default_session
        effective_charset = charset or session.charset
        cache = self.pipeline_cache
        try:
            if cache is not None:
                # a warm text costs this one lookup
                bound = cache.resolve(effective_charset, sql,
                                      self.schema_version, _build_entry,
                                      _decode)
            else:
                decoded = _decode(sql, effective_charset)
                entry, values, _shared = _build_entry(
                    decoded, tokenize(decoded), False)
                bound = TextBinding(entry, values, decoded)
        except SQLError as exc:
            return [], exc
        except Exception as exc:
            return [], TransientEngineError(
                "engine fault while preparing query (%s: %s)"
                % (type(exc).__name__, exc)
            )
        entry = bound.entry
        if len(entry.statements) > 1 and not multi:
            return [], MultiStatementError(
                "You have an error in your SQL syntax near ';' "
                "(multi-statements are disabled on this connection)"
            )
        # stacks are memoized for single-statement entries only: a
        # multi-statement script may create tables its later statements
        # need, so those validate per execution, mid-script
        memo_entry = (
            entry if cache is not None and entry.single_statement else None
        )
        results = []
        for stmt in entry.statements:
            try:
                results.append(
                    self._run_statement(
                        bound.decoded, stmt, entry.comments,
                        session=session, entry=memo_entry,
                        values=bound.values,
                    )
                )
            except SQLError as exc:
                return results, exc
            except Exception as exc:
                return results, TransientEngineError(
                    "engine fault during execution (%s: %s)"
                    % (type(exc).__name__, exc)
                )
        return results, None

    def run_statement(self, statement, comments=(), session=None,
                      entry=None, values=()):
        """Run an already-parsed statement through validation, the SEPTIC
        hook and execution (the prepared-statement execute path), with
        *values* in its ``Param`` slots.

        *entry* may carry the statement's
        :class:`~repro.sqldb.cache.CacheEntry` (a prepared statement
        keeps one per parameter type signature): its memoized stack,
        SEPTIC products and physical plan are then reused, so a hot
        execute skips validation and planning the same way a hot literal
        query does.  The text the events quote is rendered from
        statement and values if an event needs it.
        """
        return self._run_statement(None, statement, list(comments),
                                   session=session, entry=entry,
                                   values=values)

    def _run_statement(self, decoded_sql, stmt, comments, session=None,
                       entry=None, values=()):
        if session is None:
            session = self._default_session
        # received, SEPTIC's time and executed move together, once, when
        # the statement is done (blocked and failed statements included)
        septic_seconds = 0.0
        executed = False
        try:
            stack = entry.stack if entry is not None else None
            if stack is None:
                slot_tags = entry.slot_tags if entry is not None else ()
                with self.catalog_lock:
                    stack = validate(stmt, self.tables, slot_tags)
                if entry is not None:
                    entry.stack = stack
            if self.septic is not None and stack:
                memo = entry.septic_memo if entry is not None else None
                context = QueryContext(decoded_sql, stmt, stack, comments,
                                       self, memo=memo, values=values)
                start = time.perf_counter()
                try:
                    self.septic.process_query(context)
                except QueryBlocked:
                    raise
                except Exception as exc:
                    # a hook that crashes (rather than blocking) fails
                    # closed: fail-open is the Septic object's own
                    # FailPolicy.OPEN
                    raise ExecutionError(
                        "internal protection error, query not executed "
                        "(%s: %s)" % (type(exc).__name__, exc)
                    )
                finally:
                    septic_seconds = time.perf_counter() - start
            # injected faults fire *before* execution: a statement the
            # fault kills never ran, so it must never reach the WAL either
            try:
                if faults_mod.ACTIVE is not None:
                    faults_mod.fire("executor.step")
            except SQLError:
                raise
            except Exception as exc:
                raise TransientEngineError(
                    "engine fault during execution (%s: %s)"
                    % (type(exc).__name__, exc)
                )
            # plan before locking: the physical plan decides which tables
            # the statement holds (a plan not cached yet is made under
            # the short catalog guard, not the statement locks)
            try:
                prepared = self._executor.prepare(stmt, entry=entry)
            except SQLError:
                raise
            except Exception as exc:
                raise TransientEngineError(
                    "engine fault during planning (%s: %s)"
                    % (type(exc).__name__, exc)
                )
            plan = self._lock_plan_for(stmt, prepared=prepared)
            if plan is not None:
                self.lock_manager.acquire(plan)
            try:
                wal_state = None
                if wal_mod.ATTACHED and self._wal is not None \
                        and isinstance(stmt, _DURABLE_STATEMENTS):
                    wal_state = self._wal_prepare(stmt, values)
                try:
                    result = self._executor.execute(
                        stmt, session=session, prepared=prepared,
                        params=values,
                    )
                except ExecutionError:
                    # the statement failed, and what it wrote was taken
                    # back: log it as failed so that replay checks it
                    # fails the same way
                    if wal_state is not None:
                        self._wal_log(wal_state, session, failed=True)
                    raise
                except SQLError:
                    raise
                except Exception as exc:
                    raise TransientEngineError(
                        "engine fault during execution (%s: %s)"
                        % (type(exc).__name__, exc)
                    )
                if wal_state is not None:
                    self._wal_log(wal_state, session, failed=False)
            finally:
                if plan is not None:
                    self.lock_manager.release(plan)
                if self._checkpoint_due:
                    # a checkpoint this statement's commit point made due
                    # runs now, failed statement or not
                    self._checkpoint_if_due()
            executed = True
        finally:
            with self._stats_lock:
                self.statements_received += 1
                self.septic_seconds_total += septic_seconds
                if executed:
                    self.statements_executed += 1
        if result.last_insert_id is not None:
            session.last_insert_id = result.last_insert_id
        return result

    # -- convenience -------------------------------------------------------------

    def seed(self, script):
        """Run a multi-statement SQL script (DDL + seed data), bypassing
        nothing: every statement goes through the normal pipeline."""
        return self.run(script, multi=True)
