"""Storage engine: one :class:`Table` over a row store; result sets.

The module is split along one line: *what a row version means* versus
*where a row image lives*.

:class:`Table` owns everything about meaning — schema, auto-increment,
version chains, tombstones, snapshot visibility, first-writer-wins,
commit sealing, rollback (undo by rowid), vacuum, secondary indexes,
uniqueness and the checkpoint form.  It exists once, for every backend.
Its write primitives (:meth:`Table.insert`, :meth:`~Table.update_rows`,
:meth:`~Table.delete_rows`) make every first-writer-wins and PK/UNIQUE
check themselves; nothing above this module makes one.

A **row store** owns placement and nothing else: append / replace /
remove / get / revert by rowid, iteration of the latest state in rowid
order, ``clear`` and ``len``.  :class:`MemoryRows` keeps the images in a
Python list; :class:`PagedRows` keeps them in B-tree pages behind the
buffer pool.  The engine hands a table its store
(``Database(storage=...)`` decides which); nothing above this module
can tell them apart.

The **rowid** is the one row identity: assigned once at insert,
monotone (rowid order == insertion order == scan order), carried by
every image of the row (:class:`~repro.sqldb.btree.Row`) *beside* its
columns.  Version metadata, index buckets and a transaction's undo are
all keyed by it, so a row re-read from a page after an eviction — a
different dict object — still finds its history.

Rows are **multiversioned**.  A mutation never edits a stored image in
place: UPDATE installs a fresh image and chains the superseded one
behind it (:class:`_RowVersion`), DELETE leaves a :class:`_Tombstone`,
and both stay *pending* — owned by a :class:`WriteTxn`, invisible to
snapshot readers — until the transaction seals them with a commit
stamp (:func:`seal_txn`) or takes them back (:func:`undo_txn`).
Readers carry a :class:`ReadView` through :meth:`Table.iter_rows` /
:meth:`index_lookup_iter` / :meth:`index_range_iter`; ``view=None``
reads the latest state, which is what the DML path works on.

Secondary indexes (:class:`_ColumnIndex`) bucket **rowids** by
:func:`repro.sqldb.types.sort_key` — the comparison engine's own total
order, so one structure serves equality probes and bisect range scans —
and are maintained **incrementally**: every mutation through the Table
API applies a per-row delta.  ``Table.version`` is the consistency
check: an index whose version lags (something reshaped the rows behind
the API's back — ALTER TABLE, :meth:`Table.touch`) rebuilds on next
use, and ``index_stats()['rebuilds']`` makes that observable.
"""

import operator
import sys
from bisect import bisect_left, bisect_right, insort
from itertools import accumulate

from repro.sqldb.btree import BTree, Row
from repro.sqldb.errors import ExecutionError, WriteConflictError
from repro.sqldb.types import sort_key, store_convert


class Column(object):
    """Schema of one column."""

    __slots__ = (
        "name", "type_name", "length", "not_null", "primary_key",
        "auto_increment", "default", "unique",
    )

    def __init__(self, name, type_name, length=None, not_null=False,
                 primary_key=False, auto_increment=False, default=None,
                 unique=False):
        self.name = name.lower()
        self.type_name = type_name.upper()
        self.length = length
        self.not_null = not_null
        self.primary_key = primary_key
        self.auto_increment = auto_increment
        self.default = default
        self.unique = unique

    def __repr__(self):
        return "Column(%r, %r)" % (self.name, self.type_name)

    # -- durability (checkpoint snapshots) --------------------------------

    def to_dict(self):
        return {
            "name": self.name,
            "type_name": self.type_name,
            "length": self.length,
            "not_null": self.not_null,
            "primary_key": self.primary_key,
            "auto_increment": self.auto_increment,
            "default": self.default,
            "unique": self.unique,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["name"],
            data["type_name"],
            length=data.get("length"),
            not_null=data.get("not_null", False),
            primary_key=data.get("primary_key", False),
            auto_increment=data.get("auto_increment", False),
            default=data.get("default"),
            unique=data.get("unique", False),
        )


#: the sort_key bucket NULLs land in — range scans must skip it (SQL
#: range predicates never match NULL)
_NULL_KEY = sort_key(None)


class _ColumnIndex(object):
    """One incrementally-maintained index over one column.

    ``map`` buckets **rowids** by :func:`sort_key`, each bucket in
    ascending rowid order (so an index probe returns rows in the order a
    filtered scan would, whatever history built the bucket);
    ``sorted_keys`` keeps the distinct keys ordered for bisect range
    scans.  ``version`` must equal the owning table's version for the
    index to be trusted.
    """

    __slots__ = ("column", "version", "map", "sorted_keys")

    def __init__(self, column):
        self.column = column
        self.version = -1
        self.map = {}
        self.sorted_keys = []

    def build(self, rows, version):
        self.map = {}
        self.sorted_keys = []
        for row in rows:
            self.add(row)
        self.version = version

    def add(self, row):
        key = sort_key(row.get(self.column))
        bucket = self.map.get(key)
        if bucket is None:
            self.map[key] = [row.rowid]
            insort(self.sorted_keys, key)
        else:
            insort(bucket, row.rowid)

    def remove(self, row):
        key = sort_key(row.get(self.column))
        bucket = self.map.get(key)
        if bucket is None:
            return
        where = bisect_left(bucket, row.rowid)
        if where < len(bucket) and bucket[where] == row.rowid:
            del bucket[where]
        if not bucket:
            del self.map[key]
            where = bisect_left(self.sorted_keys, key)
            if (where < len(self.sorted_keys)
                    and self.sorted_keys[where] == key):
                del self.sorted_keys[where]

    def replace(self, old_row, new_row):
        """Re-bucket a row whose image changed (same rowid)."""
        if sort_key(old_row.get(self.column)) \
                != sort_key(new_row.get(self.column)):
            self.remove(old_row)
            self.add(new_row)


class ReadView(object):
    """A snapshot-isolation read position.

    ``watermark`` is the commit stamp the reader pinned at statement (or
    transaction) start: versions sealed at or below it are visible,
    anything newer or still pending is not.  ``txn`` is set when the
    reader *is* an open transaction, so it additionally sees its own
    pending writes (and not its own pending deletes).
    """

    __slots__ = ("watermark", "txn")

    def __init__(self, watermark, txn=None):
        self.watermark = watermark
        self.txn = txn

    def __repr__(self):
        return "ReadView(%d%s)" % (self.watermark,
                                   ", txn" if self.txn is not None else "")


class WriteTxn(object):
    """Pending-version bookkeeping for one writer.

    One instance covers either a single autocommit statement (sealed by
    the executor when the statement finishes) or a whole explicit
    transaction (sealed by ``Session.commit`` with the WAL commit LSN,
    undone by ``Session.rollback``) — its entries are the whole
    description of what the transaction changed.
    ``read_stamp`` is the transaction's snapshot watermark and drives
    first-writer-wins detection; autocommit statements leave it ``None``
    (they read latest state, so only *pending* versions can conflict).
    """

    __slots__ = ("read_stamp", "entries", "sealed")

    def __init__(self, read_stamp=None):
        self.read_stamp = read_stamp
        #: (table, kind, payload, auto): kind "write" carries the pending
        #: row image (an insert when nothing committed sits behind it,
        #: else an update), kind "delete" carries the _Tombstone; *auto*
        #: is an insert's AUTO_INCREMENT mark (see :meth:`Table.undo`).
        self.entries = []
        self.sealed = False

    def record(self, table, kind, payload, auto=None):
        self.entries.append((table, kind, payload, auto))


class _RowVersion(object):
    """One superseded committed row image: immutable once chained."""

    __slots__ = ("row", "begin", "prior")

    def __init__(self, row, begin, prior):
        self.row = row
        self.begin = begin
        self.prior = prior


class _RowMeta(object):
    """Version metadata for the *current* image of one rowid.

    Rows without a meta entry are settled rows: committed before any
    tracked history, visible at every watermark.  ``begin`` is the
    commit stamp (``None`` while pending), ``owner`` the pending
    :class:`WriteTxn` (``None`` once sealed), ``prior`` the chain of
    superseded :class:`_RowVersion` images.
    """

    __slots__ = ("begin", "owner", "prior")

    def __init__(self, begin, owner, prior):
        self.begin = begin
        self.owner = owner
        self.prior = prior


class _Tombstone(object):
    """A deleted row kept visible to older snapshots.

    ``row``/``begin``/``prior`` describe the deleted version chain just
    like a meta; ``end`` is the deletion stamp (``None`` while the
    delete is pending under ``owner``).  ``epoch`` is the table's
    delete epoch when the row left the latest state — what lets a scan
    that overlaps the delete count the row exactly once (see
    :meth:`Table._iter_visible`).
    """

    __slots__ = ("row", "begin", "prior", "end", "owner", "epoch")

    def __init__(self, row, begin, prior, end, owner, epoch):
        self.row = row
        self.begin = begin
        self.prior = prior
        self.end = end
        self.owner = owner
        self.epoch = epoch


def _committed_behind(meta):
    """The last committed version behind a pending meta or tombstone —
    what its transaction's ROLLBACK brings back (the tombstone itself
    when it buried a committed row) — or ``None`` when the transaction
    created the row."""
    if meta.__class__ is _Tombstone and meta.begin is not None:
        return meta
    return meta.prior


def seal_txn(txn, stamp, collect=False):
    """Commit every pending version *txn* installed, stamping it with
    *stamp*.  With ``collect=True`` (no read view can need history) the
    sealed metadata is dropped on the spot: rows settle back into
    always-visible state and resolved tombstones disappear.

    The caller (``Database._seal_txn``) holds the engine's MVCC lock and
    publishes the commit counter only after this returns, so a reader
    can never pin a watermark >= *stamp* while the stamps are half
    applied."""
    for table, kind, payload, _ in txn.entries:
        table._seal_entry(txn, kind, payload, stamp, collect)
    txn.entries = []
    txn.sealed = True


def undo_txn(txn, since=0):
    """Take back the pending versions *txn* installed from its entry
    *since* on, newest first: all of them at ROLLBACK, one failed
    statement's (*since* is where it began) otherwise.  Only the
    transaction's own entries are visited, each by rowid: what other
    sessions committed or have pending is not read, let alone written.
    A rowid the transaction wrote before *since* goes back to that
    version, still pending; any other goes back to its last committed
    state.  No other writer and no reader overlaps the undo: ROLLBACK
    holds the catalog exclusively, a failed statement its table lock
    with every read view closed (``Database._undo_statement``)."""
    entries = txn.entries
    earlier = {}
    for table, kind, payload, _ in entries[:since]:
        if kind == "write":
            earlier[table, payload.rowid] = payload
        else:
            earlier.pop((table, payload.row.rowid), None)
    for table, kind, payload, auto in reversed(entries[since:]):
        rowid = payload.rowid if kind == "write" else payload.row.rowid
        table.undo(txn, kind, payload, auto, earlier.get((table, rowid)))
    del entries[since:]


def _implicit_default(col):
    """What a NOT NULL column stores when handed NULL (MySQL's
    non-strict mode): the type's zero value."""
    if col.type_name in ("VARCHAR", "TEXT", "CHAR"):
        return ""
    if col.type_name in ("DATETIME", "DATE"):
        return "0000-00-00 00:00:00"
    return 0


def _duplicate_entry(value, column_name):
    """MySQL's errno 1062 for *value* already held in a PK/UNIQUE
    column."""
    return ExecutionError(
        "Duplicate entry '%s' for key '%s'" % (value, column_name),
        errno=1062,
    )


def _absent_value(col):
    """What a row stores in *col* when nothing supplied a value: the
    declared DEFAULT, else the implicit default of a NOT NULL column,
    else NULL.  INSERT and ALTER TABLE ADD COLUMN both fill from here."""
    if col.default is not None:
        return store_convert(col.default, col.type_name, col.length)
    return _implicit_default(col) if col.not_null else None


class Table(object):
    """One table: schema, row versions, indexes and uniqueness over a
    row store (``store``) that only knows where row images live."""

    def __init__(self, name, columns, store=None):
        self.name = name.lower()
        self.columns = columns
        self._by_name = {col.name: col for col in columns}
        if len(self._by_name) != len(columns):
            raise ExecutionError("Duplicate column name in table %r" % name)
        self.store = MemoryRows() if store is None else store
        self._auto_counter = 0
        #: rowid of the newest insert: while it is still a transaction's
        #: to undo, undoing it may rewind the counter (:meth:`undo`)
        self._auto_tip = None
        #: secondary indexes: index name -> column name
        self.indexes = {}
        #: bumped on every mutation; acts as the index consistency check
        self.version = 0
        #: column -> _ColumnIndex, maintained incrementally
        self._index_cache = {}
        self._index_stats = {
            "rebuilds": 0, "incremental": 0,
            "lookups": 0, "range_lookups": 0,
        }
        #: rowid -> _RowMeta (a live row with tracked history) or
        #: _Tombstone (a deleted row older snapshots may still see)
        self._meta = {}
        #: the tombstones, oldest first; only ever rebound or shrunk in
        #: place, never appended to, so an overlapping scan walks a
        #: complete statement's worth or none of it
        self._tombstones = []
        #: bumped once per statement that removes rows
        self._delete_epoch = 0
        #: rowid -> pending meta of an open transaction's UPDATE that
        #: moved a PK/UNIQUE value away from the committed image behind
        #: it; that image holds its keys until the transaction ends
        self._moved_keys = {}

    def has_column(self, name):
        return name.lower() in self._by_name

    def column(self, name):
        return self._by_name[name.lower()]

    def column_names(self):
        return [col.name for col in self.columns]

    @property
    def rows(self):
        """The latest-state row images as a list (inspection and tests;
        scans stream through :meth:`iter_rows`)."""
        return list(self.store.rows())

    # -- mutation API (keeps live indexes in lockstep) --------------------

    def _apply_delta(self, delta):
        """Bump the version and apply *delta* to every index that was
        current; stale ones stay stale and rebuild on next use."""
        old_version = self.version
        self.version += 1
        for index in self._index_cache.values():
            if index.version == old_version:
                delta(index)
                index.version = self.version
                self._index_stats["incremental"] += 1

    def _build_insert_row(self, values):
        """Materialize the stored image for an INSERT: type conversion
        (including silent VARCHAR truncation), auto-increment, defaults
        and NOT NULL backfills.  Returns ``(row, used_auto)``."""
        row = Row()
        used_auto = None
        for col in self.columns:
            value = None
            if col.name in values:
                value = store_convert(
                    values[col.name], col.type_name, col.length
                )
            elif not col.auto_increment:
                value = _absent_value(col)
            if value is None and col.auto_increment:
                self._auto_counter += 1
                value = self._auto_counter
                used_auto = value
            if value is None and col.not_null:
                value = _implicit_default(col)
            row[col.name] = value
            if col.auto_increment and isinstance(value, int):
                self._auto_counter = max(self._auto_counter, value)
        return row, used_auto

    def insert(self, values, txn=None):
        """Insert a row from a ``{column: value}`` mapping.

        Applies type conversion (including silent VARCHAR truncation),
        auto-increment, defaults, NOT NULL and the key rule
        (:meth:`_check_keys`).  With *txn* the row starts as a pending
        version, invisible to snapshot readers until the transaction
        seals.  Returns the auto-increment id used (or ``None``).
        """
        mark = (self._auto_counter, self._auto_tip)
        row, used_auto = self._build_insert_row(values)
        self._check_keys(row, txn)
        row.rowid = self._auto_tip = self.store.new_rowid()
        # publish the pending metadata BEFORE the row becomes reachable:
        # a lock-free reader that catches the append must already find
        # the meta that marks it invisible
        if txn is not None:
            self._meta[row.rowid] = _RowMeta(None, txn, None)
            txn.record(self, "write", row, mark)
        self.store.append(row, pending=txn is not None)
        self._apply_delta(lambda index: index.add(row))
        return used_auto

    def check_write(self, row, txn):
        """First-writer-wins gate: raise :class:`WriteConflictError` if
        *row* carries a pending version owned by another transaction, or
        — for snapshot transactions — a version that committed after the
        transaction's read stamp (a lost update in the making).  The
        write primitives run it over every target before they change
        any; what a statement wrote before it met a conflict, its
        statement rollback takes back, so the retry never double-applies."""
        meta = self._meta.get(row.rowid)
        if meta is None:
            return
        if meta.owner is not None:
            if txn is None or meta.owner is not txn:
                raise WriteConflictError(
                    "Write conflict on table '%s': row has an uncommitted "
                    "version from another transaction; retry" % self.name
                )
        elif (txn is not None and txn.read_stamp is not None
                and meta.begin is not None
                and meta.begin > txn.read_stamp):
            raise WriteConflictError(
                "Write conflict on table '%s': row changed after this "
                "transaction's snapshot (first writer wins); retry"
                % self.name
            )

    def _current(self, row):
        """The stored image of *row*'s rowid (``None`` once deleted)."""
        rowid = getattr(row, "rowid", None)
        return None if rowid is None else self.store.get(rowid)

    def update_rows(self, changes, txn=None):
        """Install a new version of each row in *changes*, a list of
        ``(row, {column: value})`` in the order the statement applies
        them; any image of a row names it.  The values are converted to
        storage form, and a row they leave as it was gets no version.

        Every check runs before the first row changes: first-writer-wins
        over every target (:meth:`check_write`), then the key rule
        (:meth:`_check_keys`) over the PK/UNIQUE values the targets
        change.  As in InnoDB, each new image is checked against the
        latest state with the earlier targets' new images in place: a
        key an earlier target left is free, one it took is taken — so
        ``SET id = id + 1`` over ascending ids collides where ``ORDER
        BY id DESC`` does not.  Returns the new images."""
        deltas = []
        for row, updates in changes:
            current = self._current(row)
            if current is None:
                raise ExecutionError(
                    "row is not stored in table '%s'" % self.name
                )
            self.check_write(current, txn)
            stored = {}
            for name, value in updates.items():
                col = self._by_name.get(name.lower())
                if col is None:
                    raise ExecutionError(
                        "Unknown column '%s' in 'field list'" % name,
                        errno=1054,
                    )
                stored[col.name] = store_convert(value, col.type_name,
                                                 col.length)
            delta = {name: value for name, value in stored.items()
                     if current.get(name) != value}
            if delta:
                deltas.append((current, delta))
        keyed = [col.name for col in self._unique_columns()]
        vacated = set()     # (column, rowid) whose old key is gone
        claimed = set()     # (column, key) an earlier target now holds
        for current, delta in deltas:
            values = {}
            for name in keyed:
                if name in delta:
                    vacated.add((name, current.rowid))
                    if delta[name] is not None:
                        values[name] = delta[name]
            if not values:
                continue
            for name, value in values.items():
                key = (name, sort_key(value))
                if key in claimed:
                    raise _duplicate_entry(value, name)
                claimed.add(key)
            self._check_keys(values, txn, vacated)
        return [self._install(current, delta, txn)
                for current, delta in deltas]

    def update_row(self, row, updates, txn=None):
        """:meth:`update_rows` for one row: its new image, or ``None``
        when *updates* leave it as it was."""
        changed = self.update_rows([(row, updates)], txn)
        return changed[0] if changed else None

    def _install(self, current, delta, txn):
        """Install *current* with *delta* applied as the row's new
        version.  The stored image is never edited in place: a fresh
        one replaces it in the store, and the superseded image is
        chained behind the new version's metadata so pinned read views
        keep seeing it."""
        new_row = current.clone()
        new_row.update(delta)
        rowid = new_row.rowid
        meta = self._meta.get(rowid)
        if txn is None:
            self._meta.pop(rowid, None)
        else:
            if meta is not None and meta.owner is txn:
                # re-update inside one txn: keep the last *committed*
                # image as the chain head, drop the intra-txn image
                prior = meta.prior
            else:
                begin = meta.begin if meta is not None else 0
                prior = _RowVersion(
                    current, begin, meta.prior if meta is not None else None
                )
            # publish the pending meta BEFORE the image swap: a
            # lock-free reader must never observe new_row without the
            # metadata that marks it invisible
            self._meta[rowid] = meta = _RowMeta(None, txn, prior)
            txn.record(self, "write", new_row)
            self._note_moved_keys(meta, new_row, txn)
        self.store.replace(new_row, pending=txn is not None)
        self._apply_delta(lambda index: index.replace(current, new_row))
        return new_row

    def _note_moved_keys(self, meta, image, txn):
        """Mark *meta* — *txn*'s pending version *image* — when it moved
        a PK/UNIQUE value away from the committed image behind it.  A
        statement-scoped txn (no read stamp) seals, or is taken back,
        before its table lock goes: no other writer can meet its images."""
        prior = meta.prior
        if prior is not None and txn.read_stamp is not None and any(
                sort_key(prior.row.get(col.name))
                != sort_key(image.get(col.name))
                for col in self._unique_columns()):
            self._moved_keys[image.rowid] = meta

    def _entomb(self, doomed, txn):
        """Take the current images *doomed* out of the latest state.

        With *txn* each leaves a pending tombstone: invisible to the
        deleting transaction, still visible to pinned snapshots until
        the delete seals (and to everyone if it never does).  The order
        is what :meth:`_iter_visible` relies on: tombstones are marked
        in ``_meta`` and listed, *then* the epoch moves, *then* the rows
        leave the store."""
        if txn is None:
            for row in doomed:
                self._meta.pop(row.rowid, None)
        else:
            fresh = []
            for row in doomed:
                meta = self._meta.get(row.rowid)
                if meta is None:
                    begin, prior = 0, None
                elif meta.owner is txn:
                    # deleting a row this txn wrote: the pending image
                    # was never committed, only the prior chain matters
                    begin, prior = None, meta.prior
                else:
                    begin, prior = meta.begin, meta.prior
                tomb = _Tombstone(row, begin, prior, None, txn,
                                  self._delete_epoch)
                self._meta[row.rowid] = tomb
                txn.record(self, "delete", tomb)
                fresh.append(tomb)
            self._tombstones = self._tombstones + fresh
            self._delete_epoch += 1
        self.store.remove([row.rowid for row in doomed],
                          pending=txn is not None)

    def delete_rows(self, doomed, txn=None):
        """Remove the given rows (named by rowid; ones already gone are
        skipped).  Raises :class:`WriteConflictError` — before touching
        anything — if any target has a pending version elsewhere."""
        doomed = [current for current in map(self._current, doomed)
                  if current is not None]
        for row in doomed:
            self.check_write(row, txn)
        self._entomb(doomed, txn)

        def delta(index):
            for row in doomed:
                index.remove(row)

        self._apply_delta(delta)

    def truncate(self, txn=None):
        """Drop every row and reset AUTO_INCREMENT (TRUNCATE TABLE)."""
        if txn is not None:
            doomed = list(self.store.rows())
            for row in doomed:
                self.check_write(row, txn)
            self._entomb(doomed, txn)
        else:
            self._meta = {tomb.row.rowid: tomb for tomb in self._tombstones}
            self.store.clear()
        self._auto_counter = 0

        def delta(index):
            index.map = {}
            index.sorted_keys = []

        self._apply_delta(delta)

    def _seal_entry(self, txn, kind, payload, stamp, collect):
        """Seal one pending entry of *txn* at commit and let the store
        settle the rowid (a paged store writes the now-committed image
        into its tree here).  Entries superseded later in the same
        transaction are skipped: a rowid settles at its *last* entry."""
        if kind == "write":
            rowid = payload.rowid
            meta = self._meta.get(rowid)
            if (meta is None or meta.owner is not txn
                    or self.store.get(rowid) is not payload):
                return
            meta.begin = stamp
            meta.owner = None
            if collect:
                del self._meta[rowid]
        else:
            if payload.owner is not txn:
                return
            rowid = payload.row.rowid
            payload.end = stamp
            payload.owner = None
            if collect:
                self._meta.pop(rowid, None)
                try:
                    self._tombstones.remove(payload)
                except ValueError:
                    pass
        if self._moved_keys:
            self._moved_keys.pop(rowid, None)
        self.store.settle(rowid)

    def undo(self, txn, kind, payload, auto, own=None):
        """Take back one pending entry of *txn*: its rowid returns to
        the last committed state.  A pending insert leaves the store and
        the indexes, a pending update puts the chained committed image
        and its stamp back, a pending delete lifts its tombstone and
        re-admits the row.  An entry superseded later in the transaction
        finds its rowid already reverted by the newer one (so does one a
        DDL barrier settled) and is skipped.

        *own* is the image *txn* itself wrote at the rowid before the
        failed statement being undone: the rowid returns to it instead,
        still pending, over the same committed chain.

        *auto* is an insert's ``(counter, tip)`` from before it ran: if
        no insert followed it, the counter goes back too — the chain of
        marks rewinds AUTO_INCREMENT exactly as far as the rolled-back
        inserts are the table's newest, which is where a recovery of
        the same log (it never sees them) leaves it."""
        rowid = payload.rowid if kind == "write" else payload.row.rowid
        meta = self._meta.get(rowid)
        if meta is not None and meta.owner is txn:
            current = self.store.get(rowid)
            version = _committed_behind(meta)
            if meta.__class__ is _Tombstone:
                tombs = self._tombstones    # newest first: it is near the end
                at = len(tombs) - 1
                while tombs[at] is not meta:
                    at -= 1
                del tombs[at]
            self._moved_keys.pop(rowid, None)
            if own is not None:
                restored = self._meta[rowid] = _RowMeta(None, txn, version)
                self.store.revert(rowid, own)
                self.store.replace(own, pending=True)
                self._note_moved_keys(restored, own, txn)
                back = own
            else:
                back = None if version is None else version.row
                if version is not None and version.begin:
                    self._meta[rowid] = _RowMeta(version.begin, None,
                                                 version.prior)
                else:
                    del self._meta[rowid]       # no row, or a settled one
                self.store.revert(rowid, back)

            def delta(index):
                if current is not None:
                    index.remove(current)
                if back is not None:
                    index.add(back)

            self._apply_delta(delta)
        if auto is not None and self._auto_tip == rowid:
            self._auto_counter, self._auto_tip = auto

    # -- ALTER TABLE support (DDL runs under the exclusive catalog lock,
    #    so no read view can be live while these reshape rows) -----------

    def _reshape(self, mutator):
        """Apply *mutator* to every stored image.  DDL is a
        version-history barrier — historical images with the old shape
        would confuse later readers — so MVCC state is reset.  Indexes
        are left stale on purpose (rebuild on next use)."""
        self.reset_mvcc()
        self.store.rewrite(mutator)
        self.touch()

    def add_column(self, column):
        """ALTER TABLE ADD COLUMN: existing rows get what an INSERT
        that omits the column would have stored."""
        self.columns.append(column)
        self._by_name[column.name] = column
        fill = _absent_value(column)

        def fill_in(row):
            row[column.name] = fill

        self._reshape(fill_in)

    def drop_column(self, name):
        """ALTER TABLE DROP COLUMN."""
        self.columns = [col for col in self.columns if col.name != name]
        del self._by_name[name]
        self._reshape(lambda row: row.pop(name, None))

    # -- MVCC visibility ---------------------------------------------------

    def reset_mvcc(self):
        """Forget all version history and tombstones (recovery replay
        and DDL barriers: only current rows matter).  Pending state
        becomes plain state, so the store settles it first — and an
        insert that is plain state keeps its AUTO_INCREMENT value."""
        self.store.settle()
        self._meta = {}
        self._tombstones = []
        self._moved_keys = {}
        self._auto_tip = None

    def _visible_row(self, row, meta, view):
        """The image of *row* visible under *view*, or ``None``."""
        if meta.owner is not None:
            if view.txn is not None and meta.owner is view.txn:
                return row      # reader owns the pending version
        elif meta.begin is not None and meta.begin <= view.watermark:
            return row
        node = meta.prior
        while node is not None:
            if node.begin <= view.watermark:
                return node.row
            node = node.prior
        return None

    def _tomb_visible(self, tomb, view):
        """The image of a deleted row still visible under *view*."""
        if tomb.owner is not None:
            if view.txn is not None and tomb.owner is view.txn:
                return None     # deleted by the reader itself
        elif tomb.end is not None and tomb.end <= view.watermark:
            return None         # deletion already visible
        if tomb.begin is not None and tomb.begin <= view.watermark:
            return tomb.row
        node = tomb.prior
        while node is not None:
            if node.begin <= view.watermark:
                return node.row
            node = node.prior
        return None

    def _iter_visible(self, view):
        """Every row image visible under *view*, each rowid at most
        once — also while one writer inserts, updates and deletes
        underneath (readers take no table lock).

        The store pass judges each image by the rowid's metadata, read
        per row against the LIVE dict: a version installed mid-scan is
        judged by its own meta, not by whether the table carried
        history when the scan began.  A deleted row is visible through
        exactly one of the two passes: the store iterator (taken first)
        still walks every row removed after it was taken, and the epoch
        (read second) splits the tombstones — one from an earlier epoch
        had left the store before the iterator existed and is yielded by
        the tombstone pass; a later one is yielded where the store pass
        meets its row (or was judged as the live row it then still
        was)."""
        rows = self.store.rows()
        epoch = self._delete_epoch
        metas = self._meta
        for row in rows:
            meta = metas.get(row.rowid)
            if meta is None:
                yield row
                continue
            if meta.__class__ is _RowMeta:
                visible = self._visible_row(row, meta, view)
            elif meta.epoch >= epoch:
                visible = self._tomb_visible(meta, view)
            else:
                continue
            if visible is not None:
                yield visible
        for tomb in self._tombstones:
            if tomb.epoch < epoch:
                visible = self._tomb_visible(tomb, view)
                if visible is not None:
                    yield visible

    def _index_safe_for(self, view):
        """An index only reflects *current* rows; with any pending
        versions or tombstones around, a snapshot read must fall back to
        the full visibility scan.  The fallback is a superset of any
        index narrowing, which is safe because the planner always keeps
        the complete WHERE in a Filter above the scan."""
        return view is None or not self._meta

    def vacuum(self, horizon=None):
        """Garbage-collect version history no read view can need.

        *horizon* is the oldest pinned watermark (``None`` = no active
        views).  A sealed meta whose current version is visible at the
        horizon needs no chain; a tombstone whose deletion is visible at
        the horizon needs nothing at all.  Pending entries always stay.
        Returns the number of entries dropped."""
        removed = 0
        kept = []
        for tomb in self._tombstones:
            if (tomb.owner is None and tomb.end is not None
                    and (horizon is None or tomb.end <= horizon)):
                self._meta.pop(tomb.row.rowid, None)
                removed += 1
            else:
                kept.append(tomb)
        self._tombstones = kept
        for rowid, meta in list(self._meta.items()):
            if (meta.__class__ is _RowMeta and meta.owner is None
                    and meta.begin is not None
                    and (horizon is None or meta.begin <= horizon)):
                del self._meta[rowid]
                removed += 1
        return removed

    def mvcc_stats(self):
        """Observability: how much version history the table carries."""
        versioned = chains = 0
        for meta in list(self._meta.values()):
            if meta.__class__ is _RowMeta:
                versioned += 1
                node = meta.prior
                while node is not None:
                    chains += 1
                    node = node.prior
        return {
            "versioned_rows": versioned,
            "chained_images": chains,
            "tombstones": len(self._tombstones),
        }

    def touch(self):
        """Record a mutation done *outside* the mutation API.  Live
        indexes are left stale on purpose: the version mismatch is the
        consistency check that forces a rebuild on next lookup."""
        self.version += 1

    # -- durability (checkpoint snapshots) --------------------------------

    def to_dict(self):
        """JSON-serializable full state (the checkpoint unit), the same
        whatever store holds the rows.  The rows are written column by
        column (:func:`_column_image`): ``"cols"`` holds one list per
        column in the order of ``columns``, and ``"delta"`` the indexes
        of the lists stored as differences."""
        rows = list(self.store.rows())
        cols = []
        delta = []
        for at, name in enumerate(self.column_names()):
            stored, coded = _column_image([row.get(name) for row in rows])
            cols.append(stored)
            if coded:
                delta.append(at)
        return {
            "name": self.name,
            "columns": [col.to_dict() for col in self.columns],
            "cols": cols,
            "delta": delta,
            "auto_counter": self._auto_counter,
            "indexes": dict(self.indexes),
        }

    @classmethod
    def from_dict(cls, data, store=None, adopt=False):
        """Rebuild a table from its checkpoint entry.  With *adopt* the
        *store* already holds the rows (a paged store re-opened onto its
        checkpointed pages) and the image's rows are not loaded."""
        table = cls(data["name"],
                    [Column.from_dict(c) for c in data["columns"]], store)
        table._auto_counter = data.get("auto_counter", 0)
        table.indexes = dict(data.get("indexes", {}))
        if not adopt:
            table.load_rows(image_rows(data))
        return table

    def value_rows(self):
        """The latest-state rows as value arrays in the order of
        ``columns`` — what :meth:`load_rows` takes back (a page repair
        re-feeding a table from another copy of it)."""
        names = self.column_names()
        return [[row.get(name) for name in names]
                for row in self.store.rows()]

    def load_rows(self, rows):
        """Replace the content with *rows*, under fresh rowids
        (checkpoint load, page-corruption rebuild).  A row is a value
        array in the order of ``columns``, as :meth:`value_rows` and
        :func:`image_rows` give it, or a column dict, as checkpoints
        written before the array layout hold it.  Every row is read
        before the old content goes, so a row that does not fit the
        schema leaves the table as it was."""
        names = self.column_names()
        images = []
        for values in rows:
            if isinstance(values, dict):
                images.append(Row(values))
            elif len(values) == len(names):
                images.append(Row(zip(names, values)))
            else:
                raise ValueError("a row of table '%s' holds %d values for "
                                 "%d columns" % (self.name, len(values),
                                                 len(names)))
        self._meta = {}
        self._tombstones = []
        self._moved_keys = {}
        self.store.clear()
        for row in images:
            row.rowid = self.store.new_rowid()
            self.store.append(row)
        self.touch()

    def dispose(self):
        """Release what the rows occupy (DROP TABLE)."""
        self.store.clear()

    # -- secondary indexes ------------------------------------------------

    def create_index(self, name, column):
        if not self.has_column(column):
            raise ExecutionError(
                "Key column '%s' doesn't exist in table" % column,
                errno=1072,
            )
        if name.lower() in self.indexes:
            raise ExecutionError(
                "Duplicate key name '%s'" % name, errno=1061
            )
        self.indexes[name.lower()] = column.lower()

    def drop_index(self, name):
        if name.lower() not in self.indexes:
            raise ExecutionError(
                "Can't DROP '%s'; check that column/key exists" % name,
                errno=1091,
            )
        del self.indexes[name.lower()]

    def _unique_columns(self):
        return [col for col in self.columns
                if col.primary_key or col.unique]

    def indexed_columns(self):
        """Columns reachable through an index (incl. PK/unique)."""
        columns = set(self.indexes.values())
        columns.update(col.name for col in self._unique_columns())
        return columns

    def _live_index(self, column):
        """The current :class:`_ColumnIndex` for *column*, building it
        only when absent or stale (version mismatch)."""
        column = column.lower()
        index = self._index_cache.get(column)
        if index is None:
            index = _ColumnIndex(column)
            self._index_cache[column] = index
        if index.version != self.version:
            index.build(self.store.rows(), self.version)
            self._index_stats["rebuilds"] += 1
        return index

    def _fetch(self, rowids):
        """The current images of *rowids* (a bucket is copied first:
        the consumer may mutate the table while it iterates)."""
        get = self.store.get
        for rowid in tuple(rowids):
            row = get(rowid)
            if row is not None:
                yield row

    def iter_rows(self, view=None):
        """Stored rows, lazily — the streaming scan API the plan
        layer's :class:`~repro.sqldb.plan.SeqScan` pulls from.  With a
        :class:`ReadView`, yields the row images visible at the view's
        watermark instead of latest state."""
        if view is None:
            return self.store.rows()
        return self._iter_visible(view)

    def index_lookup(self, column, value, view=None):
        """Rows whose *column* equals *value* (hash-bucket access)."""
        return list(self.index_lookup_iter(column, value, view=view))

    def index_lookup_iter(self, column, value, view=None):
        """Iterator form of :meth:`index_lookup`.

        Equality follows :func:`sort_key` — the same fold the comparison
        engine applies — after storage conversion of *value*.  Under a
        :class:`ReadView` with version history present, degrades to the
        visibility scan (a superset; the Filter above re-applies the
        predicate).
        """
        if not self._index_safe_for(view):
            return self._iter_visible(view)
        index = self._live_index(column)
        self._index_stats["lookups"] += 1
        key = sort_key(self.convert(column, value))
        return self._fetch(index.map.get(key, ()))

    def index_range(self, column, low=None, high=None,
                    low_inclusive=True, high_inclusive=True, view=None):
        """Rows whose *column* falls in ``[low, high]`` (bisect scan)."""
        return list(self.index_range_iter(column, low, high,
                                          low_inclusive, high_inclusive,
                                          view=view))

    def index_range_iter(self, column, low=None, high=None,
                         low_inclusive=True, high_inclusive=True,
                         view=None):
        """Iterator form of :meth:`index_range`.

        ``None`` bounds are open ends; NULL-valued rows never match a
        range predicate and are skipped.  Rows come back in key order.
        Under a :class:`ReadView` with version history present, degrades
        to the visibility scan like :meth:`index_lookup_iter`.
        """
        if not self._index_safe_for(view):
            yield from self._iter_visible(view)
            return
        index = self._live_index(column)
        self._index_stats["range_lookups"] += 1
        keys = index.sorted_keys
        if low is not None:
            low_key = sort_key(self.convert(column, low))
            start = (bisect_left(keys, low_key) if low_inclusive
                     else bisect_right(keys, low_key))
        else:
            start = bisect_right(keys, _NULL_KEY)
        if high is not None:
            high_key = sort_key(self.convert(column, high))
            stop = (bisect_right(keys, high_key) if high_inclusive
                    else bisect_left(keys, high_key))
        else:
            stop = len(keys)
        for key in keys[start:stop]:
            if key[0] != _NULL_KEY[0]:
                yield from self._fetch(index.map[key])

    def index_stats(self):
        """Counters the tests use to prove maintenance is incremental."""
        return dict(self._index_stats)

    def _unique_matches(self, values):
        """``(column, value, row)`` for every current row holding, on a
        PK/UNIQUE column, a value equal to the storage-form value
        *values* has there: the row sits in the value's :func:`sort_key`
        bucket, which is the engine's ``=`` (case and confusables
        folded).  Uniqueness is a property of the latest state, so
        pending rows from other transactions participate."""
        for col in self._unique_columns():
            value = values.get(col.name)
            if value is None:
                continue
            bucket = self._live_index(col.name).map.get(sort_key(value), ())
            for row in self._fetch(bucket):
                yield col, value, row

    def _shared_key(self, held, values):
        """The first PK/UNIQUE ``(column, value)`` of *values* that the
        row image *held* holds too, under the engine's ``=``."""
        for col in self._unique_columns():
            value = values.get(col.name)
            if value is not None and \
                    sort_key(held.get(col.name)) == sort_key(value):
                return col.name, value
        return None

    def _check_keys(self, values, txn, vacated=frozenset()):
        """The key rule for the storage-form *values* about to be
        stored: an inserted image, or the keys one UPDATE target
        changes.  A key is refused while

        * another open transaction's pending UPDATE moved it away from a
          committed row: its ROLLBACK brings the row back, its COMMIT
          frees the key, so the writer gets the retryable
          :class:`WriteConflictError`;
        * a current row holds it (:meth:`_unique_matches`), unless
          *vacated* names that row's value as ``(column, rowid)``: an
          earlier target of the same UPDATE replaced it.  1062;
        * another transaction's pending DELETE buried the committed row
          holding it: its ROLLBACK re-admits the row.  1062.

        The first costs one test while no such update is pending."""
        for meta in self._moved_keys.values():
            if meta.owner is not txn:
                shared = self._shared_key(meta.prior.row, values)
                if shared is not None:
                    raise WriteConflictError(
                        "Write conflict on table '%s': key '%s' was moved "
                        "by another transaction's pending update; retry"
                        % (self.name, shared[1]))
        for col, value, row in self._unique_matches(values):
            if (col.name, row.rowid) not in vacated:
                raise _duplicate_entry(value, col.name)
        for tomb in self._tombstones:
            if tomb.owner is None or tomb.owner is txn:
                continue
            hidden = _committed_behind(tomb)
            shared = hidden and self._shared_key(hidden.row, values)
            if shared:
                raise _duplicate_entry(shared[1], shared[0])

    def unique_conflicts(self, values):
        """Current rows that collide with *values* on any PK/UNIQUE
        column, in rowid order: the rows REPLACE deletes and the row ON
        DUPLICATE KEY UPDATE updates (the *first* conflict).  The write
        that follows checks them: :meth:`delete_rows` /
        :meth:`update_rows` turn a collision with another transaction's
        pending row into a retryable conflict."""
        stored = {col.name: self.convert(col.name, values[col.name])
                  for col in self._unique_columns()
                  if values.get(col.name) is not None}
        hits = {row.rowid: row for _, _, row in self._unique_matches(stored)}
        return [hits[rowid] for rowid in sorted(hits)]

    def convert(self, column_name, value):
        col = self._by_name[column_name.lower()]
        return store_convert(value, col.type_name, col.length)

    def row_count(self):
        """Number of current rows."""
        return len(self.store)

    def __len__(self):
        return len(self.store)

    def __repr__(self):
        return "Table(%r, %d cols, %d rows)" % (
            self.name, len(self.columns), len(self.store)
        )


# -- checkpoint image layout ------------------------------------------------
#
# A table image holds its rows column-major, so the compressor that
# packs the image sees one column's similar values side by side.  An
# integer column whose neighbours in rowid order are close — keys and
# counters assigned in insertion order — is stored as its first value
# followed by successive differences, when that text is the shorter.

def _column_image(values):
    """``(stored, coded)``: *values* as an image stores them, and whether
    they are stored as differences.  Only a column of plain ints
    qualifies (one bool, NULL or float keeps it plain), and only when
    the differences print shorter than the values."""
    if set(map(type, values)) != {int}:
        return values, False
    diffs = [values[0]]
    diffs.extend(map(operator.sub, values[1:], values))
    if len(",".join(map(str, diffs))) < len(",".join(map(str, values))):
        return diffs, True
    return values, False


def image_rows(data):
    """The rows of table image *data* as value sequences in the order of
    its ``columns``, whatever layout wrote it: the column-major
    ``"cols"`` (:meth:`Table.to_dict`), or the ``"rows"`` of earlier
    versions — value arrays, or column dicts before those."""
    cols = data.get("cols")
    if cols is None:
        return data.get("rows", [])
    if (len(cols) != len(data["columns"])
            or len(set(map(len, cols))) > 1):
        raise ValueError("the image of table '%s' holds %d columns of "
                         "lengths %s for %d columns"
                         % (data["name"], len(cols),
                            sorted(set(map(len, cols))),
                            len(data["columns"])))
    cols = list(cols)
    for at in data.get("delta", ()):
        cols[at] = list(accumulate(cols[at]))
    return list(zip(*cols))


class MemoryRows(object):
    """Row store of the in-memory backend: the images in one list, in
    rowid order, beside the list of their rowids (what :meth:`get`
    bisects).

    **The overlap rule.**  Snapshot scans take no table lock, so an
    iterator from :meth:`rows` may be walking the list while the
    table's one writer mutates it.  Appending and replacing touch the
    list in place — the iterator meets the new image or not, and the
    version metadata says what it means either way — but removing
    *rebinds* to fresh lists: an iterator taken earlier keeps walking
    every row that was there when it was taken, which
    :meth:`Table._iter_visible` relies on to count a row being deleted
    exactly once.  The two lists are published as one tuple, so a
    reader never pairs the rowids of one generation with the rows of
    another, and there is no dict here to catch mid-resize.

    Every image is final where it is put, so ``pending`` changes
    nothing and :meth:`settle` has nothing to do.
    """

    def __init__(self):
        self._lists = ([], [])      # (rowids, rows), parallel
        self._next_rowid = 1

    def new_rowid(self):
        rowid = self._next_rowid
        self._next_rowid = rowid + 1
        return rowid

    def __len__(self):
        return len(self._lists[0])

    def rows(self):
        return iter(self._lists[1])

    def get(self, rowid):
        rowids, rows = self._lists
        at = bisect_left(rowids, rowid)
        if at < len(rowids) and rowids[at] == rowid:
            return rows[at]
        return None

    def append(self, row, pending=False):
        """Store a row whose rowid is above every one stored."""
        rowids, rows = self._lists
        rows.append(row)        # rows first: a rowid always has its row
        rowids.append(row.rowid)

    def replace(self, row, pending=False):
        rowids, rows = self._lists
        at = bisect_left(rowids, row.rowid)
        if at < len(rowids) and rowids[at] == row.rowid:
            rows[at] = row

    def remove(self, rowids, pending=False):
        old_ids, old_rows = self._lists
        new_ids, new_rows = [], []
        start = 0
        for rowid in sorted(rowids):
            at = bisect_left(old_ids, rowid, start)
            if at < len(old_ids) and old_ids[at] == rowid:
                new_ids += old_ids[start:at]
                new_rows += old_rows[start:at]
                start = at + 1
        new_ids += old_ids[start:]
        new_rows += old_rows[start:]
        self._lists = (new_ids, new_rows)

    def settle(self, rowid=None):
        pass

    def revert(self, rowid, row):
        """Make *row* — the last committed image, ``None`` for no row —
        the latest state at *rowid* again (ROLLBACK).  The caller
        excludes every scan, so the lists are edited in place."""
        rowids, rows = self._lists
        at = bisect_left(rowids, rowid)
        stored = at < len(rowids) and rowids[at] == rowid
        if row is None:
            if stored:
                del rowids[at], rows[at]
        elif stored:
            rows[at] = row
        else:
            rowids.insert(at, rowid)
            rows.insert(at, row)

    def rewrite(self, mutator):
        for row in self._lists[1]:
            mutator(row)

    def clear(self):
        self._lists = ([], [])


class PagedRows(object):
    """Row store of the paged backend: the images in a rowid-keyed
    :class:`~repro.sqldb.btree.BTree` over checksummed pages, so the
    working set is bounded by the buffer pool, not RAM.  Tree order ==
    rowid order == the scan order :class:`MemoryRows` yields.

    **The pending-overlay rule.**  An image stored — or a removal made —
    with ``pending=True`` belongs to an open transaction and must not
    reach a page: the pages have to agree with the committed rows the
    checkpoint describes, whatever moment a crash picks.  It waits in
    ``_pending`` (rowid → image, or ``None`` for a removal), where
    :meth:`get` and :meth:`rows` see it in place of the tree's copy, and
    moves into the tree when the table seals it (:meth:`settle`) or is
    dropped unwritten when the table undoes it (:meth:`revert`).
    """

    def __init__(self, page_store, meta=None):
        """*meta* is a persisted :meth:`pages_meta`: re-open onto the
        existing pages instead of starting an empty tree."""
        meta = meta or {}
        self._page_store = page_store
        self._tree = BTree(page_store, root=meta.get("root"))
        self._next_rowid = meta.get("next_rowid", 1)
        self._count = meta.get("count", 0)
        self._pending = {}

    def new_rowid(self):
        rowid = self._next_rowid
        self._next_rowid = rowid + 1
        return rowid

    def __len__(self):
        return self._count

    def rows(self):
        pending = self._pending
        waiting = sorted(pending)
        waiting.append(sys.maxsize)     # sentinel: nothing pending beyond
        at = 0
        head = waiting[0]
        for rowid, row in self._tree.items():
            if rowid >= head:
                while head < rowid:     # pending rows not in the tree yet
                    if pending[head] is not None:
                        yield pending[head]
                    at += 1
                    head = waiting[at]
                if head == rowid:       # the pending image shadows this one
                    row = pending[rowid]
                    at += 1
                    head = waiting[at]
                    if row is None:
                        continue
            yield row
        for rowid in waiting[at:-1]:
            if pending[rowid] is not None:
                yield pending[rowid]

    def get(self, rowid):
        if rowid in self._pending:
            return self._pending[rowid]
        return self._tree.get(rowid)

    def append(self, row, pending=False):
        """Store a row whose rowid is above every one stored."""
        self.replace(row, pending)
        self._count += 1

    def replace(self, row, pending=False):
        if pending:
            self._pending[row.rowid] = row
        else:
            self._pending.pop(row.rowid, None)
            self._tree.put(row.rowid, row)

    def remove(self, rowids, pending=False):
        for rowid in rowids:
            if pending:
                self._pending[rowid] = None
            else:
                self._pending.pop(rowid, None)
                self._tree.delete(rowid)
            self._count -= 1

    def settle(self, rowid=None):
        """Write what is pending for *rowid* (everything, without one)
        into the tree: images first, then removals."""
        if rowid is not None:
            if rowid not in self._pending:
                return
            pending = {rowid: self._pending.pop(rowid)}
        else:
            pending, self._pending = self._pending, {}
        for rowid in sorted(pending):
            if pending[rowid] is not None:
                self._tree.put(rowid, pending[rowid])
        for rowid in sorted(pending):
            if pending[rowid] is None:
                self._tree.delete(rowid)

    def revert(self, rowid, row):
        """Make *row* — the last committed image, ``None`` for no row —
        the latest state at *rowid* again (ROLLBACK): the tree never
        saw what was pending, so dropping the overlay entry is all."""
        if rowid not in self._pending:
            return
        if self._pending.pop(rowid) is not None:
            self._count -= 1
        if row is not None:
            self._count += 1

    def rewrite(self, mutator):
        """Apply *mutator* to every image in place; the caller has
        settled the overlay."""
        self._tree.update_rows(mutator)

    def clear(self):
        """Free every page; idempotent."""
        self._pending = {}
        self._tree.clear()
        self._count = 0

    # -- what the checkpoint, recovery and the scrubber need --------------

    def pages_meta(self):
        """The physical bootstrap the checkpoint persists per table."""
        return {
            "root": self._tree.root,
            "next_rowid": self._next_rowid,
            "count": self._count,
        }

    def verify_scan(self):
        """Fault every page of the tree through its checksum (interiors
        included — a leaf-chain walk alone would miss a damaged interior
        off the leftmost path) and walk every row; raises
        :class:`~repro.sqldb.errors.PageCorruptionError` on damage.
        Returns the number of rows seen and re-syncs the persisted row
        count (the count is advisory, the tree is the authority)."""
        for page_no in self._tree.pages():
            self._page_store.pool.fetch(page_no)
        self._count = sum(1 for _ in self.rows())
        return self._count

    def pages(self):
        """Page numbers the tree occupies (scrubber scan set)."""
        return self._tree.pages()


class ResultSet(object):
    """Rows returned to the client: column names + list of value tuples."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns, rows):
        self.columns = list(columns)
        self.rows = [tuple(r) for r in rows]

    def rows_as_dicts(self):
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self):
        """First column of the first row, or ``None`` if empty."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def column(self, name):
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, ResultSet)
            and self.columns == other.columns
            and self.rows == other.rows
        )

    def __repr__(self):
        return "ResultSet(%r, %d rows)" % (self.columns, len(self.rows))
