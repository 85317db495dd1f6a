"""Write-ahead log: the durability layer of the mini-MySQL substrate.

Everything the in-memory engine promises to keep after a crash flows
through this module — nothing else in the package may touch the on-disk
WAL or checkpoint files (a lint gate enforces it).  The design follows
the classic redo-only WAL shape (the ``learndb`` pager is the nearest
ancestor in the related work, but page-less: this engine's unit of
durability is the *logical statement*, re-executed deterministically):

* the **log** is a single append-only file of length-prefixed records::

      record  := u32 payload_length | u32 crc32(payload) | payload
      payload := u8 kind | u8 flags | varint lsn | [varint tx]
                 | [varint clock | varint rand | utf-8 sql]

  ``kind`` 1–4 is ``stmt`` for a logged statement or a ``begin`` /
  ``commit`` / ``rollback`` transaction marker; ``flags`` say whether
  the record carries a tx id, whether it carries a statement (clock,
  rand and the text, which runs to the end of the payload), whether
  that statement failed and whether, failing, it was taken back whole
  (every failed statement this version logs is; one an earlier version
  logged kept the rows it wrote before failing).  Varints are unsigned
  LEB128.  Every record carries a strictly increasing **LSN**, always
  from byte 2 on, so a reader can skip a record without decoding it.
  ``clock`` and ``rand`` snapshot the engine's virtual clock and
  RNG-draw count *before* the statement ran, so replay of
  ``NOW()``/``RAND()`` is bit-identical.

  A payload whose first byte is ``{`` is the sorted-key JSON object
  ``{lsn, op, tx, sql, clock, rand, failed}`` earlier versions wrote:
  one branch of the decoder still reads it, no writer produces it.  The
  header did not change with the payload, so the framing rules below
  (torn tail vs mid-log damage) hold for both and a log may mix them.
  A payload that passes its CRC but does not decode is damage like any
  other.

  A :class:`WalRecord` is **encoded once**: it keeps the bytes it was
  encoded as (the append path) or decoded from (a log read).  The CRC
  a primary ships a record with, the check on arrival and the
  replica's own append all use those bytes, so a replica's log is
  byte-identical to its primary's over the range it was shipped;
* **COMMIT is the durability point**: autocommit statements and
  ``commit`` markers are fsynced (per-commit or batched, see *sync
  modes* below); anything after the last fsync may be lost in a crash
  — which is fine, because the client was never acknowledged;
* a **torn tail** (half-written record at the end of the file, the
  normal artifact of a kill) is detected by the length/CRC framing and
  silently truncated on recovery.  A CRC failure *followed by more
  valid data* cannot come from a crash — that is bit rot mid-log, and
  it raises :class:`~repro.sqldb.errors.WalCorruptionError` instead of
  being guessed around;
* a **checkpoint** is a full catalog+rows snapshot written atomically
  (tmp file + ``os.replace`` + fsync), after which the log is rotated:
  the records the snapshot covers are dropped, any appended after it
  was cut are kept.  The image is encoded once, compactly, and framed
  like a log record::

      image := magic | u32 length | u32 crc32(packed) | packed
      packed := zlib(JSON body, compact separators, sorted keys)

  The CRC covers the compressed bytes exactly as they sit on disk, so
  loading checks length and CRC before it decompresses anything and
  never re-encodes the body.  A file that starts with ``{`` is the
  JSON-text layout earlier versions wrote (``{"crc", "body"}``, single
  line or indented) and still loads.

Hot-path contract: when no database has a WAL attached, the only cost
production code pays is ``if wal.ATTACHED:`` — one module-attribute
read and a falsy test, the same guard discipline as
:mod:`repro.faults` (and benchmarked by ``bench_fault_overhead``).
"""

import json
import os
import struct
import zlib

from repro import faults as faults_mod
from repro.core.resilience import make_lock, make_rlock
from repro.sqldb.errors import WalCorruptionError, WalError

#: number of databases with a WAL attached, process-wide.  Durability
#: hooks in the engine guard on this module attribute so that WAL-off
#: mode is the exact status quo (one attribute read, nothing else).
ATTACHED = 0

_attach_lock = make_lock()

#: record framing: little-endian u32 payload length + u32 CRC32
_HEADER = struct.Struct("<II")

#: sanity bound on one record (a length field larger than this is framing
#: damage, not a real record)
MAX_RECORD_BYTES = 16 * 1024 * 1024

#: a payload's first byte, by record kind, and back
_KIND_CODES = {"stmt": 1, "begin": 2, "commit": 3, "rollback": 4}
_KIND_NAMES = {code: op for op, code in _KIND_CODES.items()}

#: payload flag bits: a tx id follows the LSN; clock, rand and the
#: statement text follow; the statement failed; it failed and was taken
#: back whole
_HAS_TX = 0x01
_HAS_SQL = 0x02
_FAILED = 0x04
_UNDONE = 0x08
_FLAGS = _HAS_TX | _HAS_SQL | _FAILED | _UNDONE

#: a varint longer than this is damage, not a 64-bit number
_MAX_VARINT_BYTES = 10

#: the first byte of a payload earlier versions wrote (a JSON object)
_LEGACY_PAYLOAD = b"{"

#: first bytes of a checkpoint image (none of them a ``{``, which marks
#: the JSON-text layout of earlier versions)
_IMAGE_MAGIC = b"\x89CKPT\r\n"

#: zlib level of the checkpoint image.  The image is rewritten whole at
#: every checkpoint, so the level trades the writer's CPU for bytes on
#: disk: over column-major images level 6 packs 13-19 % fewer bytes
#: than level 1 for about a millisecond more per checkpoint of a
#: 2 k-row table (EXPERIMENTS.md E13)
_IMAGE_LEVEL = 6

#: default file names inside a data directory
LOG_NAME = "wal.log"
CHECKPOINT_NAME = "checkpoint.json"
QM_STORE_NAME = "qm_store.json"


def _note_attached(delta):
    global ATTACHED
    with _attach_lock:
        ATTACHED = max(0, ATTACHED + delta)


def log_path(data_dir):
    return os.path.join(data_dir, LOG_NAME)


def checkpoint_path(data_dir):
    return os.path.join(data_dir, CHECKPOINT_NAME)


def qm_store_path(data_dir):
    """Where the SEPTIC QM store co-persists with the data plane."""
    return os.path.join(data_dir, QM_STORE_NAME)


class WalRecord(object):
    """One log record, and the payload bytes it is stored as."""

    __slots__ = ("lsn", "op", "tx", "sql", "clock", "rand", "failed",
                 "undone", "_payload")

    #: record kinds
    STMT = "stmt"
    BEGIN = "begin"
    COMMIT = "commit"
    ROLLBACK = "rollback"

    def __init__(self, lsn, op, tx=0, sql=None, clock=0, rand=0,
                 failed=False, undone=False, payload=None):
        self.lsn = lsn
        self.op = op
        #: transaction id (0 = autocommit)
        self.tx = tx
        #: decoded statement text (``stmt`` records only)
        self.sql = sql
        #: virtual-clock ticks before the statement ran
        self.clock = clock
        #: RNG draws before the statement ran
        self.rand = rand
        #: the statement raised an ExecutionError; replay re-runs it and
        #: expects the same error
        self.failed = failed
        #: the failed statement was taken back whole, as every one this
        #: version logs is (InnoDB's statement rollback), and replay
        #: takes it back too; a failed record without it comes from an
        #: earlier version, whose server kept the rows the statement
        #: wrote before failing, and replay keeps them
        self.undone = undone
        #: the encoded bytes: the ones the record was decoded from, or
        #: ``None`` until :attr:`payload` first encodes them
        self._payload = payload

    @property
    def payload(self):
        """The record's payload bytes (module docstring) — those it was
        decoded from, or encoded on first use and kept: nothing encodes
        a record twice."""
        payload = self._payload
        if payload is None:
            payload = self._payload = _encode(self)
        return payload

    @classmethod
    def from_payload(cls, payload):
        """Decode one payload, binary or the JSON of earlier versions.
        A payload that does not decode raises :class:`ValueError`,
        whatever is wrong with it."""
        payload = bytes(payload)
        if payload[:1] == _LEGACY_PAYLOAD:
            return _decode_legacy(payload)
        return _decode(payload)

    def __repr__(self):
        if self.op == self.STMT:
            return "WalRecord(%d, stmt tx=%d, %r)" % (self.lsn, self.tx,
                                                      (self.sql or "")[:40])
        return "WalRecord(%d, %s tx=%d)" % (self.lsn, self.op, self.tx)


# -- the record codec ---------------------------------------------------------


def _put_varint(out, value):
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _get_varint(data, at):
    """``(value, offset after it)`` of the varint at ``data[at:]``."""
    value = shift = 0
    for index in range(at, min(len(data), at + _MAX_VARINT_BYTES)):
        byte = data[index]
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, index + 1
        shift += 7
    raise ValueError("varint at byte %d runs past the end of the record"
                     % at)


def _encode(record):
    """The one encoder: *record*'s binary payload."""
    out = bytearray((_KIND_CODES[record.op], 0))
    flags = 0
    _put_varint(out, record.lsn)
    if record.tx:
        flags |= _HAS_TX
        _put_varint(out, record.tx)
    if record.sql is not None:
        flags |= _HAS_SQL
        _put_varint(out, record.clock)
        _put_varint(out, record.rand)
        out += record.sql.encode("utf-8", "surrogatepass")
    if record.failed:
        flags |= _FAILED
    if record.undone:
        flags |= _UNDONE
    out[1] = flags
    return bytes(out)


def _decode(payload):
    """The one decoder of binary payloads."""
    if len(payload) < 3:   # kind, flags, and at least one LSN byte
        raise ValueError("record payload of %d bytes" % len(payload))
    op = _KIND_NAMES.get(payload[0])
    flags = payload[1]
    if op is None or flags & ~_FLAGS:
        raise ValueError("unknown record kind %d / flags %#x"
                         % (payload[0], flags))
    lsn, at = _get_varint(payload, 2)
    tx = clock = rand = 0
    sql = None
    if flags & _HAS_TX:
        tx, at = _get_varint(payload, at)
    if flags & _HAS_SQL:
        clock, at = _get_varint(payload, at)
        rand, at = _get_varint(payload, at)
        sql = payload[at:].decode("utf-8", "surrogatepass")
    elif at != len(payload):
        raise ValueError("%d stray bytes after the record"
                         % (len(payload) - at))
    return WalRecord(lsn, op, tx, sql, clock, rand, bool(flags & _FAILED),
                     bool(flags & _UNDONE), payload)


def _decode_legacy(payload):
    """The legacy branch: a payload earlier versions wrote, the
    sorted-key JSON object ``{lsn, op, tx, sql, clock, rand, failed}``.
    The record keeps those bytes, so a replica appends them as shipped."""
    body = json.loads(payload.decode("utf-8"))
    try:
        return WalRecord(body["lsn"], body["op"], tx=body.get("tx", 0),
                         sql=body.get("sql"), clock=body.get("clock", 0),
                         rand=body.get("rand", 0),
                         failed=body.get("failed", False), payload=payload)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError("legacy record payload lacks %s" % exc)


def payload_lsn(payload):
    """The LSN of an encoded record, read from its fixed place without
    decoding the rest (a legacy payload is decoded whole)."""
    if payload[:1] == _LEGACY_PAYLOAD:
        return WalRecord.from_payload(payload).lsn
    return _get_varint(payload, 2)[0]


class CommitGrouper(object):
    """The committed-unit state machine, written once.

    Feed it a log's records in order (:meth:`feed`) and it hands back
    the unit each one closes: BEGIN opens a transaction, a transaction's
    STMT is buffered, COMMIT releases the buffered statements as one
    unit, ROLLBACK discards them, and an autocommit (tx 0) STMT is its
    own unit.  Recovery, the dry-run audit and the replica apply loop
    (live and after a restart) all group through this class.
    """

    __slots__ = ("open_tx", "committed", "rolled_back", "commit_lsn")

    def __init__(self):
        #: statement records of the transactions still open, by tx id
        self.open_tx = {}
        #: commit / rollback markers seen
        self.committed = 0
        self.rolled_back = 0
        #: LSN of the newest durability point (0: none yet)
        self.commit_lsn = 0

    def feed(self, record):
        """The statement records of the committed unit *record* closes
        (possibly none: an empty transaction), or ``None`` when it
        closes no unit."""
        op = record.op
        if op == WalRecord.STMT:
            if record.tx:
                self.open_tx.setdefault(record.tx, []).append(record)
                return None
            self.commit_lsn = record.lsn
            return (record,)
        if op == WalRecord.COMMIT:
            self.committed += 1
            self.commit_lsn = record.lsn
            return self.open_tx.pop(record.tx, ())
        if op == WalRecord.BEGIN:
            self.open_tx[record.tx] = []
        elif op == WalRecord.ROLLBACK:
            self.rolled_back += 1
            self.open_tx.pop(record.tx, None)
        return None


class ScanResult(object):
    """What :func:`scan_log` found in a log file."""

    __slots__ = ("records", "clean_offset", "torn_bytes")

    def __init__(self, records, clean_offset, torn_bytes):
        #: every intact record, in file (= LSN) order
        self.records = records
        #: byte offset where the intact prefix ends
        self.clean_offset = clean_offset
        #: bytes of torn/partial tail found after the intact prefix
        self.torn_bytes = torn_bytes


def scan_log(path):
    """Read every intact record of the log at *path* (a drained
    :class:`LogStream`).

    Returns a :class:`ScanResult`.  A partial record at end-of-file is a
    torn tail (normal after a kill): scanning stops and reports the
    clean prefix.  A CRC-failing record with more data *after* it is
    mid-log corruption and raises :class:`WalCorruptionError` carrying
    the clean-prefix records, so callers can still act on the undamaged
    history.
    """
    stream = LogStream(path)
    records = []
    try:
        for record in stream:
            records.append(record)
    except WalCorruptionError as exc:
        exc.clean_records = records
        raise
    return ScanResult(records, stream.clean_offset, stream.torn_bytes)


class LogStream(object):
    """The log's framing, read side: iterate the intact records of the
    file at *path* in bounded memory (*chunk_size* slices).

    A partial or CRC-failing record at end-of-file is a torn tail — the
    iteration just ends; a damaged record with more data after it is
    mid-log corruption and raises :class:`WalCorruptionError` (its
    ``clean_records`` empty: the clean prefix was already yielded, not
    retained).  A record that passes its CRC but does not decode is
    damaged too.  Afterwards :attr:`clean_offset`, :attr:`torn_bytes`,
    :attr:`records_seen`, :attr:`ops` and :attr:`last_lsn` describe
    what was found.
    """

    def __init__(self, path, chunk_size=1 << 16):
        self.path = path
        self.chunk_size = max(chunk_size, _HEADER.size)
        self.clean_offset = 0
        self.torn_bytes = 0
        self.records_seen = 0
        #: records seen, by kind
        self.ops = {}
        self.last_lsn = 0

    def __iter__(self):
        if faults_mod.ACTIVE is not None:
            faults_mod.fire("wal.recover")
        if not os.path.exists(self.path):
            return
        total = os.path.getsize(self.path)
        with open(self.path, "rb") as handle:
            buf = b""
            at = 0      # buf[at:] is the file from clean_offset on

            def have(count):
                """Whether *count* bytes are buffered (reading more
                until they are, or the file ends)."""
                nonlocal buf, at
                while len(buf) - at < count:
                    chunk = handle.read(self.chunk_size)
                    if not chunk:
                        return False
                    buf, at = buf[at:] + chunk, 0
                return True

            while have(_HEADER.size):   # else: torn header, or clean EOF
                length, crc = _HEADER.unpack_from(buf, at)
                need = _HEADER.size + length
                if length > MAX_RECORD_BYTES or not have(need):
                    break   # torn payload (or length field of a torn header)
                payload = buf[at + _HEADER.size:at + need]
                record = None
                if (zlib.crc32(payload) & 0xFFFFFFFF) == crc:
                    try:
                        record = WalRecord.from_payload(payload)
                    except ValueError:
                        pass
                if record is None:
                    if self.clean_offset + need < total:
                        raise WalCorruptionError(
                            "WAL record at byte %d fails its checksum "
                            "with valid data after it (mid-log "
                            "corruption, not a torn tail)"
                            % self.clean_offset,
                            offset=self.clean_offset,
                            clean_records=[],
                        )
                    break   # damaged final record == torn tail
                at += need
                self.clean_offset += need
                self.records_seen += 1
                self.ops[record.op] = self.ops.get(record.op, 0) + 1
                self.last_lsn = record.lsn
                yield record
        self.torn_bytes = total - self.clean_offset


class WriteAheadLog(object):
    """The append side of the log, plus checkpoint management.

    *sync_mode* selects when appends become durable:

    ``"commit"`` (default)
        fsync at every durability point (each autocommit statement and
        each COMMIT marker) — the strict, per-commit discipline;
    ``"batch"``
        fsync once every *batch_commits* durability points (and on
        checkpoint/close) — group commit, the throughput option; a
        crash may lose the tail of acknowledged-but-unsynced commits,
        which the overhead benchmark quantifies against ``"commit"``;
    ``"off"``
        never fsync (tests and benchmarks only).
    """

    def __init__(self, data_dir, sync_mode="commit", batch_commits=16,
                 start_lsn=1):
        if sync_mode not in ("commit", "batch", "off"):
            raise ValueError("unknown WAL sync mode %r" % sync_mode)
        self.data_dir = data_dir
        self.path = log_path(data_dir)
        self.sync_mode = sync_mode
        self.batch_commits = max(1, batch_commits)
        self._lock = make_rlock()
        #: next LSN to stamp
        self.next_lsn = start_lsn
        #: highest LSN known to be on stable storage (everything at or
        #: below it survives a crash); group commit keys off this
        self.synced_lsn = start_lsn - 1
        #: durability points (autocommit statements + commit markers)
        self.commits = 0
        #: how many of them an fsync has covered
        self._synced_commits = 0
        #: bookkeeping counters (benchmarks and tests read these)
        self.records_appended = 0
        self.fsync_calls = 0
        self.bytes_written = 0
        # unbuffered: every append reaches the OS immediately, so an
        # in-process "kill" loses nothing to user-space buffers and the
        # fsync boundary models exactly what a real power cut loses
        self._handle = open(self.path, "ab", buffering=0)
        #: the log file's length: where the next record lands
        self._size = os.path.getsize(self.path)
        self.closed = False

    # -- the append path ---------------------------------------------------

    def append(self, op, tx=0, sql=None, clock=0, rand=0, failed=False,
               durability_point=False):
        """Append one record; returns its LSN.

        With *durability_point* the record is a commit point: the log is
        fsynced per the sync mode before returning, so the caller may
        acknowledge the client.
        """
        with self._lock:
            if self.closed:
                raise WalError("WAL is closed")
            record = WalRecord(self.next_lsn, op, tx=tx, sql=sql,
                               clock=clock, rand=rand, failed=failed,
                               undone=failed)
            flush = self._write(record, durability_point)
        if flush:
            self.fsync()
        return record.lsn

    def append_record(self, record, durability_point=False):
        """Append an already-stamped :class:`WalRecord` verbatim: the
        payload bytes it carries, not a re-encoding of its fields.

        The replication apply path: a replica writes the records its
        primary shipped into its *own* log, keeping the primary's LSNs
        and bytes, so the replica's on-disk history is byte-for-byte
        the primary's, replayable by the ordinary recovery path — and
        promotion needs no log rewrite.  The log's LSN counter follows
        the record (``next_lsn`` becomes ``record.lsn + 1``); appending
        a record at or below the current frontier would shadow existing
        history and raises :class:`~repro.sqldb.errors.WalError`
        instead.
        """
        with self._lock:
            if self.closed:
                raise WalError("WAL is closed")
            if record.lsn < self.next_lsn:
                raise WalError(
                    "cannot append record LSN %d below the log frontier %d"
                    % (record.lsn, self.next_lsn)
                )
            flush = self._write(record, durability_point)
        if flush:
            self.fsync()
        return record.lsn

    def _write(self, record, durability_point):
        """Frame and write *record* (under the lock).  Returns whether
        the sync mode wants a flush for it — done by the caller, after
        the lock is released."""
        if faults_mod.ACTIVE is not None:
            faults_mod.fire("wal.append")
        payload = record.payload
        blob = _HEADER.pack(len(payload),
                            zlib.crc32(payload) & 0xFFFFFFFF) + payload
        self._handle.write(blob)
        self.next_lsn = record.lsn + 1
        self.records_appended += 1
        self.bytes_written += len(blob)
        self._size += len(blob)
        if not durability_point:
            return False
        self.commits += 1
        return self.sync_mode == "commit" or (
            self.sync_mode == "batch"
            and self.commits - self._synced_commits >= self.batch_commits
        )

    def fsync(self):
        """Flush buffered appends to stable storage.  The lock is not
        held across the system call (unless the caller holds it, as
        checkpoint and close do), so appends and frontier reads go on
        meanwhile: the call vouches for what was appended before it
        started, and syncs a duplicate of the descriptor, which a
        concurrent log rotation cannot close."""
        with self._lock:
            if self.closed:
                return
            if faults_mod.ACTIVE is not None:
                faults_mod.fire("wal.fsync")
            self._handle.flush()
            target = self.next_lsn - 1
            commits = self.commits
            fd = os.dup(self._handle.fileno()) \
                if self.sync_mode != "off" else None
        if fd is not None:
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        with self._lock:
            self.fsync_calls += 1
            self._synced_commits = max(self._synced_commits, commits)
            self.synced_lsn = max(self.synced_lsn, target)

    def sync_to(self, lsn):
        """Group commit: make every record up to *lsn* durable.

        One fsync covers every append that happened before it, so N
        concurrent committers asking for overlapping horizons pay for a
        single flush — the caller that arrives after a winner's fsync
        already covered its LSN pays nothing at all.  Returns ``True``
        when this call actually flushed, ``False`` when the horizon was
        already durable (the coalesced case the throughput bench
        counts).
        """
        with self._lock:
            if self.closed or lsn <= self.synced_lsn:
                return False
        self.fsync()
        return True

    @property
    def last_lsn(self):
        """LSN of the most recently appended record (0 when empty)."""
        with self._lock:
            return self.next_lsn - 1

    def frontier(self):
        """``(lsn, offset)``: the newest LSN appended and the log length
        after it — the cut a checkpoint image is stamped with, read
        while the image is snapshotted (:meth:`write_checkpoint`)."""
        with self._lock:
            return self.next_lsn - 1, self._size

    @property
    def pending_unsynced_commits(self):
        """Durability points appended but not yet fsynced.

        Always 0 in ``commit`` mode (every durability point syncs
        inline).  In ``batch`` mode this is the group-commit backlog —
        the acknowledged commits a crash right now would lose.  Clean
        shutdown (:meth:`close`) and :meth:`write_checkpoint` both
        drain it; :meth:`abandon` discards it, which is the point of
        the crash path.
        """
        with self._lock:
            return self.commits - self._synced_commits

    # -- checkpoints -------------------------------------------------------

    def write_checkpoint(self, state, cut):
        """Durably write *state* as the checkpoint, then rotate the log.

        *state* must be a JSON-serializable dict; this method stamps it
        with the LSN of *cut* — the :meth:`frontier` read while *state*
        was snapshotted, never one read afterwards — and writes it as
        one framed, compressed image (module docstring).  The sequence
        is crash-safe at every step:

        1. the new checkpoint lands in a tmp file and replaces the old
           one atomically (a kill mid-write leaves the old one valid);
        2. only after the replace is fsynced does the log rotate (a
           kill in between leaves stale records the replay watermark
           skips).  Rotation drops the log up to the cut; records
           appended after it — the image does not hold them — move to
           the front of a fresh log, swapped in the same tmp + replace
           way.

        Returns the checkpoint LSN.
        """
        with self._lock:
            if faults_mod.ACTIVE is not None:
                faults_mod.fire("wal.checkpoint")
            self.fsync()
            lsn, offset = cut
            body = dict(state)
            body["lsn"] = lsn
            # encoded once: the bytes the CRC covers are the bytes on disk
            packed = zlib.compress(
                json.dumps(body, sort_keys=True,
                           separators=(",", ":")).encode("utf-8"),
                _IMAGE_LEVEL)
            self._replace_file(
                checkpoint_path(self.data_dir),
                _IMAGE_MAGIC + _HEADER.pack(
                    len(packed), zlib.crc32(packed) & 0xFFFFFFFF) + packed)
            self._rotate(offset)
            return lsn

    def _replace_file(self, target, data):
        """Make *data* the file *target*: tmp file, fsync, replace."""
        tmp = target + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.sync_mode != "off":
                os.fsync(handle.fileno())
        os.replace(tmp, target)

    def _rotate(self, offset):
        """Drop the log's first *offset* bytes (what the checkpoint
        holds), keeping the records appended after them."""
        self._handle.close()
        tail = b""
        if offset < self._size:
            with open(self.path, "rb") as handle:
                handle.seek(offset)
                tail = handle.read()
        if tail:
            self._replace_file(self.path, tail)
            self.bytes_written += len(tail)
        else:
            with open(self.path, "wb"):
                pass  # truncate
        self._size = len(tail)
        self._handle = open(self.path, "ab", buffering=0)

    def close(self):
        """Flush, fsync and release the log handle (clean shutdown)."""
        with self._lock:
            if self.closed:
                return
            self.fsync()
            self._handle.close()
            self.closed = True

    def abandon(self):
        """Drop the log handle *without* syncing — the crash path.

        Used by restart simulation: whatever reached the OS stays,
        nothing else is made durable, exactly as if the process died.
        """
        with self._lock:
            if self.closed:
                return
            try:
                self._handle.close()
            except OSError:
                pass
            self.closed = True

    def stats_dict(self):
        with self._lock:
            return {
                "next_lsn": self.next_lsn,
                "synced_lsn": self.synced_lsn,
                "records_appended": self.records_appended,
                "commits": self.commits,
                "fsync_calls": self.fsync_calls,
                "bytes_written": self.bytes_written,
                "sync_mode": self.sync_mode,
            }

    def __repr__(self):
        return "WriteAheadLog(%r, next_lsn=%d, %s)" % (
            self.path, self.next_lsn, self.sync_mode
        )


def load_checkpoint(data_dir):
    """The checkpoint body for *data_dir*, or ``None`` when absent.

    A checkpoint that is cut short, fails its CRC or does not decode is
    worse than none — the full catalog snapshot cannot be trusted — so
    it raises :class:`WalCorruptionError` instead of being silently
    skipped.  Length and CRC are checked on the bytes as read, before
    anything is decompressed.
    """
    path = checkpoint_path(data_dir)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    if data.startswith(b"{"):
        return _load_text_checkpoint(path, data)
    start = len(_IMAGE_MAGIC) + _HEADER.size
    if len(data) < start or not data.startswith(_IMAGE_MAGIC):
        raise WalCorruptionError(
            "checkpoint file %r has an unexpected layout" % path
        )
    length, crc = _HEADER.unpack_from(data, len(_IMAGE_MAGIC))
    packed = data[start:]
    if length != len(packed):
        raise WalCorruptionError(
            "checkpoint file %r holds %d image bytes, its header says %d"
            % (path, len(packed), length)
        )
    if (zlib.crc32(packed) & 0xFFFFFFFF) != crc:
        raise WalCorruptionError(
            "checkpoint file %r fails its checksum" % path
        )
    try:
        return json.loads(zlib.decompress(packed).decode("utf-8"))
    except (zlib.error, ValueError) as exc:
        raise WalCorruptionError(
            "checkpoint file %r does not decode: %s" % (path, exc)
        )


def _load_text_checkpoint(path, data):
    """The body of a checkpoint in the JSON-text layout earlier versions
    wrote: ``{"crc": …, "body": …}``, the CRC over the body re-encoded
    with sorted keys (which is why this layout pays a second encode)."""
    try:
        document = json.loads(data.decode("utf-8"))
        body = document["body"]
        crc = document["crc"]
    except ValueError as exc:
        raise WalCorruptionError(
            "checkpoint file %r is not valid JSON: %s" % (path, exc)
        )
    except (KeyError, TypeError):
        raise WalCorruptionError(
            "checkpoint file %r has an unexpected layout" % path
        )
    blob = json.dumps(body, sort_keys=True)
    if (zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF) != crc:
        raise WalCorruptionError(
            "checkpoint file %r fails its checksum" % path
        )
    return body


def truncate_log(path, clean_offset):
    """Cut a torn/corrupt tail off the log (recovery's cleanup step)."""
    with open(path, "r+b") as handle:
        handle.truncate(clean_offset)
        handle.flush()
        os.fsync(handle.fileno())


# -- raw byte access (crash simulation) ---------------------------------------
#
# The crash-point sweep needs the log as bytes (to kill the engine at
# every byte boundary) and needs to plant truncated logs in victim
# directories.  It goes through these helpers because *only this module*
# may touch WAL files directly — the lint suite enforces that.

def read_log_bytes(path):
    """The raw bytes of the log at *path* (empty when absent)."""
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as handle:
        return handle.read()


def write_log_bytes(path, data):
    """Write *data* verbatim as a log file (crash-simulation setup)."""
    with open(path, "wb") as handle:
        handle.write(data)


def _intact_payloads(data):
    """Yield ``(payload, end_offset)`` for every frame in *data* up to
    the first damaged or partial one."""
    offset = 0
    total = len(data)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if length > MAX_RECORD_BYTES or end > total:
            return
        payload = data[offset + _HEADER.size:end]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            return
        yield payload, end
        offset = end


def iter_frames(data):
    """Yield ``(record, end_offset)`` for every intact frame in *data*.

    Stops at the first damaged or partial frame (callers feed it known-
    clean golden logs; use :func:`scan_log` for real recovery).
    """
    for payload, end in _intact_payloads(data):
        try:
            record = WalRecord.from_payload(payload)
        except ValueError:
            return
        yield record, end


def iter_payloads(data, after_lsn=0):
    """Yield ``(lsn, payload)`` for every intact frame in *data* whose
    LSN is above *after_lsn*.  The LSN is read from its fixed place and
    nothing is decoded: a ship round sends a live log's bytes, and the
    replica decodes what arrived once it has checked it.  Stops where
    :func:`iter_frames` does.
    """
    for payload, _end in _intact_payloads(data):
        try:
            lsn = payload_lsn(payload)
        except ValueError:
            return
        if lsn > after_lsn:
            yield lsn, payload
