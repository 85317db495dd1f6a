"""Paged storage: checksummed pages, doublewrite, buffer pool, scrubber.

This module owns **all table-data file I/O** (a lint gate enforces it,
the same discipline :mod:`repro.sqldb.wal` applies to the WAL files).
Three files live in a data directory:

``pages.db`` (the *home* file)
    Fixed-size slotted pages, each carrying a CRC32 over the **entire**
    page (header-sans-crc + payload + padding, so any single bit flip is
    detectable), the page's LSN, its own page number and a magic.  The
    home file is only ever written during a checkpoint, so between
    checkpoints it is exactly the last checkpoint's image — which is
    what lets recovery replay the WAL's *logical* statements on top of
    it without double-applying anything.

``doublewrite.db``
    Torn-write protection.  A checkpoint first writes every dirty page
    image here, seals the batch with an id + CRC footer-at-offset-0 and
    fsyncs, and only then lets the checkpoint JSON reference the batch
    and the home writes begin.  Recovery applies the doublewrite copy
    over the home file **only when the sealed batch id matches the id
    the surviving checkpoint references** — whichever of the two files
    a crash tore, the other reconstructs a consistent home image:

    * crash before the seal fsync → checkpoint JSON still references
      the *previous* batch, doublewrite is ignored, home is untouched;
    * crash after the seal but before the JSON replace → same;
    * crash during the home writes → JSON references this batch, every
      torn home page is repaired from its doublewrite copy.

``spill.db``
    Steal support.  Evicting a *dirty* page between checkpoints must
    not touch the home file (see above), so dirty evictions spill here
    instead; a reload prefers the spill copy.  The pool steals only
    when every unpinned frame is dirty, so this file sees the pages of
    a working set that outgrows the pool between checkpoints, not the
    leaf a write left beside a scan.  The file is volatile by design:
    recovery ignores it and the next checkpoint clears it.

Every dirty frame and every spill copy carries a **version**, fresh at
each change.  A checkpoint takes its page images at the cut and homes
them while statements run again, so it settles (marks clean, drops the
spill copy of) only what is still at the version its image was taken
from: a page changed after the cut stays dirty for the next one.

The three ``pager.read`` / ``pager.write`` / ``pager.fsync`` fault
sites wrap every raw I/O with a bounded retry (backoff charged to the
virtual :data:`repro.core.resilience.HOOK_CLOCK`, never a real sleep)
before escalating as :class:`~repro.sqldb.errors.PagerError` into the
fail-closed containment boundary.

:class:`BufferPool` caches decoded page nodes with clean-first clock
eviction and pin counts — eviction **refuses** pinned pages (hard error
when every frame is pinned, never a silent unpin).  :class:`Scrubber`
walks the reachable (checkpointed) pages a few per virtual tick,
quarantines checksum mismatches and repairs them — doublewrite copy
first, then a clean resident frame, then WAL redo, then a caught-up
replica — and by construction never rewrites a page whose checksum
verifies (``false_repairs`` stays 0).
"""

import itertools
import json
import os
import struct
import zlib

from repro import faults as faults_mod
from repro.core.resilience import HOOK_CLOCK, make_rlock
from repro.sqldb.errors import PageCorruptionError, PagerError

#: page header: magic u32 | page_no u32 | lsn u64 | payload_len u32 | crc u32
_HEADER = struct.Struct("<IIQII")

#: doublewrite seal: magic u32 | batch u64 | count u32 | crc u32
_DW_SEAL = struct.Struct("<IQII")

#: doublewrite entry prefix: page_no u32 (a full page follows)
_DW_ENTRY = struct.Struct("<I")

PAGE_MAGIC = 0x53455054  # "SEPT"
DW_MAGIC = 0x53455044    # "SEPD"

DEFAULT_PAGE_SIZE = 4096

#: I/O attempts per operation before escalating fail-closed
IO_ATTEMPTS = 3

#: virtual seconds charged per retry (doubled each attempt)
IO_BACKOFF = 0.01

#: cold pages the scrubber verifies per virtual tick
SCRUB_PAGES_PER_TICK = 2

#: file names inside a data directory
PAGES_NAME = "pages.db"
DOUBLEWRITE_NAME = "doublewrite.db"
SPILL_NAME = "spill.db"

#: version stamps of frames and spill copies (``next`` is atomic)
_VERSIONS = itertools.count(1)


def pages_path(data_dir):
    return os.path.join(data_dir, PAGES_NAME)


def doublewrite_path(data_dir):
    return os.path.join(data_dir, DOUBLEWRITE_NAME)


def spill_path(data_dir):
    return os.path.join(data_dir, SPILL_NAME)


class SimulatedCrash(BaseException):
    """Raised by a planted crash hook mid-page-write (crash sweeps).

    Deliberately *not* an :class:`Exception`: nothing in the engine may
    catch-and-wrap it — the sweep must observe the process exactly as a
    power cut would leave it."""


def encode_page(page_no, payload, lsn, page_size):
    """One full page: header + payload + zero padding, CRC over all of
    it (with the CRC field itself zeroed), so a bit flip anywhere in
    the page — header, payload or padding — fails verification."""
    budget = page_size - _HEADER.size
    if len(payload) > budget:
        raise PagerError(
            "payload of %d bytes exceeds the %d-byte page budget"
            % (len(payload), budget)
        )
    head = _HEADER.pack(PAGE_MAGIC, page_no, lsn, len(payload), 0)
    page = head + payload + b"\x00" * (budget - len(payload))
    crc = zlib.crc32(page) & 0xFFFFFFFF
    return (_HEADER.pack(PAGE_MAGIC, page_no, lsn, len(payload), crc)
            + page[_HEADER.size:])


def verify_page(data, page_no, page_size):
    """True when *data* is an intact page for *page_no*."""
    if len(data) != page_size:
        return False
    try:
        magic, stored_no, _lsn, length, crc = _HEADER.unpack_from(data, 0)
    except struct.error:
        return False
    if magic != PAGE_MAGIC or stored_no != page_no:
        return False
    if length > page_size - _HEADER.size:
        return False
    zeroed = (_HEADER.pack(magic, stored_no, _lsn, length, 0)
              + data[_HEADER.size:])
    return (zlib.crc32(zeroed) & 0xFFFFFFFF) == crc


def decode_page(data, page_no, page_size):
    """``(lsn, payload)`` of an intact page, or raise
    :class:`PageCorruptionError`."""
    if not verify_page(data, page_no, page_size):
        raise PageCorruptionError(
            "page %d fails its checksum" % page_no, page_no=page_no
        )
    _magic, _no, lsn, length, _crc = _HEADER.unpack_from(data, 0)
    return lsn, data[_HEADER.size:_HEADER.size + length]


class Pager(object):
    """Raw page I/O over the three storage files of one data directory.

    Page allocation (``page_count`` high-water mark + freelist) is
    volatile here; the engine persists it in the checkpoint and feeds
    it back through :meth:`set_allocation` during recovery.
    """

    def __init__(self, data_dir, page_size=DEFAULT_PAGE_SIZE, sync=True):
        self.data_dir = data_dir
        self.page_size = page_size
        self.sync = sync
        self._lock = make_rlock()
        os.makedirs(data_dir, exist_ok=True)
        self._home = self._open(pages_path(data_dir))
        self._dw = self._open(doublewrite_path(data_dir))
        self._spill = self._open(spill_path(data_dir))
        # page 0 is reserved so 0 can mean "no page" in tree links
        # (leaf chains end with n == 0, an empty tree has root None);
        # the home file's first page_size bytes stay zeroed
        self.page_count = 1
        self.freelist = []
        #: page_no -> spill slot (volatile, cleared at checkpoint)
        self._spill_slots = {}
        #: page_no -> version of its spill copy
        self._spill_versions = {}
        self._spill_next = 0
        self.closed = False
        # counters (Septic.status / benches read these)
        self.reads = 0
        self.writes = 0
        self.fsyncs = 0
        self.io_retries = 0
        self.io_escalations = 0
        self.backoff_seconds = 0.0
        #: every raw write issued (home, doublewrite and spill) — the
        #: crash sweep's kill-point coordinate system
        self.raw_writes = 0
        #: ``(write_index, byte_offset)`` one-shot crash hook, or None
        self._crash_plan = None
        self.crashed = False

    @staticmethod
    def _open(path):
        if not os.path.exists(path):
            with open(path, "wb"):
                pass
        return open(path, "r+b", buffering=0)

    @property
    def payload_budget(self):
        return self.page_size - _HEADER.size

    # -- crash simulation --------------------------------------------------

    def plant_crash(self, write_index, byte_offset):
        """Arm a one-shot kill: the *write_index*-th raw write from now
        writes only *byte_offset* of its bytes, then raises
        :class:`SimulatedCrash` (the sweep's mid-flush power cut)."""
        self._crash_plan = (self.raw_writes + write_index, byte_offset)

    def _raw_write(self, handle, offset, data):
        index = self.raw_writes
        self.raw_writes += 1
        plan = self._crash_plan
        if plan is not None and index == plan[0]:
            self._crash_plan = None
            self.crashed = True
            cut = max(0, min(plan[1], len(data)))
            if cut:
                handle.seek(offset)
                handle.write(data[:cut])
            raise SimulatedCrash(
                "planted crash at raw write %d (offset %d of %d bytes)"
                % (index, cut, len(data))
            )
        handle.seek(offset)
        handle.write(data)

    # -- the retry shell over every raw I/O --------------------------------

    def _io(self, site, operation):
        """Run *operation* under *site*'s fault hook with bounded
        retry-with-backoff; transient faults (OSError or an injected
        flaky fault) are retried, everything past the budget escalates
        as :class:`PagerError` — fail closed, never guess."""
        attempt = 0
        while True:
            attempt += 1
            try:
                if faults_mod.ACTIVE is not None:
                    if site == "pager.read":
                        faults_mod.fire("pager.read")
                    elif site == "pager.write":
                        faults_mod.fire("pager.write")
                    else:
                        faults_mod.fire("pager.fsync")
                return operation()
            except (OSError, faults_mod.InjectedFault) as exc:
                if attempt >= IO_ATTEMPTS:
                    self.io_escalations += 1
                    raise PagerError(
                        "pager I/O at %s failed after %d attempts "
                        "(%s: %s)" % (site, attempt,
                                      type(exc).__name__, exc)
                    )
                self.io_retries += 1
                backoff = IO_BACKOFF * (2 ** (attempt - 1))
                self.backoff_seconds += backoff
                HOOK_CLOCK.advance(backoff)

    # -- allocation --------------------------------------------------------

    def allocate(self):
        with self._lock:
            if self.freelist:
                return self.freelist.pop()
            page_no = self.page_count
            self.page_count += 1
            return page_no

    def free(self, page_no):
        with self._lock:
            if page_no not in self.freelist:
                self.freelist.append(page_no)

    def set_allocation(self, page_count, freelist):
        with self._lock:
            self.page_count = max(1, page_count)
            self.freelist = [p for p in freelist if p != 0]

    # -- home file ---------------------------------------------------------

    def read_home_raw(self, page_no):
        """The raw on-disk bytes of home page *page_no* (zero-filled
        when the file is short — an unwritten page never verifies)."""
        offset = page_no * self.page_size

        def operation():
            self.reads += 1
            self._home.seek(offset)
            return self._home.read(self.page_size)

        with self._lock:
            data = self._io("pager.read", operation)
        if len(data) < self.page_size:
            data = data + b"\x00" * (self.page_size - len(data))
        return data

    def read_page(self, page_no):
        """``(lsn, payload)`` of home page *page_no* — raises
        :class:`PageCorruptionError` when the checksum fails."""
        data = self.read_home_raw(page_no)
        return decode_page(data, page_no, self.page_size)

    def write_page(self, page_no, payload, lsn):
        page = encode_page(page_no, payload, lsn, self.page_size)
        self.write_home_raw(page_no, page)

    def write_home_raw(self, page_no, page):
        offset = page_no * self.page_size

        def operation():
            self.writes += 1
            self._raw_write(self._home, offset, page)

        with self._lock:
            self._io("pager.write", operation)

    def fsync_home(self):
        def operation():
            self.fsyncs += 1
            self._home.flush()
            if self.sync:
                os.fsync(self._home.fileno())

        with self._lock:
            self._io("pager.fsync", operation)

    # -- doublewrite -------------------------------------------------------

    def write_doublewrite(self, images, batch_id):
        """Write *images* (``{page_no: page_bytes}``) as the sealed
        doublewrite batch *batch_id*.  The seal lands last, after the
        body is fsynced — an intact seal therefore proves an intact
        (individually checksummed) body."""
        page_nos = sorted(images)
        with self._lock:
            self._dw.truncate(0)
            offset = _DW_SEAL.size

            def body():
                self.writes += 1
                position = offset
                for page_no in page_nos:
                    entry = _DW_ENTRY.pack(page_no) + images[page_no]
                    self._raw_write(self._dw, position, entry)
                    position += len(entry)

            # the body is one retryable unit: a flaky fault mid-batch
            # rewrites the whole (unsealed, therefore ignorable) body
            self._io("pager.write", body)
            self._fsync_dw()
            seal = _DW_SEAL.pack(
                DW_MAGIC, batch_id, len(page_nos),
                self._seal_crc(batch_id, page_nos),
            )

            def footer():
                self.writes += 1
                self._raw_write(self._dw, 0, seal)

            self._io("pager.write", footer)
            self._fsync_dw()

    @staticmethod
    def _seal_crc(batch_id, page_nos):
        blob = struct.pack("<QI", batch_id, len(page_nos))
        blob += b"".join(_DW_ENTRY.pack(p) for p in page_nos)
        return zlib.crc32(blob) & 0xFFFFFFFF

    def _fsync_dw(self):
        def operation():
            self.fsyncs += 1
            self._dw.flush()
            if self.sync:
                os.fsync(self._dw.fileno())

        self._io("pager.fsync", operation)

    def load_doublewrite(self):
        """``(batch_id, {page_no: page_bytes})`` of the sealed batch,
        or ``None`` when the seal is missing, torn or fails its CRC —
        an unsealed batch is a crash artifact, not data."""
        with self._lock:
            def operation():
                self.reads += 1
                self._dw.seek(0)
                return self._dw.read()

            data = self._io("pager.read", operation)
        if len(data) < _DW_SEAL.size:
            return None
        magic, batch_id, count, crc = _DW_SEAL.unpack_from(data, 0)
        if magic != DW_MAGIC:
            return None
        entry_size = _DW_ENTRY.size + self.page_size
        if len(data) < _DW_SEAL.size + count * entry_size:
            return None
        page_nos = []
        images = {}
        offset = _DW_SEAL.size
        for _ in range(count):
            (page_no,) = _DW_ENTRY.unpack_from(data, offset)
            page = data[offset + _DW_ENTRY.size:offset + entry_size]
            page_nos.append(page_no)
            images[page_no] = page
            offset += entry_size
        if crc != self._seal_crc(batch_id, page_nos):
            return None
        # drop individually-damaged copies (bit rot inside the sealed
        # body): the page's own CRC is the authority
        for page_no in list(images):
            if not verify_page(images[page_no], page_no, self.page_size):
                del images[page_no]
        return batch_id, images

    def recover_home(self, batch_id):
        """Apply the sealed doublewrite batch over the home file iff
        its id equals *batch_id* (the id the surviving checkpoint
        references).  Returns ``(applied, torn_repaired)``: pages whose
        home copy differed and was rewritten, and — among those — pages
        whose home copy failed its checksum (a torn write)."""
        loaded = self.load_doublewrite()
        if loaded is None:
            return 0, 0
        sealed_batch, images = loaded
        if sealed_batch != batch_id:
            return 0, 0
        applied = torn = 0
        for page_no in sorted(images):
            image = images[page_no]
            home = self.read_home_raw(page_no)
            if home == image:
                continue
            if not verify_page(home, page_no, self.page_size):
                torn += 1
            self.write_home_raw(page_no, image)
            applied += 1
        if applied:
            self.fsync_home()
        return applied, torn

    # -- spill (steal) -----------------------------------------------------

    def has_spill(self, page_no):
        return page_no in self._spill_slots

    def spill_write(self, page_no, payload, lsn):
        page = encode_page(page_no, payload, lsn, self.page_size)
        with self._lock:
            slot = self._spill_slots.get(page_no)
            if slot is None:
                slot = self._spill_next
                self._spill_next += 1
                self._spill_slots[page_no] = slot
            self._spill_versions[page_no] = next(_VERSIONS)
            offset = slot * self.page_size

            def operation():
                self.writes += 1
                self._raw_write(self._spill, offset, page)

            self._io("pager.write", operation)

    def spill_read(self, page_no):
        with self._lock:
            slot = self._spill_slots[page_no]
            offset = slot * self.page_size

            def operation():
                self.reads += 1
                self._spill.seek(offset)
                return self._spill.read(self.page_size)

            data = self._io("pager.read", operation)
        return decode_page(data, page_no, self.page_size)

    def spill_images(self):
        """Current spill copies as ``{page_no: (lsn, payload)}``, and
        ``{page_no: version}`` of each — the checkpoint folds in spilled
        pages that are no longer resident."""
        images = {}
        with self._lock:
            for page_no in sorted(self._spill_slots):
                images[page_no] = self.spill_read(page_no)
            return images, dict(self._spill_versions)

    def settle_spill(self, versions):
        """Drop the spill copies still at the *versions* a checkpoint
        homed; the file is emptied once none is left."""
        with self._lock:
            for page_no, version in versions.items():
                if self._spill_versions.get(page_no) == version:
                    del self._spill_slots[page_no]
                    del self._spill_versions[page_no]
            if not self._spill_slots:
                self.clear_spill()

    def clear_spill(self):
        with self._lock:
            self._spill_slots = {}
            self._spill_versions = {}
            self._spill_next = 0
            self._spill.truncate(0)

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        with self._lock:
            if self.closed:
                return
            self.fsync_home()
            for handle in (self._home, self._dw, self._spill):
                handle.close()
            self.closed = True

    def abandon(self):
        """Drop the file handles without flushing — the crash path."""
        with self._lock:
            if self.closed:
                return
            for handle in (self._home, self._dw, self._spill):
                try:
                    handle.close()
                except OSError:
                    pass
            self.closed = True

    def stats_dict(self):
        return {
            "page_size": self.page_size,
            "page_count": self.page_count,
            "free_pages": len(self.freelist),
            "reads": self.reads,
            "writes": self.writes,
            "fsyncs": self.fsyncs,
            "io_retries": self.io_retries,
            "io_escalations": self.io_escalations,
            "backoff_seconds": self.backoff_seconds,
            "spill_pages": len(self._spill_slots),
        }


class Frame(object):
    """One buffer-pool slot: a decoded page node plus its bookkeeping."""

    __slots__ = ("page_no", "node", "dirty", "pin_count", "ref", "lsn",
                 "version")

    def __init__(self, page_no, node, dirty, lsn):
        self.page_no = page_no
        self.node = node
        self.dirty = dirty
        self.pin_count = 0
        self.ref = True
        self.lsn = lsn
        self.version = next(_VERSIONS)


class BufferPool(object):
    """Pinned-page cache with clean-first clock (second-chance)
    eviction.

    Replacement prefers clean frames, as InnoDB's LRU does: a clean
    victim costs nothing, so while any unpinned frame is clean the
    clock passes over dirty ones.  Steal / no-force discipline: when
    every unpinned frame is dirty, evicting one first runs the WAL
    barrier (``wal_barrier``, set by the engine — flush the log so no
    page image can outrun its log records), then **spills** the page
    (never the home file, which must stay checkpoint-consistent); a
    commit never forces page writes.  Eviction skips pinned frames and
    raises :class:`PagerError` when every frame is pinned — a pinned
    page is a promise, not a hint.
    """

    def __init__(self, pager, capacity=64, encoder=None, decoder=None):
        self.pager = pager
        self.capacity = max(1, capacity)
        self.encoder = encoder
        self.decoder = decoder
        #: callable run before a dirty steal (or None)
        self.wal_barrier = None
        self._frames = {}
        #: the clock: every resident page once, in admission order
        self._ring = []
        self._hand = 0
        #: resident frames that are dirty
        self._dirty = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_flushes = 0
        self.pin_denials = 0

    def __contains__(self, page_no):
        return page_no in self._frames

    def frame(self, page_no):
        return self._frames.get(page_no)

    def fetch(self, page_no):
        """The decoded node of *page_no*, loading (spill copy first,
        then home) on a miss."""
        frame = self._frames.get(page_no)
        if frame is not None:
            self.hits += 1
            frame.ref = True
            return frame.node
        self.misses += 1
        if self.pager.has_spill(page_no):
            lsn, payload = self.pager.spill_read(page_no)
            dirty = True    # the spill copy is ahead of the home copy
        else:
            lsn, payload = self.pager.read_page(page_no)
            dirty = False
        node = self.decoder(payload)
        self._admit(Frame(page_no, node, dirty, lsn))
        return node

    def new_page(self, node, lsn=0):
        """Allocate a fresh page for *node*; starts dirty."""
        page_no = self.pager.allocate()
        frame = Frame(page_no, node, True, lsn)
        self._admit(frame)
        return page_no

    def _admit(self, frame):
        while len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[frame.page_no] = frame
        self._ring.append(frame.page_no)
        if frame.dirty:
            self._dirty += 1

    def _evict_one(self):
        """Evict one unpinned frame, clean first.  While an unpinned
        clean frame is resident the hand passes over dirty frames as it
        passes over pinned ones, and second chance picks among the
        clean ones.  A dirty frame is stolen only when every unpinned
        frame is dirty: the dirty count says so at once when every frame
        is, one revolution that meets no unpinned clean frame says so
        when the clean ones are all pinned."""
        ring, frames = self._ring, self._frames
        size = len(ring)
        steal = self._dirty >= size
        clean_seen = False
        for step in range(3 * size):
            if step == size and not clean_seen:
                steal = True
            if self._hand >= size:
                self._hand = 0
            frame = frames[ring[self._hand]]
            if frame.pin_count > 0 or (frame.dirty and not steal):
                self._hand += 1
                continue
            clean_seen = True
            if frame.ref:
                frame.ref = False
                self._hand += 1
                continue
            del ring[self._hand]
            del frames[frame.page_no]
            self._evict_frame(frame)
            return
        self.pin_denials += 1
        raise PagerError(
            "buffer pool exhausted: all %d frames are pinned"
            % len(self._frames)
        )

    def _evict_frame(self, frame):
        self.evictions += 1
        if frame.dirty:
            self._dirty -= 1
            # steal: the WAL barrier first (no page image may outrun
            # its log records), then spill — never the home file
            if self.wal_barrier is not None:
                self.wal_barrier()
            payload = self.encoder(frame.node)
            self.pager.spill_write(frame.page_no, payload, frame.lsn)
            self.dirty_flushes += 1

    def pin(self, page_no):
        frame = self._frames.get(page_no)
        if frame is None:
            raise PagerError("cannot pin page %d: not resident" % page_no)
        frame.pin_count += 1

    def unpin(self, page_no):
        frame = self._frames.get(page_no)
        if frame is None:
            return
        frame.pin_count = max(0, frame.pin_count - 1)

    def mark_dirty(self, page_no, lsn=0):
        frame = self._frames.get(page_no)
        if frame is None:
            raise PagerError(
                "cannot dirty page %d: not resident" % page_no
            )
        if not frame.dirty:
            frame.dirty = True
            self._dirty += 1
        frame.version = next(_VERSIONS)
        if lsn > frame.lsn:
            frame.lsn = lsn

    def drop(self, page_no):
        """Forget a frame without writing (the page was freed).  It
        leaves the clock too: a page freed and reallocated while
        resident is listed once, not once per allocation."""
        frame = self._frames.pop(page_no, None)
        if frame is None:
            return
        if frame.dirty:
            self._dirty -= 1
        index = self._ring.index(page_no)
        del self._ring[index]
        if index < self._hand:
            self._hand -= 1

    def dirty_images(self):
        """``{page_no: (lsn, payload)}`` of every dirty resident frame,
        and ``{page_no: version}`` of each."""
        images, versions = {}, {}
        for page_no in sorted(self._frames):
            frame = self._frames[page_no]
            if frame.dirty:
                images[page_no] = (frame.lsn, self.encoder(frame.node))
                versions[page_no] = frame.version
        return images, versions

    def settle(self, versions):
        """Mark clean the frames still at the *versions* a checkpoint
        homed; one changed since stays dirty."""
        for page_no, version in versions.items():
            frame = self._frames.get(page_no)
            if frame is not None and frame.version == version:
                frame.dirty = False
                self._dirty -= 1

    def clear(self):
        self._frames = {}
        self._ring = []
        self._hand = 0
        self._dirty = 0

    def pinned_pages(self):
        return sorted(p for p, f in self._frames.items() if f.pin_count)

    def stats_dict(self):
        return {
            "capacity": self.capacity,
            "pages_cached": len(self._frames),
            "pinned": len(self.pinned_pages()),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "dirty_flushes": self.dirty_flushes,
            "pin_denials": self.pin_denials,
        }


class Scrubber(object):
    """Online corruption scrubber: a few cold pages per virtual tick.

    The scan set is the reachable page set of the last checkpoint (the
    engine rebuilds it after every checkpoint, tagging each page with
    its owning table).  A page whose home bytes fail verification is
    counted, quarantined and repaired from the first source that can
    produce an intact image:

    1. the sealed **doublewrite** copy of the current batch (the
       checkpoint image — safe to write home in place);
    2. a **clean resident frame** (its content *is* the checkpoint
       image, because the home file only changes at checkpoints; a
       dirty frame is ahead of the checkpoint and must never be copied
       home in place — that would double-apply WAL replay);
    3. **WAL redo** (``redo_source``): the engine rebuilds the owning
       table from the checkpoint's logical rows + the log tail and
       forces a checkpoint, re-homing every page atomically;
    4. a caught-up **replica** (``replica_sources``): same rebuild,
       rows fetched from the replica instead of local redo.  A paged
       ``ReplicaSet`` installs this source on its primary itself, and
       the engine hands its sources to every page store a recovery
       opens, so they survive ``Database.reopen()``.

    A page that verifies is never rewritten — ``false_repairs`` counts
    the (structurally impossible) violations and the corruption sweep
    asserts it stays 0.  No wall clock anywhere: progress is driven
    exclusively by explicit :meth:`tick` calls (a lint gate keeps
    ``time``/``datetime`` out of this module).
    """

    def __init__(self, pager, pool):
        self.pager = pager
        self.pool = pool
        self.pages_per_tick = SCRUB_PAGES_PER_TICK
        #: page_no -> owning table name (the scan set)
        self._scan_map = {}
        self._scan_list = []
        self._cursor = 0
        self.quarantined = set()
        self.ticks = 0
        self.pages_scanned = 0
        self.detected = 0
        self.repairs = 0
        self.false_repairs = 0
        self.repairs_by_source = {}
        #: callable(page_no, table_name) -> bool (engine WAL-redo rebuild)
        self.redo_source = None
        #: callables like redo_source, tried in order after it
        self.replica_sources = []

    def set_scan_set(self, page_map):
        """Replace the scan set (``{page_no: table_name}``)."""
        self._scan_map = dict(page_map)
        self._scan_list = sorted(self._scan_map)
        if self._cursor >= len(self._scan_list):
            self._cursor = 0
        self.quarantined &= set(self._scan_list)

    def tick(self, ticks=1):
        """Advance the scrub cursor *ticks* virtual ticks; returns the
        number of corruptions detected during them."""
        found = 0
        for _ in range(ticks):
            self.ticks += 1
            for _ in range(min(self.pages_per_tick,
                               len(self._scan_list))):
                found += self._scan_next()
        return found

    def scan_all(self):
        """One full pass over the scan set (tests and recovery audits)."""
        found = 0
        for _ in range(len(self._scan_list)):
            found += self._scan_next()
        return found

    def _scan_next(self):
        if not self._scan_list:
            return 0
        if self._cursor >= len(self._scan_list):
            self._cursor = 0
        page_no = self._scan_list[self._cursor]
        self._cursor += 1
        self.pages_scanned += 1
        raw = self.pager.read_home_raw(page_no)
        if verify_page(raw, page_no, self.pager.page_size):
            self.quarantined.discard(page_no)
            return 0
        fresh = page_no not in self.quarantined
        if fresh:
            self.detected += 1
            self.quarantined.add(page_no)
        self.repair(page_no)
        return 1 if fresh else 0

    def repair(self, page_no):
        """Attempt the repair chain for a quarantined page.  Returns
        the source name on success, ``None`` while it stays
        quarantined."""
        raw = self.pager.read_home_raw(page_no)
        if verify_page(raw, page_no, self.pager.page_size):
            # never rewrite an intact page: that is the false-repair
            # class the corruption sweep pins at zero
            self.false_repairs += 1
            self.quarantined.discard(page_no)
            return None
        source = self._try_sources(page_no)
        if source is not None:
            self.repairs += 1
            self.repairs_by_source[source] = (
                self.repairs_by_source.get(source, 0) + 1
            )
            self.quarantined.discard(page_no)
        return source

    def _try_sources(self, page_no):
        loaded = self.pager.load_doublewrite()
        if loaded is not None:
            _batch, images = loaded
            image = images.get(page_no)
            if image is not None:
                self.pager.write_home_raw(page_no, image)
                self.pager.fsync_home()
                return "doublewrite"
        frame = self.pool.frame(page_no)
        if frame is not None and not frame.dirty:
            payload = self.pool.encoder(frame.node)
            self.pager.write_page(page_no, payload, frame.lsn)
            self.pager.fsync_home()
            return "buffer_pool"
        table = self._scan_map.get(page_no)
        if self.redo_source is not None:
            try:
                if self.redo_source(page_no, table):
                    return "wal_redo"
            except Exception:
                pass    # fall through to the replica sources
        for provider in self.replica_sources:
            try:
                if provider(page_no, table):
                    return "replica"
            except Exception:
                continue
        return None

    def stats_dict(self):
        return {
            "ticks": self.ticks,
            "pages_scanned": self.pages_scanned,
            "scan_set": len(self._scan_list),
            "detected": self.detected,
            "quarantined": len(self.quarantined),
            "scrub_repairs": self.repairs,
            "false_repairs": self.false_repairs,
            "repairs_by_source": dict(self.repairs_by_source),
        }


class PageStore(object):
    """One data directory's paged-storage stack: pager + pool +
    scrubber, plus the checkpoint-side batch protocol the engine
    drives.  The ``encoder``/``decoder`` pair (normally
    :func:`repro.sqldb.btree.encode_node` / ``decode_node``) keeps this
    module free of any knowledge of what lives *inside* a page."""

    def __init__(self, data_dir, page_size=DEFAULT_PAGE_SIZE,
                 pool_pages=64, sync=True, encoder=None, decoder=None):
        self.pager = Pager(data_dir, page_size=page_size, sync=sync)
        self.pool = BufferPool(self.pager, capacity=pool_pages,
                               encoder=encoder, decoder=decoder)
        self.scrubber = Scrubber(self.pager, self.pool)
        #: doublewrite batch counter (persisted via the checkpoint)
        self.batch_id = 0

    @property
    def crashed(self):
        return self.pager.crashed

    def collect_images(self, lsn=None):
        """Every page image the next checkpoint must home: dirty
        resident frames win over their (older) spill copies; spilled
        pages no longer resident ride along.  With *lsn* the images are
        stamped with it (the checkpoint's log position — the page-LSN
        audit reads these back).

        Returns ``(images, taken)``: *taken* holds the version of every
        frame and spill copy an image was taken from, for
        :meth:`settle`."""
        images, spill_versions = self.pager.spill_images()
        resident, frame_versions = self.pool.dirty_images()
        images.update(resident)
        return {
            page_no: encode_page(
                page_no, payload,
                lsn if lsn is not None else page_lsn,
                self.pager.page_size,
            )
            for page_no, (page_lsn, payload) in images.items()
        }, (frame_versions, spill_versions)

    def checkpoint_begin(self, images):
        """Phase 1 (before the checkpoint JSON lands): write + seal the
        doublewrite batch.  Returns the batch id the JSON must carry.

        With no images nothing is written: the id still moves on, so
        the batch left sealed in the file — already home, and homed
        again by nothing this checkpoint writes — no longer matches the
        JSON and recovery leaves it alone."""
        self.batch_id += 1
        if images:
            self.pager.write_doublewrite(images, self.batch_id)
        return self.batch_id

    def checkpoint_finish(self, images):
        """Phase 2 (after the JSON landed): home the images and fsync."""
        for page_no in sorted(images):
            self.pager.write_home_raw(page_no, images[page_no])
        if images:
            self.pager.fsync_home()

    def settle(self, taken):
        """Phase 3 (the images are home): mark clean the frames, and
        drop the spill copies, still at the version *taken* from
        :meth:`collect_images` recorded — the caller excludes every
        statement meanwhile, so none changes a page between the check
        and the mark."""
        frame_versions, spill_versions = taken
        self.pager.settle_spill(spill_versions)
        self.pool.settle(frame_versions)

    def restore_allocation(self, state):
        self.pager.set_allocation(state.get("page_count", 0),
                                  state.get("freelist", []))
        self.batch_id = state.get("batch", 0)

    def free_page(self, page_no):
        self.pool.drop(page_no)
        self.pager.free(page_no)

    def close(self):
        self.pager.close()

    def abandon(self):
        self.pager.abandon()

    def stats_dict(self):
        stats = self.pool.stats_dict()
        stats["pager"] = self.pager.stats_dict()
        scrub = self.scrubber.stats_dict()
        stats["scrub_repairs"] = scrub["scrub_repairs"]
        stats["scrubber"] = scrub
        return stats


# -- raw byte access (crash + corruption simulation) --------------------------
#
# The corruption sweep needs to flip bits inside the home file and the
# crash sweep needs to inspect it; both go through these helpers because
# *only this module* may touch the page files directly — the lint suite
# enforces that, exactly as :mod:`repro.sqldb.wal` does for its files.

def read_pages_bytes(data_dir):
    path = pages_path(data_dir)
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as handle:
        return handle.read()


def flip_page_bit(data_dir, page_no, bit, page_size=DEFAULT_PAGE_SIZE):
    """Flip one bit of home page *page_no* in place (seeded corruption
    injection).  *bit* counts from the start of the page."""
    offset = page_no * page_size + (bit // 8)
    with open(pages_path(data_dir), "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        if not byte:
            return False
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ (1 << (bit % 8))]))
        handle.flush()
        os.fsync(handle.fileno())
    return True


def audit_pages(data_dir, page_size=DEFAULT_PAGE_SIZE):
    """Stream a per-page checksum/LSN audit of the home file: yields
    ``(page_no, ok, lsn)`` per page slot (``lsn`` is None for a damaged
    page) — the ``repro recover --verify --pages`` report body."""
    path = pages_path(data_dir)
    if not os.path.exists(path):
        return
    with open(path, "rb") as handle:
        handle.seek(page_size)      # page 0 is the reserved null slot
        page_no = 1
        while True:
            data = handle.read(page_size)
            if not data:
                return
            if len(data) < page_size:
                data = data + b"\x00" * (page_size - len(data))
            if verify_page(data, page_no, page_size):
                lsn = _HEADER.unpack_from(data, 0)[2]
                yield page_no, True, lsn
            else:
                yield page_no, False, None
            page_no += 1
