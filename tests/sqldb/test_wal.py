"""WAL mechanics: framing, torn tails, corruption, checkpoints, guards.

The durability layer's unit contract, tested below the engine: records
round-trip bit-exactly, a torn tail is a normal crash artifact (silently
truncated), mid-log damage is bit rot (loudly surfaced), checkpoints are
atomic at every step, and the hot path pays exactly one module-attribute
read when no WAL is attached.
"""

import copy
import json
import os
import struct
import threading
import zlib

import pytest

from repro import faults
from repro.benchlab.crashsweep import state_digest
from repro.sqldb import wal
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import SQLError, WalCorruptionError, WalError


def _fill(log):
    lsns = [
        log.append(wal.WalRecord.STMT, sql="INSERT INTO t (v) VALUES (1)",
                   clock=0, rand=0, durability_point=True),
        log.append(wal.WalRecord.BEGIN, tx=1),
        log.append(wal.WalRecord.STMT, tx=1, sql="UPDATE t SET v = 2",
                   clock=1, rand=0),
        log.append(wal.WalRecord.COMMIT, tx=1, durability_point=True),
    ]
    return lsns


class TestFraming(object):
    def test_records_round_trip(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        _fill(log)
        log.close()
        scan = wal.scan_log(wal.log_path(str(tmp_path)))
        assert [r.lsn for r in scan.records] == [1, 2, 3, 4]
        assert scan.records[0].op == wal.WalRecord.STMT
        assert scan.records[0].tx == 0
        assert scan.records[2].sql == "UPDATE t SET v = 2"
        assert scan.records[2].clock == 1
        assert scan.records[3].op == wal.WalRecord.COMMIT
        assert scan.torn_bytes == 0

    def test_lsns_strictly_increase(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path), start_lsn=7)
        lsns = _fill(log)
        log.close()
        assert lsns == [7, 8, 9, 10]
        assert log.last_lsn == 10

    def test_missing_log_scans_empty(self, tmp_path):
        scan = wal.scan_log(str(tmp_path / "absent.log"))
        assert scan.records == [] and scan.clean_offset == 0

    def test_failed_flag_round_trips(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        log.append(wal.WalRecord.STMT, sql="INSERT ...", failed=True,
                   durability_point=True)
        log.close()
        scan = wal.scan_log(wal.log_path(str(tmp_path)))
        assert scan.records[0].failed is True


class TestTornTail(object):
    def test_every_truncation_point_is_a_clean_prefix(self, tmp_path):
        """Cutting the log at ANY byte yields the records fully
        contained in the prefix — never an error, never a phantom."""
        log = wal.WriteAheadLog(str(tmp_path))
        _fill(log)
        log.close()
        path = wal.log_path(str(tmp_path))
        data = wal.read_log_bytes(path)
        boundaries = [end for _r, end in wal.iter_frames(data)]
        for offset in range(len(data) + 1):
            torn = str(tmp_path / "torn.log")
            wal.write_log_bytes(torn, data[:offset])
            scan = wal.scan_log(torn)
            expected = sum(1 for b in boundaries if b <= offset)
            assert len(scan.records) == expected
            assert scan.clean_offset <= offset
            assert scan.torn_bytes == offset - scan.clean_offset

    @pytest.mark.parametrize("chunk_size", [1, 8, 13, 64])
    def test_stream_frames_the_same_whatever_its_chunk_size(
            self, tmp_path, chunk_size):
        """Records straddle read boundaries at every alignment; the
        byte-at-a-time reference (``iter_frames``) says what is there."""
        log = wal.WriteAheadLog(str(tmp_path))
        _fill(log)
        log.close()
        data = wal.read_log_bytes(wal.log_path(str(tmp_path)))
        torn = str(tmp_path / "torn.log")
        for offset in range(len(data) + 1):
            wal.write_log_bytes(torn, data[:offset])
            stream = wal.LogStream(torn, chunk_size=chunk_size)
            frames = list(wal.iter_frames(data[:offset]))
            assert [r.lsn for r in stream] == [r.lsn for r, _end in frames]
            assert stream.clean_offset == (frames[-1][1] if frames else 0)
            assert stream.torn_bytes == offset - stream.clean_offset
            assert stream.records_seen == sum(stream.ops.values()) \
                == len(frames)
        # and mid-log damage is still told from a torn tail
        flipped = bytearray(data)
        flipped[frames[0][1] + 12] ^= 0x40
        wal.write_log_bytes(torn, bytes(flipped))
        stream = wal.LogStream(torn, chunk_size=chunk_size)
        with pytest.raises(WalCorruptionError) as info:
            list(stream)
        assert info.value.offset == stream.clean_offset == frames[0][1]

    def test_truncate_log_removes_the_tail(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        _fill(log)
        log.close()
        path = wal.log_path(str(tmp_path))
        data = wal.read_log_bytes(path)
        wal.write_log_bytes(path, data + b"\x07\x03")  # torn garbage
        scan = wal.scan_log(path)
        assert scan.torn_bytes == 2
        wal.truncate_log(path, scan.clean_offset)
        assert wal.read_log_bytes(path) == data


class TestCommitGrouper(object):
    def test_units_close_at_durability_points(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        _fill(log)                                      # 1: stmt; 2-4: tx 1
        log.append(wal.WalRecord.BEGIN, tx=2)           # 5
        log.append(wal.WalRecord.STMT, tx=2, sql="A")   # 6
        log.append(wal.WalRecord.BEGIN, tx=3)           # 7
        log.append(wal.WalRecord.ROLLBACK, tx=2)        # 8
        log.append(wal.WalRecord.COMMIT, tx=3,
                   durability_point=True)               # 9: empty unit
        log.append(wal.WalRecord.BEGIN, tx=4)           # 10
        log.append(wal.WalRecord.STMT, tx=4, sql="B")   # 11: never closed
        log.close()
        units = wal.CommitGrouper()
        closed = {}
        for record in wal.scan_log(wal.log_path(str(tmp_path))).records:
            unit = units.feed(record)
            if unit is not None:
                closed[record.lsn] = [held.lsn for held in unit]
        assert closed == {1: [1], 4: [3], 9: []}
        assert (units.committed, units.rolled_back) == (2, 1)
        assert units.commit_lsn == 9
        assert {tx: [held.lsn for held in held_records]
                for tx, held_records in units.open_tx.items()} == {4: [11]}


class TestMidLogCorruption(object):
    def test_bit_flip_with_data_after_raises(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        _fill(log)
        log.close()
        path = wal.log_path(str(tmp_path))
        data = bytearray(wal.read_log_bytes(path))
        boundaries = [end for _r, end in wal.iter_frames(bytes(data))]
        # flip one payload byte of the SECOND record (valid data follows)
        data[boundaries[0] + 12] ^= 0x40
        wal.write_log_bytes(path, bytes(data))
        with pytest.raises(WalCorruptionError) as info:
            wal.scan_log(path)
        assert info.value.offset == boundaries[0]
        assert [r.lsn for r in info.value.clean_records] == [1]
        assert isinstance(info.value, SQLError)  # a clear engine error

    def test_bit_flip_in_final_record_is_a_torn_tail(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        _fill(log)
        log.close()
        path = wal.log_path(str(tmp_path))
        data = bytearray(wal.read_log_bytes(path))
        data[-1] ^= 0x01
        wal.write_log_bytes(path, bytes(data))
        scan = wal.scan_log(path)  # no raise: a crash can explain this
        assert [r.lsn for r in scan.records] == [1, 2, 3]
        assert scan.torn_bytes > 0


class TestCheckpoint(object):
    def test_checkpoint_round_trip_and_rotation(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        _fill(log)
        lsn = log.write_checkpoint({"tables": [], "schema_version": 3})
        assert lsn == 4
        body = wal.load_checkpoint(str(tmp_path))
        assert body["lsn"] == 4 and body["schema_version"] == 3
        # rotated: the log is empty, new appends continue the LSN chain
        assert wal.read_log_bytes(wal.log_path(str(tmp_path))) == b""
        assert log.append(wal.WalRecord.STMT, sql="X",
                          durability_point=True) == 5
        log.close()

    def test_damaged_checkpoint_refuses_to_load(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        log.write_checkpoint({"tables": []})
        log.close()
        data = _read_image(tmp_path)
        # test-only: forging bit rot in the compressed bytes
        _write_image(tmp_path, data[:-3] + bytes([data[-3] ^ 0x04])
                     + data[-2:])
        with pytest.raises(WalCorruptionError):
            wal.load_checkpoint(str(tmp_path))
        # and in a checkpoint of the JSON-text layout
        body = json.loads(zlib.decompress(_unframe(data)[2]))
        _write_image(tmp_path, _text_layout(body).replace(b'"lsn"', b'"lsm"'))
        with pytest.raises(WalCorruptionError):
            wal.load_checkpoint(str(tmp_path))

    def test_missing_checkpoint_is_none(self, tmp_path):
        assert wal.load_checkpoint(str(tmp_path)) is None

    def test_image_is_the_checksummed_blob(self, tmp_path):
        """One encode: the CRC covers the compressed bytes exactly as
        they sit on disk, and they inflate to the compact body."""
        log = wal.WriteAheadLog(str(tmp_path))
        log.write_checkpoint({"tables": [{"name": "t", "rows": [[1, "é"]]}]})
        log.close()
        length, crc, packed = _unframe(_read_image(tmp_path))
        assert length == len(packed)
        assert crc == zlib.crc32(packed) & 0xFFFFFFFF
        body = wal.load_checkpoint(str(tmp_path))
        assert zlib.decompress(packed) == json.dumps(
            body, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert body["tables"][0]["rows"] == [[1, "é"]]

    def test_indented_checkpoint_of_the_parent_commit_recovers(self,
                                                               tmp_path):
        data_dir = str(tmp_path)
        database = Database()
        database.attach_wal(data_dir)
        conn = Connection(database)
        conn.query("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20))")
        conn.query("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
        database.checkpoint()
        conn.query("INSERT INTO t VALUES (3, 'three')")
        database.close()
        body = _as_column_dicts(wal.load_checkpoint(data_dir))
        _write_image(tmp_path, _text_layout(body, indent=1))
        assert wal.load_checkpoint(data_dir) == body
        recovered = Database.recover(data_dir)
        rows = Connection(recovered).query("SELECT id, v FROM t ORDER BY id")
        assert rows.rows == [(1, "one"), (2, "two"), (3, "three")]
        recovered.close()

    def test_torn_checkpoint_never_loads(self, tmp_path):
        """A cut anywhere in the image is refused, never half-read (the
        tmp + replace protocol keeps such a file from becoming *the*
        checkpoint; this is the second line)."""
        log = wal.WriteAheadLog(str(tmp_path))
        log.write_checkpoint({"tables": [{"name": "t", "rows": [[1, "x"]]}],
                              "schema_version": 2})
        log.close()
        data = _read_image(tmp_path)
        for cut in range(len(data)):
            _write_image(tmp_path, data[:cut])
            with pytest.raises(WalCorruptionError):
                wal.load_checkpoint(str(tmp_path))


# -- test-only access to the image bytes (forging damage and the layouts
#    earlier versions wrote)

def _read_image(data_dir):
    with open(wal.checkpoint_path(str(data_dir)), "rb") as handle:
        return handle.read()


def _write_image(data_dir, data):
    with open(wal.checkpoint_path(str(data_dir)), "wb") as handle:
        handle.write(data)


def _unframe(data):
    """``(length, crc, packed)`` of an image: magic, u32, u32, bytes."""
    magic = wal._IMAGE_MAGIC
    assert data.startswith(magic)
    length, crc = struct.unpack_from("<II", data, len(magic))
    return length, crc, data[len(magic) + 8:]


def _as_column_dicts(body):
    """*body* with every row a column dict, as the row layout was before
    rows became value arrays."""
    body = copy.deepcopy(body)
    for table in body["tables"]:
        names = [column["name"] for column in table["columns"]]
        table["rows"] = [dict(zip(names, row)) for row in table["rows"]]
    return body


def _text_layout(body, indent=None):
    """The JSON-text image earlier versions wrote: single-line
    ``{"crc": …, "body": …}`` (``indent=None``) or the indented form
    before that, the CRC over the body re-encoded with sorted keys."""
    blob = json.dumps(body, sort_keys=True)
    crc = zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF
    if indent is None:
        text = '{"crc": %d, "body": %s}' % (crc, blob)
    else:
        text = json.dumps({"crc": crc, "body": body}, indent=indent,
                          sort_keys=True)
    return text.encode("utf-8")


#: one row per stored value kind: NULLs, negative and 64-bit ints,
#: floats, the empty string, U+02BC and other non-ASCII text, DATE and
#: DATETIME text
KINDS_SCHEMA = ("CREATE TABLE kinds (id INT PRIMARY KEY, i BIGINT, "
                "f DOUBLE, s VARCHAR(40), t TEXT, d DATE, dt DATETIME)")
KINDS = [
    (1, None, None, None, None, None, None),
    (2, -7, -2.5, "", "ʼ", "2016-07-05", "2016-07-05 12:00:00"),
    (3, 2 ** 63 - 1, 1e-300, "OʼReilly", "日本語 ü €",
     "0000-00-00", "0000-00-00 00:00:00"),
    (4, -2 ** 63, 0.1, "tab\tquote\"back\\slash", "\U0001f600", "", ""),
    (5, 0, -0.0, "  ", "line\nbreak", "1999-12-31", "1999-12-31 23:59:59"),
]


class TestCheckpointImage(object):
    """The image through a real engine: every value kind survives
    checkpoint + recovery, the layouts earlier versions wrote still
    recover to the same state, and damage is always a
    :class:`WalCorruptionError`."""

    storage = "memory"

    def _kinds_database(self, backend):
        database = backend.recover()
        database.seed(KINDS_SCHEMA)
        table = database.table("kinds")
        names = table.column_names()
        for values in KINDS:
            table.insert(dict(zip(names, values)))
        database.checkpoint()
        # a log tail above the checkpoint replays on top of the image
        database.run("UPDATE kinds SET s = 'tail' WHERE id = 5")
        return database

    def test_every_value_kind_round_trips(self, backend):
        database = self._kinds_database(backend)
        live = state_digest(database)
        stored = [tuple(row[name] for name in database.table(
            "kinds").column_names()) for row in database.table("kinds").rows]
        database.close()
        recovered = backend.recover()
        assert state_digest(recovered) == live
        rows = [tuple(row[name] for name in recovered.table(
            "kinds").column_names()) for row in recovered.table("kinds").rows]
        assert rows == stored
        assert [type(value) for value in rows[3]] == [
            int, int, float, str, str, str, str]
        assert str(rows[4][2]) == "-0.0"

    @pytest.mark.parametrize("indent", [None, 1])
    def test_text_layouts_of_earlier_versions_recover(self, backend,
                                                      tmp_path, indent):
        database = self._kinds_database(backend)
        live = state_digest(database)
        database.close()
        data_dir = tmp_path / "db"
        body = _as_column_dicts(wal.load_checkpoint(str(data_dir)))
        _write_image(data_dir, _text_layout(body, indent=indent))
        assert wal.load_checkpoint(str(data_dir)) == body
        recovered = backend.recover()
        assert state_digest(recovered) == live

    def test_every_cut_and_every_bit_flip_is_corruption(self, backend,
                                                        tmp_path):
        database = backend.recover()
        database.seed("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8));"
                      "INSERT INTO t VALUES (1, 'xé'), (2, NULL)")
        database.checkpoint()
        database.close()
        data_dir = tmp_path / "db"
        data = _read_image(data_dir)
        damaged = [data[:cut] for cut in range(len(data))]
        damaged.append(data + b"\x00")
        for at in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[at] ^= 1 << bit
                damaged.append(bytes(flipped))
        for image in damaged:
            _write_image(data_dir, image)
            with pytest.raises(WalCorruptionError):
                wal.load_checkpoint(str(data_dir))
        _write_image(data_dir, data)
        assert wal.load_checkpoint(str(data_dir))["tables"][0]["rows"] == [
            [1, "xé"], [2, None]]


class TestCheckpointImagePaged(TestCheckpointImage):
    storage = "paged"


class TestSyncModes(object):
    def test_commit_mode_fsyncs_every_durability_point(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path), sync_mode="commit")
        for _ in range(5):
            log.append(wal.WalRecord.STMT, sql="X", durability_point=True)
        assert log.fsync_calls == 5
        log.close()

    def test_batch_mode_groups_commits(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path), sync_mode="batch",
                                batch_commits=4)
        for _ in range(11):
            log.append(wal.WalRecord.STMT, sql="X", durability_point=True)
        assert log.fsync_calls == 2  # after the 4th and 8th commit
        log.close()  # close drains the tail
        assert log.fsync_calls == 3

    def test_batch_mode_tracks_unsynced_backlog(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path), sync_mode="batch",
                                batch_commits=4)
        assert log.pending_unsynced_commits == 0
        for n in (1, 2, 3):
            log.append(wal.WalRecord.STMT, sql="X", durability_point=True)
            assert log.pending_unsynced_commits == n
        log.append(wal.WalRecord.STMT, sql="X", durability_point=True)
        assert log.pending_unsynced_commits == 0  # 4th commit fsynced
        log.close()

    def test_commit_mode_never_accumulates_backlog(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path), sync_mode="commit")
        for _ in range(3):
            log.append(wal.WalRecord.STMT, sql="X", durability_point=True)
            assert log.pending_unsynced_commits == 0
        log.close()

    def test_close_drains_batched_tail(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path), sync_mode="batch",
                                batch_commits=100)
        log.append(wal.WalRecord.STMT, sql="X", durability_point=True)
        log.append(wal.WalRecord.STMT, sql="X", durability_point=True)
        assert log.pending_unsynced_commits == 2
        assert log.fsync_calls == 0
        log.close()
        assert log.fsync_calls == 1  # clean shutdown flushes the tail
        assert log.pending_unsynced_commits == 0

    def test_checkpoint_drains_batched_tail(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path), sync_mode="batch",
                                batch_commits=100)
        log.append(wal.WalRecord.STMT, sql="X", durability_point=True)
        log.append(wal.WalRecord.STMT, sql="X", durability_point=True)
        assert log.pending_unsynced_commits == 2
        log.write_checkpoint({"tables": []})
        assert log.pending_unsynced_commits == 0  # synced before rotation
        assert log.fsync_calls >= 1
        log.close()

    def test_abandon_leaves_backlog_undrained(self, tmp_path):
        """The crash path must NOT quietly rescue batched commits: the
        backlog counter keeps reporting the loss window, and because
        appends are unbuffered writes, whatever reached the OS before
        the crash is still a clean scannable prefix."""
        log = wal.WriteAheadLog(str(tmp_path), sync_mode="batch",
                                batch_commits=100)
        log.append(wal.WalRecord.STMT, sql="X", durability_point=True)
        log.append(wal.WalRecord.STMT, sql="X", durability_point=True)
        fsyncs_before = log.fsync_calls
        log.abandon()
        assert log.fsync_calls == fsyncs_before  # no sync while dying
        assert log.pending_unsynced_commits == 2
        scan = wal.scan_log(wal.log_path(str(tmp_path)))
        assert [record.lsn for record in scan.records] == [1, 2]

    def test_fsync_does_not_hold_the_lock_across_the_syscall(
            self, tmp_path, monkeypatch):
        log = wal.WriteAheadLog(str(tmp_path), sync_mode="batch",
                                batch_commits=100)
        first = log.append(wal.WalRecord.STMT, sql="X",
                           durability_point=True)
        parked, release = threading.Event(), threading.Event()
        real_fsync = os.fsync

        def parking_fsync(fd):
            parked.set()
            assert release.wait(10)
            real_fsync(fd)

        monkeypatch.setattr(wal.os, "fsync", parking_fsync)
        flusher = threading.Thread(target=log.sync_to, args=(first,))
        flusher.start()
        try:
            assert parked.wait(10)
            appended = []
            writer = threading.Thread(target=lambda: appended.append(
                log.append(wal.WalRecord.STMT, sql="Y",
                           durability_point=True)))
            writer.start()
            writer.join(10)
            # neither the append nor a frontier read waited for the flush
            assert not writer.is_alive() and appended == [first + 1]
            assert log.last_lsn == first + 1
        finally:
            release.set()
            flusher.join(10)
        assert not flusher.is_alive()
        # the flush vouches for what preceded it, and nothing more
        assert log.synced_lsn == first
        assert log.pending_unsynced_commits == 1
        monkeypatch.setattr(wal.os, "fsync", real_fsync)
        assert log.sync_to(first) is False
        assert log.sync_to(first + 1) is True
        assert log.synced_lsn == first + 1
        assert log.pending_unsynced_commits == 0 and log.fsync_calls == 2
        log.close()

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            wal.WriteAheadLog(str(tmp_path), sync_mode="yolo")

    def test_closed_log_rejects_appends(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        log.close()
        with pytest.raises(WalError):
            log.append(wal.WalRecord.STMT, sql="X")


class TestAttachGuards(object):
    def test_attached_counter_tracks_databases(self, tmp_path):
        base = wal.ATTACHED
        db = Database.recover(str(tmp_path / "a"))
        assert wal.ATTACHED == base + 1
        db2 = Database.recover(str(tmp_path / "b"))
        assert wal.ATTACHED == base + 2
        db.close()
        db2.close()
        assert wal.ATTACHED == base
        db.close()  # idempotent: a second close must not double-count
        assert wal.ATTACHED == base

    def test_double_attach_rejected(self, tmp_path):
        db = Database.recover(str(tmp_path / "a"))
        try:
            with pytest.raises(WalError):
                db.attach_wal(str(tmp_path / "b"))
        finally:
            db.close()

    def test_attach_over_unread_state_rejected(self, tmp_path):
        first = Database.recover(str(tmp_path))
        first.run("CREATE TABLE t (id INT)")
        first.close()
        fresh = Database()
        with pytest.raises(WalError):
            fresh.attach_wal(str(tmp_path))

    def test_attach_during_transaction_rejected(self, tmp_path):
        db = Database()
        db.run("CREATE TABLE t (id INT)")
        db.begin()
        with pytest.raises(WalError):
            db.attach_wal(str(tmp_path))
        db.rollback()


class TestFaultSites(object):
    """The four wal.* fault sites must actually gate the durability
    path, and an injected crash must surface as a clean SQLError to the
    client while the committed prefix stays recoverable."""

    def _durable_db(self, tmp_path):
        db = Database.recover(str(tmp_path))
        db.run("CREATE TABLE t (id INT AUTO_INCREMENT PRIMARY KEY, "
               "v VARCHAR(10))")
        db.run("INSERT INTO t (v) VALUES ('safe')")
        return db

    def test_append_crash_is_contained_and_prefix_survives(self, tmp_path):
        db = self._durable_db(tmp_path)
        conn = Connection(db)
        plan = faults.FaultPlan(seed=0)
        plan.inject("wal.append", faults.FaultKind.RAISE, times=1)
        with faults.armed(plan):
            outcome = conn.query("INSERT INTO t (v) VALUES ('lost')")
        assert not outcome.ok
        assert isinstance(outcome.error, SQLError)
        assert plan.hits_by_site.get("wal.append")
        db.close()
        recovered = Database.recover(str(tmp_path))
        values = [row["v"] for row in recovered.table("t").rows]
        assert values == ["safe"]  # unacknowledged row not resurrected
        recovered.close()

    def test_fsync_crash_is_contained(self, tmp_path):
        db = self._durable_db(tmp_path)
        conn = Connection(db)
        plan = faults.FaultPlan(seed=0)
        plan.inject("wal.fsync", faults.FaultKind.RAISE, times=1)
        with faults.armed(plan):
            outcome = conn.query("INSERT INTO t (v) VALUES ('maybe')")
        assert not outcome.ok
        assert plan.hits_by_site.get("wal.fsync")
        db.close()

    def test_checkpoint_crash_leaves_old_state_valid(self, tmp_path):
        db = self._durable_db(tmp_path)
        plan = faults.FaultPlan(seed=0)
        plan.inject("wal.checkpoint", faults.FaultKind.RAISE, times=1)
        with faults.armed(plan):
            with pytest.raises(Exception):
                db.checkpoint()
        db.close()
        recovered = Database.recover(str(tmp_path))
        assert [row["v"] for row in recovered.table("t").rows] == ["safe"]
        recovered.close()

    def test_recover_site_fires_during_scan(self, tmp_path):
        db = self._durable_db(tmp_path)
        db.close()
        plan = faults.FaultPlan(seed=0)
        plan.inject("wal.recover", faults.FaultKind.RAISE, times=1)
        with faults.armed(plan):
            with pytest.raises(Exception):
                Database.recover(str(tmp_path))
        assert plan.hits_by_site.get("wal.recover")
        # disarmed, the same directory recovers fine
        recovered = Database.recover(str(tmp_path))
        assert len(recovered.table("t")) == 1
        recovered.close()
