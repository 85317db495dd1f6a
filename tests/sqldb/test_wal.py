"""WAL mechanics: framing, torn tails, corruption, checkpoints, guards.

The durability layer's unit contract, tested below the engine: records
round-trip bit-exactly, a torn tail is a normal crash artifact (silently
truncated), mid-log damage is bit rot (loudly surfaced), checkpoints are
atomic at every step, and the hot path pays exactly one module-attribute
read when no WAL is attached.
"""

import collections
import copy
import itertools
import json
import os
import random
import struct
import sys
import threading
import zlib

import pytest

from repro import faults
from repro.benchlab.crashsweep import (
    WAL_COMMIT_SWEEP,
    format_report,
    run_sweep,
    state_digest,
)
from repro.replica import ReplicaSet
from repro.sqldb import wal
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import SQLError, WalCorruptionError, WalError
from repro.sqldb.storage import image_rows


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
        # every failed statement the engine logs now was taken back
        assert scan.records[0].undone is True


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
        # and mid-log damage is still told from a torn tail (a payload
        # byte of the second record — a damaged length field would read
        # as a torn tail, rightly)
        flipped = bytearray(data)
        flipped[frames[0][1] + 8 + 2] ^= 0x40
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
        # flip one payload byte (past the 8-byte header) of the SECOND
        # record (valid data follows)
        data[boundaries[0] + 8 + 2] ^= 0x40
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
        lsn = log.write_checkpoint({"tables": [], "schema_version": 3},
                                   log.frontier())
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
        log.write_checkpoint({"tables": []}, log.frontier())
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
        log.write_checkpoint({"tables": [{"name": "t", "rows": [[1, "é"]]}]},
                             log.frontier())
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
                              "schema_version": 2}, log.frontier())
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


def _as_row_arrays(body):
    """*body* in the layout the binary image had before it went
    column-major: each table's rows as value arrays under ``"rows"``."""
    body = copy.deepcopy(body)
    for table in body["tables"]:
        table["rows"] = [list(row) for row in image_rows(table)]
        table.pop("cols", None)
        table.pop("delta", None)
    return body


def _as_column_dicts(body):
    """*body* with every row a column dict, as the row layout was before
    rows became value arrays."""
    body = _as_row_arrays(body)
    for table in body["tables"]:
        names = [column["name"] for column in table["columns"]]
        table["rows"] = [dict(zip(names, row)) for row in table["rows"]]
    return body


def _binary_layout(body):
    """The framed, compressed image of *body*, as :mod:`wal` writes it."""
    packed = zlib.compress(json.dumps(body, sort_keys=True,
                                      separators=(",", ":")).encode("utf-8"),
                           wal._IMAGE_LEVEL)
    return (wal._IMAGE_MAGIC + struct.pack(
        "<II", len(packed), zlib.crc32(packed) & 0xFFFFFFFF) + packed)


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

    def test_row_array_layout_of_the_parent_commit_recovers(self, backend,
                                                            tmp_path):
        """The binary image with row-array rows (before the column-major
        layout) still recovers to the same state."""
        database = self._kinds_database(backend)
        live = state_digest(database)
        database.close()
        data_dir = tmp_path / "db"
        body = _as_row_arrays(wal.load_checkpoint(str(data_dir)))
        assert "cols" not in body["tables"][0]
        _write_image(data_dir, _binary_layout(body))
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
        assert image_rows(wal.load_checkpoint(str(data_dir))["tables"][0]) \
            == [(1, "xé"), (2, None)]


class TestCheckpointImagePaged(TestCheckpointImage):
    storage = "paged"


def _kv_database(rows=2000, ops=4000, seed=7):
    """A ``kv`` table the way a keyed read/write mix leaves it: keys
    loaded in order, then *ops* seeded operations — half reads, a
    quarter updates of Zipf-hot keys, 15 % new keys appended past the
    load, 10 % deletes of the oldest appended key."""
    rng = random.Random(seed)
    database = Database()
    database.seed("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(32), "
                  "n INT)")
    table = database.table("kv")
    for key in range(rows):
        table.insert({"k": key, "v": "val-%06d" % key, "n": key % 997})
    hot = list(range(rows))
    rng.shuffle(hot)
    zipf = list(itertools.accumulate(1.0 / rank
                                     for rank in range(1, rows + 1)))
    appended = collections.deque()
    for counter in range(1, ops + 1):
        pick = rng.random()
        if pick < 0.50:
            continue
        if pick < 0.75:
            key = rng.choices(hot, cum_weights=zipf)[0]
            table.update_row(table.index_lookup("k", key)[0],
                             {"v": "upd-%d" % counter, "n": counter})
        elif pick < 0.90 or not appended:
            key = rows + counter
            table.insert({"k": key, "v": "ins-%d" % counter,
                          "n": counter % 1009})
            appended.append(key)
        else:
            table.delete_rows(table.index_lookup("k", appended.popleft()))
    return database


class TestImageSize(object):
    def test_a_kv_image_is_at_most_60_percent_of_the_row_arrays(self):
        """Column-major with key-like columns as differences: the packed
        image of a seeded 2 000-row ``kv`` table stays at most 60 % of
        the bytes the row-array layout packs the same rows into."""
        database = _kv_database()
        body = {"tables": [database.table("kv").to_dict()]}
        assert body["tables"][0]["delta"] == [0, 2]     # k and n
        column_major = len(_binary_layout(body))
        row_arrays = len(_binary_layout(_as_row_arrays(body)))
        assert column_major <= 0.60 * row_arrays, (column_major, row_arrays)


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
        log.write_checkpoint({"tables": []}, log.frontier())
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


class TestCheckpointWindow(object):
    """A checkpoint cuts its image and the LSN that image covers in one
    step: a statement committed while the image is written is logged
    after the cut and kept by the rotation — never in neither.  On
    paged storage its pages stay dirty: the checkpoint settles only the
    page versions its images hold."""

    storage = "memory"

    def test_a_commit_inside_the_checkpoint_window_survives(
            self, backend, monkeypatch):
        database = backend.recover()
        writer, other = Connection(database), Connection(database)
        writer.query_or_raise(
            "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        writer.query_or_raise("INSERT INTO t VALUES (1, 'before')")
        real = database.wal.write_checkpoint

        def write_checkpoint(*args, **kwargs):
            # the image is cut; a second session commits before the WAL
            # stamps it and rotates the log
            other.query_or_raise("INSERT INTO t VALUES (2, 'inside')")
            return real(*args, **kwargs)

        monkeypatch.setattr(database.wal, "write_checkpoint",
                            write_checkpoint)
        database.checkpoint()
        monkeypatch.undo()
        # every frame leaves the pool: one settled clean by mistake is
        # dropped unwritten, and its row is gone live
        backend.churn(database)
        expected = [(1, "before"), (2, "inside")]
        assert writer.query("SELECT id, v FROM t ORDER BY id").rows \
            == expected
        live = state_digest(database)
        database.close()
        recovered = backend.recover()
        assert Connection(recovered).query(
            "SELECT id, v FROM t ORDER BY id").rows == expected
        assert state_digest(recovered) == live

    def test_writers_beside_a_checkpointer_lose_no_acked_row(self, backend):
        """Real threads: four writers commit while a fifth thread
        checkpoints in a loop, the switch interval shortened so they
        interleave finely; every acknowledged row is there live (after
        the pool is churned) and after recovery."""
        database = backend.recover()
        database.run("CREATE TABLE t (id INT PRIMARY KEY, w INT, "
                     "pad VARCHAR(60))")
        acked = []
        done = threading.Event()

        def writer(w):
            conn = Connection(database)
            for index in range(40):
                key = w * 1000 + index
                if conn.query("INSERT INTO t VALUES (%d, %d, '%s')"
                              % (key, w, "p" * 50)).ok:
                    acked.append(key)

        def checkpointer():
            while not done.is_set():
                database.checkpoint()

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(4)]
        looping = threading.Thread(target=checkpointer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            looping.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            done.set()
            looping.join(60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads + [looping])
        assert len(acked) == 160
        backend.churn(database)
        assert sorted(row["id"] for row in database.table("t").rows) \
            == sorted(acked)
        database.close()
        recovered = backend.recover()
        assert sorted(row["id"] for row in recovered.table("t").rows) \
            == sorted(acked)


class TestCheckpointWindowPaged(TestCheckpointWindow):
    storage = "paged"


class TestCheckpointCut(object):
    """When an automatic checkpoint runs."""

    def test_automatic_checkpoints_wait_for_the_statement_locks(
            self, tmp_path):
        """A commit point is often reached under a statement's locks —
        an autocommit statement's log append, the implicit COMMIT
        before DDL — and a checkpoint takes the catalog exclusively: it
        runs once they are released (inside, it would deadlock)."""
        data_dir = str(tmp_path)
        database = Database.recover(data_dir, checkpoint_interval=1)
        conn = Connection(database)

        def checkpointed_lsn():
            return wal.load_checkpoint(data_dir)["lsn"]

        conn.query_or_raise("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        conn.query_or_raise("INSERT INTO t VALUES (1, 1)")
        assert checkpointed_lsn() == database.durable_lsn == 2
        conn.query_or_raise("BEGIN")
        conn.query_or_raise("INSERT INTO t VALUES (2, 2)")
        conn.query_or_raise("CREATE TABLE u (id INT)")   # commits first
        assert checkpointed_lsn() == database.durable_lsn
        conn.begin()
        conn.query_or_raise("INSERT INTO t VALUES (3, 3)")
        conn.commit()                    # holds no lock: checkpoints now
        assert checkpointed_lsn() == database.durable_lsn
        assert wal.read_log_bytes(wal.log_path(data_dir)) == b""
        live = state_digest(database)
        database.close()
        recovered = Database.recover(data_dir)
        assert state_digest(recovered) == live
        recovered.close()

    def test_a_failed_statement_runs_the_checkpoint_it_made_due(
            self, tmp_path):
        """A failed autocommit statement is a commit point too (it is
        logged as failed, and replay fails it again): the checkpoint it
        makes due runs as it returns, not at the next success."""
        data_dir = str(tmp_path)
        database = Database.recover(data_dir, checkpoint_interval=1)
        conn = Connection(database)
        conn.query_or_raise("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        conn.query_or_raise("INSERT INTO t VALUES (1, 1)")
        assert not conn.query("INSERT INTO t VALUES (2, 2), (1, 1)").ok
        assert len(database.table("t")) == 1    # the statement left nothing
        assert wal.load_checkpoint(data_dir)["lsn"] \
            == database.durable_lsn == 3
        assert wal.read_log_bytes(wal.log_path(data_dir)) == b""
        live = state_digest(database)
        database.close()
        recovered = Database.recover(data_dir)
        assert state_digest(recovered) == live
        recovered.close()

# -- the record payload -------------------------------------------------------
#
# Test-side copies of the payload earlier versions wrote, to forge the
# logs they left behind.


def _legacy_payload(record):
    """The sorted-key JSON payload earlier versions wrote for *record*."""
    body = {"lsn": record.lsn, "op": record.op}
    if record.tx:
        body["tx"] = record.tx
    if record.sql is not None:
        body.update(sql=record.sql, clock=record.clock, rand=record.rand)
    if record.failed:
        body["failed"] = True
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _frame(payload):
    return struct.pack("<II", len(payload),
                       zlib.crc32(payload) & 0xFFFFFFFF) + payload


def _as_legacy(data):
    """The log *data*, every frame re-written with the legacy payload."""
    return b"".join(_frame(_legacy_payload(record))
                    for record, _end in wal.iter_frames(data))


def _fields(record):
    return (record.lsn, record.op, record.tx, record.sql, record.clock,
            record.rand, record.failed)


#: every kind and flag, and the edges of each field
RECORDS = [
    wal.WalRecord(1, wal.WalRecord.STMT, sql="INSERT INTO t VALUES (1)"),
    wal.WalRecord(2, wal.WalRecord.BEGIN, tx=1),
    wal.WalRecord(3, wal.WalRecord.STMT, tx=1, sql="", clock=127, rand=128),
    wal.WalRecord(4, wal.WalRecord.COMMIT, tx=1),
    wal.WalRecord(5, wal.WalRecord.ROLLBACK, tx=2 ** 40),
    wal.WalRecord(2 ** 63 - 1, wal.WalRecord.STMT,
                  sql="UPDATE t SET v = 'Oʼ 日本 \U0001f600'",
                  clock=2 ** 32, rand=300, failed=True),
    wal.WalRecord(7, wal.WalRecord.STMT, sql="SELECT '\ud800'"),
    wal.WalRecord(8, wal.WalRecord.STMT, sql="INSERT INTO t VALUES (1)",
                  failed=True, undone=True),
]


class TestRecordPayload(object):
    def test_layout(self):
        record = wal.WalRecord(300, wal.WalRecord.STMT, tx=5, sql="ʼ",
                               clock=2, rand=1, failed=True)
        assert record.payload == (b"\x01\x07\xac\x02\x05\x02\x01"
                                  + "ʼ".encode("utf-8"))
        marker = wal.WalRecord(7, wal.WalRecord.COMMIT)
        assert marker.payload == b"\x03\x00\x07"

    def test_the_taken_back_flag(self):
        """A failed statement this version logs was taken back whole;
        the flag says so, and no legacy payload carries it."""
        record = RECORDS[-1]
        assert record.payload[1] == 0x02 | 0x04 | 0x08
        assert wal.WalRecord.from_payload(record.payload).undone
        assert not wal.WalRecord.from_payload(RECORDS[5].payload).undone
        legacy = wal.WalRecord.from_payload(_legacy_payload(record))
        assert legacy.failed and not legacy.undone

    @pytest.mark.parametrize("index", range(len(RECORDS)))
    def test_binary_and_legacy_payloads_round_trip(self, index):
        record = RECORDS[index]
        for payload in (record.payload, _legacy_payload(record)):
            decoded = wal.WalRecord.from_payload(payload)
            assert _fields(decoded) == _fields(record)
            assert decoded.payload == payload      # kept, not re-encoded
            assert wal.payload_lsn(payload) == record.lsn

    def test_a_record_is_encoded_once(self, tmp_path, monkeypatch):
        """Appended, scanned back and appended to a second log (what a
        replica does): one encode per record, and the second log is the
        first byte for byte."""
        encoded = []
        encode = wal._encode
        monkeypatch.setattr(wal, "_encode", lambda record: encoded.append(
            record.lsn) or encode(record))
        log = wal.WriteAheadLog(str(tmp_path))
        _fill(log)
        log.close()
        assert encoded == [1, 2, 3, 4]
        records = wal.scan_log(wal.log_path(str(tmp_path))).records
        os.makedirs(str(tmp_path / "replica"))
        replica_log = wal.WriteAheadLog(str(tmp_path / "replica"))
        for record in records:
            replica_log.append_record(record)
        replica_log.close()
        assert encoded == [1, 2, 3, 4]
        assert (wal.read_log_bytes(wal.log_path(str(tmp_path / "replica")))
                == wal.read_log_bytes(wal.log_path(str(tmp_path))))

    @pytest.mark.parametrize("payload", [
        b"", b"\x01", b"\x01\x00",                 # too short
        b"\x09\x00\x01",                           # unknown kind
        b"\x01\x80\x01",                           # unknown flag
        b"\x01\x00\x81",                           # LSN runs past the end
        b"\x02\x01\x05\xff",                       # tx runs past the end
        b"\x01\x02\x05\x00\x00\xff\xfe",           # text is not UTF-8
        b"\x03\x00\x05\x00",                       # a stray byte
        b"\x01\x00" + b"\xff" * 11 + b"\x01",      # an LSN past 64 bits
        b'{"op": "stmt"}', b'{"lsn": 1}', b"{not json",  # legacy
    ])
    def test_an_undecodable_payload_is_a_value_error(self, payload):
        with pytest.raises(ValueError):
            wal.WalRecord.from_payload(payload)

    def test_every_cut_and_bit_flip_decodes_or_is_a_value_error(self):
        """A payload that passes its CRC can still hold anything: no
        damage to a real payload escapes the codec as another error."""
        for record in RECORDS:
            payload = record.payload
            variants = [payload[:cut] for cut in range(len(payload))]
            for at in range(len(payload)):
                for bit in range(8):
                    flipped = bytearray(payload)
                    flipped[at] ^= 1 << bit
                    variants.append(bytes(flipped))
            for variant in variants:
                try:
                    wal.WalRecord.from_payload(variant)
                except ValueError:
                    pass

    @pytest.mark.parametrize("payload", [
        b"\x09\x00\x05", b"\x01\x00\x85", b"\x01\x02\x05\x00\x00\xff",
    ], ids=["unknown-kind", "varint-past-the-end", "bad-utf8"])
    def test_a_crc_valid_record_that_does_not_decode_is_damage(
            self, tmp_path, payload):
        log = wal.WriteAheadLog(str(tmp_path))
        _fill(log)
        log.close()
        path = wal.log_path(str(tmp_path))
        data = wal.read_log_bytes(path)
        first = next(wal.iter_frames(data))[1]
        wal.write_log_bytes(path, data[:first] + _frame(payload)
                            + data[first:])
        with pytest.raises(WalCorruptionError) as info:
            wal.scan_log(path)
        assert info.value.offset == first
        assert [r.lsn for r in info.value.clean_records] == [1]
        # the same record at the end of the log is a torn tail
        wal.write_log_bytes(path, data + _frame(payload))
        scan = wal.scan_log(path)
        assert [r.lsn for r in scan.records] == [1, 2, 3, 4]
        assert scan.torn_bytes == len(_frame(payload))

    def test_every_bit_flip_in_a_payload_with_data_after_it_raises(
            self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        _fill(log)
        log.close()
        path = wal.log_path(str(tmp_path))
        data = wal.read_log_bytes(path)
        ends = [end for _r, end in wal.iter_frames(data)]
        for start, end in zip([0] + ends[:-2], ends[:-1]):
            for at in range(start + 8, end):
                for bit in range(8):
                    flipped = bytearray(data)
                    flipped[at] ^= 1 << bit
                    wal.write_log_bytes(path, bytes(flipped))
                    with pytest.raises(WalCorruptionError) as info:
                        wal.scan_log(path)
                    assert info.value.offset == start


def _history(database):
    """A short history over every record shape: DDL, autocommit and
    transactional writes, a commit, a rollback, a failed multi-row
    INSERT that keeps nothing, ``NOW()`` / ``RAND()`` and U+02BC
    text (bound as a parameter: in a literal the charset folds it to a
    quote).  Returns the live state digest."""
    conn = Connection(database)
    for sql in ("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(40), "
                "at DATETIME, r DOUBLE)",
                "INSERT INTO t VALUES (1, 'first', NOW(), RAND())",
                "BEGIN", "INSERT INTO t VALUES (2, 'kept', NOW(), RAND())",
                "COMMIT",
                "BEGIN", "INSERT INTO t VALUES (3, 'gone', NOW(), 0)",
                "ROLLBACK"):
        conn.query_or_raise(sql)
    update = conn.prepare("UPDATE t SET v = ? WHERE id = ?")
    assert conn.execute_prepared(update, "Oʼ Reilly ʼʼ", 2).ok
    assert not conn.query("INSERT INTO t VALUES (4, 'partial', NOW(), 0), "
                          "(1, 'dup', NOW(), 0)").ok
    assert len(database.table("t")) == 2    # the failed INSERT left nothing
    return state_digest(database)


def _log_of(database):
    return wal.read_log_bytes(wal.log_path(database.data_dir))


class TestLegacyPayloads(object):
    """A log in the JSON payload earlier versions wrote recovers to the
    state it was written from, on either row store."""

    storage = "memory"

    def test_a_legacy_log_recovers_to_the_same_state(self, backend):
        database = backend.recover()
        live = _history(database)
        data = _log_of(database)
        database.close()
        records = [record for record, _end in wal.iter_frames(data)]
        assert {record.op for record in records} == {
            "stmt", "begin", "commit", "rollback"}
        assert any(record.failed for record in records)
        legacy = _as_legacy(data)
        assert legacy[8:9] == b"{" and len(legacy) > len(data)
        wal.write_log_bytes(wal.log_path(database.data_dir), legacy)
        recovered = backend.recover()
        assert recovered.recovery_report["log_records"] == len(records)
        # no legacy record says its failed statement was taken back: the
        # failed INSERT replays as the earlier server ran it, keeping its
        # first row, and the rest of the state is the one logged
        assert [row["v"] for row in recovered.table("t").rows
                if row["id"] == 4] == ["partial"]
        Connection(recovered).query_or_raise("DELETE FROM t WHERE id = 4")
        assert state_digest(recovered) == live


class TestLegacyPayloadsPaged(TestLegacyPayloads):
    storage = "paged"


def test_legacy_records_then_binary_ones_recover_torn_anywhere(tmp_path):
    """The log an upgraded server keeps: the records written before the
    upgrade in the legacy payload, those after it binary.  Killed at
    every byte offset it recovers to exactly the committed prefix."""
    def golden(own, data_dir, seed):
        run = WAL_COMMIT_SWEEP.golden(own, data_dir, seed)
        data = run.facts["data"]
        ends = [end for _record, end in wal.iter_frames(data)]
        upgrade = ends[len(ends) // 2]
        mixed = _as_legacy(data[:upgrade]) + data[upgrade:]
        assert mixed[8:9] == b"{" and mixed.endswith(data[upgrade:])
        run.facts.update(data=mixed, ends=[
            end for record, end in wal.iter_frames(mixed)
            if record.op == wal.WalRecord.COMMIT
            or (record.op == wal.WalRecord.STMT and record.tx == 0)])
        run.counters.update(log_bytes=len(mixed))
        return run

    report = run_sweep(WAL_COMMIT_SWEEP._replace(name="wal-legacy-prefix",
                                                 golden=golden),
                       str(tmp_path), 1)
    assert report.ok, format_report(report)
    assert report.sites == report.counters["log_bytes"] + 1
    assert report.counters["durability_points"] == 25


class TestShippedBytes(object):
    """A replica appends the bytes it was shipped: its log is its
    primary's over the shipped range, a legacy one included."""

    def test_the_replica_log_is_the_primary_log(self, tmp_path):
        replica_set = ReplicaSet(str(tmp_path / "set"), replicas=1)
        primary, replica = replica_set.nodes
        live = _history(primary.database)
        replica_set.ship()
        assert _log_of(replica.database) == _log_of(primary.database)
        assert state_digest(replica.database) == live
        replica_set.close()

    def test_a_replica_fed_a_legacy_primary_log_applies_it(self, tmp_path):
        primary_dir = str(tmp_path / "set" / "node0")
        database = Database.recover(primary_dir)
        live = _history(database)
        legacy = _as_legacy(_log_of(database))
        database.close()
        wal.write_log_bytes(wal.log_path(primary_dir), legacy)
        replica_set = ReplicaSet(str(tmp_path / "set"), replicas=1)
        primary, replica = replica_set.nodes
        # the legacy failed INSERT keeps its first row on replay, as the
        # earlier server that wrote such a log did (TestLegacyPayloads)
        assert [row["v"] for row in primary.database.table("t").rows
                if row["id"] == 4] == ["partial"]
        legacy_state = state_digest(primary.database)
        assert legacy_state != live
        replica_set.ship()
        assert state_digest(replica.database) == legacy_state
        assert _log_of(replica.database) == legacy
        # what the upgraded primary writes next is binary, on both logs
        Connection(primary.database).query_or_raise(
            "INSERT INTO t VALUES (5, 'new', NOW(), 0)")
        replica_set.ship()
        assert _log_of(replica.database) == _log_of(primary.database)
        assert _log_of(primary.database)[len(legacy) + 8:][:1] == b"\x01"
        assert (state_digest(replica.database)
                == state_digest(primary.database))
        replica_set.close()
