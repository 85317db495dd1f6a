"""What only the paged row store has: whole-workload parity with the
in-memory store under eviction, the pending overlay, pin discipline
under a tiny pool, recovery round trips and the buffer-pool accounting
surfaced through Septic.status().  Behaviour the two stores share —
MVCC, indexes, transactions — is tested once, on both, by the
``...Paged`` twins in test_storage / test_mvcc / test_index_maintenance
/ test_transactions_indexes.
"""

import json
import random

import pytest

from repro.benchlab.crashsweep import state_digest, verify_index_consistency
from repro.core.septic import Septic
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import PagerError
from repro.sqldb.pager import PageStore
from repro.sqldb.storage import PagedRows


def paged_db(tmp_path, name="paged", **kwargs):
    kwargs.setdefault("storage", "paged")
    kwargs.setdefault("page_size", 512)
    kwargs.setdefault("pool_pages", 4)
    return Database.recover(str(tmp_path / name), seed=1, **kwargs)


STATEMENTS = (
    ["CREATE TABLE t (id INT AUTO_INCREMENT PRIMARY KEY, "
     "name VARCHAR(30), qty INT)",
     "CREATE INDEX idx_name ON t (name)"]
    + ["INSERT INTO t (name, qty) VALUES ('name%03d', %d)" % (i % 7, i)
       for i in range(60)]
    + ["UPDATE t SET qty = qty + 1000 WHERE name = 'name003'",
       "DELETE FROM t WHERE qty < 10",
       "ALTER TABLE t ADD COLUMN note VARCHAR(10) DEFAULT 'x'",
       "INSERT INTO t (name, qty) VALUES ('tail', 1)"]
)

PROBES = (
    "SELECT COUNT(*) FROM t",
    "SELECT id, name, qty FROM t ORDER BY id",
    "SELECT qty FROM t WHERE name = 'name003' ORDER BY qty",
    "SELECT name FROM t WHERE qty > 500 ORDER BY id",
)


class TestParityWithMemoryBackend(object):
    def test_same_statements_same_answers_same_digest(self, tmp_path):
        """60 inserts into 512-byte pages under a 4-frame pool: the
        trees split, frames evict and spill — and every answer must
        still match the in-memory backend row for row."""
        memory = Database.recover(str(tmp_path / "mem"), seed=1)
        paged = paged_db(tmp_path)
        for sql in STATEMENTS:
            memory.run(sql)
            paged.run(sql)
        for probe in PROBES:
            expected = memory.run(probe)[0].result_set.rows
            got = paged.run(probe)[0].result_set.rows
            assert got == expected, probe
        assert state_digest(paged) == state_digest(memory)
        assert verify_index_consistency(paged) == []
        # the workload was actually big enough to exercise eviction
        stats = paged.storage_stats()
        assert stats["evictions"] > 0
        assert stats["pages_cached"] <= stats["capacity"]
        memory.close()
        paged.close()


class TestPendingOverlay(object):
    """An open transaction's images and removals wait beside the tree:
    no page — resident, spilled or checkpointed — holds one before the
    transaction seals, and a rollback leaves the pages as they were."""

    storage = "paged"

    @pytest.fixture
    def open_transaction(self, backend):
        db = backend.database(
            "CREATE TABLE accounts (id INT PRIMARY KEY, bal INT); "
            "INSERT INTO accounts (id, bal) VALUES (1, 100), (2, 100)")
        conn = Connection(db)
        conn.begin()
        conn.query_or_raise("UPDATE accounts SET bal = 7 WHERE id = 1")
        conn.query_or_raise("INSERT INTO accounts (id, bal) VALUES (3, 5)")
        conn.query_or_raise("DELETE FROM accounts WHERE id = 2")
        # push every frame out: what the pages hold is now what a crash
        # would find in the spill/home files
        backend.churn(db)
        return db, conn

    @staticmethod
    def _in_pages(db):
        tree = db.table("accounts").store._tree
        return [(row["id"], row["bal"]) for _rowid, row in tree.items()]

    @staticmethod
    def _latest(db):
        return [(row["id"], row["bal"])
                for row in db.table("accounts").iter_rows()]

    def test_pending_images_reach_pages_only_at_commit(self,
                                                       open_transaction):
        db, conn = open_transaction
        assert self._in_pages(db) == [(1, 100), (2, 100)]
        assert self._latest(db) == [(1, 7), (3, 5)]
        assert len(db.table("accounts")) == 2
        conn.commit()
        assert self._in_pages(db) == self._latest(db) == [(1, 7), (3, 5)]
        db.close()

    def test_rollback_leaves_the_pages_alone(self, open_transaction):
        db, conn = open_transaction
        conn.rollback()
        assert self._in_pages(db) == self._latest(db) \
            == [(1, 100), (2, 100)]
        assert verify_index_consistency(db) == []
        db.close()


def node_store(tmp_path, capacity=4):
    """A page store of JSON nodes, with no engine above it."""
    return PageStore(str(tmp_path / "d"), page_size=512,
                     pool_pages=capacity, sync=False,
                     encoder=lambda node: json.dumps(
                         node, sort_keys=True).encode("utf-8"),
                     decoder=lambda payload: json.loads(
                         payload.decode("utf-8")))


def home_every_page(store):
    """A checkpoint's page half: every dirty image homed, then settled
    (every frame is clean afterwards)."""
    images, taken = store.collect_images()
    store.checkpoint_begin(images)
    store.checkpoint_finish(images)
    store.settle(taken)


class TestPinDiscipline(object):
    def test_eviction_refuses_pinned_frames(self, tmp_path):
        store = node_store(tmp_path)
        pool = store.pool
        pages = [pool.new_page({"p": i}) for i in range(4)]
        for page_no in pages:
            pool.pin(page_no)
        with pytest.raises(PagerError):
            pool.new_page({"p": 99})
        assert pool.pin_denials == 1
        # unpinning one frame unblocks admission, and the victim is
        # never one of the still-pinned pages
        pool.unpin(pages[0])
        extra = pool.new_page({"p": 99})
        assert all(p in pool for p in pages[1:] + [extra])
        store.close()

    def test_random_pin_unpin_evict_keeps_every_invariant(self, tmp_path):
        """200 seeded random ops against a 4-frame pool: residency
        never exceeds capacity, a pinned page is never evicted, and
        every page read back equals what was written (through spill
        round trips included)."""
        store = node_store(tmp_path)
        pool = store.pool
        rng = random.Random(42)
        model = {}
        pinned = []
        for step in range(200):
            action = rng.random()
            if action < 0.35 or not model:
                node = {"page": len(model), "step": step}
                page_no = pool.new_page(dict(node))
                model[page_no] = node
            elif action < 0.75:
                page_no = rng.choice(sorted(model))
                if len(pinned) >= pool.capacity - 1 and page_no not in pool:
                    continue    # a miss-fetch could need an eviction
                assert pool.fetch(page_no) == model[page_no], \
                    "page %d content torn at step %d" % (page_no, step)
            elif action < 0.9 and len(pinned) < pool.capacity - 1:
                page_no = rng.choice(sorted(model))
                if page_no not in pool:
                    continue
                pool.pin(page_no)
                pinned.append(page_no)
            elif pinned:
                page_no = pinned.pop(rng.randrange(len(pinned)))
                pool.unpin(page_no)
            assert len(pool.pinned_pages()) <= len(pinned) + 1
            stats = pool.stats_dict()
            assert stats["pages_cached"] <= stats["capacity"]
            for page_no in pinned:
                assert page_no in pool, \
                    "pinned page %d evicted at step %d" % (page_no, step)
        for page_no in pinned:
            pool.unpin(page_no)
        # full audit: every page round-trips after the churn
        for page_no in sorted(model):
            assert pool.fetch(page_no) == model[page_no]
        store.close()


class TestCleanFirstEviction(object):
    """The pool replaces clean pages first, as InnoDB does: a dirty
    frame is stolen (WAL barrier, then a spill write) only when every
    unpinned frame is dirty."""

    @staticmethod
    def _record_steals(store, monkeypatch):
        """Log every WAL barrier and spill write, in order."""
        events = []
        real_spill = store.pager.spill_write

        def spill_write(page_no, payload, lsn):
            events.append(("spill", page_no))
            real_spill(page_no, payload, lsn)

        monkeypatch.setattr(store.pager, "spill_write", spill_write)
        real_barrier = store.pool.wal_barrier

        def barrier():
            events.append("barrier")
            if real_barrier is not None:
                real_barrier()

        store.pool.wal_barrier = barrier
        return events

    def test_a_scan_keeps_the_dirty_leaf_and_steals_nothing(
            self, tmp_path, monkeypatch):
        db = paged_db(tmp_path, pool_pages=8)
        db.run("CREATE TABLE t (id INT PRIMARY KEY, pad VARCHAR(60))")
        for start in range(0, 600, 100):
            db.run("INSERT INTO t (id, pad) VALUES " + ", ".join(
                "(%d, '%s')" % (i, "p" * 50)
                for i in range(start, start + 100)))
        db.checkpoint()
        store = db.page_store
        pool = store.pool
        assert len(db.tables["t"].store.pages()) >= 10 * pool.capacity
        events = self._record_steals(store, monkeypatch)
        db.run("UPDATE t SET pad = 'changed' WHERE id = 300")
        images, _versions = pool.dirty_images()
        assert len(images) == 1
        (leaf,) = images
        evictions, flushes = pool.evictions, pool.dirty_flushes
        for _ in range(3):
            rows = db.run("SELECT COUNT(*), SUM(LENGTH(pad)) FROM t")
            assert rows[0].result_set.rows == [(600, 599 * 50 + 7)]
        assert pool.evictions - evictions >= 3 * 10 * pool.capacity
        assert events == []
        assert pool.dirty_flushes == flushes
        assert store.pager.stats_dict()["spill_pages"] == 0
        assert list(pool.dirty_images()[0]) == [leaf]
        # the next checkpoint homes the leaf the scans left resident
        db.checkpoint()
        assert pool.dirty_images()[0] == {}
        _lsn, payload = store.pager.read_page(leaf)
        assert payload == pool.encoder(pool.fetch(leaf))
        assert {"id": 300, "pad": "changed"} in pool.fetch(leaf)["r"]
        assert events == []
        db.close()

    def test_every_unpinned_frame_dirty_steals_barrier_first(
            self, tmp_path, monkeypatch):
        store = node_store(tmp_path)
        pool = store.pool
        pages = [pool.new_page({"p": i}) for i in range(4)]
        home_every_page(store)
        events = self._record_steals(store, monkeypatch)
        for page_no in pages[:3]:
            pool.mark_dirty(page_no)
        # one clean frame left: it is the victim, and nothing is written
        pool.new_page({"p": 4})
        assert pages[3] not in pool and events == []
        # every frame dirty: the clock steals, the barrier first
        pool.new_page({"p": 5})
        assert len(events) == 2 and events[0] == "barrier"
        assert events[1][0] == "spill" and events[1][1] not in pool
        assert pool.dirty_flushes == 1
        # the clean frames all pinned: a dirty one is stolen
        home_every_page(store)
        resident = [page_no for page_no in range(1, 8) if page_no in pool]
        clean, dirty = resident[:2], resident[2:]
        for page_no in clean:
            pool.pin(page_no)
        for page_no in dirty:
            pool.mark_dirty(page_no)
        del events[:]
        pool.new_page({"p": 6})
        assert len(events) == 2 and events[0] == "barrier"
        assert events[1][0] == "spill" and events[1][1] in dirty
        assert all(page_no in pool for page_no in clean)
        store.close()

    def test_a_pinned_frame_is_never_a_victim(self, tmp_path):
        store = node_store(tmp_path)
        pool = store.pool
        pages = [pool.new_page({"p": i}) for i in range(4)]
        home_every_page(store)
        pool.mark_dirty(pages[0])
        pool.mark_dirty(pages[2])
        pool.pin(pages[1])      # the only clean frame but one
        victims = []
        for _ in range(3):
            resident = [page_no for page_no in pages if page_no in pool]
            pool._evict_one()
            victims.extend(page_no for page_no in resident
                           if page_no not in pool)
        # clean before dirty, and never the pinned page
        assert victims == [pages[3], pages[0], pages[2]]
        with pytest.raises(PagerError):
            pool._evict_one()
        assert pages[1] in pool
        assert pool.dirty_flushes == 2
        store.close()


class TestClockRing(object):
    def test_a_freed_and_reallocated_page_is_listed_once(self, tmp_path):
        """A page freed while resident and reallocated is one frame, so
        one place on the clock — not one per allocation, which gave it
        a second chance per listing and grew the ring without bound."""
        store = node_store(tmp_path, capacity=2)
        pool = store.pool
        first = pool.new_page({"p": "first"})
        second = pool.new_page({"p": "second"})
        for round_no in range(5):
            store.free_page(first)
            assert pool.new_page({"p": round_no}) == first
        assert sorted(pool._ring) == sorted([first, second])
        # the clock evicts the older page, not the reallocated one
        pool.new_page({"p": "third"})
        assert first in pool and second not in pool
        store.close()


class TestRecoveryRoundTrip(object):
    def test_checkpoint_plus_tail_replay(self, tmp_path):
        db = paged_db(tmp_path)
        for sql in STATEMENTS:
            db.run(sql)
        db.checkpoint()
        db.run("INSERT INTO t (name, qty) VALUES ('post-ckpt', 4242)")
        golden = state_digest(db)
        db.close()
        recovered = paged_db(tmp_path)
        assert state_digest(recovered) == golden
        assert isinstance(recovered.tables["t"].store, PagedRows)
        assert recovered.run(
            "SELECT COUNT(*) FROM t WHERE qty = 4242"
        )[0].result_set.scalar() == 1
        assert verify_index_consistency(recovered) == []
        recovered.close()

    def test_a_clean_checkpoint_writes_no_doublewrite_batch(self, tmp_path):
        """A checkpoint with no dirty page leaves the page files alone
        (no batch body, no seal, no fsync), and a kill right after it
        recovers the same state: the JSON names a batch id the sealed
        leftover does not carry, so recovery never re-applies it."""
        db = paged_db(tmp_path)
        for sql in STATEMENTS:
            db.run(sql)
        db.checkpoint()
        golden = state_digest(db)
        pager = db.page_store.pager
        before = (pager.writes, pager.fsyncs, db.page_store.batch_id)
        db.checkpoint()
        assert (pager.writes, pager.fsyncs) == before[:2]
        assert db.page_store.batch_id == before[2] + 1
        assert pager.load_doublewrite()[0] == before[2]
        db.reopen()
        assert db.recovery_report["pages"]["dw_applied"] == 0
        assert state_digest(db) == golden
        assert verify_index_consistency(db) == []
        db.close()

    def test_reopen_into_memory_backend_reads_the_same_wal(self, tmp_path):
        """The backends share one WAL format: a directory written by
        the paged engine recovers bit-identically on the in-memory
        one (the scan APIs are the only contract)."""
        db = paged_db(tmp_path, name="shared")
        for sql in STATEMENTS:
            db.run(sql)
        golden = state_digest(db)
        db.close()
        memory = Database.recover(str(tmp_path / "shared"), seed=1)
        assert state_digest(memory) == golden
        memory.close()


class TestStatusAccounting(object):
    def test_septic_status_carries_buffer_pool_counters(self, tmp_path):
        db = paged_db(tmp_path)
        septic = Septic()
        septic.bind_store(db)
        for sql in STATEMENTS:
            db.run(sql)
        storage = septic.status()["storage"]
        assert storage["pages_cached"] <= storage["capacity"] == 4
        assert storage["evictions"] > 0
        assert storage["dirty_flushes"] > 0
        assert storage["scrub_repairs"] == 0
        assert storage["pager"]["writes"] > 0
        assert storage["scrubber"]["false_repairs"] == 0
        db.close()

    def test_memory_backend_reports_no_storage(self, tmp_path):
        db = Database.recover(str(tmp_path / "mem"), seed=1)
        septic = Septic()
        septic.bind_store(db)
        assert septic.status()["storage"] is None
        db.close()
