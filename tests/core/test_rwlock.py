"""Unit tests for the reader–writer lock the engine's lock plans use."""

import sys
import threading
import time

from repro.core.resilience import RWLock, make_lock, make_rlock
from repro.sqldb.engine import LockManager


def _spin_until(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


class TestReaderSharing(object):
    def test_readers_share(self):
        lock = RWLock()
        lock.acquire_read()
        lock.acquire_read()
        state = lock.state_dict()
        assert state["readers"] == 2
        assert state["contended"] == 0
        lock.release_read()
        lock.release_read()
        assert lock.state_dict()["readers"] == 0

    def test_counters_are_exact(self):
        lock = RWLock()
        for _ in range(3):
            lock.acquire_read()
            lock.release_read()
        lock.acquire_write()
        lock.release_write()
        assert lock.read_acquires == 3
        assert lock.write_acquires == 1

    def test_mode_dispatch(self):
        lock = RWLock()
        lock.acquire(True)
        assert lock.state_dict()["readers"] == 1
        lock.release(True)
        lock.acquire(False)
        assert lock.state_dict()["writer"]
        lock.release(False)


class TestWriterExclusion(object):
    def test_writer_blocks_reader(self):
        lock = RWLock()
        lock.acquire_write()
        got = []

        def reader():
            lock.acquire_read()
            got.append("read")
            lock.release_read()

        thread = threading.Thread(target=reader)
        thread.start()
        assert _spin_until(lambda: lock.contended >= 1)
        assert got == []
        lock.release_write()
        thread.join(timeout=5)
        assert got == ["read"]

    def test_reader_blocks_writer(self):
        lock = RWLock()
        lock.acquire_read()
        got = []

        def writer():
            lock.acquire_write()
            got.append("write")
            lock.release_write()

        thread = threading.Thread(target=writer)
        thread.start()
        assert _spin_until(
            lambda: lock.state_dict()["writers_waiting"] == 1
        )
        assert got == []
        lock.release_read()
        thread.join(timeout=5)
        assert got == ["write"]

    def test_waiting_writer_blocks_new_readers(self):
        # writer preference: with a writer queued, a late reader must
        # wait behind it — a SELECT stream cannot starve an UPDATE
        lock = RWLock()
        lock.acquire_read()
        order = []

        def writer():
            lock.acquire_write()
            order.append("write")
            lock.release_write()

        def late_reader():
            lock.acquire_read()
            order.append("read")
            lock.release_read()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        assert _spin_until(
            lambda: lock.state_dict()["writers_waiting"] == 1
        )
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        assert _spin_until(lambda: lock.contended >= 2)
        assert order == []
        lock.release_read()
        writer_thread.join(timeout=5)
        reader_thread.join(timeout=5)
        assert order[0] == "write"
        assert sorted(order) == ["read", "write"]


class TestStress(object):
    """More threads than cores, a one-microsecond switch interval: the
    last reader out wakes only a waiting writer (it skips the wake-up
    when none waits), so a lost wake-up would leave a thread blocked
    past its join timeout, and an overlap would break the invariant."""

    def test_no_overlap_and_no_lost_wakeup(self):
        lock = RWLock()
        inside = {"readers": 0, "writers": 0}
        guard = threading.Lock()
        broken = []

        def enter(kind, other):
            with guard:
                inside[kind] += 1
                if inside[other] or (kind == "writers"
                                     and inside["writers"] > 1):
                    broken.append(dict(inside))

        def leave(kind):
            with guard:
                inside[kind] -= 1

        def reader():
            for _ in range(300):
                lock.acquire_read()
                enter("readers", "writers")
                leave("readers")
                lock.release_read()

        def writer():
            for _ in range(150):
                lock.acquire_write()
                enter("writers", "readers")
                leave("writers")
                lock.release_write()

        threads = [threading.Thread(target=reader) for _ in range(4)] + \
            [threading.Thread(target=writer) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert broken == []
        assert lock.state_dict()["readers"] == 0
        assert lock.read_acquires == 4 * 300
        assert lock.write_acquires == 2 * 150

    def test_a_table_lock_is_made_once(self):
        manager = LockManager()
        barrier = threading.Barrier(6)
        got = []

        def fetch():
            barrier.wait(timeout=10)
            got.append(manager.table_lock("t"))

        threads = [threading.Thread(target=fetch) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 6 and len(set(map(id, got))) == 1


class TestFactories(object):
    def test_make_lock_is_a_mutex(self):
        lock = make_lock()
        assert lock.acquire(blocking=False)
        lock.release()

    def test_make_rlock_is_reentrant(self):
        lock = make_rlock()
        with lock:
            with lock:
                pass
