"""A write through the router that assigns a table's shard key is
refused with 1235 before any shard runs it.

The row's shard is where its key hashes.  An UPDATE or an ON DUPLICATE
KEY UPDATE that gives the row a new key runs on the row's old shard and
leaves it there, off the new key's range: a keyed read of the new key
misses it, and an INSERT of that key lands on its home shard beside it,
a primary key held twice.  The router refuses such writes as it refuses
the other shapes it cannot serve; writes that keep the key work,
ON DUPLICATE KEY UPDATE included.
"""

import pytest

from repro.benchlab.crashsweep import MarkerSeptic
from repro.shard import ShardRouter


@pytest.fixture
def router(tmp_path):
    router = ShardRouter(str(tmp_path / "fleet"), shards=2, replicas=1,
                         heartbeat_interval=1, lease_intervals=2,
                         septic_factory=MarkerSeptic)
    router.query_or_raise("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    router.query_or_raise("INSERT INTO t VALUES (1, 10)")
    # the keys the cases move between live on different shards
    homes = {key: router.catalog.shard_for("t", key) for key in (1, 4, 5)}
    assert homes[1] != homes[4] and homes[1] != homes[5], homes
    yield router
    router.close()


def _everywhere(router):
    """Every row of ``t`` on every shard (a scatter)."""
    return sorted(router.query_or_raise("SELECT id, v FROM t").rows)


@pytest.mark.parametrize("sql", [
    "UPDATE t SET id = 4 WHERE id = 1",
    "UPDATE t SET v = 0, ID = 4 WHERE id = 1",
    "INSERT INTO t VALUES (1, 99) ON DUPLICATE KEY UPDATE id = 5",
    "INSERT INTO t VALUES (1, 99) ON DUPLICATE KEY UPDATE id = id + 4",
])
def test_a_write_that_assigns_the_shard_key_is_refused(router, sql):
    for _ in range(2):      # the refusal is not cached as a route
        outcome = router.query(sql)
        assert outcome.error is not None and outcome.error.errno == 1235
        assert "shard key" in str(outcome.error)
    assert _everywhere(router) == [(1, 10)]
    # the key the write would have given the row is still free, and an
    # INSERT of it leaves each key once
    router.query_or_raise("INSERT INTO t VALUES (4, 77)")
    assert _everywhere(router) == [(1, 10), (4, 77)]
    assert router.query_or_raise(
        "SELECT v FROM t WHERE id = 4").rows == [(77,)]


def test_a_write_that_keeps_the_shard_key_runs(router):
    router.query_or_raise("UPDATE t SET v = 11 WHERE id = 1")
    outcome = router.query_or_raise(
        "INSERT INTO t VALUES (1, 99) ON DUPLICATE KEY UPDATE v = v + 1")
    assert outcome.affected_rows == 2
    outcome = router.query_or_raise(
        "INSERT INTO t VALUES (4, 40) ON DUPLICATE KEY UPDATE v = 0")
    assert outcome.affected_rows == 1
    router.query_or_raise(
        "INSERT INTO t VALUES (4, 41) ON DUPLICATE KEY UPDATE v = VALUES(v)")
    assert _everywhere(router) == [(1, 12), (4, 41)]
