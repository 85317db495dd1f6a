"""Replica-fed page repair: a caught-up replica is the scrubber's last
repair source for a primary running paged storage.  A paged
``ReplicaSet`` wires it itself, and the source survives a restart."""

from repro.benchlab.crashsweep import MarkerSeptic, state_digest
from repro.replica import ReplicaSet
from repro.sqldb import pager as pager_mod
from repro.sqldb.connection import Connection


def make_set(tmp_path, **kwargs):
    kwargs.setdefault("replicas", 2)
    kwargs.setdefault("heartbeat_interval", 2)
    kwargs.setdefault("septic_factory", MarkerSeptic)
    kwargs.setdefault("storage", "paged")
    return ReplicaSet(str(tmp_path / "set"), **kwargs)


def seed_rows(replica_set, count=30):
    conn = Connection(replica_set.primary.database, multi_statements=True)
    conn.query_or_raise(
        "CREATE TABLE items (id INT AUTO_INCREMENT PRIMARY KEY, "
        "name VARCHAR(30))")
    for index in range(count):
        conn.query_or_raise(
            "INSERT INTO items (name) VALUES ('row%d')" % index)
    return conn


def scrub_full_pass(database):
    scrubber = database.page_store.scrubber
    pages = max(1, len(scrubber._scan_list))
    return database.scrub(-(-pages // scrubber.pages_per_tick))


def break_local_sources(replica_set, database, page_no):
    """Corrupt *page_no* and disable doublewrite, clean-frame and local
    WAL-redo repair, leaving the replica fleet as the only source."""
    data_dir = database.data_dir
    pager_mod.flip_page_bit(data_dir, page_no, 444,
                            page_size=database.page_store.pager.page_size)
    with open(pager_mod.doublewrite_path(data_dir), "r+b") as handle:
        handle.truncate(0)
    database.page_store.pool.drop(page_no)
    database.page_store.scrubber.redo_source = None


class TestReplicaFedRepair(object):
    def test_caught_up_replica_refeeds_a_corrupt_table(self, tmp_path):
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        primary = replica_set.primary.database
        # replicas must catch up first: a retention pin defers the
        # checkpoint (and the scrubber's scan set rides on it)
        replica_set.tick(2 * replica_set.heartbeat_interval)
        assert primary.checkpoint() is not None
        replica_set.tick(2 * replica_set.heartbeat_interval)
        golden = state_digest(primary)

        page_no = sorted(primary.tables["items"].store.pages())[0]
        break_local_sources(replica_set, primary, page_no)
        assert scrub_full_pass(primary) == 1

        stats = primary.storage_stats()["scrubber"]
        assert stats["repairs_by_source"].get("replica") == 1
        assert stats["quarantined"] == 0
        assert state_digest(primary) == golden
        assert any(kind == "storage_repair"
                   for _tick, kind, _detail in replica_set.events)
        replica_set.close()

    def test_lagging_replicas_never_feed_a_repair(self, tmp_path):
        """A replica behind the primary's durable frontier must be
        rejected — re-feeding stale rows would roll the table back."""
        replica_set = make_set(tmp_path)
        conn = seed_rows(replica_set)
        primary = replica_set.primary.database
        replica_set.tick(2 * replica_set.heartbeat_interval)
        assert primary.checkpoint() is not None
        # commits the replicas have NOT seen: they now trail the
        # primary's durable frontier
        conn.query_or_raise("INSERT INTO items (name) VALUES ('late')")
        golden = state_digest(primary)
        page_no = sorted(primary.tables["items"].store.pages())[0]
        break_local_sources(replica_set, primary, page_no)
        scrub_full_pass(primary)

        stats = primary.storage_stats()["scrubber"]
        assert stats["repairs_by_source"] == {}
        assert stats["quarantined"] == 1, \
            "an unrepairable page must stay quarantined, not be " \
            "papered over from a stale replica"
        # after catch-up the next pass repairs it (a re-detection does
        # not count as new, hence 0)
        replica_set.tick(2 * replica_set.heartbeat_interval)
        assert scrub_full_pass(primary) == 0
        stats = primary.storage_stats()["scrubber"]
        assert stats["repairs_by_source"].get("replica") == 1
        assert stats["quarantined"] == 0
        assert state_digest(primary) == golden
        replica_set.close()

    def test_repair_source_survives_a_primary_restart(self, tmp_path):
        """The restart rebuilds the primary's page store through
        recovery; the replica source must be installed in the new one."""
        replica_set = make_set(tmp_path)
        seed_rows(replica_set)
        replica_set.tick(2 * replica_set.heartbeat_interval)
        replica_set.primary.restart()
        primary = replica_set.primary.database
        assert primary.checkpoint() is not None
        replica_set.tick(2 * replica_set.heartbeat_interval)
        golden = state_digest(primary)

        page_no = sorted(primary.tables["items"].store.pages())[0]
        break_local_sources(replica_set, primary, page_no)
        assert scrub_full_pass(primary) == 1

        stats = primary.storage_stats()["scrubber"]
        assert stats["repairs_by_source"] == {"replica": 1}
        assert stats["quarantined"] == 0
        assert state_digest(primary) == golden
        replica_set.close()

    def test_replicas_stay_in_memory(self, tmp_path):
        """Only the primary runs paged storage; replicas rebuild from
        shipped WAL and keep the in-memory backend."""
        replica_set = make_set(tmp_path)
        assert replica_set.primary.database.page_store is not None
        for node in replica_set.replicas():
            assert node.database.page_store is None
        replica_set.close()
