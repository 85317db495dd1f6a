"""Integration tests for the socket front end (server + client + pool)."""

import pytest

from repro.core.logger import SepticLogger
from repro.core.septic import Mode, Septic
from repro.net.client import NetClient, RemoteError
from repro.net.pool import ConnectionPool, PoolExhaustedError
from repro.net.protocol import NetProtocolError
from repro.net.server import NetServer
from repro.sqldb.engine import Database
from tests.conftest import TICKETS_SCHEMA


class TestQueries(object):
    def test_literal_select(self, client):
        outcome = client.query_or_raise(
            "SELECT reservID, creditCard FROM tickets WHERE id = 1"
        )
        assert outcome.columns == ["reservID", "creditCard"]
        assert outcome.rows == [("ID34FG", 1234)]

    def test_write_then_read_back(self, client):
        write = client.query_or_raise(
            "INSERT INTO tickets (reservID, creditCard) VALUES ('NEW1', 7)"
        )
        assert write.affected_rows == 1
        assert write.last_insert_id is not None
        row = client.query_or_raise(
            "SELECT creditCard FROM tickets WHERE reservID = 'NEW1'"
        )
        assert row.scalar() == 7

    def test_ok_frame_carries_the_statements_own_insert_id(self, client):
        """At a73f262 the OK frame read the *session's* last insert id
        at encode time, so an UPDATE reported the previous INSERT's."""
        insert = client.query_or_raise(
            "INSERT INTO tickets (reservID, creditCard) VALUES ('NEW2', 8)"
        )
        assert insert.last_insert_id == client.query_or_raise(
            "SELECT id FROM tickets WHERE reservID = 'NEW2'").scalar()
        update = client.query_or_raise(
            "UPDATE tickets SET creditCard = 9 WHERE reservID = 'NEW2'")
        assert update.affected_rows == 1
        assert update.last_insert_id is None

    def test_error_travels_as_err_frame(self, client):
        outcome = client.query("SELEKT nonsense")
        assert not outcome.ok
        assert isinstance(outcome.error, RemoteError)
        assert outcome.error.kind == "ParseError"

    def test_ping(self, client):
        assert client.ping() is True

    def test_transactions_over_the_wire(self, client):
        client.query_or_raise("BEGIN")
        client.query_or_raise(
            "INSERT INTO tickets (reservID, creditCard) VALUES ('TX1', 1)"
        )
        client.query_or_raise("COMMIT")
        assert client.query_or_raise(
            "SELECT COUNT(*) FROM tickets WHERE reservID = 'TX1'"
        ).scalar() == 1


class TestPipelining(object):
    def test_responses_come_back_in_command_order(self, client):
        seqs = [client.send_query(
            "SELECT reservID FROM tickets WHERE id = %d" % (i % 3 + 1)
        ) for i in range(12)]
        outcomes = client.drain()
        assert [o.seq for o in outcomes] == seqs
        assert all(o.ok for o in outcomes)
        assert client.pending == 0

    def test_mixed_pipeline_preserves_order(self, client):
        s1 = client.send_query("SELECT 1")
        s2 = client.send_ping()
        s3 = client.send_query("SELEKT broken")
        s4 = client.send_query("SELECT 2")
        outcomes = client.drain()
        assert [o.seq for o in outcomes] == [s1, s2, s3, s4]
        assert outcomes[0].scalar() == 1
        assert outcomes[2].error is not None
        assert outcomes[3].scalar() == 2

    def test_a_round_trip_cannot_eat_a_pipelined_acknowledgement(self,
                                                                 client):
        """At a73f262 ``close_statement`` behind two pipelined commands
        read the INSERT's OK frame as its own answer, and ``drain()``
        then handed the SELECT's rows back for the INSERT."""
        handle = client.prepare("SELECT reservID FROM tickets WHERE id = ?")
        sent = [client.send_query(
                    "INSERT INTO tickets (reservID, creditCard) "
                    "VALUES ('PIPE', 5)"),
                client.send_query("SELECT COUNT(*) FROM tickets")]
        with pytest.raises(NetProtocolError):
            client.close_statement(handle)
        with pytest.raises(NetProtocolError):
            client.prepare("SELECT 1")
        insert, select = client.drain()
        assert [insert.seq, select.seq] == sent
        assert insert.affected_rows == 1 and insert.rows == []
        assert select.scalar() == 4
        # nothing was closed, nothing is pending: the handle still works
        assert client.execute(handle, 1).rows == [("ID34FG",)]
        assert client.close_statement(handle) is True

    def test_drain_refuses_a_response_to_another_command(self, client):
        client.send_query("SELECT 1")
        # as if an earlier command's response were still owed
        client._pending.appendleft(client._pending[0] - 1)
        with pytest.raises(NetProtocolError) as excinfo:
            client.drain(1)
        assert "seq" in str(excinfo.value)

    def test_deep_pipeline_batches_executor_hops(self, served):
        database, server = served
        with NetClient(server.host, server.port) as client:
            for _ in range(40):
                client.send_ping()
            outcomes = client.drain()
        assert len(outcomes) == 40
        stats = server.stats_dict()
        # 40 commands must not have cost 40 executor hops — batching is
        # the amortization the throughput gate measures
        assert stats["commands"] >= 40
        assert stats["batches"] < 40

    def test_backpressure_counts_flow_pauses(self):
        database = Database()
        database.seed(TICKETS_SCHEMA)
        with NetServer(database, inbox_limit=2, batch_limit=1) as server:
            with NetClient(server.host, server.port) as client:
                for _ in range(64):
                    client.send_query("SELECT COUNT(*) FROM tickets")
                outcomes = client.drain()
            assert all(o.ok for o in outcomes)
            assert server.stats_dict()["flow_pauses"] > 0


class TestPreparedOverTheWire(object):
    def test_prepare_execute_close(self, client):
        handle = client.prepare(
            "SELECT reservID FROM tickets WHERE creditCard = ?"
        )
        assert handle.param_count == 1
        assert client.execute(handle, 1234).rows == [("ID34FG",)]
        assert client.execute(handle, 9999).rows == [("ZZ11AA",)]
        assert client.close_statement(handle) is True

    def test_execute_after_close_is_err_1243(self, client):
        handle = client.prepare("SELECT * FROM tickets WHERE id = ?")
        client.close_statement(handle)
        outcome = client.execute(handle, 1)
        assert outcome.error is not None
        assert outcome.error.errno == 1243

    def test_prepare_parse_error_raises(self, client):
        with pytest.raises(RemoteError):
            client.prepare("SELEKT ? FROM nowhere")

    def test_repeat_executions_hit_the_pipeline_cache(self, served):
        database, server = served
        with NetClient(server.host, server.port) as client:
            handle = client.prepare_cached(
                "SELECT reservID FROM tickets WHERE creditCard = ?"
            )
            client.execute(handle, 1234)
            hits_before = database.pipeline_cache.hits
            for _ in range(5):
                assert client.execute(handle, 1234).rows == [("ID34FG",)]
            assert database.pipeline_cache.hits >= hits_before + 5

    def test_prepare_cached_reuses_the_server_side_id(self, client):
        first = client.prepare_cached("SELECT * FROM tickets WHERE id = ?")
        second = client.prepare_cached("SELECT * FROM tickets WHERE id = ?")
        assert first is second


class TestConnectionLimits(object):
    def test_capacity_rejection_is_err_1040(self):
        database = Database()
        database.seed(TICKETS_SCHEMA)
        with NetServer(database, max_connections=1) as server:
            with NetClient(server.host, server.port) as first:
                assert first.ping()
                with pytest.raises((RemoteError, OSError)) as excinfo:
                    NetClient(server.host, server.port)
                if isinstance(excinfo.value, RemoteError):
                    assert excinfo.value.errno == 1040
            assert server.stats_dict()["rejected"] >= 1

    def test_unknown_charset_is_err_1115(self, served):
        _database, server = served
        with pytest.raises(RemoteError) as excinfo:
            NetClient(server.host, server.port, charset="klingon")
        assert excinfo.value.errno == 1115

    def test_slot_frees_on_disconnect(self):
        database = Database()
        database.seed(TICKETS_SCHEMA)
        with NetServer(database, max_connections=1) as server:
            with NetClient(server.host, server.port) as client:
                client.ping()
            # the slot must come back once the first client leaves
            for _ in range(50):
                try:
                    second = NetClient(server.host, server.port)
                    break
                except (RemoteError, OSError):
                    continue
            else:
                pytest.fail("connection slot never freed")
            with second:
                assert second.ping()


class TestStats(object):
    def test_counters_and_septic_status(self):
        septic = Septic(mode=Mode.TRAINING, logger=SepticLogger())
        database = Database(septic=septic)
        database.seed(TICKETS_SCHEMA)
        septic.bound_database = database
        with NetServer(database) as server:
            with NetClient(server.host, server.port) as client:
                client.query("SELECT COUNT(*) FROM tickets")
            stats = server.stats_dict()
            assert stats["accepted"] == 1
            assert stats["commands"] >= 1
            net = septic.status()["net"]
            assert net is not None and net["accepted"] == 1
        # after stop the provider is uninstalled again
        assert septic.status()["net"] is None


class TestConnectionPool(object):
    def test_checkout_reuses_released_connections(self, served):
        _database, server = served
        pool = ConnectionPool(server.host, server.port, size=2,
                              server=server)
        try:
            with pool.connection() as conn:
                assert conn.ping()
            with pool.connection() as conn:
                assert conn.query_or_raise("SELECT 1").scalar() == 1
            stats = pool.stats_dict()
            assert stats["created"] == 1
            assert stats["reuses"] == 1
            assert server.stats_dict()["pooled"] == 1
        finally:
            pool.close()

    def test_pooled_connection_keeps_statement_handles_warm(self, served):
        _database, server = served
        pool = ConnectionPool(server.host, server.port, size=1)
        try:
            with pool.connection() as conn:
                first = conn.prepare_cached(
                    "SELECT reservID FROM tickets WHERE id = ?"
                )
            with pool.connection() as conn:
                again = conn.prepare_cached(
                    "SELECT reservID FROM tickets WHERE id = ?"
                )
                assert again is first  # same socket, same server-side id
                assert conn.execute(again, 2).rows == [("ZZ11AA",)]
        finally:
            pool.close()

    def test_exhausted_pool_raises_after_timeout(self, served):
        _database, server = served
        pool = ConnectionPool(server.host, server.port, size=1,
                              checkout_timeout=0.05)
        try:
            held = pool.checkout()
            with pytest.raises(PoolExhaustedError):
                pool.checkout()
            pool.release(held)
        finally:
            pool.close()

    def test_dead_idle_connection_is_replaced(self, served):
        _database, server = served
        pool = ConnectionPool(server.host, server.port, size=1)
        try:
            first = pool.checkout()
            pool.release(first)
            first._sock.close()  # kill it behind the pool's back
            second = pool.checkout()
            assert second is not first
            assert second.ping()
            assert pool.stats_dict()["health_failures"] == 1
            pool.release(second)
        finally:
            pool.close()
