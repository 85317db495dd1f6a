"""One thread per connection: what that shape must and must not do.

* a client that connects and never handshakes loses its slot at the
  handshake deadline, so a later client gets in;
* a connection parked mid-statement holds back no other connection —
  the engine is never serialized behind one socket.
"""

import socket
import threading

from repro.core.plugins.base import StoredInjectionPlugin
from repro.core.septic import Mode, Septic
from repro.net import server as server_mod
from repro.net.client import NetClient
from repro.net.server import NetServer
from repro.sqldb.engine import Database
from tests.conftest import TICKETS_SCHEMA

#: the INSERT value the parking plugin holds on to
PARKED_VALUE = "park-here"


class _ParkingPlugin(StoredInjectionPlugin):
    """A stored-injection plugin that, for one marked value, signals it
    was reached and blocks until released — a statement parked inside
    SEPTIC, before it executes."""

    attack_type = "STORED_TEST"

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def suspicious(self, text):
        return text == PARKED_VALUE

    def confirm(self, text):
        self.entered.set()
        self.release.wait(30.0)
        return False


def test_a_silent_client_loses_its_slot_at_the_handshake_deadline(
        monkeypatch):
    # (not raising: a server without the deadline must fail below, on
    # the silent client, not here)
    monkeypatch.setattr(server_mod, "HANDSHAKE_TIMEOUT", 0.2, raising=False)
    database = Database()
    database.seed(TICKETS_SCHEMA)
    with NetServer(database, max_connections=1) as server:
        silent = socket.create_connection((server.host, server.port),
                                          timeout=5.0)
        try:
            # it sends nothing; the server hangs up on it at the deadline
            assert silent.recv(1) == b""
        finally:
            silent.close()
        with NetClient(server.host, server.port) as client:
            assert client.ping()
        stats = server.stats_dict()
        assert stats["rejected"] == 1
        assert stats["accepted"] == 1


def test_a_parked_connection_holds_back_no_other():
    plugin = _ParkingPlugin()
    septic = Septic(mode=Mode.PREVENTION)
    septic.detector.plugins.append(plugin)
    database = Database(septic=septic)
    database.seed(TICKETS_SCHEMA)
    with NetServer(database) as server:
        parked = NetClient(server.host, server.port, timeout=10.0)
        other = NetClient(server.host, server.port, timeout=10.0)
        try:
            parked.send_query(
                "INSERT INTO tickets (reservID, creditCard) VALUES ('%s', 1)"
                % PARKED_VALUE)
            parked.flush()
            assert plugin.entered.wait(10.0)
            # A sits inside SEPTIC on its INSERT; B is served meanwhile
            assert other.ping()
            assert other.query_or_raise(
                "SELECT COUNT(*) FROM tickets").scalar() == 3
            plugin.release.set()
            insert, = parked.drain(1)
            assert insert.ok and insert.affected_rows == 1
        finally:
            plugin.release.set()
            parked.close()
            other.close()
