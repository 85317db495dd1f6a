"""The web stack's socket front end across a hard restart.

``WebServer.restart(hard=True)`` drops every wire connection, recovers
the engine from its data directory and rebinds the same host:port; once
``stop_net()`` returns, nothing listens there and no server thread is
left running.
"""

import socket
import threading

import pytest

from repro.net.client import NetClient
from repro.sqldb.engine import Database
from repro.web.server import WebServer
from tests.conftest import TICKETS_SCHEMA


class _App(object):
    """Just enough application for the web server: its database."""

    def __init__(self, database):
        self.database = database


def _server_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("net-")]


def test_hard_restart_rebinds_the_port_and_stop_leaves_nothing(tmp_path):
    database = Database.recover(str(tmp_path / "data"), wal_sync="batch")
    for statement in TICKETS_SCHEMA.strip().rstrip(";").split(";"):
        database.run(statement)
    web = WebServer(_App(database))
    host, port = web.serve_net()
    try:
        with NetClient(host, port) as before:
            assert before.ping()
            web.restart(hard=True)
            # the bounce dropped the connection
            assert not before.ping()
        assert (web.net_server.host, web.net_server.port) == (host, port)
        with NetClient(host, port) as after:
            assert after.query_or_raise(
                "SELECT COUNT(*) FROM tickets").scalar() == 3
    finally:
        web.stop_net()
        database.close()
    assert _server_threads() == []
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, port), timeout=5.0).close()
