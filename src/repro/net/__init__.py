"""The wire-protocol front end: socket server, client driver, pool.

Everything that touches raw sockets lives in this package (a lint
gate enforces it); the rest of the system sees only the
:class:`~repro.net.server.NetServer` /
:class:`~repro.net.client.NetClient` /
:class:`~repro.net.pool.ConnectionPool` objects.
"""

from repro.net.client import NetClient, RemoteError
from repro.net.pool import ConnectionPool
from repro.net.protocol import NetProtocolError, TornFrameError
from repro.net.server import NetServer

__all__ = [
    "ConnectionPool",
    "NetClient",
    "NetProtocolError",
    "NetServer",
    "RemoteError",
    "TornFrameError",
]
