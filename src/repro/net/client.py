"""Synchronous socket client for the wire protocol.

Mirrors the in-process :class:`repro.sqldb.connection.Connection`
surface (``query`` → the same
:class:`~repro.sqldb.connection.QueryOutcome`, rehydrated from the
response frame) and adds the two things only a real socket can express:

* **pipelining** — ``send_query()``/``send_execute()`` enqueue a
  command without waiting; ``drain()`` then reads the responses, which
  the server returns strictly in command order (each response echoes
  the command's ``seq``, and :meth:`NetClient.drain` verifies it).
  One round trip amortizes over the whole window;
* **server-side prepared statements** — ``prepare()`` returns a
  statement handle whose id lives on the server; ``prepare_cached()``
  reuses handles per SQL text, so a pooled connection's hot statements
  skip the parse/plan path entirely (the server routes executions
  through the pipeline cache keyed by statement id).

A torn response frame (server killed mid-write) surfaces as
:class:`~repro.net.protocol.TornFrameError` — never as an OK, and never
captured into an outcome — so an unacknowledged write stays
unacknowledged.
"""

import socket
from collections import deque

from repro.net import protocol
from repro.sqldb.connection import ClientSession, QueryOutcome
from repro.sqldb.errors import QueryBlocked, SQLError
from repro.sqldb.storage import ResultSet


class RemoteError(SQLError):
    """An ERR frame, rehydrated client-side.

    Carries the server's errno/message plus the server-side exception
    class name under ``kind`` (so tests can tell a SEPTIC block from a
    parse error without string-matching)."""

    def __init__(self, message, errno=None, kind=None, blocked=False):
        SQLError.__init__(self, message, errno=errno)
        self.kind = kind
        self.blocked = blocked

    @classmethod
    def from_frame(cls, payload, message="unknown error"):
        return cls(payload.get("message", message), payload.get("errno"),
                   payload.get("kind"), payload.get("blocked", False))


class NetPreparedHandle(object):
    """A server-side statement id plus its parameter count."""

    __slots__ = ("statement_id", "param_count", "sql")

    def __init__(self, statement_id, param_count, sql):
        self.statement_id = statement_id
        self.param_count = param_count
        self.sql = sql

    def __repr__(self):
        return "NetPreparedHandle(%d, %d params)" % (
            self.statement_id, self.param_count
        )


class NetClient(ClientSession):
    """One TCP connection to a :class:`repro.net.server.NetServer`."""

    def __init__(self, host, port, charset="utf8", multi_statements=False,
                 timeout=30.0):
        self.host = host
        self.port = port
        self.charset = charset
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._seq = 0
        #: seqs of the commands sent whose responses have not been read
        #: yet, oldest first — the order the server answers in
        self._pending = deque()
        #: encoded frames awaiting one coalesced ``sendall`` — a
        #: pipelined window ships as a single syscall (see :meth:`flush`)
        self._outbuf = bytearray()
        #: receive buffer: one large ``recv`` serves many small frames,
        #: so draining a window costs ~one syscall, not two per frame
        self._inbuf = bytearray()
        self._inpos = 0
        self._closed = False
        #: sql text -> NetPreparedHandle (statement-id reuse)
        self._handle_cache = {}
        self._send(protocol.HANDSHAKE, {
            "charset": charset, "multi": multi_statements,
            "client": "repro-net",
        })
        opcode, payload = self._read_frame()
        if opcode == protocol.ERR:
            self.close()
            raise RemoteError.from_frame(payload, "handshake refused")
        if opcode != protocol.HANDSHAKE_OK:
            self.close()
            raise protocol.NetProtocolError(
                "expected HANDSHAKE_OK, got %s"
                % protocol.OPCODE_NAMES.get(opcode, opcode)
            )
        self.connection_id = payload.get("connection_id")
        self.server_version = payload.get("server_version")

    # -- framing -----------------------------------------------------------

    def _send(self, opcode, payload):
        """Buffer one frame; it leaves on the next :meth:`flush` (every
        response read flushes first, so a lone command still goes out
        immediately — buffering only coalesces pipelined windows)."""
        if self._closed:
            raise protocol.NetProtocolError("client is closed")
        self._outbuf += protocol.encode_frame(opcode, payload)

    def flush(self):
        """Ship every buffered frame in one ``sendall``."""
        if self._outbuf:
            blob = bytes(self._outbuf)
            del self._outbuf[:]
            self._sock.sendall(blob)

    def _recv_exact(self, count):
        buffer = self._inbuf
        while len(buffer) - self._inpos < count:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise protocol.TornFrameError(
                    "connection closed after %d of %d expected bytes"
                    % (len(buffer) - self._inpos, count)
                )
            buffer += chunk
        start = self._inpos
        self._inpos += count
        data = bytes(buffer[start:self._inpos])
        if self._inpos >= len(buffer):
            del buffer[:]
            self._inpos = 0
        return data

    def _read_frame(self):
        self.flush()  # never wait on a response still sitting here
        header = self._recv_exact(protocol.HEADER.size)
        length, crc = protocol.unpack_header(header)
        body = self._recv_exact(length)
        return protocol.decode_body(body, crc)

    # -- pipelined sends ---------------------------------------------------

    def _enqueue(self, opcode, payload):
        """Buffer one command under the next seq; returns the seq."""
        self._seq += 1
        payload["seq"] = self._seq
        self._send(opcode, payload)
        self._pending.append(self._seq)
        return self._seq

    def send_query(self, sql):
        """Enqueue a COM_QUERY without waiting; returns its seq."""
        return self._enqueue(protocol.COM_QUERY, {"sql": sql})

    def send_execute(self, handle, params=()):
        """Enqueue a COM_STMT_EXECUTE without waiting; returns its seq."""
        return self._enqueue(protocol.COM_STMT_EXECUTE, {
            "stmt_id": handle.statement_id, "params": list(params),
        })

    def send_ping(self):
        return self._enqueue(protocol.COM_PING, {})

    def _read_response(self):
        """The next response frame, held to the command it must answer:
        the server answers in command order and echoes each ``seq``, so
        any other seq means the stream is out of step and no frame after
        it can be trusted."""
        opcode, payload = self._read_frame()
        expected = self._pending.popleft()
        if payload.get("seq") != expected:
            raise protocol.NetProtocolError(
                "response carries seq %r, the oldest unanswered command "
                "is seq %r" % (payload.get("seq"), expected))
        return opcode, payload

    def drain(self, count=None):
        """Read *count* pending responses (default: all), in command
        order.  Returns a list of
        :class:`~repro.sqldb.connection.QueryOutcome`."""
        if count is None:
            count = len(self._pending)
        return [self._to_outcome(*self._read_response())
                for _ in range(count)]

    @property
    def pending(self):
        return len(self._pending)

    def _to_outcome(self, opcode, payload):
        seq = payload.get("seq")
        if opcode == protocol.ERR:
            return QueryOutcome(error=RemoteError.from_frame(payload),
                                seq=seq)
        if opcode == protocol.RESULTSET:
            return QueryOutcome(ResultSet(payload.get("columns", ()),
                                          payload.get("rows", ())), seq=seq)
        if opcode == protocol.OK:
            return QueryOutcome(
                affected_rows=payload.get("affected", 0),
                last_insert_id=payload.get("last_insert_id"), seq=seq)
        if opcode == protocol.PONG:
            return QueryOutcome(seq=seq)
        raise protocol.NetProtocolError(
            "unexpected response opcode %s"
            % protocol.OPCODE_NAMES.get(opcode, opcode)
        )

    # -- one-round-trip conveniences ---------------------------------------

    def query(self, sql):
        """Send one query and wait for its response (the unpipelined
        baseline the throughput bench measures against)."""
        self.send_query(sql)
        return self.drain(1)[0]

    def _call(self, opcode, payload):
        """One command whose answer is not an outcome: sent and answered
        on its own, never behind pipelined commands whose responses it
        would otherwise read as its own."""
        if self._pending:
            raise protocol.NetProtocolError(
                "%d pipelined responses are pending: drain() them first"
                % len(self._pending))
        self._enqueue(opcode, payload)
        return self._read_response()

    def prepare(self, sql):
        """COM_STMT_PREPARE; returns a :class:`NetPreparedHandle`."""
        opcode, payload = self._call(protocol.COM_STMT_PREPARE,
                                     {"sql": sql})
        if opcode == protocol.ERR:
            raise RemoteError.from_frame(payload, "prepare failed")
        if opcode != protocol.STMT_PREPARE_OK:
            raise protocol.NetProtocolError(
                "expected STMT_PREPARE_OK, got %s"
                % protocol.OPCODE_NAMES.get(opcode, opcode)
            )
        return NetPreparedHandle(payload["stmt_id"],
                                 payload.get("params", 0), sql)

    def prepare_cached(self, sql):
        """Per-connection handle reuse: the first call prepares on the
        server, later calls return the same handle — a pooled
        connection keeps its server-side statements (and so the
        server's per-statement plan cache) warm across checkouts."""
        handle = self._handle_cache.get(sql)
        if handle is None:
            handle = self.prepare(sql)
            self._handle_cache[sql] = handle
        return handle

    def execute(self, handle, *params):
        """Execute a prepared handle and wait for its response."""
        if len(params) == 1 and isinstance(params[0], (list, tuple)):
            params = tuple(params[0])
        self.send_execute(handle, params)
        return self.drain(1)[0]

    def close_statement(self, handle):
        opcode, _payload = self._call(protocol.COM_STMT_CLOSE,
                                      {"stmt_id": handle.statement_id})
        self._handle_cache.pop(handle.sql, None)
        return opcode == protocol.OK

    def ping(self):
        """Health check; ``False`` means the connection is dead."""
        try:
            self.send_ping()
            return self.drain(1)[0].ok
        except (protocol.NetProtocolError, OSError):
            return False

    def close(self):
        if self._closed:
            return
        self._closed = True
        try:
            self.flush()
            self._sock.sendall(
                protocol.encode_frame(protocol.COM_QUIT, {})
            )
        except Exception:
            pass  # goodbye is best-effort (peer gone, fault armed, ...)
        try:
            self._sock.close()
        except OSError:
            pass


__all__ = ["NetClient", "NetPreparedHandle", "RemoteError", "QueryBlocked"]
