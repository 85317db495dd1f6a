"""The socket server fronting a :class:`Database`: one thread per
connection, as mysqld serves its clients.

Concurrency shape (the perf substance of the front end):

* **a thread per connection** — an accept thread admits each socket
  (capacity check, ERR 1040 past ``max_connections``) and hands it to a
  thread of its own, which does the handshake and then serves the
  connection's commands straight into its engine-side
  :class:`Connection`.  Independent connections overlap freely in the
  engine (MVCC keeps readers lock-free); a long statement on one holds
  back no other;
* **pipelining with per-connection ordering** — the thread reads the
  socket into a receive buffer and cuts it into frames, so a client may
  send N commands without awaiting responses; they run strictly in
  arrival order and the responses come back in command order;
* **command batching** — up to ``batch_limit`` commands already in the
  buffer run as one batch, and the batch's responses leave in one
  ``sendall``: a deeply pipelined connection pays the syscalls once per
  batch instead of once per command;
* **backpressure** — the thread reads the socket only when no complete
  command is left in its buffer, so while it works the socket is not
  read, TCP stops ACKing and the client's send window fills: flow
  control instead of unbounded buffering.  ``flow_pauses`` counts the
  batches that left ``inbox_limit`` or more commands waiting behind
  them;
* **group commit** — the engine runs its WAL in ``sync_mode="batch"``
  under this server, so executing a write appends but does not fsync.
  After a batch that moved the commit frontier, the thread asks the
  shared :class:`GroupCommitter` to make the frontier durable; commits
  from concurrent connections coalesce into one fsync, and *only after
  it returns* are the batch's OK frames written.  An acknowledgement
  therefore never precedes durability (the kill-mid-frame crash test
  holds the server to that).

A client that connects and never completes its handshake is dropped
after :data:`HANDSHAKE_TIMEOUT` seconds, so it cannot hold a connection
slot (and a thread) forever.  No socket, engine or fsync call runs under
the counters' lock or the group-commit condition (a lint gate holds this
package to that).
"""

import socket
import threading
import time

from repro import faults as faults_mod
from repro.core.resilience import make_lock
from repro.net import protocol
from repro.sqldb import charset as charset_mod
from repro.sqldb.connection import Connection
from repro.sqldb.errors import QueryBlocked, SQLError

#: seconds a new connection has to complete its handshake (MySQL's
#: ``connect_timeout`` default); past it the socket is closed, its slot
#: freed and the attempt counted under ``rejected``
HANDSHAKE_TIMEOUT = 10.0

#: the most bytes one read takes off a connection's socket
RECV_BYTES = 65536


class GroupCommitter(object):
    """Coalesces concurrent durability waits into shared fsyncs.

    ``sync_to(lsn)`` returns once every WAL record up to *lsn* is on
    stable storage.  The first waiter in becomes the leader and runs
    the fsync outside the condition; waiters that arrive while a flush
    is in flight wait for it — the leader's fsync covers every append
    that preceded it, so they almost always find their horizon durable
    on re-check and pay nothing.
    """

    def __init__(self, database):
        self._database = database
        self._gate = threading.Condition(make_lock())
        self._flushing = False
        #: fsyncs this committer actually issued
        self.flushes = 0
        #: durability waits served
        self.waits = 0
        #: waits satisfied by somebody else's fsync (the coalesced ones)
        self.coalesced = 0

    def sync_to(self, lsn):
        database = self._database
        with self._gate:
            self.waits += 1
            rode_along = False
            while self._flushing:
                # a leader is flushing: wait for it, then re-check
                rode_along = True
                self._gate.wait()
            synced = database.wal_synced_lsn()
            if synced is None or synced >= lsn:
                if rode_along:
                    self.coalesced += 1
                return
            # nobody's fsync covers *lsn*: lead one, outside the gate
            self._flushing = True
        try:
            database.wal_sync_to(lsn)
        finally:
            with self._gate:
                self._flushing = False
                self.flushes += 1
                self._gate.notify_all()

    def stats_dict(self):
        with self._gate:
            return {
                "flushes": self.flushes,
                "waits": self.waits,
                "coalesced": self.coalesced,
            }


class _Inbox(object):
    """One connection's receive buffer: the bytes read off its socket,
    cut into frames in arrival order."""

    __slots__ = ("sock", "buf", "frames")

    def __init__(self, sock):
        self.sock = sock
        self.buf = bytearray()
        #: complete frames read but not yet taken, oldest first
        self.frames = []

    def take(self, limit, deadline=None):
        """Up to *limit* frames, oldest first.  Reads the socket only
        while no complete frame waits; ``[]`` at a clean EOF.  With a
        *deadline* (a ``time.monotonic()`` instant) the wait raises
        :class:`TimeoutError` past it."""
        frames, buf, size = self.frames, self.buf, protocol.HEADER.size
        while not frames:
            if deadline is not None:
                self.sock.settimeout(max(1e-3, deadline - time.monotonic()))
            chunk = self.sock.recv(RECV_BYTES)
            if not chunk:
                if buf:
                    raise protocol.TornFrameError(
                        "connection died mid-frame (%d bytes buffered)"
                        % len(buf))
                return []
            buf += chunk
            pos = 0
            while len(buf) - pos >= size:
                length, crc = protocol.unpack_header(buf[pos:pos + size])
                if pos + size + length > len(buf):
                    break
                frames.append(protocol.decode_body(
                    buf[pos + size:pos + size + length], crc))
                pos += size + length
            del buf[:pos]
        batch = frames[:limit]
        del frames[:limit]
        return batch


class NetServer(object):
    """TCP front end for one :class:`repro.sqldb.engine.Database`.

    Serves from background threads, so synchronous callers (the CLI,
    benchmarks, the web stack) can start/stop it like any other
    component.  ``port=0`` binds an ephemeral port; read :attr:`port`
    after :meth:`start`.
    """

    def __init__(self, database, host="127.0.0.1", port=0,
                 max_connections=64, inbox_limit=32, batch_limit=16,
                 multi_statements=False, max_statements=None):
        self.database = database
        self.host = host
        self.port = port
        self.max_connections = max_connections
        #: waiting commands past which a connection counts a flow pause
        self.inbox_limit = max(1, inbox_limit)
        #: max commands one batch may carry
        self.batch_limit = max(1, batch_limit)
        self.multi_statements = multi_statements
        #: per-connection cap on server-side statement handles (None =
        #: the Connection default); LRU eviction past the cap
        self.max_statements = max_statements
        self._listener = None
        self._accept_thread = None
        self._stopping = False
        self._connection_ids = 0
        self.group = None
        #: live connections: socket -> the thread serving it
        self._live = {}
        #: client-side pools registered for the ``pooled`` counter
        self._pools = []
        self._stats_lock = make_lock()
        self._stats = {
            "accepted": 0,      # connections that completed a handshake
            "open": 0,          # currently open connections
            "active": 0,        # connections with a batch in the engine
            "rejected": 0,      # refused: capacity, handshake, charset
            "commands": 0,      # commands executed
            "batches": 0,       # engine batches (pipelining amortization)
            "flow_pauses": 0,   # batches that left a full inbox waiting
            "stmt_evictions": 0,  # statement handles dropped by the LRU cap
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Bind and serve on a background accept thread; returns
        ``(host, port)`` once the listener is accepting."""
        if self._accept_thread is not None:
            raise RuntimeError("server already started")
        self._listener = socket.create_server((self.host, self.port),
                                              backlog=128)
        self.port = self._listener.getsockname()[1]
        self.group = GroupCommitter(self.database)
        self._stopping = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(self._listener,),
            name="net-accept", daemon=True,
        )
        self._accept_thread.start()
        self.database.net_stats = self.stats_dict
        return (self.host, self.port)

    def stop(self):
        """Stop accepting, close every connection, join the threads."""
        self._stopping = True
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
            except OSError:
                pass
            listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10.0)
            self._accept_thread = None
        with self._stats_lock:
            live = list(self._live.items())
        # a thread mid-batch finishes it (its session closes after it);
        # one parked in recv() wakes to EOF
        for sock, _thread in live:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for _sock, thread in live:
            thread.join(timeout=10.0)
        if getattr(self.database, "net_stats", None) == self.stats_dict:
            self.database.net_stats = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()

    # -- counters ----------------------------------------------------------

    def register_pool(self, pool):
        """Client pools co-located with the server register here so the
        status display can show pooled connections next to open ones."""
        with self._stats_lock:
            if pool not in self._pools:
                self._pools.append(pool)

    def _bump(self, counter, amount=1):
        with self._stats_lock:
            self._stats[counter] += amount

    def stats_dict(self):
        """Connection counters (``Septic.status()`` shows these under
        ``"net"`` once the server is started)."""
        with self._stats_lock:
            stats = dict(self._stats)
            stats["pooled"] = sum(
                pool.idle_count for pool in self._pools
            )
        if self.group is not None:
            stats["group_commit"] = self.group.stats_dict()
        return stats

    # -- the per-connection machinery --------------------------------------

    def _accept_loop(self, listener):
        while True:
            try:
                sock, _address = listener.accept()
            except OSError:
                if self._stopping:
                    return
                time.sleep(0.1)  # out of descriptors, say: retry, not spin
                continue
            self._admit(sock)

    def _admit(self, sock):
        """Capacity check on the accept thread; an admitted socket gets
        a thread of its own."""
        try:
            if faults_mod.ACTIVE is not None:
                faults_mod.fire("net.accept")
        except Exception:
            self._bump("rejected")
            sock.close()
            return
        with self._stats_lock:
            at_capacity = self._stats["open"] >= self.max_connections
            self._stats["rejected" if at_capacity else "open"] += 1
        if at_capacity:
            try:
                self._ship(sock, [protocol.encode_frame(protocol.ERR, {
                    "errno": 1040, "message": "Too many connections",
                })])
            except Exception:
                pass
            sock.close()
            return
        thread = threading.Thread(target=self._serve_connection,
                                  args=(sock,), daemon=True,
                                  name="net-conn")
        with self._stats_lock:
            self._live[sock] = thread
        thread.start()

    def _ship(self, sock, frames):
        """Send pre-encoded response frames in one ``sendall``.

        The ``net.write`` fault site fires once per frame and models the
        process dying mid ``write()``: on an injected fault, the frames
        before it and *half* of it go out and the exception tears the
        connection down — exactly the torn response frame the crash test
        drives.  The client's CRC/length framing refuses the partial
        frame, so the torn bytes can never read as an acknowledgement.
        """
        if faults_mod.ACTIVE is not None:
            for index, blob in enumerate(frames):
                try:
                    faults_mod.fire("net.write")
                except Exception:
                    sock.sendall(b"".join(frames[:index])
                                 + blob[:max(1, len(blob) // 2)])
                    raise
        sock.sendall(frames[0] if len(frames) == 1 else b"".join(frames))

    def _serve_connection(self, sock):
        conn = None
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            inbox = _Inbox(sock)
            conn = self._handshake(sock, inbox)
            if conn is not None:
                self._serve_commands(sock, conn, inbox)
        except (protocol.NetProtocolError, OSError,
                faults_mod.InjectedFault):
            pass  # the connection is gone; nothing to tell the peer
        finally:
            # the slot frees before the peer can see the socket close
            with self._stats_lock:
                self._stats["open"] -= 1
                self._live.pop(sock, None)
            try:
                sock.close()
            except OSError:
                pass
            if conn is not None:
                # however the client left (COM_QUIT, EOF, reset, torn
                # frame, server stop), its session ends here
                conn.close()

    def _handshake(self, sock, inbox):
        """Charset negotiation; returns the engine-side
        :class:`Connection` or ``None`` after refusing the client."""
        try:
            frames = inbox.take(1, time.monotonic() + HANDSHAKE_TIMEOUT)
        except TimeoutError:
            frames = []
        sock.settimeout(None)
        if not frames:
            self._bump("rejected")
            return None
        opcode, payload = frames[0]
        refusal = None
        charset = payload.get("charset") or self.database.charset
        if opcode != protocol.HANDSHAKE:
            refusal = {
                "errno": 1043,
                "message": "Bad handshake (expected HANDSHAKE, got %s)"
                           % protocol.OPCODE_NAMES.get(opcode, opcode),
            }
        elif charset not in charset_mod.SUPPORTED_CHARSETS:
            refusal = {
                "errno": 1115,
                "message": "Unknown character set: '%s'" % charset,
            }
        if refusal is not None:
            self._bump("rejected")
            self._ship(sock, [protocol.encode_frame(protocol.ERR, refusal)])
            return None
        conn = Connection(
            self.database, charset=charset,
            multi_statements=bool(
                payload.get("multi", self.multi_statements)
            ),
            max_statements=self.max_statements,
        )
        with self._stats_lock:
            self._stats["accepted"] += 1
            self._connection_ids += 1
            connection_id = self._connection_ids
        self._ship(sock, [protocol.encode_frame(protocol.HANDSHAKE_OK, {
            "server_version": self.database.version,
            "connection_id": connection_id,
            "charset": charset,
            "inbox_limit": self.inbox_limit,
        })])
        return conn

    def _serve_commands(self, sock, conn, inbox):
        """The connection's command loop until EOF/COM_QUIT: strict
        arrival order, batched engine runs, durability before
        acknowledgement."""
        batch_limit = self.batch_limit
        while True:
            batch = inbox.take(batch_limit)
            if len(inbox.frames) >= self.inbox_limit:
                self._bump("flow_pauses")
            commands = []
            closing = not batch
            for command in batch:
                if faults_mod.ACTIVE is not None:
                    faults_mod.fire("net.read")
                if command[0] == protocol.COM_QUIT:
                    closing = True
                    break
                commands.append(command)
            if commands:
                frames, need_lsn = self._run_batch(conn, commands)
                if need_lsn is not None:
                    # group commit: the batch moved the commit frontier,
                    # so its acknowledgements wait here for a (shared)
                    # fsync
                    self.group.sync_to(need_lsn)
                self._ship(sock, frames)
            if closing:
                return

    # -- command dispatch --------------------------------------------------

    def _run_batch(self, conn, commands):
        """Run *commands* in order against the engine; returns
        ``(encoded_frames, need_lsn)`` where *need_lsn* is the WAL
        frontier the responses must not precede (``None`` for read-only
        batches or WAL-less databases)."""
        database = self.database
        with self._stats_lock:
            self._stats["active"] += 1
        ran = 0
        try:
            commits_before, _ = database.wal_commit_frontier()
            frames = [protocol.encode_frame(*self._dispatch(conn, opcode,
                                                            payload))
                      for opcode, payload in commands]
            ran = len(frames)
            commits_after, frontier = database.wal_commit_frontier()
        finally:
            with self._stats_lock:
                stats = self._stats
                stats["active"] -= 1
                if ran:
                    stats["commands"] += ran
                    stats["batches"] += 1
        need_lsn = frontier if commits_after > commits_before else None
        return frames, need_lsn

    def _dispatch(self, conn, opcode, payload):
        seq = payload.get("seq")
        if opcode == protocol.COM_PING:
            return (protocol.PONG, {"seq": seq})
        if opcode == protocol.COM_QUERY:
            outcome = conn.query(payload.get("sql", ""))
            return self._outcome_frame(outcome, seq)
        if opcode == protocol.COM_STMT_PREPARE:
            evictions_before = conn.statement_evictions
            try:
                stmt_id, param_count = conn.prepare_statement(
                    payload.get("sql", "")
                )
            except SQLError as exc:
                return self._error_frame(exc, seq)
            evicted = conn.statement_evictions - evictions_before
            if evicted:
                self._bump("stmt_evictions", evicted)
            return (protocol.STMT_PREPARE_OK, {
                "stmt_id": stmt_id, "params": param_count, "seq": seq,
            })
        if opcode == protocol.COM_STMT_EXECUTE:
            outcome = conn.execute_statement(
                payload.get("stmt_id"), tuple(payload.get("params", ()))
            )
            return self._outcome_frame(outcome, seq)
        if opcode == protocol.COM_STMT_CLOSE:
            known = conn.close_statement(payload.get("stmt_id"))
            return (protocol.OK, {"affected": 0, "known": known,
                                  "seq": seq})
        return (protocol.ERR, {
            "errno": 1047,
            "message": "Unknown command (opcode %r)" % opcode,
            "seq": seq,
        })

    def _outcome_frame(self, outcome, seq):
        if outcome.error is not None:
            return self._error_frame(outcome.error, seq)
        if outcome.result_set is not None:
            # (a row tuple encodes as the JSON array a list would)
            return (protocol.RESULTSET, {
                "columns": outcome.result_set.columns,
                "rows": outcome.result_set.rows,
                "seq": seq,
            })
        return (protocol.OK, {
            "affected": outcome.affected_rows,
            "last_insert_id": outcome.last_insert_id,
            "seq": seq,
        })

    def _error_frame(self, error, seq):
        return (protocol.ERR, {
            "errno": getattr(error, "errno", 2013),
            "message": str(getattr(error, "message", None) or error),
            "kind": type(error).__name__,
            "blocked": isinstance(error, QueryBlocked),
            "seq": seq,
        })
