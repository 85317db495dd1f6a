"""The asyncio socket server fronting a :class:`Database`.

Concurrency shape (the perf substance of the front end):

* **pipelining with per-connection ordering** — each connection has one
  reader coroutine and one worker coroutine joined by a bounded inbox
  queue.  The reader frames commands as fast as they arrive (a client
  may send N commands without awaiting responses); the worker executes
  them strictly in arrival order, so responses come back in command
  order per connection — while independent connections overlap freely
  in the engine (MVCC keeps readers lock-free);
* **command batching** — the worker drains whatever the inbox holds (up
  to ``batch_limit``) and runs the whole batch in **one** executor-thread
  hop, so a deeply pipelined connection pays the loop/thread handoff
  once per batch instead of once per command;
* **backpressure** — the inbox is a bounded :class:`asyncio.Queue`.
  When it fills, the reader blocks on ``put()`` and stops reading the
  socket, which stops ACKing TCP, which pushes back on the client's
  send window: flow control instead of unbounded buffering.  The
  ``flow_pauses`` counter records every time that happened;
* **group commit** — the engine runs its WAL in ``sync_mode="batch"``
  under this server, so executing a write appends but does not fsync.
  After a batch that moved the commit frontier, the worker asks the
  shared :class:`GroupCommitter` to make the frontier durable; commits
  from concurrent connections coalesce into one fsync, and *only after
  it returns* are the batch's OK frames written.  An acknowledgement
  therefore never precedes durability (the kill-mid-frame crash test
  holds the server to that).

The engine itself is synchronous, so its calls run on a thread pool via
``run_in_executor`` — no blocking call ever executes inside a
coroutine (a lint gate holds this file to that).
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro import faults as faults_mod
from repro.core.resilience import make_lock
from repro.net import protocol
from repro.sqldb import charset as charset_mod
from repro.sqldb.connection import Connection
from repro.sqldb.errors import QueryBlocked, SQLError


class GroupCommitter(object):
    """Coalesces concurrent durability waits into shared fsyncs.

    ``sync_to(lsn)`` returns once every WAL record up to *lsn* is on
    stable storage.  The first waiter in becomes the leader and runs
    the fsync (on the thread pool); waiters that arrive while a flush
    is in flight simply wait for the gate — the leader's fsync covers
    every append that preceded it, so they almost always find their
    horizon durable on re-check and pay nothing.
    """

    def __init__(self, database, pool):
        self._database = database
        self._pool = pool
        self._gate = asyncio.Lock()
        #: fsyncs this committer actually issued
        self.flushes = 0
        #: durability waits served
        self.waits = 0
        #: waits satisfied by somebody else's fsync (the coalesced ones)
        self.coalesced = 0

    async def sync_to(self, lsn):
        self.waits += 1
        rode_along = False
        while True:
            synced = self._database.wal_synced_lsn()
            if synced is None or synced >= lsn:
                if rode_along:
                    self.coalesced += 1
                return
            if self._gate.locked():
                # a leader is flushing: wait for it, then re-check
                rode_along = True
                async with self._gate:
                    pass
                continue
            async with self._gate:
                synced = self._database.wal_synced_lsn()
                if synced is not None and synced < lsn:
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(
                        self._pool, self._database.wal_sync_to, lsn
                    )
                    self.flushes += 1

    def stats_dict(self):
        return {
            "flushes": self.flushes,
            "waits": self.waits,
            "coalesced": self.coalesced,
        }


class NetServer(object):
    """TCP front end for one :class:`repro.sqldb.engine.Database`.

    Runs its asyncio event loop on a background thread so synchronous
    callers (the CLI, benchmarks, the web stack) can start/stop it like
    any other component.  ``port=0`` binds an ephemeral port; read
    :attr:`port` after :meth:`start`.
    """

    def __init__(self, database, host="127.0.0.1", port=0,
                 max_connections=64, inbox_limit=32, batch_limit=16,
                 executor_threads=8, multi_statements=False,
                 max_statements=None):
        self.database = database
        self.host = host
        self.port = port
        self.max_connections = max_connections
        #: bounded per-connection inbox (the backpressure knob)
        self.inbox_limit = max(1, inbox_limit)
        #: max commands one executor hop may carry
        self.batch_limit = max(1, batch_limit)
        self.multi_statements = multi_statements
        #: per-connection cap on server-side statement handles (None =
        #: the Connection default); LRU eviction past the cap
        self.max_statements = max_statements
        self._executor_threads = max(1, executor_threads)
        self._pool = None
        self._loop = None
        self._thread = None
        self._ready = threading.Event()
        self._stop_event = None
        self._startup_error = None
        self._connection_ids = 0
        self.group = None
        #: live connection-handler tasks (drained at shutdown)
        self._conn_tasks = set()
        #: client-side pools registered for the ``pooled`` counter
        self._pools = []
        self._stats_lock = make_lock()
        self._stats = {
            "accepted": 0,      # connections that completed a handshake
            "open": 0,          # currently open connections
            "active": 0,        # connections with a batch in the engine
            "rejected": 0,      # refused: capacity, handshake, charset
            "commands": 0,      # commands executed
            "batches": 0,       # executor hops (pipelining amortization)
            "flow_pauses": 0,   # reader blocked on a full inbox
            "stmt_evictions": 0,  # statement handles dropped by the LRU cap
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Bind and serve on a background event-loop thread; returns
        ``(host, port)`` once the listener is accepting."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._pool = ThreadPoolExecutor(
            max_workers=self._executor_threads,
            thread_name_prefix="net-exec",
        )
        self._thread = threading.Thread(
            target=self._run_loop, name="net-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self.stop()
            raise error
        self.database.net_stats = self.stats_dict
        return (self.host, self.port)

    def stop(self):
        """Stop accepting, close every connection, join the thread."""
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        if getattr(self.database, "net_stats", None) == self.stats_dict:
            self.database.net_stats = None
        self._loop = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def _run_loop(self):
        try:
            asyncio.run(self._serve())
        except Exception as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._ready.set()

    async def _serve(self):
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.group = GroupCommitter(self.database, self._pool)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop_event.wait()
            # drain connection handlers inside the loop so shutdown is
            # orderly (no tasks left for asyncio.run teardown to kill)
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)

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

    async def _read_frame(self, reader):
        """One framed command off the socket, or ``None`` at EOF."""
        try:
            header = await reader.readexactly(protocol.HEADER.size)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between frames
            raise protocol.TornFrameError(
                "connection died mid-header (%d bytes)" % len(exc.partial)
            )
        length, crc = protocol.unpack_header(header)
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise protocol.TornFrameError(
                "connection died mid-frame (%d of %d body bytes)"
                % (len(exc.partial), length)
            )
        return protocol.decode_body(body, crc)

    def _write_frame(self, writer, opcode, payload):
        """Serialize and write one response frame."""
        self._write_blob(writer, protocol.encode_frame(opcode, payload))

    def _write_blob(self, writer, blob):
        """Write one pre-encoded frame.

        The ``net.write`` fault site models the process dying mid
        ``write()``: on an injected fault, *half* the frame goes out and
        the exception tears the connection down — exactly the torn
        response frame the crash test drives.  The client's CRC/length
        framing refuses the partial frame, so the torn bytes can never
        read as an acknowledgement.
        """
        if faults_mod.ACTIVE is not None:
            try:
                faults_mod.fire("net.write")
            except Exception:
                writer.write(blob[:max(1, len(blob) // 2)])
                raise
        writer.write(blob)

    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            if task is not None:
                self._conn_tasks.discard(task)

    async def _serve_connection(self, reader, writer):
        try:
            if faults_mod.ACTIVE is not None:
                faults_mod.fire("net.accept")
        except Exception:
            self._bump("rejected")
            writer.close()
            return
        with self._stats_lock:
            if self._stats["open"] >= self.max_connections:
                at_capacity = True
            else:
                at_capacity = False
                self._stats["open"] += 1
        if at_capacity:
            self._bump("rejected")
            try:
                self._write_frame(writer, protocol.ERR, {
                    "errno": 1040, "message": "Too many connections",
                })
                await writer.drain()
            except Exception:
                pass
            writer.close()
            return
        worker = conn = None
        try:
            conn = await self._handshake(reader, writer)
            if conn is None:
                return
            inbox = asyncio.Queue(self.inbox_limit)
            worker = asyncio.ensure_future(
                self._worker(conn, inbox, writer)
            )
            reader_task = asyncio.ensure_future(
                self._read_commands(reader, inbox)
            )
            # watch both: a worker that dies while the reader is parked
            # on a full inbox must not leave the reader parked forever
            done, _pending = await asyncio.wait(
                {reader_task, worker},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if worker in done:
                reader_task.cancel()
                try:
                    await reader_task
                except (asyncio.CancelledError, Exception):
                    pass
            else:
                reader_task.result()  # surface reader errors
            await worker
            worker = None
        except (protocol.NetProtocolError, ConnectionError, OSError,
                faults_mod.InjectedFault):
            pass  # the connection is gone; nothing to tell the peer
        except asyncio.CancelledError:
            pass  # server shutdown: fall through to the cleanup below
        finally:
            if worker is not None:
                worker.cancel()
                try:
                    await worker
                except (asyncio.CancelledError, Exception):
                    pass
            self._bump("open", -1)
            try:
                writer.close()
            except Exception:
                pass
            if conn is not None:
                # however the client left (COM_QUIT, EOF, reset, torn
                # frame, server stop), its session ends here.  The
                # rollback may queue for the catalog lock, so it runs
                # off the loop; shielded, so a server stop that lands
                # on this wait cannot cancel the release itself
                await asyncio.shield(
                    asyncio.get_running_loop().run_in_executor(
                        self._pool, conn.close))

    async def _handshake(self, reader, writer):
        """Charset negotiation; returns the engine-side
        :class:`Connection` or ``None`` after sending an ERR."""
        frame = await self._read_frame(reader)
        if frame is None:
            self._bump("rejected")
            return None
        opcode, payload = frame
        if opcode != protocol.HANDSHAKE:
            self._bump("rejected")
            self._write_frame(writer, protocol.ERR, {
                "errno": 1043,
                "message": "Bad handshake (expected HANDSHAKE, got %s)"
                           % protocol.OPCODE_NAMES.get(opcode, opcode),
            })
            await writer.drain()
            return None
        charset = payload.get("charset") or self.database.charset
        if charset not in charset_mod.SUPPORTED_CHARSETS:
            self._bump("rejected")
            self._write_frame(writer, protocol.ERR, {
                "errno": 1115,
                "message": "Unknown character set: '%s'" % charset,
            })
            await writer.drain()
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
        self._write_frame(writer, protocol.HANDSHAKE_OK, {
            "server_version": self.database.version,
            "connection_id": connection_id,
            "charset": charset,
            "inbox_limit": self.inbox_limit,
        })
        await writer.drain()
        return conn

    async def _read_commands(self, reader, inbox):
        """The reader coroutine body: frame commands into the inbox
        until EOF/COM_QUIT.  ``put()`` on the bounded inbox is the
        backpressure point — when the worker is behind, the reader
        parks here and the socket stops being read."""
        while True:
            frame = await self._read_frame(reader)
            if faults_mod.ACTIVE is not None and frame is not None:
                faults_mod.fire("net.read")
            if frame is None or frame[0] == protocol.COM_QUIT:
                await inbox.put(None)
                return
            if inbox.full():
                self._bump("flow_pauses")
            await inbox.put(frame)

    async def _worker(self, conn, inbox, writer):
        """The per-connection executor: strict arrival order, batched
        engine hops, durability before acknowledgement."""
        loop = asyncio.get_running_loop()
        while True:
            command = await inbox.get()
            if command is None:
                return
            batch = [command]
            closing = False
            while len(batch) < self.batch_limit:
                try:
                    nxt = inbox.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    closing = True
                    break
                batch.append(nxt)
            self._bump("active")
            hop = loop.run_in_executor(self._pool, self._run_batch, conn,
                                       batch)
            try:
                frames, need_lsn = await asyncio.shield(hop)
            except asyncio.CancelledError:
                # the connection is going away mid-batch, but an engine
                # thread still runs on its session: let it finish before
                # anyone closes that session
                await asyncio.wait([hop])
                raise
            finally:
                self._bump("active", -1)
            if need_lsn is not None and self.group is not None:
                # group commit: the batch moved the commit frontier, so
                # its acknowledgements wait here for a (shared) fsync
                await self.group.sync_to(need_lsn)
            for blob in frames:
                self._write_blob(writer, blob)
            await writer.drain()
            if closing:
                return

    # -- command dispatch (executor-thread side, synchronous) --------------

    def _run_batch(self, conn, commands):
        """Run *commands* in order against the engine; returns
        ``(encoded_frames, need_lsn)`` where *need_lsn* is the WAL
        frontier the responses must not precede (``None`` for read-only
        batches or WAL-less databases).  Responses are serialized here,
        on the executor thread, so the event loop only ships bytes."""
        database = self.database
        commits_before, _ = database.wal_commit_frontier()
        frames = [protocol.encode_frame(*self._dispatch(conn, opcode,
                                                        payload))
                  for opcode, payload in commands]
        self._bump("commands", len(commands))
        self._bump("batches")
        commits_after, frontier = database.wal_commit_frontier()
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
            return (protocol.RESULTSET, {
                "columns": list(outcome.result_set.columns),
                "rows": [list(row) for row in outcome.result_set.rows],
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
