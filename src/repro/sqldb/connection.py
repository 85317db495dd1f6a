"""Client-side connection object (the DBMS client connector).

The paper's *client diversity* / *no client configuration* features mean
any connector talks to a SEPTIC-enabled server unchanged; this class is
that connector.  It mirrors the PHP ``mysqli``/``mysql_*`` surface the demo
applications use:

* ``query()`` — single statement only (``CLIENT_MULTI_STATEMENTS`` off);
* ``multi_query()`` — the opt-in multi-statement API;
* ``escape_string()`` — client-side ``mysql_real_escape_string``;
* per-connection charset (what makes the GBK escape-eating attack work).
"""

import time
from collections import OrderedDict

from repro.core.resilience import RetryLoop, RetryStats
from repro.sqldb import charset as charset_mod
from repro.sqldb.errors import (
    ExecutionError,
    SQLError,
    TransientEngineError,
)


class QueryOutcome(object):
    """What a client sees back from one statement — the only outcome
    type, whichever façade ran it (in process, routed, sharded, or
    rehydrated from a wire frame)."""

    __slots__ = ("result_set", "affected_rows", "error", "sleep_seconds",
                 "last_insert_id", "seq")

    def __init__(self, result_set=None, affected_rows=0, sleep_seconds=0.0,
                 last_insert_id=None, error=None, seq=None):
        # an execution's result, field for field ...
        self.result_set = result_set
        self.affected_rows = affected_rows
        self.sleep_seconds = sleep_seconds
        #: the AUTO_INCREMENT id this statement generated (``None``
        #: when it generated none)
        self.last_insert_id = last_insert_id
        # ... or the error that stood in for one
        self.error = error
        #: the wire command this answers (``None`` off the wire)
        self.seq = seq

    @property
    def ok(self):
        return self.error is None

    @property
    def rows(self):
        return [] if self.result_set is None else self.result_set.rows

    @property
    def columns(self):
        return [] if self.result_set is None else self.result_set.columns

    def scalar(self):
        """First column of the first row, or ``None`` without one."""
        return None if self.result_set is None else self.result_set.scalar()

    def __repr__(self):
        if self.error is not None:
            return "QueryOutcome(error=%r)" % str(self.error)
        if self.result_set is not None:
            return "QueryOutcome(%d rows)" % len(self.result_set)
        return "QueryOutcome(affected=%d)" % self.affected_rows


def captured(call, *args):
    """``call(*args)`` — a ``(results, error)`` pair — under the client
    error contract: whatever it raises comes back as the *error* of an
    empty pair, and that error is always a real :class:`SQLError`.  A
    raw exception (an engine bug, an injected fault) becomes the
    transient errno-2013 "lost connection", so it never reaches
    application code and the retry loop may try again."""
    try:
        return call(*args)
    except SQLError as exc:
        return (), exc
    except Exception as exc:  # engine bug / injected fault
        return (), TransientEngineError(
            "lost connection to engine during query (%s: %s)"
            % (type(exc).__name__, exc)
        )


class ClientSession(object):
    """What every client façade has beyond its own ``query`` (one
    statement in, one :class:`QueryOutcome` out, errors captured) and
    ``close`` (idempotent; releases what the session holds)."""

    def query_or_raise(self, sql):
        """Run one statement, raising on error (admin/seed convenience)."""
        outcome = self.query(sql)
        if outcome.error is not None:
            raise outcome.error
        return outcome

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False


def _execute(prepared, params):
    return prepared.execute(*params), None


class Connection(ClientSession):
    """A client connection to a :class:`repro.sqldb.engine.Database`."""

    #: default cap on the server-side statement registry (MySQL's
    #: ``max_prepared_stmt_count`` is global; ours is per connection)
    MAX_STATEMENTS = 64

    def __init__(self, database, charset=None, multi_statements=False,
                 retries=0, backoff=0.0, backoff_cap=2.0, jitter=0.5,
                 retry_seed=0, sleep=None, max_statements=None):
        self._db = database
        self.charset = charset or database.charset
        self.multi_statements = multi_statements
        self.last_error = None
        #: per-connection retry counters; every bump is mirrored into
        #: ``database.retry_stats`` (the aggregate Septic.status() shows)
        self.retry_stats = RetryStats()
        #: the retry budget for *transient* engine faults: *retries*
        #: tries, *backoff* seconds doubling up to *backoff_cap*, each
        #: scaled by a *retry_seed*-ed factor in ``[1, 1 + jitter]``
        self.retry = RetryLoop(
            retries, backoff, backoff_cap, jitter, retry_seed,
            sleep if sleep is not None else time.sleep,
            (self.retry_stats, database.retry_stats))
        #: server-side per-connection state (transactions, insert id)
        self._session = database.create_session(self.charset)
        #: server-side prepared-statement registry: the ids handed to
        #: wire clients (COM_STMT_PREPARE/EXECUTE/CLOSE), scoped to this
        #: connection like MySQL's statement handles.  Bounded: least-
        #: recently-used handles are evicted once *max_statements* are
        #: registered (a long-lived connection preparing per-request
        #: statements used to grow this without limit), and an evicted
        #: id behaves exactly like a closed one — errno 1243 on EXECUTE.
        self._statements = OrderedDict()
        self.max_statements = (self.MAX_STATEMENTS if max_statements
                               is None else max(1, int(max_statements)))
        #: handles dropped by the LRU cap (the net server aggregates
        #: this into its stats, surfaced via ``Septic.status()["net"]``)
        self.statement_evictions = 0

    @property
    def database(self):
        return self._db

    @property
    def session(self):
        return self._session

    @property
    def last_insert_id(self):
        return self._session.last_insert_id

    def escape_string(self, value):
        """``mysql_real_escape_string`` equivalent (see the charset module
        for what it cannot protect against)."""
        return charset_mod.escape_string(value)

    @property
    def transient_retries(self):
        """How many transient-fault retries this connection has issued."""
        return self.retry_stats.retries

    # Every statement runs ``retry.run(captured, ...)``: captured, so the
    # caller only ever sees a real SQLError, never a raw exception; then
    # retried while the error is transient (see RetryLoop for the rules).

    def query(self, sql):
        """Run one statement; returns a :class:`QueryOutcome`.

        Errors (including SEPTIC blocks) are captured, not raised — like
        ``mysql_query`` returning ``FALSE`` and setting ``mysql_error``.
        Transient engine faults are retried per the connection's retry
        budget before being reported.
        """
        results, error = self.retry.run(
            captured, self._db.run_partial, sql, self.multi_statements,
            self.charset, self._session)
        self.last_error = error
        if error is not None:
            return QueryOutcome(error=error)
        if not results:
            # comment-only or empty input: nothing executed, no error —
            # like mysql_query on a query that is all whitespace/comments
            return QueryOutcome()
        last = results[-1]
        return QueryOutcome(
            last.result_set, last.affected_rows,
            sum(r.sleep_seconds for r in results), last.last_insert_id)

    def multi_query(self, sql):
        """Run several ``;``-separated statements (opt-in, like
        ``mysqli_multi_query``).  Returns a list of outcomes.

        Stop-on-first-error semantics: every statement that executed
        before the failure gets its own ok outcome, the failing
        statement gets an error outcome, and nothing after it runs —
        matching ``mysqli_multi_query``'s contract of processing results
        until the first failing statement.
        """
        results, error = self.retry.run(
            captured, self._db.run_partial, sql, True, self.charset,
            self._session)
        self.last_error = error
        outcomes = [
            QueryOutcome(r.result_set, r.affected_rows, r.sleep_seconds,
                         r.last_insert_id)
            for r in results
        ]
        if error is not None:
            outcomes.append(QueryOutcome(error=error))
        elif not outcomes:
            outcomes.append(QueryOutcome())
        return outcomes

    def prepare(self, sql):
        """Prepare a single statement with ``?`` placeholders.

        Returns a :class:`repro.sqldb.prepared.PreparedStatement`; its
        ``execute(*params)`` binds values through the binary protocol —
        after charset decoding, so none of the decoding quirks apply to
        parameter contents.
        """
        from repro.sqldb.prepared import parse_prepared

        return parse_prepared(self._db, sql, self.charset,
                              session=self._session)

    def execute_prepared(self, prepared, *params):
        """Execute a prepared statement, returning a
        :class:`QueryOutcome` (errors captured and transient faults
        retried like :meth:`query`)."""
        result, error = self.retry.run(captured, _execute, prepared, params)
        self.last_error = error
        if error is not None:
            return QueryOutcome(error=error)
        return QueryOutcome(result.result_set, result.affected_rows,
                            result.sleep_seconds, result.last_insert_id)

    # -- the server-side statement registry ------------------------------
    #
    # The wire protocol's statement surface: prepare hands out an id,
    # execute/close take one back.  Ids come from the statement itself
    # (process-unique), so a stale id from a bounced connection can
    # never alias a live statement on another.

    def prepare_statement(self, sql):
        """Server-side COM_STMT_PREPARE: parse once, register, and
        return ``(statement_id, param_count)``.  Raises
        :class:`~repro.sqldb.errors.SQLError` on a malformed statement
        (the wire server turns that into an ERR frame)."""
        prepared = self.prepare(sql)
        self._statements[prepared.statement_id] = prepared
        while len(self._statements) > self.max_statements:
            self._statements.popitem(last=False)
            self.statement_evictions += 1
        return prepared.statement_id, prepared.param_count

    def execute_statement(self, statement_id, params=()):
        """Server-side COM_STMT_EXECUTE: bind and run a registered
        statement, returning a :class:`QueryOutcome` (errors captured
        like :meth:`query`)."""
        prepared = self._statements.get(statement_id)
        if prepared is None:
            error = ExecutionError(
                "Unknown prepared statement handler (%s) given to "
                "EXECUTE" % statement_id, errno=1243,
            )
            self.last_error = error
            return QueryOutcome(error=error)
        self._statements.move_to_end(statement_id)
        return self.execute_prepared(prepared, *params)

    def close_statement(self, statement_id):
        """Server-side COM_STMT_CLOSE (idempotent); returns whether the
        id was registered."""
        return self._statements.pop(statement_id, None) is not None

    @property
    def open_statements(self):
        """Registered statement ids (the net counters report the len)."""
        return tuple(self._statements)

    # -- transactions ----------------------------------------------------
    #
    # Conveniences over the session, mirroring mysqli's begin_transaction /
    # commit / rollback.  With a WAL attached, commit() is the durability
    # point: it returns only after the commit marker is on disk (per the
    # WAL's sync mode).

    def begin(self):
        self._session.begin()

    def commit(self):
        self._session.commit()

    def rollback(self):
        self._session.rollback()

    @property
    def in_transaction(self):
        return self._session.in_transaction

    def close(self):
        """End the connection (idempotent).  An open transaction rolls
        back — what MySQL does for a client that goes away — and the
        statement registry empties, so a departed client leaves nothing
        that keeps the server from checkpointing."""
        self._session.rollback()
        self._statements.clear()
