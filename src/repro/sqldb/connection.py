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

import random
import time
from collections import OrderedDict

from repro.core.resilience import RetryStats
from repro.sqldb import charset as charset_mod
from repro.sqldb.errors import (
    ExecutionError,
    QueryBlocked,
    SQLError,
    TransientEngineError,
)


class QueryOutcome(object):
    """What the client sees back from one ``query()`` call."""

    __slots__ = ("result_set", "affected_rows", "error", "sleep_seconds")

    def __init__(self, result_set=None, affected_rows=0, error=None,
                 sleep_seconds=0.0):
        self.result_set = result_set
        self.affected_rows = affected_rows
        self.error = error
        self.sleep_seconds = sleep_seconds

    @property
    def ok(self):
        return self.error is None

    @property
    def rows(self):
        return [] if self.result_set is None else self.result_set.rows

    def __repr__(self):
        if self.error is not None:
            return "QueryOutcome(error=%r)" % str(self.error)
        if self.result_set is not None:
            return "QueryOutcome(%d rows)" % len(self.result_set)
        return "QueryOutcome(affected=%d)" % self.affected_rows


class Connection(object):
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
        #: retry budget for *transient* engine faults (never for
        #: deterministic SQL errors, never for SEPTIC blocks)
        self.retries = retries
        #: base delay for exponential backoff between retries, seconds
        self.backoff = backoff
        #: ceiling on one backoff delay (before jitter) — the doubling
        #: is capped so a deep retry never sleeps unboundedly
        self.backoff_cap = backoff_cap
        #: jitter fraction: each delay is scaled by a seeded-random
        #: factor in ``[1, 1 + jitter]`` so retrying clients de-correlate
        #: instead of stampeding the engine in lockstep (0 disables)
        self.jitter = jitter
        #: seeded RNG driving the jitter — same seed, same delays, so
        #: retry schedules are reproducible run to run
        self._retry_rng = random.Random(retry_seed)
        self._sleep = sleep if sleep is not None else time.sleep
        #: how many transient-fault retries this connection has issued
        self.transient_retries = 0
        #: per-connection retry counters; every bump is mirrored into
        #: ``database.retry_stats`` (the aggregate Septic.status() shows)
        self.retry_stats = RetryStats()
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

    def _bump(self, counter, amount=1):
        """Mirror one retry counter into the per-connection stats and
        the database-wide aggregate."""
        self.retry_stats.bump(counter, amount)
        aggregate = getattr(self._db, "retry_stats", None)
        if aggregate is not None:
            aggregate.bump(counter, amount)

    def next_backoff(self, attempt):
        """The delay before retry *attempt* (1-based): capped
        exponential growth from :attr:`backoff`, scaled by a seeded
        jitter factor in ``[1, 1 + jitter]``.  Deterministic per
        connection seed — tests and the DES replay identical
        schedules."""
        base = min(self.backoff_cap, self.backoff * (2 ** (attempt - 1)))
        if self.jitter:
            base *= 1.0 + self.jitter * self._retry_rng.random()
        return base

    def _guarded(self, runner):
        """Run *runner* (→ ``(results, error)``) under the connection's
        error contract: the caller always gets back ``(results, error)``
        where *error* is ``None`` or a real :class:`SQLError` — raw
        exceptions never escape to application code.

        Transient faults (``error.transient``) that produced **no**
        partial results are retried up to :attr:`retries` times with
        exponential backoff.  SEPTIC blocks are verdicts, not faults:
        they are never retried.  Partial multi-statement failures are
        never retried either — the executed prefix already took effect.

        :class:`~repro.sqldb.errors.WriteConflictError` (first-writer-
        wins under snapshot isolation) rides this same path: the engine
        checks for conflicts before touching any row, so a retried
        autocommit statement never double-applies.  Inside an explicit
        transaction a retry keeps the transaction's original snapshot
        and will conflict again — MySQL's errno 1213 advice applies:
        roll back and restart the whole transaction.
        """
        attempt = 0
        while True:
            try:
                results, error = runner()
            except QueryBlocked as exc:
                return [], exc
            except SQLError as exc:
                results, error = [], exc
            except Exception as exc:  # engine bug / injected fault
                results, error = [], TransientEngineError(
                    "lost connection to engine during query (%s: %s)"
                    % (type(exc).__name__, exc)
                )
            transient = (
                error is not None
                and getattr(error, "transient", False)
                and not isinstance(error, QueryBlocked)
            )
            if error is None or not transient:
                return results, error
            if attempt == 0:
                self._bump("attempts")
            if results or attempt >= self.retries:
                # partial results make a retry unsafe; otherwise the
                # budget is spent (or was zero to begin with)
                if attempt >= 1:
                    self._bump("exhausted")
                else:
                    self._bump("gave_up")
                return results, error
            attempt += 1
            self.transient_retries += 1
            self._bump("retries")
            if self.backoff:
                delay = self.next_backoff(attempt)
                self.retry_stats.add_backoff(delay)
                aggregate = getattr(self._db, "retry_stats", None)
                if aggregate is not None:
                    aggregate.add_backoff(delay)
                self._sleep(delay)

    def query(self, sql):
        """Run one statement; returns a :class:`QueryOutcome`.

        Errors (including SEPTIC blocks) are captured, not raised — like
        ``mysql_query`` returning ``FALSE`` and setting ``mysql_error``.
        Transient engine faults are retried per the connection's retry
        budget before being reported.
        """
        results, error = self._guarded(
            lambda: self._db.run_partial(
                sql, multi=self.multi_statements, charset=self.charset,
                session=self._session,
            )
        )
        self.last_error = error
        if error is not None:
            return QueryOutcome(error=error)
        if not results:
            # comment-only or empty input: nothing executed, no error —
            # like mysql_query on a query that is all whitespace/comments
            return QueryOutcome()
        last = results[-1]
        return QueryOutcome(
            result_set=last.result_set,
            affected_rows=last.affected_rows,
            sleep_seconds=sum(r.sleep_seconds for r in results),
        )

    def multi_query(self, sql):
        """Run several ``;``-separated statements (opt-in, like
        ``mysqli_multi_query``).  Returns a list of outcomes.

        Stop-on-first-error semantics: every statement that executed
        before the failure gets its own ok outcome, the failing
        statement gets an error outcome, and nothing after it runs —
        matching ``mysqli_multi_query``'s contract of processing results
        until the first failing statement.
        """
        results, error = self._guarded(
            lambda: self._db.run_partial(
                sql, multi=True, charset=self.charset,
                session=self._session,
            )
        )
        self.last_error = error
        outcomes = [
            QueryOutcome(
                result_set=r.result_set,
                affected_rows=r.affected_rows,
                sleep_seconds=r.sleep_seconds,
            )
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
        :class:`QueryOutcome` (errors captured like :meth:`query`)."""
        try:
            result = prepared.execute(*params)
        except SQLError as exc:
            self.last_error = exc
            return QueryOutcome(error=exc)
        except Exception as exc:  # engine bug / injected fault
            error = TransientEngineError(
                "lost connection to engine during query (%s: %s)"
                % (type(exc).__name__, exc)
            )
            self.last_error = error
            return QueryOutcome(error=error)
        self.last_error = None
        return QueryOutcome(
            result_set=result.result_set,
            affected_rows=result.affected_rows,
            sleep_seconds=result.sleep_seconds,
        )

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

    def query_or_raise(self, sql):
        """Run one statement, raising on error (admin/seed convenience)."""
        outcome = self.query(sql)
        if not outcome.ok:
            raise outcome.error
        return outcome
