"""Exception hierarchy for the mini-MySQL substrate."""


class SQLError(Exception):
    """Base class for every error raised by the SQL engine."""

    #: MySQL-style error code (approximate; used by tests and the web layer).
    errno = 1064

    #: True for faults that may succeed on retry (the client connector's
    #: bounded retry-with-backoff keys off this).
    transient = False

    def __init__(self, message, errno=None):
        super().__init__(message)
        self.message = message
        if errno is not None:
            self.errno = errno

    def __str__(self):
        return "ERROR %d: %s" % (self.errno, self.message)


class LexerError(SQLError):
    """Raised when the tokenizer meets an invalid character sequence."""

    errno = 1064


class ParseError(SQLError):
    """Raised when the token stream does not form a valid statement."""

    errno = 1064


class ValidationError(SQLError):
    """Raised when a parsed statement references unknown tables/columns."""

    errno = 1054


class ExecutionError(SQLError):
    """Raised when a valid statement fails during execution."""

    errno = 1105


class MultiStatementError(SQLError):
    """Raised when a client sends several statements in one call without
    having enabled multi-statement support (mirrors MySQL's
    ``CLIENT_MULTI_STATEMENTS`` behaviour, the reason classic piggy-backed
    injection fails against ``mysql_query``)."""

    errno = 1064


class TransientEngineError(SQLError):
    """An unexpected internal engine fault, surfaced as the MySQL-style
    "lost connection" error.  Marked transient: the statement did not
    produce a result, and retrying it is reasonable (unlike an
    :class:`ExecutionError`, which reports a deterministic failure)."""

    errno = 2013
    transient = True


class WriteConflictError(TransientEngineError):
    """First-writer-wins conflict under snapshot isolation: the statement
    tried to modify a row that another transaction has a pending version
    of (or that committed after this transaction's snapshot).  Surfaced
    with MySQL's deadlock errno because that is the error class clients
    already treat as "roll back and retry".  A retry never double-applies:
    the statement's rollback takes back whatever it wrote before the
    conflict, so it leaves nothing behind and is never logged."""

    errno = 1213  # "Deadlock found when trying to get lock; try restarting"


class WalError(SQLError):
    """A durability-layer failure (write-ahead log or checkpoint)."""

    errno = 1030  # "Got error ... from storage engine"


class WalCorruptionError(WalError):
    """On-disk WAL/checkpoint state fails its integrity checks in a way a
    crash cannot explain (bit rot mid-log, mangled checkpoint).

    Torn *tails* are normal crash artifacts and never raise — they are
    truncated during recovery.  This error is reserved for damage inside
    the supposedly-durable prefix, which must be surfaced, not guessed
    around.  ``clean_records`` carries the records before the damage and
    ``database``, when recovery got that far, the engine rebuilt from
    that clean prefix.
    """

    def __init__(self, message, offset=None, clean_records=None):
        super().__init__(message)
        #: byte offset of the damaged record in the log (or ``None``)
        self.offset = offset
        #: intact records preceding the damage
        self.clean_records = clean_records or []
        #: the clean-prefix :class:`repro.sqldb.engine.Database`, filled
        #: by ``Database.recover`` before re-raising
        self.database = None


class PagerError(WalError):
    """A paged-storage failure (page file I/O, buffer-pool exhaustion,
    or an oversized record) after the pager's bounded retry budget is
    spent — the fail-closed escalation of the ``pager.*`` fault sites."""


class PageCorruptionError(PagerError):
    """A page read back from disk fails its checksum (or carries the
    wrong page number / magic).  Torn writes caught during recovery are
    repaired from the doublewrite area and never raise; this error
    surfaces damage the scrubber has not (yet) repaired.  ``page_no``
    names the damaged page."""

    def __init__(self, message, page_no=None):
        super().__init__(message)
        self.page_no = page_no


class QueryBlocked(SQLError):
    """Raised (to the client) when SEPTIC drops a query in prevention mode."""

    errno = 3090

    def __init__(self, message, record=None):
        super().__init__(message)
        #: The :class:`repro.core.logger.EventRecord` describing the attack.
        self.record = record
