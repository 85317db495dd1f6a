"""Prepared statements: parse once, supply ``?`` values per execution.

Two properties matter for the reproduction:

* **binding happens after decoding** — parameters travel in the binary
  protocol, so the connection-charset quirks (unicode folding, GBK
  escape-eating) never touch them.  A U+02BC inside a bound parameter
  stays a U+02BC: prepared statements are naturally immune to the
  paper's decoding channel, which the tests demonstrate as a contrast;
* **bound values become DATA nodes** of the exact same item-stack shape
  a literal query produces, so SEPTIC models trained on literal queries
  match prepared executions of the same statement (and vice versa).
"""

import itertools
import math

from repro.sqldb import ast_nodes as ast
from repro.sqldb.errors import ExecutionError, ParseError

#: process-wide statement-id allocator (``next()`` is atomic); ids are
#: what the wire protocol hands to clients and what the pipeline-cache
#: key pins, so two prepares of the same text never share an entry
_STATEMENT_IDS = itertools.count(1)


def literal_for(value):
    """Convert a Python value into the literal node MySQL's binary
    protocol binding would produce."""
    if value is None:
        return ast.Literal(None, "null")
    if isinstance(value, bool):
        return ast.Literal(value, "bool")
    if isinstance(value, int):
        return ast.Literal(value, "int")
    if isinstance(value, float):
        if not math.isfinite(value):
            # no SQL literal spells it: the WAL could not log it
            raise ExecutionError("Illegal double '%r' value found during "
                                 "parsing" % value, errno=1367)
        return ast.Literal(value, "float")
    if isinstance(value, str):
        return ast.Literal(value, "string")
    raise ExecutionError(
        "cannot bind parameter of type %s" % type(value).__name__
    )


def bind_values(tree, values):
    """*tree* with each ``Param`` slot that *values* fills replaced by
    its literal: the tree an unslotted parse of the same text builds."""
    def bind(node):
        if isinstance(node, ast.Param) and node.index < len(values):
            return literal_for(values[node.index])
        return node
    return ast.transform(tree, bind)


def slot_tags(values):
    """The literal type tag of each value of a values vector — all that
    validation and planning may know about it.  Refuses a value the
    binary protocol cannot bind."""
    return tuple(literal_for(value).type_tag for value in values)


class PreparedStatement(object):
    """A parsed statement awaiting parameters.

    Created by :meth:`repro.sqldb.connection.Connection.prepare`.
    """

    def __init__(self, database, statement, comments, charset,
                 param_count, session=None):
        self._database = database
        self._statement = statement
        self._comments = comments
        self._charset = charset
        #: the owning connection's session (LAST_INSERT_ID scope);
        #: ``None`` falls back to the database's default session
        self._session = session
        self.param_count = param_count
        #: server-side statement id (COM_STMT_PREPARE returns it, and
        #: the pipeline cache keys executions under it)
        self.statement_id = next(_STATEMENT_IDS)

    def execute(self, *params):
        """Run the statement with *params* in its ``?`` slots, through
        the normal pipeline (validation → SEPTIC hook → execution).

        Nothing is copied or rewritten: the statement parsed at prepare
        time is the one that runs, and the parameters travel beside it
        as the execution's values vector.  Executions ride the pipeline
        cache keyed by ``(statement id, parameter types)`` — the
        types decide the item kinds SEPTIC sees and the access path, the
        values decide neither — so after the first execution of a type
        signature every later one reuses its validated item stack,
        SEPTIC memo and physical plan whatever values it binds.
        """
        if len(params) == 1 and isinstance(params[0], (list, tuple)):
            params = tuple(params[0])
        if len(params) != self.param_count:
            raise ExecutionError(
                "statement expects %d parameters, got %d"
                % (self.param_count, len(params)),
                errno=2031,
            )
        # every execution, cached or not: a value no literal spells is
        # refused before it reaches a plan or the WAL
        tags = slot_tags(params)
        database = self._database
        cache = getattr(database, "pipeline_cache", None)
        # the types themselves: 1, 1.0 and True (equal as dict keys)
        # must not ride one another's entry
        key = ("stmt", self.statement_id, tuple(map(type, params)))
        entry = None
        if cache is not None:
            try:
                entry = cache.get(self._charset, key,
                                  database.schema_version)
            except Exception:
                entry = None  # a broken cache degrades to the cold path
        if entry is None:
            from repro.sqldb.cache import CacheEntry

            entry = CacheEntry([self._statement], list(self._comments),
                               slot_tags=tags)
            if cache is not None:
                try:
                    entry = cache.put(self._charset, key,
                                      database.schema_version, entry)
                except Exception:
                    pass  # cache insertion is best-effort
        return database.run_statement(
            self._statement, comments=entry.comments,
            session=self._session, entry=entry, values=params,
        )


def parse_prepared(database, sql, charset, session=None):
    """Parse *sql* (single statement) for later execution."""
    from repro.sqldb import charset as charset_mod
    from repro.sqldb.lexer import TokenType, tokenize
    from repro.sqldb.parser import parse_sql

    decoded = charset_mod.decode_query(sql, charset)
    lexed = tokenize(decoded)
    statements, comments = parse_sql(decoded, lexed)
    if len(statements) != 1:
        raise ParseError("can only prepare a single statement")
    param_count = sum(1 for tok in lexed.tokens
                      if tok.type == TokenType.PARAM)
    return PreparedStatement(database, statements[0], comments, charset,
                             param_count, session=session)
