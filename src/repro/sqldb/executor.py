"""Statement dispatch and glue around the plan/execute split.

Since the plan-layer refactor the executor makes no planning decisions:
access paths, join strategies and the top-k choice all live in
:mod:`repro.sqldb.planner`, and the streaming operators that carry them
out live in :mod:`repro.sqldb.plan`.  What remains here is dispatch,
the DDL/SHOW/transaction handlers (which execute directly against the
catalog) and plan preparation/caching.  What a plan did is on its
execution's :class:`~repro.sqldb.plan.StageStats`
(:attr:`Executor.last_stage_stats`).
"""

from repro.sqldb import ast_nodes as ast
from repro.sqldb import plan as plan_mod
from repro.sqldb.errors import ExecutionError, TransientEngineError
from repro.sqldb.expression import EvalContext
from repro.sqldb.plan import ExecutionResult, ExecState
from repro.sqldb.planner import Planner
from repro.sqldb.prepared import slot_tags
from repro.sqldb.storage import Column, ResultSet, WriteTxn

__all__ = ["DDL_STATEMENTS", "Executor", "ExecutionResult"]

#: statement kinds that go through the planner
_PLANNED = (ast.Select, ast.Insert, ast.Update, ast.Delete, ast.Explain)

#: statements that rewrite the catalog itself (schema changes)
DDL_STATEMENTS = (
    ast.CreateTable, ast.DropTable,
    ast.CreateIndex, ast.DropIndex,
    ast.AlterTableAddColumn, ast.AlterTableDropColumn,
)

#: the catalog is not transactional: like MySQL (5.7 manual 13.3.3),
#: these end the open transaction with an implicit COMMIT before they
#: run — even when they then fail
_IMPLICIT_COMMIT = DDL_STATEMENTS + (ast.TruncateTable,)

#: bound on the by-identity subquery-plan memo
_SUBPLAN_MEMO_LIMIT = 256


def _column_of(cdef):
    """The storage :class:`Column` a parsed column definition declares."""
    return Column(
        cdef.name, cdef.type_name, length=cdef.length,
        not_null=cdef.not_null, primary_key=cdef.primary_key,
        auto_increment=cdef.auto_increment,
        default=cdef.default.value if cdef.default is not None else None,
        unique=cdef.unique,
    )


class Executor(object):
    """Executes validated statements against a :class:`Database` catalog."""

    def __init__(self, database):
        self._db = database
        #: planner toggles — the benchmarks flip these to measure the
        #: legacy strategies against the indexed ones on equal footing
        self.enable_hash_join = True
        self.enable_topk = True
        #: StageStats of the most recently executed plan
        self.last_stage_stats = None
        #: subquery plans memoized by AST identity — correlated
        #: subqueries replan once, not once per outer row
        self._subplan_memo = {}

    # -- planning ---------------------------------------------------------

    def _fingerprint(self):
        """Everything a cached plan's validity depends on besides the
        cache key itself (the key already pins schema_version)."""
        return (self.enable_hash_join, self.enable_topk)

    def prepare(self, stmt, entry=None):
        """Physical plan for *stmt* (``None`` for unplanned kinds).

        When *entry* is the statement's pipeline-cache entry, the plan
        is cached on it alongside the planner-toggle fingerprint: a
        toggle flip replans instead of running a stale strategy, and
        DDL invalidates through the entry itself (the cache key
        includes ``schema_version``).  The entry also says what type
        each value slot of the statement holds; the plan serves every
        execution of the entry, whatever values it brings.

        Planning reads the catalog, so it runs under the database's
        short catalog guard; a cached plan reads nothing and takes it
        not."""
        if not isinstance(stmt, _PLANNED):
            return None
        fingerprint = self._fingerprint()
        slot_tags = ()
        if entry is not None:
            cached = entry.plan
            if cached is not None and cached[0] == fingerprint:
                return cached[1]
            slot_tags = entry.slot_tags
        planner = Planner(self._db,
                          enable_hash_join=self.enable_hash_join,
                          enable_topk=self.enable_topk,
                          slot_tags=slot_tags)
        with self._db.catalog_lock:
            plan = planner.plan_statement(stmt)
        if entry is not None and plan is not None:
            entry.plan = (fingerprint, plan)
        return plan

    def _subquery_plan(self, select, params):
        key = id(select)
        # a prepared statement's AST is shared by its type signatures,
        # so the slots' types are part of what the plan depends on
        fingerprint = (self._db.schema_version, tuple(map(type, params))) \
            + self._fingerprint()
        memo = self._subplan_memo.get(key)
        # the identity check makes recycled id() values harmless; the
        # strong reference in the memo keeps live keys stable
        if memo is not None and memo[0] is select \
                and memo[1] == fingerprint:
            return memo[2]
        planner = Planner(self._db,
                          enable_hash_join=self.enable_hash_join,
                          enable_topk=self.enable_topk,
                          slot_tags=slot_tags(params))
        plan = planner.plan_statement(select)
        if len(self._subplan_memo) >= _SUBPLAN_MEMO_LIMIT:
            self._subplan_memo.clear()
        self._subplan_memo[key] = (select, fingerprint, plan)
        return plan

    # -- entry point -----------------------------------------------------

    def execute(self, stmt, session=None, prepared=None, params=(),
                keep_partial=False):
        """Run *stmt*; *params* is the values vector its ``Param``
        slots read (the statement and its plan are shared, read-only).
        A data change that fails leaves nothing behind, unless
        *keep_partial*: the replay of a failed statement an earlier
        version logged keeps the rows it wrote before failing, as the
        server that logged it did."""
        if session is None:
            session = self._db.default_session
        ctx = EvalContext(self._db, executor=self, session=session,
                          params=params)
        if prepared is None and isinstance(stmt, _PLANNED):
            prepared = self.prepare(stmt)
        if isinstance(stmt, ast.Select):
            # pin the snapshot for the whole statement: scans below see
            # exactly the versions committed at this watermark
            view = self._db.open_read_view(session)
            ctx.read_view = view
            try:
                state = ExecState(ctx)
                rows = [out for _, out in prepared.root.rows(state)]
            finally:
                self._db.close_read_view(view)
            state.stats.note_materialized(len(rows))
            self.last_stage_stats = state.stats
            return ExecutionResult(
                result_set=ResultSet(prepared.columns, rows),
                sleep_seconds=ctx.sleep_seconds,
            )
        if isinstance(stmt, ast.Explain):
            return ExecutionResult(
                result_set=plan_mod.render_explain(prepared, self._db)
            )
        if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
            txn, own_txn = self._write_txn_for(session)
            since = len(txn.entries)
            ctx.write_txn = txn
            state = ExecState(ctx)
            try:
                result = prepared.root.run(state)
            except Exception:
                if len(txn.entries) > since and not keep_partial:
                    # InnoDB's statement rollback, done while the
                    # statement still holds its table lock (an autocommit
                    # statement's own transaction is left with nothing)
                    self._db._undo_statement(txn, since)
                elif own_txn:
                    self._db._seal_txn(txn)
                raise
            if own_txn:
                # an autocommit statement is its own mini-transaction
                self._db._seal_txn(txn)
            self.last_stage_stats = state.stats
            return result
        if isinstance(stmt, _IMPLICIT_COMMIT):
            session.commit(under_locks=True)
        if isinstance(stmt, ast.CreateTable):
            return self._create_table(stmt)
        if isinstance(stmt, ast.DropTable):
            return self._drop_table(stmt)
        if isinstance(stmt, ast.ShowTables):
            names = sorted(self._db.tables)
            return ExecutionResult(
                result_set=ResultSet(["Tables_in_%s" % self._db.name],
                                     [(n,) for n in names])
            )
        if isinstance(stmt, ast.Describe):
            return self._describe(stmt)
        if isinstance(stmt, ast.Begin):
            session.begin()
            return ExecutionResult(affected_rows=0)
        if isinstance(stmt, ast.Commit):
            session.commit()
            return ExecutionResult(affected_rows=0)
        if isinstance(stmt, ast.Rollback):
            session.rollback()
            return ExecutionResult(affected_rows=0)
        if isinstance(stmt, ast.CreateIndex):
            self._db.table(stmt.table).create_index(stmt.name, stmt.column)
            # cached plans chose their access path without this index
            self._db.bump_schema_version()
            return ExecutionResult(affected_rows=0)
        if isinstance(stmt, ast.DropIndex):
            self._db.table(stmt.table).drop_index(stmt.name)
            # cached plans may probe the index being dropped
            self._db.bump_schema_version()
            return ExecutionResult(affected_rows=0)
        if isinstance(stmt, ast.AlterTableAddColumn):
            return self._alter_add_column(stmt)
        if isinstance(stmt, ast.AlterTableDropColumn):
            return self._alter_drop_column(stmt)
        if isinstance(stmt, ast.TruncateTable):
            table = self._db.table(stmt.table)
            removed = table.row_count()
            txn, own_txn = self._write_txn_for(session)
            try:
                table.truncate(txn=txn)   # also resets AUTO_INCREMENT
            finally:
                if own_txn:
                    self._db._seal_txn(txn)
            return ExecutionResult(affected_rows=removed)
        raise ExecutionError("cannot execute %r" % type(stmt).__name__)

    def _write_txn_for(self, session):
        """The write transaction a mutating statement installs versions
        under: the session's open transaction (sealed at COMMIT), or a
        fresh statement-scoped one the caller must seal itself.
        Returns ``(txn, owns_seal)``."""
        if session.write_txn is not None:
            return session.write_txn, False
        return WriteTxn(), True

    # -- subquery support --------------------------------------------------

    def run_select_rows(self, select, outer_ctx=None):
        """Run a subquery SELECT, returning raw row tuples."""
        session = outer_ctx.session if outer_ctx is not None else None
        params = outer_ctx.params if outer_ctx is not None else ()
        ctx = EvalContext(self._db, executor=self, session=session,
                          params=params)
        outer_row = None
        if outer_ctx is not None:
            ctx._parent = outer_ctx
            ctx.row = dict(outer_ctx.row)
            outer_row = ctx.row
            # a subquery reads under the statement's pinned snapshot
            ctx.read_view = outer_ctx.read_view
        plan = self._subquery_plan(select, params)
        state = ExecState(ctx, outer_row=outer_row)
        return [out for _, out in plan.root.rows(state)]

    # -- DDL ----------------------------------------------------------------------

    def _create_table(self, stmt):
        name = stmt.name.lower()
        if name in self._db.tables:
            if stmt.if_not_exists:
                return ExecutionResult(affected_rows=0)
            raise ExecutionError(
                "Table '%s' already exists" % stmt.name, errno=1050
            )
        self._db.create_table(name, [_column_of(cdef)
                                     for cdef in stmt.columns])
        return ExecutionResult(affected_rows=0)

    def _drop_table(self, stmt):
        name = stmt.name.lower()
        if name not in self._db.tables:
            if stmt.if_exists:
                return ExecutionResult(affected_rows=0)
            raise ExecutionError("Unknown table '%s'" % stmt.name, errno=1051)
        self._db.drop_table(name)
        return ExecutionResult(affected_rows=0)

    def _reshapable(self, name):
        """The table an ALTER may reshape.  Reshaping settles pending
        rows as committed, so while another session's open transaction
        has written *name* the ALTER is refused, retryably (MySQL would
        wait on that transaction's metadata lock): its ROLLBACK must
        still undo them, as replay of the log does."""
        table = self._db.table(name)
        for session in list(self._db._tx_sessions):
            txn = session.write_txn   # None once that session has ended
            if txn is not None and any(
                    entry[0] is table for entry in txn.entries):
                raise TransientEngineError(
                    "Lock wait timeout exceeded; table '%s' has rows "
                    "pending in another transaction" % name, errno=1205)
        return table

    def _alter_add_column(self, stmt):
        table = self._reshapable(stmt.table)
        cdef = stmt.column_def
        if table.has_column(cdef.name):
            raise ExecutionError(
                "Duplicate column name '%s'" % cdef.name, errno=1060
            )
        table.add_column(_column_of(cdef))
        self._db.bump_schema_version()
        return ExecutionResult(affected_rows=table.row_count())

    def _alter_drop_column(self, stmt):
        table = self._reshapable(stmt.table)
        name = stmt.column.lower()
        if not table.has_column(name):
            raise ExecutionError(
                "Can't DROP '%s'; check that column/key exists"
                % stmt.column, errno=1091,
            )
        if len(table.columns) == 1:
            raise ExecutionError(
                "A table must have at least 1 column", errno=1090
            )
        table.drop_column(name)
        self._db.bump_schema_version()
        return ExecutionResult(affected_rows=table.row_count())

    def _describe(self, stmt):
        table = self._db.table(stmt.table)
        rows = []
        for col in table.columns:
            type_text = col.type_name.lower()
            if col.length is not None:
                type_text += "(%d)" % col.length
            rows.append(
                (
                    col.name,
                    type_text,
                    "NO" if col.not_null else "YES",
                    "PRI" if col.primary_key else
                    ("UNI" if col.unique else ""),
                    col.default,
                    "auto_increment" if col.auto_increment else "",
                )
            )
        return ExecutionResult(
            result_set=ResultSet(
                ["Field", "Type", "Null", "Key", "Default", "Extra"], rows
            )
        )
