"""The streaming redo apply loop (a replica's only write path).

A replica ingests the primary's WAL records one at a time and maintains
the invariant that makes everything else in the subsystem simple: **its
own data directory is always a valid, recoverable WAL history** — the
same bytes, the same LSNs, the same committed-prefix semantics as the
primary's.  That falls out of two rules:

1. every shipped record is appended *verbatim* to the replica's own log
   (:meth:`~repro.sqldb.wal.WriteAheadLog.append_record`, preserving the
   primary's LSN) **before** it is applied — a replica crash between
   append and apply just replays the record on restart;
2. state only ever changes through the engine's redo path
   (:meth:`~repro.sqldb.engine.Database.redo_apply`, the exact code
   recovery runs) — never the public DML/executor path, so SEPTIC is
   bypassed (the statement already passed the hook on the primary) and
   replay determinism (virtual clock, RNG fast-forward) is inherited
   rather than re-implemented.  A lint gate keeps it that way.

Commit grouping is recovery's own (:class:`repro.sqldb.wal.CommitGrouper`):
autocommit statements apply immediately; transactional statements buffer
until their COMMIT marker arrives (ROLLBACK discards them).  The
:attr:`~ReplicaApplier.applied_lsn` watermark therefore only ever
advances at durability points — exactly the states a client could have
been acknowledged about — which is what promotion, staleness bounds and
checkpoint retention all key off.
"""

from repro import faults as faults_mod
from repro.sqldb import wal as wal_mod
from repro.sqldb.errors import WalError


class ReplicaApplier(object):
    """Tails shipped WAL records and applies committed units through
    the redo path of *database* (a WAL-attached replica instance)."""

    def __init__(self, database):
        self.database = database
        #: groups shipped records into committed units; buffers the
        #: transactions whose COMMIT has not arrived yet
        self._units = None
        #: LSN of the newest record ingested (and durably logged)
        self.last_seen_lsn = 0
        #: LSN of the newest *durability point* applied — the replica's
        #: committed-state watermark (promotion and retention use this)
        self.applied_lsn = 0
        #: statement records actually redone
        self.records_applied = 0
        #: committed units (autocommit statements + transactions) applied
        self.units_applied = 0
        #: shipped records skipped as already-ingested duplicates
        self.duplicates_skipped = 0
        self.resync()

    @property
    def in_flight(self):
        """Transactions currently buffered (shipped but uncommitted)."""
        return len(self._units.open_tx)

    def resync(self):
        """Align the applier with the database's recovered state.

        Called at construction and after a crash-restart
        (``database.reopen()``): recovery already applied every
        committed unit in the replica's own log, so the watermarks jump
        to the recovered frontier, and the statement records of
        transactions that were still open at the crash are re-buffered
        from the log — their COMMIT may yet arrive from the primary.
        """
        units = self._units = wal_mod.CommitGrouper()
        db = self.database
        self.last_seen_lsn = db.durable_lsn
        self.applied_lsn = db.durable_lsn
        if db.data_dir is None:
            return
        scan = wal_mod.scan_log(wal_mod.log_path(db.data_dir))
        for rec in scan.records:
            units.feed(rec)
        if units.open_tx:
            # open-tx statement records at the log tail are ingested but
            # not applied: the applied watermark stays at the last
            # durability point (everything before the log's first record
            # lives in the checkpoint and is fully applied)
            self.applied_lsn = units.commit_lsn or (
                scan.records[0].lsn - 1 if scan.records
                else db.durable_lsn)

    def offer(self, record):
        """Ingest one shipped record.  Returns ``True`` when the record
        advanced the replica, ``False`` for an already-seen duplicate
        (re-ships after a rejected batch are idempotent).

        Records must arrive in LSN order — a gap means the primary's
        log rotated past this replica's position (the retention pin
        exists to prevent that), and raises
        :class:`~repro.sqldb.errors.WalError` rather than silently
        diverging.
        """
        if record.lsn <= self.last_seen_lsn:
            self.duplicates_skipped += 1
            return False
        if record.lsn != self.last_seen_lsn + 1:
            raise WalError(
                "replication gap: expected LSN %d, got %d (primary log "
                "rotated past this replica?)"
                % (self.last_seen_lsn + 1, record.lsn)
            )
        if faults_mod.ACTIVE is not None:
            faults_mod.fire("replica.apply")
        wal = self.database.wal
        durable = record.op == wal_mod.WalRecord.COMMIT or (
            record.op == wal_mod.WalRecord.STMT and record.tx == 0
        )
        if wal is not None:
            # log-before-apply: a crash right here replays on restart
            wal.append_record(record, durability_point=durable)
        self.last_seen_lsn = record.lsn
        unit = self._units.feed(record)
        if unit is not None:
            self._apply_unit(unit, record.lsn)
        return True

    def _apply_unit(self, records, commit_lsn):
        """Redo one committed unit and advance the applied watermark."""
        for rec in records:
            self.database.redo_apply(rec)
            self.records_applied += 1
        self.units_applied += 1
        self.applied_lsn = commit_lsn
        self.database.note_applied_lsn(commit_lsn)

    def discard_in_flight(self):
        """Drop buffered uncommitted transactions (promotion: units the
        dead primary never committed must not survive as phantoms).
        Returns the number of transactions discarded."""
        dropped = len(self._units.open_tx)
        self._units.open_tx.clear()
        return dropped

    def __repr__(self):
        return ("ReplicaApplier(applied_lsn=%d, seen=%d, units=%d, "
                "in_flight=%d)" % (self.applied_lsn, self.last_seen_lsn,
                                   self.units_applied, self.in_flight))
