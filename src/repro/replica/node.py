"""One member of a replica set: a database, its applier, and a role.

The node is where the two failover-safety mechanisms live:

* **fencing epochs** — every shipped batch and heartbeat carries the
  term of the primary that produced it.  A node tracks the highest
  epoch it has ever accepted and rejects anything older, so a *zombie*
  primary (partitioned away, unaware it was deposed) can keep producing
  records forever without any survivor applying one of them;
* **ship integrity** — a record ships as the payload bytes the
  primary's log holds, with a CRC32 over them.  On arrival the CRC is
  recomputed over the bytes that arrived, and only bytes that pass are
  decoded: the record the replica applies and the bytes its log
  appends are one and the same, and nothing re-encodes them.  A record
  corrupted in flight (the ``replica.ship`` fault site's ``corrupt``
  kind) is rejected before it touches the replica's log, and ingestion
  of the batch stops there — the applier's position did not advance,
  so the next ship round simply re-sends the suffix.
"""

import zlib

from repro.replica.apply import ReplicaApplier
from repro.sqldb import wal as wal_mod


def shipped_crc(payload):
    """The integrity checksum a record ships with: CRC32 over its
    payload bytes as the primary's log holds them."""
    return zlib.crc32(payload) & 0xFFFFFFFF


class Role(object):
    """Replica-set roles."""

    PRIMARY = "primary"
    REPLICA = "replica"
    #: a deposed primary: still running, permanently rejected
    FENCED = "fenced"
    #: dropped from the set (crash, or the replication_lag escape hatch)
    DETACHED = "detached"


class ReplicaNode(object):
    """A named member: one WAL-attached database plus replication state."""

    def __init__(self, name, database, role=Role.REPLICA):
        self.name = name
        self.database = database
        self.role = role
        #: highest election term this node has accepted
        self.epoch = 1
        self.applier = ReplicaApplier(database)
        #: a dead node neither receives nor serves (kill_primary /
        #: crash set this; restart() brings it back through recovery)
        self.alive = True
        #: coordinator tick of the last accepted heartbeat
        self.last_heartbeat_tick = 0
        self.heartbeats_received = 0
        #: batches rejected for carrying a stale epoch (zombie fencing)
        self.fenced_batches = 0
        #: records rejected for failing their shipped checksum
        self.corrupt_rejects = 0
        #: QM-store snapshots co-applied from the primary
        self.store_syncs = 0

    @property
    def applied_lsn(self):
        """The node's committed-state watermark: a primary is by
        definition at its own durable frontier; a replica is wherever
        its apply loop has reached."""
        if self.role == Role.PRIMARY:
            return self.database.durable_lsn
        return self.applier.applied_lsn

    def receive(self, batch):
        """Ingest one shipped batch.  Returns the number of records
        newly ingested; a stale-epoch batch is rejected outright (0)."""
        if not self.alive:
            return 0
        if batch.epoch < self.epoch:
            self.fenced_batches += 1
            return 0
        self.epoch = batch.epoch
        ingested = 0
        for payload, crc in batch.entries:
            record = None
            if shipped_crc(payload) == crc:
                try:
                    record = wal_mod.WalRecord.from_payload(payload)
                except ValueError:
                    pass    # passes its CRC yet does not decode: damage
            if record is None:
                # damaged in flight: stop here, the suffix re-ships
                self.corrupt_rejects += 1
                break
            if self.applier.offer(record):
                ingested += 1
        if batch.store_payload is not None:
            septic = getattr(self.database, "septic", None)
            store = getattr(septic, "store", None)
            if store is not None:
                store.restore(batch.store_payload)
                self.store_syncs += 1
        return ingested

    def heartbeat(self, tick, epoch):
        """Accept (or fence) one heartbeat; returns acceptance."""
        if not self.alive or epoch < self.epoch:
            return False
        self.epoch = epoch
        self.last_heartbeat_tick = tick
        self.heartbeats_received += 1
        return True

    def crash(self):
        """Kill the node in place: its WAL handle is abandoned exactly
        as a process death would leave it."""
        self.alive = False
        wal = self.database.wal
        if wal is not None:
            wal.abandon()

    def restart(self):
        """Crash-restart through ordinary recovery, then re-align the
        applier (buffered open transactions are rebuilt from the log)."""
        self.database.reopen()
        self.applier.resync()
        self.alive = True

    def status(self):
        return {
            "name": self.name,
            "role": self.role,
            "epoch": self.epoch,
            "alive": self.alive,
            "applied_lsn": self.applied_lsn,
            "seen_lsn": self.applier.last_seen_lsn,
            "in_flight": self.applier.in_flight,
            "fenced_batches": self.fenced_batches,
        }

    def __repr__(self):
        return "ReplicaNode(%s, %s, epoch=%d, applied=%d%s)" % (
            self.name, self.role, self.epoch, self.applied_lsn,
            "" if self.alive else ", DEAD",
        )
