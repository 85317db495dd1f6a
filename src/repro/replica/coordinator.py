""":class:`ReplicaSet`: membership, heartbeats, election, retention.

The coordinator is the harness-side stand-in for the control plane a
real deployment would run (every node in one process, like the rest of
the reproduction).  Time is an integer **virtual tick** counter owned by
the set — nothing here reads a wall clock (a lint gate enforces it), so
every failover scenario is deterministic and the DES experiments can
drive the clock themselves.

The state machine, per heartbeat boundary (every ``heartbeat_interval``
ticks):

1. **ship** — the live primary's un-fetched log records go to every
   live replica as the payload bytes its log holds (picked by the LSN
   at their fixed place, never decoded here), each batch stamped with
   the primary's epoch and each record with a ship CRC over those
   bytes (:func:`repro.replica.node.shipped_crc`);
   when the primary's SEPTIC store changed since the last round, its
   snapshot rides along so detection models stay consistent set-wide;
2. **heartbeat** — live replicas refresh their lease from the primary's
   epoch.  The ``replica.heartbeat`` fault site models a lost beat:
   nothing ships, no lease refreshes;
3. **lease check** — a live replica whose lease has been silent for
   ``lease_intervals`` heartbeat windows starts an election:
   :meth:`ReplicaSet.promote` picks the live replica with the highest
   applied LSN (name-ordered tie-break), bumps the epoch, fences
   whatever still thinks it is primary, and re-registers the WAL
   retention pin on the new primary.

Retention: the primary's checkpoints consult
:meth:`ReplicaSet._retention_low_water` (registered via
``Database.pin_lsn``) — rotation waits for the slowest live replica's
applied LSN, except that a replica lagging more than
``max_retention_lag`` records is dropped from the set (role
``detached``, logged as a ``replication_lag`` event) rather than pinning
the log forever: the escape hatch trades that replica's freshness for
the primary's disk.
"""

import os

from repro import faults as faults_mod
from repro.replica.node import ReplicaNode, Role, shipped_crc
from repro.sqldb import wal as wal_mod
from repro.sqldb.engine import Database
from repro.sqldb.errors import WalError


class ShippedBatch(object):
    """One epoch-stamped shipment: ``entries`` is a list of
    ``(payload, ship_crc)`` pairs in LSN order, each payload a record's
    bytes as the primary's log holds them; ``store_payload`` is an
    optional SEPTIC QM-store snapshot riding along."""

    __slots__ = ("epoch", "entries", "store_payload")

    def __init__(self, epoch, entries, store_payload=None):
        self.epoch = epoch
        self.entries = entries
        self.store_payload = store_payload

    def __repr__(self):
        return "ShippedBatch(epoch=%d, %d records%s)" % (
            self.epoch, len(self.entries),
            ", +store" if self.store_payload is not None else "",
        )


def flip_a_bit(payload):
    """In-flight damage to a record's bytes: one bit of its last byte."""
    damaged = bytearray(payload)
    damaged[-1] ^= 0x01
    return bytes(damaged)


def damage_a_field(payload):
    """In-flight damage to a record's fields: it arrives well-formed,
    encoded afresh, with its transaction id one off."""
    record = wal_mod.WalRecord.from_payload(payload)
    return wal_mod.WalRecord(
        record.lsn, record.op, tx=record.tx + 1, sql=record.sql,
        clock=record.clock, rand=record.rand, failed=record.failed,
        undone=record.undone,
    ).payload


def corrupt_shipment(entries, rng):
    """Corruptor for the ``replica.ship`` site: damage one in-flight
    record — a flipped bit or a changed field, so its bytes no longer
    match its ship CRC — leaving the primary's log untouched."""
    if not entries:
        return entries
    index = rng.randrange(len(entries))
    damage = rng.choice((flip_a_bit, damage_a_field))
    payload, crc = entries[index]
    entries = list(entries)
    entries[index] = (damage(payload), crc)
    return entries


class ReplicaSet(object):
    """A primary plus N WAL-shipping replicas under one virtual clock.

    Every member bootstraps through ``Database.recover`` over its own
    subdirectory of *workdir* — fresh directories for a new set; the
    primary may carry existing un-rotated history (it ships from LSN 1).
    *septic_factory* (a zero-argument callable) builds one SEPTIC-like
    hook per node, so the primary detects and replicas co-apply models.
    """

    def __init__(self, workdir, replicas=2, septic_factory=None, seed=1,
                 heartbeat_interval=5, lease_intervals=3,
                 max_retention_lag=None, wal_sync="commit",
                 checkpoint_interval=0, storage="memory"):
        self.workdir = workdir
        self.seed = seed
        self.heartbeat_interval = max(1, heartbeat_interval)
        #: silent heartbeat windows a replica tolerates before electing
        self.lease_intervals = max(1, lease_intervals)
        self.max_retention_lag = max_retention_lag
        #: the set's virtual clock, in ticks
        self.clock = 0
        #: current election term (stamped into every shipment)
        self.epoch = 1
        #: highest committed frontier ever observed on a live primary —
        #: keeps ``frontier_lsn`` truthful while the primary is dead, so
        #: a never-shipped replica can't masquerade as caught up just
        #: because the set forgot how far commits had advanced
        self._frontier_hwm = 0
        self.promotions = 0
        self.missed_heartbeats = 0
        self.replication_lag_drops = 0
        #: ``(tick, kind, detail)`` triples — the coordinator's log
        self.events = []
        #: names the "network" currently refuses to deliver to/from
        self._partitioned = set()
        self._store_token = None
        self.nodes = []
        for index in range(replicas + 1):
            name = "node%d" % index
            septic = septic_factory() if septic_factory else None
            database = Database.recover(
                os.path.join(workdir, name), name=name, septic=septic,
                seed=seed, wal_sync=wal_sync,
                checkpoint_interval=checkpoint_interval if index == 0 else 0,
                # replicas stay in-memory: they rebuild from shipped WAL
                # anyway, and the primary's paged files are per-directory
                storage=storage if index == 0 else "memory",
            )
            role = Role.PRIMARY if index == 0 else Role.REPLICA
            self.nodes.append(ReplicaNode(name, database, role=role))
        self._install_retention_pin(self.nodes[0])
        if storage == "paged":
            self.nodes[0].database.register_page_repair_source(
                self._replica_rows)

    # -- membership --------------------------------------------------------

    @property
    def primary(self):
        """The live primary node, or ``None`` mid-failover."""
        for node in self.nodes:
            if node.role == Role.PRIMARY and node.alive:
                return node
        return None

    def replicas(self):
        """Live nodes currently in the replica role."""
        return [node for node in self.nodes
                if node.role == Role.REPLICA and node.alive]

    def node(self, name):
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def connect(self, **kwargs):
        """A :class:`repro.replica.router.RoutingConnection` over the
        set (imported late: the router builds on the coordinator)."""
        from repro.replica.router import RoutingConnection

        return RoutingConnection(self, **kwargs)

    # -- the virtual clock -------------------------------------------------

    def tick(self, ticks=1):
        """Advance virtual time; heartbeat rounds run on their
        boundaries.  Returns the clock."""
        for _ in range(max(0, ticks)):
            self.clock += 1
            if self.clock % self.heartbeat_interval == 0:
                self._heartbeat_round()
        return self.clock

    @property
    def lease_ticks(self):
        return self.lease_intervals * self.heartbeat_interval

    def _heartbeat_round(self):
        primary = self.primary
        if primary is not None and primary.name not in self._partitioned:
            delivered = True
            if faults_mod.ACTIVE is not None:
                try:
                    faults_mod.fire("replica.heartbeat")
                except faults_mod.InjectedFault:
                    delivered = False
                    self.missed_heartbeats += 1
                    self._log("heartbeat_lost", primary.name)
            if delivered:
                self.ship()
                for node in self.replicas():
                    node.heartbeat(self.clock, self.epoch)
        self._check_leases()

    def _check_leases(self):
        expired = [
            node for node in self.replicas()
            if self.clock - node.last_heartbeat_tick >= self.lease_ticks
        ]
        if not expired:
            return
        self._log("lease_expired",
                  ",".join(node.name for node in expired))
        try:
            self.promote()
        except faults_mod.InjectedFault:
            # the promotion machinery itself faulted: the lease is still
            # expired, so the next heartbeat round retries the election
            self._log("promote_faulted", "retrying next round")
        except WalError as exc:
            self._log("promote_impossible", str(exc))

    # -- shipping ----------------------------------------------------------

    def ship(self, source=None):
        """Ship *source*'s (default: the live primary's) un-fetched log
        records to every live replica.  Returns records newly ingested
        across the set.

        Calling it with a fenced node as *source* is the zombie-primary
        scenario: batches carry the zombie's stale epoch and every
        survivor rejects them.
        """
        if source is None:
            source = self.primary
        if source is None or not source.alive:
            return 0
        store_payload = self._store_snapshot_if_changed(source)
        targets = [node for node in self.nodes
                   if node is not source and node.alive
                   and node.role == Role.REPLICA
                   and node.name not in self._partitioned]
        if not targets:
            return 0
        # ship bytes, not records: what some target has yet to see is
        # picked by the LSN at its fixed place; each replica decodes
        # the bytes that reach it once they pass their CRC
        data = wal_mod.read_log_bytes(
            wal_mod.log_path(source.database.data_dir))
        low = min(node.applier.last_seen_lsn for node in targets)
        frames = [(lsn, payload, shipped_crc(payload)) for lsn, payload
                  in wal_mod.iter_payloads(data, after_lsn=low)]
        total = 0
        for node in targets:
            seen = node.applier.last_seen_lsn
            entries = [(payload, crc) for lsn, payload, crc in frames
                       if lsn > seen]
            if not entries and store_payload is None:
                continue
            if faults_mod.ACTIVE is not None:
                try:
                    entries = faults_mod.fire("replica.ship",
                                              payload=entries,
                                              corruptor=corrupt_shipment)
                except faults_mod.InjectedFault:
                    # this node misses the round; re-ships next time
                    continue
            total += node.receive(
                ShippedBatch(source.epoch, entries, store_payload))
        return total

    def _store_snapshot_if_changed(self, source):
        """The primary's QM-store snapshot when it changed since the
        last round (replicas co-apply it), else ``None``."""
        septic = getattr(source.database, "septic", None)
        store = getattr(septic, "store", None)
        if store is None or not hasattr(store, "snapshot"):
            return None
        token = (len(store), getattr(store, "snapshot_swaps", 0))
        if token == self._store_token:
            return None
        self._store_token = token
        return store.snapshot()

    # -- failover ----------------------------------------------------------

    def promote(self, node=None):
        """Elect a new primary: the live replica with the highest
        applied LSN (lowest name breaks ties) unless *node* is forced.
        Bumps the epoch, fences the deposed primary, discards the
        winner's in-flight (uncommitted) shipments, and moves the WAL
        retention pin.  Returns the new primary node."""
        if faults_mod.ACTIVE is not None:
            faults_mod.fire("replica.promote")
        candidates = self.replicas()
        if not candidates:
            raise WalError("no live replica available for promotion")
        if node is None:
            node = sorted(
                candidates,
                key=lambda n: (-n.applier.applied_lsn, n.name),
            )[0]
        elif node not in candidates:
            raise WalError("%s is not a live replica" % node.name)
        for old in self.nodes:
            if old.role == Role.PRIMARY and old is not node:
                old.database.unpin_lsn("replication")
                old.role = Role.FENCED if old.alive else Role.DETACHED
        dropped = node.applier.discard_in_flight()
        # the winner's log is the new timeline: any unshipped tail of
        # the old primary is lost, and staleness is measured against
        # what survived the election from here on
        self._frontier_hwm = node.database.durable_lsn
        self.epoch += 1
        node.epoch = self.epoch
        node.role = Role.PRIMARY
        node.last_heartbeat_tick = self.clock
        self.promotions += 1
        self._install_retention_pin(node)
        self._log("promote",
                  "%s at applied LSN %d, epoch %d (%d uncommitted "
                  "in-flight tx discarded)"
                  % (node.name, node.applied_lsn, self.epoch, dropped))
        return node

    def kill_primary(self):
        """Crash the live primary in place (the failover sweep's kill
        switch).  Returns the node that died."""
        primary = self.primary
        if primary is None:
            raise WalError("no live primary to kill")
        if primary.database.durable_lsn > self._frontier_hwm:
            self._frontier_hwm = primary.database.durable_lsn
        primary.crash()
        self._log("kill", primary.name)
        return primary

    def partition(self, node):
        """Cut *node* off the network: heartbeats and shipments no
        longer flow to or from it, but it keeps running — the zombie
        scenario when applied to the primary."""
        self._partitioned.add(node.name)
        self._log("partition", node.name)

    def heal(self, node):
        self._partitioned.discard(node.name)
        self._log("heal", node.name)

    # -- retention ---------------------------------------------------------

    def _install_retention_pin(self, primary_node):
        for node in self.nodes:
            node.database.unpin_lsn("replication")
        primary_node.database.pin_lsn("replication",
                                      self._retention_low_water)

    def _retention_low_water(self):
        """Checkpoint-time callback on the primary: the slowest live
        replica's applied LSN, after dropping any replica lagging past
        ``max_retention_lag`` (the escape hatch)."""
        primary = self.primary
        if primary is None:
            return None
        frontier = primary.database.durable_lsn
        lows = []
        for node in list(self.nodes):
            if node.role != Role.REPLICA or not node.alive:
                continue
            applied = node.applier.applied_lsn
            lag = frontier - applied
            if (self.max_retention_lag is not None
                    and lag > self.max_retention_lag):
                self._drop_replica(node, lag)
                continue
            lows.append(applied)
        return min(lows) if lows else None

    # -- storage repair ----------------------------------------------------

    def _replica_rows(self, table_name):
        """The primary scrubber's last repair source (installed by
        ``__init__`` on a paged set): when a quarantined page cannot be
        repaired from the doublewrite area, a clean frame or local WAL
        redo, the owning table's rows come from the most caught-up live
        replica and the table is rebuilt from them.  Only a replica at
        (or past) the primary's durable frontier qualifies — repairing
        from a lagging replica would silently roll the table back.
        Returns the rows, or ``None`` when no replica qualifies."""
        primary = self.primary
        if primary is None:
            return None
        frontier = primary.database.durable_lsn
        best = None
        for node in self.replicas():
            if node.name in self._partitioned:
                continue
            applied = node.applier.applied_lsn
            if applied >= frontier and (
                    best is None or applied > best[0]):
                best = (applied, node)
        if best is None:
            return None
        table = best[1].database.tables.get(table_name)
        if table is None:
            return None
        self._log(
            "storage_repair",
            "table %r re-fed from %s (applied_lsn=%d)"
            % (table_name, best[1].name, best[0]),
        )
        return table.value_rows()

    def _drop_replica(self, node, lag):
        node.role = Role.DETACHED
        self.replication_lag_drops += 1
        self._log(
            "replication_lag",
            "dropped %s: lag %d exceeds max_retention_lag %d"
            % (node.name, lag, self.max_retention_lag),
        )

    # -- observability -----------------------------------------------------

    def frontier_lsn(self):
        """The newest committed LSN the set has ever observed.

        With a live primary this is its durable watermark.  Mid-failover
        the high-water mark keeps the answer monotonic: a replica that
        never received a shipment stays visibly behind the commits the
        dead primary had acknowledged, instead of the frontier snapping
        back to whatever the survivors happen to hold.  ``promote``
        resets the mark — the winner's log defines the new timeline.
        """
        primary = self.primary
        if primary is not None:
            frontier = primary.database.durable_lsn
            if frontier > self._frontier_hwm:
                self._frontier_hwm = frontier
            return frontier
        return max(
            [self._frontier_hwm]
            + [node.applied_lsn for node in self.nodes if node.alive]
        )

    def status(self):
        """Per-node roles, watermarks and lags (the CLI's
        ``replicate --status`` body)."""
        frontier = self.frontier_lsn()
        rows = []
        for node in self.nodes:
            row = node.status()
            row["lag"] = max(0, frontier - row["applied_lsn"])
            rows.append(row)
        return {
            "clock": self.clock,
            "epoch": self.epoch,
            "heartbeat_interval": self.heartbeat_interval,
            "lease_intervals": self.lease_intervals,
            "promotions": self.promotions,
            "missed_heartbeats": self.missed_heartbeats,
            "replication_lag_drops": self.replication_lag_drops,
            "frontier_lsn": frontier,
            "nodes": rows,
        }

    def _log(self, kind, detail):
        self.events.append((self.clock, kind, detail))

    def close(self):
        for node in self.nodes:
            if node.alive:
                node.database.close()
            node.database.unpin_lsn("replication")

    def __repr__(self):
        return "ReplicaSet(%d nodes, epoch=%d, clock=%d)" % (
            len(self.nodes), self.epoch, self.clock
        )
