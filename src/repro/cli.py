"""Command-line interface: ``python -m repro <command>``.

Commands:

``demo``
    Condensed five-phase demonstration (§IV) against WaspMon.
``train``
    Train SEPTIC over WaspMon's forms and persist the QM store
    (``--data-dir`` makes the whole stack durable: WAL-backed data
    plane plus co-persisted models).
``recover``
    Rebuild a database (and its models) from a ``--data-dir`` and print
    the recovery report.
``attack``
    Run the attack corpus against one protection configuration.
``scan``
    sqlmap-lite probe battery against one protection configuration.
``bench``
    Quick Figure-5-style overhead measurement.
``status``
    Train, attack, and print the SEPTIC status display + event log tail.
``replicate``
    WAL-shipping replica-set demo: per-replica applied LSN, lag and
    role (``--failover`` kills the primary and shows the election).
``serve``
    Serve the demo database over the wire protocol (``--smoke`` runs a
    built-in client exercise and exits).
"""

import argparse
import sys
import time

from repro.attacks.corpus import run_case, waspmon_attacks
from repro.attacks.scenario import PROTECTIONS, build_scenario


def _cmd_demo(args, out):
    rows = []
    for protection in ("none", "modsec", "septic"):
        scenario = build_scenario(protection)
        outcomes = [run_case(scenario.server, scenario.app, case)
                    for case in waspmon_attacks()]
        rows.append((protection, outcomes))
    out.write("%-28s %-12s %-12s %-12s\n"
              % ("attack", "none", "modsec", "septic"))
    for index, case in enumerate(waspmon_attacks()):
        cells = []
        for protection, outcomes in rows:
            outcome = outcomes[index]
            if outcome.waf_blocked:
                cells.append("waf-block")
            elif outcome.septic_blocked:
                cells.append("septic-block")
            elif outcome.succeeded:
                cells.append("pwned")
            else:
                cells.append("failed")
        out.write("%-28s %-12s %-12s %-12s\n" % ((case.name,) + tuple(cells)))
    septic_outcomes = rows[2][1]
    out.write("\nSEPTIC blocked %d/%d attacks, 0 false positives\n" % (
        sum(1 for o in septic_outcomes if o.septic_blocked),
        len(septic_outcomes),
    ))
    return 0


def _cmd_train(args, out):
    from repro.apps.waspmon import WaspMon
    from repro.core.septic import Mode, Septic
    from repro.core.store import QMStore
    from repro.core.training import SepticTrainer
    from repro.sqldb.engine import Database

    septic = Septic(mode=Mode.TRAINING, store=QMStore(path=args.store))
    if args.data_dir:
        # durable stack: data plane WAL-backed, models co-persisted in
        # the same directory with the WAL watermark
        database = Database.recover(args.data_dir, septic=septic)
        septic.bind_store(database)
    else:
        database = Database(septic=septic)
    app = WaspMon(database)
    report = SepticTrainer(app, septic).train(passes=args.passes)
    store_path = septic.store.save()
    durable_lsn = database.durable_lsn
    database.close()
    out.write("trained: %d requests, %d models -> %s\n"
              % (report.requests_sent, len(septic.store), store_path))
    if args.data_dir:
        out.write("data dir: %s (durable LSN %d)\n"
                  % (args.data_dir, durable_lsn))
    return 0


def _cmd_recover(args, out):
    from repro.core.septic import Mode, Septic
    from repro.sqldb.engine import Database

    if args.verify:
        # dry run: inspect the WAL without attaching to it — nothing on
        # disk moves (no torn-tail truncation, no checkpoint, no fsync)
        report = Database.verify_wal(args.data_dir)
        out.write("verified data dir:    %s (read-only)\n" % args.data_dir)
        out.write("checkpoint LSN:       %d\n" % report["checkpoint_lsn"])
        out.write("log records:          %d\n" % report["log_records"])
        for op in sorted(report["records_by_op"]):
            out.write("  %-20s %d\n" % (op + ":", report["records_by_op"][op]))
        out.write("commit-LSN watermark: %d\n" % report["commit_lsn"])
        out.write("last LSN:             %d\n" % report["last_lsn"])
        out.write("statements replayed:  %d\n"
                  % report["replayed_statements"])
        out.write("transactions:         %d committed, %d rolled back, "
                  "%d unfinished\n"
                  % (report["committed_transactions"],
                     report["rolled_back_transactions"],
                     report["unfinished_transactions"]))
        out.write("torn tail bytes:      %d\n" % report["torn_bytes"])
        if report["corrupt_offset"] is not None:
            out.write("CORRUPT at offset:    %d (clean prefix shown)\n"
                      % report["corrupt_offset"])
        out.write("tables:\n")
        for name in sorted(report["tables"]):
            out.write("  %-20s %d rows\n" % (name, report["tables"][name]))
        if args.pages:
            _write_pages_audit(args.data_dir, out)
        return 0

    septic = Septic(mode=Mode.PREVENTION)
    database = Database.recover(args.data_dir, septic=septic)
    models = septic.bind_store(database)
    report = database.recovery_report or {}
    out.write("recovered data dir:   %s\n" % args.data_dir)
    out.write("checkpoint LSN:       %d\n" % report.get("checkpoint_lsn", 0))
    out.write("log records scanned:  %d\n" % report.get("log_records", 0))
    out.write("statements replayed:  %d\n"
              % report.get("replayed_statements", 0))
    out.write("torn bytes truncated: %d\n" % report.get("torn_bytes", 0))
    out.write("tables:\n")
    for name in sorted(database.tables):
        out.write("  %-20s %d rows\n"
                  % (name, len(database.tables[name])))
    out.write("QM models loaded:     %d (wal_lsn %d)\n"
              % (models, septic.store.wal_lsn))
    database.close()
    return 0


def _write_pages_audit(data_dir, out):
    """The ``--verify --pages`` body: stream a per-page checksum/LSN
    audit of the home file (no page is held beyond its turn) plus the
    sealed doublewrite batch, read-only like the WAL audit above."""
    import os as os_mod

    from repro.sqldb import pager as pager_mod
    from repro.sqldb import wal as wal_mod

    path = pager_mod.pages_path(data_dir)
    if not os_mod.path.exists(path):
        out.write("pages:                none (in-memory storage)\n")
        return
    # the page size lives in the checkpoint the paged engine wrote; a
    # missing/unreadable checkpoint falls back to the default
    try:
        state = wal_mod.load_checkpoint(data_dir)
    except wal_mod.WalCorruptionError:
        state = None
    pages_meta = (state or {}).get("pages") or {}
    page_size = pages_meta.get("page_size", pager_mod.DEFAULT_PAGE_SIZE)
    total = ok = bad = 0
    bad_pages = []
    lsn_min = lsn_max = None
    for page_no, good, lsn in pager_mod.audit_pages(
            data_dir, page_size=page_size):
        total += 1
        if good:
            ok += 1
            if lsn_min is None or lsn < lsn_min:
                lsn_min = lsn
            if lsn_max is None or lsn > lsn_max:
                lsn_max = lsn
        else:
            bad += 1
            if len(bad_pages) < 16:
                bad_pages.append(page_no)
    out.write("pages audited:        %d (page size %d)\n"
              % (total, page_size))
    out.write("checksums:            %d ok, %d FAILED%s\n"
              % (ok, bad,
                 " [%s]" % ", ".join(str(p) for p in bad_pages)
                 if bad_pages else ""))
    if lsn_min is not None:
        out.write("page LSN range:       %d..%d\n" % (lsn_min, lsn_max))
    pager = pager_mod.Pager(data_dir, page_size=page_size, sync=False)
    try:
        loaded = pager.load_doublewrite()
    finally:
        pager.close()
    if loaded is None:
        out.write("doublewrite:          no sealed batch\n")
    else:
        out.write("doublewrite:          batch %d, %d page images\n"
                  % (loaded[0], len(loaded[1])))


def _cmd_attack(args, out):
    scenario = build_scenario(args.protection)
    blocked = succeeded = 0
    for case in waspmon_attacks():
        outcome = run_case(scenario.server, scenario.app, case)
        verdict = ("waf-blocked" if outcome.waf_blocked else
                   "septic-blocked" if outcome.septic_blocked else
                   "fw-blocked" if outcome.firewall_blocked else
                   "SUCCESS" if outcome.succeeded else "failed")
        if outcome.blocked:
            blocked += 1
        if outcome.succeeded:
            succeeded += 1
        out.write("%-28s %s\n" % (case.name, verdict))
    out.write("\n%s: %d blocked, %d succeeded\n"
              % (args.protection, blocked, succeeded))
    return 0 if succeeded == 0 or args.protection == "none" else 1


def _cmd_scan(args, out):
    from repro.attacks.sqlmap import SqlmapLite

    scenario = build_scenario(args.protection)
    scanner = SqlmapLite(scenario.server, scenario.app)
    findings = scanner.test_application()
    for finding in findings:
        out.write("%s\n" % (finding,))
    out.write("\n%d findings over %d probe requests\n"
              % (len(findings), scanner.requests_sent))
    return 0


def _cmd_bench(args, out):
    from repro.apps import AddressBook, Refbase, ZeroCMS
    from repro.benchlab.harness import run_overhead_experiment

    apps = {"addressbook": AddressBook, "refbase": Refbase,
            "zerocms": ZeroCMS}
    selected = [apps[name] for name in (args.apps or sorted(apps))]
    table = run_overhead_experiment(selected, loops=args.loops,
                                    repeats=args.repeats)
    out.write("%-12s %6s %6s %6s %6s\n" % ("app", "NN", "YN", "NY", "YY"))
    for app_name in sorted(table):
        row = table[app_name]
        out.write("%-12s %5.2f%% %5.2f%% %5.2f%% %5.2f%%\n" % (
            app_name, row["NN"] * 100, row["YN"] * 100,
            row["NY"] * 100, row["YY"] * 100,
        ))
    return 0


def _cmd_status(args, out):
    scenario = build_scenario("septic")
    for case in waspmon_attacks()[:5]:
        run_case(scenario.server, scenario.app, case)
    status = scenario.septic.status()
    out.write("mode:                 %s\n" % status["mode"])
    out.write("models learned:       %d\n" % status["models"])
    out.write("detect SQLI/stored:   %s/%s\n"
              % (status["detect_sqli"], status["detect_stored"]))
    out.write("plugins:              %s\n" % ", ".join(status["plugins"]))
    for key, value in sorted(status["stats"].items()):
        out.write("stats.%-18s %d\n" % (key + ":", value))
    cache = scenario.app.database.pipeline_cache.stats_dict()
    out.write("pipeline cache:       %d hits (%d by text, %d by shape), "
              "%d misses; %d/%d texts, %d evicted\n"
              % (cache["hits"], cache["text_hits"], cache["shape_hits"],
                 cache["misses"], cache["text_entries"], cache["max_texts"],
                 cache["text_evictions"]))
    out.write("\nlast events:\n")
    for event in scenario.septic.logger.events[-8:]:
        out.write("  %s\n" % event.format()[:100])
    return 0


def _cmd_replicate(args, out):
    import shutil
    import tempfile

    from repro.replica import ReplicaSet
    from repro.sqldb.connection import Connection

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-replicate-")
    cleanup = args.workdir is None
    replica_set = ReplicaSet(workdir, replicas=args.replicas,
                             heartbeat_interval=2, lease_intervals=2)
    try:
        connection = Connection(replica_set.primary.database,
                                multi_statements=True)
        connection.query_or_raise(
            "CREATE TABLE users (id INT AUTO_INCREMENT PRIMARY KEY, "
            "name VARCHAR(30))")
        for name in ("ana", "bruno", "carla", "dora", "emil"):
            connection.query_or_raise(
                "INSERT INTO users (name) VALUES ('%s')" % name)
            replica_set.tick(1)
        replica_set.tick(2 * replica_set.heartbeat_interval)
        if args.failover:
            victim = replica_set.primary.name
            replica_set.kill_primary()
            deadline = (replica_set.clock + replica_set.lease_ticks
                        + 2 * replica_set.heartbeat_interval)
            while (replica_set.promotions == 0
                   and replica_set.clock < deadline):
                replica_set.tick(1)
            router = replica_set.connect(retries=8)
            router.query_or_raise(
                "INSERT INTO users (name) VALUES ('post-failover')")
            out.write("killed %s; %s promoted at epoch %d; write "
                      "re-routed after %d retries\n"
                      % (victim, replica_set.primary.name,
                         replica_set.epoch,
                         router.retry_stats.as_dict()["retries"]))
        status = replica_set.status()
        out.write("clock %d, epoch %d, heartbeat every %d ticks, "
                  "lease %d intervals, %d promotions\n"
                  % (status["clock"], status["epoch"],
                     status["heartbeat_interval"],
                     status["lease_intervals"], status["promotions"]))
        out.write("frontier LSN: %d\n" % status["frontier_lsn"])
        out.write("%-8s %-9s %6s %12s %6s %6s\n"
                  % ("node", "role", "epoch", "applied_lsn", "lag",
                     "alive"))
        for row in status["nodes"]:
            out.write("%-8s %-9s %6d %12d %6d %6s\n"
                      % (row["name"], row["role"], row["epoch"],
                         row["applied_lsn"], row["lag"], row["alive"]))
        for tick, kind, detail in replica_set.events[-6:]:
            out.write("  [tick %d] %s: %s\n" % (tick, kind, detail))
    finally:
        replica_set.close()
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _cmd_serve(args, out):
    scenario = build_scenario("septic")
    host, port = scenario.server.serve_net(host=args.host, port=args.port)
    out.write("serving %s on %s:%d (wire protocol)\n"
              % (scenario.app.name, host, port))
    try:
        if args.smoke:
            from repro.net.client import NetClient

            with NetClient(host, port) as client:
                client.ping()
                handle = client.prepare(
                    "SELECT username FROM users WHERE id = ?"
                )
                outcome = client.execute(handle, 1)
                if outcome.error is not None:
                    out.write("smoke: FAILED: %s\n" % outcome.error)
                    return 1
                row = outcome.rows[0] if outcome.rows else ("<none>",)
                out.write("smoke: ping ok, prepared stmt %d -> %s\n"
                          % (handle.statement_id, row[0]))
            stats = scenario.server.net_server.stats_dict()
            out.write("smoke: served %d commands over %d connections\n"
                      % (stats["commands"], stats["accepted"]))
            return 0
        out.write("press Ctrl-C to stop\n")
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            out.write("\nstopping\n")
        return 0
    finally:
        scenario.server.stop_net()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SEPTIC reproduction (DSN 2017 demo paper)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="condensed five-phase demonstration")

    train = sub.add_parser("train", help="train SEPTIC over WaspMon")
    train.add_argument("--store", default="qm_store.json")
    train.add_argument("--passes", type=int, default=2)
    train.add_argument("--data-dir", default=None,
                       help="enable WAL durability: recover the database "
                            "from (and persist it to) this directory, "
                            "co-persisting the QM store")

    recover = sub.add_parser(
        "recover", help="recover a database from a data directory"
    )
    recover.add_argument("--data-dir", required=True)
    recover.add_argument("--verify", action="store_true",
                         help="dry run: report the WAL's commit-LSN "
                              "watermark and record counts without "
                              "mutating anything on disk")
    recover.add_argument("--pages", action="store_true",
                         help="with --verify: audit the paged-storage "
                              "home file too (per-page checksum + LSN "
                              "stats, doublewrite batch)")

    attack = sub.add_parser("attack", help="run the attack corpus")
    attack.add_argument("--protection", choices=PROTECTIONS,
                        default="septic")

    scan = sub.add_parser("scan", help="sqlmap-lite probe battery")
    scan.add_argument("--protection", choices=PROTECTIONS, default="none")

    bench = sub.add_parser("bench", help="quick overhead measurement")
    bench.add_argument("--apps", nargs="*",
                       choices=["addressbook", "refbase", "zerocms"])
    bench.add_argument("--loops", type=int, default=2)
    bench.add_argument("--repeats", type=int, default=1)

    sub.add_parser("status", help="status display after a short run")

    replicate = sub.add_parser(
        "replicate", help="replica-set demo: per-replica applied LSN, "
                          "lag and role"
    )
    replicate.add_argument("--status", action="store_true",
                           help="print per-replica status (the default "
                                "and only output)")
    replicate.add_argument("--failover", action="store_true",
                           help="also kill the primary and show the "
                                "lease-driven election")
    replicate.add_argument("--replicas", type=int, default=2)
    replicate.add_argument("--workdir", default=None,
                           help="keep the replica data dirs here "
                                "(default: a temp dir, removed on exit)")

    serve = sub.add_parser(
        "serve", help="serve the demo database over the wire protocol"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default: an ephemeral one, "
                            "printed at startup)")
    serve.add_argument("--smoke", action="store_true",
                       help="run a built-in client exercise (ping + "
                            "prepared statement) and exit")
    return parser


_COMMANDS = {
    "demo": _cmd_demo,
    "train": _cmd_train,
    "recover": _cmd_recover,
    "attack": _cmd_attack,
    "scan": _cmd_scan,
    "bench": _cmd_bench,
    "status": _cmd_status,
    "replicate": _cmd_replicate,
    "serve": _cmd_serve,
}


def main(argv=None, out=None):
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out or sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
