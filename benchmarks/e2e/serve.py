"""The server child: one workload's stack behind a real ``NetServer``.

``python serve.py '<json config>'`` builds the stack the config names
(schema, data load, SEPTIC training) on the CPU the config names, starts
the socket front end and prints one JSON line ``{"event": "ready",
"port": N, "probe": …}`` — the probe reading says how fast that CPU ran
during the set-up (``common.SpeedProbe``).  From then on it
answers one-word commands on stdin, each with one JSON line on stdout:

``mark``
    a counter snapshot: ``process_time`` (user+sys CPU of this whole
    process, less the speed probe's), ``septic_seconds_total``, the
    probe's reading and
    every public stats dict.  The parent takes one per slice boundary,
    so CPU per operation and SEPTIC's share are measured over exactly
    the operations it counted;
``checkpoint``
    ``Database.checkpoint()`` now — the parent asks for one at the end
    of every slice, with no statement in flight, so recovery redoes a
    WAL tail of known length;
``stop``
    a last snapshot, then a clean shutdown.

The crash path has no command: the parent sends ``SIGKILL``.

Checkpoints are counted and timed here by wrapping the database's
public ``checkpoint`` method on the instance — the engine has no
checkpoint counter of its own.
"""

import importlib
import json
import os
import resource
import sys
import time

from common import SpeedProbe, add_src_to_path, pin_to_cpu


class CheckpointLog(object):
    """Wraps ``database.checkpoint`` to record, per checkpoint written:
    its duration and the cumulative log/page/image byte counters at that
    instant."""

    def __init__(self, database):
        self.database = database
        self.records = []
        self.image_bytes = 0
        self._inner = database.checkpoint
        database.checkpoint = self

    def __call__(self):
        start = time.perf_counter()
        lsn = self._inner()
        elapsed = time.perf_counter() - start
        if lsn is not None:
            database = self.database
            image = os.path.join(database.data_dir, "checkpoint.json")
            if os.path.exists(image):
                self.image_bytes += os.path.getsize(image)
            record = write_counters(database)
            record["seconds"] = elapsed
            record["image_bytes"] = self.image_bytes
            self.records.append(record)
        return lsn


def write_counters(database):
    """Cumulative bytes this database pushed toward its data directory,
    from the public WAL and pager counters."""
    wal = database.wal.stats_dict() if database.wal is not None else {}
    storage = database.storage_stats()
    page_bytes = 0
    if storage is not None:
        page_bytes = storage["pager"]["writes"] * storage["pager"]["page_size"]
    return {
        "wal_bytes": wal.get("bytes_written", 0),
        "commits": wal.get("commits", 0),
        "page_bytes": page_bytes,
    }


def snapshot(database, septic, server, checkpoints, probe):
    """Everything a mark reports (all cumulative)."""
    out = write_counters(database)
    out["probe"] = probe.read()
    # the probe's own CPU is not the stack's
    out["cpu_s"] = time.process_time() - out["probe"][1]
    out["septic_s"] = database.septic_seconds_total
    out["cache"] = (database.pipeline_cache.stats_dict()
                    if database.pipeline_cache is not None else None)
    out["locks_contended"] = database.lock_manager.stats()["contended"]
    out["storage"] = database.storage_stats()
    out["septic"] = septic.stats.as_dict() if septic is not None else None
    out["models"] = len(septic.store) if septic is not None else 0
    out["net"] = server.stats_dict() if server is not None else None
    out["checkpoints"] = list(checkpoints.records)
    out["image_bytes"] = checkpoints.image_bytes
    out["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def reply(payload):
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv):
    config = json.loads(argv[1])
    pin_to_cpu(config["cpu"])
    # before the imports: they are most of a small stack's set-up time
    probe = SpeedProbe()
    probe.start()
    add_src_to_path()
    from repro.net.server import NetServer

    module = importlib.import_module("wl_" + config["workload"])
    database, septic = module.build_stack(config)
    checkpoints = CheckpointLog(database)
    server = NetServer(database)
    server.start()
    reply({"event": "ready", "port": server.port, "probe": probe.read()})
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                reply(snapshot(database, septic, server, checkpoints, probe))
            elif command == "checkpoint":
                reply({"lsn": database.checkpoint()})
            elif command == "stop":
                reply(snapshot(database, septic, server, checkpoints, probe))
                break
            elif command:
                reply({"error": "unknown command %r" % command})
    finally:
        server.stop()
        database.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
