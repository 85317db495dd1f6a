"""SEPTIC's hook, per path: CPU time per call, by what the call decides.

Every ``Database`` → ``Septic.process_query`` call of the timed
statements is wrapped in ``time.thread_time_ns`` (CPU time of the
calling thread: a wait on the interpreter lock is not charged), and the
median per path is reported.  The five paths:

* **warm hit** — a point read whose shape holds a benign verdict, a new
  literal every call (shape hit);
* **warm hit, string slots** — an UPDATE of a warm shape with a new
  benign string: the verdict holds and the stored-injection plugins'
  step 1 sees this call's string;
* **hit after scan** — the warm hit, each call right after a 1,000-row
  scan has run through the same engine (the hook meets cold caches);
* **stored on warm shape** — the warm UPDATE shape carrying a stored-XSS
  payload, dropped in PREVENTION;
* **stored, full run** — the same payloads through a second UPDATE
  shape that was trained but never ran benign in PREVENTION, so it
  holds no verdict and every payload takes the full run;
* **sqli full run** — a tautology appended to the warm read: a shape of
  its own, which never keeps a verdict, dropped by the comparison.

The paths are sampled round-robin, one call each per round, so a
change in the host's speed lands on all of them alike.  Only orderings
are asserted, never absolute times: a hit costs less than a full run,
and a stored payload on a warm shape is decided by the check that
caught it, so it costs less than the same payload's full run (before
that, the check's plugin run came on top of the full run).
Compare two commits by running this file in both within the same
minute (the host's clock speed drifts).
"""

import statistics
import time

from repro.core.logger import SepticLogger
from repro.core.septic import Mode, Septic
from repro.sqldb.connection import Connection
from repro.sqldb.engine import Database
from repro.sqldb.errors import QueryBlocked

SCHEMA = (
    "CREATE TABLE notes (id INT PRIMARY KEY, owner VARCHAR(20), "
    "body VARCHAR(200));"
    "CREATE TABLE big (id INT PRIMARY KEY, label VARCHAR(40), n INT);"
)
READ = "/* septic:hook:read */ SELECT owner, body FROM notes WHERE id = %d"
WRITE = ("/* septic:hook:write */ UPDATE notes SET body = '%s' "
         "WHERE id = %d")
COLD_WRITE = WRITE.replace("hook:write", "hook:cold-write")
SCAN = "SELECT id, label, n FROM big WHERE n >= 0"
SCAN_ROWS = 1000
NOTES = 50
SAMPLES = 400

PATHS = ("warm hit", "warm hit, string slots", "hit after scan",
         "stored on warm shape", "stored, full run", "sqli full run")


class _TimedHook(object):
    """Stands where the database's SEPTIC stood; times the calls made
    while ``armed``."""

    def __init__(self, septic):
        self.septic = septic
        self.armed = False
        self.samples = []

    def process_query(self, context):
        start = time.thread_time_ns()
        try:
            self.septic.process_query(context)
        finally:
            if self.armed:
                self.samples.append(time.thread_time_ns() - start)

    def __getattr__(self, name):
        return getattr(self.septic, name)


def _stack():
    septic = Septic(mode=Mode.TRAINING, logger=SepticLogger(verbose=False))
    database = Database(septic=septic)
    database.seed(SCHEMA)
    conn = Connection(database)
    conn.query_or_raise("INSERT INTO notes VALUES " + ", ".join(
        "(%d, 'owner%d', 'note %d')" % (key, key, key)
        for key in range(NOTES)))
    for start in range(0, SCAN_ROWS, 250):
        conn.query_or_raise("INSERT INTO big VALUES " + ", ".join(
            "(%d, 'label-%06d', %d)" % (key, key, key % 97)
            for key in range(start, start + 250)))
    for sql in (READ % 1, WRITE % ("first note", 1),
                COLD_WRITE % ("first note", 1), SCAN):
        conn.query_or_raise(sql)
    septic.mode = Mode.PREVENTION
    for sql in (READ % 2, WRITE % ("second note", 2)):
        conn.query_or_raise(sql)        # the shapes' verdicts
    timed = _TimedHook(septic)
    database.septic = timed
    return septic, timed, conn


def _hook_costs(samples=SAMPLES):
    """``{path: median hook µs per call}`` and the SEPTIC stats after."""
    septic, timed, conn = _stack()
    numbers = iter(range(10 ** 6, 10 ** 9))

    def warm_hit():
        return READ % (next(numbers) % NOTES), True

    def string_slots():
        number = next(numbers)
        return WRITE % ("plain note %d" % number, number % NOTES), True

    def stored(template=WRITE):
        number = next(numbers)
        return template % ("<script>alert(%d)</script>" % number,
                           number % NOTES), False

    def stored_full_run():
        return stored(COLD_WRITE)

    def sqli():
        return READ % (next(numbers) % NOTES) + " OR 1 = 1", False

    def after_scan():
        assert len(conn.query_or_raise(SCAN).rows) == SCAN_ROWS
        return warm_hit()

    makers = dict(zip(PATHS, (warm_hit, string_slots, after_scan, stored,
                              stored_full_run, sqli)))
    samples_of = {path: [] for path in PATHS}
    # round-robin, one call per path per round: the medians compared
    # come from the same seconds, whatever the host does meanwhile
    for _ in range(samples):
        for path in PATHS:
            sql, passes = makers[path]()
            del timed.samples[:]
            timed.armed = True
            outcome = conn.query(sql)
            timed.armed = False
            if passes:
                assert outcome.ok, (sql, outcome.error)
            else:
                assert isinstance(outcome.error, QueryBlocked), sql
            assert len(timed.samples) == 1
            samples_of[path].append(timed.samples[0])
    costs = {path: statistics.median(samples_of[path]) / 1000.0
             for path in PATHS}
    return costs, septic.stats.as_dict()


def test_septic_hook(report):
    costs, stats = _hook_costs()
    assert stats["stored_detected"] == 2 * SAMPLES
    assert stats["sqli_detected"] == SAMPLES
    assert stats["queries_dropped"] == 3 * SAMPLES
    report.line("SEPTIC hook — median thread CPU per call, by path "
                "(%d calls each, PREVENTION, YY)" % SAMPLES)
    report.line()
    report.table(["path", "us per call"],
                 [[path, "%.2f" % costs[path]] for path in PATHS],
                 widths=[26, 12])
    for path in PATHS:
        report.metric("hook_" + path.replace(",", "").replace(" ", "_"),
                      round(costs[path], 3), "us", kind="measured")
    # a hit costs less than a full run ...
    assert costs["warm hit"] < costs["sqli full run"]
    assert costs["warm hit, string slots"] < costs["sqli full run"]
    # ... and a stored payload on a warm shape is decided without one
    assert costs["stored on warm shape"] < costs["stored, full run"]
