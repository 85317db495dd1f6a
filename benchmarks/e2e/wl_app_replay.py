"""``app_replay`` — the paper's traffic.

The SQL that WaspMon, PHP Address Book, refbase and ZeroCMS issue for
their recorded requests with seeded form values, sent as literal
``COM_QUERY`` text with the call-site comments PHP's runtime prefixes.
About 2 % of the statements are captured from
``repro.attacks.waspmon_attacks()``.  Varied literals miss the 512-entry
pipeline cache, so ``sqldb.charset``/``parser``/``validator`` and
``core.septic`` do most of the work; storage does little.

Statements are captured once per run, before the server exists, by
interposing a recording proxy on every ``PhpRuntime.connection`` of an
in-process twin — the way ``build_scenario`` interposes
``DatabaseFirewall``.  The twin runs the same trained SEPTIC in
PREVENTION, so every captured statement carries the verdict it must get
on the wire: a benign statement must come back OK/RESULTSET, an attack
statement must come back ERR with ``blocked``.  Requests whose
statements travel over WaspMon's GBK runtime are left out: one wire
connection has one charset.

The pool is replayed cyclically, and the applications' tables are
seeded with a handful of rows, so INSERTs need care: replayed at their
recorded share on every cycle they doubled the cost of an operation
within twenty seconds (the list pages scan what the INSERTs add), and a
faster program would have slowed itself down further.  So requests that
INSERT are captured at a tenth of their recorded share, and an INSERT
that executes is sent on the first cycle only — the warm-up is exactly
one cycle long.  The measured phase reads tables of fixed size; its
writes are the applications' UPDATEs and DELETEs.
"""

import random

NAME = "app_replay"

WINDOW = 16
CONNECTIONS = 2
#: statements captured per run; the pool is then replayed cyclically
POOL_STATEMENTS = 3000
ATTACK_SHARE = 0.02
INSERT_WEIGHT = 0.1
TAIL_OPS = 1000
#: operations per connection in one slice of the measured phase: a
#: third of a turn of a connection's pool, under half a second at the
#: seed commit
CYCLE_OPS = 500
TRAINING_PASSES = 2

_WRITE_KEYWORDS = ("INSERT", "UPDATE", "DELETE", "REPLACE")


def _app_classes():
    from repro.apps.addressbook import AddressBook
    from repro.apps.refbase import Refbase
    from repro.apps.waspmon import WaspMon
    from repro.apps.zerocms import ZeroCMS

    return (WaspMon, AddressBook, Refbase, ZeroCMS)


def _recorded_requests(app):
    """The application's recorded request series (BenchLab's trace for
    the three evaluation apps, the demo's benign series for WaspMon)."""
    if hasattr(app, "workload_requests"):
        return app.workload_requests()
    return app.benign_requests()


def build_apps(database, septic):
    """The four applications on one database (their table names do not
    collide), trained the way the demo trains: the recorded series plus
    the crawler's form samples, twice, in TRAINING; then PREVENTION."""
    from repro.core.septic import Mode
    from repro.core.training import SepticTrainer

    apps = [cls(database) for cls in _app_classes()]
    for _ in range(TRAINING_PASSES):
        for app in apps:
            for request in _recorded_requests(app):
                app.handle(request)
            for request in SepticTrainer(app, septic).crawl():
                app.handle(request)
    septic.mode = Mode.PREVENTION
    return apps


# -- server side --------------------------------------------------------------

def build_stack(config):
    from repro.core.septic import Mode, Septic
    from repro.sqldb.engine import Database

    septic = Septic(mode=Mode.TRAINING)
    # no checkpoint_interval: the driver checkpoints at slice boundaries
    database = Database.recover(
        config["data_dir"], septic=septic, wal_sync="batch",
        wal_batch_commits=10 ** 6,
    )
    build_apps(database, septic)
    return database, septic


def recover(data_dir):
    from repro.sqldb.engine import Database

    return Database.recover(data_dir)


# -- client side: capture -----------------------------------------------------

class _Recorder(object):
    """Stands where ``PhpRuntime.connection`` stood and notes every
    statement with the verdict the twin gave it."""

    def __init__(self, inner, sink):
        self._inner = inner
        self._sink = sink

    def query(self, sql):
        outcome = self._inner.query(sql)
        self._sink.append((sql, self._inner.charset, outcome))
        return outcome

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _mutate(value, rng):
    """A seeded form value of the same shape: digits stay digits and
    letters stay letters of the same case, everything else stays put —
    so a numeric field stays numeric and no value grows a quote."""
    chars = []
    for position, char in enumerate(value):
        if char.isdigit():
            chars.append(rng.choice("123456789" if position == 0
                                    else "0123456789"))
        elif char.isalpha() and char.isascii():
            pick = rng.choice("abcdefghijklmnopqrstuvwxyz")
            chars.append(pick.upper() if char.isupper() else pick)
        else:
            chars.append(char)
    return "".join(chars)


def _vary(request, rng):
    from repro.web.http import Request

    params = {
        name: (_mutate(value, rng) if rng.random() < 0.6 else value)
        for name, value in request.params.items()
    }
    return Request(request.method, request.path, params,
                   cookies=request.cookies, client=request.client)


def _keyword(sql):
    text = sql.lstrip()
    if text.startswith("/*"):
        text = text[text.find("*/") + 2:].lstrip()
    return text[:7].upper()


def _is_write(sql):
    return _keyword(sql).startswith(_WRITE_KEYWORDS)


def _is_insert(sql):
    return _keyword(sql).startswith("INSERT")


class Workload(object):
    """Generator + oracle for one run."""

    name = NAME

    def __init__(self, seed, scale, connections):
        self.seed = seed
        self.scale = scale
        self.connections = connections
        self.pool_size = max(200, int(POOL_STATEMENTS * min(1.0, scale * 4)))
        self.tail_ops = max(10, int(TAIL_OPS * min(1.0, scale * 4)))
        self.cycle_ops = max(100, int(CYCLE_OPS * min(1.0, scale * 4)))
        #: per connection: ``(is_write, sql, expect_blocked, once)``
        #: statements; *once* marks an INSERT that executes
        self.pools = [[] for _ in range(connections)]
        #: captured requests, each a list of ``(sql, blocked)``
        self.groups = []
        self.capture = {}
        self.false_positives = 0
        self.false_negatives = 0

    def server_config(self, data_dir):
        return {"workload": NAME, "data_dir": data_dir,
                "scale": self.scale, "seed": self.seed}

    def prepare(self):
        """Capture the statement pool on an in-process twin."""
        from repro.attacks.corpus import waspmon_attacks
        from repro.core.septic import Mode, Septic
        from repro.sqldb.engine import Database
        from repro.sqldb.errors import QueryBlocked
        from repro.web.app import PhpRuntime

        rng = random.Random(self.seed * 104729 + 11)
        septic = Septic(mode=Mode.TRAINING)
        database = Database(septic=septic)
        apps = build_apps(database, septic)
        sink = []
        for app in apps:
            for runtime in vars(app).values():
                if isinstance(runtime, PhpRuntime):
                    runtime.connection = _Recorder(runtime.connection,
                                                   sink)

        def play(app, requests):
            """Run *requests*; returns the captured statements as
            ``(sql, blocked)`` or ``None`` when the group is unusable
            (a statement erred, or travelled over a non-utf8 runtime)."""
            del sink[:]
            for item in requests:
                app.handle(item(app) if callable(item) else item)
            captured = []
            for sql, charset, outcome in sink:
                blocked = isinstance(outcome.error, QueryBlocked)
                if charset != "utf8" or (outcome.error is not None
                                         and not blocked):
                    return None
                captured.append((sql, blocked))
            return captured

        # which recorded requests issue SQL at all, how many statements,
        # and which of them INSERT
        bases = []
        for app in apps:
            for request in _recorded_requests(app):
                captured = play(app, [request])
                if captured:
                    inserts = any(_is_insert(sql) for sql, _ in captured)
                    bases.append((app, request,
                                  INSERT_WEIGHT if inserts else 1.0,
                                  len(captured)))
        waspmon = apps[0]
        attacks = []
        for case in waspmon_attacks():
            captured = play(waspmon, case.requests)
            if captured and any(blocked for _, blocked in captured):
                attacks.append((case, len(captured)))

        # the plan — how many copies of each request — is the same on
        # every seed; the seed only shuffles it and picks the form values
        per_round = sum(count for _, count in attacks)
        rounds = max(1, int(round(self.pool_size * ATTACK_SHARE
                                  / per_round))) if attacks else 0
        unit = (self.pool_size - rounds * per_round) / sum(
            weight * count for _, _, weight, count in bases)
        plan = [(case, None) for case, _ in attacks] * rounds
        for app, request, weight, _count in bases:
            plan.extend([(app, request)] * max(1, int(round(unit * weight))))
        rng.shuffle(plan)

        stats = {"benign_requests": 0, "attack_cases": 0,
                 "unvaried_requests": 0, "twin_false_positives": 0,
                 "attack_statements": 0, "blocked_statements": 0}
        groups = []
        for subject, request in plan:
            if request is None:
                captured = play(waspmon, subject.requests)
                if not captured or not any(b for _, b in captured):
                    continue  # the twin's state made this case moot
                stats["attack_cases"] += 1
                stats["attack_statements"] += len(captured)
                stats["blocked_statements"] += sum(
                    1 for _, blocked in captured if blocked)
            else:
                for _attempt in range(4):
                    captured = play(subject, [_vary(request, rng)])
                    if captured is None:
                        continue  # a varied value the handler rejects
                    if any(blocked for _, blocked in captured):
                        # a benign request the twin's SEPTIC dropped
                        stats["twin_false_positives"] += 1
                        continue
                    break
                else:
                    captured = play(subject, [request])
                    stats["unvaried_requests"] += 1
                    if not captured or any(b for _, b in captured):
                        continue
                stats["benign_requests"] += 1
            groups.append(captured)
        total = sum(len(group) for group in groups)
        stats["statements"] = total
        self.capture = stats
        self.groups = groups
        self._deal()

    def _deal(self):
        """A request's statements stay together, in order, on one
        connection; requests alternate between connections."""
        for index, group in enumerate(self.groups):
            self.pools[index % self.connections].extend(
                (_is_write(sql), sql, blocked,
                 not blocked and _is_insert(sql))
                for sql, blocked in group)
        #: one full cycle per connection before the clock starts
        self.warmup_ops = max(len(pool) for pool in self.pools)

    def fresh(self, connections):
        """A new run over the same captured pool (the in-process
        passes) — capturing again would only repeat the same seeded
        requests."""
        workload = Workload(self.seed, self.scale, connections)
        workload.groups = self.groups
        workload.capture = self.capture
        workload._deal()
        return workload

    def session(self, client, index):
        return _Session(self, client, index)

    def before_kill(self, client):
        """Every table's rows, read over the wire after the last ack."""
        tables = [row[0] for row in client.query_or_raise(
            "SHOW TABLES").rows]
        return {
            table: sorted(
                (list(row) for row in client.query_or_raise(
                    "SELECT * FROM %s" % table).rows), key=repr)
            for table in tables
        }

    def verify_recovered(self, database, before_kill):
        """Nothing was in flight at the kill, so the recovered database
        must hold exactly the rows the server last served."""
        from repro.sqldb.connection import Connection

        conn = Connection(database)
        checked = wrong = 0
        for table, expected in before_kill.items():
            outcome = conn.query("SELECT * FROM %s" % table)
            rows = sorted((list(row) for row in outcome.rows), key=repr) \
                if outcome.ok else []
            checked += max(len(expected), 1)
            if rows != expected:
                have = set(map(repr, rows))
                want = set(map(repr, expected))
                wrong += max(1, len(want ^ have))
        return checked, wrong


class _Session(object):
    def __init__(self, workload, client, index):
        self.workload = workload
        self.client = client
        self.pool = workload.pools[index]
        self.position = 0
        self.first_cycle = True
        #: the crash tail: only the pool's writes that execute
        self.writes_only = False

    def next_op(self):
        while True:
            op = self.pool[self.position]
            self.position += 1
            if self.position == len(self.pool):
                if self.first_cycle:
                    # from the second cycle on, INSERTs that execute
                    # are left out
                    self.pool = [op for op in self.pool if not op[3]]
                    self.first_cycle = False
                self.position = 0
            if not self.writes_only or (op[0] and not op[2]):
                return op

    def send(self, op):
        self.client.send_query(op[1])

    def roundtrip(self, op):
        return self.client.query(op[1])

    def check(self, op, outcome):
        error = outcome.error
        if op[2]:
            if error is not None and getattr(error, "blocked", False):
                return True
            self.workload.false_negatives += 1
            return False
        if error is None:
            return True
        if getattr(error, "blocked", False):
            self.workload.false_positives += 1
        return False
