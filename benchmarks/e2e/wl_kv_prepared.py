"""``kv_prepared`` — the cache-hit hot path, writes beside reads.

One keyed table driven through server-side prepared statements
(``prepare_cached`` + ``send_execute``) at window 16: 50 % point SELECT,
25 % UPDATE, 15 % INSERT, 10 % DELETE (dealt from a shuffled deck, so
the mix is exact on every seed).  The parser does next to nothing
here; ``net.*``, the pipeline cache, index lookup, MVCC chains, the WAL
and the group committer do the work, and the separate read and write
latencies expose a gain for one that costs the other.

Each connection owns a disjoint key set, so a client-side model predicts
every row: responses come back in command order per connection, and no
other connection touches the keys.  The same model is what the crash
check compares the recovered table against.

The table holds 2,000 rows, not the 20,000 the issue sketched: at the
seed commit a keyed UPDATE/DELETE plans as ``SeqScan + Filter`` (about
4.7 µs per stored row, ~94 ms at 20 k rows), which would leave a run
with a few hundred operations.  The README records this as a finding.
"""

import bisect
import random

from common import zipf_cdf

NAME = "kv_prepared"

WINDOW = 16
CONNECTIONS = 2
ROWS = 2000
#: operations replayed after the last checkpoint and before SIGKILL,
#: per connection: the WAL tail recovery has to redo is the same length
#: on every run
TAIL_OPS = 50
#: operations per connection in one slice of the measured phase (two
#: decks, a third of a second at the seed commit) and before the clock
#: starts
CYCLE_OPS = 40
WARMUP_OPS = 100
#: one shuffled deck of these per 20 operations: the mix is exact, only
#: the order and the keys are random
DECK = (0,) * 10 + (1,) * 5 + (2,) * 3 + (3,) * 2
ZIPF_S = 0.99

SQL_SELECT = "SELECT v, n FROM kv WHERE k = ?"
SQL_UPDATE = "UPDATE kv SET v = ?, n = ? WHERE k = ?"
SQL_INSERT = "INSERT INTO kv (k, v, n) VALUES (?, ?, ?)"
SQL_DELETE = "DELETE FROM kv WHERE k = ?"
STATEMENTS = (SQL_SELECT, SQL_UPDATE, SQL_INSERT, SQL_DELETE)
SELECT, UPDATE, INSERT, DELETE = range(4)


def initial_row(key):
    return ("val-%06d" % key, key % 997)


def row_count(scale):
    return max(64, int(ROWS * scale))


# -- server side --------------------------------------------------------------

def build_stack(config):
    """Schema + load + SEPTIC training; returns ``(database, septic)``."""
    from repro.core.septic import Mode, Septic
    from repro.sqldb.connection import Connection
    from repro.sqldb.engine import Database

    septic = Septic(mode=Mode.TRAINING)
    # no checkpoint_interval: the driver checkpoints at slice boundaries
    database = Database.recover(
        config["data_dir"], septic=septic, wal_sync="batch",
        wal_batch_commits=10 ** 6,
    )
    conn = Connection(database)
    conn.query_or_raise(
        "CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(32), n INT)")
    rows = row_count(config["scale"])
    for start in range(0, rows, 250):
        conn.query_or_raise(
            "INSERT INTO kv (k, v, n) VALUES " + ", ".join(
                "(%d, '%s', %d)" % ((key,) + initial_row(key))
                for key in range(start, min(rows, start + 250))))
    # training: each statement shape once, on a key outside every
    # connection's set, through the same prepared path the wire uses
    for sql, params in ((SQL_INSERT, (-1, "train", 0)),
                        (SQL_SELECT, (-1,)),
                        (SQL_UPDATE, ("trained", 1, -1)),
                        (SQL_DELETE, (-1,))):
        outcome = conn.execute_prepared(conn.prepare(sql), *params)
        if not outcome.ok:
            raise outcome.error
    septic.mode = Mode.PREVENTION
    return database, septic


def recover(data_dir):
    """What a restart of this stack does with a crashed data directory."""
    from repro.sqldb.engine import Database

    return Database.recover(data_dir)


# -- client side --------------------------------------------------------------

class Workload(object):
    """Generator + oracle for one run."""

    name = NAME

    def __init__(self, seed, scale, connections):
        self.seed = seed
        self.scale = scale
        self.connections = connections
        self.rows = row_count(scale)
        #: per-connection models: key -> (v, n) for every live row
        self.models = [dict() for _ in range(connections)]
        shrink = min(1.0, scale * 4)
        self.tail_ops = max(10, int(TAIL_OPS * shrink))
        self.cycle_ops = max(len(DECK), int(CYCLE_OPS * shrink))
        self.warmup_ops = max(len(DECK), int(WARMUP_OPS * shrink))

    def server_config(self, data_dir):
        return {"workload": NAME, "data_dir": data_dir,
                "scale": self.scale, "seed": self.seed}

    def prepare(self):
        """Nothing to capture: the model starts as the loaded table."""
        for key in range(self.rows):
            self.models[key % self.connections][key] = initial_row(key)

    def fresh(self, connections):
        """A new run of the same workload (the in-process passes)."""
        workload = Workload(self.seed, self.scale, connections)
        workload.prepare()
        return workload

    def session(self, client, index):
        return _Session(self, client, index)

    def before_kill(self, client):
        return None  # the models already say what must survive

    def verify_recovered(self, database, _before_kill):
        """Every acked write must be in the recovered table: compares
        it row by row with the merged models.  Returns
        ``(rows_checked, rows_wrong)``."""
        from repro.sqldb.connection import Connection

        outcome = Connection(database).query_or_raise(
            "SELECT k, v, n FROM kv")
        recovered = {row[0]: (row[1], row[2]) for row in outcome.rows}
        expected = {}
        for model in self.models:
            expected.update(model)
        wrong = sum(1 for key, value in expected.items()
                    if recovered.get(key) != value)
        wrong += sum(1 for key in recovered if key not in expected)
        return len(expected), wrong


class _Session(object):
    """One connection's operation stream, sender and checker."""

    def __init__(self, workload, client, index):
        self.client = client
        self.model = workload.models[index]
        self.rng = random.Random(workload.seed * 7919 + index)
        self.handles = [client.prepare_cached(sql) for sql in STATEMENTS]
        own = [key for key in range(workload.rows)
               if key % workload.connections == index]
        # rank -> key through a seeded shuffle, so hot keys are spread
        # over the table instead of clustered at its start
        self.rng.shuffle(own)
        self.keys = own
        self.cdf = zipf_cdf(len(own), ZIPF_S)
        self.next_insert = workload.rows + index
        self.stride = workload.connections
        #: keys this connection inserted and has not deleted, oldest first
        self.inserted = []
        self.inserted_head = 0
        self.counter = 0
        self.deck = []
        #: the crash tail: every operation a write
        self.writes_only = False

    def _zipf_key(self):
        rank = bisect.bisect_left(self.cdf, self.rng.random())
        return self.keys[min(rank, len(self.keys) - 1)]

    def next_op(self):
        """``(is_write, kind, params, expected)``; the model is advanced
        here, in send order, which is the order the server executes."""
        self.counter += 1
        if not self.deck:
            self.deck = list(DECK)
            self.rng.shuffle(self.deck)
        kind = self.deck.pop()
        model = self.model
        if kind == SELECT and self.writes_only:
            kind = UPDATE
        if kind == DELETE and self.inserted_head >= len(self.inserted):
            kind = INSERT  # nothing of ours to delete yet
        if kind == SELECT:
            live = len(self.inserted) - self.inserted_head
            if live and self.rng.random() < 0.10:
                key = self.inserted[self.rng.randrange(
                    self.inserted_head, len(self.inserted))]
            else:
                key = self._zipf_key()
            row = model.get(key)
            return (False, SELECT, (key,), [row] if row else [])
        if kind == UPDATE:
            key = self._zipf_key()
            value = ("upd-%d" % self.counter, self.counter)
            model[key] = value
            return (True, UPDATE, value + (key,), 1)
        if kind == INSERT:
            key = self.next_insert
            self.next_insert += self.stride
            value = ("ins-%d" % self.counter, self.counter % 1009)
            model[key] = value
            self.inserted.append(key)
            return (True, INSERT, (key,) + value, 1)
        key = self.inserted[self.inserted_head]
        self.inserted_head += 1
        del model[key]
        return (True, DELETE, (key,), 1)

    def send(self, op):
        self.client.send_execute(self.handles[op[1]], op[2])

    def roundtrip(self, op):
        return self.client.execute(self.handles[op[1]], op[2])

    @staticmethod
    def check(op, outcome):
        if outcome.error is not None:
            return False
        if op[1] == SELECT:
            return outcome.rows == op[3]
        return outcome.affected_rows == op[3]
