"""``scan_paged`` — a working set larger than the program's own cache.

``Database.recover(storage="paged")`` with an ``orders`` table about ten
times the buffer pool and a small ``customers`` table, queried over the
wire at window 2 with about ten repeated texts: a GROUP BY aggregate, a
hash join, ORDER BY … LIMIT TopK, indexed ranges of three widths and a
few point reads.  The texts repeat, so the pipeline cache hits and plans
are reused: ``sqldb.plan`` operators, ``sqldb.pager``/``btree`` page
decode and eviction, and large-frame result encoding in ``net.protocol``
dominate — the same ``net`` layer as the other wire workloads, used as
few big frames instead of many small ones.

Expected rows are computed at set-up on an in-memory twin loaded with
the same seeded rows.

Two departures from the issue's sketch, both recorded in the README:

* the tables are a sixth of the sketched size (1,000 orders, 100
  customers, an 8-page pool).  At the seed commit a 6,000-row scan costs
  100–500 ms, which leaves a run with fewer than a hundred operations;
  the ratio of working set to pool is kept at about ten;
* three operations in every 26 append a row to an ``audit`` table that
  no read touches, each right after one GROUP BY.  The benchmark contract wants every end-to-end metric
  on every workload, and a read-only workload has no write latency and
  no bytes written; the trickle also gives the pager's dirty-page,
  spill and doublewrite paths the only traffic they get in any workload.
"""

import random
import sys

NAME = "scan_paged"

WINDOW = 2
CONNECTIONS = 1
ORDERS = 1000
CUSTOMERS = 100
PAGE_SIZE = 4096
POOL_PAGES = 8
#: the read text every audit INSERT follows (the GROUP BY over
#: ``orders``, three to a deck of 23 reads)
WRITE_AFTER = 0
TAIL_OPS = 300
#: decks per slice of the measured phase (under half a second at the
#: seed commit)
CYCLE_DECKS = 1
PLACED_SPAN = 100000

REGIONS = ("north", "south", "east", "west", "centre")
STATUSES = ("new", "paid", "sent", "done")

SCHEMA = (
    "CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR(40), "
    "region VARCHAR(12), tier INT)",
    "CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, "
    "status VARCHAR(10), amount INT, placed INT, note VARCHAR(120))",
    "CREATE INDEX idx_orders_placed ON orders (placed)",
    "CREATE TABLE audit (id INT PRIMARY KEY, order_id INT, "
    "action VARCHAR(16))",
)

AUDIT_SQL = "INSERT INTO audit (id, order_id, action) VALUES (%d, %d, 'viewed')"


def sizes(scale):
    return (max(60, int(ORDERS * scale)), max(10, int(CUSTOMERS * scale)))


def load_statements(scale):
    """The INSERTs both the server and the twin load.  The rows do not
    depend on the run's seed: on this storage the cost of an index range
    swings fourfold with where the range falls and how its rows lie on
    the pages, and a benchmark whose cost per operation doubles from
    one seed to the next cannot show a 10 % regression.  The seed
    orders the operations and fills in the audit rows."""
    orders, customers = sizes(scale)
    rng = random.Random(31337)
    statements = []
    for start in range(0, customers, 200):
        statements.append(
            "INSERT INTO customers (id, name, region, tier) VALUES "
            + ", ".join(
                "(%d, 'customer %04d', '%s', %d)"
                % (cid, cid, rng.choice(REGIONS), rng.randrange(4))
                for cid in range(start, min(customers, start + 200))))
    for start in range(0, orders, 200):
        statements.append(
            "INSERT INTO orders (id, customer_id, status, amount, placed, "
            "note) VALUES " + ", ".join(
                "(%d, %d, '%s', %d, %d, '%s')"
                % (oid, rng.randrange(customers), rng.choice(STATUSES),
                   rng.randrange(1, 5000), rng.randrange(PLACED_SPAN),
                   "n" * rng.randrange(40, 110))
                for oid in range(start, min(orders, start + 200))))
    return statements


def read_texts(scale):
    """``[(weight, ordered, sql)]`` — the repeated read texts (the same
    on every seed, like the rows).  *ordered* says the statement's
    ORDER BY fixes the row order completely."""
    orders, customers = sizes(scale)
    rng = random.Random(4099)

    def placed_range(share):
        low = rng.randrange(int(PLACED_SPAN * (1 - share)))
        return ("SELECT id, amount, placed FROM orders WHERE placed >= %d "
                "AND placed < %d" % (low, low + int(PLACED_SPAN * share)))

    return [
        (3, False, "SELECT status, COUNT(*), SUM(amount) FROM orders "
                   "GROUP BY status"),
        (3, False, "SELECT c.region, COUNT(*), SUM(o.amount) FROM orders o "
                   "JOIN customers c ON o.customer_id = c.id "
                   "GROUP BY c.region"),
        (3, True, "SELECT id, amount FROM orders ORDER BY amount DESC, id "
                  "LIMIT 20"),
        (2, True, "SELECT id, customer_id, amount FROM orders "
                  "WHERE status = 'paid' ORDER BY placed DESC, id LIMIT 50"),
        (3, False, placed_range(0.03)),
        (2, False, placed_range(0.10)),
        (1, False, placed_range(0.30)),
        (2, False, "SELECT id, status, amount, note FROM orders "
                   "WHERE id = %d" % rng.randrange(orders)),
        (2, False, "SELECT id, status, amount, note FROM orders "
                   "WHERE id = %d" % rng.randrange(orders)),
        (2, False, "SELECT name, region, tier FROM customers "
                   "WHERE id = %d" % rng.randrange(customers)),
    ]


# -- server side --------------------------------------------------------------

def _open(data_dir, septic=None):
    from repro.sqldb.engine import Database

    # no checkpoint_interval: the driver checkpoints at slice boundaries
    return Database.recover(
        data_dir, septic=septic, wal_sync="batch",
        wal_batch_commits=10 ** 6,
        storage="paged", page_size=PAGE_SIZE, pool_pages=POOL_PAGES,
    )


def build_stack(config):
    from repro.core.septic import Mode, Septic
    from repro.sqldb.connection import Connection

    septic = Septic(mode=Mode.TRAINING)
    database = _open(config["data_dir"], septic=septic)
    conn = Connection(database)
    for statement in SCHEMA:
        conn.query_or_raise(statement)
    for statement in load_statements(config["scale"]):
        conn.query_or_raise(statement)
    # training: every text the run will send, once
    for _weight, _ordered, sql in read_texts(config["scale"]):
        conn.query_or_raise(sql)
    conn.query_or_raise(AUDIT_SQL % (-1, 0))
    septic.mode = Mode.PREVENTION
    # home every page, so the run starts from a checkpointed store
    database.checkpoint()
    return database, septic


def recover(data_dir):
    return _open(data_dir)


# -- client side --------------------------------------------------------------

class Workload(object):
    name = NAME

    def __init__(self, seed, scale, connections):
        self.seed = seed
        self.scale = scale
        self.connections = connections
        shrink = min(1.0, scale * 4)
        self.tail_ops = max(6, int(TAIL_OPS * shrink))
        #: ``(sql, ordered, expected rows)`` per read text
        self.reads = []
        self.weights = []
        #: audit ids acked per connection (the crash check wants them all)
        self.audit_ids = [[] for _ in range(connections)]

    def server_config(self, data_dir):
        return {"workload": NAME, "data_dir": data_dir,
                "scale": self.scale, "seed": self.seed}

    def prepare(self):
        """Expected rows from an in-memory twin of the same data."""
        from repro.sqldb.connection import Connection
        from repro.sqldb.engine import Database

        twin = Connection(Database())
        for statement in SCHEMA:
            twin.query_or_raise(statement)
        for statement in load_statements(self.scale):
            twin.query_or_raise(statement)
        for weight, ordered, sql in read_texts(self.scale):
            rows = [tuple(row) for row in twin.query_or_raise(sql).rows]
            if not ordered:
                rows.sort(key=repr)
            self.reads.append((sql, ordered, rows))
            self.weights.append(weight)
        self._size_slices()

    def _size_slices(self):
        deck = sum(self.weights) + self.weights[WRITE_AFTER]
        self.warmup_ops = deck
        self.cycle_ops = deck * max(1, int(CYCLE_DECKS
                                           * min(1.0, self.scale * 4)))

    def fresh(self, connections):
        """A new run against the same expected rows (the in-process
        passes)."""
        workload = Workload(self.seed, self.scale, connections)
        workload.reads = self.reads
        workload.weights = self.weights
        workload._size_slices()
        return workload

    def session(self, client, index):
        return _Session(self, client, index)

    def before_kill(self, client):
        return None

    def verify_recovered(self, database, _before_kill):
        """The recovered store must hold every acked audit row and still
        answer every read text with the twin's rows."""
        from repro.sqldb.connection import Connection

        conn = Connection(database)
        acked = set()
        for ids in self.audit_ids:
            acked.update(ids)
        have = {row[0] for row in conn.query_or_raise(
            "SELECT id FROM audit WHERE id >= 0").rows}
        wrong = len(acked ^ have)
        if wrong:
            sys.stderr.write(
                "audit rows acked but not recovered: %s; recovered but "
                "never acked: %s\n" % (sorted(acked - have)[:10],
                                       sorted(have - acked)[:10]))
        for sql, ordered, expected in self.reads:
            rows = [tuple(row) for row in conn.query_or_raise(sql).rows]
            if not ordered:
                rows.sort(key=repr)
            if rows != expected:
                wrong += 1
                sys.stderr.write("after recovery %d rows, not the twin's "
                                 "%d, for: %s\n" % (len(rows),
                                                     len(expected), sql))
        return len(acked) + len(self.reads), wrong


class _Session(object):
    def __init__(self, workload, client, index):
        self.client = client
        self.rng = random.Random(workload.seed * 6151 + index)
        #: every read text as often as its weight says; reshuffled each
        #: time the deck runs out, so the mix is exact and only the order
        #: is random.  An audit INSERT (``None``) follows each copy of
        #: one read text: at window 2 a statement waits for the one
        #: before it, and an INSERT dealt in anywhere read 1 ms or
        #: 100 ms by what it happened to follow
        self.cards = [read for read, weight in zip(workload.reads,
                                                   workload.weights)
                      for _ in range(weight)]
        self.write_after = workload.reads[WRITE_AFTER]
        self.deck = []
        self.acked = workload.audit_ids[index]
        self.next_audit = index
        self.stride = workload.connections
        #: the crash tail: audit INSERTs only
        self.writes_only = False

    def next_op(self):
        """``(is_write, sql, ordered, expected, audit id)``"""
        if not self.deck:
            reads = list(self.cards)
            self.rng.shuffle(reads)
            for read in reads:
                if read is self.write_after:
                    self.deck.append(None)  # popped after the read
                self.deck.append(read)
        card = self.deck.pop()
        if card is None or self.writes_only:
            audit_id = self.next_audit
            self.next_audit += self.stride
            sql = AUDIT_SQL % (audit_id, self.rng.randrange(ORDERS))
            return (True, sql, False, 1, audit_id)
        sql, ordered, expected = card
        return (False, sql, ordered, expected, None)

    def send(self, op):
        self.client.send_query(op[1])

    def roundtrip(self, op):
        return self.client.query(op[1])

    def check(self, op, outcome):
        if outcome.error is not None:
            return False
        if op[0]:
            if outcome.affected_rows != op[3]:
                return False
            self.acked.append(op[4])
            return True
        rows = outcome.rows
        if not op[2]:
            rows = sorted(rows, key=repr)
        return rows == op[3]
