"""NetLab — virtual-time model of the wire protocol's pipelining win.

The real socket benchmark (``benchmarks/bench_net_throughput.py``)
measures the pipelined front end against a one-query-per-round-trip
client on actual TCP.  This module models the *same* comparison in
virtual time on the BenchLab event heap, so the speedup's shape — why
pipelining approaches ``1 + rtt/service`` and where it saturates — is
reproducible deterministically on any machine, load-independent, in
milliseconds of real time.

Model: each client connection issues *commands_per_connection* commands
against a server that needs *service_ticks* of exclusive executor time
per command, across a link with *rtt_ticks* round-trip latency.

* **round-trip discipline** — a client sends one command, waits for its
  response, then sends the next.  Every command pays the full RTT.
* **pipelined discipline** — a client sends up to *window* commands
  before the first response arrives (bounded by the server's inbox,
  exactly like the real front end's backpressure).  The RTT is paid
  once per window, not once per command, and the server batches
  executor work.

Responses on one connection are delivered strictly in send order — the
per-connection FIFO the real server guarantees.  No wall clock is read
anywhere here (the lint gate in ``tests/test_lint.py`` enforces that):
time exists only as the Simulator's virtual ``now``.
"""

from repro.benchlab.simulation import FifoResource, Simulator


class NetLabResult(object):
    """Outcome of one discipline's run (virtual-time units)."""

    __slots__ = ("discipline", "connections", "commands", "makespan",
                 "server_busy_ticks", "round_trips")

    def __init__(self, discipline, connections, commands, makespan,
                 server_busy_ticks, round_trips):
        self.discipline = discipline
        self.connections = connections
        self.commands = commands
        self.makespan = makespan
        self.server_busy_ticks = server_busy_ticks
        self.round_trips = round_trips

    @property
    def throughput(self):
        """Commands per virtual tick."""
        if self.makespan <= 0:
            return 0.0
        return self.commands / self.makespan

    def as_dict(self):
        return {
            "discipline": self.discipline,
            "connections": self.connections,
            "commands": self.commands,
            "makespan": self.makespan,
            "throughput": self.throughput,
            "server_busy_ticks": self.server_busy_ticks,
            "round_trips": self.round_trips,
        }


def run_pipelined(connections=8, commands_per_connection=50,
                  rtt_ticks=10.0, service_ticks=1.0, window=16):
    """Pipelined discipline: a window of commands shares one round trip.

    Each connection ships ``min(window, remaining)`` commands in one
    burst; the single-executor server (a :class:`FifoResource`) runs the
    burst back-to-back — the real server's batched executor hop — and
    the responses ride home together, in order.  ``window=1`` *is* the
    round-trip discipline: every command pays the full RTT.
    """
    if window < 1:
        raise ValueError("window must be >= 1 (got %r)" % window)
    sim = Simulator()
    server = FifoResource()
    state = {"finish": 0.0, "round_trips": 0}

    def send(remaining):
        if remaining <= 0:
            state["finish"] = max(state["finish"], sim.now)
            return
        burst = min(window, remaining)
        state["round_trips"] += 1
        completed = server.serve(sim.now + rtt_ticks / 2.0,
                                 service_ticks * burst)
        respond_at = completed + rtt_ticks / 2.0
        sim.schedule(respond_at - sim.now, send, remaining - burst)

    for _conn in range(connections):
        sim.schedule(0.0, send, commands_per_connection)
    sim.run()
    return NetLabResult("round_trip" if window == 1 else "pipelined",
                        connections, connections * commands_per_connection,
                        state["finish"], server.busy, state["round_trips"])


def run_netlab_experiment(connections=8, commands_per_connection=50,
                          rtt_ticks=10.0, service_ticks=1.0, window=16):
    """Both disciplines under identical parameters; returns a dict with
    each result and the pipelining speedup (deterministic — two calls
    with equal arguments produce equal numbers)."""
    base = run_pipelined(connections, commands_per_connection,
                         rtt_ticks, service_ticks, window=1)
    piped = run_pipelined(connections, commands_per_connection,
                          rtt_ticks, service_ticks, window)
    speedup = (piped.throughput / base.throughput
               if base.throughput else 0.0)
    return {
        "round_trip": base.as_dict(),
        "pipelined": piped.as_dict(),
        "speedup": speedup,
    }
