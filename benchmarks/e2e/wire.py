"""The wire side of the load generator: the server child's handle and
the closed-loop driver.

Load model: closed loop.  The callers are web-application workers that
each wait for a reply, so every connection keeps a sliding window of
commands in flight (send one, ``drain(1)``) on its own thread.  The
window keeps both processes runnable: at depth 1 on this two-vCPU host
the median of one identical SELECT swung 0.57 → 8.2 ms across five
back-to-back runs, which is hypervisor wake-up latency, not the program.
"""

import collections
import json
import os
import signal
import subprocess
import sys
import threading
import time

from common import HERE, speed_between


class ServerProcess(object):
    """``serve.py`` as a child process."""

    def __init__(self, config):
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py"),
             json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=HERE,
            text=True,
        )
        ready = self._read()
        #: spawn → listening: interpreter start, imports, stack build,
        #: schema, data load, SEPTIC training, server start — at the
        #: reference speed, by the child's own probe over those seconds
        self.setup_seconds = ((time.perf_counter() - self.started)
                              * speed_between((0, 0.0), ready["probe"]))
        self.port = ready["port"]

    def _read(self):
        line = self.process.stdout.readline()
        if not line:
            code = self.process.wait()
            raise RuntimeError("server child exited early (code %s)" % code)
        return json.loads(line)

    def command(self, word):
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()
        return self._read()

    def kill(self):
        """The crash: SIGKILL, no goodbye, then reap."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=30)
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:
                pass  # the flush of a dead pipe


class PhaseResult(object):
    """What the connection threads recorded in one driven phase."""

    def __init__(self, connections):
        #: per thread: ``(completed_at, latency_seconds)`` pairs
        self.reads = [[] for _ in range(connections)]
        self.writes = [[] for _ in range(connections)]
        #: per thread: operations answered so far (the main thread sums
        #: these at slice boundaries; a few operations of skew between
        #: threads is noise against thousands per slice)
        self.done = [0] * connections
        self.failed = [0] * connections
        #: the first few oracle failures, for the operator to read
        self.samples = []
        self.errors = []
        #: set by the main thread at the last slice boundary
        self.stop = False

    @property
    def attempted(self):
        return sum(self.done)


def _note_failure(result, index, op, outcome):
    result.failed[index] += 1
    if len(result.samples) < 5:
        result.samples.append(
            "conn %d: %r -> %s" % (
                index, op[:3],
                outcome.error if outcome.error is not None
                else "%d rows, %d affected" % (len(outcome.rows),
                                               outcome.affected_rows)))


def _drive(session, window, max_ops, cycle_ops, result, index, barrier):
    """One connection's closed loop: keep *window* commands in flight.
    With *max_ops*, send that many and drain.  With *cycle_ops*, send
    that many, drain, meet the main thread at the barrier — it takes its
    mark and checkpoint with no statement in flight — and repeat until
    it says stop."""
    client = session.client
    inflight = collections.deque()
    reads = result.reads[index]
    writes = result.writes[index]
    clock = time.perf_counter

    def answer():
        outcome = client.drain(1)[0]
        done_at = clock()
        op, sent_at = inflight.popleft()
        (writes if op[0] else reads).append((done_at, done_at - sent_at))
        if not session.check(op, outcome):
            _note_failure(result, index, op, outcome)
        result.done[index] += 1

    try:
        while True:
            for _turn in range(max_ops if cycle_ops is None else cycle_ops):
                op = session.next_op()
                now = clock()
                session.send(op)
                inflight.append((op, now))
                if len(inflight) >= window:
                    answer()
            while inflight:
                answer()
            if cycle_ops is None:
                break
            barrier.wait()  # quiescent: the main thread marks
            barrier.wait()  # released
            if result.stop:
                break
    except Exception as exc:  # surfaced by run_phase after the join
        result.errors.append(exc)
        # whatever was in flight never got a checked answer
        result.failed[index] += len(inflight)
        result.done[index] += len(inflight)
        barrier.abort()


def run_phase(sessions, window, max_ops=None, cycle_ops=None, seconds=None,
              on_mark=None):
    """Drive every session on its own thread.

    ``max_ops``: each connection sends exactly that many operations (the
    warm-up and the crash tail).

    ``cycle_ops`` + ``seconds``: the measured phase.  It runs in slices
    of *cycle_ops* operations per connection — so every slice holds the
    same work on every run and on every commit — and goes on for about
    *seconds*: it stops at the slice boundary nearest to that.
    ``on_mark(result)`` is called from this thread before the
    first slice and after each one, with the server quiescent.

    Returns a :class:`PhaseResult`.
    """
    result = PhaseResult(len(sessions))
    barrier = threading.Barrier(len(sessions) + 1)
    if on_mark is not None:
        on_mark(result)
    start = time.perf_counter()
    threads = [
        threading.Thread(
            target=_drive,
            args=(session, window, max_ops, cycle_ops, result, index,
                  barrier),
            name="bench-conn-%d" % index,
        )
        for index, session in enumerate(sessions)
    ]
    for thread in threads:
        thread.start()
    try:
        slice_start = start
        while cycle_ops is not None and not result.stop:
            barrier.wait()
            now = time.perf_counter()
            # stop at the boundary nearest to `seconds`: here, unless
            # half of another slice would still fit
            result.stop = now - start + (now - slice_start) / 2.0 >= seconds
            if on_mark is not None:
                on_mark(result)
            slice_start = time.perf_counter()
            barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a connection thread failed; its exception is raised below
    except BaseException:
        barrier.abort()  # on_mark failed: let the threads go
        raise
    finally:
        for thread in threads:
            thread.join()
    if result.errors:
        raise result.errors[0]
    return result
