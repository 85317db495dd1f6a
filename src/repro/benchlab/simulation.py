"""A small discrete-event simulation kernel.

Classic event-heap design: events are ``(time, sequence, callback)``
triples; :meth:`Simulator.schedule` enqueues, :meth:`Simulator.run`
drains in timestamp order.  The sequence number makes ordering total and
deterministic for simultaneous events.

:class:`FifoResource` is the one queueing primitive the closed-loop
experiments share: a serial server whose work is priced in virtual time
(a replica serving reads, a shard).
"""

import heapq


class Simulator(object):
    """Event loop with a virtual clock (seconds as floats)."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._sequence = 0
        self._running = False
        self.events_processed = 0

    def schedule(self, delay, callback, *args):
        """Schedule *callback(*args)* at ``now + delay``."""
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)"
                             % delay)
        self._sequence += 1
        heapq.heappush(
            self._heap, (self.now + delay, self._sequence, callback, args)
        )

    def run(self, until=None, max_events=None):
        """Drain the event heap.

        Stops when the heap is empty, the virtual clock passes *until*,
        or *max_events* have been processed — whichever comes first.
        Returns the number of events processed in this call.
        """
        processed = 0
        self._running = True
        try:
            while self._heap:
                if max_events is not None and processed >= max_events:
                    break
                time, _, callback, args = self._heap[0]
                if until is not None and time > until:
                    break
                heapq.heappop(self._heap)
                self.now = max(self.now, time)
                callback(*args)
                processed += 1
                self.events_processed += 1
        finally:
            self._running = False
        return processed

    @property
    def pending(self):
        return len(self._heap)

    def __repr__(self):
        return "Simulator(now=%.6f, pending=%d)" % (self.now, self.pending)


class FifoResource(object):
    """A serial FIFO server in virtual time: work queues for exclusive
    service and never overlaps.

    ``free_at`` is the virtual time the server next idles; work arriving
    at *t* completes at ``max(t, free_at) + service``.  No events are
    scheduled here — the caller schedules its own completion callback at
    the returned time."""

    __slots__ = ("free_at", "busy", "served")

    def __init__(self):
        self.free_at = 0.0
        #: total service time charged
        self.busy = 0.0
        #: :meth:`serve` calls
        self.served = 0

    def serve(self, arrival, service):
        """Queue *service* units of work arriving at *arrival*; returns
        its completion time."""
        start = max(arrival, self.free_at)
        self.free_at = start + service
        self.busy += service
        self.served += 1
        return self.free_at
