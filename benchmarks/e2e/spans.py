"""Span tracing from outside the program.

The benchmark may not touch ``src/``, so the spans come from timing
shims this module hangs on the layers' public entry points at run time
(the table in :func:`install`).  Each span records name, layer, start,
end, parent and the operation it belongs to; spans stay in memory and
are written to ``out/trace_<workload>.jsonl`` when the pass ends.

The traced pass runs with the whole stack in this process, one
connection, depth 1.  Server-side spans run on other threads (the
asyncio loop, the executor pool), so they have no parent by call stack;
they are attributed to the operation whose root span contains them in
time.  For wire workloads the gap between the client's send
(``NetClient.flush`` returning) and the arrival of the response (the
client's ``decode_body`` starting) becomes a synthetic ``net.server``
span; the server-side spans are its children, and what they leave
uncovered — the event loop, the executor hand-off, the loopback socket —
is its self time.

A layer's self time is its spans' durations minus the part of them
their child spans cover.
"""

import bisect
import importlib
import json
import os
import threading
import time

#: every layer the benchmark reports, in stack order
LAYERS = (
    "net.client", "net.protocol", "net.server",
    "sqldb.connection", "sqldb.engine", "sqldb.cache", "sqldb.charset",
    "sqldb.parser", "sqldb.validator",
    "core.septic", "core.manager", "core.detector", "core.store",
    "sqldb.planner", "sqldb.plan", "sqldb.wal", "sqldb.pager",
    "sqldb.btree",
    "shard.router", "replica.router", "replica.coordinator",
    "replica.apply",
)

#: ``(module, class or None, attribute, layer)`` — the shim table.
#: Functions imported by name elsewhere are listed once per namespace
#: that holds a reference.
SHIMS = (
    ("repro.net.client", "NetClient", "query", "net.client"),
    ("repro.net.client", "NetClient", "execute", "net.client"),
    ("repro.net.client", "NetClient", "flush", "net.client"),
    ("repro.net.protocol", None, "encode_frame", "net.protocol"),
    ("repro.net.protocol", None, "decode_body", "net.protocol"),
    ("repro.sqldb.connection", "Connection", "query", "sqldb.connection"),
    ("repro.sqldb.connection", "Connection", "execute_statement",
     "sqldb.connection"),
    ("repro.sqldb.engine", "Database", "run_partial", "sqldb.engine"),
    ("repro.sqldb.engine", "Database", "run_statement", "sqldb.engine"),
    ("repro.sqldb.cache", "PipelineCache", "get", "sqldb.cache"),
    ("repro.sqldb.cache", "PipelineCache", "put", "sqldb.cache"),
    ("repro.sqldb.charset", None, "decode_query", "sqldb.charset"),
    ("repro.sqldb.parser", None, "parse_sql", "sqldb.parser"),
    ("repro.sqldb.engine", None, "parse_sql", "sqldb.parser"),
    ("repro.shard.router", None, "parse_sql", "sqldb.parser"),
    ("repro.replica.router", None, "parse_sql", "sqldb.parser"),
    ("repro.sqldb.engine", None, "validate", "sqldb.validator"),
    ("repro.core.septic", "Septic", "process_query", "core.septic"),
    ("repro.core.manager", "QSQMManager", "receive", "core.manager"),
    ("repro.core.detector", "AttackDetector", "detect_sqli",
     "core.detector"),
    ("repro.core.detector", "AttackDetector", "detect_stored",
     "core.detector"),
    ("repro.core.store", "QMStore", "get", "core.store"),
    ("repro.sqldb.executor", "Executor", "prepare", "sqldb.planner"),
    ("repro.sqldb.planner", "DistributedPlanner", "route", "sqldb.planner"),
    ("repro.sqldb.executor", "Executor", "execute", "sqldb.plan"),
    ("repro.sqldb.wal", "WriteAheadLog", "append", "sqldb.wal"),
    ("repro.sqldb.wal", "WriteAheadLog", "append_record", "sqldb.wal"),
    ("repro.sqldb.wal", "WriteAheadLog", "fsync", "sqldb.wal"),
    ("repro.sqldb.wal", "WriteAheadLog", "sync_to", "sqldb.wal"),
    ("repro.sqldb.wal", "WriteAheadLog", "write_checkpoint", "sqldb.wal"),
    ("repro.sqldb.pager", "BufferPool", "fetch", "sqldb.pager"),
    ("repro.sqldb.pager", "Pager", "read_page", "sqldb.pager"),
    ("repro.sqldb.pager", "Pager", "write_page", "sqldb.pager"),
    ("repro.sqldb.btree", None, "encode_node", "sqldb.btree"),
    ("repro.sqldb.btree", None, "decode_node", "sqldb.btree"),
    ("repro.shard.router", "ShardRouter", "query", "shard.router"),
    ("repro.replica.router", "RoutingConnection", "query",
     "replica.router"),
    ("repro.replica.coordinator", "ReplicaSet", "ship",
     "replica.coordinator"),
    ("repro.replica.coordinator", "ReplicaSet", "tick",
     "replica.coordinator"),
    ("repro.replica.apply", "ReplicaApplier", "offer", "replica.apply"),
)

#: spans that open an operation
ROOT_NAMES = ("NetClient.query", "NetClient.execute", "ShardRouter.query")


class Span(object):
    __slots__ = ("name", "layer", "start", "end", "parent", "thread",
                 "children", "op", "ident", "wait")

    def __init__(self, name, layer, start, parent, thread):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.children = []
        self.op = None
        self.ident = None
        #: roots of wire operations: the synthetic ``net.server`` span
        self.wait = None


class Tracer(object):
    """Collects spans; one per traced pass."""

    def __init__(self):
        self.spans = []
        #: shims record only while this is set (the operation loop), so
        #: connection set-up and teardown leave no spans
        self.active = False
        self._local = threading.local()
        #: bytes of every frame either side encoded
        self.frame_bytes = 0
        #: rows the plans' leaf scans produced / rows the plans returned
        self.rows_scanned = 0
        self.rows_returned = 0
        self.peak_materialized = 0

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _shim(self, original, name, layer, after=None):
        spans = self.spans
        clock = time.perf_counter
        get_stack = self._stack
        thread_id = threading.get_ident

        def shim(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            stack = get_stack()
            span = Span(name, layer, clock(),
                        stack[-1] if stack else None, thread_id())
            spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        shim.__wrapped__ = original
        return shim

    def _count_frame(self, _args, blob):
        self.frame_bytes += len(blob)

    def _count_rows(self, args, _result):
        """After ``Executor.execute``: what the plan's scans produced
        against what its root returned."""
        stats = args[0].last_stage_stats
        if stats is None or not stats.order:
            return
        self.rows_returned += stats.nodes[stats.order[0]]["rows_out"]
        self.rows_scanned += sum(
            record["rows_out"] for record in stats.nodes.values()
            if not record["children"])
        if stats.peak_materialized_rows > self.peak_materialized:
            self.peak_materialized = stats.peak_materialized_rows

    def install(self):
        """Hang a shim on every entry of :data:`SHIMS`.  Never undone:
        the traced pass is the last thing its process measures."""
        hooks = {("repro.net.protocol", "encode_frame"): self._count_frame,
                 ("repro.sqldb.executor", "execute"): self._count_rows}
        for module_name, class_name, attr, layer in SHIMS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = getattr(owner, attr)
            target = getattr(original, "__wrapped__", original)
            label = "%s.%s" % (class_name or module_name.rsplit(".", 1)[1],
                               attr)
            setattr(owner, attr, self._shim(
                target, label, layer, hooks.get((module_name, attr))))

    # -- analysis ----------------------------------------------------------

    def analyse(self):
        """Link spans into per-operation trees and total self time per
        layer.  Returns ``(layers, ops, coverage)`` with *layers* mapping
        layer → ``(self_seconds, calls)``."""
        spans = self.spans
        for span in spans:
            if span.parent is not None:
                span.parent.children.append(span)
        roots = sorted((s for s in spans
                        if s.parent is None and s.name in ROOT_NAMES),
                       key=lambda s: s.start)
        starts = [root.start for root in roots]
        ops = len(roots)
        extra_roots = []
        for span in list(spans):
            if span.parent is not None or span.name in ROOT_NAMES:
                continue
            at = bisect.bisect_right(starts, span.start) - 1
            root = roots[at] if at >= 0 else None
            if root is not None and span.start < root.end \
                    and span.thread != root.thread:
                # a server-side span: it ran while this operation's
                # client was waiting
                self._wait_span(root).children.append(span)
                span.parent = root.wait
            else:
                # work between operations on the driving thread (the
                # router's tick): its own root, amortised over all ops
                extra_roots.append(span)
        for index, root in enumerate(roots):
            self._stamp(root, index)
        for span in extra_roots:
            self._stamp(span, None)
        layers = {layer: [0.0, 0] for layer in LAYERS}
        for span in self.spans:
            covered = 0.0
            for child in span.children:
                # a server-side span may outlive the client's wait by a
                # few microseconds; only the part inside counts
                covered += max(0.0, min(child.end, span.end)
                               - max(child.start, span.start))
            entry = layers.setdefault(span.layer, [0.0, 0])
            entry[0] += max(0.0, (span.end - span.start) - covered)
            entry[1] += 1
        root_time = sum(s.end - s.start for s in roots + extra_roots)
        self_time = sum(entry[0] for entry in layers.values())
        coverage = self_time / root_time if root_time else 0.0
        return ({layer: tuple(entry) for layer, entry in layers.items()},
                ops, coverage)

    def _wait_span(self, root):
        """The synthetic ``net.server`` span of a wire operation: from
        the client's send to the arrival of the response."""
        if root.wait is not None:
            return root.wait
        start, end = root.start, root.end
        for child in root.children:
            if child.name == "NetClient.flush":
                start = child.end
            elif child.name == "protocol.decode_body" \
                    and child.start >= start:
                end = child.start
                break
        wait = Span("net.server.wait", "net.server", start, root,
                    root.thread)
        wait.end = max(start, end)
        root.wait = wait
        root.children.append(wait)
        self.spans.append(wait)
        return wait

    def _stamp(self, span, op):
        span.op = op
        for child in span.children:
            self._stamp(child, op)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        for ident, span in enumerate(self.spans):
            span.ident = ident
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.ident, "name": span.name,
                    "layer": span.layer, "start": span.start,
                    "end": span.end, "op": span.op,
                    "parent": (span.parent.ident
                               if span.parent is not None else None),
                    "thread": span.thread,
                }) + "\n")
