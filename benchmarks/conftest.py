"""Shared helpers for the benchmark suite.

Each ``bench_*`` file regenerates one table/figure of the paper.  Besides
timing (pytest-benchmark), every bench PRINTS the paper-shaped rows and
writes them to ``benchmarks/out/<name>.txt`` so the artefacts survive
output capturing.  Headline numbers registered with ``report.metric()``
are additionally written to ``benchmarks/out/BENCH_<name>.json`` as a
list of ``{bench, metric, value, unit, commit}`` records, so runs are
diffable across commits.
"""

import json
import os
import subprocess

import pytest

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def _git(args, cwd):
    """``git`` *args*' standard output in *cwd*, or ``None`` when it
    cannot run or fails."""
    try:
        out = subprocess.run(["git"] + args, cwd=cwd, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def _current_commit(cwd=None):
    """The checked-out commit hash, ``<hash>-dirty`` when the working
    tree differs from it (numbers made before their commit exists are
    not that commit's), or ``None`` outside a git checkout."""
    cwd = cwd or os.path.dirname(os.path.abspath(__file__))
    head = (_git(["rev-parse", "HEAD"], cwd) or "").strip()
    if not head:
        return None
    status = _git(["status", "--porcelain"], cwd)
    return head + "-dirty" if status is None or status.strip() else head


class Report(object):
    """Collects the lines (and headline metrics) of one artefact."""

    def __init__(self, name):
        self.name = name
        self.lines = []
        self.metrics = []

    def line(self, text=""):
        self.lines.append(text)

    def metric(self, metric, value, unit, kind=None):
        """Register one headline number for the JSON sidecar; *kind*,
        when given, tags it ``measured`` or ``modelled``."""
        record = {
            "bench": self.name,
            "metric": metric,
            "value": value,
            "unit": unit,
        }
        if kind is not None:
            record["kind"] = kind
        self.metrics.append(record)

    def table(self, headers, rows, widths=None):
        widths = widths or [max(12, len(h) + 2) for h in headers]
        fmt = "".join("%%-%ds" % w for w in widths)
        self.line(fmt % tuple(headers))
        for row in rows:
            self.line(fmt % tuple(str(c) for c in row))

    def emit(self):
        text = "\n".join(self.lines)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, self.name + ".txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        if self.metrics:
            commit = _current_commit()
            records = [dict(record, commit=commit)
                       for record in self.metrics]
            json_path = os.path.join(OUT_DIR, "BENCH_%s.json" % self.name)
            with open(json_path, "w") as handle:
                json.dump(records, handle, indent=1, sort_keys=True)
                handle.write("\n")
        print("\n" + "=" * 70)
        print("ARTEFACT %s (saved to %s)" % (self.name, path))
        print("=" * 70)
        print(text)
        return text


@pytest.fixture
def report(request):
    rep = Report(request.node.name.replace("test_", "", 1))
    yield rep
    rep.emit()
