"""Manual smoke test for the end-to-end benchmark.

Run by hand with ``pytest benchmarks/e2e``; tier-1 only byte-compiles
this directory (``tests/test_lint.py``), because even at 1/50 size the
benchmark spawns server processes and fsyncs.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


def _run(*args):
    return subprocess.run([sys.executable, RUN] + list(args),
                          stdout=subprocess.PIPE, text=True, timeout=120)


def test_smoke_runs_every_workload_with_every_oracle():
    done = _run("--smoke")
    assert done.returncode == 0, done.stdout[-2000:]
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == 4
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    per_layer = {entry["name"] for entry in manifest["per_layer"]}
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
        assert set(result["metrics"]) == per_layer
    for workload in manifest["workloads"]:
        trace_file = os.path.join(HERE, "out",
                                  "trace_%s.jsonl" % workload["name"])
        assert os.path.getsize(trace_file) > 0

