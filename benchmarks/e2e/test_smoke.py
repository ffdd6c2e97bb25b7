"""Opt-in smoke test of the e2e benchmark (``pytest benchmarks/e2e``).

Lives outside the tier-1 ``testpaths``; ``benchmarks/conftest.py`` marks it
``bench``.  Runs the whole suite in ``--quick`` mode with the traced pass
and checks the benchmark's own promises: every workload and metric named
in ``BENCHMARK.json`` is reported, nothing failed verification, and the
layer self times of the traced run add up to the root span.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))


def test_quick_suite(tmp_path):
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--trace", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    with open(out) as handle:
        result = json.load(handle)
    metrics = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    for workload in contract["workloads"]:
        name = workload["name"]
        side = result["workloads"][name]
        assert side["correct"] and side["failed"] == 0 and side["attempted"] > 0
        assert "== %s " % name in done.stdout
        for metric in metrics:
            assert metric in side["metrics"], (name, metric)
            assert metric in done.stdout
        assert side["metrics"]["trace.unattributed_share"]["value"] <= 0.05
        spans = os.path.join(HERE, "results", "%s.spans.jsonl" % name)
        with open(spans) as handle:
            aggregates = json.loads(handle.readline())["aggregates"]
        root = aggregates["replay"]["total_s"]
        self_total = sum(entry["self_s"] for entry in aggregates.values())
        assert abs(self_total - root) <= 1e-6 * root
