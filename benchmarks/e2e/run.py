"""Wall-clock end-to-end + per-layer benchmark of the PS2Stream reproduction.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1|both]] [--quick] [--out FILE]

Runs each selected workload (default: all of ``BENCHMARK.json``) in fresh
``measure.py`` processes, prints every metric by name with its unit and
sample count, verifies the deliveries against the brute-force oracle and
optionally writes one JSON result for ``compare.py``.  ``BENCHMARK.json``
at the repository root is the single list of workloads, metrics, units and
bounds; this file reads it rather than repeating it.

``--trace 0`` (default) measures the end-to-end metrics with tracing and
profiling off; ``--trace 1`` runs the traced pass and reports the per-layer
metrics; a bare ``--trace`` does both.  With exactly one ``--workload`` the
last line of standard output is the result object the driver's contract
asks for.  Exit code 1 means a verification failure, anything else
non-zero that a measurement process could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
#: Set-ups timed per end-to-end run (fresh processes; median reported).
SETUPS = 3
#: One measurement process may not outlive this (seconds).
CHILD_TIMEOUT = 170


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def measure(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one ``measure.py`` process and return its result object."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
        check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            "measure.py %s/%s exited with %d and no result"
            % (spec["workload"], spec["mode"], done.returncode)
        )
    return json.loads(lines[-1])


def run_workload(name: str, args: argparse.Namespace, modes: Sequence[str]) -> Dict[str, Any]:
    spec = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": 0.1 if args.quick else 1.0,
        "min_saturated": 1 if args.quick else 3,
        "min_paced": 1 if args.quick else 2,
    }
    merged: Dict[str, Any] = {"metrics": {}, "info": {}, "attempted": 0, "failed": 0}
    for mode in modes:
        result = measure({**spec, "mode": mode})
        if mode == "e2e" and not args.quick:
            setup = result["metrics"]["setup_s"]
            setup["samples"] += [
                measure({**spec, "mode": "setup"})["metrics"]["setup_s"]["value"]
                for _ in range(SETUPS - 1)
            ]
            setup["value"] = statistics.median(setup["samples"])
        for metric, entry in result["metrics"].items():
            merged["metrics"].setdefault(metric, entry)
        merged["info"][mode] = result["info"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    merged["correct"] = merged["failed"] == 0
    return merged


def quartiles(samples: Sequence[float]) -> tuple:
    if len(samples) < 2:
        return (samples[0], samples[0]) if samples else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def print_workload(name: str, result: Dict[str, Any]) -> None:
    print("== %s   attempted=%d failed=%d correct=%s" % (
        name, result["attempted"], result["failed"], result["correct"]))
    print("   %-32s %14s %-10s %14s %14s %3s  %s" % (
        "metric", "value", "unit", "q1", "q3", "n", "notes"))
    for metric, entry in result["metrics"].items():
        q1, q3 = quartiles(entry["samples"])
        notes = ", ".join(
            "%s=%s" % (key, ("%.6g" % value) if isinstance(value, float) else value)
            for key, value in entry.items()
            if key not in ("value", "samples", "unit")
        )
        print("   %-32s %14.6g %-10s %14.6g %14.6g %3d  %s" % (
            metric, entry["value"], entry["unit"], q1, q3,
            len(entry["samples"]), notes))


def main(argv: Sequence[str]) -> int:
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=["0", "1", "both"])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: sizes / 10, one pass per phase")
    parser.add_argument("--out", help="write the JSON result here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(contract["run_seconds"])
    selected = args.workload or names
    modes = {"0": ["e2e"], "1": ["trace"], "both": ["e2e", "trace"]}[args.trace]
    groups = {"e2e": contract["end_to_end"], "trace": contract["per_layer"]}
    declared = {m["name"]: m for mode in modes for m in groups[mode]}

    results: Dict[str, Any] = {}
    for name in selected:
        result = run_workload(name, args, modes)
        missing = sorted(set(declared) - set(result["metrics"]))
        if missing:
            raise SystemExit("%s did not report %s" % (name, ", ".join(missing)))
        result["metrics"] = {
            metric: {**result["metrics"][metric], "unit": declared[metric]["unit"]}
            for metric in declared
        }
        print_workload(name, result)
        results[name] = result

    if args.out:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from repro.bench.history import current_git_sha, machine_fingerprint

        with open(args.out, "w") as handle:
            json.dump(
                {
                    "schema": 1,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "quick": args.quick,
                    "git_sha": current_git_sha(ROOT),
                    "machine": machine_fingerprint(),
                    "workloads": results,
                },
                handle,
                indent=1,
                sort_keys=True,
            )
            handle.write("\n")
    failed = sum(result["failed"] for result in results.values())
    if len(selected) == 1:
        only = results[selected[0]]
        print(json.dumps({
            "correct": only["correct"],
            "attempted": only["attempted"],
            "failed": only["failed"],
            "metrics": {
                metric: {"value": entry["value"], "unit": entry["unit"]}
                for metric, entry in only["metrics"].items()
            },
        }))
    else:
        print("%d workloads, %d objects failed" % (len(selected), failed))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
