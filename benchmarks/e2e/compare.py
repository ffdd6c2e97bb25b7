"""Compare two benchmark results: ``python3 compare.py A.json B.json``.

``A`` is the baseline (parent commit), ``B`` the candidate; both are files
written by ``run.py --out``.  For every workload x end-to-end metric the
table shows both medians with their quartiles, the change in the metric's
*worse* direction against its bound from ``BENCHMARK.json``, and a verdict:

``regressed``   B is worse than A by more than the bound, and by more than
                the spread;
``unresolved``  the spread is wider than the bound, so a change of the
                bound's size could hide in it - neither "ok" nor "regressed";
``ok``          otherwise.

The spread is the expected run-to-run spread of the reported median: the
interquartile range of the passes behind it over the square root of their
number, the wider of the two sides, as a share of A's median.

Exit code 1 on any ``regressed`` row or when B failed more objects than A.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Any, Dict, Sequence

from run import load_contract, quartiles


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> tuple:
    """``(worse-by share, spread share, verdict)`` of one metric."""
    base = a["value"]
    if not base:
        return 0.0, 0.0, "ok" if not b["value"] else "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - base) / abs(base)
    spread = max(
        (quartiles(side["samples"])[1] - quartiles(side["samples"])[0])
        / math.sqrt(max(1, len(side["samples"])))
        for side in (a, b)
    ) / abs(base)
    if worse_by > bound and worse_by > spread:
        return worse_by, spread, "regressed"
    if spread > bound:
        return worse_by, spread, "unresolved"
    return worse_by, spread, "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any], contract: Dict[str, Any]) -> int:
    regressed = 0
    print("%-14s %-18s %12s %25s %12s %25s %8s %6s %7s  %s" % (
        "workload", "metric", "A", "A q1..q3", "B", "B q1..q3",
        "worse", "bound", "spread", "verdict"))
    for workload in contract["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        for declared in contract["end_to_end"]:
            metric = declared["name"]
            if metric not in side_a["metrics"] or metric not in side_b["metrics"]:
                continue
            entry_a, entry_b = side_a["metrics"][metric], side_b["metrics"][metric]
            worse_by, spread, outcome = verdict(
                entry_a, entry_b, declared["better"], declared["bound"]
            )
            regressed += outcome == "regressed"
            print("%-14s %-18s %12.6g %25s %12.6g %25s %+7.1f%% %5.0f%% %6.1f%%  %s" % (
                name, metric,
                entry_a["value"], "%.6g..%.6g" % quartiles(entry_a["samples"]),
                entry_b["value"], "%.6g..%.6g" % quartiles(entry_b["samples"]),
                100 * worse_by, 100 * declared["bound"], 100 * spread, outcome))
        share_a = side_a["failed"] / side_a["attempted"]
        share_b = side_b["failed"] / side_b["attempted"]
        outcome = "regressed" if share_b > share_a else "ok"
        regressed += outcome == "regressed"
        print("%-14s %-18s %12.6g %25s %12.6g %25s %8s %6s %7s  %s" % (
            name, "failed_share", share_a, "", share_b, "", "", "any", "", outcome))
    print("%d regressed" % regressed)
    return 1 if regressed else 0


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    sides = []
    for path in argv:
        with open(os.path.expanduser(path)) as handle:
            sides.append(json.load(handle))
    return compare(sides[0], sides[1], load_contract())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
