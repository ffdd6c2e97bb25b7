"""Shared fixtures for the per-figure benchmarks.

The experiments behind Figures 7–10 (and parts of Figure 6) reuse the same
cluster runs, so results are cached per session: the first bench that needs
a (configuration, partitioner) pair pays for the run, later benches read
the cached :class:`~repro.bench.harness.ExperimentResult`.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Callable, Dict, List, Tuple

import pytest

from repro.bench import (
    ExperimentConfig,
    ExperimentResult,
    format_table,
    run_experiment,
)


#: The paper's query-population parameters, scaled down (see DESIGN.md).
#: mu = 5M -> 2000, 10M -> 3000, 20M -> 4000, 1M -> 1000.
MU_FOR = {"1M": 1000, "5M": 2000, "10M": 3000, "20M": 4000}


class ExperimentCache:
    """Session-scoped memo of experiment runs keyed by config + partitioner."""

    def __init__(self) -> None:
        self._results: Dict[Tuple, ExperimentResult] = {}
        self.runs = 0

    def get(self, partitioner_name: str, config: ExperimentConfig) -> ExperimentResult:
        key = config.key(partitioner_name)
        if key not in self._results:
            self._results[key] = run_experiment(partitioner_name, config)
            self.runs += 1
        return self._results[key]


def pytest_collection_modifyitems(items):
    """Every test collected under benchmarks/ carries the ``bench`` marker."""
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def experiments() -> ExperimentCache:
    return ExperimentCache()


@pytest.fixture(scope="session")
def standard_config() -> Callable[..., ExperimentConfig]:
    """Factory for the 4-dispatcher / 8-worker setup used by most figures."""

    def factory(dataset: str, group: str, mu_label: str, **overrides) -> ExperimentConfig:
        return ExperimentConfig(
            dataset=dataset,
            group=group,
            mu=MU_FOR[mu_label],
            **overrides,
        )

    return factory


# ----------------------------------------------------------------------
# Figure-row collection: every bench appends the series it reproduces and
# the terminal summary prints the per-figure tables (also written to
# benchmarks/figure_results.txt so EXPERIMENTS.md can reference them).
# ----------------------------------------------------------------------
_FIGURE_ROWS: "OrderedDict[str, List[Dict[str, object]]]" = OrderedDict()


@pytest.fixture(scope="session")
def record_row() -> Callable[[str, Dict[str, object]], None]:
    def _record(figure: str, row: Dict[str, object]) -> None:
        _FIGURE_ROWS.setdefault(figure, []).append(dict(row))

    return _record


# ----------------------------------------------------------------------
# Perf-result recording: every perf gate writes its measurement through
# this fixture, so all of them emit the same one-shot BENCH_<name>.json
# keys (metric, ratio, floor, workload, plus the gate's own extra
# fields). The run-to-run trajectory is the e2e benchmark's, not these.
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def record_bench() -> Callable[..., Dict[str, object]]:
    repo_root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

    def _record(
        name: str,
        metric: str,
        value: float,
        *,
        floor: float,
        workload: str,
        extra: Dict[str, object],
    ) -> Dict[str, object]:
        payload: Dict[str, object] = dict(extra)
        payload.update(metric=metric, ratio=float(value), floor=float(floor), workload=workload)
        with open(os.path.join(repo_root, "BENCH_%s.json" % name), "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return payload

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):  # noqa: D401
    if not _FIGURE_ROWS:
        return
    output_lines = []
    for figure, rows in _FIGURE_ROWS.items():
        output_lines.append(format_table(figure, rows))
    text = "\n".join(output_lines)
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 78)
    terminalreporter.write_line("PS2Stream reproduced figure series")
    terminalreporter.write_line("=" * 78)
    for line in text.splitlines():
        terminalreporter.write_line(line)
    results_path = os.path.join(os.path.dirname(__file__), "figure_results.txt")
    try:
        with open(results_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        terminalreporter.write_line("(also written to %s)" % results_path)
    except OSError:
        pass
