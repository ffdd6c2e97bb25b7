"""Tests for the benchmark harness (repro.bench)."""

import os
import re
import subprocess
from dataclasses import fields, replace

import pytest

from repro.bench import (
    ExperimentConfig,
    PARTITIONER_FACTORIES,
    format_table,
    make_partitioner,
    make_stream,
    run_drift_experiment,
    run_experiment,
    run_migration_experiment,
)
from repro.bench.history import current_git_sha, machine_fingerprint
from repro.runtime import (
    ClusterConfig,
    FaultPlan,
    FaultSpec,
    ProfilingSpec,
    SinkSpec,
    TelemetrySpec,
)


TINY = ExperimentConfig(
    group="Q1",
    mu=150,
    num_objects=300,
    sample_objects=300,
    cluster=ClusterConfig(num_workers=4, num_dispatchers=2, granularity=16),
)


#: Another valid value for the config fields ``value + 1`` does not suit.
OTHER_VALUES = {
    "cluster": ClusterConfig(num_workers=3),
    "backend": "multiprocess",
    "dispatch_backend": "inprocess",
    "merger_backend": "socket",
    "manifest": "manifest.json",
    "sink": SinkSpec("memory"),
    "checkpoint_path": "checkpoints.jsonl",
    "fault_plan": FaultPlan((FaultSpec("drop"),)),
    "telemetry": TelemetrySpec(),
    "profiling": ProfilingSpec(),
}


def _another(name, config):
    """A value for field ``name`` that differs from ``config``'s."""
    value = getattr(config, name)
    if name in OTHER_VALUES:
        assert OTHER_VALUES[name] != value
        return OTHER_VALUES[name]
    if isinstance(value, str):
        return value + "-other"
    assert isinstance(value, (int, float)), "no other value for %s: extend OTHER_VALUES" % name
    return value + 1


class TestConfig:
    def test_scaled_respects_env(self, monkeypatch):
        monkeypatch.setenv("PS2STREAM_BENCH_SCALE", "0.5")
        scaled = TINY.scaled()
        assert scaled.mu == max(100, int(TINY.mu * 0.5))
        assert scaled.cluster == TINY.cluster  # only workload sizes scale

    def test_invalid_scale_falls_back(self, monkeypatch):
        monkeypatch.setenv("PS2STREAM_BENCH_SCALE", "not-a-number")
        assert TINY.scaled().mu == TINY.mu

    def test_key_distinguishes_partitioners(self):
        assert TINY.key("hybrid") != TINY.key("metric")

    def test_key_distinguishes_configs(self):
        other = ExperimentConfig(group="Q2", mu=150, num_objects=300, sample_objects=300)
        assert TINY.key("hybrid") != other.key("hybrid")

    def test_key_distinguishes_every_field(self):
        """The hand-listed key had drifted (a calibration field was
        missing, so two such configs shared an ``ExperimentCache`` entry);
        the key is the frozen config itself, so no field can be left out."""
        assert ExperimentConfig().key("hybrid") != ExperimentConfig(
            cluster=ClusterConfig(migration_fixed_seconds=0.15)
        ).key("hybrid")
        changed = [replace(TINY, **{f.name: _another(f.name, TINY)}) for f in fields(TINY)]
        changed += [
            replace(TINY, cluster=replace(TINY.cluster, **{f.name: _another(f.name, TINY.cluster)}))
            for f in fields(ClusterConfig)
        ]
        keys = {config.key("hybrid") for config in changed}
        assert len(keys) == len(fields(ExperimentConfig)) + len(fields(ClusterConfig))
        assert TINY.key("hybrid") not in keys


class TestFactories:
    def test_all_factories_instantiate(self):
        for name in PARTITIONER_FACTORIES:
            assert make_partitioner(name).name in (name, name.replace("_", "-"))

    def test_unknown_partitioner(self):
        with pytest.raises(ValueError):
            make_partitioner("nope")

    def test_make_stream_is_deterministic(self):
        first = [t.kind for t in make_stream(TINY).tuples(50)]
        second = [t.kind for t in make_stream(TINY).tuples(50)]
        assert first == second


class TestRunExperiment:
    def test_run_experiment_produces_report(self):
        result = run_experiment("kd-tree", TINY)
        assert result.report.tuples_processed > 0
        assert result.report.throughput > 0
        assert result.partition_seconds >= 0
        assert result.run_seconds > 0
        assert result.config.cluster.num_workers == 4

    def test_report_at_rate(self):
        result = run_experiment("hybrid", TINY)
        relaxed = result.report_at(result.report.throughput * 0.1)
        stressed = result.report_at(result.report.throughput * 0.95)
        assert stressed.mean_latency_ms >= relaxed.mean_latency_ms


class TestFormatTable:
    def test_formats_rows(self):
        text = format_table("Title", [{"a": 1, "b": 2.5}, {"a": 10, "b": 1234.0}])
        assert "Title" in text
        assert "1234" in text
        assert "2.50" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table("Empty", [])


class TestDynamicExperiments:
    def test_migration_experiment_small(self):
        result = run_migration_experiment("GR", mu=300, num_objects=500, post_objects=300)
        assert result.selector == "GR"
        assert result.selection_time_ms >= 0.0
        assert result.imbalance_before >= 1.0
        buckets = result.latency_buckets
        total = buckets.under_100ms + buckets.between_100ms_and_1s + buckets.over_1s
        assert total == pytest.approx(1.0)

    def test_drift_experiment_small(self):
        result = run_drift_experiment(
            adjust=True, mu=300, objects_per_phase=300, drift_phases=1
        )
        assert result.adjusted
        assert result.throughput > 0


class TestProvenance:
    """What benchmarks/e2e/run.py imports from repro.bench.history."""

    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def test_git_sha_is_this_checkouts_head(self, monkeypatch):
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=self.ROOT, capture_output=True, text=True
        )
        if head.returncode != 0:
            pytest.skip("not a git checkout")
        monkeypatch.chdir(self.ROOT)
        sha = current_git_sha()
        assert re.fullmatch(r"[0-9a-f]{40}", sha)
        assert sha == head.stdout.strip()

    def test_git_sha_outside_a_checkout_is_unknown(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert current_git_sha(root=str(tmp_path)) == "unknown"

    def test_machine_fingerprint_keys(self):
        assert set(machine_fingerprint()) == {"cpu_count", "platform", "python"}
