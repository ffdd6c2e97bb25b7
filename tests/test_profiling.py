"""Hot-loop profiling: counter invariants, perturbation-freedom, sampler, CLI.

The acceptance contract of the profiling layer (docs/PROFILING.md):

* **self-consistency** — the counters obey their arithmetic invariants:
  a worker scans at least as many postings as it checks candidates and
  checks at least as many candidates as it reports matches; a router's
  probes plus fallback routes partition the cells it probed; a merger's lookups split exactly
  into suppressed duplicates and delivered results;
* **perturbation-freedom** — a run's :class:`RunReport` and delivered
  set are byte-identical with profiling on and off, on every backend
  (inprocess × multiprocess × socket), including a closed-loop
  adjustment run with checkpoints;
* **round-trip** — counter snapshots survive the JSON codec, and the
  sampling profiler emits well-formed collapsed-stack lines.
"""

import io
import json
import time

import pytest

from test_chaos import make_chaos_workload, needs_cores
from test_transport import require_loopback

from repro.adjustment import GreedySelector, LocalLoadAdjuster
from repro.bench.history import append_history, make_record
from repro.cli import main as cli_main
from repro.runtime import Cluster, ClusterConfig
from repro.runtime.merge import SinkSpec
from repro.runtime.profiling import (
    DedupProfile,
    MatchProfile,
    ProfilingSpec,
    RouteProfile,
    StackSampler,
    profile_text,
)


def run_once(
    plan,
    tuples,
    *,
    profiling=None,
    backend="inprocess",
    dispatch_backend="inline",
    merger_backend="inprocess",
    checkpoint_every=0,
    adjust_every=0,
    local_adjuster=None,
    batch_size=64,
):
    """One batched run; returns (report, delivered-set, profile-report)."""
    config = ClusterConfig(
        num_dispatchers=2,
        num_workers=4,
        backend=backend,
        dispatch_backend=dispatch_backend,
        merger_backend=merger_backend,
        sink=SinkSpec(kind="memory"),
        checkpoint_every=checkpoint_every,
        profiling=profiling,
    )
    with Cluster(plan, config) as cluster:
        report = cluster.run_batched(
            tuples,
            batch_size=batch_size,
            adjust_every=adjust_every,
            local_adjuster=local_adjuster,
        )
        drained = cluster.drain_sinks()
        profile = cluster.profile_report()
    delivered = {
        (result.query_id, result.object_id)
        for results in drained.values()
        for result in results
    }
    return report, delivered, profile


def assert_no_perturbation(reference, observed):
    """Profiling-on and profiling-off runs must agree byte for byte."""
    ref_report, ref_delivered, _ = reference
    obs_report, obs_delivered, _ = observed
    assert obs_report == ref_report
    assert obs_delivered == ref_delivered


@pytest.fixture(scope="module")
def workload():
    return make_chaos_workload()


# ----------------------------------------------------------------------
# Counter self-consistency
# ----------------------------------------------------------------------
class TestCounterInvariants:
    def test_match_counters(self, workload):
        plan, tuples = workload
        report, _, profile = run_once(plan, tuples, profiling=ProfilingSpec())
        assert profile is not None
        assert len(profile.matchers) == 4
        for event in profile.matchers:
            assert isinstance(event, MatchProfile)
            assert event.postings_scanned >= event.candidates >= event.matches >= 0
        assert sum(event.postings_scanned for event in profile.matchers) > 0

    def test_inline_route_counters(self, workload):
        plan, tuples = workload
        _, _, profile = run_once(plan, tuples, profiling=ProfilingSpec())
        inline = [event for event in profile.routers if event.endpoint_id == -1]
        assert len(inline) == 1
        event = inline[0]
        assert event.cells_probed > 0
        assert event.probes + event.fallback_routes == event.cells_probed

    def test_sharded_route_counters(self, workload):
        plan, tuples = workload
        _, _, inline_profile = run_once(plan, tuples, profiling=ProfilingSpec())
        _, _, sharded_profile = run_once(
            plan, tuples, profiling=ProfilingSpec(), dispatch_backend="inprocess"
        )
        shards = [
            event for event in sharded_profile.routers if event.endpoint_id >= 0
        ]
        assert [event.endpoint_id for event in shards] == [0, 1]
        for event in shards:
            assert isinstance(event, RouteProfile)
            assert event.probes + event.fallback_routes == event.cells_probed
        # The shards route the same object stream the inline run did,
        # just split across replicas.
        inline_cells = sum(event.cells_probed for event in inline_profile.routers)
        assert sum(event.cells_probed for event in shards) == inline_cells

    def test_dedup_counters(self, workload):
        plan, tuples = workload
        report, _, profile = run_once(plan, tuples, profiling=ProfilingSpec())
        assert len(profile.mergers) == 2
        for event in profile.mergers:
            assert isinstance(event, DedupProfile)
            assert event.lookups >= event.duplicates >= 0
        lookups = sum(event.lookups for event in profile.mergers)
        duplicates = sum(event.duplicates for event in profile.mergers)
        # Every result looked up is either suppressed or delivered.
        assert lookups - duplicates == report.matches_delivered
        assert duplicates > 0  # the chaos workload replicates OR pairs

    def test_profiling_off_reports_none(self, workload):
        plan, tuples = workload
        _, _, profile = run_once(plan, tuples)
        assert profile is None


# ----------------------------------------------------------------------
# Perturbation-freedom: profiling on == profiling off, every backend
# ----------------------------------------------------------------------
class TestPerturbationFreedom:
    def test_inprocess_inline(self, workload):
        plan, tuples = workload
        reference = run_once(plan, tuples)
        observed = run_once(plan, tuples, profiling=ProfilingSpec())
        assert_no_perturbation(reference, observed)

    def test_closed_loop_adjustment_with_checkpoints(self, workload):
        plan, tuples = workload

        def adjusted(profiling):
            return run_once(
                plan,
                tuples,
                profiling=profiling,
                adjust_every=200,
                local_adjuster=LocalLoadAdjuster(GreedySelector()),
                checkpoint_every=256,
            )

        assert_no_perturbation(adjusted(None), adjusted(ProfilingSpec()))

    def test_sharded_dispatch_inprocess(self, workload):
        plan, tuples = workload
        reference = run_once(plan, tuples, dispatch_backend="inprocess")
        observed = run_once(
            plan, tuples, dispatch_backend="inprocess", profiling=ProfilingSpec()
        )
        assert_no_perturbation(reference, observed)

    @needs_cores
    def test_multiprocess_tiers(self, workload):
        plan, tuples = workload

        def multiprocess(profiling):
            return run_once(
                plan,
                tuples,
                profiling=profiling,
                backend="multiprocess",
                dispatch_backend="multiprocess",
                merger_backend="multiprocess",
            )

        reference = multiprocess(None)
        observed = multiprocess(ProfilingSpec())
        assert_no_perturbation(reference, observed)
        # The drains cross the fabric: every tier must still report.
        profile = observed[2]
        assert len(profile.matchers) == 4
        assert [event.endpoint_id for event in profile.routers if event.endpoint_id >= 0] == [0, 1]
        assert len(profile.mergers) == 2

    @needs_cores
    def test_socket_backend(self, workload):
        require_loopback()
        plan, tuples = workload
        reference = run_once(plan, tuples, backend="socket")
        observed = run_once(plan, tuples, backend="socket", profiling=ProfilingSpec())
        assert_no_perturbation(reference, observed)
        assert len(observed[2].matchers) == 4


# ----------------------------------------------------------------------
# Renderer, sampler
# ----------------------------------------------------------------------
class TestProfileText:
    def test_renders_all_sections_and_inline_label(self, workload):
        plan, tuples = workload
        _, _, profile = run_once(plan, tuples, profiling=ProfilingSpec())
        text = profile_text(profile)
        assert "GI2 matching" in text
        assert "GridT routing" in text
        assert "Merger dedup" in text
        assert "inline" in text


class TestStackSampler:
    def test_collapsed_stack_format(self):
        sampler = StackSampler(interval_ms=1.0)
        sampler.start()
        deadline = time.monotonic() + 0.2
        while time.monotonic() < deadline and sampler.sample_count == 0:
            sum(range(1000))
        sampler.stop()
        assert sampler.sample_count > 0
        lines = sampler.collapsed()
        assert lines
        for line in lines:
            frames, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert ";" in frames

    def test_stop_is_idempotent(self):
        sampler = StackSampler(interval_ms=1.0)
        sampler.start()
        sampler.stop()
        sampler.stop()


# ----------------------------------------------------------------------
# CLI surface: repro profile / bench-report
# ----------------------------------------------------------------------
_PROFILE_ARGS = [
    "--mu", "200", "--objects", "300", "--workers", "2", "--dispatchers", "2",
    "--batch-size", "32",
]


class TestProfileCommand:
    def test_prints_attribution_table(self):
        buffer = io.StringIO()
        assert cli_main(["profile"] + _PROFILE_ARGS, out=buffer) == 0
        output = buffer.getvalue()
        assert "hot-loop profile" in output
        assert "GI2 matching" in output
        assert "inline" in output

    def test_json_output_is_self_consistent(self):
        buffer = io.StringIO()
        assert cli_main(["profile", "--json"] + _PROFILE_ARGS, out=buffer) == 0
        payload = json.loads(buffer.getvalue())
        assert set(payload) == {"matchers", "routers", "mergers"}
        for matcher in payload["matchers"]:
            assert (
                matcher["postings_scanned"]
                >= matcher["candidates"]
                >= matcher["matches"]
            )
        for router in payload["routers"]:
            assert router["probes"] + router["fallback_routes"] == router["cells_probed"]

    def test_stacks_path_writes_collapsed_stacks(self, tmp_path):
        stacks_path = tmp_path / "stacks.txt"
        buffer = io.StringIO()
        code = cli_main(
            ["profile", "--stacks-path", str(stacks_path)] + _PROFILE_ARGS,
            out=buffer,
        )
        assert code == 0
        assert "collapsed stacks" in buffer.getvalue()
        lines = stacks_path.read_text().splitlines()
        assert lines
        for line in lines:
            frames, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert ";" in frames


class TestBenchReportCommand:
    def _history(self, tmp_path, values):
        path = str(tmp_path / "BENCH_HISTORY.jsonl")
        for value in values:
            append_history(make_record("demo_speedup", value, floor=1.5), path)
        return path

    def test_renders_trajectory(self, tmp_path):
        path = self._history(tmp_path, [2.0, 2.1])
        buffer = io.StringIO()
        assert cli_main(["bench-report", path], out=buffer) == 0
        output = buffer.getvalue()
        assert "demo_speedup" in output
        assert "ok: latest 2.100" in output

    def test_check_flags_regression(self, tmp_path):
        path = self._history(tmp_path, [2.0, 2.0, 1.0])
        buffer = io.StringIO()
        assert cli_main(["bench-report", "--check", path], out=buffer) == 1
        assert "REGRESSION" in buffer.getvalue()

    def test_check_passes_within_threshold(self, tmp_path):
        path = self._history(tmp_path, [2.0, 1.95])
        buffer = io.StringIO()
        assert cli_main(["bench-report", "--check", path], out=buffer) == 0

    def test_json_output(self, tmp_path):
        path = self._history(tmp_path, [2.0, 1.0])
        buffer = io.StringIO()
        assert cli_main(["bench-report", "--json", "--check", path], out=buffer) == 1
        payload = json.loads(buffer.getvalue())
        assert len(payload["records"]) == 2
        assert payload["regressions"][0]["metric"] == "demo_speedup"

    def test_empty_history_renders_placeholder(self, tmp_path):
        path = str(tmp_path / "BENCH_HISTORY.jsonl")
        buffer = io.StringIO()
        assert cli_main(["bench-report", "--check", path], out=buffer) == 0
        assert "empty" in buffer.getvalue()


class TestReportJson:
    def test_report_json_round_trips_events(self, tmp_path):
        from repro.runtime.telemetry import GaugeSample, TelemetryHub, TelemetrySpec

        path = str(tmp_path / "telemetry.jsonl")
        hub = TelemetryHub(TelemetrySpec(path=path))
        hub.record_gauges([GaugeSample("worker", 0, 2.0, 100, 5)], seq=1)
        hub.close()
        buffer = io.StringIO()
        assert cli_main(["report", "--json", path], out=buffer) == 0
        payload = json.loads(buffer.getvalue())
        assert payload[0]["event"] == "GaugeSample"
        assert payload[0]["tier"] == "worker"
