"""Hot-loop counters: invariants, counters-as-state, sampler, CLI.

The acceptance contract of the profiling layer (docs/PROFILING.md):

* **self-consistency** — the counters obey their arithmetic invariants:
  a worker scans at least as many postings as it checks candidates and
  checks at least as many candidates as it reports matches; a router's
  probes plus fallback routes partition the cells it probed; a merger's lookups split exactly
  into suppressed duplicates and delivered results;
* **counters are state** — every index and merger counts from
  construction with nobody switching anything on, the values are the
  same on every backend, a report is an independent snapshot, and the
  holders survive what replaces the state they sit on (a global
  repartition's two index swaps, a shard replica's re-sync) without
  double counting, resetting or inheriting somebody else's counts;
* **round-trip** — counter snapshots survive the JSON codec, and the
  sampling profiler emits well-formed collapsed-stack lines.
"""

import io
import json
import time

import pytest

from test_chaos import BOUNDS, make_chaos_workload, needs_cores
from test_transport import global_scenario

from repro.adjustment import GlobalAdjuster
from repro.bench.history import append_history, make_record
from repro.cli import main as cli_main
from repro.core import MatchResult, TupleKind
from repro.indexes import GI2Index, GridTIndex
from repro.partitioning import HybridPartitioner
from repro.runtime import Cluster, ClusterConfig, MergerNode
from repro.runtime.merge import SinkSpec
from repro.runtime.profiling import (
    DedupProfile,
    MatchProfile,
    RouteProfile,
    StackSampler,
    profile_text,
)


def run_once(
    plan,
    tuples,
    *,
    backend="inprocess",
    dispatch_backend="inline",
    merger_backend="inprocess",
):
    """One batched run; returns (report, profile-report)."""
    config = ClusterConfig(
        num_dispatchers=2,
        num_workers=4,
        backend=backend,
        dispatch_backend=dispatch_backend,
        merger_backend=merger_backend,
        sink=SinkSpec(kind="memory"),
    )
    with Cluster(plan, config) as cluster:
        report = cluster.run_batched(tuples, batch_size=64)
        profile = cluster.profile_report()
    return report, profile


def object_count(tuples):
    return sum(item.kind is TupleKind.OBJECT for item in tuples)


@pytest.fixture(scope="module")
def workload():
    return make_chaos_workload()


# ----------------------------------------------------------------------
# Counter self-consistency
# ----------------------------------------------------------------------
class TestCounterInvariants:
    def test_match_counters(self, workload):
        plan, tuples = workload
        _, profile = run_once(plan, tuples)
        assert len(profile.matchers) == 4
        for event in profile.matchers:
            assert isinstance(event, MatchProfile)
            assert event.postings_scanned >= event.candidates >= event.matches >= 0
        assert sum(event.postings_scanned for event in profile.matchers) > 0

    def test_inline_route_counters(self, workload):
        plan, tuples = workload
        _, profile = run_once(plan, tuples)
        inline = [event for event in profile.routers if event.endpoint_id == -1]
        assert len(inline) == 1
        event = inline[0]
        assert event.cells_probed > 0
        assert event.probes + event.fallback_routes == event.cells_probed

    def test_sharded_route_counters(self, workload):
        plan, tuples = workload
        _, inline_profile = run_once(plan, tuples)
        _, sharded_profile = run_once(plan, tuples, dispatch_backend="inprocess")
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
        report, profile = run_once(plan, tuples)
        assert len(profile.mergers) == 2
        for event in profile.mergers:
            assert isinstance(event, DedupProfile)
            assert event.lookups >= event.duplicates >= 0
        lookups = sum(event.lookups for event in profile.mergers)
        duplicates = sum(event.duplicates for event in profile.mergers)
        # Every result looked up is either suppressed or delivered.
        assert lookups - duplicates == report.matches_delivered
        assert duplicates > 0  # the chaos workload replicates OR pairs


# ----------------------------------------------------------------------
# Counters are state: always on, backend-invariant, surviving swaps
# ----------------------------------------------------------------------
class TestCountersAreState:
    @needs_cores
    def test_counters_are_backend_invariant(self, workload):
        plan, tuples = workload
        report, local = run_once(plan, tuples)
        remote_report, remote = run_once(
            plan, tuples, backend="multiprocess", merger_backend="multiprocess"
        )
        assert remote_report == report
        assert remote.matchers == local.matchers
        assert remote.mergers == local.mergers
        assert remote.routers == local.routers

    def test_bare_state_counts_with_no_owner(self, workload):
        plan, tuples = workload
        objects = [item.payload for item in tuples if item.kind is TupleKind.OBJECT][:50]
        queries = [item.payload.query for item in tuples if item.kind is TupleKind.INSERT]

        gi2 = GI2Index(BOUNDS, granularity=8)
        for query in queries:
            gi2.insert(query)
        outcomes = gi2.match_batch(objects)
        counted = gi2.profile.event(0)
        assert counted.matches == sum(len(outcome.query_ids) for outcome in outcomes) > 0
        assert counted.candidates == sum(outcome.checks for outcome in outcomes)
        assert counted.postings_scanned >= counted.candidates
        assert 0 < counted.cells_probed <= len(objects)

        gridt = GridTIndex(BOUNDS, granularity=8, object_filtering=True)
        gridt.set_cell_worker(gridt.cell_for_point(objects[0].location), 0)
        gridt.route_insertion(queries[0])
        for obj in objects:
            gridt.route_object(obj)
        assert gridt.profile.cells_probed == len(objects)
        assert gridt.profile.probes > 0 and gridt.profile.fallback_routes > 0

        merger = MergerNode(3)
        results = [MatchResult(query_id=1, object_id=n % 4, subscriber_id=0) for n in range(10)]
        assert merger.handle_many(results) == 4
        assert merger.profile.event(3) == DedupProfile(3, lookups=10, duplicates=6, evictions=0)

    def test_reports_are_independent_snapshots(self, workload):
        plan, tuples = workload
        half = len(tuples) // 2
        config = ClusterConfig(num_dispatchers=2, num_workers=4)
        with Cluster(plan, config) as cluster:
            cluster.run_batched(tuples[:half], batch_size=64)
            first = cluster.profile_report()
            frozen = repr(first)
            cluster.run_batched(tuples[half:], batch_size=64)
            second = cluster.profile_report()
        assert repr(first) == frozen
        assert second.routers[0].cells_probed == object_count(tuples)
        assert first.routers[0].cells_probed == object_count(tuples[:half])
        assert sum(e.lookups for e in second.mergers) > sum(e.lookups for e in first.mergers)
        assert sum(e.candidates for e in second.matchers) > sum(e.candidates for e in first.matchers)

    def test_inline_router_counts_each_object_once_through_a_global_repartition(self):
        plan, tuples = global_scenario()
        adjuster = GlobalAdjuster(HybridPartitioner(), improvement_threshold=0.01)
        config = ClusterConfig(num_dispatchers=2, num_workers=4)
        with Cluster(plan, config) as cluster:
            cluster.run_batched(
                tuples, batch_size=100, adjust_every=250, global_adjuster=adjuster
            )
            routers = cluster.profile_report().routers
        # Both swaps happened: into the dual index (drain) and out of it.
        assert any(entry.repartitioned for entry in adjuster.history)
        assert any(entry.finalized for entry in adjuster.history)
        assert [event.endpoint_id for event in routers] == [-1]
        assert routers[0].cells_probed == object_count(tuples)

    def test_shard_counters_survive_a_resync_and_start_from_zero(self, workload):
        plan, tuples = workload
        half = len(tuples) // 2
        config = ClusterConfig(num_dispatchers=2, num_workers=4, dispatch_backend="inprocess")
        with Cluster(plan, config) as cluster:
            # Counts on the coordinator's own holder ride the snapshot
            # pickle to the shards; they must not show up there.
            for _ in range(7):
                cluster.routing_index.route_cell((0, 0), frozenset())
            cluster.run_batched(tuples[:half], batch_size=64)
            first = cluster.profile_report().routers
            cluster.invalidate_routing_caches()  # forces a re-sync
            cluster.run_batched(tuples[half:], batch_size=64)
            second = cluster.profile_report().routers
        assert [event.endpoint_id for event in first] == [-1, 0, 1]
        assert first[0].cells_probed == second[0].cells_probed == 7
        assert sum(event.cells_probed for event in first[1:]) == object_count(tuples[:half])
        assert sum(event.cells_probed for event in second[1:]) == object_count(tuples)
        for before, after in zip(first[1:], second[1:]):
            assert after.probes >= before.probes
            assert after.fallback_routes >= before.fallback_routes


# ----------------------------------------------------------------------
# Renderer, sampler
# ----------------------------------------------------------------------
class TestProfileText:
    def test_renders_all_sections_and_inline_label(self, workload):
        plan, tuples = workload
        _, profile = run_once(plan, tuples)
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
