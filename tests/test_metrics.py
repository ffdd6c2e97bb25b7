"""Unit tests for the run metrics (latency tracker, buckets, run report)."""

import ast
import inspect
import json
import math

import pytest

from repro.runtime.checkpoint import RecoveryEvent, RecoveryReport
from repro.runtime.config import ClusterConfig
from repro.runtime.dispatch import DispatcherLedger
from repro.runtime.metrics import (
    JSON_IMBALANCE_CAP,
    LatencyBuckets,
    LatencyTracker,
    RunReport,
    RunTotals,
    TraceStore,
    delivery_latency,
    dispatcher_memory_report,
    latency_tracker,
    run_report,
    saturation_throughput,
    utilization_latency,
)
from repro.runtime.telemetry import Observation, Snapshot


class TestLatencyTracker:
    def test_mean(self):
        tracker = LatencyTracker()
        tracker.extend([10.0, 20.0, 30.0])
        assert tracker.mean == pytest.approx(20.0)
        assert len(tracker) == 3

    def test_empty_tracker(self):
        tracker = LatencyTracker()
        assert tracker.mean == 0.0
        assert tracker.percentile(95) == 0.0
        buckets = tracker.buckets()
        assert buckets.under_100ms == 1.0

    def test_percentile(self):
        tracker = LatencyTracker()
        tracker.extend(float(value) for value in range(1, 101))
        assert tracker.percentile(50) == pytest.approx(50.0)
        assert tracker.percentile(95) == pytest.approx(95.0)
        assert tracker.percentile(100) == pytest.approx(100.0)

    def test_percentile_bounds_check(self):
        tracker = LatencyTracker()
        tracker.record(1.0)
        with pytest.raises(ValueError):
            tracker.percentile(150)

    def test_buckets(self):
        tracker = LatencyTracker()
        tracker.extend([50.0] * 8 + [500.0] * 1 + [5000.0] * 1)
        buckets = tracker.buckets()
        assert buckets.under_100ms == pytest.approx(0.8)
        assert buckets.between_100ms_and_1s == pytest.approx(0.1)
        assert buckets.over_1s == pytest.approx(0.1)
        assert sum(buckets.as_dict().values()) == pytest.approx(1.0)

    def test_buckets_threshold_values_are_inclusive_middle(self):
        # Exactly 100 ms is not "< 100 ms" and exactly 1000 ms is not
        # "> 1000 ms": both boundaries land in the closed middle bucket,
        # matching the paper's "[100 ms, 1000 ms]" label (Figure 12(c)).
        tracker = LatencyTracker()
        tracker.extend([100.0, 1000.0])
        buckets = tracker.buckets()
        assert buckets.under_100ms == 0.0
        assert buckets.between_100ms_and_1s == 1.0
        assert buckets.over_1s == 0.0

    def test_buckets_just_past_thresholds(self):
        tracker = LatencyTracker()
        tracker.extend([99.999, 1000.001])
        buckets = tracker.buckets()
        assert buckets.under_100ms == pytest.approx(0.5)
        assert buckets.between_100ms_and_1s == 0.0
        assert buckets.over_1s == pytest.approx(0.5)

    def test_single_sample_percentiles_and_buckets(self):
        tracker = LatencyTracker()
        tracker.record(250.0)
        # Nearest-rank on one sample: every q maps to that sample.
        assert tracker.percentile(0) == 250.0
        assert tracker.percentile(50) == 250.0
        assert tracker.percentile(100) == 250.0
        buckets = tracker.buckets()
        assert buckets.between_100ms_and_1s == 1.0

    def test_percentile_q0_and_q100_are_min_and_max(self):
        tracker = LatencyTracker()
        tracker.extend([30.0, 10.0, 20.0])
        assert tracker.percentile(0) == 10.0
        assert tracker.percentile(100) == 30.0


class TestUtilizationLatency:
    def test_zero_utilization_returns_service_time(self):
        assert utilization_latency(10.0, 0.0) == pytest.approx(10.0)

    def test_latency_grows_with_utilization(self):
        low = utilization_latency(10.0, 0.2)
        high = utilization_latency(10.0, 0.9)
        assert high > low > 10.0

    def test_overload_is_clamped_and_capped(self):
        # Utilisation is clamped just below 1, giving service / (1 - 0.995).
        assert utilization_latency(10.0, 5.0) == pytest.approx(2000.0)
        assert utilization_latency(10.0, 1.0, cap_ms=500.0) == 500.0
        assert utilization_latency(1000.0, 0.999, cap_ms=10_000.0) == 10_000.0

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            utilization_latency(-1.0, 0.5)


class TestRunReport:
    def test_aggregate_properties(self):
        report = RunReport(
            tuples_processed=100,
            worker_loads={0: 10.0, 1: 20.0},
            dispatcher_memory={0: 1_000_000, 1: 3_000_000},
            worker_memory={0: 2_000_000},
        )
        assert report.total_load == 30.0
        assert report.load_imbalance == pytest.approx(2.0)
        assert report.avg_dispatcher_memory_mb == pytest.approx(2.0)
        assert report.avg_worker_memory_mb == pytest.approx(2.0)

    def test_empty_report_defaults(self):
        report = RunReport()
        assert report.load_imbalance == 1.0
        assert report.avg_dispatcher_memory_mb == 0.0
        assert report.total_load == 0.0

    def test_zero_min_load_imbalance(self):
        report = RunReport(worker_loads={0: 0.0, 1: 1.0})
        assert report.load_imbalance == float("inf")

    def test_summary_keys(self):
        report = RunReport(tuples_processed=10, throughput=5.0)
        summary = report.summary()
        for key in ("tuples", "throughput", "mean_latency_ms", "imbalance", "matches"):
            assert key in summary

    def test_summary_is_json_safe_with_infinite_imbalance(self):
        # A zero-load worker makes load_imbalance infinite; json.dump
        # would serialise float("inf") as the non-standard `Infinity`
        # token, so summary() must clamp it to the finite cap.
        report = RunReport(worker_loads={0: 0.0, 1: 1.0})
        assert report.load_imbalance == float("inf")
        summary = report.summary()
        assert summary["imbalance"] == JSON_IMBALANCE_CAP
        encoded = json.dumps(summary, allow_nan=False)
        assert math.isfinite(json.loads(encoded)["imbalance"])

    def test_summary_full_delivery_story(self):
        report = RunReport(
            tuples_processed=10,
            merger_duplicates={0: 3, 1: 2},
            delivery_latency_buckets=LatencyBuckets(0.5, 0.25, 0.25),
            recovery=RecoveryReport(
                checkpoints_taken=4,
                events=(
                    RecoveryEvent(
                        worker_id=1,
                        target_worker=0,
                        epoch=2,
                        queries_reinstalled=7,
                        updates_replayed=1,
                        cells_remapped=3,
                        lost_tuples=12,
                    ),
                ),
            ),
        )
        summary = report.summary()
        assert summary["merger_duplicates"] == 5.0
        assert summary["delivery_under_100ms"] == 0.5
        assert summary["delivery_100ms_to_1s"] == 0.25
        assert summary["delivery_over_1s"] == 0.25
        assert summary["checkpoints_taken"] == 4.0
        assert summary["recoveries"] == 1.0
        assert summary["recovery_lost_tuples"] == 12.0
        json.dumps(summary, allow_nan=False)

    def test_summary_without_recovery_or_buckets(self):
        summary = RunReport().summary()
        assert summary["delivery_under_100ms"] == 1.0
        assert summary["checkpoints_taken"] == 0.0
        assert summary["recoveries"] == 0.0


class TestPureReporting:
    """The report path on hand-built observations — no ``Cluster`` anywhere."""

    CONFIG = ClusterConfig(num_dispatchers=2, num_workers=2, num_mergers=1)

    @pytest.fixture
    def run(self):
        """Two tuples: an object matched on both workers, an insertion on one."""
        totals = RunTotals()
        totals.tuples, totals.objects, totals.insertions = 2, 1, 1
        totals.matches_produced, totals.object_fanout, totals.query_fanout = 3, 2, 1
        traces = TraceStore()
        traces.append(0, 0.09, [(0, 1.0), (1, 4.0)])
        traces.extend([1], [0.07], [[(1, 2.0)]])
        dispatchers = [DispatcherLedger(0), DispatcherLedger(1)]
        dispatchers[0].busy_cost += 0.09
        dispatchers[1].busy_cost += 0.07
        observed = Snapshot(
            workers={
                0: Observation("worker", 0, busy_cost=1.0, memory_bytes=100, depth=1, load=2.5),
                1: Observation("worker", 1, busy_cost=6.0, memory_bytes=300, depth=1, load=7.5),
            },
            shards={},
            mergers={
                0: Observation("merger", 0, 0.06, 0, 3, received=3, delivered=2, duplicates=1)
            },
        )
        return totals, traces, dispatchers, observed

    def test_throughput_is_tuples_over_the_bottleneck(self, run):
        totals, _, dispatchers, observed = run
        unit = self.CONFIG.cost_unit_seconds
        assert saturation_throughput(self.CONFIG, totals, dispatchers, observed) == 2 / (6.0 * unit)
        assert saturation_throughput(self.CONFIG, RunTotals(), dispatchers, observed) == 0.0

    def test_latency_is_the_slowest_worker_hop_per_tuple(self, run):
        totals, traces, dispatchers, observed = run
        tracker = latency_tracker(self.CONFIG, totals, traces, dispatchers, observed, 1.0)
        hop, unit_ms = self.CONFIG.network_hop_ms, self.CONFIG.cost_unit_seconds * 1000.0
        # At 1 tuple/s nothing queues: latency is the bare service times.
        assert tracker.values == pytest.approx(
            [2 * hop + (0.09 + 4.0) * unit_ms, 2 * hop + (0.07 + 2.0) * unit_ms], rel=1e-3
        )
        assert len(latency_tracker(self.CONFIG, totals, TraceStore(), dispatchers, observed)) == 0

    def test_delivery_latency_weights_mergers_by_deliveries(self, run):
        totals, _, _, observed = run
        mean, buckets = delivery_latency(self.CONFIG, totals, observed.mergers, 1.0)
        assert mean == pytest.approx(self.CONFIG.network_hop_ms, rel=1e-3)
        assert buckets == LatencyBuckets(1.0, 0.0, 0.0)

    def test_dispatcher_memory_is_measured_on_shards_else_estimated(self, run):
        _, _, dispatchers, observed = run

        class Index:
            def memory_bytes(self):
                return 4096

        assert dispatcher_memory_report(dispatchers, {}, Index()) == {0: 4096, 1: 4096}
        shards = {
            0: Observation("dispatcher", 0, 0.0, 512, 0),
            1: Observation("dispatcher", 1, 0.0, 640, 0),
        }
        assert dispatcher_memory_report(dispatchers, shards, None) == {0: 512, 1: 640}

    def test_run_report_assembles_the_views(self, run):
        totals, traces, dispatchers, observed = run
        shards = {0: Observation("dispatcher", 0, 0.0, 512, 0)}
        recovery = RecoveryReport(checkpoints_taken=2)
        sharded = observed._replace(shards=shards)
        report = run_report(self.CONFIG, totals, traces, dispatchers, sharded, None, recovery)
        assert report.tuples_processed == 2
        assert (report.objects_processed, report.insertions_processed) == (1, 1)
        assert report.throughput == saturation_throughput(
            self.CONFIG, totals, dispatchers, observed
        )
        assert report.worker_loads == {0: 2.5, 1: 7.5}
        assert report.worker_memory == {0: 100, 1: 300}
        assert report.dispatcher_memory == {0: 512}
        assert (report.matches_produced, report.matches_delivered) == (3, 2)
        assert (report.object_fanout, report.query_fanout) == (2.0, 1.0)
        assert report.merger_duplicates == {0: 1}
        assert report.recovery is recovery
        assert report.mean_latency_ms > 2 * self.CONFIG.network_hop_ms

    def test_the_report_path_does_not_import_the_cluster(self):
        import repro.runtime.metrics as metrics

        imports = [
            node.module or ""
            for node in ast.walk(ast.parse(inspect.getsource(metrics)))
            if isinstance(node, ast.ImportFrom)
        ]
        assert imports and not any("cluster" in module for module in imports)
