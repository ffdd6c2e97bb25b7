"""Unit tests for the run metrics (latency tracker, buckets, run report)."""

import ast
import dataclasses
import inspect
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costmodel import COST_UNIT_SECONDS, LATENCY_LOAD_FRACTION, NETWORK_HOP_MS
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
        # ``q`` is validated before the empty check: an empty tracker
        # rejects an out-of-range percentile too.
        tracker = LatencyTracker()
        with pytest.raises(ValueError):
            tracker.percentile(150)
        tracker.record(1.0)
        with pytest.raises(ValueError):
            tracker.percentile(150)
        with pytest.raises(ValueError):
            tracker.percentile(-1)

    def test_buckets(self):
        tracker = LatencyTracker()
        tracker.extend([50.0] * 8 + [500.0] * 1 + [5000.0] * 1)
        buckets = tracker.buckets()
        assert buckets.under_100ms == pytest.approx(0.8)
        assert buckets.between_100ms_and_1s == pytest.approx(0.1)
        assert buckets.over_1s == pytest.approx(0.1)
        assert sum(dataclasses.astuple(buckets)) == pytest.approx(1.0)

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


def two_tuple_run():
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


class TestPureReporting:
    """The report path on hand-built observations — no ``Cluster`` anywhere."""

    @pytest.fixture
    def run(self):
        return two_tuple_run()

    def test_throughput_is_tuples_over_the_bottleneck(self, run):
        totals, _, dispatchers, observed = run
        unit = COST_UNIT_SECONDS
        assert saturation_throughput(totals, dispatchers, observed) == 2 / (6.0 * unit)
        assert saturation_throughput(RunTotals(), dispatchers, observed) == 0.0

    def test_latency_is_the_slowest_worker_hop_per_tuple(self, run):
        totals, traces, dispatchers, observed = run
        tracker = latency_tracker(totals, traces, dispatchers, observed, 1.0)
        hop, unit_ms = NETWORK_HOP_MS, COST_UNIT_SECONDS * 1000.0
        # At 1 tuple/s nothing queues: latency is the bare service times.
        assert tracker.values == pytest.approx(
            [2 * hop + (0.09 + 4.0) * unit_ms, 2 * hop + (0.07 + 2.0) * unit_ms], rel=1e-3
        )
        assert len(latency_tracker(totals, TraceStore(), dispatchers, observed)) == 0

    def test_default_input_rate_is_the_load_fraction_of_saturation(self, run):
        totals, traces, dispatchers, observed = run
        rate = LATENCY_LOAD_FRACTION * saturation_throughput(totals, dispatchers, observed)
        assert (
            latency_tracker(totals, traces, dispatchers, observed).values
            == latency_tracker(totals, traces, dispatchers, observed, rate).values
        )

    def test_throughput_reads_the_cost_unit_at_call_time(self, run, monkeypatch):
        totals, _, dispatchers, observed = run
        base = saturation_throughput(totals, dispatchers, observed)
        monkeypatch.setattr("repro.runtime.metrics.COST_UNIT_SECONDS", 2 * COST_UNIT_SECONDS)
        assert saturation_throughput(totals, dispatchers, observed) == pytest.approx(base / 2)

    def test_delivery_latency_weights_mergers_by_deliveries(self, run):
        totals, _, _, observed = run
        mean, buckets = delivery_latency(totals, observed.mergers, 1.0)
        assert mean == pytest.approx(NETWORK_HOP_MS, rel=1e-3)
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
        report = run_report(totals, traces, dispatchers, sharded, None, recovery)
        assert report.tuples_processed == 2
        assert (report.objects_processed, report.insertions_processed) == (1, 1)
        assert report.throughput == saturation_throughput(totals, dispatchers, observed)
        assert report.worker_loads == {0: 2.5, 1: 7.5}
        assert report.worker_memory == {0: 100, 1: 300}
        assert report.dispatcher_memory == {0: 512}
        assert (report.matches_produced, report.matches_delivered) == (3, 2)
        assert (report.object_fanout, report.query_fanout) == (2.0, 1.0)
        assert report.merger_duplicates == {0: 1}
        assert report.recovery is recovery
        assert report.mean_latency_ms > 2 * NETWORK_HOP_MS

    def test_the_report_path_does_not_import_the_cluster(self):
        import repro.runtime.metrics as metrics

        imports = [
            node.module or ""
            for node in ast.walk(ast.parse(inspect.getsource(metrics)))
            if isinstance(node, ast.ImportFrom)
        ]
        assert imports and not any("cluster" in module for module in imports)


# ----------------------------------------------------------------------
# The interned trace is the per-tuple trace, priced once per signature
# ----------------------------------------------------------------------
QUANTILES = (0.0, 50.0, 95.0, 100.0)
#: Costs come from small sets so signatures repeat; ``1`` and ``1.0``
#: intern as one signature and must price alike.
DISPATCHER = st.tuples(st.sampled_from([0, 1, 5]), st.sampled_from([0.07, 0.09, 2, 450.0]))
WORKER_ITEMS = st.lists(
    st.tuples(st.sampled_from([0, 1, 2]), st.sampled_from([1.0, 1, 4.0, 2.5, 600.0])),
    max_size=3,
)
TRACE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.tuples(DISPATCHER, WORKER_ITEMS)),
        st.tuples(
            st.just("extend"),
            st.lists(st.tuples(DISPATCHER, st.one_of(st.none(), WORKER_ITEMS)), max_size=6),
        ),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=12,
)
#: Latency samples, including values exactly on the bucket thresholds.
LATENCIES = st.lists(
    st.one_of(
        st.sampled_from([0.5, 99.999, 100.0, 100.001, 999.999, 1000.0, 1000.001]),
        st.floats(0.0, 20_000.0),
    ),
    max_size=30,
)


def per_tuple_latencies(totals, rows, dispatchers, observed, rate):
    """The report's loop before interning: every traced tuple priced alone."""
    unit = COST_UNIT_SECONDS
    wall_seconds = totals.tuples / rate
    dispatcher_util = {d.dispatcher_id: d.busy_cost * unit / wall_seconds for d in dispatchers}
    worker_util = {w: s.busy_cost * unit / wall_seconds for w, s in observed.workers.items()}
    unit_ms, hop_ms = unit * 1000.0, NETWORK_HOP_MS
    latencies = []
    for dispatcher_id, dispatcher_cost, items in rows:
        dispatcher_ms = utilization_latency(
            hop_ms + dispatcher_cost * unit_ms, dispatcher_util.get(dispatcher_id, 0.0)
        )
        worker_ms = 0.0
        for worker_id, cost in items or ():
            candidate = utilization_latency(hop_ms + cost * unit_ms, worker_util.get(worker_id, 0.0))
            if candidate > worker_ms:
                worker_ms = candidate
        latencies.append(dispatcher_ms + worker_ms)
    return latencies


def assert_tracker_matches_list(tracker, values):
    """``mean`` / ``percentile`` / ``buckets`` equal list-based references."""
    assert tracker.values == values
    total = len(values)
    if not total:
        assert (tracker.mean, tracker.buckets()) == (0.0, LatencyBuckets(1.0, 0.0, 0.0))
        assert [tracker.percentile(q) for q in QUANTILES] == [0.0] * len(QUANTILES)
        return
    ordered = sorted(values)
    assert tracker.mean == sum(values) / total
    for q in QUANTILES:
        rank = max(0, min(total - 1, int(math.ceil(q / 100.0 * total)) - 1))
        assert tracker.percentile(q) == ordered[rank]
    under = sum(1 for value in values if value < 100.0)
    over = sum(1 for value in values if value > 1000.0)
    assert tracker.buckets() == LatencyBuckets(
        under / total, (total - under - over) / total, over / total
    )


class TestSignatureTrace:
    def test_memory_is_bounded_by_signatures_not_tuples(self, small_stream):
        from repro.partitioning import KDTreeSpacePartitioner
        from repro.runtime import Cluster

        # ``None`` and an empty list are both "no worker handled it".
        window = ([0, 1, 0, 1], [0.09, 0.07, 0.09, 0.07], [[(0, 1.0)], None, [(0, 1.0)], []])
        traces = TraceStore()
        traces.extend(*window)
        assert (len(traces), len(traces.signatures)) == (4, 2)
        traces.extend(*window)
        assert (len(traces), len(traces.signatures)) == (8, 2)
        # A new signature holds the equal pair an earlier one stored.
        traces.append(1, 0.07, [tuple([0, 1.0])])
        (_, _, pair), _, (_, _, shared) = traces.signatures
        assert shared is pair

        plan = KDTreeSpacePartitioner().partition(small_stream.partitioning_sample(300), 2)
        config = ClusterConfig(num_dispatchers=2, num_workers=2, num_mergers=1)
        with Cluster(plan, config) as cluster:
            cluster.run(small_stream.tuples(100))
            traces = cluster._traces
            assert len(traces) > len(traces.signatures) > 0
            cluster.reset_period()
            assert (len(traces), len(traces.signatures)) == (0, 0)

    @settings(max_examples=150, deadline=None)
    @given(ops=TRACE_OPS, rate=st.sampled_from([None, 1.0, 5_000.0, 20_000.0, 1e6]))
    def test_priced_trace_equals_the_per_tuple_trace(self, ops, rate):
        totals, _, dispatchers, observed = two_tuple_run()
        traces, rows = TraceStore(), []
        for op, arg in ops:
            if op == "append":
                (dispatcher_id, cost), items = arg
                traces.append(dispatcher_id, cost, items)
                rows.append((dispatcher_id, cost, items))
            elif op == "extend":
                traces.extend(
                    [d for (d, _), _ in arg], [c for (_, c), _ in arg], [i for _, i in arg]
                )
                rows.extend((d, c, i) for (d, c), i in arg)
            else:
                traces.clear()
                rows = []
        assert len(traces) == len(rows)
        assert len(traces.signatures) <= len(rows)
        tracker = latency_tracker(totals, traces, dispatchers, observed, rate)
        if rate is None:
            rate = LATENCY_LOAD_FRACTION * saturation_throughput(totals, dispatchers, observed)
        reference = per_tuple_latencies(totals, rows, dispatchers, observed, rate)
        assert_tracker_matches_list(tracker, reference)

    @settings(max_examples=150, deadline=None)
    @given(first=LATENCIES, then=LATENCIES, one=LATENCIES.filter(bool))
    def test_sorted_cache_is_dropped_by_every_write(self, first, then, one):
        tracker = LatencyTracker()
        tracker.extend(first)
        assert_tracker_matches_list(tracker, first)
        tracker.extend(then)
        assert_tracker_matches_list(tracker, first + then)
        tracker.record(one[0])
        assert_tracker_matches_list(tracker, first + then + one[:1])
