"""Runtime telemetry: spans, gauges, lifecycle events, perturbation-freedom.

The acceptance contract of the telemetry subsystem (PR 9):

* **perturbation-freedom** — a run's :class:`RunReport` is byte-identical
  with telemetry on and off.  The conformance matrix
  (``test_report_golden.py``) holds telemetry-on rows, in process and
  with every tier out of process, to their telemetry-off twins; here a
  chaos worker-kill/recovery run pins that telemetry control messages
  are exempt from the chaos harness's fault counters;
* **completeness** — every batched window yields a route/match/merge
  span, every tier yields gauge samples, and adjustment / checkpoint /
  recovery milestones are annotated in the rendered timeline;
* **round-trip** — the JSONL sink feeds ``repro report`` losslessly.
"""

import io
import json
import urllib.request

import pytest

from repro.adjustment import DualRoutingIndex, GreedySelector, LocalLoadAdjuster
from repro.cli import main as cli_main
from repro.runtime import Cluster, ClusterConfig
from repro.runtime.fabric import FaultSpec, Fleet
from repro.runtime.profiling import ProfilingSpec
from repro.runtime.telemetry import (
    GaugeSample,
    LifecycleEvent,
    SpanHop,
    TelemetryHub,
    TelemetryServer,
    TelemetrySpec,
    TierTimeseries,
    WindowSpan,
    decode_event,
    encode_event,
    read_events,
    render_timeline,
)

from harness import delivered_pairs, make_alpha_beta_workload, needs_cores, replayed, run


def timeseries(events):
    """The gauge history a run's events carry, as ``render_timeline`` reads it."""
    series = TierTimeseries()
    for event in events:
        if isinstance(event, GaugeSample):
            series.add(event)
    return series


# ----------------------------------------------------------------------
# Event codec and stores
# ----------------------------------------------------------------------
class TestEventCodec:
    def test_round_trip_every_event_type(self):
        events = [
            SpanHop("match", "worker", 1.5, 0.25, 4),
            WindowSpan(3, 128, 64, (SpanHop("route", "dispatcher", 1.0, 0.5, 2),)),
            GaugeSample("merger", 1, 0.25, 4096, 17, seq=9),
            LifecycleEvent("recovery", 5, 12.5, detail="worker 1 -> 0", epoch=2,
                           tier="worker", endpoint_id=1),
        ]
        for event in events:
            payload = json.loads(json.dumps(encode_event(event), allow_nan=False))
            assert decode_event(payload) == event

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValueError):
            decode_event({"event": "Mystery"})

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        hub = TelemetryHub(TelemetrySpec(path=path))
        span = WindowSpan(1, 0, 64, (SpanHop("route", "dispatcher", 0.0, 1.0, 2),))
        hub.record(span)
        hub.record_gauges([GaugeSample("worker", 0, 2.0, 100, 5)], seq=1)
        hub.close()
        events = read_events(path)
        assert events[0] == span
        assert events[1] == GaugeSample("worker", 0, 2.0, 100, 5, seq=1)


class TestTierTimeseries:
    def test_latest_and_busy_fractions(self):
        series = TierTimeseries()
        series.add(GaugeSample("worker", 0, 1.0, 10, 1, seq=1))
        series.add(GaugeSample("worker", 1, 3.0, 10, 1, seq=1))
        series.add(GaugeSample("worker", 0, 2.0, 20, 2, seq=2))
        series.add(GaugeSample("worker", 1, 3.0, 10, 1, seq=2))
        assert series.tiers() == ["worker"]
        assert series.latest("worker")[0].busy_cost == 2.0
        fractions = series.busy_fractions("worker")
        assert fractions[0] == pytest.approx(0.4)
        assert fractions[1] == pytest.approx(0.6)

    def test_latest_covers_only_the_most_recent_drain(self):
        # Worker 1 dies after the seq-1 drain: its last sample no longer
        # counts as live state.  A second drain at the same seq (window
        # close, then the barrier) is told apart by the repeated endpoint.
        series = TierTimeseries()
        for endpoint in (0, 1, 2):
            series.add(GaugeSample("worker", endpoint, 1.0, 10, 1, seq=1))
        series.add(GaugeSample("merger", 0, 5.0, 10, 1, seq=1))
        for seq in (2, 2):
            series.add(GaugeSample("worker", 0, 3.0, 10, 1, seq=seq))
            series.add(GaugeSample("worker", 2, 1.0, 10, 1, seq=seq))
        assert sorted(series.latest("worker")) == [0, 2]
        assert series.busy_fractions("worker") == {0: 0.75, 2: 0.25}
        # Other tiers keep their own most recent drain.
        assert sorted(series.latest("merger")) == [0]

    def test_idle_tier_reports_uniform_fractions(self):
        series = TierTimeseries()
        series.add(GaugeSample("merger", 0, 0.0, 0, 0))
        series.add(GaugeSample("merger", 1, 0.0, 0, 0))
        assert series.busy_fractions("merger") == {0: 0.5, 1: 0.5}
        assert series.busy_fractions("worker") == {}


class TestHub:
    def test_ring_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.telemetry.RING_SIZE", 4)
        hub = TelemetryHub(TelemetrySpec())
        for seq in range(10):
            hub.record(LifecycleEvent("checkpoint", seq, float(seq)))
        events = hub.events()
        assert len(events) == 4
        assert [event.seq for event in events] == [6, 7, 8, 9]

    def test_now_ms_is_monotonic(self):
        hub = TelemetryHub(TelemetrySpec())
        first = hub.now_ms()
        second = hub.now_ms()
        assert second >= first >= 0.0


class TestRenderTimeline:
    def test_sections_and_annotations(self):
        events = [
            GaugeSample("worker", 0, 4.0, 100, 7, seq=1),
            WindowSpan(1, 0, 64, (
                SpanHop("route", "dispatcher", 0.0, 2.0, 2),
                SpanHop("match", "worker", 2.0, 1.0, 4),
                SpanHop("merge", "merger", 3.0, 0.5, 2),
            )),
            LifecycleEvent("adjustment", 1, 4.0, epoch=2),
            LifecycleEvent("checkpoint", 2, 9.0, detail="tuples=128"),
        ]
        text = render_timeline(events)
        assert "== Per-tier utilisation ==" in text
        assert "== Window trace waterfall ==" in text
        assert "window    1" in text
        for stage in ("route", "match", "merge"):
            assert stage in text
        # The adjustment fired at window 1 (inline annotation); the
        # checkpoint's seq has no span, so it trails the waterfall.
        assert "  ** adjustment — epoch 2" in text
        assert "** checkpoint" in text and "tuples=128" in text

    def test_empty_events_render_placeholders(self):
        text = render_timeline([])
        assert "(no gauge samples)" in text
        assert "(no window spans)" in text


class TestTelemetryServer:
    def test_serves_current_render(self):
        state = {"value": "first"}
        server = TelemetryServer(lambda: state["value"], port=0)
        try:
            url = "http://127.0.0.1:%d/" % server.port
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.read().decode("utf-8") == "first"
            state["value"] = "second"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.read().decode("utf-8") == "second"
        finally:
            server.close()


# ----------------------------------------------------------------------
# Cluster integration: spans, gauges, timeline content
# ----------------------------------------------------------------------
class TestClusterTelemetry:
    # Dual routing (the drain of a global adjustment) runs through the
    # same window executor, routed inline.
    @pytest.mark.parametrize("dual_drain", [False, True], ids=["deferred", "dual-drain"])
    def test_every_window_traced_with_all_three_hops(self, tmp_path, dual_drain):
        plan, tuples = make_alpha_beta_workload()
        path = str(tmp_path / "t.jsonl")

        def dual(cluster):
            cluster.replace_routing_index(DualRoutingIndex(
                cluster.routing_index, plan.to_gridt(cluster.config.granularity)
            ))

        with replayed(
            plan, tuples, batch_size=64, telemetry=TelemetrySpec(path=path),
            prepare=dual if dual_drain else None,
        ) as (cluster, _):
            events = cluster.telemetry_events()
        spans = [event for event in events if isinstance(event, WindowSpan)]
        expected_windows = -(-len(tuples) // 64)  # ceil(len / batch_size)
        assert len(spans) == expected_windows
        assert [span.seq for span in spans] == list(range(1, expected_windows + 1))
        for span in spans:
            assert [hop.stage for hop in span.hops] == ["route", "match", "merge"]
            assert [hop.tier for hop in span.hops] == ["dispatcher", "worker", "merger"]
            assert all(hop.elapsed_ms >= 0.0 for hop in span.hops)
        # Worker exchanges are timed into the match hop on either path.
        assert any(span.hops[1].elapsed_ms > 0.0 for span in spans)
        # Window extents tile the stream.
        assert spans[0].base == 0
        assert spans[-1].base + spans[-1].size == len(tuples)
        # Every tier contributed gauge samples.
        tiers = {event.tier for event in events if isinstance(event, GaugeSample)}
        assert tiers == {"dispatcher", "worker", "merger", "coordinator"}
        # The JSONL sink saw the same events the ring retained.
        assert read_events(path) == events

    def test_every_closed_window_drains_every_endpoint(self):
        plan, tuples = make_alpha_beta_workload()
        with replayed(plan, tuples, batch_size=64, telemetry=TelemetrySpec()) as (cluster, _):
            events = cluster.telemetry_events()
        spans = [event for event in events if isinstance(event, WindowSpan)]
        drained = {}
        for event in events:
            if isinstance(event, GaugeSample):
                drained.setdefault(event.seq, set()).add((event.tier, event.endpoint_id))
        expected = {("dispatcher", 0), ("dispatcher", 1), ("coordinator", 0)}
        expected |= {("worker", worker) for worker in range(4)}
        for span in spans:
            assert expected <= drained[span.seq]
            assert any(tier == "merger" for tier, _ in drained[span.seq])

    def test_disabled_cluster_has_no_telemetry_surface(self):
        plan, tuples = make_alpha_beta_workload()
        with replayed(plan, tuples, batch_size=64) as (cluster, _):
            assert cluster.telemetry_events() == []

    def test_timeseries_queryable_at_adjustment_fence(self):
        plan, tuples = make_alpha_beta_workload()
        with replayed(plan, tuples, batch_size=64, telemetry=TelemetrySpec()) as (cluster, _):
            cluster.run_adjustment(
                local_adjuster=LocalLoadAdjuster(GreedySelector(), sigma=1.2)
            )
            series = timeseries(cluster.telemetry_events())
            fractions = series.busy_fractions("worker")
            assert set(fractions) == {0, 1, 2, 3}
            assert sum(fractions.values()) == pytest.approx(1.0)
            kinds = [
                event.kind
                for event in cluster.telemetry_events()
                if isinstance(event, LifecycleEvent)
            ]
            assert "adjustment" in kinds


# ----------------------------------------------------------------------
# Perturbation-freedom matrix (the acceptance criterion)
# ----------------------------------------------------------------------
class TestPerturbationFreedom:
    @needs_cores
    def test_chaos_worker_kill_recovery(self, tmp_path):
        plan, tuples = make_alpha_beta_workload()
        fault = FaultSpec(
            action="kill", role="worker", endpoint_id=1,
            message_type="RouteBatch", after_sends=4,
        )
        runs = []
        for telemetry in (None, TelemetrySpec(path=str(tmp_path / "chaos.jsonl"))):
            with replayed(
                plan, tuples, batch_size=64, backend="multiprocess", checkpoint_every=150,
                fault=fault, telemetry=telemetry,
            ) as (cluster, report):
                runs.append((report, set(delivered_pairs(cluster)), cluster.telemetry_events()))
        off, on = runs
        assert off[0].recovery is not None and len(off[0].recovery.events) == 1
        assert on[:2] == off[:2]
        # The same fault fired at the same send: one identical recovery.
        assert on[0].recovery == off[0].recovery
        kinds = [
            event.kind for event in on[2] if isinstance(event, LifecycleEvent)
        ]
        assert "endpoint_death" in kinds
        assert "recovery" in kinds
        assert "checkpoint" in kinds
        death = next(
            event for event in on[2]
            if isinstance(event, LifecycleEvent) and event.kind == "endpoint_death"
        )
        assert death.tier == "worker" and death.endpoint_id == 1
        # The discarded worker is gone from the live view: the newest
        # gauge drain and the rendered utilisation table cover the
        # survivors only.
        series = timeseries(on[2])
        assert 0 in series.latest("worker")
        assert 1 not in series.latest("worker")
        timeline = render_timeline(on[2])
        worker_row = next(
            line for line in timeline.splitlines() if line.startswith("worker ")
        )
        assert worker_row.split()[1] == "3"
        assert " 1:" not in worker_row


# ----------------------------------------------------------------------
# One Observe -> Observation round trip per endpoint
# ----------------------------------------------------------------------
@needs_cores
class TestSingleRoundTrip:
    """Reports, gauges and the profile are views of one observation."""

    @pytest.fixture
    def cluster(self):
        plan, tuples = make_alpha_beta_workload()
        config = ClusterConfig(
            num_dispatchers=2,
            num_workers=4,
            backend="multiprocess",
            dispatch_backend="multiprocess",
            merger_backend="multiprocess",
            telemetry=TelemetrySpec(),
            profiling=ProfilingSpec(),
        )
        with Cluster(plan, config) as cluster:
            cluster.run_batched(tuples, batch_size=64)
            yield cluster

    @pytest.fixture
    def broadcasts(self, monkeypatch):
        """Every ``Fleet.broadcast``: (message type, endpoints addressed)."""
        seen = []
        broadcast = Fleet.broadcast

        def spy(fleet, message):
            seen.append((type(message).__name__, tuple(fleet.endpoint_ids)))
            return broadcast(fleet, message)

        monkeypatch.setattr(Fleet, "broadcast", spy)
        return seen

    def test_report_is_one_observe_per_endpoint(self, cluster, broadcasts):
        recorded = len(cluster.telemetry_events())
        report = cluster.report()
        # workers, dispatch shards, mergers: asked once each, one type.
        assert broadcasts == [
            ("Observe", (0, 1, 2, 3)),
            ("Observe", (0, 1)),
            ("Observe", (0, 1)),
        ]
        # The gauges that report recorded are the report's own numbers.
        gauges = [
            event
            for event in cluster.telemetry_events()[recorded:]
            if isinstance(event, GaugeSample)
        ]
        by_tier = {
            tier: {g.endpoint_id: g for g in gauges if g.tier == tier}
            for tier in ("worker", "dispatcher", "merger")
        }
        assert sorted(by_tier["worker"]) == [0, 1, 2, 3]
        assert sorted(by_tier["merger"]) == [0, 1]
        for endpoint, gauge in by_tier["worker"].items():
            assert gauge.memory_bytes == report.worker_memory[endpoint]
        for endpoint, gauge in by_tier["dispatcher"].items():
            assert gauge.memory_bytes == report.dispatcher_memory[endpoint]
        for endpoint, gauge in by_tier["merger"].items():
            assert gauge.busy_cost == report.merger_busy[endpoint]

    def test_profile_report_is_the_profile_of_one_observation(self, cluster, broadcasts):
        profile = cluster.profile_report()
        assert [kind for kind, _ in broadcasts] == ["Observe"] * 3
        workers = cluster.transport.observe()
        shards = cluster._dispatch.observe()
        mergers = cluster._merge.observe()
        assert profile.matchers == tuple(o.profile for o in workers.values())
        # (routers[0] is the coordinator's own inline counters, endpoint -1.)
        assert profile.routers[1:] == tuple(o.profile for o in shards.values())
        assert profile.mergers == tuple(o.profile for o in mergers.values())
        assert sum(event.matches for event in profile.matchers) > 0

    def test_dispatch_observe_yields_to_a_window_in_flight(self, cluster, broadcasts):
        dispatch = cluster._dispatch
        _, tuples = make_alpha_beta_workload()
        _, seq = cluster._submit(tuples[:64])
        del broadcasts[:]
        # A replied request now would pair with the routed window's reply.
        assert dispatch.observe() == {}
        assert broadcasts == []
        routed = dispatch.collect_window(seq)
        assert sorted(list(routed.decisions) + list(routed.plans)) == list(range(64))
        assert sorted(dispatch.observe()) == [0, 1]


# ----------------------------------------------------------------------
# `repro report` CLI (rendered from a real run's JSONL)
# ----------------------------------------------------------------------
class TestReportCLI:
    def test_report_renders_run_timeline(self, tmp_path):
        plan, tuples = make_alpha_beta_workload()
        path = str(tmp_path / "run.jsonl")
        run(
            plan, tuples, batch_size=64,
            telemetry=TelemetrySpec(path=path),
            adjust_every=200,
            checkpoint_every=200,
            local_adjuster=LocalLoadAdjuster(GreedySelector(), sigma=1.2),
        )
        buffer = io.StringIO()
        assert cli_main(["report", path], out=buffer) == 0
        text = buffer.getvalue()
        assert "== Per-tier utilisation ==" in text
        for tier in ("dispatcher", "worker", "merger", "coordinator"):
            assert tier in text
        assert "window    1" in text
        for stage in ("route", "match", "merge"):
            assert stage in text
        assert "adjustment" in text
        assert "checkpoint" in text

    def test_report_missing_file_exits_one(self, tmp_path):
        buffer = io.StringIO()
        assert cli_main(["report", str(tmp_path / "absent.jsonl")], out=buffer) == 1
        assert "cannot read" in buffer.getvalue()

    def test_report_empty_file_exits_one(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        buffer = io.StringIO()
        assert cli_main(["report", str(path)], out=buffer) == 1
        assert "no telemetry events" in buffer.getvalue()
