"""The sharded merger/delivery subsystem, past report equality.

The conformance matrix (``test_report_golden.py``) holds deduplicating
and delivering on merger shards — in the coordinator's interpreter
(``inprocess``), one OS process per shard (``multiprocess``) or one
loopback TCP endpoint per shard (``socket``) — to the in-process run's
report, rounds and delivered set, on the dense alpha/beta workload where
most matches are produced twice.  This file pins what a report cannot
show: in the full multiprocess deployment match results reach the shards
**directly** (the coordinator's result-hop counter stays zero), the
subscriber sinks, and the dedup window's mechanics.
"""

import json

import pytest

from repro.runtime import (
    Cluster,
    ClusterConfig,
    InProcessMerge,
    MergerNode,
    Observation,
    SinkSpec,
)

from harness import available_backends, make_alpha_beta_workload, replayed, run

MERGE_BACKENDS = available_backends(["inprocess", "multiprocess", "socket"])


def _exploding_sink(result):
    """Module-level (hence picklable) callback that always fails."""
    raise RuntimeError("sink exploded")


def test_delivery_latency_accounted():
    """The report carries the merger-hop notification-latency path."""
    plan, tuples = make_alpha_beta_workload()
    report, _ = run(plan, tuples, batch_size=128)
    assert report.delivery_mean_latency_ms > 0.0
    buckets = report.delivery_latency_buckets
    assert buckets is not None
    total = buckets.under_100ms + buckets.between_100ms_and_1s + buckets.over_1s
    assert total == pytest.approx(1.0)
    assert report.merger_busy and report.merger_delivered


class TestDirectShipping:
    def test_full_multiprocess_skips_coordinator(self):
        """Workers ship results straight to the merger shards: zero hops."""
        plan, tuples = make_alpha_beta_workload()
        with replayed(
            plan, tuples, batch_size=128, merger="multiprocess", backend="multiprocess",
        ) as (cluster, report):
            hops = cluster.result_hops
        assert report.matches_delivered > 0
        assert hops == 0, "full multiprocess mode must not relay results"

    def test_per_tuple_path_also_ships_directly(self):
        plan, tuples = make_alpha_beta_workload(num_objects=150)
        with replayed(plan, tuples, merger="multiprocess", backend="multiprocess") as (
            cluster, report,
        ):
            hops = cluster.result_hops
        assert report.matches_delivered > 0
        assert hops == 0

    def test_mixed_modes_relay_through_coordinator(self):
        """Only the *full* multiprocess deployment short-circuits the hop:
        every other one relays each produced result through the coordinator."""
        plan, tuples = make_alpha_beta_workload(num_objects=150)
        for merger, backend in [
            ("inprocess", "inprocess"),
            ("multiprocess", "inprocess"),
            ("inprocess", "multiprocess"),
        ]:
            with replayed(
                plan, tuples, batch_size=128, merger=merger, backend=backend,
            ) as (cluster, report):
                assert cluster.result_hops == report.matches_produced > 0


class TestSubscriberSinks:
    @pytest.mark.parametrize("merger", MERGE_BACKENDS)
    def test_memory_sink_collects_exactly_the_deliveries(self, merger):
        plan, tuples = make_alpha_beta_workload()
        with replayed(plan, tuples, batch_size=128, merger=merger) as (cluster, report):
            drained = cluster.drain_sinks()
        assert set(drained) == {0, 1}
        for merger_id, delivered in report.merger_delivered.items():
            assert len(drained[merger_id]) == delivered
            # Sharding invariant: a shard only sees its own queries...
            assert all(
                result.query_id % 2 == merger_id for result in drained[merger_id]
            )
            # ...and dedup means no key is delivered twice.
            keys = [result.key() for result in drained[merger_id]]
            assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("merger", MERGE_BACKENDS)
    def test_jsonl_sink_writes_per_shard_files(self, merger, tmp_path):
        plan, tuples = make_alpha_beta_workload()
        path = str(tmp_path / ("deliveries-%s.jsonl" % merger))
        report, _ = run(
            plan, tuples, batch_size=128, merger=merger,
            sink=SinkSpec(kind="jsonl", path=path),
        )
        for merger_id, delivered in report.merger_delivered.items():
            shard_path = "%s.m%d" % (path, merger_id)
            with open(shard_path, encoding="utf-8") as handle:
                lines = [json.loads(line) for line in handle]
            assert len(lines) == delivered
            assert all(line["query_id"] % 2 == merger_id for line in lines)

    def test_callback_sink_invoked_per_delivery(self):
        plan, tuples = make_alpha_beta_workload(num_objects=150)
        seen = []
        report, _ = run(
            plan, tuples, batch_size=128,
            sink=SinkSpec(kind="callback", callback=seen.append),
        )
        assert len(seen) == report.matches_delivered > 0

    def test_sink_never_changes_the_report(self, tmp_path):
        plan, tuples = make_alpha_beta_workload(num_objects=150)
        bare, _ = run(plan, tuples, batch_size=128, sink=SinkSpec())
        sunk, _ = run(
            plan, tuples, batch_size=128,
            sink=SinkSpec(kind="jsonl", path=str(tmp_path / "out.jsonl")),
        )
        assert sunk == bare

    def test_sink_spec_validation(self):
        with pytest.raises(ValueError, match="unknown sink kind"):
            SinkSpec(kind="carrier-pigeon")
        with pytest.raises(ValueError, match="needs a path"):
            SinkSpec(kind="jsonl")
        with pytest.raises(ValueError, match="needs a callable"):
            SinkSpec(kind="callback")


class TestMergerMechanics:
    def test_dedup_window_boundary(self, monkeypatch):
        """Eviction at the window boundary: oldest key out, O(1) deque pop."""
        from collections import deque
        from repro.core import MatchResult

        monkeypatch.setattr(MergerNode, "DEDUP_WINDOW", 2)
        merger = MergerNode(0)
        assert isinstance(merger._order, deque)
        assert merger.handle(MatchResult(1, 1))
        assert merger.handle(MatchResult(2, 1))
        # Window full (2 keys): both still remembered.
        assert not merger.handle(MatchResult(1, 1))
        # A third distinct key evicts the *oldest* key (1, 1), keeping
        # the newer (2, 1) and (3, 1) in the window.
        assert merger.handle(MatchResult(3, 1))
        assert not merger.handle(MatchResult(2, 1))
        assert not merger.handle(MatchResult(3, 1))
        # The evicted key is delivered again (and evicts (2, 1) in turn).
        assert merger.handle(MatchResult(1, 1))
        assert merger.handle(MatchResult(2, 1))
        assert merger.delivered == 5
        assert merger.duplicates == 3
        assert merger.received == 8

    def test_handle_many_equals_handle_one_by_one(self, monkeypatch):
        """One batch == the same results handled singly: counters, the
        exact ``busy_cost`` float, sink order, eviction at the window edge."""
        import random
        from repro.core import MatchResult

        monkeypatch.setattr(MergerNode, "DEDUP_WINDOW", 8)
        rng = random.Random(11)
        # 12 distinct keys over a window of 8: duplicates inside the window
        # and re-deliveries of evicted keys both occur.
        results = [
            MatchResult(rng.randrange(4), rng.randrange(3), subscriber_id=rng.randrange(3))
            for _ in range(400)
        ]

        class LogSink:
            def __init__(self, log):
                self.deliver = log.append

        def merger_with_log():
            log = []
            return MergerNode(0, sink=LogSink(log)), log

        single, single_log = merger_with_log()
        batched, batched_log = merger_with_log()
        delivered = sum(single.handle(result) for result in results)
        assert batched.handle_many(results[:150]) + batched.handle_many(
            iter(results[150:])
        ) == delivered
        assert 0 < single.duplicates < len(results) and single.profile.evictions > 0
        for name in ("received", "delivered", "duplicates", "busy_cost"):
            assert getattr(batched, name) == getattr(single, name), name
        # Advanced once per result: a single multiply would round differently.
        assert single.busy_cost != len(results) * MergerNode.RESULT_COST
        assert batched.profile.event(0) == single.profile.event(0)
        assert batched_log == single_log
        assert batched._seen == single._seen and batched._order == single._order

    def test_merger_stats_sorted_by_id(self):
        plan, tuples = make_alpha_beta_workload(num_objects=150)
        for merger in MERGE_BACKENDS:
            with replayed(plan, tuples, batch_size=128, mergers=3, merger=merger) as (cluster, _):
                stats = cluster.merger_stats()
            assert list(stats) == [0, 1, 2]
            assert all(stats[m].endpoint_id == m for m in stats)

    def test_barrier_epochs_advance(self):
        plan, _ = make_alpha_beta_workload(num_objects=0)
        config = ClusterConfig(num_workers=2, num_mergers=2,
                               merger_backend="multiprocess")
        with Cluster(plan, config) as cluster:
            assert cluster._merge.backend_name == "multiprocess"
            assert cluster._merge.barrier() == 1
            assert cluster._merge.barrier() == 2

    def test_inprocess_backend_is_reference(self):
        plan, _ = make_alpha_beta_workload(num_objects=0)
        with Cluster(plan, ClusterConfig(num_workers=2)) as cluster:
            assert isinstance(cluster._merge, InProcessMerge)
            # Merger handles are observations on every backend.
            assert all(isinstance(m, Observation) for m in cluster.mergers)
            assert cluster.mergers == list(cluster.merger_stats().values())

    def test_close_is_idempotent_and_ends_shards(self):
        plan, _ = make_alpha_beta_workload(num_objects=0)
        config = ClusterConfig(num_workers=2, num_mergers=2,
                               merger_backend="multiprocess")
        cluster = Cluster(plan, config)
        processes = list(cluster._merge._fleet.processes.values())
        assert all(process.is_alive() for process in processes)
        cluster.close()
        cluster.close()
        assert all(not process.is_alive() for process in processes)

    def test_unknown_merger_backend_rejected(self):
        plan, _ = make_alpha_beta_workload(num_objects=0)
        with pytest.raises(ValueError, match="unknown merger backend"):
            Cluster(plan, ClusterConfig(num_workers=2, merger_backend="telegraph"))

    def test_data_plane_error_surfaces_without_desync(self):
        """A failing delivery answers the *next* control request.

        DeliverResults is fire-and-forget, so a shard must not push an
        unsolicited error reply (it would pair with the wrong request);
        the error is parked and surfaces on the next control message,
        after which the request/reply pairing is intact again.
        """
        from repro.runtime import TransportError

        plan, tuples = make_alpha_beta_workload(num_objects=150)
        config = ClusterConfig(
            num_workers=4,
            merger_backend="multiprocess",
            sink=SinkSpec(kind="callback", callback=_exploding_sink),
        )
        with Cluster(plan, config) as cluster:
            # The run's final report is the first control read, so the
            # parked delivery error surfaces there.
            with pytest.raises(TransportError, match="sink exploded"):
                cluster.run_batched(tuples, batch_size=128)
            # Pairing survived: later control traffic behaves normally.
            stats = cluster.merger_stats()
            assert list(stats) == [0, 1]
            assert cluster._merge.barrier() == 1

    def test_reset_period_clears_merger_counters(self):
        plan, tuples = make_alpha_beta_workload(num_objects=150)
        for merger in MERGE_BACKENDS:
            with replayed(plan, tuples, batch_size=128, merger=merger) as (cluster, _):
                assert sum(s.delivered for s in cluster.merger_stats().values()) > 0
                cluster.reset_period()
                stats = cluster.merger_stats()
                assert sum(s.delivered for s in stats.values()) == 0
                assert sum(s.busy_cost for s in stats.values()) == 0.0
