"""Equivalence tests for the sharded merger/delivery subsystem.

The acceptance contract of the merger tier: deduplicating and delivering
match results on ``M`` merger shards — in the coordinator's interpreter
(``inprocess``), one OS process per shard (``multiprocess``) or one
loopback TCP endpoint per shard (``socket``) — must
produce **byte-identical** :class:`~repro.runtime.metrics.RunReport`
values on the same stream, for the per-tuple and batched engines, on
both worker transport backends, and through closed-loop Section V
adjustment rounds.  In the full multiprocess deployment (multiprocess
workers *and* mergers) match results must reach the shards **directly**
— the coordinator's result-hop counter stays zero.

The workload is synthetic and duplication-heavy: OR queries whose two
clause keywords land on different workers under metric text
partitioning, streamed objects carrying both keywords — every match is
produced once per replica, so the dedup path does real work.  The
wall-clock delivery speedup is measured by the opt-in
``benchmarks/test_merger_speedup.py``.
"""

import json
import random

import pytest

from repro.adjustment import GreedySelector, LocalLoadAdjuster
from repro.core import Point, Rect, STSQuery, SpatioTextualObject, StreamTuple
from repro.partitioning import MetricTextPartitioner, WorkloadSample
from repro.runtime import (
    Cluster,
    ClusterConfig,
    InProcessMerge,
    MergerNode,
    Observation,
    SinkSpec,
)
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset

from test_transport import available_backends, require_backend

MERGE_BACKENDS = ["inprocess", "multiprocess", "socket"]
#: The out-of-process merger deployments pinned against the reference.
REMOTE_MERGE_BACKENDS = ["multiprocess", "socket"]
WORKER_BACKENDS = ["inprocess", "multiprocess"]
BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


def _exploding_sink(result):
    """Module-level (hence picklable) callback that always fails."""
    raise RuntimeError("sink exploded")


def make_duplication_workload(
    num_queries=120, num_objects=400, pairs=12, workers=4, seed=5
):
    """Plan + tuples where most matches are produced on two workers.

    Each query is ``alphaJ OR betaJ``; metric text partitioning posts the
    two clauses under their own keywords, which routinely land on
    different workers.  Objects carry both keywords of one pair, so each
    (query, object) match is produced once per replica and the merger
    tier deduplicates roughly half of all results.
    """
    rng = random.Random(seed)
    queries = []
    for index in range(num_queries):
        j = index % pairs
        x, y = rng.uniform(0, 60), rng.uniform(0, 60)
        queries.append(
            STSQuery.create("alpha%d OR beta%d" % (j, j), Rect(x, y, x + 40, y + 40))
        )
    objects = []
    for index in range(num_objects):
        j = rng.randrange(pairs)
        terms = frozenset(
            {"alpha%d" % j, "beta%d" % j, "noise%d" % rng.randrange(50)}
        )
        objects.append(
            SpatioTextualObject(
                object_id=index,
                text="",
                location=Point(rng.uniform(0, 100), rng.uniform(0, 100)),
                terms=terms,
            )
        )
    sample = WorkloadSample(
        objects=objects[: num_objects // 2],
        insertions=queries,
        deletions=[],
        bounds=BOUNDS,
    )
    plan = MetricTextPartitioner().partition(sample, workers)
    tuples = [StreamTuple.insert(query) for query in queries[: num_queries - 20]]
    extra = iter(queries[num_queries - 20:])
    for index, obj in enumerate(objects):
        tuples.append(StreamTuple.object(obj))
        if index % 40 == 17:
            tuples.append(StreamTuple.insert(next(extra)))
        if index % 60 == 31:
            tuples.append(StreamTuple.delete(queries[index % 50]))
    return plan, tuples


def make_stream_workload(mu=300, group="Q1", seed=3, num_objects=800, workers=4):
    """A fig 7(a)-style slice whose imbalance triggers the local adjuster."""
    tweets = make_dataset("us", seed=seed)
    queries = QueryGenerator(tweets, seed=seed + 1)
    stream = WorkloadStream(
        tweets, queries, StreamConfig(mu=mu, group=group), seed=seed + 2
    )
    sample = stream.partitioning_sample(500)
    plan = MetricTextPartitioner().partition(sample, workers)
    return plan, list(stream.tuples(num_objects))


def run_cluster(plan, tuples, *, merger="inprocess", worker_backend="inprocess",
                workers=4, mergers=2, batch_size=0, sink=None, **run_kwargs):
    config_kwargs = dict(
        num_dispatchers=2,
        num_workers=workers,
        num_mergers=mergers,
        backend=worker_backend,
        merger_backend=merger,
    )
    if sink is not None:
        config_kwargs["sink"] = sink
    with Cluster(plan, ClusterConfig(**config_kwargs)) as cluster:
        if batch_size > 1:
            report = cluster.run_batched(tuples, batch_size=batch_size, **run_kwargs)
        else:
            report = cluster.run(tuples, **run_kwargs)
        hops = cluster.result_hops
        drained = cluster.drain_sinks() if sink is not None else None
    return report, hops, drained


class TestMergerParity:
    @pytest.mark.parametrize("batch_size", [0, 128])
    @pytest.mark.parametrize("merger", REMOTE_MERGE_BACKENDS)
    def test_sharded_merge_identical_reports(self, merger, batch_size):
        """Per-tuple and batched engines: sharded merge == inline, field for field."""
        require_backend(merger)
        plan, tuples = make_duplication_workload()
        ref, _, _ = run_cluster(plan, tuples, merger="inprocess", batch_size=batch_size)
        sharded, _, _ = run_cluster(
            plan, tuples, merger=merger, batch_size=batch_size
        )
        assert ref.matches_delivered > 0
        assert ref.matches_produced > ref.matches_delivered, (
            "the workload must replicate matches so dedup does real work"
        )
        assert sum(ref.merger_duplicates.values()) > 0
        assert sharded == ref

    @pytest.mark.parametrize("worker_backend", WORKER_BACKENDS)
    @pytest.mark.parametrize("merger", REMOTE_MERGE_BACKENDS)
    def test_identical_on_worker_backends(self, merger, worker_backend):
        """The merge backends compose with both worker transport backends."""
        require_backend(merger)
        plan, tuples = make_duplication_workload()
        ref, _, _ = run_cluster(
            plan, tuples, merger="inprocess", worker_backend=worker_backend,
            batch_size=128,
        )
        sharded, _, _ = run_cluster(
            plan, tuples, merger=merger, worker_backend=worker_backend,
            batch_size=128,
        )
        assert sharded == ref

    @pytest.mark.parametrize("worker_backend", WORKER_BACKENDS)
    @pytest.mark.parametrize("merger", REMOTE_MERGE_BACKENDS)
    def test_closed_loop_adjustment_round_identical(self, merger, worker_backend):
        """Section V rounds — fences, migrations, merger snapshots — match."""
        require_backend(merger)
        plan, tuples = make_stream_workload()

        def run(merger_backend):
            adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.2)
            report, _, _ = run_cluster(
                plan, tuples, merger=merger_backend, worker_backend=worker_backend,
                batch_size=128, adjust_every=400, local_adjuster=adjuster,
            )
            triggered = sum(1 for entry in adjuster.history if entry.triggered)
            return report, triggered, adjuster.history

        ref_report, ref_triggered, ref_history = run("inprocess")
        report, triggered, history = run(merger)
        assert ref_triggered > 0, "the adjustment loop must actually fire"
        assert triggered == ref_triggered
        assert report == ref_report
        # Fig 8/15 fidelity: each round snapshots the merger tier at its
        # fence — identical whichever backend hosts the shards.
        assert len(history) == len(ref_history)
        for entry, ref_entry in zip(history, ref_history):
            assert entry.merger_busy == ref_entry.merger_busy
            assert entry.merger_delivered == ref_entry.merger_delivered
            assert set(entry.merger_delivered) == {0, 1}

    def test_delivery_latency_accounted(self):
        """The report carries the merger-hop notification-latency path."""
        plan, tuples = make_duplication_workload()
        report, _, _ = run_cluster(plan, tuples, batch_size=128)
        assert report.delivery_mean_latency_ms > 0.0
        buckets = report.delivery_latency_buckets
        assert buckets is not None
        total = buckets.under_100ms + buckets.between_100ms_and_1s + buckets.over_1s
        assert total == pytest.approx(1.0)
        assert report.merger_busy and report.merger_delivered


class TestDirectShipping:
    def test_full_multiprocess_skips_coordinator(self):
        """Workers ship results straight to the merger shards: zero hops."""
        plan, tuples = make_duplication_workload()
        ref, ref_hops, _ = run_cluster(plan, tuples, batch_size=128)
        report, hops, _ = run_cluster(
            plan, tuples, merger="multiprocess", worker_backend="multiprocess",
            batch_size=128,
        )
        assert report == ref
        assert report.matches_delivered > 0
        assert hops == 0, "full multiprocess mode must not relay results"
        # The reference relays every produced result through the coordinator.
        assert ref_hops == ref.matches_produced

    def test_per_tuple_path_also_ships_directly(self):
        plan, tuples = make_duplication_workload(num_objects=150)
        report, hops, _ = run_cluster(
            plan, tuples, merger="multiprocess", worker_backend="multiprocess",
            batch_size=0,
        )
        assert report.matches_delivered > 0
        assert hops == 0

    def test_mixed_modes_relay_through_coordinator(self):
        """Only the *full* multiprocess deployment short-circuits the hop."""
        plan, tuples = make_duplication_workload(num_objects=150)
        for merger, worker_backend in [
            ("multiprocess", "inprocess"),
            ("inprocess", "multiprocess"),
        ]:
            report, hops, _ = run_cluster(
                plan, tuples, merger=merger, worker_backend=worker_backend,
                batch_size=128,
            )
            assert hops == report.matches_produced > 0


class TestSubscriberSinks:
    @pytest.mark.parametrize("merger", MERGE_BACKENDS)
    def test_memory_sink_collects_exactly_the_deliveries(self, merger):
        require_backend(merger)
        plan, tuples = make_duplication_workload()
        report, _, drained = run_cluster(
            plan, tuples, merger=merger, batch_size=128,
            sink=SinkSpec(kind="memory"),
        )
        assert drained is not None and set(drained) == {0, 1}
        for merger_id, delivered in report.merger_delivered.items():
            assert len(drained[merger_id]) == delivered
            # Sharding invariant: a shard only sees its own queries...
            assert all(
                result.query_id % 2 == merger_id for result in drained[merger_id]
            )
            # ...and dedup means no key is delivered twice.
            keys = [result.key() for result in drained[merger_id]]
            assert len(keys) == len(set(keys))

    def test_memory_sink_contents_identical_across_backends(self):
        plan, tuples = make_duplication_workload()
        contents = {}
        for merger in available_backends(MERGE_BACKENDS):
            _, _, drained = run_cluster(
                plan, tuples, merger=merger, batch_size=128,
                sink=SinkSpec(kind="memory"),
            )
            contents[merger] = {
                merger_id: sorted(result.key() for result in results)
                for merger_id, results in drained.items()
            }
        for merger, drained in contents.items():
            assert drained == contents["inprocess"], merger

    @pytest.mark.parametrize("merger", MERGE_BACKENDS)
    def test_jsonl_sink_writes_per_shard_files(self, merger, tmp_path):
        require_backend(merger)
        plan, tuples = make_duplication_workload()
        path = str(tmp_path / ("deliveries-%s.jsonl" % merger))
        report, _, _ = run_cluster(
            plan, tuples, merger=merger, batch_size=128,
            sink=SinkSpec(kind="jsonl", path=path),
        )
        for merger_id, delivered in report.merger_delivered.items():
            shard_path = "%s.m%d" % (path, merger_id)
            with open(shard_path, encoding="utf-8") as handle:
                lines = [json.loads(line) for line in handle]
            assert len(lines) == delivered
            assert all(line["query_id"] % 2 == merger_id for line in lines)

    def test_callback_sink_invoked_per_delivery(self):
        plan, tuples = make_duplication_workload(num_objects=150)
        seen = []
        report, _, _ = run_cluster(
            plan, tuples, batch_size=128,
            sink=SinkSpec(kind="callback", callback=seen.append),
        )
        assert len(seen) == report.matches_delivered > 0

    def test_sink_never_changes_the_report(self, tmp_path):
        plan, tuples = make_duplication_workload(num_objects=150)
        bare, _, _ = run_cluster(plan, tuples, batch_size=128)
        sunk, _, _ = run_cluster(
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
        plan, tuples = make_duplication_workload(num_objects=150)
        for merger in available_backends(MERGE_BACKENDS):
            config = ClusterConfig(num_workers=4, num_mergers=3, merger_backend=merger)
            with Cluster(plan, config) as cluster:
                cluster.run_batched(tuples, batch_size=128)
                stats = cluster.merger_stats()
            assert list(stats) == [0, 1, 2]
            assert all(stats[m].endpoint_id == m for m in stats)

    def test_barrier_epochs_advance(self):
        plan, _ = make_duplication_workload(num_objects=0)
        config = ClusterConfig(num_workers=2, num_mergers=2,
                               merger_backend="multiprocess")
        with Cluster(plan, config) as cluster:
            assert cluster._merge.backend_name == "multiprocess"
            assert cluster._merge.barrier() == 1
            assert cluster._merge.barrier() == 2

    def test_inprocess_backend_is_reference(self):
        plan, _ = make_duplication_workload(num_objects=0)
        with Cluster(plan, ClusterConfig(num_workers=2)) as cluster:
            assert isinstance(cluster._merge, InProcessMerge)
            # Merger handles are observations on every backend.
            assert all(isinstance(m, Observation) for m in cluster.mergers)
            assert cluster.mergers == list(cluster.merger_stats().values())

    def test_close_is_idempotent_and_ends_shards(self):
        plan, _ = make_duplication_workload(num_objects=0)
        config = ClusterConfig(num_workers=2, num_mergers=2,
                               merger_backend="multiprocess")
        cluster = Cluster(plan, config)
        processes = list(cluster._merge._fleet.processes.values())
        assert all(process.is_alive() for process in processes)
        cluster.close()
        cluster.close()
        assert all(not process.is_alive() for process in processes)

    def test_unknown_merger_backend_rejected(self):
        plan, _ = make_duplication_workload(num_objects=0)
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

        plan, tuples = make_duplication_workload(num_objects=150)
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
        plan, tuples = make_duplication_workload(num_objects=150)
        for merger in available_backends(MERGE_BACKENDS):
            config = ClusterConfig(num_workers=4, merger_backend=merger)
            with Cluster(plan, config) as cluster:
                cluster.run_batched(tuples, batch_size=128)
                assert sum(s.delivered for s in cluster.merger_stats().values()) > 0
                cluster.reset_period()
                stats = cluster.merger_stats()
                assert sum(s.delivered for s in stats.values()) == 0
                assert sum(s.busy_cost for s in stats.values()) == 0.0
