"""Unit and integration tests for the simulated cluster."""

import multiprocessing

import pytest

from repro.core import Rect, STSQuery, StreamTuple, TupleKind
from repro.indexes.gridt import GridTIndex
from repro.partitioning import HybridPartitioner, KDTreeSpacePartitioner
from repro.partitioning.base import PartitionPlan, PartitionUnit
from repro.runtime import Cluster, ClusterConfig


def build_cluster(stream, partitioner=None, num_workers=4, sample_objects=500, **config_kwargs):
    partitioner = partitioner if partitioner is not None else KDTreeSpacePartitioner()
    sample = stream.partitioning_sample(sample_objects)
    plan = partitioner.partition(sample, num_workers)
    config = ClusterConfig(num_dispatchers=2, num_workers=num_workers, num_mergers=2, **config_kwargs)
    return Cluster(plan, config)


class TestClusterConstruction:
    def test_processes_created(self, small_stream):
        cluster = build_cluster(small_stream, num_workers=4)
        assert len(cluster.dispatchers) == 2
        assert len(cluster.workers) == 4
        assert len(cluster.mergers) == 2

    def test_workers_share_plan_statistics(self, small_stream):
        cluster = build_cluster(small_stream)
        assert cluster.plan.statistics is not None


class TestConfigValidation:
    """``ClusterConfig`` rejects what no tier could run when it is built —
    ``num_dispatchers=0`` used to die with ``ZeroDivisionError`` on the
    first tuple, after every multiprocess endpoint had spawned."""

    @pytest.mark.parametrize("field", ["num_dispatchers", "num_workers", "num_mergers"])
    @pytest.mark.parametrize("size", [0, -2])
    def test_tier_sizes_must_be_positive(self, field, size):
        with pytest.raises(ValueError, match="%s must be at least 1" % field):
            ClusterConfig(
                backend="multiprocess", dispatch_backend="multiprocess",
                merger_backend="multiprocess", **{field: size},
            )
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "field,kind",
        [("backend", "transport"), ("dispatch_backend", "dispatch"), ("merger_backend", "merger")],
    )
    def test_backend_names_are_checked_against_the_registries(self, field, kind):
        with pytest.raises(ValueError, match="unknown %s backend 'smoke-signals'" % kind):
            ClusterConfig(**{field: "smoke-signals"})
        assert multiprocessing.active_children() == []

    def test_defaults_and_every_registered_backend_are_valid(self):
        from repro.runtime import DISPATCH_BACKENDS, MERGE_BACKENDS, TRANSPORT_BACKENDS

        assert ClusterConfig() == ClusterConfig(num_dispatchers=4, num_workers=8, num_mergers=2)
        for backend in TRANSPORT_BACKENDS:
            assert ClusterConfig(backend=backend).backend == backend
        for backend in DISPATCH_BACKENDS:
            assert ClusterConfig(dispatch_backend=backend).dispatch_backend == backend
        for backend in MERGE_BACKENDS:
            assert ClusterConfig(merger_backend=backend).merger_backend == backend


class TestProcessing:
    def test_run_produces_report(self, small_stream):
        cluster = build_cluster(small_stream)
        report = cluster.run(small_stream.tuples(400))
        assert report.tuples_processed > 400
        assert report.objects_processed == 400
        assert report.insertions_processed >= small_stream.config.mu
        assert report.throughput > 0
        assert report.mean_latency_ms > 0
        assert report.matches_delivered <= report.matches_produced

    def test_insertions_reach_some_worker(self, small_stream):
        cluster = build_cluster(small_stream)
        for item in small_stream.tuples(200):
            handled = cluster.process(item)
            if item.kind is TupleKind.INSERT:
                assert handled, "query insertion must be routed to at least one worker"

    def test_worker_memory_grows_with_queries(self, small_stream):
        cluster = build_cluster(small_stream)
        cluster.run(small_stream.tuples(100))
        report = cluster.report()
        assert sum(report.worker_memory.values()) > 0
        assert sum(report.dispatcher_memory.values()) > 0

    def test_reset_period_clears_counters(self, small_stream):
        cluster = build_cluster(small_stream)
        cluster.run(small_stream.tuples(100))
        cluster.reset_period()
        report = cluster.report()
        assert report.tuples_processed == 0
        assert report.throughput == 0.0

    def test_report_at_explicit_input_rate(self, small_stream):
        cluster = build_cluster(small_stream)
        cluster.run(small_stream.tuples(300))
        saturation = cluster.saturation_throughput()
        relaxed = cluster.report(input_rate=saturation * 0.1)
        stressed = cluster.report(input_rate=saturation * 0.95)
        assert stressed.mean_latency_ms >= relaxed.mean_latency_ms

    def test_latency_buckets_sum_to_one(self, small_stream):
        cluster = build_cluster(small_stream)
        report = cluster.run(small_stream.tuples(200))
        buckets = report.latency_buckets
        total = buckets.under_100ms + buckets.between_100ms_and_1s + buckets.over_1s
        assert total == pytest.approx(1.0)


class TestCorrectness:
    def test_matches_equal_bruteforce(self, small_stream):
        """The distributed pipeline must deliver exactly the ground-truth matches."""
        cluster = build_cluster(small_stream, partitioner=HybridPartitioner(), num_workers=4)
        live = {}
        expected = set()
        tuples = list(small_stream.tuples(600))
        for item in tuples:
            if item.kind is TupleKind.INSERT:
                live[item.payload.query_id] = item.payload.query
            elif item.kind is TupleKind.DELETE:
                live.pop(item.payload.query_id, None)
            else:
                obj = item.payload
                for query in live.values():
                    if query.matches(obj):
                        expected.add((query.query_id, obj.object_id))
        cluster.run(tuples)
        delivered = sum(merger.delivered for merger in cluster.mergers)
        assert delivered == len(expected)

    def test_different_partitioners_deliver_same_matches(self, q3_stream):
        tuples = list(q3_stream.tuples(500))
        delivered = []
        for partitioner in (KDTreeSpacePartitioner(), HybridPartitioner()):
            sample = q3_stream.partitioning_sample(300)
            plan = partitioner.partition(sample, 4)
            cluster = Cluster(plan, ClusterConfig(num_dispatchers=2, num_workers=4))
            cluster.run(tuples)
            delivered.append(sum(merger.delivered for merger in cluster.mergers))
        assert delivered[0] == delivered[1]


class TestMigration:
    def test_migrate_cells_moves_queries_and_preserves_matching(self, small_stream):
        cluster = build_cluster(small_stream, num_workers=4)
        tuples = list(small_stream.tuples(300))
        cluster.run(tuples)
        # Pick the busiest worker and move all of its populated cells away.
        loads = cluster.worker_load_report()
        source = loads.most_loaded()
        target = loads.least_loaded()
        stats = cluster.worker_cell_stats(source)
        populated = [cell.cell for cell in stats if cell.query_count > 0]
        if not populated:
            pytest.skip("no populated cells on the busiest worker")
        ids_before = {
            query.query_id
            for worker in (cluster.workers[source], cluster.workers[target])
            for query in worker.index.queries()
        }
        record = cluster.migrate_cells(source, target, populated)
        ids_after = {
            query.query_id
            for worker in (cluster.workers[source], cluster.workers[target])
            for query in worker.index.queries()
        }
        assert record.queries_moved > 0
        assert record.bytes_moved > 0
        assert record.seconds > 0
        # Queries may be deduplicated (a replica removed from the source when
        # the target already held it) but never lost.
        assert ids_before <= ids_after
        assert cluster.migrations == [record]

    def test_moved_vs_copied_queries_accounted_separately(self):
        """Regression: copied queries are not counted as moved.

        A query overlapping only migrated cells is *moved* (removed from the
        source); a query that also overlaps cells staying behind is *copied*
        (replicated to the target).  Both ship over the network, so the
        paper's migration cost (bytes, seconds) covers the sum, but the
        record must distinguish the two counts.
        """
        bounds = Rect(0.0, 0.0, 100.0, 100.0)
        plan = PartitionPlan(
            units=[PartitionUnit(region=bounds, terms=None, worker_id=0)],
            num_workers=2,
            bounds=bounds,
        )
        config = ClusterConfig(num_dispatchers=1, num_workers=2, granularity=8)
        cluster = Cluster(plan, config)
        # Cell width is 12.5: `inside` lives entirely in cell (0, 0) while
        # `spanning` also overlaps cell (1, 0), which stays on the source.
        inside = STSQuery.create("alpha", Rect(1.0, 1.0, 5.0, 5.0))
        spanning = STSQuery.create("beta", Rect(1.0, 1.0, 20.0, 5.0))
        cluster.process(StreamTuple.insert(inside))
        cluster.process(StreamTuple.insert(spanning))

        record = cluster.migrate_cells(0, 1, [(0, 0)])

        assert record.queries_moved == 1
        assert record.queries_copied == 1
        assert record.queries_shipped == 2
        # The migration cost covers every shipped query, copies included.
        assert record.bytes_moved == inside.size_bytes() + spanning.size_bytes()
        assert record.seconds > 0
        source_ids = {q.query_id for q in cluster.workers[0].index.queries()}
        target_ids = {q.query_id for q in cluster.workers[1].index.queries()}
        assert source_ids == {spanning.query_id}
        assert target_ids == {inside.query_id, spanning.query_id}

    def test_processing_continues_after_migration(self, small_stream):
        cluster = build_cluster(small_stream, num_workers=4)
        warm = list(small_stream.tuples(200))
        cluster.run(warm)
        loads = cluster.worker_load_report()
        source, target = loads.most_loaded(), loads.least_loaded()
        stats = cluster.worker_cell_stats(source)
        cells = [cell.cell for cell in stats[:5]]
        if cells:
            cluster.migrate_cells(source, target, cells)
        more = cluster.run(small_stream.tuples(200))
        assert more.objects_processed >= 400


class TestReplaceRoutingIndex:
    @pytest.mark.parametrize(
        "bounds, granularity",
        [(None, 32), (Rect(0.0, 0.0, 10.0, 10.0), 64)],
        ids=["granularity", "bounds"],
    )
    def test_foreign_grid_is_rejected(self, small_stream, bounds, granularity):
        cluster = build_cluster(small_stream, partitioner=HybridPartitioner())
        tuples = list(small_stream.tuples(300))
        cluster.run(tuples[:250])
        routing = cluster.routing_index
        foreign = GridTIndex(
            bounds if bounds is not None else cluster.bounds,
            granularity,
            cluster.plan.statistics,
        )
        with pytest.raises(ValueError):
            cluster.replace_routing_index(foreign)
        assert cluster.routing_index is routing
        report = cluster.run(tuples[250:])
        assert report.tuples_processed == len(tuples)
        # A structure over the cluster's own grid is accepted.
        cluster.replace_routing_index(cluster.plan.to_gridt(cluster.config.granularity))
