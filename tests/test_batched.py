"""Equivalence tests for the batched execution engine.

``Cluster.run_batched`` must produce the same simulated results as the
per-tuple driver ``Cluster.run`` on the same stream: identical
throughput, worker loads, fanout and match counts (acceptance criterion of
the batched-engine work), plus identical memory reports and latency
statistics.  Batching may only change wall-clock cost, never semantics.
"""

import pytest

from repro.core import TupleKind
from repro.partitioning import (
    HybridPartitioner,
    KDTreeSpacePartitioner,
    MetricTextPartitioner,
)
from repro.runtime import Cluster, ClusterConfig
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset

from harness import assert_equivalent, brute_force


def make_stream(mu=200, group="Q1", seed=5):
    tweets = make_dataset("us", seed=seed)
    queries = QueryGenerator(tweets, seed=seed + 1)
    return WorkloadStream(tweets, queries, StreamConfig(mu=mu, group=group), seed=seed + 2)


def build_pair(partitioner, num_objects, *, mu=200, group="Q1", seed=5, **config_kwargs):
    """Two identically configured clusters plus the identical tuple stream."""
    stream = make_stream(mu=mu, group=group, seed=seed)
    sample = stream.partitioning_sample(400)
    plan = partitioner.partition(sample, 4)
    tuples = list(stream.tuples(num_objects))
    config = ClusterConfig(num_dispatchers=2, num_workers=4, **config_kwargs)
    return Cluster(plan, config), Cluster(plan, config), tuples


class TestEquivalence:
    @pytest.mark.parametrize("batch_size", [2, 7, 64, 256, 4096])
    def test_hybrid_mixed_stream(self, batch_size):
        """Seeded mixed stream (objects + insertions + deletions), fast path."""
        reference, batched, tuples = build_pair(HybridPartitioner(), 600)
        ref_report = reference.run(tuples)
        bat_report = batched.run_batched(tuples, batch_size=batch_size)
        assert ref_report.deletions_processed > 0, "stream must exercise deletions"
        assert_equivalent(ref_report, bat_report)

    @pytest.mark.parametrize("partitioner", [
        KDTreeSpacePartitioner, MetricTextPartitioner, HybridPartitioner,
    ])
    def test_every_partitioner_family(self, partitioner):
        reference, batched, tuples = build_pair(partitioner(), 400)
        assert_equivalent(reference.run(tuples), batched.run_batched(tuples, batch_size=128))

    @pytest.mark.parametrize("group", ["Q2", "Q3"])
    def test_or_expression_groups(self, group):
        """Queries with OR clauses post multiple keywords per insertion."""
        reference, batched, tuples = build_pair(
            HybridPartitioner(), 500, mu=250, group=group, seed=17
        )
        assert_equivalent(reference.run(tuples), batched.run_batched(tuples, batch_size=100))

    def test_batch_size_one_falls_back_to_reference(self):
        reference, batched, tuples = build_pair(HybridPartitioner(), 200)
        assert_equivalent(reference.run(tuples), batched.run_batched(tuples, batch_size=1))

    def test_process_batch_partial_windows_match_process(self):
        """Interleaving process_batch windows with bare process calls."""
        reference, batched, tuples = build_pair(HybridPartitioner(), 300)
        ref_report = reference.run(tuples)
        for index, start in enumerate(range(0, len(tuples), 97)):
            window = tuples[start:start + 97]
            if index % 2 == 0:
                batched.process_batch(window)
            else:
                for item in window:
                    batched.process(item)
        assert_equivalent(ref_report, batched.report())

    def test_matches_equal_bruteforce_under_batching(self):
        """Batched delivery equals the single-process ground truth."""
        _, batched, tuples = build_pair(HybridPartitioner(), 500)
        expected = brute_force(tuples)
        batched.run_batched(tuples, batch_size=256)
        delivered = sum(merger.delivered for merger in batched.mergers)
        assert delivered == len(expected)

    def test_equivalence_across_migration(self):
        """Routing caches are invalidated by migrations between runs."""
        reference, batched, tuples = build_pair(HybridPartitioner(), 300)
        more_stream = make_stream(seed=29)
        more = list(more_stream.tuples(200))

        def migrate(cluster):
            loads = cluster.worker_load_report()
            source, target = loads.most_loaded(), loads.least_loaded()
            cells = [s.cell for s in cluster.worker_cell_stats(source)[:4]]
            if cells:
                cluster.migrate_cells(source, target, cells)

        reference.run(tuples)
        migrate(reference)
        ref_report = reference.run(more)

        batched.run_batched(tuples, batch_size=128)
        migrate(batched)
        bat_report = batched.run_batched(more, batch_size=128)
        assert_equivalent(ref_report, bat_report)


class TestRoutingCache:
    def test_route_object_batch_matches_single(self):
        stream = make_stream(seed=41)
        sample = stream.partitioning_sample(400)
        plan = HybridPartitioner().partition(sample, 4)
        index = plan.to_gridt(64)
        for query in stream.warmup_queries():
            index.route_insertion(query)
        objects = [item.payload for item in stream.tuples(200, include_warmup=False)
                   if item.kind is TupleKind.OBJECT]
        batch = index.route_object_batch(objects)
        single = [tuple(sorted(index.route_object(obj))) for obj in objects]
        assert batch == single

    def test_cache_invalidated_by_updates(self):
        stream = make_stream(seed=43)
        sample = stream.partitioning_sample(400)
        plan = HybridPartitioner().partition(sample, 4)
        index = plan.to_gridt(64)
        queries = stream.warmup_queries()
        for query in queries:
            index.route_insertion(query)
        objects = [item.payload for item in stream.tuples(300, include_warmup=False)
                   if item.kind is TupleKind.OBJECT]
        index.route_object_batch(objects)
        # Deleting every query empties H2; cached decisions must not leak.
        for query in queries:
            index.route_deletion(query)
        rerouted = index.route_object_batch(objects)
        single = [tuple(sorted(index.route_object(obj))) for obj in objects]
        assert rerouted == single
