#!/usr/bin/env python3
"""Quickstart: register subscriptions, stream objects, receive matches.

This example walks through the smallest useful PS2Stream deployment:

1. generate a tiny spatio-textual workload (synthetic geo-tweets);
2. register a handful of Spatio-Textual Subscription (STS) queries;
3. partition the workload with the hybrid partitioner;
4. deploy a simulated cluster (dispatchers, workers, mergers);
5. stream objects through it and print the matches each subscriber gets.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from collections import Counter

from repro.core import Point, Rect, STSQuery
from repro.partitioning import HybridPartitioner, WorkloadSample
from repro.runtime import Cluster, ClusterConfig, SinkSpec
from repro.core.objects import StreamTuple
from repro.workload import QueryGenerator, make_dataset


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A small synthetic corpus of geo-tweets over the US bounding box.
    # ------------------------------------------------------------------
    tweets = make_dataset("us", seed=7)
    sample_objects = tweets.generate(2000)

    # ------------------------------------------------------------------
    # 2. Subscriptions: a few hand-written ones plus synthetic Q1 queries.
    #    A subscription pairs a boolean keyword expression with a region.
    # ------------------------------------------------------------------
    new_york = Rect.from_center(Point(-74.0, 40.7), 2.0, 2.0)
    bay_area = Rect.from_center(Point(-122.3, 37.6), 2.5, 2.5)
    vocabulary = tweets.vocabulary.terms
    manual_queries = [
        STSQuery.create("%s AND %s" % (vocabulary[0], vocabulary[5]), new_york, subscriber_id=1),
        STSQuery.create("%s OR %s" % (vocabulary[10], vocabulary[20]), bay_area, subscriber_id=2),
    ]
    synthetic_queries = QueryGenerator(tweets, seed=11).generate("Q1", 500)
    queries = manual_queries + synthetic_queries

    # ------------------------------------------------------------------
    # 3. Partition the workload: the hybrid algorithm decides, per region,
    #    whether to split by space or by text (Section IV of the paper).
    # ------------------------------------------------------------------
    sample = WorkloadSample(objects=sample_objects, insertions=queries, bounds=tweets.bounds)
    plan = HybridPartitioner().partition(sample, num_workers=4)
    print("Partition plan: %d units, %d of them text-partitioned" % (
        len(plan.units), sum(1 for unit in plan.units if unit.terms is not None)))

    # ------------------------------------------------------------------
    # 4. Deploy the plan on a simulated cluster.  The merger keeps every
    #    delivered match in a memory sink, so we can see who got what.
    # ------------------------------------------------------------------
    cluster = Cluster(plan, ClusterConfig(
        num_dispatchers=2, num_workers=4, num_mergers=1, sink=SinkSpec("memory")))

    # Register all subscriptions.
    for query in queries:
        cluster.process(StreamTuple.insert(query))

    # ------------------------------------------------------------------
    # 5. Stream fresh objects and observe the deliveries.
    # ------------------------------------------------------------------
    for obj in tweets.generate(3000):
        cluster.process(StreamTuple.object(obj))

    report = cluster.report()
    notifications = Counter(
        result.subscriber_id
        for delivered in cluster.drain_sinks().values()
        for result in delivered
    )
    cluster.close()
    print("Processed %d tuples (%d objects, %d insertions)" % (
        report.tuples_processed, report.objects_processed, report.insertions_processed))
    print("Saturation throughput: %.0f tuples/s (simulated)" % report.throughput)
    print("Mean latency: %.1f ms, p95: %.1f ms" % (report.mean_latency_ms, report.p95_latency_ms))
    print("Matches delivered: %d (after merger deduplication)" % report.matches_delivered)
    for subscriber_id in (1, 2):
        print("  subscriber %d received %d notifications" % (
            subscriber_id, notifications[subscriber_id]))


if __name__ == "__main__":
    main()
