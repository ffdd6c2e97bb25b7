"""Micro-benchmark — sharded merger tier vs coordinator-side delivery.

Measures the *delivery throughput* of the merger backends on a
high-duplication workload: OR subscriptions whose two clause keywords
land on different workers under metric text partitioning, streamed
objects carrying several complete keyword pairs.  Every object matches
dozens of queries and every replicated match is produced once per
worker, so the result stream — unpickling it on the coordinator and
deduplicating it serially — dominates the reference wall clock.
Mixed-stream semantics (dedup counts, reports, adjustment rounds) are
pinned byte-identical across merger backends by ``tests/test_merge.py``;
this file answers the scaling question only.

With 4 merger shards the ``multiprocess`` merger backend must reach
>= 1.5x the inprocess delivered-results/sec: the multiprocess workers
ship their results straight into the shard inboxes
(``make_result_shipper``), so the coordinator never unpickles a result
and dedup runs on 4 cores while the workers match the next window.  The
measured numbers land in ``BENCH_merger.json`` so the perf trajectory is
tracked across PRs (the CI bench job runs this file non-blocking).

The test skips on single-core machines, where a parallel speedup is
physically impossible.

Timing protocol: per backend, one warm cluster (shard start-up and
warm-up insertions outside the clock), then one replay per pre-generated
object stream with the minimum taken (the replay loops run with garbage
collection paused, ``fabric.gc_paused``).
"""

import os
import random
import time

import pytest

from repro.bench.harness import bench_scale
from repro.core.geometry import Point, Rect
from repro.core.objects import (
    QueryInsertion,
    SpatioTextualObject,
    STSQuery,
    StreamTuple,
    TupleKind,
)
from repro.partitioning import MetricTextPartitioner
from repro.partitioning.base import WorkloadSample
from repro.runtime import Cluster, ClusterConfig

REPEATS = 3
BATCH_SIZE = 1024
NUM_MERGERS = 4
NUM_WORKERS = 2
GRANULARITY = 8
PAIRS = 30
PAIRS_PER_OBJECT = 4
BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)
FLOOR = 1.5


def _make_objects(count, seed, id_base=0):
    """Objects carrying several complete (alpha, beta) keyword pairs.

    Both keywords of a pair are present, so a pair's queries match
    wherever their clauses were posted — one result per worker replica,
    which is exactly the duplication the merger tier exists to absorb.
    ``id_base`` keeps object ids disjoint across repeat bodies: the
    mergers' dedup window outlives ``reset_period``, so a reused
    ``(query, object id)`` key from an earlier replay would demote the
    repeat's matches to duplicates and deflate the measured delivery rate.
    """
    rng = random.Random(seed)
    objects = []
    for index in range(count):
        terms = set()
        for j in rng.sample(range(PAIRS), PAIRS_PER_OBJECT):
            terms.add("alpha%d" % j)
            terms.add("beta%d" % j)
        objects.append(
            SpatioTextualObject(
                object_id=id_base + index,
                text="",
                location=Point(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
                terms=frozenset(terms),
            )
        )
    return objects


@pytest.fixture(scope="module")
def delivery_bound_workload():
    """Plan + warm-up insertions + per-repeat object bodies (delivery-bound)."""
    scale = bench_scale()
    mu = max(200, int(600 * scale))
    num_objects = max(500, int(2000 * scale))
    rng = random.Random(7)
    queries = []
    for index in range(mu):
        j = index % PAIRS
        x, y = rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)
        queries.append(
            STSQuery.create(
                "alpha%d OR beta%d" % (j, j), Rect(x, y, x + 75.0, y + 75.0)
            )
        )
    sample = WorkloadSample(
        objects=_make_objects(500, seed=1), insertions=queries, deletions=[],
        bounds=BOUNDS,
    )
    plan = MetricTextPartitioner().partition(sample, NUM_WORKERS)
    warmup = [StreamTuple(TupleKind.INSERT, QueryInsertion(query)) for query in queries]
    # Repeat 0's id range doubles as the page-warm batch; timed bodies
    # get disjoint id ranges so the dedup window never crosses replays.
    warm_body = [
        StreamTuple(TupleKind.OBJECT, obj)
        for obj in _make_objects(BATCH_SIZE, seed=99, id_base=0)
    ]
    bodies = [
        [
            StreamTuple(TupleKind.OBJECT, obj)
            for obj in _make_objects(
                num_objects, seed=100 + repeat, id_base=(repeat + 1) * 10_000_000
            )
        ]
        for repeat in range(REPEATS)
    ]
    return plan, warmup, warm_body, bodies


def _time_merge(plan, warmup, warm_body, bodies, merger_backend):
    config = ClusterConfig(
        num_workers=NUM_WORKERS,
        num_mergers=NUM_MERGERS,
        granularity=GRANULARITY,
        backend="multiprocess",
        merger_backend=merger_backend,
    )
    best_rate = 0.0
    total_delivered = 0
    with Cluster(plan, config) as cluster:
        cluster.run_batched(warmup, batch_size=4096, trace=False)
        # Page-warm the whole pipeline (worker and merger processes,
        # posting lists, pickle paths) outside the clock.
        cluster.run_batched(warm_body, batch_size=BATCH_SIZE, trace=False)
        for body in bodies:
            cluster.reset_period()
            started = time.perf_counter()
            cluster.run_batched(body, batch_size=BATCH_SIZE, trace=False)
            # A multiprocess merger may still be deduplicating shipped
            # results; the stats fetch rides the inboxes, so it fences
            # the measurement on full delivery.
            delivered = sum(
                s.delivered for s in cluster.merger_stats().values()
            )
            elapsed = time.perf_counter() - started
            total_delivered += delivered
            rate = delivered / elapsed
            if rate > best_rate:
                best_rate = rate
    return best_rate, total_delivered


def test_sharded_merger_speedup(delivery_bound_workload, record_row, record_bench):
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(
            "sharded merger speedup needs >= 2 cores (found %d); merger "
            "equivalence is covered by tests/test_merge.py" % cores
        )
    plan, warmup, warm_body, bodies = delivery_bound_workload
    ref_rate, ref_delivered = _time_merge(plan, warmup, warm_body, bodies, "inprocess")
    sharded_rate, sharded_delivered = _time_merge(
        plan, warmup, warm_body, bodies, "multiprocess"
    )
    assert ref_delivered == sharded_delivered > 0
    speedup = sharded_rate / ref_rate
    record_row(
        "Sharded merger tier vs coordinator delivery (high-duplication workload)",
        {
            "merger shards": NUM_MERGERS,
            "batch size": BATCH_SIZE,
            "inprocess delivered/s": ref_rate,
            "sharded delivered/s": sharded_rate,
            "speedup": speedup,
        },
    )
    record_bench(
        "merger",
        "merger_speedup",
        speedup,
        floor=FLOOR,
        workload="high-duplication synthetic (OR subscriptions split across "
        "workers, granularity %d, %d merger shards, %d workers)"
        % (GRANULARITY, NUM_MERGERS, NUM_WORKERS),
        extra={
            "delivered_results": ref_delivered,
            "batch_size": BATCH_SIZE,
            "merger_shards": NUM_MERGERS,
            "workers": NUM_WORKERS,
            "cpu_cores": cores,
            "inprocess_delivered_per_s": ref_rate,
            "sharded_delivered_per_s": sharded_rate,
            "speedup": speedup,
        },
    )
    assert speedup >= FLOOR, (
        "multiprocess merge must reach >= 1.5x inprocess delivered-results/sec "
        "with %d merger shards, got %.2fx" % (NUM_MERGERS, speedup)
    )
