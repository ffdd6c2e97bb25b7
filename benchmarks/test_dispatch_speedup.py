"""Micro-benchmark — sharded dispatch vs inline coordinator routing.

Measures the *routing throughput* of the dispatch backends on a
route-bound workload: a dense population of single-keyword subscriptions
over a coarse grid, streamed objects carrying many high-entropy noise
terms.  Every object pays full GridT routing (an H2 intersection against
large per-cell maps) while only a minority hits a posting keyword at all,
so dispatcher routing — not worker matching — dominates the serial wall
clock.
Mixed-stream semantics (updates, barriers, adjustment, migrations) are
pinned byte-identical across dispatch backends by
``tests/test_dispatch.py``; this file answers the scaling question only.

With 4 dispatcher shards the ``multiprocess`` dispatch backend must reach
>= 1.5x the inline tuples/sec: objects cross the shard pipes as compact
``(position, x, y, terms)`` probes, and the coordinator submits window
``K+1`` to the shards before running worker matching of window ``K``, so
shard routing overlaps coordinator-side merge/matching.  The measured
numbers land in ``BENCH_dispatch.json`` so the perf trajectory is tracked
across PRs (the CI bench job runs this file non-blocking).

The test skips on single-core machines, where a parallel speedup is
physically impossible.

Timing protocol: per backend, one warm cluster (shard start-up, replica
sync and warm-up insertions outside the clock), then one replay per
pre-generated object stream with the minimum taken (the replay loops
run with garbage collection paused, ``fabric.gc_paused``).  Each repeat replays a *distinct* stream.
"""

import os
import random
import time

import pytest

from repro.bench.harness import bench_scale, make_partitioner
from repro.core.geometry import Point, Rect
from repro.core.objects import (
    QueryInsertion,
    SpatioTextualObject,
    STSQuery,
    StreamTuple,
    TupleKind,
)
from repro.partitioning.base import WorkloadSample
from repro.runtime import Cluster, ClusterConfig

REPEATS = 5
BATCH_SIZE = 2048
NUM_SHARDS = 4
NUM_WORKERS = 2
GRANULARITY = 8
BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)
FLOOR = 1.5


def _make_objects(count, mu, keys, noise, seed):
    """Objects with diverse 16-term noise sets and a 40% posting-key hit.

    The noise vocabulary is deliberately small (1 500 terms): within one
    pickled window most term strings repeat and hit the pickler memo, so
    the shard pipes stay cheap while every term still costs the routing
    index a full H2 probe — the workload stresses routing, not
    serialisation.
    """
    rng = random.Random(seed)
    objects = []
    for index in range(count):
        terms = set(rng.sample(noise, 16))
        if rng.random() < 0.4:
            terms.add(keys[rng.randrange(mu)])
        objects.append(
            SpatioTextualObject(
                object_id=index,
                text="",
                location=Point(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
                terms=frozenset(terms),
            )
        )
    return objects


@pytest.fixture(scope="module")
def route_bound_workload():
    """Plan + warm-up insertions + per-repeat object bodies (route-bound)."""
    scale = bench_scale()
    mu = max(1000, int(4000 * scale))
    num_objects = max(1000, int(8000 * scale))
    rng = random.Random(7)
    keys = ["kw%d" % index for index in range(mu)]
    noise = ["noise%d" % index for index in range(1500)]
    queries = []
    for index in range(mu):
        x = rng.uniform(0.0, 99.0)
        y = rng.uniform(0.0, 99.0)
        queries.append(
            STSQuery.create(
                keys[index], Rect(x, y, min(100.0, x + 0.5), min(100.0, y + 0.5))
            )
        )
    sample_objects = _make_objects(2000, mu, keys, noise, seed=1)
    sample = WorkloadSample(
        objects=sample_objects, insertions=queries, deletions=[], bounds=BOUNDS
    )
    plan = make_partitioner("hybrid").partition(sample, NUM_WORKERS)
    warmup = [StreamTuple(TupleKind.INSERT, QueryInsertion(query)) for query in queries]
    bodies = [
        [
            StreamTuple(TupleKind.OBJECT, obj)
            for obj in _make_objects(num_objects, mu, keys, noise, seed=100 + repeat)
        ]
        for repeat in range(REPEATS)
    ]
    return plan, warmup, bodies


def _time_dispatch(plan, warmup, bodies, dispatch_backend):
    config = ClusterConfig(
        num_dispatchers=NUM_SHARDS,
        num_workers=NUM_WORKERS,
        granularity=GRANULARITY,
        dispatch_backend=dispatch_backend,
    )
    best = None
    with Cluster(plan, config) as cluster:
        cluster.run_batched(warmup, batch_size=4096, trace=False)
        # Page-warm the whole pipeline (and, for sharded dispatch, ship
        # the replica snapshots) outside the clock.
        cluster.run_batched(bodies[0][:BATCH_SIZE], batch_size=BATCH_SIZE, trace=False)
        for body in bodies:
            cluster.reset_period()
            started = time.perf_counter()
            cluster.run_batched(body, batch_size=BATCH_SIZE, trace=False)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
    return best


def test_sharded_dispatch_speedup(route_bound_workload, record_row, record_bench):
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(
            "sharded dispatch speedup needs >= 2 cores (found %d); dispatch "
            "equivalence is covered by tests/test_dispatch.py" % cores
        )
    plan, warmup, bodies = route_bound_workload
    ref_seconds = _time_dispatch(plan, warmup, bodies, "inline")
    sharded_seconds = _time_dispatch(plan, warmup, bodies, "multiprocess")
    count = len(bodies[0])
    speedup = ref_seconds / sharded_seconds
    record_row(
        "Sharded dispatch vs inline routing (route-bound workload)",
        {
            "dispatcher shards": NUM_SHARDS,
            "batch size": BATCH_SIZE,
            "inline tuples/s": count / ref_seconds,
            "sharded tuples/s": count / sharded_seconds,
            "speedup": speedup,
        },
    )
    record_bench(
        "dispatch",
        "dispatch_speedup",
        speedup,
        floor=FLOOR,
        workload="route-bound synthetic (single-keyword subscriptions, "
        "granularity %d, %d dispatcher shards, %d workers)"
        % (GRANULARITY, NUM_SHARDS, NUM_WORKERS),
        extra={
            "tuples": count,
            "batch_size": BATCH_SIZE,
            "dispatcher_shards": NUM_SHARDS,
            "workers": NUM_WORKERS,
            "cpu_cores": cores,
            "inline_tuples_per_s": count / ref_seconds,
            "sharded_tuples_per_s": count / sharded_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= FLOOR, (
        "multiprocess dispatch must reach >= 1.5x inline tuples/sec with "
        "%d dispatcher shards, got %.2fx" % (NUM_SHARDS, speedup)
    )
