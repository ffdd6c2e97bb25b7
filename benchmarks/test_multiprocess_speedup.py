"""Micro-benchmark — multiprocess worker backend vs in-process reference.

Measures the *matching throughput* of the two transport backends on a
match-bound Figure 7(a)-style deployment: STS-US-Q1 with a dense query
population on a coarse 4x4 grid, so every object probes long posting
lists (~200 candidate checks per object) and worker-side GI2 matching
dominates the wall clock.  The timed body is the object stream after
warm-up — mixed-stream semantics (updates, barriers, adjustment) are
pinned byte-identical across backends by ``tests/test_report_golden.py``;
this file answers the scaling question only.

With 4 worker processes the ``multiprocess`` backend must reach >= 1.5x
the in-process tuples/sec: the coordinator ships every worker's window
batch before collecting any reply, so the workers' matching runs overlap
on separate cores while routing stays on the coordinator.  The measured
numbers land in ``BENCH_multiprocess.json`` so the perf trajectory is
tracked across PRs (the CI bench job runs this file non-blocking).

The test skips on single-core machines, where a parallel speedup is
physically impossible (the message protocol alone then costs ~1.2x).

Timing protocol: per backend, one warm cluster (start-up, warm-up
insertions and page-warm first replay outside the clock), then repeated
replays with the minimum taken (the replay loop runs with garbage
collection paused, ``fabric.gc_paused``) — a
deployment pays worker start-up once, not per stream window.
"""

import os
import time

import pytest

from repro.bench.harness import bench_scale, make_partitioner
from repro.core import TupleKind
from repro.runtime import Cluster, ClusterConfig
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset

REPEATS = 5
BATCH_SIZE = 2048
NUM_WORKERS = 4
GRANULARITY = 4
FLOOR = 1.5


@pytest.fixture(scope="module")
def match_bound_workload():
    """Plan + warm-up stream + object-only timed body (match-bound)."""
    scale = bench_scale()
    mu = max(2000, int(32000 * scale))
    num_objects = max(1000, int(8000 * scale))
    seed = 1
    tweets = make_dataset("us", seed=seed)
    queries = QueryGenerator(tweets, seed=seed + 1)
    stream = WorkloadStream(tweets, queries, StreamConfig(mu=mu, group="Q1"), seed=seed + 2)
    sample = stream.partitioning_sample(max(1000, min(mu, 4000)))
    plan = make_partitioner("hybrid").partition(sample, NUM_WORKERS)
    warmup = list(stream.tuples(0))
    body = [
        item
        for item in stream.tuples(num_objects, include_warmup=False)
        if item.kind is TupleKind.OBJECT
    ]
    return plan, warmup, body


def _time_backend(plan, warmup, body, backend):
    config = ClusterConfig(
        num_dispatchers=4,
        num_workers=NUM_WORKERS,
        granularity=GRANULARITY,
        backend=backend,
    )
    best = None
    with Cluster(plan, config) as cluster:
        cluster.run_batched(warmup, batch_size=4096)
        for _ in range(REPEATS):
            cluster.reset_period()
            started = time.perf_counter()
            cluster.run_batched(body, batch_size=BATCH_SIZE)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
    return best


def test_multiprocess_backend_speedup(match_bound_workload, record_row, record_bench):
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip(
            "multiprocess speedup needs >= 2 cores (found %d); backend "
            "equivalence is covered by tests/test_report_golden.py" % cores
        )
    plan, warmup, body = match_bound_workload
    ref_seconds = _time_backend(plan, warmup, body, "inprocess")
    mp_seconds = _time_backend(plan, warmup, body, "multiprocess")
    count = len(body)
    speedup = ref_seconds / mp_seconds
    record_row(
        "Multiprocess backend vs in-process (match-bound fig 7(a) workload)",
        {
            "worker processes": NUM_WORKERS,
            "batch size": BATCH_SIZE,
            "inprocess tuples/s": count / ref_seconds,
            "multiprocess tuples/s": count / mp_seconds,
            "speedup": speedup,
        },
    )
    record_bench(
        "multiprocess",
        "multiprocess_speedup",
        speedup,
        floor=FLOOR,
        workload="fig07 STS-US-Q1 match-bound (hybrid, %d worker processes, "
        "granularity %d)" % (NUM_WORKERS, GRANULARITY),
        extra={
            "tuples": count,
            "batch_size": BATCH_SIZE,
            "worker_processes": NUM_WORKERS,
            "cpu_cores": cores,
            "inprocess_tuples_per_s": count / ref_seconds,
            "multiprocess_tuples_per_s": count / mp_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= FLOOR, (
        "multiprocess backend must reach >= 1.5x in-process tuples/sec with "
        "%d worker processes, got %.2fx" % (NUM_WORKERS, speedup)
    )
