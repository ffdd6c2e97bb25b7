"""Micro-benchmark — socket backend overhead vs the multiprocess backend.

Measures the framing/TCP cost of the ``socket`` worker backend against
the ``multiprocess`` pipe backend on the same match-bound Figure
7(a)-style deployment ``benchmarks/test_multiprocess_speedup.py`` times:
both run one OS process per worker and overlap their window matching,
so the only difference is the wire — length-prefixed pickle-5 frames
over loopback TCP versus a ``multiprocessing`` pipe.

The floor is an *overhead bound*, not a speedup: over loopback the
socket backend must keep >= 0.7x the multiprocess tuples/sec.  Byte
equivalence of the two deployments is pinned by
``tests/test_report_golden.py``; this file answers the overhead question
only.  The measured rates land in ``BENCH_socket.json`` so the perf
trajectory is tracked across PRs (the CI bench job runs this file
non-blocking).

Timing protocol: per backend, one warm cluster (start-up, warm-up
insertions and page-warm first replay outside the clock), then repeated
replays with the minimum taken (the replay loop runs with garbage
collection paused, ``fabric.gc_paused``).
"""

import os
import socket as socket_module
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
FLOOR = 0.7


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


def test_socket_backend_overhead(match_bound_workload, record_row, record_bench):
    try:
        listener = socket_module.create_server(("127.0.0.1", 0))
        listener.close()
    except OSError as exc:  # pragma: no cover - environment-dependent
        pytest.skip("loopback sockets unavailable: %r" % exc)
    plan, warmup, body = match_bound_workload
    mp_seconds = _time_backend(plan, warmup, body, "multiprocess")
    socket_seconds = _time_backend(plan, warmup, body, "socket")
    count = len(body)
    ratio = mp_seconds / socket_seconds
    record_row(
        "Socket backend vs multiprocess (match-bound fig 7(a) workload)",
        {
            "worker processes": NUM_WORKERS,
            "batch size": BATCH_SIZE,
            "multiprocess tuples/s": count / mp_seconds,
            "socket tuples/s": count / socket_seconds,
            "socket/multiprocess": ratio,
        },
    )
    record_bench(
        "socket",
        "socket_over_multiprocess",
        ratio,
        floor=FLOOR,
        workload="fig07 STS-US-Q1 match-bound (hybrid, %d worker processes, "
        "granularity %d, loopback TCP)" % (NUM_WORKERS, GRANULARITY),
        extra={
            "tuples": count,
            "batch_size": BATCH_SIZE,
            "worker_processes": NUM_WORKERS,
            "cpu_cores": os.cpu_count() or 1,
            "multiprocess_tuples_per_s": count / mp_seconds,
            "socket_tuples_per_s": count / socket_seconds,
            "socket_over_multiprocess": ratio,
        },
    )
    assert ratio >= FLOOR, (
        "socket backend must keep >= %.1fx the multiprocess tuples/sec over "
        "loopback, got %.2fx" % (FLOOR, ratio)
    )
