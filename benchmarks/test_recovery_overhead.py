"""Micro-benchmark — checkpoint overhead on the fig 7(a) workload.

Checkpointing a worker partition (PR 8) pauses the stream at a fenced
quiescent point, requests every worker's live query assignments and
records them in the :class:`~repro.runtime.checkpoint.CheckpointStore`.
That pause is the price of recoverability, and it must stay small:
this benchmark replays the same fig 7(a)-style slice with checkpointing
off and with a checkpoint every ``CHECKPOINT_EVERY`` tuples, and pins
the checkpointed run at >= 0.9x the baseline tuples/sec (i.e. <= 10%
overhead, the acceptance bound in docs/ARCHITECTURE.md's "Checkpoint &
recovery" section).

Fault-free semantic equivalence of checkpointed runs is pinned by
``tests/test_chaos.py`` (byte-identical reports across backends); this
file answers the overhead question only.  The measured rates land in
``BENCH_recovery.json`` so the perf trajectory is tracked across PRs
(the CI bench job runs this file non-blocking).

Timing protocol mirrors ``test_socket_overhead.py``: one warm cluster
per mode (start-up, warm-up insertions and page-warm first replay
outside the clock), then repeated replays with the minimum taken (the
replay loop runs with garbage collection paused, ``fabric.gc_paused``).
"""

import os
import time

import pytest

from repro.bench.harness import bench_scale, make_partitioner
from repro.runtime import Cluster, ClusterConfig
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset

REPEATS = 5
BATCH_SIZE = 512
CHECKPOINT_EVERY = 4096
NUM_WORKERS = 4
GRANULARITY = 4
FLOOR = 0.9


@pytest.fixture(scope="module")
def fig07_workload():
    """Plan + warm-up stream + timed body of the fig 7(a) slice."""
    scale = bench_scale()
    mu = max(1000, int(8000 * scale))
    num_objects = max(1000, int(8000 * scale))
    seed = 1
    tweets = make_dataset("us", seed=seed)
    queries = QueryGenerator(tweets, seed=seed + 1)
    stream = WorkloadStream(tweets, queries, StreamConfig(mu=mu, group="Q1"), seed=seed + 2)
    sample = stream.partitioning_sample(max(1000, min(mu, 4000)))
    plan = make_partitioner("hybrid").partition(sample, NUM_WORKERS)
    warmup = list(stream.tuples(0))
    body = list(stream.tuples(num_objects, include_warmup=False))
    return plan, warmup, body


def _time_mode(plan, warmup, body, checkpoint_every):
    config = ClusterConfig(
        num_dispatchers=4,
        num_workers=NUM_WORKERS,
        granularity=GRANULARITY,
        checkpoint_every=checkpoint_every,
    )
    best = None
    checkpoints = 0
    with Cluster(plan, config) as cluster:
        cluster.run_batched(warmup, batch_size=4096)
        for _ in range(REPEATS):
            cluster.reset_period()
            started = time.perf_counter()
            cluster.run_batched(body, batch_size=BATCH_SIZE)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        if cluster.recovery is not None:
            checkpoints = cluster.recovery.store.checkpoints_taken
    return best, checkpoints


def test_checkpoint_overhead(fig07_workload, record_row, record_bench):
    plan, warmup, body = fig07_workload
    baseline_seconds, _ = _time_mode(plan, warmup, body, 0)
    checkpointed_seconds, checkpoints = _time_mode(plan, warmup, body, CHECKPOINT_EVERY)
    assert checkpoints > 0, "the checkpointed run must actually checkpoint"
    count = len(body)
    ratio = baseline_seconds / checkpointed_seconds
    record_row(
        "Checkpoint overhead (fig 7(a) workload, every %d tuples)" % CHECKPOINT_EVERY,
        {
            "workers": NUM_WORKERS,
            "batch size": BATCH_SIZE,
            "checkpoints taken": checkpoints,
            "baseline tuples/s": count / baseline_seconds,
            "checkpointed tuples/s": count / checkpointed_seconds,
            "checkpointed/baseline": ratio,
        },
    )
    record_bench(
        "recovery",
        "checkpointed_over_baseline",
        ratio,
        floor=FLOOR,
        workload="fig07 STS-US-Q1 match-bound (hybrid, %d workers, granularity %d, "
        "checkpoint every %d tuples)" % (NUM_WORKERS, GRANULARITY, CHECKPOINT_EVERY),
        extra={
            "tuples": count,
            "batch_size": BATCH_SIZE,
            "checkpoint_every": CHECKPOINT_EVERY,
            "checkpoints_taken": checkpoints,
            "cpu_cores": os.cpu_count() or 1,
            "baseline_tuples_per_s": count / baseline_seconds,
            "checkpointed_tuples_per_s": count / checkpointed_seconds,
            "checkpointed_over_baseline": ratio,
        },
    )
    assert ratio >= FLOOR, (
        "checkpointing every %d tuples must keep >= %.1fx the baseline "
        "tuples/sec, got %.2fx" % (CHECKPOINT_EVERY, FLOOR, ratio)
    )
