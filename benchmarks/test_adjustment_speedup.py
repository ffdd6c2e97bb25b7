"""Micro-benchmark — closed-loop adjustment on the batched engine.

Replays the Figure 12 migration workload (imbalanced metric-text
deployment, STS-US-Q1, #Q = 1M scaled) with a GR local adjuster firing at
closed-loop window barriers, through ``Cluster.run`` (per-tuple) and
``Cluster.run_batched``.  Batched-with-adjustment must stay >= 1.5x the
per-tuple path — adjustment rounds must not erase the batched engine's
win — and the measured tuples/sec are recorded in ``BENCH_adjustment.json``
so the perf trajectory is tracked across PRs (the CI bench job runs this
file non-blocking).

Timing protocol: interleaved repeats, minimum taken (see
test_batched_speedup.py); the replay loop pauses garbage collection
itself (``fabric.gc_paused``).
"""

import time

from repro.adjustment import GreedySelector, LocalLoadAdjuster
from repro.bench.harness import bench_scale
from repro.partitioning import MetricTextPartitioner
from repro.runtime import Cluster, ClusterConfig
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset

REPEATS = 5
BATCH_SIZE = 512
ADJUST_EVERY = 4000
FLOOR = 1.5


def _fig12_workload():
    """The imbalanced deployment of the Figure 12 experiments, materialised."""
    scale = bench_scale()
    mu = max(200, int(2000 * scale))
    num_objects = max(1000, int(12000 * scale))
    seed = 3
    tweets = make_dataset("us", seed=seed)
    queries = QueryGenerator(tweets, seed=seed + 1)
    stream = WorkloadStream(tweets, queries, StreamConfig(mu=mu, group="Q1"), seed=seed + 2)
    sample = stream.partitioning_sample(max(1000, mu))
    plan = MetricTextPartitioner().partition(sample, 8)
    config = ClusterConfig(num_workers=8)
    tuples = list(stream.tuples(num_objects))
    return plan, config, tuples


def _time_run(plan, config, tuples, batch_size):
    cluster = Cluster(plan, config)
    adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.3)
    started = time.perf_counter()
    if batch_size > 1:
        cluster.run_batched(
            tuples, batch_size=batch_size,
            adjust_every=ADJUST_EVERY, local_adjuster=adjuster,
        )
    else:
        cluster.run(tuples, adjust_every=ADJUST_EVERY, local_adjuster=adjuster)
    return time.perf_counter() - started


def test_closed_loop_batched_speedup(record_row, record_bench):
    plan, config, tuples = _fig12_workload()
    reference = []
    batched = []
    for _ in range(REPEATS):
        reference.append(_time_run(plan, config, tuples, 0))
        batched.append(_time_run(plan, config, tuples, BATCH_SIZE))
    ref_seconds = min(reference)
    bat_seconds = min(batched)
    count = len(tuples)
    speedup = ref_seconds / bat_seconds
    record_row(
        "Closed-loop adjustment: batched vs per-tuple (fig 12 workload)",
        {
            "batch size": BATCH_SIZE,
            "adjust every": ADJUST_EVERY,
            "per-tuple tuples/s": count / ref_seconds,
            "batched tuples/s": count / bat_seconds,
            "speedup": speedup,
        },
    )
    record_bench(
        "adjustment",
        "adjustment_speedup",
        speedup,
        floor=FLOOR,
        workload="fig12 STS-US-Q1 imbalanced (metric text, 8 workers)",
        extra={
            "tuples": count,
            "batch_size": BATCH_SIZE,
            "adjust_every": ADJUST_EVERY,
            "per_tuple_tuples_per_s": count / ref_seconds,
            "batched_tuples_per_s": count / bat_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= FLOOR, (
        "batched closed loop must stay >= 1.5x the per-tuple path, got %.2fx" % speedup
    )
