"""Ablation benches for design choices called out in DESIGN.md.

These go beyond the paper's figures:

* dispatcher routing cost — kdt-tree (O(log m) traversal) versus the
  flattened gridt index (constant-time cell lookup), the trade-off that
  motivates Section IV-C;
* the hybrid partitioner's text-similarity threshold δ;
* the GI2 / gridt cell granularity (the paper fixes 2^6 empirically).
"""

import pytest

from repro.bench import ExperimentConfig, make_stream, run_experiment
from repro.partitioning import HybridConfig, HybridPartitioner
from repro.runtime import Cluster, ClusterConfig


# ----------------------------------------------------------------------
# Ablation A: kdt-tree routing vs gridt routing at the dispatcher
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def routing_setup():
    config = ExperimentConfig(group="Q1", mu=2000, num_objects=0, sample_objects=2000)
    stream = make_stream(config)
    sample = stream.partitioning_sample(config.sample_objects)
    plan = HybridPartitioner().partition(sample, config.cluster.num_workers)
    gridt = plan.to_gridt(config.cluster.granularity)
    kdt = plan.to_kdt_tree()
    objects = stream.tweets.generate(2000)
    for query in sample.insertions:
        gridt.route_insertion(query)
    return gridt, kdt, objects


def test_ablation_routing_gridt(benchmark, routing_setup, record_row):
    gridt, _, objects = routing_setup

    def route_all():
        return sum(len(gridt.route_object(obj)) for obj in objects)

    benchmark(route_all)
    record_row(
        "Ablation A: dispatcher routing structure (2000 objects)",
        {"structure": "gridt", "mean time (s)": benchmark.stats.stats.mean},
    )


def test_ablation_routing_kdt_tree(benchmark, routing_setup, record_row):
    _, kdt, objects = routing_setup

    def route_all():
        return sum(len(kdt.route_object(obj)) for obj in objects)

    benchmark(route_all)
    record_row(
        "Ablation A: dispatcher routing structure (2000 objects)",
        {"structure": "kdt-tree", "mean time (s)": benchmark.stats.stats.mean},
    )


# ----------------------------------------------------------------------
# Ablation B: hybrid text-similarity threshold delta
# ----------------------------------------------------------------------
@pytest.mark.parametrize("delta", [0.0, 0.5, 0.7, 0.9])
def test_ablation_delta_sweep(benchmark, record_row, delta):
    config = ExperimentConfig(group="Q3", mu=2000, num_objects=2500, sample_objects=2000)

    def run():
        stream = make_stream(config)
        sample = stream.partitioning_sample(config.scaled().sample_objects)
        partitioner = HybridPartitioner(HybridConfig(text_similarity_threshold=delta))
        plan = partitioner.partition(sample, config.cluster.num_workers)
        cluster = Cluster(plan, config.cluster)
        return plan, cluster.run(stream.tuples(config.scaled().num_objects))

    plan, report = benchmark.pedantic(run, rounds=1, iterations=1)
    text_units = sum(1 for unit in plan.units if unit.terms is not None)
    record_row(
        "Ablation B: hybrid similarity threshold delta (STS-US-Q3)",
        {
            "delta": delta,
            "throughput (tuples/s)": report.throughput,
            "text units": text_units,
            "total units": len(plan.units),
        },
    )


# ----------------------------------------------------------------------
# Ablation C: GI2 / gridt granularity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("granularity", [16, 32, 64, 128])
def test_ablation_granularity_sweep(benchmark, record_row, granularity):
    config = ExperimentConfig(
        group="Q1", mu=2000, num_objects=2500, sample_objects=2000,
        cluster=ClusterConfig(granularity=granularity),
    )
    result = benchmark.pedantic(
        lambda: run_experiment("hybrid", config), rounds=1, iterations=1
    )
    record_row(
        "Ablation C: GI2/gridt cell granularity (STS-US-Q1, hybrid)",
        {
            "granularity": "%dx%d" % (granularity, granularity),
            "throughput (tuples/s)": result.report.throughput,
            "dispatcher memory (MB)": result.report.avg_dispatcher_memory_mb,
            "worker memory (MB)": result.report.avg_worker_memory_mb,
        },
    )
