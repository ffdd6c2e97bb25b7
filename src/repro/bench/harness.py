"""Shared experiment harness for the per-figure benchmarks.

Every figure in Section VI is regenerated from the same primitive: build a
workload (dataset x query group x ``mu``), compute a partition plan with one
of the partitioners, deploy it on a simulated cluster, replay the tuple
stream and read the metrics off the run report.  The harness centralises
that recipe so the per-figure benchmark modules stay declarative.

Scales are laptop-sized: the paper's ``mu`` of 1M–20M queries maps to
1 000–4 000 live queries via ``ExperimentScale`` (see DESIGN.md for why the
qualitative shapes are preserved).  Set the environment variable
``PS2STREAM_BENCH_SCALE`` to a float (default 1.0) to grow or shrink every
experiment proportionally.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..adjustment import GlobalAdjuster, GreedySelector, LocalLoadAdjuster
from ..partitioning import (
    FrequencyTextPartitioner,
    GridSpacePartitioner,
    HybridPartitioner,
    HypergraphTextPartitioner,
    KDTreeSpacePartitioner,
    MetricTextPartitioner,
    Partitioner,
    PartitionPlan,
    RTreeSpacePartitioner,
)
from ..runtime import Cluster, ClusterConfig, RunReport
from ..workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "PARTITIONER_FACTORIES",
    "bench_scale",
    "make_partitioner",
    "make_stream",
    "run_experiment",
    "format_table",
]


#: Factories for every partitioning strategy evaluated in the paper.
PARTITIONER_FACTORIES: Dict[str, Callable[[], Partitioner]] = {
    "frequency": FrequencyTextPartitioner,
    "hypergraph": HypergraphTextPartitioner,
    "metric": MetricTextPartitioner,
    "grid": GridSpacePartitioner,
    "kd-tree": KDTreeSpacePartitioner,
    "r-tree": RTreeSpacePartitioner,
    "hybrid": HybridPartitioner,
}


def bench_scale() -> float:
    """Global scale multiplier controlled by ``PS2STREAM_BENCH_SCALE``."""
    try:
        return max(0.05, float(os.environ.get("PS2STREAM_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


def make_partitioner(name: str) -> Partitioner:
    """Instantiate a partitioner by its bench name."""
    try:
        factory = PARTITIONER_FACTORIES[name]
    except KeyError:
        raise ValueError("unknown partitioner %r" % name) from None
    return factory()


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the paper's experimental matrix, at reproduction scale.

    ``mu`` is the live query population (the paper's 5M/10M/20M scaled
    down), ``num_objects`` the number of streamed objects after warm-up and
    ``sample_objects`` the object sample the partitioners are driven with.
    The fields here describe the workload and how it is replayed; the
    deployment — tier sizes, backends, sink, checkpoints, faults,
    telemetry, profiling — is ``cluster``, deployed as is and never
    restated here.
    """

    dataset: str = "us"
    group: str = "Q1"
    mu: int = 2000
    num_objects: int = 4000
    sample_objects: int = 3000
    seed: int = 1
    #: Tuples per execution window; 0 replays the stream tuple by tuple
    #: (the per-tuple driver), >= 2 uses the batched engine.
    batch_size: int = 0
    #: Tuples between closed-loop adjustment rounds (Section V); 0 runs the
    #: stream without any dynamic adjustment.
    adjust_every: int = 0
    #: Which adjusters the closed loop drives: "local", "global" or "both".
    adjuster: str = "local"
    #: The deployment the plan is replayed on.
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    def scaled(self) -> "ExperimentConfig":
        """Apply the global bench scale to the workload sizes."""
        scale = bench_scale()
        if scale == 1.0:
            return self
        return replace(
            self,
            mu=max(100, int(self.mu * scale)),
            num_objects=max(200, int(self.num_objects * scale)),
            sample_objects=max(200, int(self.sample_objects * scale)),
        )

    def key(self, partitioner_name: str) -> Tuple:
        """Cache key identifying a (config, partitioner) experiment run:
        the frozen (hence hashable) scaled config itself, every field of
        it and of its ``cluster`` included."""
        return (self.scaled(), partitioner_name)


@dataclass
class ExperimentResult:
    """Everything a figure needs from one experiment run."""

    config: ExperimentConfig
    partitioner_name: str
    plan: PartitionPlan
    cluster: Cluster
    report: RunReport
    partition_seconds: float
    run_seconds: float

    def report_at(self, input_rate: Optional[float]) -> RunReport:
        """Recompute the report at a specific input rate (shared latency axis)."""
        return self.cluster.report(input_rate=input_rate)

    def close(self) -> None:
        """Release the cluster's worker backend (multiprocess workers)."""
        self.cluster.close()


def make_stream(config: ExperimentConfig) -> WorkloadStream:
    """Build the (deterministic) workload stream for a configuration."""
    config = config.scaled()
    tweets = make_dataset(config.dataset, seed=config.seed)
    queries = QueryGenerator(tweets, seed=config.seed + 1)
    stream_config = StreamConfig(mu=config.mu, group=config.group)
    return WorkloadStream(tweets, queries, stream_config, seed=config.seed + 2)


def run_experiment(partitioner_name: str, config: ExperimentConfig) -> ExperimentResult:
    """Partition, deploy and replay one experiment configuration."""
    scaled = config.scaled()
    stream = make_stream(scaled)
    sample = stream.partitioning_sample(scaled.sample_objects)
    partitioner = make_partitioner(partitioner_name)

    started = time.perf_counter()
    plan = partitioner.partition(sample, scaled.cluster.num_workers)
    partition_seconds = time.perf_counter() - started

    local_adjuster = global_adjuster = None
    if scaled.adjust_every > 0:
        if scaled.adjuster not in ("local", "global", "both"):
            raise ValueError("unknown adjuster %r" % scaled.adjuster)
        if scaled.adjuster in ("local", "both"):
            local_adjuster = LocalLoadAdjuster(GreedySelector())
        if scaled.adjuster in ("global", "both"):
            global_adjuster = GlobalAdjuster(HybridPartitioner())

    cluster = Cluster(plan, scaled.cluster)
    started = time.perf_counter()
    try:
        # batch_size <= 1 replays on the per-tuple reference (Cluster.run).
        report = cluster.run_batched(
            stream.tuples(scaled.num_objects),
            batch_size=scaled.batch_size,
            adjust_every=scaled.adjust_every,
            local_adjuster=local_adjuster,
            global_adjuster=global_adjuster,
        )
    except BaseException:
        # A failed replay must not leak multiprocess worker processes;
        # on success the caller owns the cluster (ExperimentResult.close).
        cluster.close()
        raise
    run_seconds = time.perf_counter() - started

    return ExperimentResult(
        config=scaled,
        partitioner_name=partitioner_name,
        plan=plan,
        cluster=cluster,
        report=report,
        partition_seconds=partition_seconds,
        run_seconds=run_seconds,
    )


def format_table(title: str, rows: Iterable[Dict[str, object]]) -> str:
    """Render experiment rows as a fixed-width table for the bench output."""
    rows = list(rows)
    if not rows:
        return "%s\n(no rows)\n" % title
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row[column])) for row in rows))
        for column in columns
    }
    lines = [title, "-" * len(title)]
    lines.append("  ".join(str(column).ljust(widths[column]) for column in columns))
    for row in rows:
        lines.append("  ".join(_fmt(row[column]).ljust(widths[column]) for column in columns))
    return "\n".join(lines) + "\n"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value >= 1000:
            return "%.0f" % value
        return "%.2f" % value
    return str(value)
