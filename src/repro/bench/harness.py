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
from dataclasses import dataclass, replace
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
from ..runtime import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    ProfilingSpec,
    RunReport,
    SinkSpec,
    TelemetrySpec,
)
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
    """

    dataset: str = "us"
    group: str = "Q1"
    mu: int = 2000
    num_objects: int = 4000
    sample_objects: int = 3000
    num_workers: int = 8
    num_dispatchers: int = 4
    num_mergers: int = 2
    granularity: int = 64
    seed: int = 1
    latency_load_fraction: float = 0.6
    #: Tuples per execution window; 0 replays the stream tuple by tuple
    #: (the per-tuple driver), >= 2 uses the batched engine.
    batch_size: int = 0
    #: Tuples between closed-loop adjustment rounds (Section V); 0 runs the
    #: stream without any dynamic adjustment.
    adjust_every: int = 0
    #: Which adjusters the closed loop drives: "local", "global" or "both".
    adjuster: str = "local"
    #: Worker transport backend: "inprocess" (reference), "multiprocess"
    #: (one OS process per worker; real multi-core matching) or "socket"
    #: (``repro serve`` endpoints over TCP).
    backend: str = "inprocess"
    #: Dispatch backend: "inline" routes on the coordinator (reference),
    #: "inprocess"/"multiprocess"/"socket" shard routing across
    #: num_dispatchers replicas of the routing index (real multi-core
    #: routing).
    dispatch_backend: str = "inline"
    #: Merger backend: "inprocess" hosts the merger shards in the
    #: coordinator (reference), "multiprocess" one OS process per shard
    #: with direct worker->merger result shipping under the multiprocess
    #: worker backend, "socket" one TCP endpoint per shard.
    merger_backend: str = "inprocess"
    #: Subscriber sink attached to every merger shard ("null", "memory"
    #: or "jsonl"; "jsonl" needs sink_path).
    sink: str = "null"
    sink_path: Optional[str] = None
    #: Path of a host-manifest JSON file for the socket backends; None
    #: makes the cluster spawn loopback ``serve`` processes itself.
    manifest: Optional[str] = None
    #: Checkpoint the workers' query assignments every N tuples (0
    #: disables checkpointing and worker recovery; see
    #: docs/ARCHITECTURE.md, "Checkpoint & recovery").
    checkpoint_every: int = 0
    #: Optional JSONL path the checkpoint store appends snapshots to.
    checkpoint_path: Optional[str] = None
    #: Chaos-harness fault plan installed into the fleets (``--fault-plan``
    #: on the CLI; :func:`repro.runtime.fabric.parse_fault_plan`).
    fault_plan: Optional[FaultPlan] = None
    #: JSONL path runtime telemetry appends events to (``--telemetry-path``
    #: on the CLI); None leaves telemetry off.  Observation-only — the run
    #: report is byte-identical either way (docs/ARCHITECTURE.md,
    #: "Telemetry").
    telemetry_path: Optional[str] = None
    #: Enable hot-loop profiling (``--profile`` on the CLI; see
    #: docs/PROFILING.md).  Observation-only like telemetry — counters
    #: never perturb the run report.
    profiling: bool = False
    #: Also run the coordinator-side sampling profiler (``repro profile
    #: --stacks-path``); only meaningful with profiling enabled.
    profile_sample: bool = False

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
        """Cache key identifying a (config, partitioner) experiment run."""
        config = self.scaled()
        return (
            config.dataset,
            config.group,
            config.mu,
            config.num_objects,
            config.sample_objects,
            config.num_workers,
            config.num_dispatchers,
            config.num_mergers,
            config.granularity,
            config.seed,
            config.batch_size,
            config.adjust_every,
            config.adjuster,
            config.backend,
            config.dispatch_backend,
            config.merger_backend,
            config.sink,
            config.sink_path,
            config.manifest,
            config.checkpoint_every,
            config.checkpoint_path,
            config.fault_plan,
            config.telemetry_path,
            config.profiling,
            config.profile_sample,
            partitioner_name,
        )


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
    plan = partitioner.partition(sample, scaled.num_workers)
    partition_seconds = time.perf_counter() - started

    cluster_config = ClusterConfig(
        num_dispatchers=scaled.num_dispatchers,
        num_workers=scaled.num_workers,
        num_mergers=scaled.num_mergers,
        granularity=scaled.granularity,
        latency_load_fraction=scaled.latency_load_fraction,
        backend=scaled.backend,
        dispatch_backend=scaled.dispatch_backend,
        merger_backend=scaled.merger_backend,
        sink=SinkSpec(kind=scaled.sink, path=scaled.sink_path),
        manifest=scaled.manifest,
        checkpoint_every=scaled.checkpoint_every,
        checkpoint_path=scaled.checkpoint_path,
        fault_plan=scaled.fault_plan,
        telemetry=(
            TelemetrySpec(path=scaled.telemetry_path)
            if scaled.telemetry_path is not None
            else None
        ),
        profiling=(
            ProfilingSpec(sample=scaled.profile_sample) if scaled.profiling else None
        ),
    )
    cluster = Cluster(plan, cluster_config)

    local_adjuster = global_adjuster = None
    if scaled.adjust_every > 0:
        if scaled.adjuster not in ("local", "global", "both"):
            raise ValueError("unknown adjuster %r" % scaled.adjuster)
        if scaled.adjuster in ("local", "both"):
            local_adjuster = LocalLoadAdjuster(GreedySelector())
        if scaled.adjuster in ("global", "both"):
            global_adjuster = GlobalAdjuster(HybridPartitioner())

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
