"""The benchmark's workloads: stream shape, deployment, driver, paced rate.

Names are stable identifiers (``BENCHMARK.json`` lists them with the
reason each exists; README.md has the long form).  Everything here goes
through the public API only; the system under test receives generated
tuples and a :class:`ClusterConfig` - never a workload name or a seed.

Sizes are the issue's stream shapes cut to what the driver's time cap
allows (92 runs in 3420 s, three set-ups per run): the live population
``mu`` and the object count shrink together, the deployment, the driver
and the object:update ratio do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional

from repro.adjustment import GreedySelector, LocalLoadAdjuster
from repro.bench.harness import make_partitioner
from repro.runtime import Cluster, ClusterConfig, ProfilingSpec, RunReport, SinkSpec
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset

__all__ = ["BATCH_SIZE", "CORPUS_SEED", "QUERY_SEED", "WORKLOADS", "Workload"]

#: Window size of the batched drivers (the CLI default).
BATCH_SIZE = 256
#: The corpus and the query generator are pinned; ``--seed`` seeds the
#: stream driver, i.e. the Gaussian query lifetimes and with them which
#: subscription expires when.  At these sizes a different corpus seed is a
#: different country (on UK: +-15 % deliveries per object, 30 % throughput)
#: and a different query seed a different subscriber base (on the churn
#: workload: 2x the cost of an adjustment round, +-12 % service time of a
#: delivering object) - changes of workload, not run-to-run spread, and
#: larger than the bounds the metrics are gated with.
CORPUS_SEED = 1
QUERY_SEED = 2


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    group: str
    mu: int
    objects: int
    partitioner: str
    num_workers: int
    #: Paced-phase input rate, tuples per reference-host second (25-40 % of
    #: the seed's saturation throughput).
    rate: float
    objects_per_update: int = 5
    #: Objects in the partitioning sample (the harness default).
    sample_objects: int = 3000
    #: ``run_batched(batch_size=256)`` when true, per-tuple ``run`` otherwise.
    batched: bool = True
    #: Tuples between closed-loop local adjustment rounds (0 = none).
    adjust_every: int = 0
    cluster: Dict[str, Any] = field(default_factory=dict)

    def scaled(self, scale: float) -> "Workload":
        """The ``--quick`` variant: stream sizes and cadences times ``scale``."""
        if scale == 1.0:
            return self
        cluster = dict(self.cluster)
        if "checkpoint_every" in cluster:
            cluster["checkpoint_every"] = max(64, int(cluster["checkpoint_every"] * scale))
        return replace(
            self,
            mu=max(100, int(self.mu * scale)),
            objects=max(200, int(self.objects * scale)),
            sample_objects=max(200, int(self.sample_objects * scale)),
            adjust_every=int(self.adjust_every * scale),
            cluster=cluster,
        )

    # -- set-up --------------------------------------------------------
    def make_stream(self, seed: int) -> WorkloadStream:
        tweets = make_dataset(self.dataset, seed=CORPUS_SEED)
        queries = QueryGenerator(tweets, seed=QUERY_SEED)
        config = StreamConfig(
            mu=self.mu, group=self.group, objects_per_update=self.objects_per_update
        )
        return WorkloadStream(tweets, queries, config, seed=seed)

    def partition(self, sample: Any) -> Any:
        return make_partitioner(self.partitioner).partition(sample, self.num_workers)

    def make_cluster(
        self, plan: Any, sink: Any, *, profiling: bool = False, **overrides: Any
    ) -> Cluster:
        config = {"num_workers": self.num_workers, **self.cluster, **overrides}
        return Cluster(
            plan,
            ClusterConfig(
                sink=SinkSpec(kind="callback", callback=sink),
                profiling=ProfilingSpec() if profiling else None,
                **config,
            ),
        )

    # -- drivers -------------------------------------------------------
    def warm_up(self, cluster: Cluster, tuples: Iterable[Any]) -> None:
        """Replay the ``mu`` warm-up insertions through the workload's driver."""
        if self.batched:
            cluster.run_batched(tuples, batch_size=BATCH_SIZE)
        else:
            cluster.run(tuples)

    def make_adjuster(self) -> Optional[LocalLoadAdjuster]:
        """A fresh closed-loop adjuster for one replay (None without rounds)."""
        return LocalLoadAdjuster(GreedySelector()) if self.adjust_every else None

    def replay(
        self,
        cluster: Cluster,
        tuples: Iterable[Any],
        adjuster: Optional[LocalLoadAdjuster],
    ) -> RunReport:
        """Replay the body; returns the driver's own report."""
        if self.batched:
            return cluster.run_batched(
                tuples,
                batch_size=BATCH_SIZE,
                adjust_every=self.adjust_every,
                local_adjuster=adjuster,
            )
        return cluster.run(
            tuples, adjust_every=self.adjust_every, local_adjuster=adjuster
        )


_LIST: List[Workload] = [
    # fig07 flagship on the fused _process_batch_fast engine: coordinator
    # window scan + fused GridT routing and GI2 matching dominate, no
    # serialisation - routing/engine work must show here.
    Workload(
        name="us_q1_batched",
        dataset="us",
        group="Q1",
        mu=8000,
        objects=32000,
        partitioner="hybrid",
        num_workers=8,
        rate=25000.0,
    ),
    # The same stream in the distributed shape: _apply_routed_window behind
    # dispatch.py shard routers plus pickle/pipe shipping to 2 worker
    # processes (3 processes on 2 cores).  Only here do fabric/transport do
    # real work; the in-process rows must stay flat under serialisation
    # changes.
    Workload(
        name="us_q1_fabric",
        dataset="us",
        group="Q1",
        mu=8000,
        objects=12000,
        partitioner="hybrid",
        num_workers=2,
        rate=8500.0,
        cluster={
            "backend": "multiprocess",
            "dispatch_backend": "inprocess",
            "num_dispatchers": 2,
            "num_mergers": 1,
        },
    ),
    # Writes beside reads: half the tuples are inserts/deletes, replayed on
    # the per-tuple engine (Cluster.process, the CLI default) over a
    # deliberately imbalanced text plan, with closed-loop local adjustment
    # and checkpoints.  Posting/cache layouts that speed matching but slow
    # updates, or a slower batch_size=1 path, show here.
    Workload(
        name="us_q3_churn",
        dataset="us",
        group="Q3",
        mu=4000,
        objects=12000,
        objects_per_update=1,
        partitioner="metric",
        num_workers=8,
        rate=7000.0,
        batched=False,
        adjust_every=8192,
        cluster={"checkpoint_every": 16384},
    ),
    # The denser corpus: an order of magnitude more deliveries per object
    # than on US, so result construction + merger dedup + sink carry the
    # replay and routing is negligible - merger/delivery changes show
    # here, routing changes must not.
    Workload(
        name="uk_q1_fanout",
        dataset="uk",
        group="Q1",
        mu=10000,
        objects=8000,
        partitioner="hybrid",
        num_workers=8,
        rate=4000.0,
    ),
]

WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in _LIST}
