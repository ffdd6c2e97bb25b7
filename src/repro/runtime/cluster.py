"""The simulated PS2Stream cluster: dispatchers, workers and mergers.

This module is the substitute for the paper's Storm-on-EC2 deployment (see
DESIGN.md).  The cluster executes every tuple *for real* — objects are
routed through the gridt index, matched against GI2 posting lists, results
deduplicated by mergers — while time is accounted through the
Definition-1 cost model.  From the accounted busy time the simulator
derives

* **saturation throughput**: total tuples divided by the busy time of the
  bottleneck process (the quantity Figures 6, 7, 11 and 16 plot);
* **latency**: per-tuple service times inflated by a single-server
  queueing factor at a configurable input rate (Figure 8, 12(c), 15);
* **memory**: analytic footprints of the dispatcher routing index and the
  worker GI2 indexes (Figures 9 and 10).

A stream is replayed by one of two *drivers* that share one rule set and
one worker-op vocabulary:

* :meth:`Cluster.process` / :meth:`Cluster.run` — the *per-tuple driver*
  (the CLI default).  Every tuple is routed, shipped, matched and merged
  one at a time, with no window bookkeeping.
* :meth:`Cluster.process_batch` / :meth:`Cluster.run_batched` — the
  *batched driver*.  The stream is consumed in windows (``--batch-size``
  on the CLI) and every window runs through **one** deferred-barrier
  executor (:meth:`Cluster._execute_window`): objects are routed,
  charged and grouped per destination worker in a single arrival scan
  and matched in bulk (amortising posting-list purge/setup per cell); a
  query update applies to the routing index at its stream position but
  defers its worker-side effect, acting as a barrier only for objects in
  grid cells it touches; match results reach the mergers in bulk.  A
  batched run therefore produces the same throughput, worker loads,
  fanout and match counts as the per-tuple run — batching changes
  wall-clock cost, never simulated semantics.

Each rule is written once and both drivers call it: the object decision
(H2 probe or fallback) is :meth:`GridTIndex.route_cell`; the update plan
(insertion plan, its reuse at deletion — the keyword choice is
deterministic, Section IV-C — and the H2 delta) is
:func:`repro.runtime.dispatch.plan_update`, whose plan cache is dropped
whenever a migration or a routing-index swap changes H1; what a worker
is told is one of three ops — ``MatchObjects`` (a run of one per tuple),
``InsertPairs``, ``DeleteById`` — so the per-worker ``RouteBatch`` of a
per-tuple replay equals that of a window of one.  The dual index of a
global adjustment's drain
(:class:`~repro.adjustment.global_adjust.DualRoutingIndex`) implements the
same routing surface, so a drain window is an ordinary window.

The executor has two *routing sources*, selected by
``ClusterConfig.dispatch_backend``.  With ``"inline"`` (default) the
coordinator applies the two rules itself, fused into the arrival scan.
With ``"inprocess"`` / ``"multiprocess"`` / ``"socket"`` the window is
partitioned across ``num_dispatchers`` dispatcher shards
(:mod:`repro.runtime.dispatch`), each owning a replica of the routing
index: shards apply the same two rules to their slice (every replica
applies every update), the coordinator merges the position-tagged replies
into a ``RoutedWindow`` and the executor reads decisions and plans off it
instead — reports stay byte-identical to inline routing
(``tests/test_dispatch.py``, ``tests/test_window_executor.py``) while the
fabric backends route window ``K+1`` while the workers still match window
``K``.  A per-tuple replay on a sharded backend is a window of one through
the same protocol and executor.  Out-of-band H1 mutations (migrations,
splits, index swaps) bump a routing version via
:meth:`Cluster.invalidate_routing_caches`; the replicas re-sync from the
coordinator's authoritative index before the next routed window.

Either path talks to its workers exclusively through the pluggable
transport layer (:mod:`repro.runtime.transport`): routed work ships as
typed ``RouteBatch`` messages, match results come back as
``MatchResults``, and Section V adjustment rounds open with an
``AdjustBarrier`` fence.  The default ``inprocess`` backend executes the
messages synchronously against local :class:`WorkerNode` objects (the
reference semantics); ``backend="multiprocess"`` on
:class:`ClusterConfig` hosts each worker in its own OS process, with the
coordinator shipping every worker's window batch before collecting any
reply so matching runs on all cores (see docs/ARCHITECTURE.md).

Result delivery is the third pluggable tier
(:mod:`repro.runtime.merge`, ``ClusterConfig.merger_backend``): match
results are partitioned across ``num_mergers`` merger shards by
``query_id % num_mergers``.  The ``inprocess`` backend hosts the
:class:`MergerNode` shards in the coordinator (the reference, identical
to the historical inline loop); ``"multiprocess"`` runs one OS process
per shard, and — combined with the multiprocess worker backend — the
workers ship their match results straight into the shard inboxes, so
dedup/delivery of window ``K`` overlaps matching of window ``K+1`` and
the coordinator never relays a result (``Cluster.result_hops`` stays
zero; ``tests/test_merge.py``).  Delivered results feed per-shard
subscriber sinks (``ClusterConfig.sink``).

Both paths record per-tuple traces in compact parallel arrays
(:class:`_TraceStore`) rather than one Python object per tuple, so latency
reconstruction over a measurement period stays cheap at stream scale.
Batching happens *within* a measurement period: :meth:`reset_period`
starts a new period and a window never spans one, so the Section V
adjustment machinery observes exactly the same period statistics under
either execution path.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import cycle, islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Protocol, Sequence, Set, Tuple

from ..core.costmodel import CostModel, LoadReport
from ..core.geometry import Rect
from ..core.objects import MatchResult, StreamTuple, TupleKind
from ..indexes.gi2 import CellStats
from ..indexes.grid import CellCoord
from ..indexes.gridt import GridTIndex, WorkerPlan
from ..partitioning.base import PartitionPlan, WorkloadSample
from ..workload.stream import iter_windows
from .checkpoint import CheckpointStore, RecoveryEvent, RecoveryReport
from .dispatch import (
    DispatchBackend,
    DispatcherLedger,
    RoutedWindow,
    make_dispatch,
    plan_update,
)
from .fabric import FaultPlan, TransportError, WireStats, load_manifest
from .protocol import barrier_context, mutates_routing
from .merge import MergeBackend, SinkSpec, make_merge
from .merger import MergerNode
from .metrics import LatencyBuckets, LatencyTracker, RunReport, utilization_latency
from .profiling import (
    DedupProfile,
    MatchProfile,
    ProfileReport,
    ProfilingSpec,
    RouteCounters,
    RouteProfile,
    StackSampler,
)
from .telemetry import (
    GaugeSample,
    LifecycleEvent,
    Observation,
    SpanHop,
    TelemetryEvent,
    TelemetryHub,
    TelemetrySpec,
    TierTimeseries,
    WindowSpan,
    gauge_sample,
)
from .transport import (
    DeleteById,
    InsertPairs,
    MatchObjects,
    MatchResults,
    RouteBatch,
    Transport,
    WorkerOp,
    make_transport,
)
from .worker import QueryAssignment, WorkerNode

__all__ = [
    "Cluster",
    "ClusterConfig",
    "GlobalAdjusterLike",
    "LocalAdjusterLike",
    "MigrationRecord",
    "PeriodSampleCollector",
]


#: One observation of every tier: (workers, dispatch shards, mergers),
#: each keyed by ascending endpoint id.
_Snapshot = Tuple[Dict[int, Observation], Dict[int, Observation], Dict[int, Observation]]


class LocalAdjusterLike(Protocol):
    """What the closed loop needs from a Section V-A local adjuster
    (structural — the concrete adjusters live in :mod:`repro.adjustment`,
    which imports this module, so the dependency cannot point the other
    way)."""

    def adjust(self, cluster: "Cluster") -> object: ...


class GlobalAdjusterLike(Protocol):
    """What the closed loop needs from a Section V-B global adjuster."""

    def adjust(self, cluster: "Cluster", sample: Optional[WorkloadSample]) -> object: ...


@dataclass(frozen=True)
class ClusterConfig:
    """Sizing and calibration of the simulated cluster.

    The defaults mirror the paper's testbed: 4 dispatchers, 8 workers and
    one cell granularity ``2^6`` for the gridt and GI2 indexes alike.
    ``cost_unit_seconds`` converts the abstract cost units of
    :class:`~repro.core.costmodel.CostModel` into seconds; it was
    calibrated so that one object-handling unit corresponds to a few tens
    of microseconds of Python matching work.
    """

    num_dispatchers: int = 4
    num_workers: int = 8
    num_mergers: int = 2
    granularity: int = 64
    cost_model: CostModel = field(default_factory=CostModel)
    #: Seconds per cost unit.
    cost_unit_seconds: float = 20e-6
    #: Input rate (as a fraction of saturation) at which latency is reported.
    latency_load_fraction: float = 0.6
    #: Network / framework overhead per hop (source -> dispatcher -> worker),
    #: matching the millisecond-scale per-tuple latency floor of a Storm
    #: deployment on EC2.
    network_hop_ms: float = 4.0
    #: Bandwidth available for migrating queries between workers.
    migration_bandwidth_bytes_per_sec: float = 20e6
    #: Fixed network/coordination overhead per migration.
    migration_fixed_seconds: float = 0.05
    #: Worker transport backend: ``"inprocess"`` hosts every WorkerNode in
    #: the coordinator's interpreter (the reference), ``"multiprocess"``
    #: runs each worker in its own OS process (real multi-core matching),
    #: ``"socket"`` reaches ``repro serve --role worker`` endpoints over
    #: TCP (addresses from :attr:`manifest`, loopback-spawned otherwise).
    backend: str = "inprocess"
    #: Dispatch backend: ``"inline"`` routes on the coordinator (the
    #: reference), ``"inprocess"`` / ``"multiprocess"`` / ``"socket"``
    #: shard routing across ``num_dispatchers`` replicas of the routing
    #: index — the latter two one OS process (or TCP endpoint) per shard.
    dispatch_backend: str = "inline"
    #: Merger backend: ``"inprocess"`` hosts the ``num_mergers`` merger
    #: shards in the coordinator's interpreter (the reference),
    #: ``"multiprocess"`` one OS process per shard — combined with the
    #: multiprocess worker backend, workers ship match results directly
    #: to the shards and the coordinator never touches a result —
    #: ``"socket"`` one TCP endpoint per shard.
    merger_backend: str = "inprocess"
    #: Host manifest for the socket backends: a path to the JSON manifest
    #: (see :func:`repro.runtime.fabric.load_manifest`) or a
    #: :class:`~repro.runtime.fabric.ClusterManifest`.  Tiers without
    #: manifest addresses fall back to coordinator-spawned loopback
    #: ``serve`` processes.
    manifest: Optional[Any] = None
    #: Subscriber sink attached to every merger shard (null / memory /
    #: jsonl / callback; see :mod:`repro.runtime.merge`).
    sink: SinkSpec = field(default_factory=SinkSpec)
    #: How many recent (query, object) keys each merger shard remembers
    #: for deduplication.
    merger_dedup_window: int = 100_000
    #: Checkpoint the workers' query assignments every N tuples (0 — the
    #: default — disables checkpointing *and* worker recovery).  Checkpoints
    #: ride the same quiescent point as adjustment rounds: the closed-loop
    #: driver fences all three tiers, snapshots every worker's
    #: ``(cell, posting keyword)`` assignments into the cluster's
    #: :class:`~repro.runtime.checkpoint.CheckpointStore`, and an
    #: adjustment round doubles as a checkpoint.  A fault-free
    #: checkpointed run stays byte-identical across backends
    #: (``RunReport.recovery`` records only checkpoint counts and
    #: recovery events, never wall-clock state).
    checkpoint_every: int = 0
    #: Optional JSONL path the checkpoint store also appends encoded
    #: checkpoints to (for post-mortem inspection / cold restore).
    checkpoint_path: Optional[str] = None
    #: Chaos-harness fault plan: per-role
    #: :class:`~repro.runtime.fabric.FaultSpec` entries installed into the
    #: worker / merger / dispatcher fleets at construction (no-op on the
    #: in-process backends, which have no fleet to kill).
    fault_plan: Optional[FaultPlan] = None
    #: Runtime telemetry (:mod:`repro.runtime.telemetry`): ``None`` — the
    #: default — disables it entirely (zero hot-path work beyond one
    #: ``is None`` check per window).  When set, every batched window is
    #: traced route → match → merge, per-tier gauges are drained at
    #: window boundaries and adjustment barriers, and lifecycle events
    #: (adjustments, checkpoints, recoveries) are recorded — without
    #: perturbing reports: telemetry only *reads* the simulated cost
    #: accounting, and its control messages are exempt from chaos fault
    #: counting.
    telemetry: Optional[TelemetrySpec] = None
    #: Hot-loop profiling (:mod:`repro.runtime.profiling`): ``None`` — the
    #: default — disables it entirely (one ``is None`` check per window /
    #: batch).  When set, deterministic cost counters attach to the three
    #: hot paths (GI2 matching, GridT routing, merger dedup) and
    #: :meth:`Cluster.profile_report` reads them coordinator-side;
    #: ``sample=True`` additionally runs the wall-clock stack sampler in
    #: the coordinator process.  Like telemetry, profiling never perturbs
    #: a report — counters are pure counts outside the Definition-1
    #: accounting.
    profiling: Optional[ProfilingSpec] = None


@dataclass(frozen=True)
class MigrationRecord:
    """Outcome of one cell (or keyword) migration between two workers.

    ``queries_moved`` counts queries whose postings lived entirely inside
    the shipped ``(cell, posting keyword)`` pairs — they leave the source
    worker.  ``queries_copied`` counts queries that keep a remainder on
    the source (postings in cells/keywords that stay); the target receives
    only their shipped pairs, never the full footprint.  Both kinds cross
    the network once, so the migration cost of Section V (``bytes_moved``,
    ``seconds``) covers their sum.
    """

    source_worker: int
    target_worker: int
    cells: Tuple[CellCoord, ...]
    queries_moved: int
    bytes_moved: int
    seconds: float
    queries_copied: int = 0

    @property
    def queries_shipped(self) -> int:
        """Total queries transferred over the network (moved + copied)."""
        return self.queries_moved + self.queries_copied


class _TraceStore:
    """Compact per-period trace of dispatcher / worker costs.

    Latency reconstruction needs, per tuple, the dispatcher that routed it
    (id + charged cost) and the per-worker handling costs.  Holding one
    Python object per tuple dominates memory at stream scale, so the store
    keeps five parallel arrays instead: dispatcher ids/costs indexed by
    tuple, and a flattened (worker id, worker cost) sequence sliced per
    tuple through an offsets array.
    """

    __slots__ = (
        "dispatcher_ids",
        "dispatcher_costs",
        "worker_offsets",
        "worker_ids",
        "worker_costs",
    )

    def __init__(self) -> None:
        self.dispatcher_ids = array("i")
        self.dispatcher_costs = array("d")
        self.worker_offsets = array("l", [0])
        self.worker_ids = array("i")
        self.worker_costs = array("d")

    def append(
        self,
        dispatcher_id: int,
        dispatcher_cost: float,
        worker_items: Iterable[Tuple[int, float]],
    ) -> None:
        self.dispatcher_ids.append(dispatcher_id)
        self.dispatcher_costs.append(dispatcher_cost)
        worker_ids = self.worker_ids
        worker_costs = self.worker_costs
        for worker, cost in worker_items:
            worker_ids.append(worker)
            worker_costs.append(cost)
        self.worker_offsets.append(len(worker_ids))

    def extend(
        self,
        dispatcher_ids: Iterable[int],
        dispatcher_costs: Iterable[float],
        worker_items_per_tuple: Iterable[Optional[Iterable[Tuple[int, float]]]],
    ) -> None:
        """Bulk-append one window of traces (batched engine)."""
        self.dispatcher_ids.extend(dispatcher_ids)
        self.dispatcher_costs.extend(dispatcher_costs)
        worker_ids = self.worker_ids
        worker_costs = self.worker_costs
        offsets = self.worker_offsets
        for items in worker_items_per_tuple:
            if items:
                for worker, cost in items:
                    worker_ids.append(worker)
                    worker_costs.append(cost)
            offsets.append(len(worker_ids))

    def __len__(self) -> int:
        return len(self.dispatcher_ids)

    def clear(self) -> None:
        self.dispatcher_ids = array("i")
        self.dispatcher_costs = array("d")
        self.worker_offsets = array("l", [0])
        self.worker_ids = array("i")
        self.worker_costs = array("d")


class _SpanState:
    """Accumulator of one in-flight window's telemetry span.

    The deferred-barrier engine interleaves routing with matching and
    may flush several segments per window, so the match and merge hops
    accumulate across flushes; the route hop is the window's residual
    wall time (see :class:`~repro.runtime.telemetry.SpanHop`).
    """

    __slots__ = (
        "seq",
        "base",
        "size",
        "opened_ms",
        "match_ms",
        "merge_ms",
        "match_started_ms",
        "merge_started_ms",
        "match_endpoints",
    )

    def __init__(self, seq: int, base: int, size: int, opened_ms: float) -> None:
        self.seq = seq
        self.base = base
        self.size = size
        self.opened_ms = opened_ms
        self.match_ms = 0.0
        self.merge_ms = 0.0
        self.match_started_ms = -1.0
        self.merge_started_ms = -1.0
        self.match_endpoints = 0


class _WindowRun:
    """One window's flush-side accumulators, a local of ``_execute_window``.

    Never cluster state: a window that aborts mid-scan cannot leak ops
    into the next.  ``ops`` is ``None`` where a segment executes at its
    own flush (in process); where an exchange is a round trip it collects
    each worker's ordered ops for the window's single exchange, and
    ``segments`` records for every flushed object run ``(positions,
    groups, {worker: index of the run's MatchObjects in ops[worker]})``.
    """

    def __init__(
        self, base: int, num_dispatchers: int, count: int, trace: bool, round_trip: bool
    ) -> None:
        self.base = base
        self.update_costs = [0.0] * num_dispatchers
        self.insertions = [0] * num_dispatchers
        self.deletions = [0] * num_dispatchers
        self.trace_costs: Optional[List[float]] = [0.0] * count if trace else None
        self.trace_workers: Optional[List[Optional[List[Tuple[int, float]]]]] = (
            [None] * count if trace else None
        )
        self.ops: Optional[Dict[int, List[WorkerOp]]] = {} if round_trip else None
        self.segments: List[Tuple[List[int], Dict[int, List[int]], Dict[int, int]]] = []


class PeriodSampleCollector:
    """Workload sample of the current measurement period (closed loop).

    The global adjuster re-runs the partitioning algorithm on "a recent
    sample" (Section V-B).  When a global adjuster is attached to the
    closed-loop driver, the cluster collects the period's traffic here —
    capped so a long period cannot balloon — and hands a
    :class:`~repro.partitioning.base.WorkloadSample` to the adjuster at
    every window barrier, then starts over for the next period.
    """

    __slots__ = ("bounds", "max_objects", "max_queries", "_objects", "_insertions", "_deletions")

    def __init__(self, bounds: Rect, *, max_objects: int = 2000, max_queries: int = 1000) -> None:
        self.bounds = bounds
        self.max_objects = max_objects
        self.max_queries = max_queries
        self._objects: List = []
        self._insertions: List = []
        self._deletions: List = []

    def observe(self, items: Iterable[StreamTuple]) -> None:
        """Record one window of tuples (first-N per kind per period)."""
        objects = self._objects
        insertions = self._insertions
        deletions = self._deletions
        max_objects = self.max_objects
        max_queries = self.max_queries
        for item in items:
            if item.kind is TupleKind.OBJECT:
                if len(objects) < max_objects:
                    objects.append(item.payload)
            elif item.kind is TupleKind.INSERT:
                if len(insertions) < max_queries:
                    insertions.append(item.payload.query)
            elif len(deletions) < max_queries:
                deletions.append(item.payload.query)

    def sample(self) -> Optional[WorkloadSample]:
        """The period's sample, or ``None`` when nothing was observed."""
        if not self._objects and not self._insertions:
            return None
        return WorkloadSample(
            objects=list(self._objects),
            insertions=list(self._insertions),
            deletions=list(self._deletions),
            bounds=self.bounds,
        )

    def reset(self) -> None:
        """Forget the period (called after each adjustment barrier)."""
        self._objects = []
        self._insertions = []
        self._deletions = []


class Cluster:
    """A PS2Stream deployment over simulated processes."""

    def __init__(self, plan: PartitionPlan, config: Optional[ClusterConfig] = None) -> None:
        self.config = config if config is not None else ClusterConfig()
        self.plan = plan
        self.bounds: Rect = plan.bounds
        self.routing_index: GridTIndex = plan.to_gridt(self.config.granularity)
        # Every simulated dispatcher routes on the one routing structure
        # above (the memory report charges a full copy each, as in the
        # paper); what it owns is its Definition-1 cost ledger.
        self.dispatchers: List[DispatcherLedger] = [
            DispatcherLedger(index) for index in range(self.config.num_dispatchers)
        ]
        self._closed = False
        manifest = self.config.manifest
        if isinstance(manifest, str):
            manifest = load_manifest(manifest)
        # Hot-loop profiling: only a plain bool flows into the tier
        # factories (and across Init handshakes); the spec itself stays
        # coordinator-side.  The inline routing counters attach to the
        # authoritative index here — and re-attach whenever the index is
        # replaced (replace_routing_index).
        profiling = self.config.profiling
        profile_on = profiling is not None and profiling.enabled
        if profile_on:
            self.routing_index.profile = RouteCounters()
        self._sampler: Optional[StackSampler] = None
        # The merge backend owns the merger tier; it is built before the
        # transport because the multiprocess worker hosts inherit the
        # shard inboxes at spawn (direct worker→merger result shipping).
        self._merge: MergeBackend = make_merge(
            self.config.merger_backend,
            self.config.num_mergers,
            sink=self.config.sink,
            dedup_window=self.config.merger_dedup_window,
            addresses=manifest.mergers if manifest else None,
            profiling=profile_on,
        )
        # The transport owns the worker fleet: in-process workers are real
        # WorkerNode objects, fabric workers are per-endpoint proxies.
        # Coordinator code only ever talks to them through the transport's
        # exchange()/observe() surface or through the handles in self.workers.
        try:
            self.transport: Transport = make_transport(
                self.config.backend,
                list(range(self.config.num_workers)),
                bounds=self.bounds,
                granularity=self.config.granularity,
                cost_model=self.config.cost_model,
                term_statistics=plan.statistics,
                merger_endpoints=self._merge.worker_endpoints(),
                addresses=manifest.workers if manifest else None,
                profiling=profile_on,
            )
        except Exception:
            self._merge.close()
            raise
        self.workers: Dict[int, WorkerNode] = self.transport.workers  # type: ignore[assignment]
        #: Match results the coordinator itself relayed to the merger tier.
        #: Zero in the full multiprocess deployment, where workers ship
        #: results directly to the merger shards.
        self._result_hops = 0
        self._traces = _TraceStore()
        self._next_dispatcher = 0
        self._tuples_processed = 0
        self._objects = 0
        self._insertions = 0
        self._deletions = 0
        self._matches_produced = 0
        self._object_fanout_total = 0
        self._query_fanout_total = 0
        self.migrations: List[MigrationRecord] = []
        # Window-executor cache: per-query insertion plans (reused when the
        # deletion arrives).  Only valid while H1 is static;
        # invalidate_routing_caches() drops it.
        self._insertion_assignments: Dict[
            int, Tuple[Dict[int, List[Tuple[CellCoord, str]]], int]
        ] = {}
        # Sharded dispatch: shard replicas route off the coordinator; the
        # routing version stamps every out-of-band H1/H2 mutation so
        # _ensure_dispatch_synced() knows when to re-ship a snapshot.
        self._routing_version = 0
        try:
            self._dispatch: Optional[DispatchBackend] = make_dispatch(
                self.config.dispatch_backend,
                self.config.num_dispatchers,
                addresses=manifest.dispatchers if manifest else None,
                profiling=profile_on,
            )
        except Exception:
            self.transport.close()
            self._merge.close()
            raise
        # Checkpoint/recovery state: the store holds barrier-point
        # snapshots of every worker's query assignments, the update log
        # records which worker received each query update since the last
        # checkpoint (so recovery can replay the dead worker's share),
        # and the events feed RunReport.recovery.
        self._checkpoints: Optional[CheckpointStore] = (
            CheckpointStore(path=self.config.checkpoint_path)
            if self.config.checkpoint_every > 0
            else None
        )
        self._update_log: List[Tuple[int, Any]] = []
        self._recovery_events: List[RecoveryEvent] = []
        # Runtime telemetry: a coordinator-side hub (bounded ring +
        # optional JSONL sink) fed by window spans, barrier-point gauge
        # drains and lifecycle events.  None (the default) keeps every
        # hot path on a single ``is None`` check.
        telemetry = self.config.telemetry
        self._telemetry: Optional[TelemetryHub] = (
            TelemetryHub(telemetry) if telemetry is not None and telemetry.enabled else None
        )
        self._window_seq = 0
        self._span_state: Optional[_SpanState] = None
        fault_plan = self.config.fault_plan
        if fault_plan:
            self.transport.install_fault_plan(fault_plan.for_role("worker"))
            self._merge.install_fault_plan(fault_plan.for_role("merger"))
            if self._dispatch is not None:
                self._dispatch.install_fault_plan(fault_plan.for_role("dispatcher"))
        # The wall-clock stack sampler starts last so a failed tier
        # construction never leaks its thread; close() stops it.
        if profiling is not None and profile_on and profiling.sample:
            self._sampler = StackSampler(profiling.sample_interval_ms)
            self._sampler.start()

    def invalidate_routing_caches(self) -> None:
        """Drop what assumes a static H1 (call after H1 changes).

        The routing version bump marks every dispatch-shard replica stale
        — the next routed window (or memory report) re-syncs them from the
        authoritative index — and the insertion-plan cache is dropped.
        """
        self._routing_version += 1
        self._insertion_assignments.clear()

    # ------------------------------------------------------------------
    # Sharded dispatch plumbing
    # ------------------------------------------------------------------
    def _sharded_routing(self) -> bool:
        """Whether routing currently runs on the dispatch shards.

        Requires a sharded backend and a plain gridt index: the shards do
        not replicate the dual index of a global drain, which routes
        inline on the coordinator; every inline update then marks the
        replicas stale so they re-sync when sharding resumes.
        """
        return self._dispatch is not None and type(self.routing_index) is GridTIndex

    def _ensure_dispatch_synced(self) -> None:
        """Re-ship the routing index to the shards if the version moved."""
        dispatch = self._dispatch
        if dispatch is not None and dispatch.synced_version != self._routing_version:
            dispatch.sync(self.routing_index, self._routing_version)

    def _mark_routing_mutated(self) -> None:
        """Note an inline H2 mutation so stale shard replicas re-sync."""
        if self._dispatch is not None:
            self._routing_version += 1

    def _reserve_slots(self, count: int) -> int:
        """Reserve ``count`` round-robin dispatcher slots; returns the first."""
        base = self._next_dispatcher
        self._next_dispatcher = (base + count) % len(self.dispatchers)
        return base

    def _submit_window(self, items: Sequence[StreamTuple], base: int) -> int:
        """Submit one window (first dispatcher slot ``base``) to the synced shards."""
        self._ensure_dispatch_synced()
        assert self._dispatch is not None
        return self._dispatch.submit_window(items, base)

    def _process_on_shards(self, item: StreamTuple, slot: int, trace: bool) -> Set[int]:
        """Per-tuple replay on the dispatch shards: a window of one.

        The tuple rides the window protocol and the window executor from
        the slot :meth:`process` reserved, so the shards need no per-tuple
        wire protocol.  Returns the workers that handled it.
        """
        assert self._dispatch is not None
        routed = self._dispatch.collect_window(self._submit_window((item,), slot))
        self._execute_window((item,), slot, routed, trace)
        if item.kind is TupleKind.OBJECT:
            return self.workers.keys() & routed.decisions[0]
        return self.workers.keys() & routed.plans[0][1]

    # ------------------------------------------------------------------
    # Tuple processing (per-tuple driver)
    # ------------------------------------------------------------------
    def process(self, item: StreamTuple, *, trace: bool = True) -> Set[int]:
        """Run one tuple through dispatcher, workers and mergers.

        The per-tuple driver: no window bookkeeping, but the same two
        routing rules, plan cache and worker ops as
        :meth:`_execute_window` — each worker receives exactly the
        ``RouteBatch`` a window of one would ship.  Returns the set of
        workers that handled the tuple.
        """
        slot = self._next_dispatcher
        self._next_dispatcher = (slot + 1) % len(self.dispatchers)
        if self._sharded_routing():
            return self._process_on_shards(item, slot, trace)
        dispatcher = self.dispatchers[slot]
        routing = self.routing_index
        workers_map = self.workers
        payload = item.payload
        worker_costs: List[Tuple[int, float]] = []
        if item.kind is TupleKind.OBJECT:
            cell = routing.grid.cell_of(payload.location)
            terms = payload.terms
            decision = routing.route_cell(cell, terms)
            cost = DispatcherLedger.TUPLE_COST + DispatcherLedger.PROBE_COST * max(1, len(terms))
            dispatcher.account_objects(1, 0 if decision else 1, cost)
            batches: Dict[int, RouteBatch] = {}
            if decision:
                batch = RouteBatch((MatchObjects((payload,), (cell,)),))
                batches = {w: batch for w in decision if w in workers_map}
            if batches:
                results: List[MatchResult] = []
                produced = 0
                for worker_id, replies in self.transport.exchange(batches).items():
                    reply = replies[0]
                    assert reply is not None
                    results.extend(reply.results)
                    produced += reply.produced_count
                    worker_costs.append((worker_id, reply.costs[0]))
                self._deliver_results(results, produced)
            self._objects += 1
            self._object_fanout_total += len(batches)
        else:
            is_insert, per_worker, cells = plan_update(
                routing, self._insertion_assignments, item
            )
            # Idle shard replicas (dual drain) no longer match H2.
            self._mark_routing_mutated()
            cost = DispatcherLedger.TUPLE_COST + DispatcherLedger.PROBE_COST * max(1, cells)
            dispatcher.account_updates(int(is_insert), int(not is_insert), cost)
            batches = {
                worker_id: RouteBatch((op,))
                for worker_id, op in self._update_ops(is_insert, payload, per_worker)
            }
            if batches:
                self.transport.exchange(batches)
            cost_model = self.config.cost_model
            if is_insert:
                handling = cost_model.insert_handling
                self._insertions += 1
                self._query_fanout_total += len(batches)
            else:
                handling = cost_model.delete_handling
                self._deletions += 1
            worker_costs.extend((worker_id, handling) for worker_id in batches)
        self._tuples_processed += 1
        if trace:
            self._traces.append(dispatcher.dispatcher_id, cost, worker_costs)
        return set(batches)

    def run(
        self,
        tuples: Iterable[StreamTuple],
        *,
        trace: bool = True,
        adjust_every: int = 0,
        local_adjuster: Optional["LocalAdjusterLike"] = None,
        global_adjuster: Optional["GlobalAdjusterLike"] = None,
    ) -> RunReport:
        """Process a tuple stream one tuple at a time.

        With ``adjust_every > 0`` the stream runs through the closed-loop
        driver: after every ``adjust_every`` tuples the attached adjusters
        run one Section V round (see :meth:`run_adjustment`); the batched
        closed loop is equivalence-tested against this schedule.  With
        ``checkpoint_every > 0`` on the config the driver additionally
        snapshots worker assignments at window barriers (and recovers
        dead workers from the latest snapshot).
        """
        if adjust_every > 0 or self._checkpoints is not None:
            return self._run_with_adjustment(
                tuples,
                batch_size=1,
                trace=trace,
                adjust_every=adjust_every,
                local_adjuster=local_adjuster,
                global_adjuster=global_adjuster,
            )
        for item in tuples:
            self.process(item, trace=trace)
        return self.report()

    # ------------------------------------------------------------------
    # Batched execution engine
    # ------------------------------------------------------------------
    def run_batched(
        self,
        tuples: Iterable[StreamTuple],
        *,
        batch_size: int = 256,
        trace: bool = True,
        adjust_every: int = 0,
        local_adjuster: Optional["LocalAdjusterLike"] = None,
        global_adjuster: Optional["GlobalAdjusterLike"] = None,
    ) -> RunReport:
        """Process a tuple stream in windows of ``batch_size`` tuples.

        Semantically equivalent to :meth:`run` (same throughput, loads,
        fanout and match counts); see the module docstring for what the
        batched engine amortises.  With ``adjust_every > 0`` the closed
        loop runs Section V adjustment rounds at window barriers: windows
        are clipped so none spans an adjustment point, hence the schedule
        — and every simulated outcome — matches the per-tuple path with
        the same ``adjust_every``.  Checkpointed runs also use the
        closed-loop driver (checkpoints need the same window barriers;
        recovery's at-most-one-lost-window guarantee rules out the
        pipelined overlap below).
        """
        if adjust_every > 0 or self._checkpoints is not None:
            return self._run_with_adjustment(
                tuples,
                batch_size=batch_size,
                trace=trace,
                adjust_every=adjust_every,
                local_adjuster=local_adjuster,
                global_adjuster=global_adjuster,
            )
        if batch_size <= 1:
            return self.run(tuples, trace=trace)
        dispatch = self._dispatch
        if dispatch is None or not dispatch.supports_pipelining or not self._sharded_routing():
            for window in iter_windows(tuples, batch_size):
                self.process_batch(window, trace=trace)
            return self.report()
        # Pipelined sharded replay: collect window K's routing, submit
        # window K+1 to the shards, then run worker matching of K — shard
        # routing of the next window overlaps worker matching of the
        # current one (dispatcher→worker pipelining).  At most one window
        # is ever in flight, and K's worker ops still ship before K+1's.
        pending: Optional[Tuple[Sequence[StreamTuple], int, int]] = None
        for window in iter_windows(tuples, batch_size):
            if pending is not None:
                items, prev_base, prev_seq = pending
                routed = dispatch.collect_window(prev_seq)
            base = self._reserve_slots(len(window))
            seq = self._submit_window(window, base)
            if pending is not None:
                self._span_open(len(items))
                self._execute_window(items, prev_base, routed, trace)
                self._span_close()
            pending = (window, base, seq)
        if pending is not None:
            items, base, seq = pending
            routed = dispatch.collect_window(seq)
            self._span_open(len(items))
            self._execute_window(items, base, routed, trace)
            self._span_close()
        return self.report()

    # ------------------------------------------------------------------
    # Closed-loop dynamic adjustment driver (Section V)
    # ------------------------------------------------------------------
    def _run_with_adjustment(
        self,
        tuples: Iterable[StreamTuple],
        *,
        batch_size: int,
        trace: bool,
        adjust_every: int,
        local_adjuster: Optional["LocalAdjusterLike"],
        global_adjuster: Optional["GlobalAdjusterLike"],
    ) -> RunReport:
        """Replay the stream with adjustment rounds every ``adjust_every`` tuples.

        Both execution paths share this driver: ``batch_size <= 1`` steps
        tuple by tuple, larger sizes use :meth:`process_batch` with windows
        clipped at the adjustment boundary, so an adjustment round always
        sits on a window barrier and fires at the exact same stream
        position under either engine.

        Checkpointing rides the same loop as a second cadence: windows
        are additionally clipped at ``checkpoint_every`` boundaries, a
        checkpoint is taken at stream start and at every boundary, and an
        adjustment round doubles as a checkpoint (both counters reset —
        the adjusters may have migrated assignments, so the pre-round
        snapshot is stale anyway).  Every window and every round runs
        under worker-death recovery (:meth:`_recover_from`): at most the
        in-flight window is lost.
        """
        checkpoint_every = (
            self.config.checkpoint_every if self._checkpoints is not None else 0
        )
        if adjust_every <= 0 and checkpoint_every <= 0:
            raise ValueError("adjust_every must be positive")
        collector = (
            PeriodSampleCollector(self.bounds) if global_adjuster is not None else None
        )
        iterator = iter(tuples)
        batched = batch_size > 1
        since_adjustment = 0
        since_checkpoint = 0
        if self._checkpoints is not None and not len(self._checkpoints):
            self._checkpoint_recovering()
        while True:
            if batched:
                take = batch_size
                if adjust_every > 0:
                    remaining = adjust_every - since_adjustment
                    take = remaining if remaining < take else take
                if checkpoint_every > 0:
                    remaining = checkpoint_every - since_checkpoint
                    take = remaining if remaining < take else take
                window: Sequence[StreamTuple] = list(islice(iterator, take))
                if not window:
                    break
            else:
                item = next(iterator, None)
                if item is None:
                    break
                window = (item,)
            self._process_window_recovering(window, trace, batched)
            if collector is not None:
                collector.observe(window)
            since_adjustment += len(window)
            since_checkpoint += len(window)
            if adjust_every > 0 and since_adjustment >= adjust_every:
                self._run_adjustment_recovering(
                    local_adjuster, global_adjuster, collector
                )
                if collector is not None:
                    collector.reset()
                since_adjustment = 0
                since_checkpoint = 0
            elif checkpoint_every > 0 and since_checkpoint >= checkpoint_every:
                self._checkpoint_recovering()
                since_checkpoint = 0
        return self.report()

    def _process_window_recovering(
        self, window: Sequence[StreamTuple], trace: bool, batched: bool
    ) -> None:
        """Process one window, recovering a dead worker on the way.

        A worker death surfaces from the transport exchange as a
        :class:`TransportError` with ``died=True``; the window in flight
        is abandoned (its tuples are the at-most-one-window loss the
        recovery contract permits — accounted in the
        :class:`~repro.runtime.checkpoint.RecoveryEvent`), the dead
        worker's partition is re-installed from the latest checkpoint and
        the run resumes with the next window.
        """
        try:
            if batched:
                self.process_batch(window, trace=trace)
            else:
                self.process(window[0], trace=trace)
        except TransportError as exc:
            self._recover_from(exc, window, during_adjustment=False)

    def _run_adjustment_recovering(
        self,
        local_adjuster: Optional["LocalAdjusterLike"],
        global_adjuster: Optional["GlobalAdjusterLike"],
        collector: Optional[PeriodSampleCollector],
    ) -> None:
        """One adjustment round under recovery; doubles as a checkpoint.

        A worker dying at the round's barrier fence (or under an
        adjuster's migrations) aborts the rest of the round — the
        recovery itself rebalances the lost partition, and no window was
        in flight, so nothing is lost.
        """
        try:
            self.run_adjustment(
                local_adjuster=local_adjuster,
                global_adjuster=global_adjuster,
                sample=collector.sample() if collector is not None else None,
            )
        except TransportError as exc:
            self._recover_from(exc, (), during_adjustment=True)
        else:
            if self._checkpoints is not None:
                self._take_checkpoint()

    def _checkpoint_recovering(self) -> None:
        """Take one scheduled checkpoint, recovering a death at its fence."""
        try:
            self.checkpoint_now()
        except TransportError as exc:
            self._recover_from(exc, (), during_adjustment=True)

    @barrier_context
    def checkpoint_now(self) -> None:
        """Snapshot every worker's query assignments at a quiescent point.

        Fences all three tiers exactly like :meth:`run_adjustment` (so
        every shipped window is applied and every in-flight result is
        merged), then records one
        :class:`~repro.runtime.checkpoint.Checkpoint` in the store and
        clears the update log — the log only ever spans
        checkpoint-to-checkpoint.
        """
        if self._checkpoints is None:
            raise ValueError("checkpointing is disabled (checkpoint_every == 0)")
        self.transport.barrier()
        if self._dispatch is not None:
            self._dispatch.barrier()
        self._merge.barrier()
        self._take_checkpoint()

    def _take_checkpoint(self) -> None:
        """Record the fleet's assignments (caller guarantees quiescence)."""
        store = self._checkpoints
        assert store is not None
        store.record(self.transport.snapshot_assignments(), self._tuples_processed)
        self._update_log.clear()
        self._record_lifecycle(
            "checkpoint", detail="tuples=%d" % self._tuples_processed
        )

    def _recover_from(
        self,
        exc: TransportError,
        window: Sequence[StreamTuple],
        *,
        during_adjustment: bool,
    ) -> None:
        """Recover from one worker death, or re-raise anything else.

        Only a *worker* endpoint death is recoverable, and only when a
        checkpoint exists to restore from and at least one worker
        survives; every other transport failure (merger/dispatcher death,
        remote exceptions, a second fault during recovery) propagates.
        The abandoned window's object/query ids are recorded on the
        :class:`~repro.runtime.checkpoint.RecoveryEvent` so tests (and
        delivery accounting) can subtract exactly the lost in-flight
        work.  A fresh checkpoint is taken immediately after recovery —
        the restored assignment is the new baseline.
        """
        store = self._checkpoints
        worker_id = exc.endpoint_id
        if (
            store is None
            or store.latest() is None
            or not exc.died
            or exc.label != "worker"
            or worker_id is None
            or worker_id not in self.workers
            or len(self.workers) <= 1
        ):
            raise exc
        lost_object_ids: List[int] = []
        lost_query_ids: List[int] = []
        for item in window:
            if item.kind is TupleKind.OBJECT:
                lost_object_ids.append(item.payload.object_id)
            else:
                lost_query_ids.append(item.payload.query_id)
        self.recover_worker(
            worker_id,
            lost_tuples=len(window),
            lost_object_ids=tuple(lost_object_ids),
            lost_query_ids=tuple(lost_query_ids),
            during_adjustment=during_adjustment,
        )
        self._take_checkpoint()

    @mutates_routing
    def recover_worker(
        self,
        worker_id: int,
        *,
        lost_tuples: int = 0,
        lost_object_ids: Tuple[int, ...] = (),
        lost_query_ids: Tuple[int, ...] = (),
        during_adjustment: bool = False,
    ) -> Optional[RecoveryEvent]:
        """Re-install a dead worker's partition onto a survivor.

        The recovery protocol of the tentpole: discard the dead endpoint
        (fencing and re-aligning the survivors via the fleet's resync
        barrier), re-install the worker's checkpointed query assignments
        onto the lowest-id survivor through the migration machinery
        (:meth:`WorkerNode.install_queries` extends registrations, so a
        query split across the dead worker and the target merges its
        postings), replay the update log entries addressed to the dead
        worker since that checkpoint, and point every routing cell the
        dead worker owned — H1 defaults, text-split term owners and H2
        posting owners alike — at the target.  Idempotent: recovering an
        already-recovered (or never-known) worker returns ``None``.
        """
        store = self._checkpoints
        if store is None:
            raise ValueError("checkpointing is disabled (checkpoint_every == 0)")
        checkpoint = store.latest()
        if checkpoint is None:
            raise ValueError("no checkpoint to recover from")
        if worker_id not in self.workers:
            return None
        self._record_lifecycle(
            "endpoint_death",
            tier="worker",
            endpoint_id=worker_id,
            detail="lost_tuples=%d" % lost_tuples,
        )
        self.transport.discard_worker(worker_id)
        survivors = sorted(self.workers)
        if not survivors:
            raise TransportError("no surviving workers to recover onto")
        target = survivors[0]
        target_worker = self.workers[target]
        assignments = list(checkpoint.assignments.get(worker_id, ()))
        reinstalled = target_worker.install_queries(assignments) if assignments else 0
        # Replay the dead worker's post-checkpoint updates in stream
        # order, re-keying them to the target (so a later recovery of the
        # *target* replays them again).
        replayed = 0
        new_log: List[Tuple[int, Any]] = []
        for owner, entry in self._update_log:
            if owner != worker_id:
                new_log.append((owner, entry))
                continue
            replayed += 1
            if isinstance(entry, QueryAssignment):
                target_worker.install_queries([entry])
            else:
                self.transport.exchange({target: RouteBatch((DeleteById(entry),))})
            new_log.append((target, entry))
        self._update_log[:] = new_log
        # Routing remap: every cell that still names the dead worker —
        # as H1 default, term owner or H2 posting owner — moves to the
        # target wholesale.
        routing = self.routing_index
        coords = [
            coord for coord, cell in routing.cells().items() if worker_id in cell.workers()
        ]
        routing.migrate_cells(coords, worker_id, target)
        cells_remapped = len(coords)
        self.invalidate_routing_caches()
        event = RecoveryEvent(
            worker_id=worker_id,
            target_worker=target,
            epoch=checkpoint.epoch,
            queries_reinstalled=reinstalled,
            updates_replayed=replayed,
            cells_remapped=cells_remapped,
            lost_tuples=lost_tuples,
            lost_object_ids=lost_object_ids,
            lost_query_ids=lost_query_ids,
            during_adjustment=during_adjustment,
        )
        self._recovery_events.append(event)
        self._record_lifecycle(
            "recovery",
            tier="worker",
            endpoint_id=worker_id,
            epoch=checkpoint.epoch,
            detail="worker %d -> %d: %d queries reinstalled, %d updates replayed, "
            "%d cells remapped"
            % (worker_id, target, reinstalled, replayed, cells_remapped),
        )
        return event

    @barrier_context
    def run_adjustment(
        self,
        *,
        local_adjuster: Optional["LocalAdjusterLike"] = None,
        global_adjuster: Optional["GlobalAdjusterLike"] = None,
        sample: Optional[WorkloadSample] = None,
        reset_loads: bool = True,
    ) -> None:
        """One Section V adjustment round at a window barrier.

        Runs the local adjuster (``adjust(cluster)``) and/or the global
        adjuster (``adjust(cluster, sample)`` — a pending repartition is
        finalised, otherwise the period sample is checked), then starts a
        new load-measurement period so the next round observes only
        post-adjustment traffic.  The invalidation contract is enforced
        by the mutators themselves: every H1 mutation the adjusters can
        perform (``migrate_cells``, ``migrate_keywords``,
        ``replace_routing_index``, a Phase I split) bumps the routing
        version and drops the insertion-plan cache, so an untriggered
        round leaves the plan cache warm.  Run-level accounting (busy
        time, traces, match counts) is *not* cleared — the RunReport of a
        closed-loop run covers the whole stream; use :meth:`reset_period`
        for a full reset.

        The round opens with the transport's ``AdjustBarrier`` fence:
        every worker acknowledges the new epoch before any adjuster reads
        or mutates state, so on the multiprocess backend all previously
        shipped window work is guaranteed applied on every worker process.
        Sharded dispatch shards are fenced with the same epoch message, so
        no shard is still routing when the adjusters start mutating H1;
        the mutations themselves bump the routing version and the replicas
        re-sync before the next routed window.
        """
        epoch = self.transport.barrier()
        if self._dispatch is not None:
            self._dispatch.barrier()
        # Fence the merger shards too: every result shipped before the
        # barrier (by the coordinator or directly by a worker) is
        # deduplicated before the adjusters snapshot merger state.
        self._merge.barrier()
        if self._telemetry is not None:
            # The fence is the one point where every tier is quiescent, so
            # the gauges drained here are an exact cross-tier cut.
            self._record_lifecycle("adjustment", epoch=epoch)
            self._drain_gauges(self._window_seq)
        if local_adjuster is not None:
            local_adjuster.adjust(self)
        if global_adjuster is not None:
            global_adjuster.adjust(self, sample)
        if reset_loads:
            self.reset_load_measurement()

    def process_batch(self, items: Sequence[StreamTuple], *, trace: bool = True) -> None:
        """Process one window of tuples through the batched engine.

        Updates are *deferred* within the window: an update only acts as a
        barrier for objects falling into a grid cell it actually touches,
        because both its H2 effect and its worker-side posting effect are
        confined to those cells.  Objects in untouched cells keep
        accumulating, so the bulk-matching runs stay close to window-sized
        despite the 5:1 object/update interleaving.
        """
        self._span_open(len(items))
        base = self._reserve_slots(len(items))
        routed: Optional[RoutedWindow] = None
        if self._sharded_routing():
            assert self._dispatch is not None
            routed = self._dispatch.collect_window(self._submit_window(items, base))
        self._execute_window(items, base, routed, trace)
        self._span_close()

    def _execute_window(
        self,
        items: Sequence[StreamTuple],
        base: int,
        routed: Optional[RoutedWindow],
        trace: bool,
    ) -> None:
        """Deferred-barrier window execution.

        Correctness argument: an update's observable effect — H2 postings
        for routing, GI2 postings / pending deletions for matching — is
        confined to the grid cells of its routing assignments.  An object
        whose cell no pending update touches therefore sees the same state
        whether it executes before or after them, so it is executed in the
        current bulk run; an object whose cell *is* touched flushes the
        window segment first (objects, then the deferred updates in stream
        order).  Per-tuple dispatcher round-robin (from slot ``base``),
        costs, counters and traces are all assigned by original stream
        position.

        Only two steps depend on where routing ran.  With ``routed is
        None`` the coordinator routes inline, fused into this scan: an
        object's decision comes from :meth:`GridTIndex.route_cell`, an
        update's plan from :func:`~repro.runtime.dispatch.plan_update`.
        Otherwise both are read off the position-tagged
        :class:`~repro.runtime.dispatch.RoutedWindow` the dispatch shards
        produced, and each update's H2 delta is replayed on the
        coordinator's authoritative index (pure increments, no H1
        probing), so adjusters and migrations keep observing exact
        routing state.
        """
        routing = self.routing_index
        count = len(items)
        dispatchers = self.dispatchers
        num_dispatchers = len(dispatchers)

        grid = routing.grid
        bounds = grid.bounds
        min_x = bounds.min_x
        min_y = bounds.min_y
        cell_w = grid.cell_width
        cell_h = grid.cell_height
        max_col = grid.columns - 1
        max_row = grid.rows - 1

        window = _WindowRun(
            base, num_dispatchers, count, trace, self.transport.exchange_round_trip
        )
        trace_costs = window.trace_costs
        dispatcher_costs = [0.0] * num_dispatchers
        dispatcher_objects = [0] * num_dispatchers
        dispatcher_discarded = [0] * num_dispatchers

        pending_positions: List[int] = []
        pending_objects: List = []
        pending_coords: List[CellCoord] = []
        pending_groups: Dict[int, List[int]] = {}
        pending_updates: List[Tuple] = []
        object_cells: Set[CellCoord] = set()
        # ``touched`` is synchronised lazily from ``pending_updates``: pure
        # update runs (e.g. the warm-up insertions) never pay for it.
        touched: Set[CellCoord] = set()
        touched_synced = 0

        decisions = routed.decisions if routed is not None else None
        plans = routed.plans if routed is not None else None
        insertion_cache = self._insertion_assignments
        route_cell = routing.route_cell
        object_kind = TupleKind.OBJECT
        tuple_cost = DispatcherLedger.TUPLE_COST
        probe_cost = DispatcherLedger.PROBE_COST
        workers_map = self.workers
        window_objects = 0
        window_fanout = 0

        for position, item in enumerate(items):
            if item.kind is object_kind:
                obj = item.payload
                location = obj.location
                col = int((location.x - min_x) / cell_w)
                row = int((location.y - min_y) / cell_h)
                if col < 0:
                    col = 0
                elif col > max_col:
                    col = max_col
                if row < 0:
                    row = 0
                elif row > max_row:
                    row = max_row
                coord = (col, row)
                window_objects += 1
                # Inline routing and dispatcher accounting are fused into
                # the arrival scan: H2 was already updated by every earlier
                # update in the window, so the decision equals the
                # sequential one.  Only *matched* objects need the
                # worker-side barrier below; discarded objects never reach
                # a worker and bypass the deferral machinery entirely.
                slot = (base + position) % num_dispatchers
                terms = obj.terms
                n_terms = len(terms)
                cost = tuple_cost + probe_cost * (n_terms if n_terms > 1 else 1)
                dispatcher_costs[slot] += cost
                dispatcher_objects[slot] += 1
                if trace_costs is not None:
                    trace_costs[position] = cost
                decision = (
                    route_cell(coord, terms) if decisions is None else decisions[position]
                )
                if not decision:
                    dispatcher_discarded[slot] += 1
                    continue
                if touched_synced < len(pending_updates):
                    touched_add = touched.add
                    for update in pending_updates[touched_synced:]:
                        for pairs in update[3].values():
                            for pair in pairs:
                                touched_add(pair[0])
                    touched_synced = len(pending_updates)
                if coord in touched:
                    if touched.isdisjoint(object_cells):
                        # No pending update touches any *pending object's*
                        # cell, so the queued updates can apply now while
                        # the object run keeps growing (every pending
                        # object is unaffected either way).
                        self._flush_fast(window, [], [], [], {}, pending_updates)
                    else:
                        self._flush_fast(
                            window, pending_positions, pending_objects,
                            pending_coords, pending_groups, pending_updates,
                        )
                        pending_positions = []
                        pending_objects = []
                        pending_coords = []
                        pending_groups = {}
                        object_cells = set()
                    pending_updates = []
                    touched = set()
                    touched_synced = 0
                local = len(pending_objects)
                pending_positions.append(position)
                pending_objects.append(obj)
                pending_coords.append(coord)
                object_cells.add(coord)
                for worker_id in decision:
                    if worker_id in workers_map:
                        window_fanout += 1
                        group = pending_groups.get(worker_id)
                        if group is None:
                            pending_groups[worker_id] = [local]
                        else:
                            group.append(local)
            else:
                # H2 applies immediately: pending objects were already
                # routed at their arrival, and later objects must see the
                # updated H2 — exactly the sequential routing order.  Only
                # the worker-side (GI2) effect is deferred to the flush.
                if plans is None:
                    is_insert, per_worker, cells = plan_update(
                        routing, insertion_cache, item
                    )
                    # Idle shard replicas (dual drain) no longer match H2.
                    self._mark_routing_mutated()
                else:
                    is_insert, per_worker, cells = plans[position]
                    if is_insert:
                        routing.apply_insertion(
                            (coord, key, worker)
                            for worker, pairs in per_worker.items()
                            for coord, key in pairs
                        )
                    else:
                        routing.apply_deletion_pairs(per_worker)
                pending_updates.append(
                    (position, is_insert, item.payload, per_worker, cells)
                )
        self._flush_fast(
            window, pending_positions, pending_objects, pending_coords,
            pending_groups, pending_updates,
        )
        if window.ops:
            # Round-trip transports: the window's one exchange, then every
            # segment settles in flush order, as if it had shipped alone.
            replies = self._exchange(window.ops)
            for positions, groups, offsets in window.segments:
                self._settle_segment(replies, positions, groups, offsets, window.trace_workers)
        self._objects += window_objects
        self._tuples_processed += window_objects
        self._object_fanout_total += window_fanout
        for slot in range(num_dispatchers):
            if dispatcher_objects[slot]:
                dispatchers[slot].account_objects(
                    dispatcher_objects[slot],
                    dispatcher_discarded[slot],
                    dispatcher_costs[slot],
                )
            if window.insertions[slot] or window.deletions[slot]:
                dispatchers[slot].account_updates(
                    window.insertions[slot],
                    window.deletions[slot],
                    window.update_costs[slot],
                )
        if trace:
            trace_workers = window.trace_workers
            assert trace_costs is not None and trace_workers is not None
            # Dispatcher ids repeat cyclically from ``base``; emit the whole
            # window's worth at C speed.
            rotated = [
                dispatchers[(base + offset) % num_dispatchers].dispatcher_id
                for offset in range(num_dispatchers)
            ]
            self._traces.extend(
                islice(cycle(rotated), count),
                trace_costs,
                trace_workers,
            )

    def _flush_fast(
        self,
        window: _WindowRun,
        positions: List[int],
        objects: List,
        coords: List[CellCoord],
        groups: Dict[int, List[int]],
        updates: List[Tuple],
    ) -> None:
        """Flush one deferred segment: bulk object matching, then updates.

        Objects were already routed, charged to their dispatchers and
        grouped per worker during the arrival scan; here each worker's
        share of the segment becomes ordered ops — the object group
        first, then the deferred updates in stream order.  In process
        the segment is exchanged and settled right here, so its
        deliveries leave while the scan goes on; where an exchange is a
        round trip (``Transport.exchange_round_trip``) the ops join the
        window's per-worker lists and :meth:`_execute_window` ships them
        all at once, settling segment by segment in flush order.  Workers
        see the same ops in the same order either way; the update
        accounting below and the update log stay at flush time in both.
        """
        workers_map = self.workers
        num_dispatchers = len(self.dispatchers)
        tuple_cost = DispatcherLedger.TUPLE_COST
        probe_cost = DispatcherLedger.PROBE_COST
        base = window.base
        trace_costs = window.trace_costs
        trace_workers = window.trace_workers

        batch_ops: Dict[int, List[WorkerOp]] = {}
        if groups:
            for worker_id, locals_ in groups.items():
                batch_ops[worker_id] = [
                    MatchObjects(
                        [objects[local] for local in locals_],
                        [coords[local] for local in locals_],
                    )
                ]
        for _, is_insert, payload, per_worker, _ in updates:
            for worker_id, op in self._update_ops(is_insert, payload, per_worker):
                ops = batch_ops.get(worker_id)
                if ops is None:
                    batch_ops[worker_id] = [op]
                else:
                    ops.append(op)
        span = self._span_state
        if span is not None and len(batch_ops) > span.match_endpoints:
            span.match_endpoints = len(batch_ops)
        if window.ops is None:
            if batch_ops:
                replies = self._exchange(batch_ops)
                if groups:
                    self._settle_segment(
                        replies, positions, groups, dict.fromkeys(groups, 0), trace_workers
                    )
        else:
            offsets: Dict[int, int] = {}
            for worker_id, ops in batch_ops.items():
                shipped = window.ops.setdefault(worker_id, [])
                offsets[worker_id] = len(shipped)
                shipped.extend(ops)
            if groups:
                window.segments.append((positions, groups, offsets))

        # Coordinator-side accounting of the deferred updates.  Their
        # worker-side effect (GI2 postings, load counters, busy time) is
        # applied by the ops built above; the per-tuple costs are the
        # fixed Definition-1 constants, so traces need no round trip.
        cost_model = self.config.cost_model
        insert_cost = cost_model.insert_handling
        delete_cost = cost_model.delete_handling
        for position, is_insert, payload, per_worker, cells in updates:
            slot = (base + position) % num_dispatchers
            cost = tuple_cost + probe_cost * (cells if cells > 1 else 1)
            window.update_costs[slot] += cost
            worker_items: Optional[List[Tuple[int, float]]] = (
                [] if trace_workers is not None else None
            )
            handled = 0
            if is_insert:
                window.insertions[slot] += 1
                for worker_id in per_worker:
                    if worker_id not in workers_map:
                        continue
                    handled += 1
                    if worker_items is not None:
                        worker_items.append((worker_id, insert_cost))
                self._insertions += 1
                self._query_fanout_total += handled
            else:
                window.deletions[slot] += 1
                for worker_id in per_worker:
                    if worker_id not in workers_map:
                        continue
                    if worker_items is not None:
                        worker_items.append((worker_id, delete_cost))
                self._deletions += 1
            self._tuples_processed += 1
            if trace_costs is not None:
                trace_costs[position] = cost
                assert trace_workers is not None
                trace_workers[position] = worker_items

    def _update_ops(
        self, is_insert: bool, payload: Any, per_worker: WorkerPlan
    ) -> Iterator[Tuple[int, WorkerOp]]:
        """One planned update's op per live destination worker, in plan order.

        Shared by both drivers; each yielded op is also appended to the
        update log (when checkpointing) for replay onto a recovery target.
        """
        workers_map = self.workers
        log = self._update_log if self._checkpoints is not None else None
        if is_insert:
            query = payload.query
            for worker_id, pairs in per_worker.items():
                if worker_id in workers_map:
                    if log is not None:
                        # Replayed via install_queries, which extends an
                        # existing registration.
                        log.append((worker_id, QueryAssignment(query, tuple(pairs), True)))
                    yield worker_id, InsertPairs(query, pairs)
        else:
            op = DeleteById(payload.query_id)
            for worker_id in per_worker:
                if worker_id in workers_map:
                    if log is not None:
                        log.append((worker_id, op.query_id))
                    yield worker_id, op

    def _settle_segment(
        self,
        replies: Dict[int, List[Optional[MatchResults]]],
        positions: List[int],
        groups: Dict[int, List[int]],
        offsets: Dict[int, int],
        trace_workers: Optional[List[Optional[List[Tuple[int, float]]]]],
    ) -> None:
        """Merge one flushed object run's match replies, in group order.

        ``offsets[worker]`` is the index of the run's ``MatchObjects`` op
        — hence of its reply — in what that worker was shipped: 0 when
        the segment was exchanged alone, its place in the window's op
        list when the whole window went out as one batch.
        """
        all_results: List[MatchResult] = []
        produced = 0
        for worker_id, locals_ in groups.items():
            reply = replies[worker_id][offsets[worker_id]]
            assert reply is not None
            if reply.results:
                all_results.extend(reply.results)
            produced += reply.produced_count
            if trace_workers is not None:
                for local, cost in zip(locals_, reply.costs):
                    position = positions[local]
                    entry = trace_workers[position]
                    if entry is None:
                        trace_workers[position] = [(worker_id, cost)]
                    else:
                        entry.append((worker_id, cost))
        if all_results or produced:
            self._deliver_results(all_results, produced)

    def _exchange(
        self, ops: Dict[int, List[WorkerOp]]
    ) -> Dict[int, List[Optional[MatchResults]]]:
        """One transport exchange, timed into the open window span's match hop."""
        batches = {worker_id: RouteBatch(worker_ops) for worker_id, worker_ops in ops.items()}
        span = self._span_state
        hub = self._telemetry
        if span is None or hub is None:
            return self.transport.exchange(batches)
        started_ms = hub.now_ms()
        replies = self.transport.exchange(batches)
        if span.match_started_ms < 0:
            span.match_started_ms = started_ms
        span.match_ms += hub.now_ms() - started_ms
        return replies

    # ------------------------------------------------------------------
    # Merger tier (delivery, dedup accounting, subscriber sinks)
    # ------------------------------------------------------------------
    def _deliver_results(self, results: List[MatchResult], produced: int) -> None:
        """Coordinator-side half of result delivery.

        ``produced`` counts every match the workers produced this
        exchange; ``results`` holds only the ones that came back to the
        coordinator (empty in the full multiprocess deployment, where
        workers ship them straight to the merger shards).  Relayed
        results count against :attr:`result_hops` — the coordinator-hop
        counter the direct-shipping tests pin to zero.
        """
        self._matches_produced += produced
        if results:
            self._result_hops += len(results)
            span = self._span_state
            if span is not None and self._telemetry is not None:
                started_ms = self._telemetry.now_ms()
                self._merge.deliver(results)
                if span.merge_started_ms < 0:
                    span.merge_started_ms = started_ms
                span.merge_ms += self._telemetry.now_ms() - started_ms
            else:
                self._merge.deliver(results)

    # ------------------------------------------------------------------
    # Runtime telemetry (window spans, gauge drains, lifecycle events)
    # ------------------------------------------------------------------
    def _span_open(self, size: int) -> None:
        """Start tracing one batched window (no-op when telemetry is off)."""
        hub = self._telemetry
        if hub is None:
            return
        self._window_seq += 1
        self._span_state = _SpanState(
            self._window_seq, self._tuples_processed, size, hub.now_ms()
        )

    def _span_close(self) -> None:
        """Record the in-flight window's span and drain per-tier gauges.

        The route hop is the window's residual wall time after the
        measured match and merge hops: inline routing interleaves with
        the arrival scan and sharded routing overlaps the previous
        window's matching, so the residual is the honest attribution on
        both engines.
        """
        hub = self._telemetry
        state = self._span_state
        if hub is None or state is None:
            return
        self._span_state = None
        closed_ms = hub.now_ms()
        total_ms = closed_ms - state.opened_ms
        route_ms = max(0.0, total_ms - state.match_ms - state.merge_ms)
        hops = (
            SpanHop("route", "dispatcher", state.opened_ms, route_ms, len(self.dispatchers)),
            SpanHop(
                "match",
                "worker",
                state.match_started_ms if state.match_started_ms >= 0 else closed_ms,
                state.match_ms,
                state.match_endpoints,
            ),
            SpanHop(
                "merge",
                "merger",
                state.merge_started_ms if state.merge_started_ms >= 0 else closed_ms,
                state.merge_ms,
                self._merge.num_mergers,
            ),
        )
        hub.record(WindowSpan(state.seq, state.base, state.size, hops))
        if state.seq % max(1, hub.spec.sample_every) == 0:
            self._drain_gauges(state.seq)

    def _observe(self) -> _Snapshot:
        """Observe every endpoint once: workers, dispatch shards, mergers.

        The one read of remote state — one ``Observe`` round trip per
        endpoint (the in-process backends build identical observations
        locally); reports, gauges, load/memory reports and the profile
        are all views of it.  Purely read-only — an observed run's
        report is byte-identical to an unobserved one.
        """
        workers = self.transport.observe()
        shards = self._dispatch.observe() if self._dispatch is not None else {}
        return workers, shards, self._merge.observe()

    def wire_stats(self) -> Dict[str, Dict[int, WireStats]]:
        """Coordinator-side channel traffic per out-of-process tier.

        ``tier -> endpoint id ->`` :class:`~repro.runtime.fabric.WireStats`
        (messages and encoded bytes, both directions; queue-inbox
        mergers count messages only).  In-process tiers have no channel
        and are absent, so a fully in-process cluster answers ``{}``.
        Reads local counters only — no message is sent.
        """
        tiers = {
            "dispatcher": self._dispatch.wire_stats() if self._dispatch is not None else {},
            "merger": self._merge.wire_stats(),
            "worker": self.transport.wire_stats(),
        }
        return {tier: stats for tier, stats in tiers.items() if stats}

    def _drain_gauges(self, seq: int, snapshot: Optional[_Snapshot] = None) -> None:
        """Record one gauge sample per endpoint of every tier in the hub.

        Worker and merger gauges are their observations.  Dispatcher
        gauges overlay the coordinator's authoritative Definition-1
        busy accounting on the shard replicas' memory/cache depth, and
        the coordinator itself contributes a sample (its relayed-result
        depth).
        """
        hub = self._telemetry
        if hub is None:
            return
        workers, shards, mergers = snapshot if snapshot is not None else self._observe()
        samples: List[GaugeSample] = [gauge_sample(o) for o in workers.values()]
        for dispatcher in self.dispatchers:
            shard = shards.get(dispatcher.dispatcher_id)
            samples.append(
                GaugeSample(
                    tier="dispatcher",
                    endpoint_id=dispatcher.dispatcher_id,
                    busy_cost=dispatcher.busy_cost,
                    memory_bytes=shard.memory_bytes if shard is not None else 0,
                    depth=shard.depth if shard is not None else 0,
                )
            )
        samples.extend(gauge_sample(o) for o in mergers.values())
        samples.append(
            GaugeSample(
                tier="coordinator",
                endpoint_id=0,
                busy_cost=0.0,
                memory_bytes=0,
                depth=self._result_hops,
            )
        )
        hub.record_gauges(samples, seq)

    def _record_lifecycle(
        self,
        kind: str,
        *,
        epoch: int = -1,
        tier: str = "",
        endpoint_id: int = -1,
        detail: str = "",
    ) -> None:
        hub = self._telemetry
        if hub is None:
            return
        hub.record(
            LifecycleEvent(
                kind=kind,
                seq=self._window_seq,
                at_ms=hub.now_ms(),
                detail=detail,
                epoch=epoch,
                tier=tier,
                endpoint_id=endpoint_id,
            )
        )

    def telemetry_events(self) -> List[TelemetryEvent]:
        """The telemetry ring's retained events (empty when disabled)."""
        return self._telemetry.events() if self._telemetry is not None else []

    def telemetry_timeseries(self) -> Optional[TierTimeseries]:
        """The per-window gauge store, queryable at the adjustment fence."""
        return self._telemetry.timeseries if self._telemetry is not None else None

    def telemetry_text(self) -> str:
        """Prometheus-style text snapshot of the telemetry state."""
        if self._telemetry is None:
            return "# telemetry disabled (ClusterConfig.telemetry is None)\n"
        return self._telemetry.telemetry_text()

    @property
    def result_hops(self) -> int:
        """Match results that reached the merger tier via the coordinator."""
        return self._result_hops

    @property
    def mergers(self) -> List:
        """Per-shard merger handles.

        Real :class:`MergerNode` objects under the in-process backend;
        fresh :class:`~repro.runtime.telemetry.Observation` snapshots
        (``delivered`` / ``duplicates`` / ``busy_cost``) under the
        multiprocess backend.
        """
        return self._merge.merger_handles()

    def merger_stats(self) -> Dict[int, Observation]:
        """One :class:`Observation` per merger shard, sorted by merger id.

        On the multiprocess backend the request rides the shard inboxes,
        so it observes every delivery enqueued before it — reading stats
        after an ``exchange`` returned is always consistent.
        """
        return self._merge.observe()

    def drain_sinks(self) -> Dict[int, List[MatchResult]]:
        """Drain every merger shard's sink buffer (memory sinks)."""
        return self._merge.drain_sinks()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def worker_stats(self) -> Dict[int, Observation]:
        """One :class:`Observation` per worker, fetched over the transport."""
        return self.transport.observe()

    def saturation_throughput(
        self,
        *,
        _stats: Optional[Dict[int, Observation]] = None,
        _merger_stats: Optional[Dict[int, Observation]] = None,
    ) -> float:
        """Tuples per second when the bottleneck process is saturated."""
        if self._tuples_processed == 0:
            return 0.0
        stats = _stats if _stats is not None else self.worker_stats()
        merger_stats = _merger_stats if _merger_stats is not None else self.merger_stats()
        unit = self.config.cost_unit_seconds
        busy_seconds = [d.busy_cost * unit for d in self.dispatchers]
        busy_seconds += [s.busy_cost * unit for s in stats.values()]
        busy_seconds += [m.busy_cost * unit for m in merger_stats.values()]
        bottleneck = max(busy_seconds) if busy_seconds else 0.0
        if bottleneck <= 0.0:
            return 0.0
        return self._tuples_processed / bottleneck

    def _process_utilizations(
        self, input_rate: float, stats: Dict[int, Observation]
    ) -> Tuple[Dict[int, float], Dict[int, float]]:
        """Utilisation of each dispatcher and worker at ``input_rate`` tuples/s."""
        if self._tuples_processed == 0 or input_rate <= 0.0:
            return {}, {}
        unit = self.config.cost_unit_seconds
        wall_seconds = self._tuples_processed / input_rate
        dispatcher_util = {
            d.dispatcher_id: (d.busy_cost * unit) / wall_seconds for d in self.dispatchers
        }
        worker_util = {
            worker_id: (s.busy_cost * unit) / wall_seconds for worker_id, s in stats.items()
        }
        return dispatcher_util, worker_util

    def latency_tracker(
        self,
        input_rate: Optional[float] = None,
        *,
        _stats: Optional[Dict[int, Observation]] = None,
        _merger_stats: Optional[Dict[int, Observation]] = None,
    ) -> LatencyTracker:
        """Per-tuple latencies (ms) at the given input rate.

        Defaults to ``latency_load_fraction`` of the saturation throughput,
        matching the paper's "moderate input speed" protocol for Figure 8.
        """
        tracker = LatencyTracker()
        traces = self._traces
        count = len(traces)
        if count == 0:
            return tracker
        stats = _stats if _stats is not None else self.worker_stats()
        if input_rate is None:
            input_rate = self.config.latency_load_fraction * self.saturation_throughput(
                _stats=stats, _merger_stats=_merger_stats
            )
        dispatcher_util, worker_util = self._process_utilizations(input_rate, stats)
        unit_ms = self.config.cost_unit_seconds * 1000.0
        hop_ms = self.config.network_hop_ms
        dispatcher_ids = traces.dispatcher_ids
        dispatcher_costs = traces.dispatcher_costs
        offsets = traces.worker_offsets
        worker_ids = traces.worker_ids
        worker_costs = traces.worker_costs
        dispatcher_util_get = dispatcher_util.get
        worker_util_get = worker_util.get
        record = tracker.record
        # A run charges a few hundred distinct (endpoint, cost) pairs over
        # tens of thousands of tuples: price each pair once.
        dispatcher_priced: Dict[Tuple[int, float], float] = {}
        worker_priced: Dict[Tuple[int, float], float] = {}
        for index in range(count):
            key = (dispatcher_ids[index], dispatcher_costs[index])
            dispatcher_ms = dispatcher_priced.get(key)
            if dispatcher_ms is None:
                dispatcher_ms = dispatcher_priced[key] = utilization_latency(
                    hop_ms + key[1] * unit_ms, dispatcher_util_get(key[0], 0.0)
                )
            worker_ms = 0.0
            for slot in range(offsets[index], offsets[index + 1]):
                key = (worker_ids[slot], worker_costs[slot])
                candidate = worker_priced.get(key)
                if candidate is None:
                    candidate = worker_priced[key] = utilization_latency(
                        hop_ms + key[1] * unit_ms, worker_util_get(key[0], 0.0)
                    )
                if candidate > worker_ms:
                    worker_ms = candidate
            record(dispatcher_ms + worker_ms)
        return tracker

    def worker_load_report(self) -> LoadReport:
        return LoadReport(
            worker_loads={
                worker_id: s.load for worker_id, s in self.worker_stats().items()
            }
        )

    def dispatcher_memory_report(
        self, *, _shards: Optional[Dict[int, Observation]] = None
    ) -> Dict[int, int]:
        """Routing-structure bytes per dispatcher (Figure 9).

        Inline dispatch charges the analytic estimate of the coordinator's
        index once per simulated dispatcher, as the paper does.  Sharded
        dispatch *measures* each shard's replica where it lives (after a
        re-sync if the routing version moved) — byte-identical values when
        the replicas are in sync, which ``tests/test_dispatch.py`` pins.
        """
        dispatch = self._dispatch
        if dispatch is not None:
            if _shards is None or dispatch.synced_version != self._routing_version:
                self._ensure_dispatch_synced()
                _shards = dispatch.observe()
            return {shard: o.memory_bytes for shard, o in _shards.items()}
        # Every inline dispatcher references the same routing index, so
        # the O(cells x postings) estimate is computed once and fanned out.
        estimate = self.routing_index.memory_bytes()
        return {d.dispatcher_id: estimate for d in self.dispatchers}

    def _delivery_latency(
        self, input_rate: float, merger_stats: Dict[int, Observation]
    ) -> Tuple[float, LatencyBuckets]:
        """End-to-end notification latency of the delivered results.

        Models the merger hop the same way tuple latency models the
        dispatcher/worker hops: each delivery pays the network hop plus
        the Definition-1 ``RESULT_COST`` service time, inflated by its
        merger's utilisation at ``input_rate``.  Every quantity derives
        from the per-merger stats (merged sorted by merger id), so the
        numbers are identical whichever backend hosts the shards.
        """
        delivered_total = sum(s.delivered for s in merger_stats.values())
        if delivered_total == 0 or self._tuples_processed == 0 or input_rate <= 0.0:
            return 0.0, LatencyBuckets(1.0, 0.0, 0.0)
        unit = self.config.cost_unit_seconds
        wall_seconds = self._tuples_processed / input_rate
        service_ms = self.config.network_hop_ms + MergerNode.RESULT_COST * unit * 1000.0
        weighted = 0.0
        under = 0
        over = 0
        for merger_id in sorted(merger_stats):
            stat = merger_stats[merger_id]
            if stat.delivered == 0:
                continue
            latency = utilization_latency(
                service_ms, (stat.busy_cost * unit) / wall_seconds
            )
            weighted += latency * stat.delivered
            if latency < 100.0:
                under += stat.delivered
            elif latency > 1000.0:
                over += stat.delivered
        middle = delivered_total - under - over
        return weighted / delivered_total, LatencyBuckets(
            under / delivered_total, middle / delivered_total, over / delivered_total
        )

    def report(self, input_rate: Optional[float] = None) -> RunReport:
        """Build the full :class:`RunReport` for the processed stream.

        Every remote number (worker loads, busy time and memory, shard
        replica memory, merger counters) comes from one
        :class:`Observation` per endpoint — each tier asked once per
        report whichever backend hosts it, telemetry on or off (shard
        replicas left stale by a trailing adjustment are re-synced and
        asked again for ``dispatcher_memory``).
        """
        snapshot = self._observe()
        stats, shards, merger_stats = snapshot
        # Final cross-tier gauge cut (same replies as the report) so a
        # run's last partial sampling interval is still visible in the
        # timeseries and the JSONL.
        self._drain_gauges(self._window_seq, snapshot)
        throughput = self.saturation_throughput(_stats=stats, _merger_stats=merger_stats)
        if input_rate is None:
            rate = self.config.latency_load_fraction * throughput
        else:
            rate = input_rate
        tracker = self.latency_tracker(rate, _stats=stats, _merger_stats=merger_stats)
        buckets = tracker.buckets()
        delivery_mean, delivery_buckets = self._delivery_latency(rate, merger_stats)
        objects = max(self._objects, 1)
        insertions = max(self._insertions, 1)
        return RunReport(
            tuples_processed=self._tuples_processed,
            objects_processed=self._objects,
            insertions_processed=self._insertions,
            deletions_processed=self._deletions,
            throughput=throughput,
            mean_latency_ms=tracker.mean,
            p95_latency_ms=tracker.percentile(95.0),
            latency_buckets=buckets,
            worker_loads={worker_id: s.load for worker_id, s in stats.items()},
            dispatcher_memory=self.dispatcher_memory_report(_shards=shards),
            worker_memory={worker_id: s.memory_bytes for worker_id, s in stats.items()},
            matches_produced=self._matches_produced,
            matches_delivered=sum(s.delivered for s in merger_stats.values()),
            object_fanout=self._object_fanout_total / objects,
            query_fanout=self._query_fanout_total / insertions,
            merger_busy={m: s.busy_cost for m, s in merger_stats.items()},
            merger_delivered={m: s.delivered for m, s in merger_stats.items()},
            merger_duplicates={m: s.duplicates for m, s in merger_stats.items()},
            delivery_mean_latency_ms=delivery_mean,
            delivery_latency_buckets=delivery_buckets,
            recovery=(
                RecoveryReport(
                    checkpoints_taken=self._checkpoints.checkpoints_taken,
                    events=tuple(self._recovery_events),
                )
                if self._checkpoints is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Hot-loop profiling (repro profile)
    # ------------------------------------------------------------------
    def profile_report(self) -> Optional[ProfileReport]:
        """Every tier's hot-loop counters; ``None`` when profiling is off.

        The ``profile`` fields of one observation per endpoint: one
        :class:`~repro.runtime.profiling.MatchProfile` per worker, one
        :class:`~repro.runtime.profiling.RouteProfile` per routing
        replica — the coordinator's inline counters first (endpoint
        ``-1``), then the dispatch shards — and one
        :class:`~repro.runtime.profiling.DedupProfile` per merger shard.
        Observing is read-only, so it can run any number of times (e.g.
        before and after an adjustment round) without perturbing a report.
        """
        profiling = self.config.profiling
        if profiling is None or not profiling.enabled:
            return None
        workers, shards, mergers = self._observe()
        routers: List[RouteProfile] = []
        inline = getattr(self.routing_index, "profile", None)
        if inline is not None:
            routers.append(inline.event(-1))
        routers.extend(o.profile for o in shards.values() if isinstance(o.profile, RouteProfile))
        return ProfileReport(
            matchers=tuple(
                o.profile for o in workers.values() if isinstance(o.profile, MatchProfile)
            ),
            routers=tuple(routers),
            mergers=tuple(
                o.profile for o in mergers.values() if isinstance(o.profile, DedupProfile)
            ),
            wire=self.wire_stats(),
            tuples=self._tuples_processed,
        )

    def profile_stacks(self) -> Optional[List[str]]:
        """The stack sampler's collapsed stacks; ``None`` without ``sample``."""
        if self._sampler is None:
            return None
        self._sampler.stop()
        return self._sampler.collapsed()

    # ------------------------------------------------------------------
    # Dynamic adjustment hooks (Section V)
    # ------------------------------------------------------------------
    def worker_cell_stats(self, worker_id: int) -> List[CellStats]:
        return self.workers[worker_id].cell_stats()

    def migration_seconds(self, bytes_moved: int, queries_shipped: int) -> float:
        """Simulated wall-clock cost of one migration (Section V)."""
        return (
            self.config.migration_fixed_seconds
            + bytes_moved / self.config.migration_bandwidth_bytes_per_sec
            + queries_shipped
            * self.config.cost_model.insert_handling
            * self.config.cost_unit_seconds
        )

    def _record_migration(
        self,
        source_worker: int,
        target_worker: int,
        cells: Tuple[CellCoord, ...],
        shipped: List[QueryAssignment],
    ) -> MigrationRecord:
        """Account one shipment of query assignments as a migration."""
        moved = sum(1 for assignment in shipped if assignment.moved)
        bytes_moved = sum(assignment.query.size_bytes() for assignment in shipped)
        record = MigrationRecord(
            source_worker=source_worker,
            target_worker=target_worker,
            cells=cells,
            queries_moved=moved,
            bytes_moved=bytes_moved,
            seconds=self.migration_seconds(bytes_moved, len(shipped)),
            queries_copied=len(shipped) - moved,
        )
        self.migrations.append(record)
        return record

    @mutates_routing
    def migrate_cells(
        self,
        source_worker: int,
        target_worker: int,
        cells: Sequence[CellCoord],
    ) -> MigrationRecord:
        """Move the query assignments of ``cells`` from one worker to another.

        For every live query registered in the migrated cells, exactly the
        ``(cell, posting keyword)`` pairs it owns there are extracted from
        the source and re-registered on the target — the same
        posting-plan mechanism the dispatcher uses at insertion time, so
        worker memory stays flat across adjustment rounds.  Queries whose
        postings lived entirely in the migrated cells leave the source
        (*moved*); queries that also overlap cells staying behind keep
        their remaining pairs on the source (*copied*).  The dispatcher
        routing index is updated to point the migrated cells at the target
        worker, and the routing version is bumped.
        """
        source = self.workers[source_worker]
        target = self.workers[target_worker]
        moving = set(cells)
        # Only live queries ship: drop lazily deleted postings from the
        # handed-over cells first (targeted, not a full compact).
        source.index.purge_cells(moving)
        shipped = source.extract_cells(moving)
        target.install_queries(shipped)
        self.routing_index.migrate_cells(moving, source_worker, target_worker)
        self.invalidate_routing_caches()
        return self._record_migration(
            source_worker, target_worker, tuple(moving), shipped
        )

    @mutates_routing
    def migrate_keywords(
        self,
        source_worker: int,
        target_worker: int,
        cell: CellCoord,
        keywords: Iterable[str],
    ) -> Optional[MigrationRecord]:
        """Ship one cell's postings for ``keywords`` to the target worker.

        The worker-side half of a Phase I text split
        (:meth:`GridTIndex.split_cell_by_text` is the routing half, applied
        by the caller): every live query posted in ``cell`` under one of
        the reassigned keywords hands exactly those ``(cell, keyword)``
        pairs to the target.  Returns the migration record, or ``None``
        when no posting matched (the split moved no resident queries).
        """
        source = self.workers[source_worker]
        target = self.workers[target_worker]
        source.index.purge_cells((cell,))
        shipped = source.extract_keywords(cell, set(keywords))
        self.invalidate_routing_caches()
        if not shipped:
            return None
        target.install_queries(shipped)
        return self._record_migration(source_worker, target_worker, (cell,), shipped)

    @mutates_routing
    def replace_routing_index(self, routing_index: GridTIndex) -> None:
        """Swap in a new routing structure (global load adjustment).

        The workers' GI2 indexes hold ``(cell, posting keyword)`` pairs in
        the cluster's grid, so a structure over any other grid is rejected.
        """
        if routing_index.grid != self.routing_index.grid:
            raise ValueError(
                "routing index grid %r differs from the cluster's %r"
                % (routing_index.grid, self.routing_index.grid)
            )
        # The inline-routing profile survives the swap: re-attach the old
        # index's counters so a run's profile covers the whole stream.
        old_profile = getattr(self.routing_index, "profile", None)
        self.routing_index = routing_index
        if old_profile is not None:
            routing_index.profile = old_profile
        self.invalidate_routing_caches()

    def reset_load_measurement(self) -> None:
        """Start a new Section V measurement period, keeping run totals.

        Resets exactly what the adjusters observe — the Definition-1
        worker load counters and the Definition-3 per-cell object counts —
        while busy time, traces, match counts and merger state keep
        accumulating, so a closed-loop run's report still covers the whole
        stream.
        """
        for worker in self.workers.values():
            worker.reset_load_measurement()

    def close(self) -> None:
        """Release every backend (terminates out-of-process endpoints).

        Idempotent; a no-op for the in-process backends.  Out-of-process
        clusters should be closed (or used as a context manager) once the
        run and its reports are done — worker state is unreachable after.
        Releases the dispatch shards (if any) and the merger tier
        alongside the worker fleet — workers first, so no producer still
        holds a shard inbox when the mergers shut down.  Each tier is
        closed even if an earlier tier's close raises (a dead worker
        fleet must not leak dispatcher/merger processes; the first error
        is re-raised once all three are down), and the fabric's shutdown
        waits are poll-bounded, so closing mid-window — even with a
        failed exchange outstanding — cannot hang on a pipe/queue drain.
        """
        if self._closed:
            return
        self._closed = True
        if self._sampler is not None:
            self._sampler.stop()
        first_error: Optional[BaseException] = None
        closers = [self.transport.close]
        if self._dispatch is not None:
            closers.append(self._dispatch.close)
        closers.append(self._merge.close)
        if self._telemetry is not None:
            # Last: flushes the JSONL sink after every tier stopped emitting.
            closers.append(self._telemetry.close)
        for closer in closers:
            try:
                closer()
            except BaseException as exc:  # noqa: BLE001 - close all tiers first
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def reset_period(self) -> None:
        """Start a new measurement period on every process."""
        for dispatcher in self.dispatchers:
            dispatcher.reset_period()
        for worker in self.workers.values():
            worker.reset_period()
        self._merge.reset_period()
        self._traces.clear()
        self._tuples_processed = 0
        self._objects = 0
        self._insertions = 0
        self._deletions = 0
        self._matches_produced = 0
        self._object_fanout_total = 0
        self._query_fanout_total = 0
