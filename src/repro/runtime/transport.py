"""Pluggable transport between the cluster coordinator and its workers.

The paper's PS2Stream deployment (Section III-B) is a Storm topology:
dispatchers, workers and mergers are separate executors exchanging tuples
over the network.  Earlier revisions of this reproduction collapsed that
into direct Python method calls inside one interpreter; this module makes
the dispatcher→worker→merger communication explicit again so the same
coordinator code can drive

* an :class:`InProcessTransport` — the *reference* backend.  Workers are
  plain :class:`~repro.runtime.worker.WorkerNode` objects in the
  coordinator's process and every message is executed synchronously by a
  direct call, preserving the exact semantics (and float-for-float
  results) of the pre-transport engine; and
* a :class:`FabricTransport` — each worker is a fabric endpoint
  (:mod:`repro.runtime.fabric`): its own OS process served over a pickled
  pipe (``multiprocess``), or a ``repro serve --role worker`` endpoint
  reached over TCP (``socket``).  One window's worth of routed work is
  shipped per worker as a single :class:`RouteBatch`, all batches are
  submitted before any reply is collected, so workers match their object
  groups concurrently on separate cores (or hosts).

The message vocabulary mirrors the Storm streams of the paper:

* :class:`RouteBatch` — dispatcher→worker: an ordered window of routed
  operations (object matching, query insertions/deletions) for one worker.
* :class:`MatchResults` — worker→merger/coordinator: the match results and
  per-object costs of one batched matching operation.
* :class:`DeliverResults` — worker/coordinator→merger shard: one batch of
  match results for one merger's dedup/delivery.  In the full
  multiprocess deployment workers ship these directly to the merger
  shards (:mod:`repro.runtime.merge`) and the coordinator only ever sees
  the per-object costs — no result round trip through the coordinator.
* :class:`WorkerCall` — the one control-plane message: ``(method,
  args)`` naming an operation of the worker's declared control surface
  (:attr:`WorkerNode.CONTROL_SURFACE <repro.runtime.worker.WorkerNode>` —
  the Section V conversation: per-cell loads, cell/keyword hand-over,
  install, reconcile, snapshot, period resets).  The allow-list lives on
  :class:`~repro.runtime.worker.WorkerNode` and nowhere else: adding a
  control operation is a ``WorkerNode`` method plus its name in that
  tuple — nothing here, in :mod:`~repro.runtime.protocol` or the proxy.
* :class:`AdjustBarrier` — the closed-loop adjustment fence: before an
  adjustment round mutates routing state, every worker acknowledges the
  epoch, guaranteeing all previously shipped work has been applied.
* :class:`~repro.runtime.telemetry.Observe` →
  :class:`~repro.runtime.telemetry.Observation` — the one read-only
  round trip every tier answers: the per-period load, busy-time, memory
  and population numbers the reports, the Section V adjusters, the
  telemetry gauges and the profiler read.

Every backend produces byte-identical
:class:`~repro.runtime.metrics.RunReport` values on the same stream
(``tests/test_transport.py``); the process-per-worker backend
additionally turns the simulated parallelism into real multi-core
wall-clock speedups (``benchmarks/test_multiprocess_speedup.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.costmodel import CostModel
from ..core.geometry import Rect
from ..core.objects import MatchResult, SpatioTextualObject, STSQuery
from ..core.text import TermStatistics
from ..indexes.grid import CellCoord
from .fabric import (
    AdjustBarrier,
    BarrierAck,
    Fleet,
    RemoteError,
    RoleHost,
    Shutdown,
    TierBackend,
    TransportError,
    make_fleet,
    register_role,
)
from .telemetry import Observation, Observe
from .worker import QueryAssignment, WorkerNode

__all__ = [
    "AdjustBarrier",
    "BarrierAck",
    "DeleteById",
    "DeliverResults",
    "FabricTransport",
    "InProcessTransport",
    "InsertPairs",
    "MatchObjects",
    "MatchResults",
    "MergerReset",
    "RemoteError",
    "RouteBatch",
    "Shutdown",
    "SinkDrain",
    "Transport",
    "TransportError",
    "WorkerCall",
    "WorkerHost",
    "WorkerProxy",
    "execute_ops",
    "make_result_shipper",
    "make_transport",
    "partition_results",
    "ship_results",
]


# ----------------------------------------------------------------------
# Worker operations (the payload of a RouteBatch, applied in order)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class MatchObjects:
    """Match a run of objects in one bulk call (a run of one per tuple).

    ``cells`` optionally carries the objects' precomputed grid cells.
    """

    objects: Sequence[SpatioTextualObject]
    cells: Optional[Sequence[CellCoord]] = None


@dataclass(slots=True)
class InsertPairs:
    """Register a query under exactly the ``(cell, posting keyword)``
    pairs the dispatcher routed to this worker."""

    query: STSQuery
    pairs: Sequence[Tuple[CellCoord, str]]


@dataclass(slots=True)
class DeleteById:
    """Lazily delete a query by id."""

    query_id: int


WorkerOp = Union[MatchObjects, InsertPairs, DeleteById]


@dataclass(slots=True)
class RouteBatch:
    """Dispatcher→worker: one window's ordered operations for one worker."""

    ops: Sequence[WorkerOp]


@dataclass(slots=True)
class MatchResults:
    """Worker→coordinator reply to a matching op: results + per-object costs.

    ``produced`` counts the results the op produced.  It equals
    ``len(results)`` unless the worker shipped the results directly to the
    merger shards (``results`` is then empty — the coordinator only needs
    the count); ``-1`` means "not set, use ``len(results)``".
    """

    results: Tuple[MatchResult, ...]
    costs: Tuple[float, ...]
    produced: int = -1

    @property
    def produced_count(self) -> int:
        return self.produced if self.produced >= 0 else len(self.results)


# ----------------------------------------------------------------------
# Merger-tier messages (worker/coordinator -> merger shard and back)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class DeliverResults:
    """Worker/coordinator→merger: match results for one merger's shard.

    The data-plane message of the merger tier: all results in the batch
    already belong to the receiving shard (``query_id % num_mergers``).
    Fire-and-forget — the shard acknowledges nothing; control messages on
    the same inbox fence behind every earlier delivery.
    """

    results: Tuple[MatchResult, ...]


def partition_results(
    results: Sequence[MatchResult], num_mergers: int
) -> Dict[int, List[MatchResult]]:
    """Group results by owning merger shard, preserving arrival order.

    ``query_id % num_mergers`` is THE shard assignment of the merger
    tier: every producer (coordinator-side delivery and direct worker
    shipping alike) must partition through this one function, because a
    query's replicated matches only deduplicate if they meet at the same
    shard.
    """
    per_merger: Dict[int, List[MatchResult]] = {}
    for result in results:
        merger_id = result.query_id % num_mergers
        batch = per_merger.get(merger_id)
        if batch is None:
            per_merger[merger_id] = [result]
        else:
            batch.append(result)
    return per_merger


def ship_results(
    results: Sequence[MatchResult],
    num_mergers: int,
    send: Callable[[int, Sequence[MatchResult]], None],
) -> None:
    """The one delivery shape every producer uses: one ``send(merger_id,
    batch)`` per involved shard, whole-batch shortcut for a single shard."""
    if not results:
        return
    if num_mergers == 1:
        send(0, results)
        return
    for merger_id, batch in partition_results(results, num_mergers).items():
        send(merger_id, batch)


@dataclass(slots=True)
class MergerReset:
    """Start a new measurement period on a merger shard (acked)."""


@dataclass(slots=True)
class SinkDrain:
    """Pull (and clear) the buffered deliveries of a shard's sink."""


# ----------------------------------------------------------------------
# The control-plane message (migration, stats, snapshots, period resets)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class WorkerCall:
    """Coordinator→worker: run one operation of the worker's control surface.

    ``method`` must be a name in :attr:`WorkerNode.CONTROL_SURFACE` — a
    method, called with ``*args``, or one of the ``CONTROL_READS``
    attributes, read.  The reply is the operation's return value.
    """

    method: str
    args: Tuple[Any, ...] = ()


# ----------------------------------------------------------------------
# Operation execution (shared by all backends — the reference semantics)
# ----------------------------------------------------------------------
def execute_ops(
    worker: WorkerNode,
    ops: Sequence[WorkerOp],
    deliver: Optional[Callable[[Sequence[MatchResult]], None]] = None,
) -> List[Optional[MatchResults]]:
    """Apply one :class:`RouteBatch`'s operations to a worker, in order.

    This function *is* the transport seam's semantic contract: the
    in-process backend runs it directly against the coordinator's worker
    objects and the fabric worker host runs it inside the worker process,
    so every backend executes exactly the same :class:`WorkerNode` calls
    in exactly the same order.  Matching ops reply with
    :class:`MatchResults`; update ops reply ``None`` (their costs are the
    fixed Definition-1 constants the coordinator already knows).

    ``deliver`` is the direct worker→merger shipping hook: when set (the
    full multiprocess deployment), each matching op's results are handed
    to it — it ships them to the merger shards — and the reply carries
    only the per-object costs plus the produced count, so match results
    never round-trip through the coordinator.
    """
    replies: List[Optional[MatchResults]] = []
    for op in ops:
        kind = type(op)
        if kind is MatchObjects:
            results, costs = worker.handle_object_batch(op.objects, op.cells)
            if deliver is None:
                replies.append(MatchResults(tuple(results), tuple(costs), len(results)))
            else:
                deliver(results)
                replies.append(MatchResults((), tuple(costs), len(results)))
        elif kind is InsertPairs:
            worker.handle_insertion(op.query, op.pairs)
            replies.append(None)
        elif kind is DeleteById:
            worker.handle_deletion(op.query_id)
            replies.append(None)
        else:
            raise TransportError("unknown worker op %r" % (op,))
    return replies


def _observe_worker(worker: WorkerNode) -> Observation:
    """One worker's observation from live state (read-only)."""
    return Observation(
        tier="worker",
        endpoint_id=worker.worker_id,
        busy_cost=worker.busy_cost,
        memory_bytes=worker.memory_bytes(),
        depth=worker.query_count,
        load=worker.load(),
        profile=worker.index.profile.event(worker.worker_id),
    )


# ----------------------------------------------------------------------
# Transport interface
# ----------------------------------------------------------------------
class Transport(TierBackend):
    """Coordinator-side surface for talking to the worker fleet.

    ``workers`` maps worker id → handle; for the in-process backend the
    handle is the :class:`WorkerNode` itself, for the fabric backends a
    :class:`WorkerProxy` forwarding the node's control surface over the
    channel.  The coordinator never assumes which one it holds.  The tier lifecycle
    (``barrier`` / ``observe`` / ``wire_stats`` / ``install_fault_plan`` /
    ``close``) is :class:`~repro.runtime.fabric.TierBackend`'s.
    """

    workers: Mapping[int, Any] = {}
    #: Does an :meth:`exchange` block on a round trip to other processes?
    #: Then the window executor ships a whole window per exchange instead
    #: of one segment; a direct call is free and executes each segment at
    #: its flush, which delivers its results earlier.
    exchange_round_trip = False

    def exchange(
        self, batches: Mapping[int, RouteBatch]
    ) -> Dict[int, List[Optional[MatchResults]]]:
        """Ship one window's :class:`RouteBatch` per worker; gather replies.

        Reply dict preserves ``batches``'s iteration order, so coordinator
        code that merges results stays deterministic across backends.
        """
        raise NotImplementedError

    def call_all(self, method: str, *args: Any) -> Dict[int, Any]:
        """Run one control operation on every worker, keyed by worker id.

        The fan-out of the control plane (snapshots, period resets): in
        process a direct method call per worker in sorted id order, so
        nothing built from the replies depends on how the fleet was
        enumerated; over a fabric one broadcast.
        """
        workers = self.workers
        return {
            worker_id: getattr(workers[worker_id], method)(*args)
            for worker_id in sorted(workers)
        }

    def snapshot_assignments(self) -> Dict[int, List[QueryAssignment]]:
        """Every worker's live assignment partition, keyed by worker id.

        The checkpoint primitive (and the global adjuster's finalisation
        read): one ``snapshot_assignments`` :meth:`call_all` at a quiescent
        point, so checkpoints are deterministic across backends.
        """
        return self.call_all("snapshot_assignments")

    def discard_worker(self, worker_id: int) -> None:
        """Drop a dead worker from the fleet (the recovery path).

        After this, the worker no longer participates in exchanges,
        stats, or barriers; idempotent for an already-discarded id.
        """
        raise NotImplementedError


class InProcessTransport(Transport):
    """Reference backend: workers live in the coordinator's interpreter."""

    backend_name = "inprocess"

    def __init__(self, workers: Dict[int, WorkerNode]) -> None:
        self.workers: Dict[int, WorkerNode] = workers

    def exchange(
        self, batches: Mapping[int, RouteBatch]
    ) -> Dict[int, List[Optional[MatchResults]]]:
        workers = self.workers
        return {
            worker_id: execute_ops(workers[worker_id], batch.ops)
            for worker_id, batch in batches.items()
        }

    def observe(self) -> Dict[int, Observation]:
        # Sorted by worker id so report merges never depend on the order
        # the worker fleet happened to be enumerated in.
        return {
            worker_id: _observe_worker(self.workers[worker_id])
            for worker_id in sorted(self.workers)
        }

    def discard_worker(self, worker_id: int) -> None:
        self.workers.pop(worker_id, None)


# ----------------------------------------------------------------------
# The worker role host (served by the fabric's generic serve loop)
# ----------------------------------------------------------------------
def make_result_shipper(
    merger_inboxes: Sequence[Any],
) -> Callable[[Sequence[MatchResult]], None]:
    """Build the direct worker→merger shipping hook over shard inboxes.

    Partitions a matching op's results by ``query_id % num_mergers`` —
    the same shard assignment the coordinator-side delivery uses — and
    writes one :class:`DeliverResults` per involved shard.  The inboxes
    are ``SimpleQueue``s: ``put`` serialises and writes synchronously in
    the calling thread, so by the time the worker replies to the
    coordinator its deliveries are already in the shard pipes — which is
    what lets control messages enqueued later act as a fence.
    """
    num_mergers = len(merger_inboxes)

    def send(merger_id: int, batch: Sequence[MatchResult]) -> None:
        merger_inboxes[merger_id].put(DeliverResults(tuple(batch)))

    def deliver(results: Sequence[MatchResult]) -> None:
        ship_results(results, num_mergers, send)

    return deliver


class WorkerHost(RoleHost):
    """One worker endpoint's role logic: a :class:`WorkerNode` driven by
    the data plane's :class:`RouteBatch`, ``Observe`` and — for the
    control surface the node declares — :class:`WorkerCall`.

    ``init`` carries the :class:`WorkerNode` constructor arguments under
    ``"worker"`` and, for process-per-worker deployments that inherit the
    merger shard inboxes at spawn, the ``"merger_endpoints"`` enabling
    direct worker→merger result shipping.
    """

    def __init__(self, worker_id: int, init: Mapping[str, Any]) -> None:
        self.worker = WorkerNode(worker_id, **init["worker"])
        merger_inboxes = init.get("merger_endpoints")
        self._deliver = make_result_shipper(merger_inboxes) if merger_inboxes else None

    def handle(self, message: Any) -> Any:
        kind = type(message)
        worker = self.worker
        if kind is RouteBatch:
            return execute_ops(worker, message.ops, self._deliver)
        if kind is Observe:
            return _observe_worker(worker)
        if kind is WorkerCall:
            method = message.method
            # Checked before anything is resolved: a name off the wire that
            # is not declared — private, dotted, unknown — never reaches getattr.
            if method not in WorkerNode.CONTROL_SURFACE:
                raise TransportError("%r is not a worker control operation" % (method,))
            target = getattr(worker, method)
            return target if method in WorkerNode.CONTROL_READS else target(*message.args)
        raise TransportError("unknown message %r" % (message,))


register_role("worker", WorkerHost)


# ----------------------------------------------------------------------
# Fabric-backed transport (multiprocess and socket deployments)
# ----------------------------------------------------------------------
class WorkerProxy:
    """Coordinator-side handle of one remote worker endpoint.

    Offers exactly :attr:`WorkerNode.CONTROL_SURFACE` — what the
    coordinator and the Section V adjusters use of a worker — each
    operation one :class:`WorkerCall` round trip, each read a fresh value.
    """

    def __init__(self, transport: "FabricTransport", worker_id: int) -> None:
        self.worker_id = worker_id
        self._transport = transport

    def __getattr__(self, name: str) -> Any:
        if name in WorkerNode.CONTROL_READS:
            return self._transport.call(self.worker_id, name)
        if name in WorkerNode.CONTROL_SURFACE:
            return partial(self._transport.call, self.worker_id, name)
        raise AttributeError(name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "WorkerProxy(id=%d)" % self.worker_id


class FabricTransport(Transport):
    """Worker fleet behind fabric channels: one endpoint per worker.

    All of a window's :class:`RouteBatch` messages are written before any
    reply is read (:meth:`exchange`), so worker endpoints execute their
    object-matching groups concurrently; the coordinator then collects
    the replies in deterministic order.  The same class serves the
    ``multiprocess`` deployment (one local OS process per worker over a
    pipe) and the ``socket`` deployment (``repro serve`` endpoints over
    TCP) — only the fleet construction differs.
    """

    exchange_round_trip = True
    _fleet: Fleet

    def __init__(self, fleet: Fleet) -> None:
        self._fleet = fleet
        self.backend_name = fleet.backend_name
        self.workers: Dict[int, WorkerProxy] = {
            worker_id: WorkerProxy(self, worker_id) for worker_id in fleet.endpoint_ids
        }

    # -- Transport surface --------------------------------------------
    def exchange(
        self, batches: Mapping[int, RouteBatch]
    ) -> Dict[int, List[Optional[MatchResults]]]:
        return self._fleet.exchange(batches)

    def call(self, worker_id: int, method: str, *args: Any) -> Any:
        """One control operation on one worker: a :class:`WorkerCall` round
        trip (what a :class:`WorkerProxy` attribute sends)."""
        return self._fleet.request(worker_id, WorkerCall(method, args))

    def call_all(self, method: str, *args: Any) -> Dict[int, Any]:
        # Every request is written before the first reply is read.
        replies = self._fleet.broadcast(WorkerCall(method, args))
        return {worker_id: replies[worker_id] for worker_id in sorted(replies)}

    def discard_worker(self, worker_id: int) -> None:
        """Drop a dead endpoint and re-align the surviving channels.

        The fleet-level discard closes the channel and reaps the
        process; the resync barrier then drains any replies the aborted
        window left queued on survivors, so the transport's next
        request/reply pair starts clean.
        """
        if worker_id not in self.workers:
            return
        self._fleet.discard(worker_id)
        self._fleet.resync()
        self.workers.pop(worker_id, None)


#: Registry of the selectable transport backends (``--backend`` on the CLI).
TRANSPORT_BACKENDS = ("inprocess", "multiprocess", "socket")


def make_transport(
    backend: str,
    worker_ids: Sequence[int],
    *,
    bounds: Rect,
    granularity: int,
    cost_model: CostModel,
    term_statistics: Optional[TermStatistics],
    merger_endpoints: Optional[Sequence[Any]] = None,
    addresses: Optional[Sequence[Tuple[str, int]]] = None,
) -> Transport:
    """Build the transport (and its workers) for a cluster deployment.

    ``merger_endpoints`` (the merge backend's per-shard inboxes, when the
    merger tier runs out of process) turns on direct worker→merger result
    shipping in the multiprocess backend; the in-process backend ignores
    it — its workers reply to the coordinator, which forwards to the
    merge backend itself.  The socket backend also ignores it: queue
    inboxes cannot cross a TCP connection, and per-connection ordering
    gives no fence across producers, so socket workers return results to
    the coordinator, which delivers to the merger shards itself (reports
    are unaffected — delivery hops are not part of the RunReport).

    ``addresses`` are the manifest's ``repro serve --role worker``
    endpoints (:func:`~repro.runtime.fabric.make_fleet`).
    """
    worker_init: Dict[str, Any] = {
        "bounds": bounds,
        "granularity": granularity,
        "cost_model": cost_model,
        "term_statistics": term_statistics,
    }
    if backend == "inprocess":
        return InProcessTransport(
            {worker_id: WorkerNode(worker_id, **worker_init) for worker_id in worker_ids}
        )
    direct = backend == "multiprocess"
    endpoints = tuple(merger_endpoints) if merger_endpoints and direct else None
    init = {"worker": worker_init, "merger_endpoints": endpoints}
    inits = {worker_id: init for worker_id in worker_ids}
    return FabricTransport(
        make_fleet("worker", backend, inits, addresses=addresses, label="worker")
    )
