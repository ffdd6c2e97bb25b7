"""Pluggable transport between the cluster coordinator and its workers.

The paper's PS2Stream deployment (Section III-B) is a Storm topology:
dispatchers, workers and mergers are separate executors exchanging tuples
over the network, and this module makes that communication explicit.  One
:class:`Transport` drives the worker tier on every deployment: each worker
is a :class:`WorkerHost` (a :class:`~repro.runtime.worker.WorkerNode`
behind the message surface below) on the fleet
:func:`~repro.runtime.fabric.make_fleet` builds —

* ``inprocess``, the *reference*: the hosts live in the coordinator's
  interpreter on a :class:`~repro.runtime.fabric.LocalFleet` and every
  message is a direct call, preserving the exact semantics (and
  float-for-float results) of the pre-transport engine;
* ``multiprocess`` / ``socket``: each host is a fabric endpoint — its own
  OS process served over a pickled pipe, or a ``repro serve --role
  worker`` endpoint reached over TCP — so workers match their object
  groups concurrently on separate cores (or hosts).

On every deployment one window's worth of routed work is shipped per
worker as a single :class:`RouteBatch`, all batches submitted before any
reply is collected, and the window's replies are collected later
(``submit`` / ``ready`` / ``collect``); over a fabric the workers thus
also match while the coordinator routes the next window.

The message vocabulary mirrors the Storm streams of the paper:

* :class:`RouteBatch` — dispatcher→worker: an ordered window of routed
  operations (object matching, query insertions/deletions) for one worker.
  Each op carries only what its receiver reads: an object crosses as an
  :data:`~repro.core.objects.ObjectRow` ``(object_id, x, y, terms)``, and
  a query pickles its declared fields positionally (its ``__reduce__``),
  never its process-local memos.
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
(``tests/test_report_golden.py``); the process-per-worker backend
additionally turns the simulated parallelism into real multi-core
wall-clock speedups (``benchmarks/test_multiprocess_speedup.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.geometry import Rect
from ..core.objects import MatchResult, ObjectRow, STSQuery
from ..core.text import TermStatistics
from ..indexes.grid import CellCoord
from .fabric import (
    AdjustBarrier,
    BarrierAck,
    Fleet,
    RemoteError,
    RoleHost,
    Shutdown,
    Submitted,
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

    ``rows`` carries each object as the worker reads it — an
    :data:`~repro.core.objects.ObjectRow` ``(object_id, x, y, terms)`` —
    so neither the raw text nor a ``Point`` crosses the wire.  ``cells``
    optionally carries the objects' precomputed grid cells.
    """

    rows: Sequence[ObjectRow]
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

    results: Sequence[MatchResult]


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

    This function *is* the transport seam's semantic contract: the worker
    host runs it wherever the host lives — in the coordinator's
    interpreter on a :class:`~repro.runtime.fabric.LocalFleet`, in a
    worker process or ``repro serve`` endpoint otherwise — so every
    backend executes exactly the same :class:`WorkerNode` calls in exactly
    the same order.  Matching ops reply with
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
            results, costs = worker.handle_object_batch(op.rows, op.cells)
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
            return Observation(
                tier="worker",
                endpoint_id=worker.worker_id,
                busy_cost=worker.busy_cost,
                memory_bytes=worker.memory_bytes(),
                depth=worker.query_count,
                load=worker.load(),
                profile=worker.index.profile.event(worker.worker_id),
            )
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
# The worker tier (one class over every deployment's fleet)
# ----------------------------------------------------------------------
class WorkerProxy:
    """Coordinator-side handle of one worker endpoint, wherever it lives.

    Offers exactly :attr:`WorkerNode.CONTROL_SURFACE` — what the
    coordinator and the Section V adjusters use of a worker — each
    operation one :class:`WorkerCall` round trip, each read a fresh value.
    """

    def __init__(self, transport: "Transport", worker_id: int) -> None:
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


class Transport(TierBackend):
    """Coordinator-side surface of the worker fleet: one endpoint per worker.

    ``workers`` maps worker id → :class:`WorkerProxy` on every
    deployment, so a control operation passes the same :class:`WorkerCall`
    allow-list in process as over a wire.  The tier lifecycle is
    :class:`~repro.runtime.fabric.TierBackend`'s.
    """

    def __init__(self, fleet: Fleet) -> None:
        super().__init__(fleet)
        self.workers: Dict[int, WorkerProxy] = {
            worker_id: WorkerProxy(self, worker_id) for worker_id in fleet.endpoint_ids
        }

    def exchange(
        self, batches: Mapping[int, RouteBatch]
    ) -> Dict[int, List[Optional[MatchResults]]]:
        """Ship one :class:`RouteBatch` per worker and gather the replies:
        the per-tuple driver's round trip (a window ships through
        :meth:`submit` and is collected later).

        Reply dict preserves ``batches``'s iteration order, so coordinator
        code that merges results stays deterministic across backends.
        """
        return self._fleet.exchange(batches)

    def submit(self, batches: Mapping[int, RouteBatch]) -> Submitted:
        """Ship one window's :class:`RouteBatch` per worker without waiting:
        how every window leaves the coordinator, to be collected later."""
        return self._fleet.submit(batches)

    def ready(self, submitted: Submitted) -> bool:
        """Whether :meth:`collect` of ``submitted`` would start at once
        (every reply in, or a failure known); never blocks."""
        return self._fleet.ready(submitted)

    def collect(self, submitted: Submitted) -> Dict[int, List[Optional[MatchResults]]]:
        """The replies of a :meth:`submit`, in its order; raises the first
        failure once every submitted worker has been drained."""
        return self._fleet.collect(*submitted)

    def call(self, worker_id: int, method: str, *args: Any) -> Any:
        """One control operation on one worker: a :class:`WorkerCall` round
        trip (what a :class:`WorkerProxy` attribute sends)."""
        return self._fleet.request(worker_id, WorkerCall(method, args))

    def call_all(self, method: str, *args: Any) -> Dict[int, Any]:
        """Run one control operation on every worker, keyed by worker id.

        The fan-out of the control plane (snapshots, period resets): one
        broadcast — every request written before the first reply is read —
        with the replies sorted by id, so nothing built from them depends
        on how the fleet was enumerated.
        """
        replies = self._fleet.broadcast(WorkerCall(method, args))
        return {worker_id: replies[worker_id] for worker_id in sorted(replies)}

    def snapshot_assignments(self) -> Dict[int, List[QueryAssignment]]:
        """Every worker's live assignment partition, keyed by worker id.

        The checkpoint primitive (and the global adjuster's finalisation
        read): one ``snapshot_assignments`` :meth:`call_all` at a quiescent
        point, so checkpoints are deterministic across backends.
        """
        return self.call_all("snapshot_assignments")

    def discard_worker(self, worker_id: int) -> None:
        """Drop a dead worker from the fleet (the recovery path); idempotent.

        The fleet closes its channel and reaps its process, then resyncs:
        replies the aborted window left queued on survivors are drained.
        """
        if worker_id not in self.workers:
            return
        self._fleet.discard(worker_id)
        self._fleet.resync()
        self.workers.pop(worker_id, None)


class InProcessTransport(Transport):
    """:class:`Transport` on a ``LocalFleet``: a name the e2e tracer wraps, kept
    until a benchmark change retargets it (ROADMAP item 1(b))."""


class FabricTransport(Transport):
    """:class:`Transport` on a process or socket fleet: a name the e2e tracer
    wraps, kept until a benchmark change retargets it (ROADMAP item 1(b))."""


#: Registry of the selectable transport backends (``--backend`` on the CLI).
TRANSPORT_BACKENDS = ("inprocess", "multiprocess", "socket")


def make_transport(
    backend: str,
    worker_ids: Sequence[int],
    *,
    bounds: Rect,
    granularity: int,
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
        "term_statistics": term_statistics,
    }
    direct = backend == "multiprocess"
    endpoints = tuple(merger_endpoints) if merger_endpoints and direct else None
    init = {"worker": worker_init, "merger_endpoints": endpoints}
    inits = {worker_id: init for worker_id in worker_ids}
    fleet = make_fleet("worker", backend, inits, addresses=addresses, label="worker")
    return (FabricTransport if fleet.concurrent else InProcessTransport)(fleet)
