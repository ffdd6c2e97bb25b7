"""Sharded dispatch: GridT routing as its own parallel pipeline stage.

The paper's PS2Stream deployment scales *dispatchers* exactly like
workers: Figure 9 charges the routing-structure memory once per
dispatcher and Figure 11 grows both tiers together.  Until this module
existed, the reproduction only parallelised the worker tier — all GridT
routing ran serially on the coordinator, so ``--dispatchers`` changed the
simulated accounting but never bought real parallelism.

This module makes the dispatcher tier real.  The stream window is
partitioned across ``N`` dispatcher **shards** — shard ``s`` owns the
tuples whose round-robin dispatcher slot is ``s``, the exact assignment
the serial engine already simulates — and each shard routes its slice on
its **own replica** of the routing index:

* every shard applies *every* query insertion/deletion to its replica (an
  update's H2 effect must be visible to all later objects, whichever
  shard routes them), mirroring the paper's model where each dispatcher
  holds a full copy of the routing structure;
* each shard routes only its *own* objects — the expensive part of
  dispatch (per-term H2 probes, worker-set unions) — and returns one
  position-tagged decision per object;
* the coordinator merges the shard replies by stream position into one
  :class:`RoutedWindow` and replays the deferred-barrier segmentation of
  the batched engine over it, so each worker receives exactly the same
  ordered ``RouteBatch`` messages the serial path would have produced —
  reports stay byte-identical to single-threaded routing.

Backends mirror the worker transport of :mod:`.transport`:

* :class:`InProcessDispatch` — the reference.  Shard replicas live in the
  coordinator's interpreter (built by a pickle round trip, the same
  construction the remote hosts use) and ``submit_window`` routes
  synchronously.
* :class:`FabricDispatch` — one fabric endpoint per shard
  (:mod:`repro.runtime.fabric`): a local OS process over a pickled pipe
  (``multiprocess``) or a ``repro serve --role dispatcher`` endpoint over
  TCP (``socket``).  ``submit_window`` only ships the slices; the
  coordinator collects window ``K``'s replies *before* submitting ``K+1``
  and runs worker matching of window ``K`` *after* submitting ``K+1``, so
  shard routing of the next window overlaps worker matching of the
  current one (the dispatcher→worker pipelining of the paper's topology).

Replica consistency: stream updates keep the replicas in sync
incrementally.  Out-of-band H1 mutations — Section V cell migrations,
Phase I text splits, routing-index swaps — go through
``Cluster.invalidate_routing_caches``, which bumps a routing version; the
cluster re-ships a version-stamped snapshot of its authoritative index to
every shard before the next routed window (one sync per adjustment round,
not per mutation).  Adjustment rounds additionally fence the shards with
the same :class:`~repro.runtime.transport.AdjustBarrier` epoch message
the worker tier uses, so no shard routes against pre-adjustment state.

Routing on per-process replicas is only deterministic because the
routing index itself is: posting-keyword iteration is sorted and the
uncovered-cell fallback hashes with ``crc32`` (see
:mod:`repro.indexes.gridt`), so two replicas in different interpreters
always produce identical decisions and identical per-worker plans.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.counters import RouteProfile
from ..core.geometry import Point
from ..core.objects import StreamTuple, TupleKind
from ..indexes.gridt import WorkerPlan
from .fabric import Fleet, RoleHost, TierBackend, TransportError, make_fleet, register_role
from .telemetry import Observation, Observe

__all__ = [
    "DISPATCH_BACKENDS",
    "DispatchBackend",
    "DispatchHost",
    "DispatcherLedger",
    "FabricDispatch",
    "InProcessDispatch",
    "RoutedWindow",
    "make_dispatch",
]

#: The wire form of an object heading for routing: ``(position, x, y,
#: terms)``.  Routing reads exactly an object's location and term set, so
#: that is all that crosses a shard pipe — a full
#: :class:`~repro.core.objects.SpatioTextualObject` would drag its raw
#: text and metadata along for nothing.
ObjectProbe = Tuple[int, float, float, Any]


class _RoutingProbe:
    """Lightweight stand-in exposing the two fields routing reads.

    ``GridTIndex.route_object(_batch)`` only touches ``location`` and
    ``terms``; reconstructing this probe on the shard (in parallel) is
    cheaper than pickling whole objects on the coordinator (serially).
    """

    __slots__ = ("location", "terms")

    def __init__(self, location: Point, terms: Any) -> None:
        self.location = location
        self.terms = terms


# ----------------------------------------------------------------------
# Messages (coordinator <-> dispatch shard)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class RouteWindow:
    """Coordinator→shard: one window slice to route.

    ``objects`` carries only the shard's *owned* objects as compact
    :data:`ObjectProbe` entries; ``updates`` carries every update of the
    window (position, tuple) because all replicas must apply them.
    ``base`` is the round-robin dispatcher slot of window position 0,
    from which the shard derives which updates it owns (and must return
    plans for).
    """

    seq: int
    base: int
    objects: Sequence[ObjectProbe]
    updates: Sequence[Tuple[int, StreamTuple]]


@dataclass(slots=True)
class WindowRouting:
    """Shard→coordinator: the shard's routed slice, tagged by position.

    ``decisions`` holds one ``(position, sorted worker tuple)`` entry per
    owned object; ``plans`` one ``(position, is_insert, per-worker plan,
    probed cells)`` entry per owned update.
    """

    seq: int
    decisions: Sequence[Tuple[int, Tuple[int, ...]]]
    plans: Sequence[Tuple[int, bool, WorkerPlan, int]]


@dataclass(slots=True)
class SyncRoutingIndex:
    """Coordinator→shard: replace the replica with a pickled snapshot."""

    payload: bytes
    version: int


@dataclass(slots=True)
class RoutedWindow:
    """One window's merged routing, reassembled in stream order.

    The deterministic merge of all shard replies: ``decisions`` maps every
    object position to its sorted worker tuple, ``plans`` every update
    position to ``(is_insert, per-worker plan, probed cells)``.  The
    cluster replays its deferred-barrier segmentation over these exactly
    as if it had routed the window itself.
    """

    decisions: Dict[int, Tuple[int, ...]]
    plans: Dict[int, Tuple[bool, WorkerPlan, int]]


def plan_update(
    index: Any, plan_cache: Dict[int, Tuple[WorkerPlan, int]], item: StreamTuple
) -> Tuple[bool, WorkerPlan, int]:
    """Plan one query update on ``index`` and apply its H2 delta.

    Returns ``(is_insert, per-worker plan, probed cells)``.  An
    insertion's plan is remembered in ``plan_cache`` and offered back to
    the index when the matching deletion arrives (the keyword choice is
    deterministic, Section IV-C); the cache's owner drops it whenever H1
    changes.
    """
    query = item.payload.query
    if item.kind is TupleKind.INSERT:
        per_worker, cells = plan_cache[query.query_id] = index.insertion_plan_apply(query)
        return True, per_worker, cells
    per_worker, cells = index.deletion_plan_apply(
        query, plan_cache.pop(query.query_id, None)
    )
    return False, per_worker, cells


class DispatcherLedger:
    """Definition-1 accounting of one dispatcher (Section III-B).

    Routing itself is :func:`plan_update` and
    :meth:`~repro.indexes.gridt.GridTIndex.route_cell`, applied by the
    cluster's drivers or by a dispatch shard; what every simulated
    dispatcher keeps is the cost of the decisions charged to its
    round-robin slot, so that a dispatcher can become the bottleneck,
    exactly as the paper argues when motivating the gridt index over the
    raw kdt-tree.
    """

    #: Cost (in the same units as the worker cost model) of one hash-map
    #: probe in the gridt index.
    PROBE_COST = 0.02
    #: Fixed per-tuple overhead (deserialisation, cell lookup).
    TUPLE_COST = 0.05

    __slots__ = ("dispatcher_id", "busy_cost")

    def __init__(self, dispatcher_id: int) -> None:
        self.dispatcher_id = dispatcher_id
        #: Cost units charged to this slot in the current period; how many
        #: objects were routed or fell back is on the router counters
        #: (:class:`~repro.core.counters.RouteProfile`), not here.
        self.busy_cost = 0.0

    def reset_period(self) -> None:
        self.busy_cost = 0.0


def _split_window(
    items: Sequence[StreamTuple], base: int, num_shards: int
) -> Tuple[List[List[ObjectProbe]], List[Tuple[int, StreamTuple]]]:
    """Partition one window: object probes by owner shard, updates for all."""
    object_slices: List[List[ObjectProbe]] = [[] for _ in range(num_shards)]
    updates: List[Tuple[int, StreamTuple]] = []
    object_kind = TupleKind.OBJECT
    for position, item in enumerate(items):
        if item.kind is object_kind:
            obj = item.payload
            location = obj.location
            object_slices[(base + position) % num_shards].append(
                (position, location.x, location.y, obj.terms)
            )
        else:
            updates.append((position, item))
    return object_slices, updates


# ----------------------------------------------------------------------
# The shard routing engine (shared by all backends)
# ----------------------------------------------------------------------
class _ShardRouter:
    """One dispatch shard: a routing-index replica plus its caches.

    Runs in the coordinator's interpreter (in-process backend) or inside a
    shard host process (fabric backends); either way it executes the
    exact same :class:`~repro.indexes.gridt.GridTIndex` calls the serial
    engine would, so its decisions and plans are byte-identical to
    coordinator routing.
    """

    __slots__ = ("shard_id", "num_shards", "index", "insertion_plans", "profile")

    def __init__(self, shard_id: int, num_shards: int) -> None:
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.index = None
        #: query id -> (per-worker plan, probed cells); mirrors the batched
        #: engine's insertion-assignment cache so deletions reuse their
        #: insertion's plan.  Dropped on every snapshot sync, exactly when
        #: the cluster drops its own cache.
        self.insertion_plans: Dict[int, Tuple[WorkerPlan, int]] = {}
        #: Router-owned routing counters; attached to every freshly
        #: unpickled replica by :meth:`sync` so a run's profile survives
        #: snapshot syncs (and the coordinator's own counts, which ride
        #: the pickle, never leak into shard attribution).
        self.profile = RouteProfile()

    def sync(self, index: Any) -> None:
        self.index = index
        index.profile = self.profile
        self.insertion_plans.clear()

    def route_window(
        self,
        objects: Sequence[ObjectProbe],
        updates: Sequence[Tuple[int, StreamTuple]],
        base: int,
    ) -> Tuple[
        List[Tuple[int, Tuple[int, ...]]],
        List[Tuple[int, bool, WorkerPlan, int]],
    ]:
        """Route one window slice in stream order.

        Every update is applied to the replica at its stream position so
        later objects observe its H2 effect; runs of owned objects between
        updates are routed through ``route_object_batch`` (the same
        ``route_cell`` rule the serial batched engine uses).
        """
        index = self.index
        if index is None:
            raise TransportError("dispatch shard %d routed before sync" % self.shard_id)
        decisions: List[Tuple[int, Tuple[int, ...]]] = []
        plans: List[Tuple[int, bool, WorkerPlan, int]] = []
        cache = self.insertion_plans
        route_batch = index.route_object_batch
        oi = 0
        total = len(objects)
        for upos, item in updates:
            start = oi
            while oi < total and objects[oi][0] < upos:
                oi += 1
            if oi > start:
                run = objects[start:oi]
                for (position, _, _, _), decision in zip(
                    run,
                    route_batch(
                        [_RoutingProbe(Point(x, y), terms) for _, x, y, terms in run]
                    ),
                ):
                    decisions.append((position, decision))
            is_insert, per_worker, cells = plan_update(index, cache, item)
            if (base + upos) % self.num_shards == self.shard_id:
                plans.append((upos, is_insert, per_worker, cells))
        if oi < total:
            run = objects[oi:]
            for (position, _, _, _), decision in zip(
                run,
                route_batch(
                    [_RoutingProbe(Point(x, y), terms) for _, x, y, terms in run]
                ),
            ):
                decisions.append((position, decision))
        return decisions, plans

    def memory_bytes(self) -> int:
        return self.index.memory_bytes() if self.index is not None else 0


# ----------------------------------------------------------------------
# Backend interface
# ----------------------------------------------------------------------
class DispatchBackend(TierBackend):
    """Coordinator-side surface of the sharded dispatch stage.

    The cluster drives it with a strict window protocol: ``sync`` (when
    the routing version moved), ``submit_window``, ``collect_window`` —
    at most one window outstanding; a per-tuple replay submits windows of
    one — plus the :class:`~repro.runtime.fabric.TierBackend` lifecycle:
    ``barrier`` at adjustment fences and ``observe`` for the Figure 9
    per-dispatcher memory report, the gauges and the profile.  A shard's
    observation carries the measured routing-structure size of its
    replica as ``memory_bytes`` and its insertion-plan cache as ``depth``;
    the coordinator overlays the Definition-1 dispatcher busy cost
    (tracked on its own :class:`DispatcherLedger` accounting) on the
    gauges it records.
    """

    #: Whether collect/submit may be interleaved across consecutive
    #: windows so shard routing overlaps worker matching.
    supports_pipelining = False
    num_shards: int = 0
    #: Routing version of the last snapshot shipped to the shards; the
    #: cluster re-syncs whenever its own version differs.
    synced_version: int = -1

    def sync(self, routing_index: Any, version: int) -> None:
        """Ship a snapshot of the routing index to every shard replica."""
        raise NotImplementedError

    def submit_window(self, items: Sequence[StreamTuple], base: int) -> int:
        """Start routing one window; returns its sequence number."""
        raise NotImplementedError

    def collect_window(self, seq: int) -> RoutedWindow:
        """Gather and merge the shard replies of window ``seq``."""
        raise NotImplementedError

    # -- shared plumbing ----------------------------------------------
    @staticmethod
    def _merge(replies: Iterable[WindowRouting]) -> RoutedWindow:
        """Deterministic merge: shard replies in ascending shard order,
        entries keyed by stream position."""
        decisions: Dict[int, Tuple[int, ...]] = {}
        plans: Dict[int, Tuple[bool, WorkerPlan, int]] = {}
        for reply in replies:
            for position, decision in reply.decisions:
                decisions[position] = decision
            for position, is_insert, per_worker, cells in reply.plans:
                plans[position] = (is_insert, per_worker, cells)
        return RoutedWindow(decisions, plans)


class InProcessDispatch(DispatchBackend):
    """Reference backend: shard replicas in the coordinator's interpreter.

    Replicas are built by the same pickle round trip the remote hosts
    perform, so any snapshot the fabric backends could mis-handle fails
    here first, in-process and debuggable.
    """

    backend_name = "inprocess"
    supports_pipelining = False

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("dispatch needs at least one shard")
        self.num_shards = num_shards
        self._routers = [_ShardRouter(shard, num_shards) for shard in range(num_shards)]
        self.synced_version = -1
        self._seq = 0
        self._routed: Dict[int, RoutedWindow] = {}

    def sync(self, routing_index: Any, version: int) -> None:
        blob = pickle.dumps(routing_index, protocol=pickle.HIGHEST_PROTOCOL)
        for router in self._routers:
            router.sync(pickle.loads(blob))
        self.synced_version = version

    def submit_window(self, items: Sequence[StreamTuple], base: int) -> int:
        self._seq += 1
        seq = self._seq
        object_slices, updates = _split_window(items, base, self.num_shards)
        replies = [
            WindowRouting(
                seq, *router.route_window(object_slices[router.shard_id], updates, base)
            )
            for router in self._routers
        ]
        self._routed[seq] = self._merge(replies)
        return seq

    def collect_window(self, seq: int) -> RoutedWindow:
        return self._routed.pop(seq)

    def observe(self) -> Dict[int, Observation]:
        return {router.shard_id: _observe_dispatcher(router) for router in self._routers}


def _observe_dispatcher(router: "_ShardRouter") -> Observation:
    """One dispatch shard's observation from live state (read-only).

    A shard replica does no Definition-1 cost accounting (the
    coordinator charges dispatcher busy cost itself, identically on
    every backend), so ``busy_cost`` is filled in coordinator-side.
    """
    return Observation(
        tier="dispatcher",
        endpoint_id=router.shard_id,
        busy_cost=0.0,
        memory_bytes=router.memory_bytes(),
        depth=len(router.insertion_plans),
        profile=router.profile.event(router.shard_id),
    )


# ----------------------------------------------------------------------
# The dispatcher role host (served by the fabric's generic serve loop)
# ----------------------------------------------------------------------
class DispatchHost(RoleHost):
    """One dispatch-shard endpoint: a :class:`_ShardRouter` behind the
    typed-message surface.  ``init`` carries ``num_shards``."""

    def __init__(self, shard_id: int, init: Mapping[str, Any]) -> None:
        self.router = _ShardRouter(shard_id, init["num_shards"])

    def handle(self, message: Any) -> Any:
        kind = type(message)
        router = self.router
        if kind is RouteWindow:
            decisions, plans = router.route_window(
                message.objects, message.updates, message.base
            )
            return WindowRouting(message.seq, decisions, plans)
        if kind is SyncRoutingIndex:
            router.sync(pickle.loads(message.payload))
            return True
        if kind is Observe:
            return _observe_dispatcher(router)
        raise TransportError("unknown dispatch message %r" % (message,))


register_role("dispatcher", DispatchHost)


# ----------------------------------------------------------------------
# Fabric-backed dispatch (multiprocess and socket deployments)
# ----------------------------------------------------------------------
class FabricDispatch(DispatchBackend):
    """Each dispatch shard is a fabric endpoint (process or TCP service).

    ``submit_window`` ships every shard's slice without reading replies;
    the cluster collects window ``K`` before submitting ``K+1`` (at most
    one window outstanding per shard, so a request is only ever written to
    an idle host) and runs worker matching of ``K`` after the submit —
    routing of the next window overlaps matching of the current one.
    """

    supports_pipelining = True
    _fleet: Fleet

    def __init__(self, fleet: Fleet) -> None:
        self._fleet = fleet
        self.backend_name = fleet.backend_name
        self.num_shards = len(fleet.endpoint_ids)
        self.synced_version = -1
        self._seq = 0
        self._inflight: Optional[int] = None

    # -- DispatchBackend surface --------------------------------------
    def sync(self, routing_index: Any, version: int) -> None:
        if self._inflight is not None:
            raise TransportError("cannot sync dispatch shards with a window in flight")
        blob = pickle.dumps(routing_index, protocol=pickle.HIGHEST_PROTOCOL)
        self._fleet.broadcast(SyncRoutingIndex(blob, version))
        self.synced_version = version

    def submit_window(self, items: Sequence[StreamTuple], base: int) -> int:
        if self._inflight is not None:
            raise TransportError(
                "dispatch window %d still in flight" % self._inflight
            )
        self._seq += 1
        seq = self._seq
        object_slices, updates = _split_window(items, base, self.num_shards)
        for shard_id in range(self.num_shards):
            self._fleet.send(shard_id, RouteWindow(seq, base, object_slices[shard_id], updates))
        self._inflight = seq
        return seq

    def collect_window(self, seq: int) -> RoutedWindow:
        if self._inflight != seq:
            raise TransportError(
                "collecting dispatch window %d but %r is in flight" % (seq, self._inflight)
            )
        try:
            replies = self._fleet.collect(sorted(self._fleet.endpoint_ids))
        finally:
            self._inflight = None
        for shard_id, reply in replies.items():
            if not isinstance(reply, WindowRouting) or reply.seq != seq:
                raise TransportError(
                    "dispatch shard %d answered out of sequence: %r" % (shard_id, reply)
                )
        return self._merge(replies[shard_id] for shard_id in sorted(replies))

    def observe(self) -> Dict[int, Observation]:
        if self._inflight is not None:
            # A routed window is outstanding (pipelined engine): a
            # replied request now would desync the request/reply pairing.
            # Observation is best-effort — the coordinator still records
            # its own dispatcher busy accounting, and shard state
            # appears at the next quiescent point (barrier / report).
            return {}
        return super().observe()


#: Registry of the selectable dispatch backends (``--dispatch-backend``).
#: ``inline`` keeps routing on the coordinator (the pre-sharding engine).
DISPATCH_BACKENDS = ("inline", "inprocess", "multiprocess", "socket")


def make_dispatch(
    backend: str,
    num_shards: int,
    *,
    addresses: Optional[Sequence[Tuple[str, int]]] = None,
) -> Optional[DispatchBackend]:
    """Build the dispatch backend; ``None`` means inline (coordinator) routing.

    ``addresses`` are the manifest's ``repro serve --role dispatcher``
    endpoints (:func:`~repro.runtime.fabric.make_fleet`).
    """
    if backend == "inline":
        return None
    if backend == "inprocess":
        return InProcessDispatch(num_shards)
    init = {"num_shards": num_shards}
    inits = {shard_id: init for shard_id in range(num_shards)}
    return FabricDispatch(
        make_fleet("dispatcher", backend, inits, addresses=addresses, label="dispatch shard")
    )
