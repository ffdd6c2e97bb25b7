"""Sharded dispatch: GridT routing as its own parallel pipeline stage.

The paper's PS2Stream deployment scales *dispatchers* exactly like
workers: Figure 9 charges the routing-structure memory once per
dispatcher and Figure 11 grows both tiers together.  Here the stream
window is partitioned across ``N`` dispatcher **shards** — shard ``s``
owns the tuples whose round-robin dispatcher slot is ``s``, the exact
assignment the serial engine already simulates — and each shard routes
its slice on its **own replica** of the routing index:

* every shard applies *every* query insertion/deletion to its replica (an
  update's H2 effect must be visible to all later objects, whichever
  shard routes them), mirroring the paper's model where each dispatcher
  holds a full copy of the routing structure;
* each shard routes only its *own* objects — the expensive part of
  dispatch (per-term H2 probes, worker-set unions) — and returns one
  position-tagged decision per object.  One pass merges the object rows
  and the updates in stream order, computing each object's cell as the
  coordinator's window scan does and calling ``route_cell`` on it, so a
  shard pays what inline routing of its slice would;
* the coordinator merges the shard replies by stream position into one
  :class:`RoutedWindow` and replays the deferred-barrier segmentation of
  the batched engine over it, so each worker receives exactly the same
  ordered ``RouteBatch`` messages the serial path would have produced —
  reports stay byte-identical to single-threaded routing.

One :class:`DispatchBackend` drives the shards on every deployment, as
the worker transport of :mod:`.transport` does: each shard is a
:class:`DispatchHost` on the fleet :func:`~repro.runtime.fabric.make_fleet`
builds —

* ``inprocess``, the reference: the hosts live in the coordinator's
  interpreter on a :class:`~repro.runtime.fabric.LocalFleet` (their
  replicas built from the same pickled snapshot a remote host unpickles)
  and route a window's slices when it is submitted;
* ``multiprocess`` / ``socket``: one fabric endpoint per shard, a local
  OS process over a pickled pipe or a ``repro serve --role dispatcher``
  endpoint over TCP.  ``submit_window`` only ships the slices, and the
  replay loop (:func:`~repro.runtime.driver.replay`) looks one window
  ahead: the coordinator collects window ``K``'s replies *before*
  submitting ``K+1`` and runs worker matching of window ``K`` *after*
  submitting ``K+1``, so shard routing of the next window overlaps
  worker matching of the current one (the dispatcher→worker pipelining
  of the paper's topology).  A barrier first executes the window in
  flight, so adjustment rounds and checkpoints fence idle shards.

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
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.counters import RouteProfile
from ..core.objects import ObjectRow, StreamTuple, TupleKind
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
#: text and metadata along for nothing.  Both data-plane hops ship this
#: one row shape: the worker hop's :data:`~repro.core.objects.ObjectRow`
#: holds the object id where the probe holds the window position.
ObjectProbe = ObjectRow


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


def plan_update(index: Any, item: StreamTuple) -> Tuple[bool, WorkerPlan, int]:
    """Plan one query update on ``index`` and apply its H2 delta.

    Returns ``(is_insert, per-worker plan, probed cells)``.  A deletion
    re-plans from the index: the keyword choice is deterministic
    (Section IV-C), so it names the pairs its insertion posted.
    """
    query = item.payload.query
    if item.kind is TupleKind.INSERT:
        return (True, *index.insertion_plan_apply(query))
    return (False, *index.deletion_plan_apply(query))


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
    """One dispatch shard: a routing-index replica plus its counters.

    Runs inside a :class:`DispatchHost`, wherever that host lives; either
    way it executes the
    exact same :class:`~repro.indexes.gridt.GridTIndex` calls the serial
    engine would, so its decisions and plans are byte-identical to
    coordinator routing.
    """

    __slots__ = ("shard_id", "num_shards", "index", "profile")

    def __init__(self, shard_id: int, num_shards: int) -> None:
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.index = None
        #: Router-owned routing counters; attached to every freshly
        #: unpickled replica by :meth:`sync` so a run's profile survives
        #: snapshot syncs (and the coordinator's own counts, which ride
        #: the pickle, never leak into shard attribution).
        self.profile = RouteProfile()

    def sync(self, index: Any) -> None:
        self.index = index
        index.profile = self.profile

    def route_window(
        self,
        objects: Sequence[ObjectProbe],
        updates: Sequence[Tuple[int, StreamTuple]],
        base: int,
    ) -> Tuple[
        List[Tuple[int, Tuple[int, ...]]],
        List[Tuple[int, bool, WorkerPlan, int]],
    ]:
        """Route one window slice in stream order, in one pass.

        Every update is applied to the replica at its stream position so
        later objects observe its H2 effect; each owned object between
        them is routed by ``route_cell`` on the cell the coordinator's
        window scan computes (the same clamp to the grid), straight from
        its row.
        """
        index = self.index
        if index is None:
            raise TransportError("dispatch shard %d routed before sync" % self.shard_id)
        min_x, min_y, cell_w, cell_h, max_col, max_row = index.grid.frame()
        route_cell = index.route_cell
        decisions: List[Tuple[int, Tuple[int, ...]]] = []
        decide = decisions.append
        plans: List[Tuple[int, bool, WorkerPlan, int]] = []
        oi = 0
        total = len(objects)
        # A sentinel update past every position routes the objects after
        # the last real update.
        for upos, item in (*updates, (float("inf"), None)):
            while oi < total:
                position, x, y, terms = objects[oi]
                if position > upos:
                    break
                oi += 1
                col = int((x - min_x) / cell_w)
                row = int((y - min_y) / cell_h)
                if col < 0:
                    col = 0
                elif col > max_col:
                    col = max_col
                if row < 0:
                    row = 0
                elif row > max_row:
                    row = max_row
                decide((position, route_cell((col, row), terms)))
            if item is None:
                break
            is_insert, per_worker, cells = plan_update(index, item)
            if (base + upos) % self.num_shards == self.shard_id:
                plans.append((upos, is_insert, per_worker, cells))
        return decisions, plans

    def memory_bytes(self) -> int:
        return self.index.memory_bytes() if self.index is not None else 0


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
            # A replica does no Definition-1 cost accounting (the
            # coordinator charges dispatcher busy cost itself, identically
            # on every backend), so ``busy_cost`` is filled in there.
            return Observation(
                tier="dispatcher",
                endpoint_id=router.shard_id,
                busy_cost=0.0,
                memory_bytes=router.memory_bytes(),
                depth=0,
                profile=router.profile.event(router.shard_id),
            )
        raise TransportError("unknown dispatch message %r" % (message,))


register_role("dispatcher", DispatchHost)


# ----------------------------------------------------------------------
# The dispatch tier (one class over every deployment's fleet)
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
    replica as ``memory_bytes`` (its ``depth`` is 0: a shard queues
    nothing between windows); the coordinator overlays the Definition-1 dispatcher busy cost
    (tracked on its own :class:`DispatcherLedger` accounting) on the
    gauges it records.

    ``submit_window`` ships every shard's slice without reading replies
    (a :class:`~repro.runtime.fabric.LocalFleet`'s shards route right
    then); on a concurrent fleet (:attr:`supports_pipelining`) the replay
    loop routes one window ahead, as the module docstring describes —
    between windows one is outstanding, at barriers none.
    """

    def __init__(self, fleet: Fleet) -> None:
        super().__init__(fleet)
        self.num_shards = len(fleet.endpoint_ids)
        #: Routing version of the last snapshot shipped to the shards; the
        #: cluster re-syncs whenever its own version differs.
        self.synced_version = -1
        self._seq = 0
        self._inflight: Optional[int] = None

    @property
    def supports_pipelining(self) -> bool:
        """Whether collect/submit may be interleaved across consecutive
        windows so shard routing overlaps worker matching."""
        return self._fleet.concurrent

    def sync(self, routing_index: Any, version: int) -> None:
        """Ship a snapshot of the routing index to every shard replica."""
        if self._inflight is not None:
            raise TransportError("cannot sync dispatch shards with a window in flight")
        blob = pickle.dumps(routing_index, protocol=pickle.HIGHEST_PROTOCOL)
        self._fleet.broadcast(SyncRoutingIndex(blob, version))
        self.synced_version = version

    def submit_window(self, items: Sequence[StreamTuple], base: int) -> int:
        """Start routing one window; returns its sequence number."""
        if self._inflight is not None:
            raise TransportError("dispatch window %d still in flight" % self._inflight)
        self._seq += 1
        seq = self._seq
        object_slices, updates = _split_window(items, base, self.num_shards)
        for shard_id in range(self.num_shards):
            self._fleet.send(shard_id, RouteWindow(seq, base, object_slices[shard_id], updates))
        self._inflight = seq
        return seq

    def collect_window(self, seq: int) -> RoutedWindow:
        """Gather the shard replies of window ``seq`` and merge them
        deterministically: ascending shard order, entries keyed by stream
        position."""
        if self._inflight != seq:
            raise TransportError(
                "collecting dispatch window %d but %r is in flight" % (seq, self._inflight)
            )
        try:
            replies = self._fleet.collect(sorted(self._fleet.endpoint_ids))
        finally:
            self._inflight = None
        decisions: Dict[int, Tuple[int, ...]] = {}
        plans: Dict[int, Tuple[bool, WorkerPlan, int]] = {}
        for shard_id, reply in replies.items():
            if not isinstance(reply, WindowRouting) or reply.seq != seq:
                raise TransportError(
                    "dispatch shard %d answered out of sequence: %r" % (shard_id, reply)
                )
            for position, decision in reply.decisions:
                decisions[position] = decision
            for position, is_insert, per_worker, cells in reply.plans:
                plans[position] = (is_insert, per_worker, cells)
        return RoutedWindow(decisions, plans)

    def observe(self) -> Dict[int, Observation]:
        if self._inflight is not None:
            # A routed window is outstanding (the replay's lookahead): a
            # replied request now would desync the request/reply pairing.
            # Observation is best-effort — the coordinator still records
            # its own dispatcher busy accounting, and shard state
            # appears at the next quiescent point (barrier / report).
            return {}
        return super().observe()


class InProcessDispatch(DispatchBackend):
    """:class:`DispatchBackend` on a ``LocalFleet``: a name the e2e tracer wraps, kept
    until a benchmark change retargets it (ROADMAP item 1(b))."""


class FabricDispatch(DispatchBackend):
    """:class:`DispatchBackend` on a process or socket fleet: a name the e2e tracer
    wraps, kept until a benchmark change retargets it (ROADMAP item 1(b))."""


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
    init = {"num_shards": num_shards}
    inits = {shard_id: init for shard_id in range(num_shards)}
    fleet = make_fleet("dispatcher", backend, inits, addresses=addresses, label="dispatch shard")
    return (FabricDispatch if fleet.concurrent else InProcessDispatch)(fleet)
