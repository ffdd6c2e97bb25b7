"""Dispatcher processes: route the mixed tuple stream to workers.

Dispatchers (Section III-B) receive the spatio-textual object stream and
the STS query insertion/deletion requests, and forward each tuple to the
worker(s) selected by the workload-distribution strategy.  Routing is done
on the gridt index (Section IV-C); the cost of each routing decision is
accounted so that a dispatcher can become the bottleneck, exactly as the
paper argues when motivating the gridt index over the raw kdt-tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.objects import (
    QueryDeletion,
    QueryInsertion,
    SpatioTextualObject,
    StreamTuple,
    TupleKind,
)
from ..indexes.grid import CellCoord
from ..indexes.gridt import GridTIndex
from .dispatch import group_triples

__all__ = ["DispatcherNode", "RoutingDecision"]


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of routing one tuple: destination workers plus charged cost.

    For query insertions ``assignments`` carries the per-worker
    ``(cell, posting keyword)`` pairs the routing index chose, so workers
    can register only the postings actually routed to them (Section IV-C/D
    — each conjunctive clause lives on the worker owning its posting
    keyword, not on every replica).
    """

    workers: Tuple[int, ...]
    cost: float
    discarded: bool = False
    assignments: Optional[Dict[int, List[Tuple[CellCoord, str]]]] = None


class DispatcherNode:
    """One dispatcher of the PS2Stream cluster."""

    #: Cost (in the same units as the worker cost model) of one hash-map
    #: probe in the gridt index.
    PROBE_COST = 0.02
    #: Fixed per-tuple overhead (deserialisation, cell lookup).
    TUPLE_COST = 0.05

    def __init__(self, dispatcher_id: int, routing_index: GridTIndex) -> None:
        self.dispatcher_id = dispatcher_id
        self.routing_index = routing_index
        self.busy_cost = 0.0
        self.objects_routed = 0
        self.objects_discarded = 0
        self.insertions_routed = 0
        self.deletions_routed = 0
        self._last_tuple_cost = 0.0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, item: StreamTuple) -> RoutingDecision:
        """Route one stream tuple and account its cost."""
        if item.kind is TupleKind.OBJECT:
            return self._route_object(item.payload)  # type: ignore[arg-type]
        if item.kind is TupleKind.INSERT:
            return self._route_insertion(item.payload)  # type: ignore[arg-type]
        if item.kind is TupleKind.DELETE:
            return self._route_deletion(item.payload)  # type: ignore[arg-type]
        raise ValueError("unknown tuple kind %r" % (item.kind,))

    def _route_object(self, obj: SpatioTextualObject) -> RoutingDecision:
        workers = self.routing_index.route_object(obj)
        cost = self.TUPLE_COST + self.PROBE_COST * max(1, len(obj.terms))
        self.busy_cost += cost
        self._last_tuple_cost = cost
        self.objects_routed += 1
        if not workers:
            self.objects_discarded += 1
            return RoutingDecision(workers=(), cost=cost, discarded=True)
        return RoutingDecision(workers=tuple(sorted(workers)), cost=cost)

    def _route_insertion(self, insertion: QueryInsertion) -> RoutingDecision:
        query = insertion.query
        index = self.routing_index
        # ``insertion_assignments`` is the insertion-placement surface; the
        # DualRoutingIndex used during a global adjustment implements it by
        # delegating to the new strategy, so workers receive per-worker
        # (cell, keyword) plans — never full posting footprints — even
        # while the old strategy drains.
        triples, cells = index.insertion_assignments(query)
        index.apply_insertion(triples)
        per_worker = group_triples(triples)
        cost = self.TUPLE_COST + self.PROBE_COST * max(1, cells)
        self.busy_cost += cost
        self._last_tuple_cost = cost
        self.insertions_routed += 1
        return RoutingDecision(
            workers=tuple(sorted(per_worker)), cost=cost, assignments=per_worker
        )

    def _route_deletion(self, deletion: QueryDeletion) -> RoutingDecision:
        query = deletion.query
        index = self.routing_index
        assignments_fn = getattr(index, "posting_assignments", None)
        if assignments_fn is None:
            workers = index.route_deletion(query)
            cells = len(index.grid.cells_overlapping(query.region))
        else:
            triples, cells = assignments_fn(query)
            workers = index.apply_deletion(triples)
        cost = self.TUPLE_COST + self.PROBE_COST * max(1, cells)
        self.busy_cost += cost
        self._last_tuple_cost = cost
        self.deletions_routed += 1
        return RoutingDecision(workers=tuple(sorted(workers)), cost=cost)

    # ------------------------------------------------------------------
    # Batched accounting (used by Cluster.process_batch)
    # ------------------------------------------------------------------
    def account_objects(self, routed: int, discarded: int, total_cost: float) -> None:
        """Charge a batch of object routing decisions in one call."""
        self.busy_cost += total_cost
        self.objects_routed += routed
        self.objects_discarded += discarded

    def account_updates(self, insertions: int, deletions: int, total_cost: float) -> None:
        """Charge a window's worth of update routing decisions in one call."""
        self.busy_cost += total_cost
        self.insertions_routed += insertions
        self.deletions_routed += deletions

    @property
    def last_tuple_cost(self) -> float:
        return self._last_tuple_cost

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Memory of this dispatcher: its copy of the routing index."""
        return self.routing_index.memory_bytes()

    def reset_period(self) -> None:
        self.busy_cost = 0.0
        self.objects_routed = 0
        self.objects_discarded = 0
        self.insertions_routed = 0
        self.deletions_routed = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "DispatcherNode(id=%d)" % self.dispatcher_id
