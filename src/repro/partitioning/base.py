"""Common abstractions of the workload-partitioning layer.

A *partitioner* consumes a :class:`WorkloadSample` — a representative slice
of the spatio-textual object stream and of the STS query stream — and
produces a :class:`PartitionPlan`: a set of :class:`PartitionUnit` entries
``(region, term subset | all terms, worker)`` that realises the
``(S_i, T_i)`` pairs of the Optimal Workload Partitioning problem
(Definition 2).

The plan knows how to

* evaluate itself against a sample under the Definition-1 cost model
  (total load, per-worker load, balance factor);
* materialise the dispatcher routing structures: a
  :class:`~repro.indexes.kdt_tree.KdtTree` and a
  :class:`~repro.indexes.gridt.GridTIndex`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..core.costmodel import COST_MODEL, LoadReport
from ..core.geometry import Rect, bounding_rect
from ..core.objects import SpatioTextualObject, STSQuery
from ..core.text import TermStatistics
from ..indexes.gridt import GridTIndex
from ..indexes.kdt_tree import KdtTree
from ..indexes.rtree import RTree, RTreeEntry

__all__ = [
    "WorkloadSample",
    "PartitionUnit",
    "PartitionPlan",
    "Partitioner",
]


@dataclass
class WorkloadSample:
    """A sample of the workload used to drive partitioning decisions.

    ``objects`` is a sample of the spatio-textual object stream,
    ``insertions`` a sample of STS query insertions and ``deletions`` the
    ids of sampled deletions.  ``bounds`` is the space S of Definition 2;
    ``statistics`` the term frequencies of the object sample (the "complete
    term set T" with weights), which partitioners and routing indexes use
    to pick least-frequent posting keywords.
    """

    objects: List[SpatioTextualObject]
    insertions: List[STSQuery]
    deletions: List[STSQuery] = field(default_factory=list)
    bounds: Optional[Rect] = None
    statistics: Optional[TermStatistics] = None

    def __post_init__(self) -> None:
        if self.bounds is None:
            points = [obj.location for obj in self.objects]
            points.extend(query.region.center for query in self.insertions)
            if points:
                rect = bounding_rect(points)
                # Guard against degenerate (zero-area) bounds.
                pad_x = max(rect.width, 1e-6) * 0.01
                pad_y = max(rect.height, 1e-6) * 0.01
                self.bounds = Rect(
                    rect.min_x - pad_x, rect.min_y - pad_y,
                    rect.max_x + pad_x, rect.max_y + pad_y,
                )
            else:
                self.bounds = Rect(0.0, 0.0, 1.0, 1.0)
        if self.statistics is None:
            statistics = TermStatistics()
            for obj in self.objects:
                statistics.add_document(obj.terms)
            self.statistics = statistics

    @property
    def term_statistics(self) -> TermStatistics:
        assert self.statistics is not None
        return self.statistics

    def vocabulary(self) -> Set[str]:
        """All terms appearing in sampled objects or query keywords."""
        terms: Set[str] = set()
        for obj in self.objects:
            terms |= obj.terms
        for query in self.insertions:
            terms |= query.keywords()
        return terms

    def __len__(self) -> int:
        return len(self.objects) + len(self.insertions) + len(self.deletions)


@dataclass(frozen=True)
class PartitionUnit:
    """One ``(S_i, T_i)`` routing unit assigned to a worker.

    ``terms is None`` means the unit owns the complete term set inside its
    region (a space-partitioned unit); otherwise the unit owns only the
    listed terms inside its region (a text-partitioned unit).
    """

    region: Rect
    terms: Optional[FrozenSet[str]]
    worker_id: int

    def accepts_object(self, obj: SpatioTextualObject) -> bool:
        """Definition-2 object routing rule for this unit."""
        if not self.region.contains_point(obj.location):
            return False
        if self.terms is None:
            return True
        return any(term in self.terms for term in obj.terms)

    def accepts_query(self, query: STSQuery) -> bool:
        """Definition-2 query routing rule for this unit."""
        if not self.region.intersects(query.region):
            return False
        if self.terms is None:
            return True
        return any(keyword in self.terms for keyword in query.keywords())


@dataclass
class PartitionPlan:
    """The output of a partitioner: units plus the context to route with."""

    units: List[PartitionUnit]
    num_workers: int
    bounds: Rect
    statistics: Optional[TermStatistics] = None
    partitioner_name: str = ""
    #: PS2Stream's H2-based object filtering at the dispatcher (Section
    #: IV-C).  The hybrid partitioner enables it; the baselines keep the
    #: routing rules of the systems they reproduce.
    object_filtering: bool = False

    # ------------------------------------------------------------------
    # Routing semantics (Definition 2) — used for evaluation and as the
    # reference implementation the gridt/kdt routing is tested against.
    # ------------------------------------------------------------------
    def route_object(self, obj: SpatioTextualObject) -> Set[int]:
        return {unit.worker_id for unit in self.units if unit.accepts_object(obj)}

    def route_query(self, query: STSQuery) -> Set[int]:
        return {unit.worker_id for unit in self.units if unit.accepts_query(query)}

    def workers(self) -> Set[int]:
        return {unit.worker_id for unit in self.units}

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def to_gridt(self, granularity: int = 64) -> GridTIndex:
        """Build the dispatcher's gridt index realising this plan."""
        assignments = [
            (unit.region,
             {term: unit.worker_id for term in unit.terms} if unit.terms is not None else None,
             unit.worker_id)
            for unit in sorted(
                self.units,
                key=lambda u: -(len(u.terms) if u.terms is not None else 0),
            )
        ]
        return GridTIndex.from_assignments(
            self.bounds,
            assignments,
            granularity=granularity,
            term_statistics=self.statistics,
            object_filtering=self.object_filtering,
        )

    def to_kdt_tree(self) -> KdtTree:
        """Build a kdt-tree realising this plan (used by the ablation bench)."""
        # Group text units sharing a region into one term map per region.
        by_region: Dict[Tuple[float, float, float, float], List[PartitionUnit]] = {}
        for unit in self.units:
            by_region.setdefault(unit.region.as_tuple(), []).append(unit)
        leaves: List[Tuple[Rect, Optional[Mapping[str, int]], Optional[int]]] = []
        for units in by_region.values():
            region = units[0].region
            text_units = [unit for unit in units if unit.terms is not None]
            if text_units:
                term_map: Dict[str, int] = {}
                for unit in sorted(text_units, key=lambda u: -len(u.terms or ())):
                    assert unit.terms is not None
                    for term in unit.terms:
                        term_map.setdefault(term, unit.worker_id)
                default = max(text_units, key=lambda u: len(u.terms or ())).worker_id
                leaves.append((region, term_map, default))
            else:
                leaves.append((region, None, units[0].worker_id))
        return KdtTree.from_leaves(self.bounds, leaves, self.statistics)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _unit_rtree(self) -> RTree[int]:
        entries = [RTreeEntry(unit.region, index) for index, unit in enumerate(self.units)]
        return RTree.bulk_load(entries, capacity=16)

    def worker_loads(self, sample: WorkloadSample) -> LoadReport:
        """Per-worker Definition-1 loads of this plan on ``sample``.

        The interaction term ``c1 * |O_i| * |Qi_i|`` uses the number of
        query insertions routed to the worker, exactly as in the paper's
        definition; object and query routing follows Definition 2.
        """
        objects: Dict[int, int] = {worker: 0 for worker in range(self.num_workers)}
        insertions: Dict[int, int] = {worker: 0 for worker in range(self.num_workers)}
        deletions: Dict[int, int] = {worker: 0 for worker in range(self.num_workers)}
        rtree = self._unit_rtree()

        for obj in sample.objects:
            workers: Set[int] = set()
            for entry in rtree.search_point(obj.location):
                unit = self.units[entry.payload]
                if unit.accepts_object(obj):
                    workers.add(unit.worker_id)
            for worker in workers:
                objects[worker] = objects.get(worker, 0) + 1

        def _query_workers(query: STSQuery) -> Set[int]:
            workers: Set[int] = set()
            for entry in rtree.search(query.region):
                unit = self.units[entry.payload]
                if unit.accepts_query(query):
                    workers.add(unit.worker_id)
            return workers

        for query in sample.insertions:
            for worker in _query_workers(query):
                insertions[worker] = insertions.get(worker, 0) + 1
        for query in sample.deletions:
            for worker in _query_workers(query):
                deletions[worker] = deletions.get(worker, 0) + 1

        loads = {
            worker: COST_MODEL.worker_load(
                objects.get(worker, 0), insertions.get(worker, 0), deletions.get(worker, 0)
            )
            for worker in range(self.num_workers)
        }
        return LoadReport(worker_loads=loads)

    def replication_factor(self, sample: WorkloadSample) -> float:
        """Average number of workers each sampled query is replicated to."""
        if not sample.insertions:
            return 0.0
        rtree = self._unit_rtree()
        total = 0
        for query in sample.insertions:
            workers = set()
            for entry in rtree.search(query.region):
                unit = self.units[entry.payload]
                if unit.accepts_query(query):
                    workers.add(unit.worker_id)
            total += len(workers)
        return total / len(sample.insertions)


class Partitioner(abc.ABC):
    """Interface implemented by every workload-partitioning strategy."""

    #: Human-readable name used in bench output tables.
    name: str = "partitioner"

    @abc.abstractmethod
    def partition(self, sample: WorkloadSample, num_workers: int) -> PartitionPlan:
        """Compute a partition plan for ``num_workers`` workers."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(name=%r)" % (type(self).__name__, self.name)
