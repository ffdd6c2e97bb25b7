"""The gridt index: the dispatcher's flat routing structure (Section IV-C).

Traversing the kdt-tree for every tuple costs ``O(log m)``; under very fast
arrival rates this overloads the dispatcher.  The gridt index flattens the
kdt-tree into a uniform grid where every cell holds two hash maps:

* **H1** — the static term-to-worker assignment of the cell.  For a
  space-partitioned cell every term maps to the single worker owning the
  cell, represented compactly by ``default_worker``.  For a
  text-partitioned cell H1 holds the explicit term map produced by the
  partitioner.
* **H2** — the dynamic map from *posting keywords of registered queries* to
  the workers currently holding those queries in this cell.  Objects are
  routed (and filtered) exclusively through H2: an object whose terms hit
  no H2 entry cannot match any registered query and is discarded.

Query insertions are routed through H1 using the least frequent keyword of
each conjunctive clause, and H2 is updated with the chosen keyword; query
deletions repeat the same computation (the term statistics are frozen at
partitioning time, so the keyword choice is deterministic) and decrement the
H2 reference counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from zlib import crc32
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.counters import RouteProfile
from ..core.geometry import Point, Rect
from ..core.objects import SpatioTextualObject, STSQuery
from ..core.text import TermStatistics
from .grid import CellCoord, UniformGrid
from .kdt_tree import KdtTree

__all__ = ["GridTIndex", "GridTCell", "WorkerPlan", "group_triples"]

#: Sentinel distinguishing "not computed yet" from "no rewrite needed".
_UNSET = object()


@dataclass
class GridTCell:
    """Routing state of one grid cell."""

    #: Worker owning the whole cell (space-partitioned cells).
    default_worker: Optional[int] = None
    #: H1: explicit term-to-worker map (text-partitioned cells).
    term_workers: Optional[Dict[str, int]] = None
    #: H2: posting keyword -> worker id -> number of live queries posted
    #: under that keyword for that worker in this cell.
    h2: Dict[str, Dict[int, int]] = field(default_factory=dict)

    def lookup_h1(self, term: str) -> Optional[int]:
        """The worker owning ``term`` in this cell according to H1."""
        if self.term_workers is not None:
            worker = self.term_workers.get(term)
            if worker is not None:
                return worker
        return self.default_worker

    def workers(self) -> Set[int]:
        """Every worker this cell can currently route to."""
        result: Set[int] = set()
        if self.default_worker is not None:
            result.add(self.default_worker)
        if self.term_workers:
            result.update(self.term_workers.values())
        for owners in self.h2.values():
            result.update(owners)
        return result

    def add_posting(self, term: str, worker: int) -> None:
        owners = self.h2.setdefault(term, {})
        owners[worker] = owners.get(worker, 0) + 1

    def remove_posting(self, term: str, worker: int) -> None:
        owners = self.h2.get(term)
        if not owners:
            return
        count = owners.get(worker, 0)
        if count <= 1:
            owners.pop(worker, None)
            if not owners:
                self.h2.pop(term, None)
        else:
            owners[worker] = count - 1

    def h2_entry_count(self) -> int:
        return sum(len(owners) for owners in self.h2.values())


#: One update's per-worker ``(cell, posting keyword)`` routing plan.
WorkerPlan = Dict[int, List[Tuple[CellCoord, str]]]


def group_triples(triples: Iterable[Tuple[CellCoord, str, int]]) -> WorkerPlan:
    """Group ``(cell, keyword, worker)`` triples into a per-worker plan."""
    per_worker: WorkerPlan = {}
    for coord, key, worker in triples:
        pairs = per_worker.get(worker)
        if pairs is None:
            per_worker[worker] = [(coord, key)]
        else:
            pairs.append((coord, key))
    return per_worker


class GridTIndex:
    """Dispatcher-side routing index with per-cell H1/H2 hash maps."""

    def __init__(
        self,
        bounds: Rect,
        granularity: int = 64,
        term_statistics: Optional[TermStatistics] = None,
        *,
        object_filtering: bool = False,
    ) -> None:
        """``object_filtering`` enables the PS2Stream H2 routing rule.

        With filtering on (the system of Section IV-C), objects are routed
        through H2 in every cell and discarded when no registered query's
        posting keyword appears in them.  With filtering off (the
        behaviour of the evaluated baselines), a space-partitioned cell
        forwards every object to its owner and a text-partitioned cell
        routes objects through H1, i.e. to every worker owning one of the
        object's terms.
        """
        self._grid = UniformGrid(bounds, granularity, granularity)
        self._cells: Dict[CellCoord, GridTCell] = {}
        self._statistics = term_statistics
        self.object_filtering = object_filtering
        #: What :meth:`route_cell` did so far (:mod:`repro.core.counters`):
        #: always counting, one increment per call.  A fresh index counts
        #: into its own holder; whoever replaces an index mid-run (a shard
        #: re-syncing its replica, the cluster swapping structures) assigns
        #: the holder that has counted so far.
        self.profile = RouteProfile()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def grid(self) -> UniformGrid:
        return self._grid

    @property
    def term_statistics(self) -> Optional[TermStatistics]:
        return self._statistics

    def cell(self, coord: CellCoord) -> GridTCell:
        """The cell at ``coord``, created on demand."""
        cell = self._cells.get(coord)
        if cell is None:
            cell = GridTCell()
            self._cells[coord] = cell
        return cell

    def cells(self) -> Dict[CellCoord, GridTCell]:
        return self._cells

    def set_cell_worker(self, coord: CellCoord, worker_id: int) -> None:
        """Assign the whole cell to one worker (space partitioning)."""
        cell = self.cell(coord)
        cell.default_worker = worker_id
        cell.term_workers = None

    def set_cell_term_map(
        self,
        coord: CellCoord,
        term_workers: Mapping[str, int],
        default_worker: Optional[int] = None,
        *,
        share: bool = False,
    ) -> None:
        """Assign a term-to-worker map to the cell (text partitioning).

        When ``share`` is true the mapping object is stored by reference so
        that a single global text partition shared by every cell is only
        held in memory once (this is how the pure text-partitioning
        baselines keep the dispatcher footprint reasonable).
        """
        cell = self.cell(coord)
        cell.term_workers = term_workers if share else dict(term_workers)
        cell.default_worker = default_worker

    @classmethod
    def from_assignments(
        cls,
        bounds: Rect,
        assignments: Sequence[Tuple[Rect, Optional[Mapping[str, int]], Optional[int]]],
        granularity: int = 64,
        term_statistics: Optional[TermStatistics] = None,
        *,
        share_term_maps: bool = True,
        object_filtering: bool = False,
    ) -> "GridTIndex":
        """Build a gridt index from partition units.

        Each assignment is ``(region, term_workers, worker_id)``; a ``None``
        term map means the unit is space partitioned.  Cells are assigned by
        the unit containing their centre; text units covering the same cell
        are merged.
        """
        index = cls(
            bounds,
            granularity=granularity,
            term_statistics=term_statistics,
            object_filtering=object_filtering,
        )
        # An R-tree over the assignment regions keeps cell assignment fast
        # even when a plan has thousands of units (e.g. grid partitioning).
        from .rtree import RTree, RTreeEntry

        lookup: RTree[int] = RTree.bulk_load(
            [RTreeEntry(region, position) for position, (region, _, _) in enumerate(assignments)],
            capacity=16,
        )
        # Cells covered by the same set of text units share one merged term
        # map, so a pure text partition costs one map, not one per cell.
        merged_cache: Dict[Tuple[int, ...], Dict[str, int]] = {}
        for coord in index._grid.all_cells():
            center = index._grid.cell_center(coord)
            covering_ids = sorted(entry.payload for entry in lookup.search_point(center))
            if not covering_ids:
                continue
            covering = [assignments[position] for position in covering_ids]
            space_units = [unit for unit in covering if unit[1] is None]
            text_units = [
                (position, unit)
                for position, unit in zip(covering_ids, covering)
                if unit[1] is not None
            ]
            if text_units:
                default: Optional[int] = None
                for _, (_, _, worker_id) in text_units:
                    if worker_id is not None:
                        default = worker_id
                        break
                if default is None and space_units:
                    default = space_units[0][2]
                if len(text_units) == 1 and share_term_maps:
                    _, (_, term_map, _) = text_units[0]
                    assert term_map is not None
                    index.set_cell_term_map(coord, term_map, default, share=True)
                else:
                    cache_key = tuple(position for position, _ in text_units)
                    merged = merged_cache.get(cache_key) if share_term_maps else None
                    if merged is None:
                        merged = {}
                        for _, (_, term_map, _) in text_units:
                            assert term_map is not None
                            merged.update(term_map)
                        if share_term_maps:
                            merged_cache[cache_key] = merged
                    index.set_cell_term_map(coord, merged, default, share=share_term_maps)
            elif space_units:
                worker_id = space_units[0][2]
                if worker_id is not None:
                    index.set_cell_worker(coord, worker_id)
        return index

    @classmethod
    def from_kdt_tree(
        cls,
        tree: KdtTree,
        granularity: int = 64,
        term_statistics: Optional[TermStatistics] = None,
    ) -> "GridTIndex":
        """Flatten a kdt-tree into a gridt index (Figure 4)."""
        leaves = tree.leaves()
        assignments: List[Tuple[Rect, Optional[Mapping[str, int]], Optional[int]]] = []
        for leaf in leaves:
            if leaf.is_text_leaf:
                assignments.append((leaf.region, leaf.term_workers or {}, leaf.default_worker))
            else:
                assignments.append((leaf.region, None, leaf.worker_id))
        bounds = tree.root.region
        statistics = term_statistics if term_statistics is not None else tree._statistics
        return cls.from_assignments(
            bounds,
            assignments,
            granularity=granularity,
            term_statistics=statistics,
            object_filtering=True,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route_object(self, obj: SpatioTextualObject) -> Set[int]:
        """Workers that must receive ``obj`` (empty set means "discard"):
        the single-object view of :meth:`route_cell`."""
        return set(self.route_cell(self._grid.cell_of(obj.location), obj.terms))

    def route_cell(self, coord: CellCoord, terms: FrozenSet[str]) -> Tuple[int, ...]:
        """Sorted workers for an object with ``terms`` in cell ``coord``.

        The one object-routing rule (empty tuple means "discard"), applied
        by both cluster drivers and the dispatch shards.  With
        ``object_filtering`` (PS2Stream) the object is routed through H2:
        it is relevant exactly to the workers holding queries whose
        posting keyword appears in the object's text within the object's
        cell, and discarded otherwise.  Content-based routing applies to
        text-partitioned cells always — that is what "routing by text"
        means for the baselines — and to space-partitioned cells only
        when filtering is enabled (see :meth:`__init__`).
        """
        cell = self._cells.get(coord)
        if cell is None:
            self.profile.fallback_routes += 1
            return ()
        if cell.term_workers is None and not self.object_filtering:
            self.profile.fallback_routes += 1
            default = cell.default_worker
            return (default,) if default is not None else ()
        h2 = cell.h2
        if not h2:
            self.profile.fallback_routes += 1
            return ()
        self.profile.probes += 1
        # The keys-view intersection runs at C speed; most objects hit no
        # posting keyword at all and are discarded right here.
        hits = terms & h2.keys()
        if not hits:
            return ()
        workers: Set[int] = set()
        for term in hits:
            workers.update(h2[term])
        return tuple(sorted(workers))

    def route_object_batch(
        self, objects: Sequence[SpatioTextualObject]
    ) -> List[Tuple[int, ...]]:
        """One :meth:`route_cell` decision per object of a run, in order."""
        grid = self._grid
        bounds = grid.bounds
        min_x = bounds.min_x
        min_y = bounds.min_y
        cell_w = grid.cell_width
        cell_h = grid.cell_height
        max_col = grid.columns - 1
        max_row = grid.rows - 1
        route_cell = self.route_cell
        decisions: List[Tuple[int, ...]] = []
        append = decisions.append
        for obj in objects:
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
            append(route_cell((col, row), obj.terms))
        return decisions

    def posting_assignments(
        self, query: STSQuery
    ) -> Tuple[List[Tuple[CellCoord, str, int]], int]:
        """``(cell, posting keyword, worker)`` triples plus the probed cell count.

        Shared by insertion and deletion routing (deterministic: the term
        statistics are frozen at partitioning time).  The cell count — grid
        cells overlapping the region — is what the dispatcher is charged for.

        Posting keywords are visited in sorted order so the assignment
        *sequence* (not just its content) is identical on every replica of
        this index — sharded dispatch compares per-worker plans computed
        in different OS processes, where raw set iteration order diverges.
        """
        assignments: List[Tuple[CellCoord, str, int]] = []
        posting_keys = sorted(query.expression.posting_keywords(self._statistics))
        coords = self._grid.cells_overlapping(query.region)
        cells_get = self._cells.get
        for coord in coords:
            cell = cells_get(coord)
            for key in posting_keys:
                worker = cell.lookup_h1(key) if cell is not None else None
                if worker is None:
                    worker = self._fallback_worker(key)
                if worker is not None:
                    assignments.append((coord, key, worker))
        return assignments, len(coords)

    def insertion_assignments(
        self, query: STSQuery
    ) -> Tuple[List[Tuple[CellCoord, str, int]], int]:
        """Where a *new* query is placed: :meth:`posting_assignments` under
        its insertion-side name (kept for callers that wrap it by name)."""
        return self.posting_assignments(query)

    def insertion_plan_apply(self, query: STSQuery) -> Tuple[WorkerPlan, int]:
        """One-pass insertion routing fused with the H2 update (fast path).

        Computes the per-worker ``(cell, posting keyword)`` plan and records
        the H2 postings in the same cell scan; returns the plan plus the
        overlapping-cell count the dispatcher cost model charges for.
        Equivalent to :meth:`posting_assignments` + :meth:`apply_insertion`
        with the assignments grouped by worker.
        """
        posting_keys = query.expression.posting_keywords(self._statistics)
        grid = self._grid
        bounds = grid.bounds
        region = query.region
        cell_w = grid.cell_width
        cell_h = grid.cell_height
        max_col = grid.columns - 1
        max_row = grid.rows - 1
        min_x = bounds.min_x
        min_y = bounds.min_y
        lo_col = int((region.min_x - min_x) / cell_w)
        lo_row = int((region.min_y - min_y) / cell_h)
        hi_col = int((region.max_x - min_x) / cell_w)
        hi_row = int((region.max_y - min_y) / cell_h)
        lo_col = 0 if lo_col < 0 else (max_col if lo_col > max_col else lo_col)
        lo_row = 0 if lo_row < 0 else (max_row if lo_row > max_row else lo_row)
        hi_col = 0 if hi_col < 0 else (max_col if hi_col > max_col else hi_col)
        hi_row = 0 if hi_row < 0 else (max_row if hi_row > max_row else hi_row)
        cells_map = self._cells
        cells_get = cells_map.get
        per_worker: WorkerPlan = {}
        # Sorted keys keep the plan sequence replica-independent (see
        # posting_assignments); the single-key fast path needs no sort.
        single_key = next(iter(posting_keys)) if len(posting_keys) == 1 else None
        keys_tuple = (single_key,) if single_key is not None else tuple(sorted(posting_keys))
        for row in range(lo_row, hi_row + 1):
            for col in range(lo_col, hi_col + 1):
                coord = (col, row)
                cell = cells_get(coord)
                for key in keys_tuple:
                    if cell is not None:
                        term_workers = cell.term_workers
                        worker = (
                            term_workers.get(key) if term_workers is not None else None
                        )
                        if worker is None:
                            worker = cell.default_worker
                    else:
                        worker = None
                    if worker is None:
                        worker = self._fallback_worker(key)
                        if worker is None:
                            continue
                    if cell is None:
                        cell = GridTCell()
                        cells_map[coord] = cell
                    owners = cell.h2.get(key)
                    if owners is None:
                        cell.h2[key] = {worker: 1}
                    else:
                        owners[worker] = owners.get(worker, 0) + 1
                    pairs = per_worker.get(worker)
                    if pairs is None:
                        per_worker[worker] = [(coord, key)]
                    else:
                        pairs.append((coord, key))
        cells = (hi_col - lo_col + 1) * (hi_row - lo_row + 1)
        return per_worker, cells

    def deletion_plan_apply(
        self, query: STSQuery, cached: Optional[Tuple[WorkerPlan, int]] = None
    ) -> Tuple[WorkerPlan, int]:
        """Deletion twin of :meth:`insertion_plan_apply`: plan, then drop H2.

        ``cached`` is the query's insertion plan when the caller still
        holds it (the keyword choice is deterministic, so it is reused
        instead of recomputed); otherwise the plan is
        :meth:`posting_assignments` grouped by worker.
        """
        if cached is None:
            triples, cells = self.posting_assignments(query)
            cached = group_triples(triples), cells
        self.apply_deletion_pairs(cached[0])
        return cached

    def apply_deletion_pairs(self, per_worker: WorkerPlan) -> None:
        """Remove H2 postings for a per-worker plan (fast path).

        Same effect as :meth:`GridTCell.remove_posting` per pair, with the
        per-posting work inlined.
        """
        cells_get = self._cells.get
        for worker, pairs in per_worker.items():
            for coord, key in pairs:
                cell = cells_get(coord)
                if cell is None:
                    continue
                h2 = cell.h2
                owners = h2.get(key)
                if not owners:
                    continue
                count = owners.get(worker, 0)
                if count <= 1:
                    owners.pop(worker, None)
                    if not owners:
                        h2.pop(key, None)
                else:
                    owners[worker] = count - 1

    def apply_insertion(self, assignments: Iterable[Tuple[CellCoord, str, int]]) -> Set[int]:
        """Record H2 postings for precomputed assignments; returns the workers."""
        workers: Set[int] = set()
        for coord, key, worker in assignments:
            self.cell(coord).add_posting(key, worker)
            workers.add(worker)
        return workers

    def apply_deletion(self, assignments: Iterable[Tuple[CellCoord, str, int]]) -> Set[int]:
        """Remove H2 postings for precomputed assignments; returns the workers."""
        workers: Set[int] = set()
        cells_get = self._cells.get
        for coord, key, worker in assignments:
            cell = cells_get(coord)
            if cell is not None:
                cell.remove_posting(key, worker)
            workers.add(worker)
        return workers

    def _fallback_worker(self, term: str) -> Optional[int]:
        """Deterministic destination for terms in uncovered cells.

        Falls back to hashing the term over the set of known workers so a
        query is never silently dropped.  The hash must be stable across
        interpreter processes (``PYTHONHASHSEED`` randomises ``hash(str)``
        per process): sharded dispatch routes on per-process replicas of
        this index, and every replica must fall back identically.
        """
        workers = sorted(self.workers())
        if not workers:
            return None
        return workers[crc32(term.encode("utf-8")) % len(workers)]

    def route_insertion(self, query: STSQuery) -> Set[int]:
        """Route a query insertion and update H2; returns target workers."""
        return self.apply_insertion(self.posting_assignments(query)[0])

    def route_deletion(self, query: STSQuery) -> Set[int]:
        """Route a query deletion and update H2; returns target workers."""
        return self.apply_deletion(self.posting_assignments(query)[0])

    # ------------------------------------------------------------------
    # Dynamic adjustment support (Section V)
    # ------------------------------------------------------------------
    def migrate_cells(
        self, coords: Iterable[CellCoord], from_worker: int, to_worker: int
    ) -> None:
        """Repoint a batch of cells from one worker to another (Section V).

        The H1 rewrite is shared per distinct term map: cells of a text
        partition usually alias one map (``share_term_maps``), so the
        rewritten copy is computed once and re-shared by every migrated
        cell instead of privatising one copy per cell — both faster and
        memory-preserving under the dispatcher's shared-map accounting.
        """
        rewritten: Dict[int, Optional[Dict[str, int]]] = {}
        cells_get = self._cells.get
        for coord in coords:
            cell = cells_get(coord)
            if cell is None:
                continue
            if cell.default_worker == from_worker:
                cell.default_worker = to_worker
            term_workers = cell.term_workers
            if term_workers is not None:
                key = id(term_workers)
                copied = rewritten.get(key, _UNSET)
                if copied is _UNSET:
                    moved_terms = [
                        term
                        for term, worker in term_workers.items()
                        if worker == from_worker
                    ]
                    if moved_terms:
                        # Copy-on-migrate: a plain C-speed copy plus point
                        # updates beats a conditional comprehension.
                        copied = dict(term_workers)
                        for term in moved_terms:
                            copied[term] = to_worker
                    else:
                        copied = None
                    rewritten[key] = copied
                if copied is not None:
                    cell.term_workers = copied
            for term, owners in list(cell.h2.items()):
                if from_worker in owners:
                    count = owners.pop(from_worker)
                    owners[to_worker] = owners.get(to_worker, 0) + count

    def split_cell_by_text(
        self,
        coord: CellCoord,
        term_assignment: Mapping[str, int],
        default_worker: Optional[int] = None,
    ) -> None:
        """Turn a space-partitioned cell into a text-partitioned one.

        Used by Phase I of the local load adjustment when splitting a hot
        cell between the overloaded and the underloaded worker.
        """
        cell = self.cell(coord)
        if default_worker is None:
            default_worker = cell.default_worker
        cell.term_workers = dict(term_assignment)
        cell.default_worker = default_worker
        for term, owners in list(cell.h2.items()):
            target = cell.lookup_h1(term)
            if target is None:
                continue
            total = sum(owners.values())
            cell.h2[term] = {target: total}

    def clear_h2(self) -> None:
        """Drop every H2 posting (all cells).

        Used when the global adjuster finalises a repartition: the new
        index's H2 is rebuilt from scratch out of the surviving queries'
        assignments, so its reference counts are exact regardless of which
        strategy originally routed each query.
        """
        for cell in self._cells.values():
            cell.h2 = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def workers(self) -> Set[int]:
        result: Set[int] = set()
        for cell in self._cells.values():
            result.update(cell.workers())
        return result

    def cell_for_point(self, point: Point) -> CellCoord:
        return self._grid.cell_of(point)

    def memory_bytes(self) -> int:
        """Estimated dispatcher memory: H1 maps (shared ones once) plus H2."""
        total = 0
        seen_maps: Set[int] = set()
        for cell in self._cells.values():
            total += 64  # cell overhead
            if cell.term_workers is not None and id(cell.term_workers) not in seen_maps:
                seen_maps.add(id(cell.term_workers))
                total += sum(24 + len(term) for term in cell.term_workers)
            total += sum(
                24 + len(term) + 12 * len(owners) for term, owners in cell.h2.items()
            )
        return total

    def h2_entry_count(self) -> int:
        return sum(cell.h2_entry_count() for cell in self._cells.values())
