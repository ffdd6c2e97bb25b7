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
from ..core.geometry import Rect
from ..core.objects import SpatioTextualObject, STSQuery
from ..core.text import TermStatistics
from .grid import CellCoord, UniformGrid

__all__ = ["GridTIndex", "GridTCell", "WorkerPlan"]

#: Sentinel distinguishing "not computed yet" from "no rewrite needed".
_UNSET = object()

#: The dispatcher memory model (:meth:`GridTIndex.memory_bytes`): a fixed
#: overhead per cell, one entry plus the term's characters per H1 term and
#: per H2 posting keyword, and one owner slot per ``(cell, keyword,
#: worker)`` H2 posting.
_CELL_BYTES = 64
_ENTRY_BYTES = 24
_OWNER_BYTES = 12


@dataclass
class GridTCell:
    """Routing state of one grid cell."""

    #: Worker owning the whole cell (space-partitioned cells).
    default_worker: Optional[int] = None
    #: H1: explicit term-to-worker map (text-partitioned cells), possibly
    #: shared with other cells (:meth:`GridTIndex.set_cell_term_map`).
    term_workers: Optional[Mapping[str, int]] = None
    #: H2: posting keyword -> worker id -> number of live queries posted
    #: under that keyword for that worker in this cell.
    h2: Dict[str, Dict[int, int]] = field(default_factory=dict)

    def workers(self) -> Set[int]:
        """Every worker this cell can currently route to (H1 and H2)."""
        result: Set[int] = set()
        if self.default_worker is not None:
            result.add(self.default_worker)
        if self.term_workers:
            result.update(self.term_workers.values())
        for owners in self.h2.values():
            result.update(owners)
        return result

    def h2_entry_count(self) -> int:
        return sum(len(owners) for owners in self.h2.values())


#: One update's per-worker ``(cell, posting keyword)`` routing plan.
WorkerPlan = Dict[int, List[Tuple[CellCoord, str]]]


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
        forwards every object to its owner; a text-partitioned cell and a
        cell without an owner still route through H2 (:meth:`route_cell`).
        """
        self._grid = UniformGrid(bounds, granularity, granularity)
        #: :meth:`UniformGrid.frame`, read by every update plan.
        self._frame = self._grid.frame()
        self._cells: Dict[CellCoord, GridTCell] = {}
        self._statistics = term_statistics
        self.object_filtering = object_filtering
        #: H2's share of :meth:`memory_bytes`, kept current by every H2
        #: mutator (each adds its change once per call).
        self._h2_bytes = 0
        #: ``(H1 bytes, sorted H1 owners)``, derived on demand and dropped
        #: by every H1 mutator (:meth:`_h1_state`).
        self._h1: Optional[Tuple[int, Tuple[int, ...]]] = None
        #: What a term in an uncovered cell is hashed over
        #: (:meth:`fallback_workers`): the H1 owners once the cells are
        #: assigned, kept through every later H1 change.
        self._fallback: Optional[Tuple[int, ...]] = None
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
        self._h1 = self._fallback = None

    def set_cell_term_map(
        self,
        coord: CellCoord,
        term_workers: Mapping[str, int],
        default_worker: Optional[int] = None,
    ) -> None:
        """Assign a term-to-worker map to the cell (text partitioning).

        The map is stored by reference, so one text partition shared by
        many cells is held — and charged by :meth:`memory_bytes` — once;
        the H1 mutators copy a map before they change it.
        """
        cell = self.cell(coord)
        cell.term_workers = term_workers
        cell.default_worker = default_worker
        self._h1 = self._fallback = None

    @classmethod
    def from_assignments(
        cls,
        bounds: Rect,
        assignments: Sequence[Tuple[Rect, Optional[Mapping[str, int]], Optional[int]]],
        granularity: int = 64,
        term_statistics: Optional[TermStatistics] = None,
        *,
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
        # Cells covered by the same set of text units share one term map
        # (a lone unit's own), so a pure text partition costs one map, not
        # one per cell.
        merged_cache: Dict[Tuple[int, ...], Mapping[str, int]] = {}
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
                cache_key = tuple(position for position, _ in text_units)
                shared = merged_cache.get(cache_key)
                if shared is None:
                    maps = [term_map for _, (_, term_map, _) in text_units if term_map is not None]
                    if len(maps) == 1:
                        shared = maps[0]
                    else:
                        merged: Dict[str, int] = {}
                        for term_map in maps:
                            merged.update(term_map)
                        shared = merged
                    merged_cache[cache_key] = shared
                index.set_cell_term_map(coord, shared, default)
            elif space_units:
                worker_id = space_units[0][2]
                if worker_id is not None:
                    index.set_cell_worker(coord, worker_id)
        return index

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
        when filtering is enabled (see :meth:`__init__`).  A cell no unit
        covers has no owner to forward to, so it routes through H2 either
        way: the postings the fallback table placed there are its only
        holders.
        """
        cell = self._cells.get(coord)
        if cell is None:
            self.profile.fallback_routes += 1
            return ()
        if cell.term_workers is None and not self.object_filtering:
            default = cell.default_worker
            if default is not None:
                self.profile.fallback_routes += 1
                return (default,)
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
        min_x, min_y, cell_w, cell_h, max_col, max_row = self._grid.frame()
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

    def posting_assignments(self, query: STSQuery) -> Tuple[WorkerPlan, int]:
        """Where ``query``'s postings go, H2 untouched: the read-only pass
        of :meth:`_plan_apply`."""
        return self._plan_apply(query, 0)

    def insertion_assignments(self, query: STSQuery) -> Tuple[WorkerPlan, int]:
        """:meth:`posting_assignments` under its insertion-side name."""
        return self.posting_assignments(query)

    def insertion_plan_apply(self, query: STSQuery) -> Tuple[WorkerPlan, int]:
        """Place a new query and count its postings into H2."""
        return self._plan_apply(query, 1)

    def deletion_plan_apply(self, query: STSQuery) -> Tuple[WorkerPlan, int]:
        """Re-plan a deleted query and count its postings out of H2.

        The plan is the one its insertion made: the keyword choice is
        deterministic and every H1 mutation carries the H2 postings it
        reassigns along, so it names exactly the pairs H2 holds for the
        query.
        """
        return self._plan_apply(query, -1)

    def route_insertion(self, query: STSQuery) -> Set[int]:
        """The workers :meth:`insertion_plan_apply` posts ``query`` to."""
        return set(self.insertion_plan_apply(query)[0])

    def route_deletion(self, query: STSQuery) -> Set[int]:
        """The workers :meth:`deletion_plan_apply` drops ``query`` from."""
        return set(self.deletion_plan_apply(query)[0])

    def _plan_apply(self, query: STSQuery, direction: int) -> Tuple[WorkerPlan, int]:
        """The H1 placement rule: the one resolution loop of every plan.

        In every cell the region overlaps, each posting keyword goes to the
        cell's H1 owner of the keyword, else the cell's owner, else — a
        cell no unit covers — the worker the keyword hashes to in
        :meth:`fallback_workers`.  ``direction`` counts the postings into
        H2 (+1, an insertion), out of it (-1, a deletion: an uncovered cell
        stays uncreated, it holds nothing to drop) or not at all (0, a
        read).  Returns the per-worker plan and the overlapped-cell count
        the dispatcher cost model charges for.  Cells are visited
        row-major and keywords sorted, so the plan *sequence* is the same
        on every replica of this index (sharded dispatch compares plans
        computed in different OS processes, where set order diverges).
        """
        insert = direction > 0
        posting_keys = query.expression.posting_keywords(self._statistics)
        region = query.region
        min_x, min_y, cell_w, cell_h, max_col, max_row = self._frame
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
        delta = 0
        term_workers: Optional[Mapping[str, int]]
        default: Optional[int]
        h2: Optional[Dict[str, Dict[int, int]]]
        for row in range(lo_row, hi_row + 1):
            for col in range(lo_col, hi_col + 1):
                coord = (col, row)
                cell = cells_get(coord)
                if cell is None:
                    term_workers = default = h2 = None
                else:
                    term_workers = cell.term_workers
                    default = cell.default_worker
                    h2 = cell.h2 if direction else None
                for key in posting_keys:
                    worker = term_workers.get(key) if term_workers is not None else None
                    if worker is None:
                        worker = default
                        if worker is None:
                            table = self.fallback_workers()
                            if not table:
                                continue
                            worker = table[crc32(key.encode("utf-8")) % len(table)]
                    if insert:
                        if h2 is None:
                            cell = cells_map[coord] = GridTCell()
                            h2 = cell.h2
                        owners = h2.get(key)
                        if owners is None:
                            h2[key] = {worker: 1}
                            delta += _ENTRY_BYTES + len(key) + _OWNER_BYTES
                        else:
                            count = owners.get(worker)
                            if count is None:
                                owners[worker] = 1
                                delta += _OWNER_BYTES
                            else:
                                owners[worker] = count + 1
                    elif h2 is not None:
                        owners = h2.get(key)
                        if owners:
                            count = owners.get(worker, 0)
                            if count > 1:
                                owners[worker] = count - 1
                            elif owners.pop(worker, None) is not None:
                                if owners:
                                    delta -= _OWNER_BYTES
                                else:
                                    del h2[key]
                                    delta -= _ENTRY_BYTES + len(key) + _OWNER_BYTES
                    pairs = per_worker.get(worker)
                    if pairs is None:
                        per_worker[worker] = [(coord, key)]
                    else:
                        pairs.append((coord, key))
        self._h2_bytes += delta
        cells = (hi_col - lo_col + 1) * (hi_row - lo_row + 1)
        return per_worker, cells

    def apply_plan(self, per_worker: WorkerPlan, direction: int) -> None:
        """Count a plan made elsewhere into H2 (``direction`` +1) or out of
        it (-1): the H2 count of :meth:`_plan_apply` without the placement,
        for a dispatch shard's plan or a repartition's rebuild."""
        cells_map = self._cells
        cells_get = cells_map.get
        delta = 0
        for worker, pairs in per_worker.items():
            for coord, key in pairs:
                cell = cells_get(coord)
                if direction > 0:
                    if cell is None:
                        cell = cells_map[coord] = GridTCell()
                    h2 = cell.h2
                    owners = h2.get(key)
                    if owners is None:
                        h2[key] = {worker: 1}
                        delta += _ENTRY_BYTES + len(key) + _OWNER_BYTES
                    else:
                        count = owners.get(worker)
                        if count is None:
                            owners[worker] = 1
                            delta += _OWNER_BYTES
                        else:
                            owners[worker] = count + 1
                elif cell is not None:
                    h2 = cell.h2
                    owners = h2.get(key)
                    if owners:
                        count = owners.get(worker, 0)
                        if count > 1:
                            owners[worker] = count - 1
                        elif owners.pop(worker, None) is not None:
                            if owners:
                                delta -= _OWNER_BYTES
                            else:
                                del h2[key]
                                delta -= _ENTRY_BYTES + len(key) + _OWNER_BYTES
        self._h2_bytes += delta

    def apply_insertion(self, per_worker: WorkerPlan) -> None:
        """Count a plan's postings into H2 (:meth:`apply_plan`)."""
        self.apply_plan(per_worker, 1)

    def apply_deletion(self, per_worker: WorkerPlan) -> None:
        """Count a plan's postings out of H2 (:meth:`apply_plan`)."""
        self.apply_plan(per_worker, -1)

    def apply_deletion_pairs(self, per_worker: WorkerPlan) -> None:
        """:meth:`apply_deletion` under its shard-replay name."""
        self.apply_plan(per_worker, -1)

    def fallback_workers(self) -> Tuple[int, ...]:
        """The table a term in an uncovered cell is hashed over: the
        workers H1 assigns anything to, sorted, as the cells were assigned
        (:meth:`set_cell_worker`, :meth:`set_cell_term_map`).

        A query is never silently dropped, and the hash (``crc32``) is
        stable across interpreter processes, unlike ``hash(str)``: sharded
        dispatch routes on per-process replicas of this index, and every
        replica must fall back identically.  The table is fixed from then
        on.  A deletion re-plans from the index, so a table that followed
        the adjusters' H1 changes (a worker gaining or losing its last
        cell) would name another worker than the one its insertion posted
        to, and the real holder would keep the query.  Only a recovery
        changes it (:meth:`replace_fallback_worker`); the adjusters'
        mutators pin it before they touch H1.
        """
        table = self._fallback
        if table is None:
            table = self._fallback = self._h1_state()[1]
        return table

    def replace_fallback_worker(self, worker_id: int, target: int) -> None:
        """Recovery's remap: ``target`` takes ``worker_id``'s slot of the
        fallback table, so what hashed to the dead worker — and was moved
        to ``target`` with its cells — re-plans to ``target``."""
        self._fallback = tuple(
            target if worker == worker_id else worker for worker in self.fallback_workers()
        )

    def _h1_state(self) -> Tuple[int, Tuple[int, ...]]:
        """``(H1 bytes, sorted H1 owners)`` — shared term maps once — derived
        on the first call after an H1 mutation."""
        state = self._h1
        if state is None:
            total = 0
            owners: Set[int] = set()
            seen_maps: Set[int] = set()
            for cell in self._cells.values():
                if cell.default_worker is not None:
                    owners.add(cell.default_worker)
                term_workers = cell.term_workers
                if term_workers is not None and id(term_workers) not in seen_maps:
                    seen_maps.add(id(term_workers))
                    total += _ENTRY_BYTES * len(term_workers) + sum(map(len, term_workers))
                    owners.update(term_workers.values())
            state = self._h1 = (total, tuple(sorted(owners)))
        return state

    # ------------------------------------------------------------------
    # Dynamic adjustment support (Section V)
    # ------------------------------------------------------------------
    def migrate_cells(
        self, coords: Iterable[CellCoord], from_worker: int, to_worker: int
    ) -> None:
        """Repoint a batch of cells from one worker to another (Section V).

        The H1 rewrite is shared per distinct term map: cells of a text
        partition alias one map (:meth:`set_cell_term_map`), so the
        rewritten copy is computed once and re-shared by every migrated
        cell instead of privatising one copy per cell — both faster and
        memory-preserving under the dispatcher's shared-map accounting.
        """
        self.fallback_workers()  # pinned before H1 changes
        rewritten: Dict[int, Optional[Dict[str, int]]] = {}
        cells_get = self._cells.get
        merged = 0
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
            for owners in cell.h2.values():
                if from_worker in owners:
                    count = owners.pop(from_worker)
                    held = owners.get(to_worker)
                    if held is None:
                        owners[to_worker] = count
                    else:
                        owners[to_worker] = held + count
                        merged += _OWNER_BYTES
        self._h1 = None
        self._h2_bytes -= merged

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
        self.fallback_workers()  # pinned before H1 changes
        cell = self.cell(coord)
        if default_worker is None:
            default_worker = cell.default_worker
        cell.term_workers = dict(term_assignment)
        cell.default_worker = default_worker
        self._h1 = None
        h2 = cell.h2
        merged = 0
        for term, owners in list(h2.items()):
            # Each posting moves to where _plan_apply now places its term.
            target = term_assignment.get(term, default_worker)
            if target is None:
                continue
            merged += _OWNER_BYTES * (len(owners) - 1)
            h2[term] = {target: sum(owners.values())}
        self._h2_bytes -= merged

    def clear_h2(self) -> None:
        """Drop every H2 posting (all cells).

        Used when the global adjuster finalises a repartition: the new
        index's H2 is rebuilt from scratch out of the surviving queries'
        assignments, so its reference counts are exact regardless of which
        strategy originally routed each query.
        """
        for cell in self._cells.values():
            cell.h2 = {}
        self._h2_bytes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def workers(self) -> Set[int]:
        result: Set[int] = set()
        for cell in self._cells.values():
            result.update(cell.workers())
        return result

    def memory_bytes(self) -> int:
        """Estimated dispatcher memory: a fixed overhead per cell, the H1
        term maps (a map shared by several cells once) and H2 (per posting
        keyword an entry plus its characters, per owner a slot).

        Counted, not walked: H2's share is the running total its mutators
        keep and H1's is cached until the next H1 mutation, so a call is
        O(1) while H1 is unchanged.
        """
        return _CELL_BYTES * len(self._cells) + self._h1_state()[0] + self._h2_bytes

    def h2_entry_count(self) -> int:
        return sum(cell.h2_entry_count() for cell in self._cells.values())
