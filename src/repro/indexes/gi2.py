"""GI2 — the Grid-Inverted-Index maintained by every worker (Section IV-D).

The index divides the worker's space into uniform grid cells and keeps one
inverted index of STS queries per cell:

* a query overlapping several cells is registered in each of them;
* within a cell, a pure-AND query is appended to the posting list of its
  least frequent keyword; a query with OR operators is appended once per
  conjunctive clause, keyed by that clause's least frequent keyword;
* deletions are lazy: the id of a dropped query is recorded in a hash set
  and physically removed the next time a posting list containing it is
  traversed during object matching (or when :meth:`compact` is called,
  e.g. before a migration).

Matching an incoming object probes only the cell containing the object's
location and only the posting lists of the object's own terms, then runs
the full region + boolean-expression check on each candidate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a runtime cycle)
    from ..runtime.profiling import MatchCounters

from ..core.costmodel import cell_load
from ..core.geometry import Rect
from ..core.objects import SpatioTextualObject, STSQuery
from ..core.text import TermStatistics
from .grid import CellCoord, UniformGrid
from .inverted import InvertedIndex

__all__ = ["GI2Index", "CellStats", "MatchOutcome"]


@dataclass(frozen=True)
class CellStats:
    """Per-cell statistics used by the dynamic load adjusters (Section V).

    ``load`` is Definition 3 (objects seen in the period times queries
    stored), ``size_bytes`` the total serialised size of the resident
    queries — the migration cost of moving the cell to another worker.
    """

    cell: CellCoord
    object_count: int
    query_count: int
    size_bytes: int

    @property
    def load(self) -> float:
        return cell_load(self.object_count, self.query_count)


@dataclass(frozen=True)
class MatchOutcome:
    """Result of matching one object: matching query ids plus probe cost."""

    query_ids: Tuple[int, ...]
    checks: int


class GI2Index:
    """The worker-side Grid-Inverted-Index."""

    def __init__(
        self,
        bounds: Rect,
        granularity: int = 64,
        term_statistics: Optional[TermStatistics] = None,
    ) -> None:
        """Create an empty index.

        ``granularity`` is the number of cells per axis (the paper uses
        ``2^6`` for its experiments).  ``term_statistics`` supplies the term
        frequencies used to pick posting keywords; when omitted the choice
        falls back to a deterministic lexicographic rule.
        """
        self._grid = UniformGrid(bounds, granularity, granularity)
        self._cells: Dict[CellCoord, InvertedIndex[int]] = {}
        self._queries: Dict[int, STSQuery] = {}
        self._query_cells: Dict[int, Set[CellCoord]] = {}
        #: Exact ``(cell, posting keyword)`` registrations per query — the
        #: assignment the dispatcher (or a migration) shipped to this
        #: worker.  The migration machinery reads and moves postings at
        #: this granularity instead of re-deriving full query footprints.
        self._query_postings: Dict[int, List[Tuple[CellCoord, str]]] = {}
        self._pending_deletions: Set[int] = set()
        self._statistics = term_statistics
        self._cell_query_counts: Counter = Counter()
        self._cell_object_counts: Counter = Counter()
        #: Hot-loop profiling counters (:mod:`repro.runtime.profiling`);
        #: ``None`` — the default — keeps matching at one attribute load
        #: per call.  Assigned by whoever owns the index (the worker)
        #: when profiling is enabled; the index never creates it.
        self.profile: Optional["MatchCounters"] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def grid(self) -> UniformGrid:
        return self._grid

    @property
    def query_count(self) -> int:
        """Number of live (non-deleted) queries resident in the index."""
        return len(self._queries) - len(self._pending_deletions & self._queries.keys())

    @property
    def pending_deletion_count(self) -> int:
        return len(self._pending_deletions)

    def __contains__(self, query_id: int) -> bool:
        return query_id in self._queries and query_id not in self._pending_deletions

    def get_query(self, query_id: int) -> Optional[STSQuery]:
        if query_id in self._pending_deletions:
            return None
        return self._queries.get(query_id)

    def queries(self) -> List[STSQuery]:
        """All live queries (mainly for tests and migration)."""
        return [
            query
            for query_id, query in self._queries.items()
            if query_id not in self._pending_deletions
        ]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, query: STSQuery) -> int:
        """Register a query's full posting footprint: every posting keyword
        in every cell overlapping its region.  Returns the postings created.

        Insertions routed by a dispatcher register only the routed subset,
        through :meth:`insert_pairs`.
        """
        posting_keys = query.expression.posting_keywords(self._statistics)
        overlapping = self._grid.cells_overlapping(query.region)
        return self.insert_pairs(
            query, [(cell, key) for cell in overlapping for key in posting_keys]
        )

    def insert_pairs(self, query: STSQuery, pairs: Sequence[Tuple[CellCoord, str]]) -> int:
        """Register a query under explicit ``(cell, posting keyword)`` pairs.

        The lean entry point of the batched engine: the dispatcher already
        resolved exactly which (cell, keyword) postings this worker owns,
        so no grid arithmetic happens here.  Consecutive pairs for the same
        cell reuse the resolved inverted index.
        """
        query_id = query.query_id
        if query_id in self._queries:
            if query_id not in self._pending_deletions:
                # Re-registration of a live query is a no-op (idempotent insert).
                return 0
            # A re-inserted query cancels its pending deletion; the lazily
            # deleted copy's physical postings go first, so the new
            # registration is the only one.
            self.remove_queries([query_id])
        cells_map = self._cells
        used_cells: Set[CellCoord] = set()
        last_coord: Optional[CellCoord] = None
        inverted: Optional[InvertedIndex] = None
        postings: Optional[Dict[str, List[int]]] = None
        run = 0
        created = 0
        for coord, key in pairs:
            if coord != last_coord:
                if run:
                    inverted.note_appended(run)
                    run = 0
                inverted = cells_map.get(coord)
                if inverted is None:
                    inverted = InvertedIndex()
                    cells_map[coord] = inverted
                postings = inverted.postings_map()
                last_coord = coord
                used_cells.add(coord)
            postings[key].append(query_id)
            run += 1
            created += 1
        if run:
            inverted.note_appended(run)
        for cell in used_cells:
            self._cell_query_counts[cell] += 1
        self._queries[query_id] = query
        self._query_cells[query_id] = used_cells
        self._query_postings[query_id] = list(pairs)
        return created

    def add_pairs(self, query: STSQuery, pairs: Sequence[Tuple[CellCoord, str]]) -> int:
        """Merge ``(cell, posting keyword)`` registrations into the index.

        The migration entry point: unlike :meth:`insert_pairs` (a no-op on a
        live query, mirroring the idempotent :meth:`insert`), this *extends*
        an existing registration — a worker that already holds a query in
        some cells gains the shipped pairs on top.  The caller guarantees
        the pairs are not yet registered here, which holds by construction
        because every ``(cell, keyword)`` pair is assigned to exactly one
        worker.  Returns the number of postings created.
        """
        query_id = query.query_id
        if query_id not in self._queries or query_id in self._pending_deletions:
            return self.insert_pairs(query, pairs)
        recorded = self._query_postings.setdefault(query_id, [])
        cells = self._query_cells.setdefault(query_id, set())
        cells_map = self._cells
        created = 0
        for coord, key in pairs:
            inverted = cells_map.get(coord)
            if inverted is None:
                inverted = InvertedIndex()
                cells_map[coord] = inverted
            inverted.add(key, query_id)
            recorded.append((coord, key))
            if coord not in cells:
                cells.add(coord)
                self._cell_query_counts[coord] += 1
            created += 1
        return created

    def remove_pairs(
        self, query_id: int, pairs: Iterable[Tuple[CellCoord, str]]
    ) -> bool:
        """Drop specific ``(cell, posting keyword)`` registrations of a query.

        The inverse of :meth:`add_pairs`: the source side of a migration
        sheds exactly the pairs it shipped.  When the query's last posting
        goes, the query itself is removed from the index.  Returns ``True``
        when the query left this index entirely.
        """
        recorded = self._query_postings.get(query_id)
        if not recorded:
            return False
        remove_set = set(pairs)
        if not remove_set:
            return False
        pending = query_id in self._pending_deletions
        kept: List[Tuple[CellCoord, str]] = []
        touched_cells: Set[CellCoord] = set()
        cells_get = self._cells.get
        for pair in recorded:
            if pair in remove_set:
                coord, key = pair
                inverted = cells_get(coord)
                if inverted is not None:
                    inverted.remove(key, query_id)
                touched_cells.add(coord)
            else:
                kept.append(pair)
        if len(kept) == len(recorded):
            return False
        if kept:
            remaining_cells = {coord for coord, _ in kept}
            for coord in touched_cells - remaining_cells:
                if coord in self._query_cells.get(query_id, ()):
                    self._query_cells[query_id].discard(coord)
                    if not pending and self._cell_query_counts[coord] > 0:
                        self._cell_query_counts[coord] -= 1
            self._query_postings[query_id] = kept
            self._drop_cells_if_empty(touched_cells)
            return False
        for coord in self._query_cells.pop(query_id, set()):
            if not pending and self._cell_query_counts[coord] > 0:
                self._cell_query_counts[coord] -= 1
        del self._query_postings[query_id]
        self._queries.pop(query_id, None)
        self._pending_deletions.discard(query_id)
        self._drop_cells_if_empty(touched_cells)
        return True

    def delete(self, query_id: int) -> bool:
        """Lazily delete a query; returns ``True`` when the query was live."""
        if query_id not in self._queries or query_id in self._pending_deletions:
            return False
        self._pending_deletions.add(query_id)
        for cell in self._query_cells.get(query_id, ()):
            if self._cell_query_counts[cell] > 0:
                self._cell_query_counts[cell] -= 1
        return True

    def compact(self) -> int:
        """Eagerly remove all pending deletions from every posting list.

        Returns the number of queries physically removed.  Called before a
        migration so that only live queries are shipped.
        """
        if not self._pending_deletions:
            return 0
        stale = set(self._pending_deletions)
        for inverted in self._cells.values():
            for term in list(inverted.terms()):
                inverted.purge(term, stale.__contains__)
        removed = 0
        for query_id in stale:
            if query_id in self._queries:
                del self._queries[query_id]
                self._query_cells.pop(query_id, None)
                self._query_postings.pop(query_id, None)
                removed += 1
        self._pending_deletions.clear()
        self._drop_empty_cells()
        return removed

    def purge_cells(self, cells: Iterable[CellCoord]) -> int:
        """Physically drop pending deletions' postings from ``cells`` only.

        The migration paths call this on the cells about to be handed over
        so that only live postings ship, without paying :meth:`compact`'s
        full-index sweep on every adjustment round.  Returns the number of
        pending queries touched.
        """
        if not self._pending_deletions:
            return 0
        moving = set(cells)
        touched = 0
        for query_id in list(self._pending_deletions):
            recorded = self._query_postings.get(query_id)
            if not recorded:
                continue
            pairs = [pair for pair in recorded if pair[0] in moving]
            if pairs:
                self.remove_pairs(query_id, pairs)
                touched += 1
        return touched

    def _drop_empty_cells(self) -> None:
        empty = [cell for cell, inverted in self._cells.items() if inverted.entry_count == 0]
        for cell in empty:
            del self._cells[cell]

    def _drop_cells_if_empty(self, cells: Iterable[CellCoord]) -> None:
        """Drop the given cells when emptied — O(touched), not O(all cells).

        :meth:`remove_pairs` runs once per query during a migration, so the
        full-index sweep of :meth:`_drop_empty_cells` would make adjustment
        rounds quadratic.
        """
        for cell in cells:
            inverted = self._cells.get(cell)
            if inverted is not None and inverted.entry_count == 0:
                del self._cells[cell]

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, obj: SpatioTextualObject) -> MatchOutcome:
        """All live queries matched by ``obj``: :meth:`match_batch` on a
        batch of one."""
        return self.match_batch((obj,))[0]

    def match_batch(
        self,
        objects: Sequence[SpatioTextualObject],
        cells: Optional[Sequence[CellCoord]] = None,
    ) -> List[MatchOutcome]:
        """Match a batch of objects, amortising posting-list setup per cell.

        Per object, only the cell containing it is probed, and only the
        posting lists of its own terms; lazy deletions encountered on the
        way are purged.  No query updates happen inside a batch, so
        per-object results are order-independent and stale postings of
        each probed (cell, term) pair are purged once per batch instead of
        once per object.  ``cells`` may carry the objects' precomputed
        grid cells.
        """
        outcomes: List[Optional[MatchOutcome]] = [None] * len(objects)
        by_cell: Dict[CellCoord, List[int]] = {}
        cell_of = self._grid.cell_of
        object_counts = self._cell_object_counts
        for position, obj in enumerate(objects):
            cell = cells[position] if cells is not None else cell_of(obj.location)
            object_counts[cell] += 1
            group = by_cell.get(cell)
            if group is None:
                by_cell[cell] = [position]
            else:
                group.append(position)
        pending = self._pending_deletions
        queries_get = self._queries.get
        empty = MatchOutcome((), 0)
        prof = self.profile
        if prof is not None:
            prof.cells_probed += len(by_cell)
        for cell, positions in by_cell.items():
            inverted = self._cells.get(cell)
            if inverted is None:
                for position in positions:
                    outcomes[position] = empty
                continue
            postings_map = inverted.postings_map()
            purged: Set[str] = set()
            for position in positions:
                obj = objects[position]
                # Intersect at C speed: only resident terms are probed, and
                # each probed list is purged of stale postings once per batch.
                hits = obj.terms & postings_map.keys()
                if not hits:
                    outcomes[position] = empty
                    continue
                if pending:
                    for term in hits:
                        if term not in purged:
                            purged.add(term)
                            inverted.purge(term, self._purge_posting)
                    hits = obj.terms & postings_map.keys()
                    if not hits:
                        outcomes[position] = empty
                        continue
                matched: Set[int] = set()
                matched_add = matched.add
                checks = 0
                location = obj.location
                x = location.x
                y = location.y
                terms = obj.terms
                for term in hits:
                    for query_id in postings_map[term]:
                        if query_id in matched:
                            continue
                        query = queries_get(query_id)
                        if query is None:
                            continue
                        checks += 1
                        # Inlined STSQuery.matches: region containment plus
                        # boolean expression, with the point unpacked once.
                        region = query.region
                        if (
                            region.min_x <= x <= region.max_x
                            and region.min_y <= y <= region.max_y
                            and query.expression.matches(terms)
                        ):
                            matched_add(query_id)
                if prof is not None:
                    # Deterministic counts only, accumulated outside the
                    # candidate loop (the profiling seam — RL007 keeps
                    # wall-clock out of this file entirely).
                    prof.postings_scanned += sum(
                        len(postings_map[term]) for term in hits
                    )
                    prof.candidates += checks
                    prof.matches += len(matched)
                outcomes[position] = MatchOutcome(tuple(sorted(matched)), checks)
        return outcomes  # type: ignore[return-value]

    def _purge_posting(self, query_id: int) -> bool:
        """Posting-list staleness check used during lazy deletion."""
        if query_id in self._pending_deletions:
            # The query may still have postings in other cells; it is fully
            # forgotten only via compact().  Dropping it from this list is
            # enough for matching correctness.
            return True
        return False

    # ------------------------------------------------------------------
    # Statistics, memory and migration support
    # ------------------------------------------------------------------
    def reset_object_counts(self) -> None:
        """Start a new measurement period for Definition-3 cell loads."""
        self._cell_object_counts.clear()

    def cell_stats(self) -> List[CellStats]:
        """Per-cell statistics over the current measurement period.

        Sizes are accumulated in one pass over the live queries (each
        contributes to every cell it is posted in) rather than one scan of
        the query table per cell — the closed-loop adjuster reads these
        statistics every measurement period, so this path must stay cheap.
        """
        sizes: Dict[CellCoord, int] = {}
        pending = self._pending_deletions
        queries_get = self._queries.get
        for query_id, cells in self._query_cells.items():
            if query_id in pending:
                continue
            query = queries_get(query_id)
            if query is None:
                continue
            size = query.size_bytes()
            for cell in cells:
                sizes[cell] = sizes.get(cell, 0) + size
        stats: List[CellStats] = []
        cells = set(self._cell_query_counts) | set(self._cell_object_counts)
        for cell in cells:
            query_count = self._cell_query_counts.get(cell, 0)
            if query_count <= 0 and self._cell_object_counts.get(cell, 0) <= 0:
                continue
            stats.append(
                CellStats(
                    cell=cell,
                    object_count=self._cell_object_counts.get(cell, 0),
                    query_count=query_count,
                    size_bytes=sizes.get(cell, 0),
                )
            )
        return stats

    def cells_of_query(self, query_id: int) -> Set[CellCoord]:
        """The grid cells a registered query is posted in (empty when unknown)."""
        return set(self._query_cells.get(query_id, set()))

    def posting_pairs_of_query(self, query_id: int) -> List[Tuple[CellCoord, str]]:
        """The exact ``(cell, posting keyword)`` registrations of a query.

        This is the worker-side assignment the dispatcher (or a migration)
        shipped here; the migration machinery and the parity regression
        tests read footprints at this granularity.
        """
        return list(self._query_postings.get(query_id, ()))

    def posting_pairs_of_queries(
        self, query_ids: Iterable[int]
    ) -> Dict[int, List[Tuple[CellCoord, str]]]:
        """Bulk :meth:`posting_pairs_of_query` for many queries at once.

        One call (hence one RPC round trip on a remote worker backend)
        replaces a per-query loop — the Section V adjusters read whole
        cells' worth of assignments when deciding a Phase I split.
        """
        postings = self._query_postings
        return {
            query_id: list(postings.get(query_id, ()))
            for query_id in query_ids
        }

    def posting_pairs_by_query(self) -> Dict[int, List[Tuple[CellCoord, str]]]:
        """The ``(cell, posting keyword)`` registrations of every live query.

        The global adjuster's finalisation snapshot: everything it needs to
        reconcile this worker against a new strategy, fetched in a single
        round trip instead of one ``posting_pairs_of_query`` call per query.
        Lazily deleted queries are excluded (they no longer ship anywhere).
        """
        pending = self._pending_deletions
        return {
            query_id: list(recorded)
            for query_id, recorded in self._query_postings.items()
            if query_id not in pending
        }

    def iter_live_postings(self) -> Iterator[Tuple[STSQuery, Tuple[Tuple[CellCoord, str], ...]]]:
        """Every live query with its recorded posting pairs, read-only.

        The checkpoint fast path: one pass over the recorded postings
        with no intermediate per-query dict or lookup round trips —
        :meth:`posting_pairs_by_query` plus :meth:`get_query` fused.
        Queries pending lazy deletion are excluded, matching both.
        """
        pending = self._pending_deletions
        queries = self._queries
        for query_id, recorded in self._query_postings.items():
            if query_id in pending:
                continue
            query = queries.get(query_id)
            if query is None:
                continue
            yield query, tuple(recorded)

    def extract_cell_assignments(
        self, cells: Iterable[CellCoord]
    ) -> List[Tuple[STSQuery, List[Tuple[CellCoord, str]]]]:
        """Live queries with postings in ``cells``, plus those postings.

        Read-only companion of :meth:`remove_pairs`: the migration source
        computes what ships — each query registered in the handed-over
        cells together with exactly the ``(cell, posting keyword)`` pairs it
        owns there — without mutating the index.
        """
        moving = set(cells)
        result: List[Tuple[STSQuery, List[Tuple[CellCoord, str]]]] = []
        pending = self._pending_deletions
        for query_id, recorded in self._query_postings.items():
            if query_id in pending:
                continue
            pairs = [pair for pair in recorded if pair[0] in moving]
            if not pairs:
                continue
            query = self._queries.get(query_id)
            if query is not None:
                result.append((query, pairs))
        return result

    def queries_in_cell(self, cell: CellCoord) -> List[STSQuery]:
        """Live queries registered in ``cell`` (used for migration)."""
        result = []
        for query_id, cells in self._query_cells.items():
            if cell in cells and query_id not in self._pending_deletions:
                query = self._queries.get(query_id)
                if query is not None:
                    result.append(query)
        return result

    def remove_queries(self, query_ids: Iterable[int]) -> List[STSQuery]:
        """Physically remove queries (eager), returning the removed ones.

        Used by the migration machinery: the source worker extracts the
        queries of the cells being handed over and ships them to the target
        worker, which re-inserts them.
        """
        removed: List[STSQuery] = []
        ids = set(query_ids)
        if not ids:
            return removed
        for query_id in ids:
            query = self._queries.pop(query_id, None)
            if query is None:
                continue
            was_pending = query_id in self._pending_deletions
            self._pending_deletions.discard(query_id)
            cells = self._query_cells.pop(query_id, set())
            recorded = self._query_postings.pop(query_id, None)
            if recorded is not None:
                # The exact registrations are known: remove precisely them.
                for cell, key in recorded:
                    inverted = self._cells.get(cell)
                    if inverted is not None:
                        inverted.remove(key, query_id)
            else:
                for cell in cells:
                    inverted = self._cells.get(cell)
                    if inverted is not None:
                        for term in list(inverted.terms()):
                            inverted.remove(term, query_id)
            for cell in cells:
                if not was_pending and self._cell_query_counts[cell] > 0:
                    self._cell_query_counts[cell] -= 1
            if not was_pending:
                removed.append(query)
        self._drop_empty_cells()
        return removed

    def memory_bytes(self) -> int:
        """Estimated resident memory of the index (queries + postings)."""
        query_bytes = sum(
            query.size_bytes()
            for query_id, query in self._queries.items()
        )
        posting_bytes = sum(inverted.memory_bytes() for inverted in self._cells.values())
        cell_overhead = 96 * len(self._cells)
        return query_bytes + posting_bytes + cell_overhead

    @property
    def posting_count(self) -> int:
        return sum(inverted.entry_count for inverted in self._cells.values())
