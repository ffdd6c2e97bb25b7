"""GI2 — the Grid-Inverted-Index maintained by every worker (Section IV-D).

The index divides the worker's space into uniform grid cells and keeps one
inverted index of STS queries per cell:

* a query overlapping several cells is registered in each of them;
* within a cell, a pure-AND query is appended to the posting list of its
  least frequent keyword; a query with OR operators is appended once per
  conjunctive clause, keyed by that clause's least frequent keyword;
* deletions are lazy: a dropped query leaves the query table for a
  *tombstone* (its recorded ``(cell, keyword)`` pairs) and its postings
  stay where they are.  "Stale" is "id not in the query table" — the test
  the candidate loop runs anyway — and a posting list in which matching
  met a stale id is rewritten right after its traversal.  Postings no
  object traverses again go in a :meth:`GI2Index.compact` sweep, which
  :meth:`GI2Index.delete` runs once the deletions since the last sweep
  outnumber the live queries.

Matching an incoming object probes only the cell containing the object's
location and only the posting lists of the object's own terms, then runs
the region + boolean-expression check on each candidate.  An
all-singleton DNF query (every OR query, every one-keyword query) needs
no text check once its posting list is reached: its posting key is one of
its clauses, and the object holds that term.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.costmodel import cell_load
from ..core.counters import MatchProfile
from ..core.geometry import Rect
from ..core.objects import ObjectRow, SpatioTextualObject, STSQuery
from ..core.text import TermStatistics
from .grid import CellCoord, UniformGrid
from .inverted import InvertedIndex

__all__ = ["GI2Index", "CellStats", "MatchOutcome", "SUBSCRIBER"]


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


class MatchOutcome(NamedTuple):
    """Result of matching one object: matching query ids plus probe cost."""

    query_ids: Tuple[int, ...]
    checks: int


Pair = Tuple[CellCoord, str]
#: A query-table value ``(query, min_x, max_x, min_y, max_y, clause,
#: subscriber_id)``: the query, what a candidate check reads — its region
#: flattened and its text check ``clause <= terms`` — and what a result
#: row carries.  ``clause`` is empty when every DNF clause is a single
#: keyword: a posting key is always a member of one of the query's
#: clauses, so an all-singleton DNF query needs no text check once its
#: posting list is reached.  A conjunction of several keywords keeps its
#: clause; mixed DNF holds ``None`` and goes through
#: :meth:`BooleanExpression.matches`.
QueryRecord = Tuple[STSQuery, float, float, float, float, Optional[FrozenSet[str]], int]
#: The position of ``subscriber_id`` in a :data:`QueryRecord`.
SUBSCRIBER = 6

#: The ``clause`` of a query whose posting list implies its text.
_POSTING_IMPLIES_TEXT: FrozenSet[str] = frozenset()


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
        #: The query table: live queries only.  A posting whose id is not
        #: a key here is stale.
        self._queries: Dict[int, QueryRecord] = {}
        #: ``size_bytes`` summed over the query table, kept by every
        #: method that adds or drops a live query (:meth:`memory_bytes`).
        self._query_bytes = 0
        self._query_cells: Dict[int, Set[CellCoord]] = {}
        #: Exact ``(cell, posting keyword)`` registrations per live query —
        #: the assignment the dispatcher (or a migration) shipped to this
        #: worker.  The migration machinery reads and moves postings at
        #: this granularity instead of re-deriving full query footprints.
        self._query_postings: Dict[int, List[Pair]] = {}
        #: Lazily deleted queries: the recorded pairs whose postings may
        #: still be physically present.
        self._tombstones: Dict[int, List[Pair]] = {}
        self._unswept_deletions = 0
        self._statistics = term_statistics
        #: Definition-3 inputs per cell: live queries posted there (a plain
        #: dict: the update path reads it with ``get``), and objects
        #: matched there in the period.
        self._cell_query_counts: Dict[CellCoord, int] = {}
        self._cell_object_counts: Counter = Counter()
        #: What :meth:`match_batch` did so far (:mod:`repro.core.counters`):
        #: always counting, flushed once per batch.
        self.profile = MatchProfile()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def grid(self) -> UniformGrid:
        return self._grid

    @property
    def query_count(self) -> int:
        """Number of live (non-deleted) queries resident in the index."""
        return len(self._queries)

    @property
    def pending_deletion_count(self) -> int:
        """Deleted queries not yet forgotten (their tombstones)."""
        return len(self._tombstones)

    def __contains__(self, query_id: int) -> bool:
        return query_id in self._queries

    def get_query(self, query_id: int) -> Optional[STSQuery]:
        record = self._queries.get(query_id)
        return record[0] if record is not None else None

    def queries(self) -> List[STSQuery]:
        """All live queries (mainly for tests and migration)."""
        return [record[0] for record in self._queries.values()]

    def records(self) -> Dict[int, QueryRecord]:
        """The query table itself (read-only for callers), query first —
        the worker reads a match's ``subscriber_id`` off it (field
        :data:`SUBSCRIBER`)."""
        return self._queries

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

    def insert_pairs(self, query: STSQuery, pairs: Sequence[Pair]) -> int:
        """Register a query under explicit ``(cell, posting keyword)`` pairs.

        The lean entry point of the batched engine: the dispatcher already
        resolved exactly which (cell, keyword) postings this worker owns,
        so no grid arithmetic happens here.  Consecutive pairs for the same
        cell reuse the resolved inverted index.
        """
        query_id = query.query_id
        if query_id in self._queries:
            # Re-registration of a live query is a no-op (idempotent insert).
            return 0
        # A re-inserted query replaces its lazily deleted copy: that
        # copy's physical postings go first, so the new registration is
        # the only one.
        deleted_copy = self._tombstones.pop(query_id, None)
        if deleted_copy is not None:
            self._drop_postings(query_id, deleted_copy)
        cells_map = self._cells
        used_cells: Set[CellCoord] = set()
        last_coord: Optional[CellCoord] = None
        inverted: InvertedIndex  # bound at the first pair: its coord is new
        postings: Dict[str, List[int]] = {}
        for coord, key in pairs:
            if coord != last_coord:
                found = cells_map.get(coord)
                if found is None:
                    found = cells_map[coord] = InvertedIndex()
                inverted = found
                postings = inverted.by_term
                last_coord = coord
                used_cells.add(coord)
            postings[key].append(query_id)
            inverted.entry_count += 1
        counts = self._cell_query_counts
        for cell in used_cells:
            counts[cell] = counts.get(cell, 0) + 1
        region = query.region
        clauses = query.expression.clauses
        clause: Optional[FrozenSet[str]]
        if max(map(len, clauses)) == 1:
            clause = _POSTING_IMPLIES_TEXT
        else:
            clause = clauses[0] if len(clauses) == 1 else None
        self._queries[query_id] = (
            query,
            region.min_x,
            region.max_x,
            region.min_y,
            region.max_y,
            clause,
            query.subscriber_id,
        )
        self._query_bytes += query.size_bytes()
        self._query_cells[query_id] = used_cells
        self._query_postings[query_id] = list(pairs)
        return len(pairs)

    def add_pairs(self, query: STSQuery, pairs: Sequence[Pair]) -> int:
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
        if query_id not in self._queries:
            return self.insert_pairs(query, pairs)
        recorded = self._query_postings[query_id]
        cells = self._query_cells[query_id]
        cells_map = self._cells
        counts = self._cell_query_counts
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
                counts[coord] = counts.get(coord, 0) + 1
            created += 1
        return created

    def remove_pairs(self, query_id: int, pairs: Iterable[Pair]) -> bool:
        """Drop specific ``(cell, posting keyword)`` registrations of a query.

        The inverse of :meth:`add_pairs`: the source side of a migration
        sheds exactly the pairs it shipped (of a tombstone: the postings
        that must not ship).  When the query's last posting goes, the
        query — or its tombstone — is removed from the index.  Returns
        ``True`` when it left this index entirely.
        """
        live = query_id in self._queries
        table = self._query_postings if live else self._tombstones
        recorded = table.get(query_id)
        if not recorded:
            return False
        remove_set = set(pairs)
        removed = [pair for pair in recorded if pair in remove_set]
        if not removed:
            return False
        self._drop_postings(query_id, removed)
        kept = [pair for pair in recorded if pair not in remove_set]
        if kept:
            table[query_id] = kept
            if live:
                left = {coord for coord, _ in removed} - {coord for coord, _ in kept}
                self._query_cells[query_id] -= left
                self._release_cells(left)
            return False
        del table[query_id]
        if live:
            self._query_bytes -= self._queries.pop(query_id)[0].size_bytes()
            self._release_cells(self._query_cells.pop(query_id))
        return True

    def delete(self, query_id: int) -> bool:
        """Lazily delete a query; returns ``True`` when the query was live.

        The postings stay (no eager ``list.remove``); the query moves to a
        tombstone.  Postings nothing traverses again would otherwise live
        as long as the worker, so once the deletions since the last sweep
        outnumber the queries that were live when this one arrived, the
        index compacts — a trigger that depends only on this worker's own
        update sequence, hence the same op under every driver.
        """
        live = len(self._queries)
        record = self._queries.pop(query_id, None)
        if record is None:
            return False
        self._query_bytes -= record[0].size_bytes()
        self._tombstones[query_id] = self._query_postings.pop(query_id)
        self._release_cells(self._query_cells.pop(query_id))
        self._unswept_deletions += 1
        if self._unswept_deletions > live:
            self.compact()
        return True

    def compact(self) -> int:
        """Eagerly remove every deleted query's postings and tombstone.

        Returns the number of queries physically removed.
        """
        self._unswept_deletions = 0
        tombstones = self._tombstones
        cells_map = self._cells
        stale_lists = dict.fromkeys(pair for pairs in tombstones.values() for pair in pairs)
        for coord, key in stale_lists:
            inverted = cells_map.get(coord)
            if inverted is not None:
                inverted.purge(key, tombstones.__contains__)
                if inverted.entry_count == 0:
                    del cells_map[coord]
        removed = len(tombstones)
        tombstones.clear()
        return removed

    def purge_cells(self, cells: Iterable[CellCoord]) -> int:
        """Physically drop deleted queries' postings from ``cells`` only.

        The migration paths call this on the cells about to be handed over
        so that only live postings ship, without paying :meth:`compact`'s
        full sweep on every adjustment round.  Returns the number of
        tombstones touched.
        """
        moving = set(cells)
        touched = 0
        for query_id, recorded in list(self._tombstones.items()):
            pairs = [pair for pair in recorded if pair[0] in moving]
            if pairs:
                self.remove_pairs(query_id, pairs)
                touched += 1
        return touched

    def _release_cells(self, cells: Iterable[CellCoord]) -> None:
        """One live query fewer in each of ``cells`` (Definition-3 counts)."""
        counts = self._cell_query_counts
        for cell in cells:
            count = counts.get(cell, 0)
            if count > 0:
                counts[cell] = count - 1

    def _drop_postings(self, query_id: int, pairs: Iterable[Pair]) -> None:
        """Physically remove ``query_id`` from the lists of ``pairs``; an
        emptied cell goes with its last posting."""
        cells_map = self._cells
        for coord, key in pairs:
            inverted = cells_map.get(coord)
            if inverted is not None:
                inverted.remove(key, query_id)
                if inverted.entry_count == 0:
                    del cells_map[coord]

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, obj: SpatioTextualObject) -> MatchOutcome:
        """All live queries matched by ``obj``: :meth:`match_batch` on a
        batch of one."""
        return self.match_batch((obj.row(),))[0]

    def match_batch(
        self,
        rows: Sequence[ObjectRow],
        cells: Optional[Sequence[CellCoord]] = None,
    ) -> List[MatchOutcome]:
        """Match a batch of object rows, in order, one pass per posting list.

        Per object, only the cell containing it is probed, and only the
        posting lists of its own terms.  A candidate costs one table
        lookup: a miss is a stale posting (skipped, and its list rewritten
        once the object's lists are traversed), a hit yields the flat
        record the region + text check reads.  ``cells`` may carry the
        objects' precomputed grid cells.

        No set deduplicates candidates: a query posted twice in the cell
        (two of its clauses share a posting key, or the object holds the
        keys of two clauses) is checked at each posting.  The check is a
        pure function of record and object, so a matching id enters the
        found list once per posting; sorting drops the repeats and each
        one gives back the check a dedup set would have skipped —
        ``query_ids`` and ``checks`` are those of a loop that skips ids
        already matched.
        """
        if cells is None:
            cell_at = self._grid.cell_at
            cells = [cell_at(row[1], row[2]) for row in rows]
        cells_map = self._cells
        table = self._queries
        table_get = table.get
        object_counts = self._cell_object_counts
        empty = MatchOutcome((), 0)
        new_tuple = tuple.__new__
        outcomes: List[MatchOutcome] = []
        stale_terms: Set[str] = set()
        # Deterministic counts only (a CI grep keeps wall-clock out of this
        # file entirely), kept in locals and flushed once per batch.
        scanned = candidates = matches = 0
        for (_, x, y, terms), cell in zip(rows, cells):
            object_counts[cell] += 1
            inverted = cells_map.get(cell)
            if inverted is None:
                outcomes.append(empty)
                continue
            postings_map = inverted.by_term
            # Intersect at C speed: only resident terms are probed.
            hits = terms & postings_map.keys()
            if not hits:
                outcomes.append(empty)
                continue
            found: List[int] = []
            checks = 0
            for term in hits:
                postings = postings_map[term]
                scanned += len(postings)
                for query_id in postings:
                    record = table_get(query_id)
                    if record is None:
                        stale_terms.add(term)
                        continue
                    checks += 1
                    query, min_x, max_x, min_y, max_y, clause, _ = record
                    if (
                        min_x <= x <= max_x
                        and min_y <= y <= max_y
                        and (
                            clause <= terms
                            if clause is not None
                            else query.expression.matches(terms)
                        )
                    ):
                        found.append(query_id)
            if stale_terms:
                for term in stale_terms:
                    # Stale postings do not count as scanned.
                    scanned -= inverted.rewrite(
                        term, [query_id for query_id in postings_map[term] if query_id in table]
                    )
                stale_terms.clear()
                if not postings_map:
                    del cells_map[cell]
            if len(found) > 1:
                unique = set(found)
                checks -= len(found) - len(unique)  # one per dropped repeat
                found = sorted(unique)
            candidates += checks
            matches += len(found)
            outcomes.append(new_tuple(MatchOutcome, (tuple(found), checks)))
        counters = self.profile
        counters.cells_probed += len(set(cells))
        counters.postings_scanned += scanned
        counters.candidates += candidates
        counters.matches += matches
        return outcomes

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
        queries = self._queries
        for query_id, cells in self._query_cells.items():
            size = queries[query_id][0].size_bytes()
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
        """The grid cells a live query is posted in (empty when unknown)."""
        return set(self._query_cells.get(query_id, ()))

    def posting_pairs_of_query(self, query_id: int) -> List[Pair]:
        """The exact ``(cell, posting keyword)`` registrations of a query.

        This is the worker-side assignment the dispatcher (or a migration)
        shipped here; the migration machinery and the parity regression
        tests read footprints at this granularity.
        """
        return list(self._query_postings.get(query_id, ()))

    def posting_pairs_by_query(self) -> Dict[int, List[Pair]]:
        """The ``(cell, posting keyword)`` registrations of every live query.

        The global adjuster's finalisation snapshot: everything it needs to
        reconcile this worker against a new strategy, fetched in a single
        round trip instead of one ``posting_pairs_of_query`` call per query.
        """
        return {
            query_id: list(recorded)
            for query_id, recorded in self._query_postings.items()
        }

    def iter_live_postings(self) -> Iterator[Tuple[STSQuery, Tuple[Pair, ...]]]:
        """Every live query with its recorded posting pairs, read-only.

        The checkpoint fast path: one pass over the recorded postings
        with no intermediate per-query dict or lookup round trips —
        :meth:`posting_pairs_by_query` plus :meth:`get_query` fused.
        """
        queries = self._queries
        for query_id, recorded in self._query_postings.items():
            yield queries[query_id][0], tuple(recorded)

    def extract_cell_assignments(
        self, cells: Iterable[CellCoord]
    ) -> List[Tuple[STSQuery, List[Pair]]]:
        """Live queries with postings in ``cells``, plus those postings.

        Read-only companion of :meth:`remove_pairs`: the migration source
        computes what ships — each query registered in the handed-over
        cells together with exactly the ``(cell, posting keyword)`` pairs it
        owns there — without mutating the index.
        """
        moving = set(cells)
        result: List[Tuple[STSQuery, List[Pair]]] = []
        queries = self._queries
        for query_id, recorded in self._query_postings.items():
            pairs = [pair for pair in recorded if pair[0] in moving]
            if pairs:
                result.append((queries[query_id][0], pairs))
        return result

    def queries_in_cell(self, cell: CellCoord) -> List[STSQuery]:
        """Live queries registered in ``cell`` (used for migration)."""
        queries = self._queries
        return [
            queries[query_id][0]
            for query_id, cells in self._query_cells.items()
            if cell in cells
        ]

    def remove_queries(self, query_ids: Iterable[int]) -> List[STSQuery]:
        """Physically remove queries (eager), returning the live ones removed.

        Used by the global adjuster's reconciliation for queries that
        leave this worker entirely; a tombstoned id loses its remaining
        postings and its tombstone.
        """
        removed: List[STSQuery] = []
        for query_id in dict.fromkeys(query_ids):
            record = self._queries.pop(query_id, None)
            if record is not None:
                removed.append(record[0])
                self._query_bytes -= record[0].size_bytes()
                self._release_cells(self._query_cells.pop(query_id))
                pairs = self._query_postings.pop(query_id)
            else:
                pairs = self._tombstones.pop(query_id, ())
            self._drop_postings(query_id, pairs)
        return removed

    def memory_bytes(self) -> int:
        """Estimated resident memory of the index: the live queries'
        ``size_bytes`` plus the physical postings (a deleted query's stale
        postings count until a traversal or a sweep drops them) plus a
        fixed overhead per cell.

        Counted, not walked: the query share is a running total and each
        cell's inverted index counts its own entries, so a call costs
        O(cells), never O(queries) or O(postings).
        """
        posting_bytes = sum(map(InvertedIndex.memory_bytes, self._cells.values()))
        return self._query_bytes + posting_bytes + 96 * len(self._cells)

    @property
    def posting_count(self) -> int:
        return sum(inverted.entry_count for inverted in self._cells.values())
