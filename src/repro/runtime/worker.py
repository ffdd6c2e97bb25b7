"""Worker processes: index STS queries and match incoming objects.

A worker (Section III-B) owns an in-memory GI2 index.  It executes three
operations — query insertion, query deletion and object matching — and
accounts the cost of each through the Definition-1 cost model so that the
cluster simulator can derive saturation throughput and latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.costmodel import COST_MODEL, WorkerLoadCounters
from ..core.geometry import Rect
from ..core.objects import MatchResult, ObjectRow, SpatioTextualObject, STSQuery
from ..core.text import TermStatistics
from ..indexes.gi2 import SUBSCRIBER, CellStats, GI2Index
from ..indexes.grid import CellCoord

__all__ = ["QueryAssignment", "WorkerNode"]


@dataclass(frozen=True)
class QueryAssignment:
    """One migrated query plus the ``(cell, posting keyword)`` pairs shipped.

    The unit of the Section V migration protocol: the source worker hands
    over exactly the posting pairs that move (the pairs the routing index
    will point at the target after the adjustment), never the query's full
    footprint.  ``moved`` records whether the query left the source
    entirely (its last postings were in the shipped pairs) or a remainder
    stayed behind — the moved/copied distinction of
    :class:`~repro.runtime.cluster.MigrationRecord`.
    """

    query: STSQuery
    pairs: Tuple[Tuple[CellCoord, str], ...]
    moved: bool = True


class WorkerNode:
    """One worker of the PS2Stream cluster."""

    #: The control plane (Section V): the only names a coordinator may call —
    #: or, for ``CONTROL_READS``, read — on a remote worker.  ``WorkerHost``
    #: refuses every other name and ``WorkerProxy`` offers no other, so a new
    #: control operation is a method here plus its name in this tuple.
    CONTROL_READS = ("query_count", "busy_cost")
    CONTROL_SURFACE = (
        "cell_stats", "cell_keyword_counts", "extract_cells", "extract_keywords",
        "install_queries", "reconcile_queries", "snapshot_assignments",
        "reset_period", "reset_load_measurement", "load", "memory_bytes",
        "compacted_posting_count",
    ) + CONTROL_READS

    def __init__(
        self,
        worker_id: int,
        bounds: Rect,
        *,
        granularity: int = 64,
        term_statistics: Optional[TermStatistics] = None,
    ) -> None:
        self.worker_id = worker_id
        self.index = GI2Index(bounds, granularity=granularity, term_statistics=term_statistics)
        self.counters = WorkerLoadCounters()
        #: Accumulated busy time in cost units (converted to seconds by the cluster).
        self.busy_cost = 0.0

    # ------------------------------------------------------------------
    # Operations (Section III-B, worker responsibilities)
    # ------------------------------------------------------------------
    def handle_insertion(
        self,
        query: STSQuery,
        assignment: Optional[Sequence[Tuple[CellCoord, str]]] = None,
    ) -> None:
        """(1) Query insertion: add the STS query to the in-memory index.

        ``assignment`` is the list of ``(cell, posting keyword)`` pairs the
        dispatcher routed to this worker.  When given, the query is
        registered under exactly those pairs instead of replicating its
        complete posting footprint on every worker holding it.
        """
        if assignment is None:
            self.index.insert(query)
        else:
            self.index.insert_pairs(query, assignment)
        self.counters.insertions += 1
        self.busy_cost += COST_MODEL.insert_handling

    def handle_deletion(self, query_id: int) -> None:
        """(2) Query deletion: lazily remove the STS query from the index."""
        self.index.delete(query_id)
        self.counters.deletions += 1
        self.busy_cost += COST_MODEL.delete_handling

    def handle_object(self, obj: SpatioTextualObject) -> List[MatchResult]:
        """(3) Matching: the queries satisfied by ``obj`` — a batch of one."""
        return self.handle_object_batch((obj.row(),))[0]

    def handle_object_batch(
        self,
        rows: Sequence[ObjectRow],
        cells: Optional[Sequence[CellCoord]] = None,
    ) -> Tuple[List[MatchResult], List[float]]:
        """Match a batch of object rows (:data:`~repro.core.objects.ObjectRow`)
        in one call.

        Returns the match results plus one Definition-1 cost per object;
        the load counters are accounted in bulk.  ``cells`` may carry the
        objects' precomputed grid cells.
        """
        outcomes = self.index.match_batch(rows, cells)
        results: List[MatchResult] = []
        costs: List[float] = []
        object_handling = COST_MODEL.object_handling
        match_check = COST_MODEL.match_check
        worker_id = self.worker_id
        records = self.index.records()
        total_cost = 0.0
        total_checks = 0
        total_matches = 0
        results_append = results.append
        new_tuple = tuple.__new__
        subscriber = SUBSCRIBER
        for row, (query_ids, checks) in zip(rows, outcomes):
            total_checks += checks
            cost = object_handling + match_check * checks
            total_cost += cost
            costs.append(cost)
            if query_ids:
                total_matches += len(query_ids)
                object_id = row[0]
                # One tuple build per result: the namedtuple's ``__new__``
                # would add a Python frame.
                for query_id in query_ids:
                    results_append(
                        new_tuple(
                            MatchResult,
                            (query_id, object_id, records[query_id][subscriber], worker_id),
                        )
                    )
        self.counters.record_object_batch(len(rows), total_checks, total_matches)
        self.busy_cost += total_cost
        return results, costs

    # ------------------------------------------------------------------
    # Load accounting and adjustment hooks
    # ------------------------------------------------------------------
    def load(self) -> float:
        """Definition-1 load of this worker over the current period."""
        return self.counters.load(COST_MODEL)

    def reset_period(self) -> None:
        """Start a new load-measurement period (counters and cell stats)."""
        self.counters.reset()
        self.busy_cost = 0.0
        self.index.reset_object_counts()

    def reset_load_measurement(self) -> None:
        """Start a new Section V measurement period, keeping busy time.

        Resets exactly what the adjusters observe — the Definition-1 load
        counters and the Definition-3 per-cell object counts — while the
        accumulated busy time keeps counting toward the run's throughput.
        """
        self.counters.reset()
        self.index.reset_object_counts()

    def cell_stats(self) -> List[CellStats]:
        """Per-cell loads and sizes (Definition 3), for the load adjusters."""
        return self.index.cell_stats()

    def cell_keyword_counts(self, cell: CellCoord) -> Dict[str, int]:
        """Live postings per posting keyword in ``cell``, in registration
        order — the weights of a Phase I text split (Section V-A).  Empty
        when fewer than two live queries are posted there: nothing to split.
        """
        resident = self.index.extract_cell_assignments((cell,))
        if len(resident) < 2:
            return {}
        counts: Dict[str, int] = {}
        for _, pairs in resident:
            for _, keyword in pairs:
                counts[keyword] = counts.get(keyword, 0) + 1
        return counts

    def extract_cells(self, cells: Iterable[CellCoord]) -> List[QueryAssignment]:
        """Remove and return the per-query assignments registered in ``cells``.

        Each returned :class:`QueryAssignment` carries a live query plus
        exactly the ``(cell, posting keyword)`` pairs it owned in the
        handed-over cells; those pairs are dropped from this worker (a
        query also posted in cells that stay keeps its remaining pairs
        here).  The migration machinery ships the assignments to the
        target worker, which re-registers them via
        :meth:`install_queries`.
        """
        moving = set(cells)
        # Only live queries ship: drop lazily deleted postings from the
        # handed-over cells first (targeted, not a full compact).
        self.index.purge_cells(moving)
        assignments: List[QueryAssignment] = []
        for query, pairs in self.index.extract_cell_assignments(moving):
            removed = self.index.remove_pairs(query.query_id, pairs)
            assignments.append(QueryAssignment(query, tuple(pairs), removed))
        return assignments

    def extract_keywords(
        self, cell: CellCoord, keywords: Iterable[str]
    ) -> List[QueryAssignment]:
        """Remove and return the assignments of ``cell`` under ``keywords``.

        The worker-side half of a Section V-A Phase I text split: every
        live query posted in ``cell`` under one of the reassigned posting
        keywords hands over exactly those ``(cell, keyword)`` pairs.
        Queries with no posting under the moved keywords stay untouched.
        """
        wanted = set(keywords)
        self.index.purge_cells((cell,))  # only live postings ship, as above
        assignments: List[QueryAssignment] = []
        for query, pairs in self.index.extract_cell_assignments((cell,)):
            moving_pairs = [pair for pair in pairs if pair[1] in wanted]
            if not moving_pairs:
                continue
            removed = self.index.remove_pairs(query.query_id, moving_pairs)
            assignments.append(QueryAssignment(query, tuple(moving_pairs), removed))
        return assignments

    def snapshot_assignments(self) -> List[QueryAssignment]:
        """Non-destructively export every live query's posting assignment.

        The checkpoint half of the fault-tolerance machinery: the same
        ``(cell, posting keyword)`` unit :meth:`extract_cells` ships
        during a migration, but read-only and for the whole partition —
        nothing is removed from this worker.  Restoring the snapshot on
        another worker is exactly :meth:`install_queries`.
        """
        return [
            QueryAssignment(query, pairs, True)
            for query, pairs in self.index.iter_live_postings()
        ]

    def reconcile_queries(
        self,
        removals: Sequence[int] = (),
        pair_removals: Sequence[Tuple[int, Sequence[Tuple[CellCoord, str]]]] = (),
        pair_additions: Sequence[Tuple[STSQuery, Sequence[Tuple[CellCoord, str]]]] = (),
        installs: Sequence[QueryAssignment] = (),
    ) -> int:
        """Apply one worker's whole reconciliation plan in a single call.

        The global adjuster's finalisation (Section V-B) reconciles every
        worker to exactly the ``(cell, posting keyword)`` pairs the new
        strategy assigns it.  Shipping that plan as one bulk message — one
        round trip per worker per round on a remote backend, instead of one
        proxy RPC per query — is the batching this method exists for; the
        operations themselves are the same primitives the per-query path
        used.  ``removals`` drops queries that leave this worker entirely,
        ``pair_removals`` sheds stale pairs of queries staying, and
        ``pair_additions`` adds their missing pairs, and ``installs``
        registers gained queries under exactly their shipped pairs.
        Returns the number of queries touched.
        """
        touched = len(removals) + len(pair_removals) + len(pair_additions)
        if removals:
            self.index.remove_queries(removals)
        for query_id, pairs in pair_removals:
            self.index.remove_pairs(query_id, pairs)
        for query, pairs in pair_additions:
            self.index.add_pairs(query, pairs)
        return touched + self.install_queries(installs)

    def install_queries(self, assignments: Iterable[QueryAssignment]) -> int:
        """Register migrated queries under exactly their shipped pairs.

        Returns how many queries were installed.  A query this worker
        already holds (replicated across cells) gains the shipped pairs on
        top of its existing registration instead of being re-registered
        with its full posting footprint — the Figure 10 memory shape
        survives any number of adjustment rounds.
        """
        installed = 0
        for assignment in assignments:
            self.index.add_pairs(assignment.query, assignment.pairs)
            installed += 1
        return installed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def query_count(self) -> int:
        return self.index.query_count

    def memory_bytes(self) -> int:
        return self.index.memory_bytes()

    def compacted_posting_count(self) -> int:
        """Physical ``(cell, keyword)`` postings once lazy deletions are swept."""
        self.index.compact()
        return self.index.posting_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "WorkerNode(id=%d, queries=%d)" % (self.worker_id, self.query_count)
