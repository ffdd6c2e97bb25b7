"""Local load adjustment (Section V-A).

When the dispatcher detects that the load-balance constraint is violated,
it tells the most loaded worker ``w_o`` to hand part of its workload to the
least loaded worker ``w_l``.  The adjustment has two phases:

* **Phase I** inspects the ``p`` most loaded cells of ``w_o``.  A hot cell
  that is not yet text-partitioned is split by text between ``w_o`` and
  ``w_l`` when doing so reduces the total load; a hot cell that is already
  text-partitioned is merged onto ``w_l`` when the merge reduces load.
* **Phase II** solves the Minimum Cost Migration problem: it selects a set
  of cells of ``w_o`` whose combined load reaches the deficit ``tau`` while
  minimising the bytes shipped, using one of the selectors in
  :mod:`repro.adjustment.migration`, and migrates them to ``w_l``.

The adjuster operates directly on a :class:`~repro.runtime.cluster.Cluster`
and reports the migration cost, the migration time and the pure
cell-selection time — the three quantities Figures 12, 13 and 14 plot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.costmodel import LoadReport
from ..indexes.gi2 import CellStats
from ..indexes.grid import CellCoord
from ..runtime.cluster import Cluster
from ..runtime.migration import MigrationRecord
from ..runtime.protocol import mutates_routing
from .migration import GreedySelector, MigrationSelector

__all__ = ["LocalLoadAdjuster", "AdjustmentReport"]


@dataclass
class AdjustmentReport:
    """Outcome of one load-adjustment round."""

    triggered: bool = False
    source_worker: Optional[int] = None
    target_worker: Optional[int] = None
    imbalance_before: float = 1.0
    imbalance_after: float = 1.0
    #: Wall-clock time spent selecting the cells to migrate (milliseconds) —
    #: the quantity of Figures 12(a) and 13.
    selection_time_ms: float = 0.0
    #: Queries and bytes shipped, and the simulated migration time —
    #: Figures 12(b) and 14.
    queries_moved: int = 0
    bytes_moved: int = 0
    migration_seconds: float = 0.0
    cells_moved: int = 0
    phase1_splits: int = 0
    records: List[MigrationRecord] = field(default_factory=list)
    #: Routing-structure bytes per dispatcher at the round's fence
    #: (Figure 9): the analytic estimate under inline dispatch, the
    #: *measured* per-shard replica footprint under sharded dispatch.
    dispatcher_memory_bytes: Dict[int, int] = field(default_factory=dict)
    #: Merger-tier snapshot at the round's fence (merged sorted by merger
    #: id): per-shard busy cost and cumulative delivered counts — fenced
    #: through the shard inboxes, so identical whichever backend hosts
    #: the mergers (fig 8 / 15 delivery-path accounting).
    merger_busy: Dict[int, float] = field(default_factory=dict)
    merger_delivered: Dict[int, int] = field(default_factory=dict)

    @property
    def migration_cost_mb(self) -> float:
        return self.bytes_moved / 1e6


class LocalLoadAdjuster:
    """Implements the local adjustment protocol of Section V-A."""

    def __init__(
        self,
        selector: Optional[MigrationSelector] = None,
        *,
        sigma: float = 2.0,
        hot_cells: int = 5,
        enable_phase1: bool = True,
    ) -> None:
        """``sigma`` is the balance constraint, ``hot_cells`` the paper's ``p``."""
        self.selector = selector if selector is not None else GreedySelector()
        self.sigma = sigma
        self.hot_cells = hot_cells
        self.enable_phase1 = enable_phase1
        self.history: List[AdjustmentReport] = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def adjust(self, cluster: Cluster) -> AdjustmentReport:
        """Run one adjustment round on ``cluster`` and record the outcome."""
        report = AdjustmentReport()
        # Recorded at the round's fence, before any migration mutates H1:
        # sharded dispatch replicas are still in sync here, so the
        # measured per-shard values equal the analytic estimate.
        report.dispatcher_memory_bytes = cluster.dispatcher_memory_report()
        merger_stats = cluster.merger_stats()
        report.merger_busy = {m: s.busy_cost for m, s in merger_stats.items()}
        report.merger_delivered = {m: s.delivered for m, s in merger_stats.items()}
        loads = cluster.worker_load_report()
        report.imbalance_before = loads.imbalance
        report.imbalance_after = loads.imbalance
        if not self._violated(loads):
            self.history.append(report)
            return report
        source = loads.most_loaded()
        target = loads.least_loaded()
        if source is None or target is None or source == target:
            self.history.append(report)
            return report
        report.triggered = True
        report.source_worker = source
        report.target_worker = target

        # Definition-3 cell statistics of the overloaded worker, shared by
        # both phases, and the load report (an ``Observe`` of every worker):
        # each is read again only after a phase actually moved postings.
        stats = sorted(cluster.worker_cell_stats(source), key=lambda s: -s.load)
        if self.enable_phase1:
            report.phase1_splits = self._phase_one(cluster, source, target, report, stats)
            if report.phase1_splits:
                stats = sorted(cluster.worker_cell_stats(source), key=lambda s: -s.load)
                loads = cluster.worker_load_report()

        if self._violated(loads):
            shipped = len(report.records)
            self._phase_two(cluster, source, target, loads, report, stats)
            if len(report.records) > shipped:
                loads = cluster.worker_load_report()

        report.imbalance_after = loads.imbalance
        self.history.append(report)
        return report

    def _violated(self, loads: LoadReport) -> bool:
        return loads.imbalance > self.sigma

    # ------------------------------------------------------------------
    # Phase I: split or merge hot cells
    # ------------------------------------------------------------------
    @mutates_routing
    def _phase_one(
        self,
        cluster: Cluster,
        source: int,
        target: int,
        report: AdjustmentReport,
        stats: List[CellStats],
    ) -> int:
        """Split the hottest cells of the source worker by text.

        For each of the ``p`` most loaded cells that is not yet
        text-partitioned, half of the cell's query load (grouped by posting
        keyword) is reassigned to the target worker when this lowers the
        source's load without inflating the total.  The shipped queries are
        accounted in the report exactly like Phase II records — Phase I
        traffic crosses the same network.  ``stats`` is the source worker's
        cell statistics, sorted by descending load.  Returns the number of
        cells split.
        """
        splits = 0
        for cell_stat in stats[: self.hot_cells]:
            cell = cluster.routing_index.cells().get(cell_stat.cell)
            if cell is None or cell.term_workers is not None:
                continue
            if cell_stat.query_count < 2 or cell_stat.load <= 0:
                continue
            assignment = self._split_cell_terms(cluster, source, target, cell_stat.cell)
            if not assignment:
                continue
            cluster.routing_index.split_cell_by_text(
                cell_stat.cell, assignment, default_worker=source
            )
            # The split changes H1, so routing decisions cached by the
            # batched engine are no longer valid.
            cluster.invalidate_routing_caches()
            moved_keywords = [
                keyword for keyword, owner in assignment.items() if owner == target
            ]
            record = cluster.migrate_keywords(
                source, target, cell_stat.cell, moved_keywords
            )
            if record is None:
                continue
            splits += 1
            report.records.append(record)
            report.queries_moved += record.queries_shipped
            report.bytes_moved += record.bytes_moved
            report.migration_seconds += record.seconds
        return splits

    def _split_cell_terms(
        self,
        cluster: Cluster,
        source: int,
        target: int,
        cell: CellCoord,
    ) -> Dict[str, int]:
        """Partition the posting keywords of a cell between the two workers.

        Keywords are weighted by the number of postings actually registered
        under them in the cell (the worker's live ``(cell, keyword)``
        assignment, so the split decision and the shipped postings always
        agree) and split so the target receives roughly half of the query
        load (the lighter half, to keep the migration small).
        """
        # One small per-keyword count from the worker (one round trip on a
        # remote backend); it is empty for a cell with fewer than two queries.
        keyword_load = cluster.workers[source].cell_keyword_counts(cell)
        if len(keyword_load) < 2:
            return {}
        assignment: Dict[str, int] = {}
        total = sum(keyword_load.values())
        moved = 0
        # Move the lightest keywords first until ~half the load is reassigned.
        for keyword, load in sorted(keyword_load.items(), key=lambda item: item[1]):
            if moved + load <= total / 2:
                assignment[keyword] = target
                moved += load
            else:
                assignment[keyword] = source
        if all(owner == source for owner in assignment.values()):
            return {}
        return assignment

    # ------------------------------------------------------------------
    # Phase II: Minimum Cost Migration
    # ------------------------------------------------------------------
    def _phase_two(
        self,
        cluster: Cluster,
        source: int,
        target: int,
        loads: LoadReport,
        report: AdjustmentReport,
        stats: List[CellStats],
    ) -> None:
        if not stats:
            return
        source_load = loads.worker_loads.get(source, 0.0)
        target_load = loads.worker_loads.get(target, 0.0)
        tau_fraction = (source_load - target_load) / 2.0
        total_cell_load = sum(cell.load for cell in stats) or 1.0
        # Cell loads (Definition 3) and worker loads (Definition 1) use
        # different units; the deficit is translated proportionally.
        tau = total_cell_load * min(1.0, tau_fraction / max(source_load, 1e-9))
        start = time.perf_counter()
        selected = self.selector.select(stats, tau)
        report.selection_time_ms = (time.perf_counter() - start) * 1000.0
        if not selected:
            return
        record = cluster.migrate_cells(source, target, [cell.cell for cell in selected])
        report.records.append(record)
        # The adjustment report tracks network shipments: copied queries
        # cross the wire exactly like moved ones (paper migration cost).
        report.queries_moved += record.queries_shipped
        report.bytes_moved += record.bytes_moved
        report.migration_seconds += record.seconds
        report.cells_moved += len(selected)
