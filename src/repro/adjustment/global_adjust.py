"""Global load adjustment (Section V-B).

When the data distribution drifts far enough that local cell migrations can
no longer keep the system efficient, PS2Stream periodically re-runs the
workload-partitioning algorithm on a recent sample.  To avoid a massive
one-shot migration it temporarily runs with *two* workload-distribution
strategies: the old one keeps serving the queries registered before the
repartitioning, the new one serves newly registered queries.  Once the old
population has shrunk (queries are continuously deleted by their owners)
the remaining old queries are migrated and the old strategy is dropped.

:class:`DualRoutingIndex` implements the two-strategy routing; objects
consult both structures (a query may live under either), insertions only
use the new one, and a deletion updates the strategy that placed its
query.  :class:`GlobalAdjuster` decides when a repartitioning is
worthwhile and drives the switch-over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.objects import STSQuery
from ..indexes.grid import CellCoord
from ..indexes.gridt import GridTIndex, WorkerPlan, group_triples
from ..partitioning.base import PartitionPlan, Partitioner, WorkloadSample
from ..runtime.cluster import Cluster
from ..runtime.migration import MigrationRecord
from ..runtime.worker import QueryAssignment

__all__ = ["DualRoutingIndex", "GlobalAdjuster", "RepartitionReport"]


class DualRoutingIndex:
    """Routes with a new strategy while the old one drains.

    The class exposes the routing surface the cluster's two rules call on
    a :class:`~repro.indexes.gridt.GridTIndex` (``route_cell``,
    ``insertion_plan_apply``, ``deletion_plan_apply``, ``grid``,
    ``memory_bytes``), so a drain window runs through the ordinary window
    executor.
    """

    def __init__(self, old_index: GridTIndex, new_index: GridTIndex) -> None:
        self.old_index = old_index
        self.new_index = new_index
        #: The routing counters of the drain: the old index's holder, which
        #: keeps counting each object once in :meth:`route_cell` (the new
        #: index counts into its own until the swap hands it this one).
        self.profile = old_index.profile
        #: Ids of the queries placed through the new strategy; every other
        #: live query is owned by the old one.
        self._new_query_ids: Set[int] = set()

    # -- routing -----------------------------------------------------------
    def route_cell(self, coord: CellCoord, terms: FrozenSet[str]) -> Tuple[int, ...]:
        """Objects must reach queries registered under either strategy."""
        old = self.old_index.route_cell(coord, terms)
        new = self.new_index.route_cell(coord, terms)
        if old and new:
            return tuple(sorted({*old, *new}))
        return old or new

    def insertion_plan_apply(self, query: STSQuery) -> Tuple[WorkerPlan, int]:
        """New queries are placed exclusively by the new strategy."""
        self._new_query_ids.add(query.query_id)
        return self.new_index.insertion_plan_apply(query)

    def deletion_plan_apply(
        self, query: STSQuery, cached: Optional[Tuple[WorkerPlan, int]] = None
    ) -> Tuple[WorkerPlan, int]:
        """Decrement H2 in the strategy that placed the query, and only it.

        H2 counts postings per ``(cell, keyword, worker)``, not per query,
        so decrementing the other strategy too would erase the posting of
        a different live query that shares the triple.  The plan still
        names the other strategy's workers and cells: re-inserting a live
        pre-drain query (streams re-yield their warm-up population)
        registers it under both strategies.  ``cached`` is a
        new-strategy insertion plan, so it only serves a query the new
        strategy owns.
        """
        owner, other = self.old_index, self.new_index
        if query.query_id in self._new_query_ids:
            self._new_query_ids.discard(query.query_id)
            owner, other = other, owner
        else:
            cached = None
        per_worker, cells = owner.deletion_plan_apply(query, cached)
        plan = {worker: list(pairs) for worker, pairs in per_worker.items()}
        for coord, key, worker in other.posting_assignments(query)[0]:
            plan.setdefault(worker, []).append((coord, key))
        return plan, cells

    # -- surface compatibility ----------------------------------------------
    @property
    def grid(self):
        return self.new_index.grid

    @property
    def term_statistics(self):
        return self.new_index.term_statistics

    def cells(self):
        return self.new_index.cells()

    def migrate_cells(self, coords, from_worker: int, to_worker: int) -> None:
        """A migration during a drain must repoint *both* strategies."""
        coords = tuple(coords)
        self.new_index.migrate_cells(coords, from_worker, to_worker)
        self.old_index.migrate_cells(coords, from_worker, to_worker)

    def split_cell_by_text(self, coord, term_assignment, default_worker=None) -> None:
        """A Phase I split during a drain must hit both structures.

        Objects consult both H2 maps (:meth:`route_cell`), so leaving the
        old strategy unsplit would keep routing the split cell's objects to
        the old owner while the worker-side postings moved — old-strategy
        queries in the cell would silently stop matching.
        """
        self.new_index.split_cell_by_text(coord, term_assignment, default_worker)
        self.old_index.split_cell_by_text(coord, term_assignment, default_worker)

    def workers(self) -> Set[int]:
        return self.old_index.workers() | self.new_index.workers()

    def memory_bytes(self) -> int:
        """Both structures are resident while the old one drains."""
        return self.old_index.memory_bytes() + self.new_index.memory_bytes()

    def h2_entry_count(self) -> int:
        return self.old_index.h2_entry_count() + self.new_index.h2_entry_count()


@dataclass
class RepartitionReport:
    """Outcome of a global adjustment decision."""

    checked: bool = False
    repartitioned: bool = False
    estimated_old_load: float = 0.0
    estimated_new_load: float = 0.0
    finalized: bool = False
    queries_migrated: int = 0
    bytes_migrated: int = 0
    migration_seconds: float = 0.0
    records: List[MigrationRecord] = field(default_factory=list)


class GlobalAdjuster:
    """Periodically repartitions the workload on a recent sample."""

    def __init__(
        self,
        partitioner: Partitioner,
        *,
        improvement_threshold: float = 0.1,
    ) -> None:
        """``improvement_threshold`` is the minimum relative reduction of the
        estimated total load that justifies a repartitioning."""
        self.partitioner = partitioner
        self.improvement_threshold = improvement_threshold
        self.pending_plan: Optional[PartitionPlan] = None
        self.history: List[RepartitionReport] = []

    # ------------------------------------------------------------------
    # Decision and switch-over
    # ------------------------------------------------------------------
    def check(self, cluster: Cluster, sample: WorkloadSample) -> RepartitionReport:
        """Evaluate whether a repartitioning pays off; start it if so."""
        report = RepartitionReport(checked=True)
        current_plan = cluster.plan
        new_plan = self.partitioner.partition(sample, cluster.config.num_workers)
        old_report = current_plan.worker_loads(sample)
        new_report = new_plan.worker_loads(sample)
        report.estimated_old_load = old_report.total
        report.estimated_new_load = new_report.total
        improves_total = new_report.total < old_report.total * (1.0 - self.improvement_threshold)
        improves_balance = (
            old_report.imbalance == float("inf")
            or new_report.imbalance < old_report.imbalance * (1.0 - self.improvement_threshold)
        )
        if improves_total or improves_balance:
            self._begin_repartition(cluster, new_plan)
            report.repartitioned = True
        self.history.append(report)
        return report

    def _begin_repartition(self, cluster: Cluster, new_plan: PartitionPlan) -> None:
        """Install the dual routing strategy (old queries keep their homes)."""
        old_index = cluster.routing_index
        new_index = new_plan.to_gridt(cluster.config.granularity)
        cluster.replace_routing_index(DualRoutingIndex(old_index, new_index))
        cluster.plan = new_plan
        self.pending_plan = new_plan

    def finalize(self, cluster: Cluster) -> RepartitionReport:
        """Re-home the surviving queries under the new strategy and drop the old.

        Called once the old query population has become small (the paper
        waits for the natural insert/delete churn to shrink it).  Every
        live query ends up registered under exactly the ``(cell, posting
        keyword)`` pairs the new strategy assigns per worker: stale pairs
        are shed, missing pairs are shipped (only those pairs, never a
        full footprint), and the new index's H2 is rebuilt explicitly from
        the surviving assignments — registration is an explicit step here,
        not a ``route_insertion`` side effect, so H2 reference counts are
        exact whichever strategy originally placed each query.

        Worker traffic is batched per worker, not per query: the snapshot
        (live queries plus their exact registrations) is the checkpoint
        primitive's one broadcast, the reconciliation plan is computed on
        the coordinator, and each worker applies its whole plan through one
        :meth:`~repro.runtime.worker.WorkerNode.reconcile_queries` call —
        at most two messages per worker per round on a remote backend.
        """
        report = RepartitionReport(checked=True)
        routing = cluster.routing_index
        if not isinstance(routing, DualRoutingIndex) or self.pending_plan is None:
            self.history.append(report)
            return report
        new_index = routing.new_index
        # 1. Snapshot every worker in bulk — its live queries and their
        #    exact (cell, posting keyword) registrations — and compute the
        #    new strategy's assignment of every live query once.
        plans: Dict[
            int,
            Tuple[STSQuery, List[Tuple[CellCoord, str, int]], Dict[int, List[Tuple[CellCoord, str]]]],
        ] = {}
        holders: Dict[int, List[int]] = {}
        worker_pairs: Dict[int, Dict[int, Tuple[Tuple[CellCoord, str], ...]]] = {}
        for worker_id, assignments in cluster.transport.snapshot_assignments().items():
            worker_pairs[worker_id] = {a.query.query_id: a.pairs for a in assignments}
            for assignment in assignments:
                query = assignment.query
                holders.setdefault(query.query_id, []).append(worker_id)
                if query.query_id not in plans:
                    triples, _ = new_index.posting_assignments(query)
                    plans[query.query_id] = (query, triples, group_triples(triples))
        # 2. Rebuild the new index's H2 from scratch out of those plans.
        new_index.clear_h2()
        for _, triples, _ in plans.values():
            new_index.apply_insertion(triples)
        # 3. Build one reconciliation plan per worker: every replica ends
        #    at exactly its per-worker pairs, workers gaining a query
        #    receive only those pairs.
        removals: Dict[int, List[int]] = {wid: [] for wid in cluster.workers}
        pair_removals: Dict[int, List[Tuple[int, List[Tuple[CellCoord, str]]]]] = {
            wid: [] for wid in cluster.workers
        }
        pair_additions: Dict[int, List[Tuple[STSQuery, List[Tuple[CellCoord, str]]]]] = {
            wid: [] for wid in cluster.workers
        }
        installs: Dict[int, List[QueryAssignment]] = {wid: [] for wid in cluster.workers}
        shipped_bytes = 0
        shipped_count = 0
        rehomed_queries = 0
        for query_id, (query, _, per_worker) in plans.items():
            holding = holders.get(query_id, [])
            for worker_id in holding:
                expected = per_worker.get(worker_id)
                if expected is None:
                    removals[worker_id].append(query_id)
                    continue
                expected_set = set(expected)
                actual_set = set(worker_pairs[worker_id].get(query_id, ()))
                stale_pairs = actual_set - expected_set
                if stale_pairs:
                    pair_removals[worker_id].append((query_id, sorted(stale_pairs)))
                missing = expected_set - actual_set
                if missing:
                    pair_additions[worker_id].append((query, sorted(missing)))
            holding_set = set(holding)
            gained = False
            for worker_id, pairs in per_worker.items():
                if worker_id in holding_set:
                    continue
                installs[worker_id].append(QueryAssignment(query, tuple(sorted(pairs)), True))
                shipped_bytes += query.size_bytes()
                shipped_count += 1
                gained = True
            if gained:
                rehomed_queries += 1
        # 4. Apply: one bulk message per worker.
        for worker_id in sorted(cluster.workers):
            if (
                removals[worker_id]
                or pair_removals[worker_id]
                or pair_additions[worker_id]
                or installs[worker_id]
            ):
                cluster.workers[worker_id].reconcile_queries(
                    removals[worker_id],
                    pair_removals[worker_id],
                    pair_additions[worker_id],
                    installs[worker_id],
                )
        if shipped_count:
            report.queries_migrated = rehomed_queries
            report.bytes_migrated = shipped_bytes
            report.migration_seconds = cluster.migration_seconds(
                shipped_bytes, shipped_count
            )
        cluster.replace_routing_index(new_index)
        report.finalized = True
        report.repartitioned = True
        self.pending_plan = None
        self.history.append(report)
        return report

    def adjust(
        self, cluster: Cluster, sample: Optional[WorkloadSample] = None
    ) -> RepartitionReport:
        """Closed-loop entry point (one call per window barrier).

        A pending repartition is finalised — the previous period was its
        drain window — otherwise the period's workload sample is checked
        for a beneficial repartitioning.  Without a sample the round is a
        no-op (recorded in the history).
        """
        if self.pending_plan is not None and isinstance(
            cluster.routing_index, DualRoutingIndex
        ):
            return self.finalize(cluster)
        if sample is None or len(sample) == 0:
            report = RepartitionReport()
            self.history.append(report)
            return report
        return self.check(cluster, sample)
