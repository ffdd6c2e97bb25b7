"""Tests for local and global dynamic load adjustment (Section V)."""

import pytest

from repro.adjustment import (
    DualRoutingIndex,
    GlobalAdjuster,
    GreedySelector,
    LocalLoadAdjuster,
    selector_by_name,
)
from repro.core import Point, Rect, STSQuery, SpatioTextualObject, TermStatistics, TupleKind
from repro.indexes.gridt import GridTIndex
from repro.partitioning import (
    HybridPartitioner,
    KDTreeSpacePartitioner,
    MetricTextPartitioner,
)
from repro.runtime import Cluster, ClusterConfig


def build_imbalanced_cluster(stream, num_workers=4):
    """Metric text partitioning on a Q1-style stream produces a hot worker."""
    sample = stream.partitioning_sample(600)
    plan = MetricTextPartitioner().partition(sample, num_workers)
    cluster = Cluster(plan, ClusterConfig(num_dispatchers=2, num_workers=num_workers))
    cluster.run(stream.tuples(800))
    return cluster


class TestLocalAdjuster:
    def test_no_trigger_when_balanced(self, small_stream):
        sample = small_stream.partitioning_sample(500)
        plan = KDTreeSpacePartitioner().partition(sample, 4)
        cluster = Cluster(plan, ClusterConfig(num_dispatchers=2, num_workers=4))
        cluster.run(small_stream.tuples(400))
        adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1000.0)
        report = adjuster.adjust(cluster)
        assert not report.triggered
        assert report.queries_moved == 0
        assert adjuster.history == [report]

    def test_trigger_moves_queries(self, small_stream):
        cluster = build_imbalanced_cluster(small_stream)
        adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.2)
        report = adjuster.adjust(cluster)
        assert report.triggered
        assert report.source_worker != report.target_worker
        assert report.queries_moved + report.phase1_splits > 0
        assert report.selection_time_ms >= 0.0

    def test_migration_cost_accounted(self, small_stream):
        cluster = build_imbalanced_cluster(small_stream)
        adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.2)
        report = adjuster.adjust(cluster)
        if report.queries_moved:
            assert report.bytes_moved > 0
            assert report.migration_seconds > 0
            assert report.migration_cost_mb == pytest.approx(report.bytes_moved / 1e6)

    def test_matching_still_correct_after_adjustment(self, small_stream):
        cluster = build_imbalanced_cluster(small_stream)
        adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.2)
        adjuster.adjust(cluster)
        # Replay more tuples and verify delivered matches equal ground truth
        # for the new tuples' objects against currently live queries.
        live = {query.query_id: query for worker in cluster.workers.values() for query in worker.index.queries()}
        tuples = list(small_stream.tuples(300))
        expected = 0
        for item in tuples:
            if item.kind is TupleKind.INSERT:
                live[item.payload.query_id] = item.payload.query
            elif item.kind is TupleKind.DELETE:
                live.pop(item.payload.query_id, None)
            else:
                expected += sum(1 for query in live.values() if query.matches(item.payload))
        delivered_before = sum(merger.delivered for merger in cluster.mergers)
        cluster.run(tuples)
        delivered_after = sum(merger.delivered for merger in cluster.mergers)
        assert delivered_after - delivered_before == expected

    @pytest.mark.parametrize("selector_name", ["GR", "SI", "RA", "DP"])
    def test_all_selectors_work_in_adjuster(self, small_stream, selector_name):
        cluster = build_imbalanced_cluster(small_stream)
        adjuster = LocalLoadAdjuster(selector_by_name(selector_name), sigma=1.2)
        report = adjuster.adjust(cluster)
        assert report.triggered

    def test_phase1_can_be_disabled(self, small_stream):
        cluster = build_imbalanced_cluster(small_stream)
        adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.2, enable_phase1=False)
        report = adjuster.adjust(cluster)
        assert report.phase1_splits == 0


class TestLoadReportReuse:
    """A round re-reads the load report (an ``Observe`` of every worker)
    only after a phase that moved postings."""

    @staticmethod
    def _spied_round(cluster, adjuster):
        observes = []
        observe = cluster.transport.observe
        cluster.transport.observe = lambda: observes.append(1) or observe()
        try:
            report = adjuster.adjust(cluster)
        finally:
            del cluster.transport.observe
        return report, len(observes)

    def test_untriggered_round_reads_once(self, small_stream):
        cluster = build_imbalanced_cluster(small_stream)
        report, reads = self._spied_round(cluster, LocalLoadAdjuster(sigma=1000.0))
        assert not report.triggered
        assert reads == 1

    @pytest.mark.parametrize("enable_phase1", [True, False])
    def test_migrating_round_reads_once_per_phase_that_moved(self, small_stream, enable_phase1):
        cluster = build_imbalanced_cluster(small_stream)
        adjuster = LocalLoadAdjuster(sigma=1.2, enable_phase1=enable_phase1)
        report, reads = self._spied_round(cluster, adjuster)
        assert report.triggered and report.records
        phase_two_moved = len(report.records) > report.phase1_splits
        assert reads == 1 + bool(report.phase1_splits) + phase_two_moved
        # What a read at the end of the round returns, as before.
        assert report.imbalance_after == cluster.worker_load_report().imbalance


class TestDualRoutingIndex:
    def _index(self, worker, object_filtering=False):
        stats = TermStatistics()
        stats.add_document(["kobe", "music"])
        return GridTIndex.from_assignments(
            Rect(0, 0, 100, 100),
            [(Rect(0, 0, 100, 100), None, worker)],
            granularity=8,
            term_statistics=stats,
            object_filtering=object_filtering,
        )

    CELL = (1, 1)  # the 12.5-wide cell holding Point(15, 15)

    def test_insertions_go_to_new_index_only(self):
        old, new = self._index(0), self._index(1)
        dual = DualRoutingIndex(old, new)
        query = STSQuery.create("kobe", Rect(10, 10, 20, 20))
        per_worker, cells = dual.insertion_plan_apply(query)
        assert set(per_worker) == {1}
        assert cells == 4
        assert old.h2_entry_count() == 0 and new.h2_entry_count() == 4

    def test_objects_consult_both(self):
        old, new = self._index(0, True), self._index(1, True)
        dual = DualRoutingIndex(old, new)
        old.route_insertion(STSQuery.create("kobe", Rect(10, 10, 20, 20)))
        obj = SpatioTextualObject.create("kobe", Point(15, 15))
        assert dual.grid.cell_of(obj.location) == self.CELL
        assert dual.route_cell(self.CELL, obj.terms) == (0,)
        new.route_insertion(STSQuery.create("kobe", Rect(10, 10, 20, 20)))
        assert dual.route_cell(self.CELL, obj.terms) == (0, 1)

    def test_deletion_reaches_the_owning_strategy_only(self):
        """Regression: deleting a pre-drain query must not erase the
        new-strategy posting of a live query sharing (cell, keyword)."""
        old, new = self._index(0, True), self._index(1, True)
        dual = DualRoutingIndex(old, new)
        before = STSQuery.create("kobe", Rect(10, 10, 20, 20))
        during = STSQuery.create("kobe", Rect(10, 10, 20, 20))
        old.route_insertion(before)
        cached = dual.insertion_plan_apply(during)
        terms = SpatioTextualObject.create("kobe", Point(15, 15)).terms
        assert dual.route_cell(self.CELL, terms) == (0, 1)
        # Both strategies' workers (and cells) are named; only the owner's
        # H2 moves.  A cached new-strategy plan must not serve ``before``.
        footprint = [(cell, "kobe") for cell in dual.grid.cells_overlapping(before.region)]
        both = {0: footprint, 1: footprint}
        assert dual.deletion_plan_apply(before, cached) == (both, 4)
        assert dual.route_cell(self.CELL, terms) == (1,)
        assert dual.deletion_plan_apply(during, cached) == (both, 4)
        assert cached == ({1: footprint}, 4), "the cached plan is not mutated"
        assert dual.route_cell(self.CELL, terms) == ()

    def test_memory_counts_both(self):
        old, new = self._index(0), self._index(1)
        dual = DualRoutingIndex(old, new)
        assert dual.memory_bytes() == old.memory_bytes() + new.memory_bytes()


class TestGlobalAdjuster:
    def test_check_repartitions_when_plan_is_poor(self, q3_stream):
        sample = q3_stream.partitioning_sample(600)
        poor_plan = MetricTextPartitioner().partition(sample, 4)
        cluster = Cluster(poor_plan, ClusterConfig(num_dispatchers=2, num_workers=4))
        cluster.run(q3_stream.tuples(300))
        adjuster = GlobalAdjuster(HybridPartitioner(), improvement_threshold=0.05)
        report = adjuster.check(cluster, sample)
        assert report.checked
        assert report.estimated_old_load > 0
        if report.repartitioned:
            assert isinstance(cluster.routing_index, DualRoutingIndex)

    def test_no_repartition_when_plan_already_good(self, q3_stream):
        sample = q3_stream.partitioning_sample(600)
        plan = HybridPartitioner().partition(sample, 4)
        cluster = Cluster(plan, ClusterConfig(num_dispatchers=2, num_workers=4))
        adjuster = GlobalAdjuster(HybridPartitioner(), improvement_threshold=0.05)
        report = adjuster.check(cluster, sample)
        assert report.checked
        assert not report.repartitioned

    def test_finalize_without_pending_is_noop(self, q3_stream):
        sample = q3_stream.partitioning_sample(300)
        plan = KDTreeSpacePartitioner().partition(sample, 4)
        cluster = Cluster(plan, ClusterConfig(num_dispatchers=2, num_workers=4))
        adjuster = GlobalAdjuster(HybridPartitioner())
        report = adjuster.finalize(cluster)
        assert not report.finalized

    def test_full_repartition_cycle_preserves_matching(self, q3_stream):
        sample = q3_stream.partitioning_sample(600)
        poor_plan = MetricTextPartitioner().partition(sample, 4)
        cluster = Cluster(poor_plan, ClusterConfig(num_dispatchers=2, num_workers=4))
        cluster.run(q3_stream.tuples(300))
        adjuster = GlobalAdjuster(HybridPartitioner(), improvement_threshold=0.0)
        check = adjuster.check(cluster, sample)
        if not check.repartitioned:
            pytest.skip("repartitioning not deemed beneficial on this sample")
        cluster.run(q3_stream.tuples(200))
        final = adjuster.finalize(cluster)
        assert final.finalized
        assert not isinstance(cluster.routing_index, DualRoutingIndex)
        # Matching still works end-to-end after the swap.
        live = {q.query_id: q for w in cluster.workers.values() for q in w.index.queries()}
        tuples = list(q3_stream.tuples(200))
        expected = 0
        for item in tuples:
            if item.kind is TupleKind.INSERT:
                live[item.payload.query_id] = item.payload.query
            elif item.kind is TupleKind.DELETE:
                live.pop(item.payload.query_id, None)
            else:
                expected += sum(1 for q in live.values() if q.matches(item.payload))
        before = sum(m.delivered for m in cluster.mergers)
        cluster.run(tuples)
        after = sum(m.delivered for m in cluster.mergers)
        assert after - before == expected
