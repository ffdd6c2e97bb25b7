"""Unit tests for the worker, dispatcher and merger process models."""

from collections import Counter

import pytest

from repro.core import (
    Point,
    Rect,
    STSQuery,
    SpatioTextualObject,
    StreamTuple,
    TermStatistics,
)
from repro.core.objects import MatchResult
from repro.partitioning.base import PartitionPlan, PartitionUnit
from repro.runtime import Cluster, ClusterConfig, DispatcherLedger, MergerNode, WorkerNode
from repro.runtime.merge import MemorySink


BOUNDS = Rect(0, 0, 100, 100)


@pytest.fixture
def worker():
    return WorkerNode(0, BOUNDS, granularity=16)


class TestWorkerNode:
    def test_insertion_and_match(self, worker):
        query = STSQuery.create("kobe", Rect(0, 0, 50, 50))
        worker.handle_insertion(query)
        results = worker.handle_object(SpatioTextualObject.create("kobe scores", Point(10, 10)))
        assert [result.query_id for result in results] == [query.query_id]
        assert results[0].worker_id == 0

    def test_deletion_stops_matching(self, worker):
        query = STSQuery.create("kobe", Rect(0, 0, 50, 50))
        worker.handle_insertion(query)
        worker.handle_deletion(query.query_id)
        assert worker.handle_object(SpatioTextualObject.create("kobe", Point(10, 10))) == []

    def test_counters_and_load(self, worker):
        query = STSQuery.create("kobe", Rect(0, 0, 50, 50))
        worker.handle_insertion(query)
        worker.handle_object(SpatioTextualObject.create("kobe", Point(10, 10)))
        assert worker.counters.insertions == 1
        assert worker.counters.objects == 1
        assert worker.load() > 0
        assert worker.busy_cost > 0

    def test_reset_period(self, worker):
        worker.handle_insertion(STSQuery.create("kobe", Rect(0, 0, 5, 5)))
        worker.reset_period()
        assert worker.load() == 0.0
        assert worker.busy_cost == 0.0
        # The query itself is still registered.
        assert worker.query_count == 1

    def test_match_results_carry_subscriber(self, worker):
        query = STSQuery.create("kobe", Rect(0, 0, 50, 50), subscriber_id=77)
        worker.handle_insertion(query)
        results = worker.handle_object(SpatioTextualObject.create("kobe", Point(1, 1)))
        assert results[0].subscriber_id == 77

    def test_extract_and_install_cells(self, worker):
        query = STSQuery.create("kobe", Rect(0, 0, 5, 5))
        worker.handle_insertion(query)
        cells = worker.index.cells_of_query(query.query_id)
        pairs_before = sorted(worker.index.posting_pairs_of_query(query.query_id))
        moved = worker.extract_cells(cells)
        assert [assignment.query for assignment in moved] == [query]
        assert all(assignment.moved for assignment in moved)
        assert sorted(moved[0].pairs) == pairs_before
        assert worker.query_count == 0
        other = WorkerNode(1, BOUNDS, granularity=16)
        assert other.install_queries(moved) == 1
        assert sorted(other.index.posting_pairs_of_query(query.query_id)) == pairs_before
        assert other.handle_object(SpatioTextualObject.create("kobe", Point(1, 1)))

    def test_partial_extract_keeps_remainder(self, worker):
        """A query spanning kept and migrated cells ships only the migrated pairs."""
        query = STSQuery.create("kobe", Rect(0, 0, 40, 5))
        worker.handle_insertion(query)
        cells = sorted(worker.index.cells_of_query(query.query_id))
        assert len(cells) > 1
        migrated = cells[: len(cells) // 2]
        moved = worker.extract_cells(migrated)
        assert len(moved) == 1
        assignment = moved[0]
        assert not assignment.moved
        assert {coord for coord, _ in assignment.pairs} == set(migrated)
        # The source keeps exactly the pairs of the cells that stayed.
        remaining = worker.index.posting_pairs_of_query(query.query_id)
        assert {coord for coord, _ in remaining} == set(cells) - set(migrated)
        assert worker.query_count == 1

    def test_memory_reflects_queries(self, worker):
        empty = worker.memory_bytes()
        for offset in range(20):
            worker.handle_insertion(
                STSQuery.create("kobe AND retired", Rect(offset, 0, offset + 3, 3))
            )
        assert worker.memory_bytes() > empty


class TestDispatcherNode:
    """The Definition-1 ledger, alone and behind ``Cluster.process``."""

    def _cluster(self):
        stats = TermStatistics()
        stats.add_document(["kobe", "kobe", "music"])
        plan = PartitionPlan(
            units=[
                PartitionUnit(Rect(0, 0, 50, 100), None, 0),
                PartitionUnit(Rect(50, 0, 100, 100), None, 1),
            ],
            num_workers=2,
            bounds=BOUNDS,
            statistics=stats,
        )
        return Cluster(
            plan, ClusterConfig(num_dispatchers=1, num_workers=2, granularity=10)
        )

    def test_routes_objects_by_cell(self):
        cluster = self._cluster()
        handled = cluster.process(
            StreamTuple.object(SpatioTextualObject.create("kobe", Point(10, 10)))
        )
        assert handled == {0}
        (inline,) = cluster.profile_report().routers
        assert inline.cells_probed == 1

    def test_routes_insertions_and_updates_h2(self):
        cluster = self._cluster()
        query = STSQuery.create("kobe", Rect(60, 10, 70, 20))
        assert cluster.process(StreamTuple.insert(query)) == {1}
        assert cluster.routing_index.h2_entry_count() > 0

    def test_routes_deletions(self):
        cluster = self._cluster()
        query = STSQuery.create("kobe", Rect(60, 10, 70, 20))
        cluster.process(StreamTuple.insert(query))
        assert cluster.process(StreamTuple.delete(query)) == {1}
        assert cluster.routing_index.h2_entry_count() == 0

    def test_busy_cost_accumulates(self):
        cluster = self._cluster()
        for x in (10, 60):
            cluster.process(StreamTuple.object(SpatioTextualObject.create("kobe", Point(x, 10))))
        per_object = DispatcherLedger.TUPLE_COST + DispatcherLedger.PROBE_COST
        assert cluster.dispatchers[0].busy_cost == pytest.approx(2 * per_object)

    def test_reset_period(self):
        ledger = DispatcherLedger(0)
        ledger.busy_cost += 0.5
        ledger.reset_period()
        assert ledger.busy_cost == 0.0


class TestMergerNode:
    def test_deduplicates_matches(self):
        merger = MergerNode(0)
        result = MatchResult(query_id=1, object_id=2, subscriber_id=3)
        duplicate = MatchResult(query_id=1, object_id=2, subscriber_id=3, worker_id=5)
        assert merger.handle(result)
        assert not merger.handle(duplicate)
        assert merger.delivered == 1
        assert merger.duplicates == 1
        assert merger.received == 2

    def test_different_pairs_both_delivered(self):
        merger = MergerNode(0)
        assert merger.handle(MatchResult(1, 2))
        assert merger.handle(MatchResult(1, 3))
        assert merger.handle(MatchResult(2, 2))
        assert merger.delivered == 3

    def test_handle_many(self):
        merger = MergerNode(0)
        results = [MatchResult(1, i) for i in range(5)] + [MatchResult(1, 0)]
        assert merger.handle_many(results) == 5

    def test_deliveries_per_subscriber(self):
        """Per-subscriber notifications are counted off a memory sink."""
        sink = MemorySink()
        merger = MergerNode(0, sink=sink)
        merger.handle(MatchResult(1, 1, subscriber_id=9))
        merger.handle(MatchResult(2, 1, subscriber_id=9))
        merger.handle(MatchResult(2, 1, subscriber_id=9))  # a duplicate: not delivered
        per_subscriber = Counter(result.subscriber_id for result in sink.drain())
        assert per_subscriber[9] == 2
        assert per_subscriber[1] == 0

    def test_dedup_window_bounded(self, monkeypatch):
        monkeypatch.setattr(MergerNode, "DEDUP_WINDOW", 10)
        merger = MergerNode(0)
        for index in range(50):
            merger.handle(MatchResult(1, index))
        assert merger.memory_bytes() <= 48 * 10

    def test_reset_period(self):
        merger = MergerNode(0)
        merger.handle(MatchResult(1, 1))
        merger.reset_period()
        assert merger.delivered == 0
        assert merger.busy_cost == 0.0
