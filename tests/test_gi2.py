"""Unit tests for the GI2 worker index (Section IV-D)."""

import pytest

from repro.core import Point, Rect, STSQuery, SpatioTextualObject, TermStatistics
from repro.indexes.gi2 import GI2Index


BOUNDS = Rect(0, 0, 100, 100)


def make_query(expression, rect, **kwargs):
    return STSQuery.create(expression, rect, **kwargs)


def make_object(text, x, y):
    return SpatioTextualObject.create(text, Point(x, y))


@pytest.fixture
def stats():
    statistics = TermStatistics()
    statistics.add_document(["kobe"] * 20 + ["retired"] * 5 + ["lebron"] * 10 + ["storm"] * 2)
    return statistics


@pytest.fixture
def index(stats):
    return GI2Index(BOUNDS, granularity=16, term_statistics=stats)


class TestInsertAndMatch:
    def test_simple_match(self, index):
        query = make_query("kobe AND retired", Rect(0, 0, 50, 50))
        index.insert(query)
        outcome = index.match(make_object("kobe retired today", 10, 10))
        assert outcome.query_ids == (query.query_id,)
        assert outcome.checks >= 1

    def test_no_match_outside_region(self, index):
        query = make_query("kobe", Rect(0, 0, 20, 20))
        index.insert(query)
        outcome = index.match(make_object("kobe", 80, 80))
        assert outcome.query_ids == ()

    def test_no_match_missing_keyword(self, index):
        query = make_query("kobe AND retired", Rect(0, 0, 100, 100))
        index.insert(query)
        outcome = index.match(make_object("kobe dunks", 10, 10))
        assert outcome.query_ids == ()

    def test_or_query_matches_either_branch(self, index):
        query = make_query("kobe OR storm", Rect(0, 0, 100, 100))
        index.insert(query)
        assert index.match(make_object("storm warning", 5, 5)).query_ids == (query.query_id,)
        assert index.match(make_object("kobe scores", 5, 5)).query_ids == (query.query_id,)

    def test_multiple_matching_queries(self, index):
        q1 = make_query("kobe", Rect(0, 0, 100, 100))
        q2 = make_query("kobe AND retired", Rect(0, 0, 100, 100))
        q3 = make_query("lebron", Rect(0, 0, 100, 100))
        for query in (q1, q2, q3):
            index.insert(query)
        outcome = index.match(make_object("kobe retired", 50, 50))
        assert set(outcome.query_ids) == {q1.query_id, q2.query_id}

    def test_duplicate_insert_is_idempotent(self, index):
        query = make_query("kobe", Rect(0, 0, 100, 100))
        index.insert(query)
        created = index.insert(query)
        assert created == 0
        assert index.query_count == 1

    def test_query_spanning_multiple_cells_matches_everywhere(self, index):
        query = make_query("kobe", Rect(0, 0, 100, 100))
        index.insert(query)
        for x, y in [(1, 1), (50, 50), (99, 99), (1, 99)]:
            assert index.match(make_object("kobe", x, y)).query_ids == (query.query_id,)

    def test_match_never_returns_false_positive(self, index):
        queries = [
            make_query("kobe AND retired", Rect(0, 0, 30, 30)),
            make_query("storm", Rect(40, 40, 80, 80)),
            make_query("lebron OR kobe", Rect(20, 60, 90, 95)),
        ]
        for query in queries:
            index.insert(query)
        by_id = {query.query_id: query for query in queries}
        probes = [
            make_object("kobe retired lebron", 25, 25),
            make_object("storm flood", 45, 45),
            make_object("lebron highlight", 50, 70),
            make_object("nothing relevant", 10, 10),
        ]
        for obj in probes:
            for query_id in index.match(obj).query_ids:
                assert by_id[query_id].matches(obj)


class TestDeletion:
    def test_lazy_delete_hides_query(self, index):
        query = make_query("kobe", Rect(0, 0, 100, 100))
        index.insert(query)
        assert index.delete(query.query_id)
        assert index.match(make_object("kobe", 5, 5)).query_ids == ()
        assert query.query_id not in index

    def test_delete_unknown_query_returns_false(self, index):
        assert not index.delete(424242)

    def test_double_delete_returns_false(self, index):
        query = make_query("kobe", Rect(0, 0, 100, 100))
        index.insert(query)
        assert index.delete(query.query_id)
        assert not index.delete(query.query_id)

    def test_matching_purges_lazy_deletions(self, index):
        query = make_query("kobe", Rect(0, 0, 10, 10))
        index.insert(query)
        index.delete(query.query_id)
        postings_before = index.posting_count
        index.match(make_object("kobe", 5, 5))
        assert index.posting_count < postings_before

    def test_compact_removes_pending(self, index):
        queries = [make_query("kobe", Rect(0, 0, 100, 100)) for _ in range(5)]
        for query in queries:
            index.insert(query)
        for query in queries[:3]:
            index.delete(query.query_id)
        removed = index.compact()
        assert removed == 3
        assert index.query_count == 2
        assert index.pending_deletion_count == 0

    def test_reinsert_after_delete(self, index):
        query = make_query("kobe", Rect(0, 0, 100, 100))
        index.insert(query)
        index.delete(query.query_id)
        index.insert(query)
        assert index.match(make_object("kobe", 5, 5)).query_ids == (query.query_id,)


    def test_reinsert_while_deletion_pending_registers_once(self, stats):
        """Regression: the lazily deleted copy's postings must not survive
        beside the new registration (duplicate candidates, inflated memory)."""
        query = make_query("kobe", Rect(0, 0, 5, 5))
        probe = make_object("kobe", 1, 1)
        fresh = GI2Index(BOUNDS, granularity=16, term_statistics=stats)
        fresh.insert(query)
        reinserted = GI2Index(BOUNDS, granularity=16, term_statistics=stats)
        reinserted.insert(query)
        reinserted.delete(query.query_id)
        reinserted.insert(query)
        assert reinserted.posting_count == fresh.posting_count
        assert reinserted.memory_bytes() == fresh.memory_bytes()
        assert reinserted.match(probe) == fresh.match(probe)
        assert fresh.match(probe).checks == 1

    def test_reinsert_under_different_pairs_drops_the_old_ones(self, index):
        """Regression: a query re-inserted under other pairs while its
        deletion is pending must stop matching in the cells it left."""
        query = make_query("kobe", Rect(0, 0, 20, 5))
        index.insert_pairs(query, [((0, 0), "kobe"), ((1, 0), "kobe")])
        index.delete(query.query_id)
        index.insert_pairs(query, [((2, 0), "kobe")])
        assert index.posting_pairs_of_query(query.query_id) == [((2, 0), "kobe")]
        assert index.match(make_object("kobe", 1, 1)).query_ids == ()  # cell (0, 0)
        assert index.match(make_object("kobe", 14, 1)).query_ids == (query.query_id,)
        assert index.remove_pairs(query.query_id, [((2, 0), "kobe")])
        assert index.posting_count == 0


class TestStatsAndMigration:
    def test_query_count_excludes_pending(self, index):
        queries = [make_query("kobe", Rect(0, 0, 100, 100)) for _ in range(4)]
        for query in queries:
            index.insert(query)
        index.delete(queries[0].query_id)
        assert index.query_count == 3

    def test_cell_stats_track_objects_and_queries(self, index):
        query = make_query("kobe", Rect(0, 0, 6, 6))
        index.insert(query)
        for _ in range(3):
            index.match(make_object("kobe", 1, 1))
        stats = index.cell_stats()
        assert stats, "expected at least one populated cell"
        hot = max(stats, key=lambda cell: cell.load)
        assert hot.object_count == 3
        assert hot.query_count >= 1
        assert hot.load == hot.object_count * hot.query_count
        assert hot.size_bytes > 0

    def test_reset_object_counts(self, index):
        query = make_query("kobe", Rect(0, 0, 6, 6))
        index.insert(query)
        index.match(make_object("kobe", 1, 1))
        index.reset_object_counts()
        stats = index.cell_stats()
        assert all(cell.object_count == 0 for cell in stats)

    def test_cells_of_query(self, index):
        query = make_query("kobe", Rect(0, 0, 20, 20))
        index.insert(query)
        cells = index.cells_of_query(query.query_id)
        assert cells
        assert index.cells_of_query(999999) == set()

    def test_queries_in_cell_and_remove(self, index):
        query = make_query("kobe", Rect(0, 0, 5, 5))
        other = make_query("storm", Rect(60, 60, 70, 70))
        index.insert(query)
        index.insert(other)
        cell = next(iter(index.cells_of_query(query.query_id)))
        resident = index.queries_in_cell(cell)
        assert query in resident
        assert other not in resident
        removed = index.remove_queries([query.query_id])
        assert removed == [query]
        assert index.match(make_object("kobe", 2, 2)).query_ids == ()
        # The other query is untouched.
        assert index.match(make_object("storm", 65, 65)).query_ids == (other.query_id,)

    def test_memory_grows_with_queries(self, index):
        empty = index.memory_bytes()
        for offset in range(30):
            index.insert(make_query("kobe AND retired", Rect(offset, offset, offset + 5, offset + 5)))
        assert index.memory_bytes() > empty

    def test_queries_listing(self, index):
        query = make_query("kobe", Rect(0, 0, 5, 5))
        index.insert(query)
        assert index.queries() == [query]
        assert index.get_query(query.query_id) == query
        index.delete(query.query_id)
        assert index.queries() == []
        assert index.get_query(query.query_id) is None
