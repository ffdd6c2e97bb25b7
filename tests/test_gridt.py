"""Unit tests for the gridt dispatcher routing index (Section IV-C)."""

import pytest

from repro.core import Point, Rect, STSQuery, SpatioTextualObject, TermStatistics
from repro.indexes.gridt import GridTIndex
from repro.indexes.kdt_tree import KdtTree


BOUNDS = Rect(0, 0, 100, 100)


@pytest.fixture
def stats():
    statistics = TermStatistics()
    statistics.add_document(["kobe"] * 10 + ["retired"] * 2 + ["music"] * 8 + ["jazz"])
    return statistics


def make_index(stats, object_filtering=False):
    """Left half space-partitioned to worker 0; right half text-partitioned."""
    return GridTIndex.from_assignments(
        BOUNDS,
        [
            (Rect(0, 0, 50, 100), None, 0),
            (Rect(50, 0, 100, 100), {"kobe": 1, "retired": 1, "music": 2, "jazz": 2}, 1),
        ],
        granularity=10,
        term_statistics=stats,
        object_filtering=object_filtering,
    )


class TestConstruction:
    def test_cells_created_for_covered_area(self, stats):
        index = make_index(stats)
        assert len(index.cells()) == index.grid.cell_count

    def test_workers(self, stats):
        index = make_index(stats)
        assert index.workers() == {0, 1, 2}

    def test_shared_term_maps_counted_once(self, stats):
        shared = GridTIndex.from_assignments(
            BOUNDS,
            [(BOUNDS, {"t%d" % i: i % 4 for i in range(500)}, 0)],
            granularity=16,
            term_statistics=stats,
        )
        # Memory should reflect one copy of the 500-term map, not 256 copies.
        assert shared.memory_bytes() < 100_000

    def test_from_kdt_tree_equivalent_object_routing(self, stats):
        tree = KdtTree.from_leaves(
            BOUNDS,
            [
                (Rect(0, 0, 50, 100), None, 0),
                (Rect(50, 0, 100, 100), {"kobe": 1, "music": 2}, 1),
            ],
            stats,
        )
        index = GridTIndex.from_kdt_tree(tree, granularity=10, term_statistics=stats)
        assert index.object_filtering is True
        query = STSQuery.create("kobe", Rect(60, 10, 70, 20))
        index.route_insertion(query)
        obj = SpatioTextualObject.create("kobe", Point(65, 15))
        assert index.route_object(obj) == {1}


class TestQueryRouting:
    def test_insertion_in_space_region(self, stats):
        index = make_index(stats)
        query = STSQuery.create("anything", Rect(5, 5, 15, 15))
        assert index.route_insertion(query) == {0}

    def test_insertion_in_text_region_uses_posting_keyword(self, stats):
        index = make_index(stats)
        query = STSQuery.create("kobe AND retired", Rect(60, 10, 70, 20))
        assert index.route_insertion(query) == {1}

    def test_insertion_spanning_both_regions(self, stats):
        index = make_index(stats)
        query = STSQuery.create("music", Rect(45, 45, 55, 55))
        assert index.route_insertion(query) == {0, 2}

    def test_deletion_routes_to_same_workers_as_insertion(self, stats):
        index = make_index(stats)
        queries = [
            STSQuery.create("kobe AND retired", Rect(60, 10, 70, 20)),
            STSQuery.create("music OR jazz", Rect(52, 52, 90, 90)),
            STSQuery.create("whatever", Rect(5, 5, 15, 15)),
        ]
        for query in queries:
            inserted_to = index.route_insertion(query)
            deleted_to = index.route_deletion(query)
            assert inserted_to == deleted_to

    def test_deletion_clears_h2(self, stats):
        index = make_index(stats)
        query = STSQuery.create("kobe", Rect(60, 10, 70, 20))
        index.route_insertion(query)
        assert index.h2_entry_count() > 0
        index.route_deletion(query)
        assert index.h2_entry_count() == 0

    def test_h2_refcount_multiple_queries(self, stats):
        index = make_index(stats)
        q1 = STSQuery.create("kobe", Rect(60, 10, 62, 12))
        q2 = STSQuery.create("kobe", Rect(60, 10, 62, 12))
        index.route_insertion(q1)
        index.route_insertion(q2)
        index.route_deletion(q1)
        # q2 is still registered, so objects must still route.
        obj = SpatioTextualObject.create("kobe", Point(61, 11))
        assert index.route_object(obj) == {1}

    def test_insertion_outside_known_region_uses_fallback(self, stats):
        index = GridTIndex.from_assignments(
            BOUNDS,
            [(Rect(0, 0, 50, 100), None, 0)],
            granularity=10,
            term_statistics=stats,
        )
        query = STSQuery.create("kobe", Rect(80, 80, 90, 90))
        workers = index.route_insertion(query)
        assert workers == {0}


class TestObjectRouting:
    def test_space_cell_without_filtering_forwards_everything(self, stats):
        index = make_index(stats, object_filtering=False)
        obj = SpatioTextualObject.create("unrelated words", Point(10, 10))
        assert index.route_object(obj) == {0}

    def test_space_cell_with_filtering_discards_unmatched(self, stats):
        index = make_index(stats, object_filtering=True)
        obj = SpatioTextualObject.create("unrelated words", Point(10, 10))
        assert index.route_object(obj) == set()

    def test_space_cell_with_filtering_routes_matching(self, stats):
        index = make_index(stats, object_filtering=True)
        query = STSQuery.create("storm", Rect(5, 5, 15, 15))
        index.route_insertion(query)
        obj = SpatioTextualObject.create("storm coming", Point(10, 10))
        assert index.route_object(obj) == {0}

    def test_text_cell_routes_by_registered_queries(self, stats):
        index = make_index(stats)
        query = STSQuery.create("kobe", Rect(60, 10, 70, 20))
        index.route_insertion(query)
        matching = SpatioTextualObject.create("kobe scores", Point(65, 15))
        non_matching = SpatioTextualObject.create("weather report", Point(65, 15))
        assert index.route_object(matching) == {1}
        assert index.route_object(non_matching) == set()

    def test_object_outside_any_cell_assignment(self, stats):
        index = GridTIndex(BOUNDS, granularity=10, term_statistics=stats)
        obj = SpatioTextualObject.create("kobe", Point(50, 50))
        assert index.route_object(obj) == set()

    def test_routing_completeness(self, stats):
        """Every matching object reaches a worker holding the query."""
        index = make_index(stats)
        queries = [
            STSQuery.create("kobe AND retired", Rect(55, 5, 95, 95)),
            STSQuery.create("music OR jazz", Rect(55, 5, 95, 95)),
            STSQuery.create("kobe", Rect(5, 5, 45, 95)),
        ]
        placements = {query.query_id: index.route_insertion(query) for query in queries}
        objects = [
            SpatioTextualObject.create("kobe retired today", Point(70, 50)),
            SpatioTextualObject.create("jazz music night", Point(70, 50)),
            SpatioTextualObject.create("kobe highlight", Point(20, 50)),
        ]
        for query in queries:
            for obj in objects:
                if query.matches(obj):
                    assert index.route_object(obj) & placements[query.query_id]


class TestDynamicAdjustmentHooks:
    def test_migrate_cells_repoints_routing(self, stats):
        index = make_index(stats)
        query = STSQuery.create("whatever", Rect(5, 5, 8, 8))
        index.route_insertion(query)
        cell = index.cell_for_point(Point(6, 6))
        index.migrate_cells([cell], 0, 7)
        obj = SpatioTextualObject.create("whatever", Point(6, 6))
        assert index.route_object(obj) == {7}

    def test_split_cell_by_text(self, stats):
        index = make_index(stats)
        q_kobe = STSQuery.create("kobe", Rect(5, 5, 8, 8))
        q_music = STSQuery.create("music", Rect(5, 5, 8, 8))
        index.route_insertion(q_kobe)
        index.route_insertion(q_music)
        cell = index.cell_for_point(Point(6, 6))
        index.split_cell_by_text(cell, {"kobe": 0, "music": 5}, default_worker=0)
        kobe_obj = SpatioTextualObject.create("kobe", Point(6, 6))
        music_obj = SpatioTextualObject.create("music", Point(6, 6))
        assert index.route_object(kobe_obj) == {0}
        assert index.route_object(music_obj) == {5}

    def test_memory_accounts_h2(self, stats):
        index = make_index(stats)
        before = index.memory_bytes()
        for offset in range(20):
            index.route_insertion(STSQuery.create("kobe", Rect(60 + offset % 5, 10, 62 + offset % 5, 12)))
        assert index.memory_bytes() > before

    def test_route_cell_tracks_every_mutation(self, stats):
        """The same ``(cell, terms)`` probe answers the current routing state
        after an insertion, a deletion, a migration and a text split."""
        index = make_index(stats, object_filtering=True)
        cell = index.cell_for_point(Point(6, 6))
        terms = frozenset({"kobe", "music"})
        q_kobe = STSQuery.create("kobe", Rect(5, 5, 8, 8))
        q_music = STSQuery.create("music", Rect(5, 5, 8, 8))
        assert index.route_cell(cell, terms) == ()
        index.route_insertion(q_kobe)
        index.insertion_plan_apply(q_music)
        assert index.route_cell(cell, terms) == (0,)
        index.migrate_cells([cell], 0, 7)
        assert index.route_cell(cell, terms) == (7,)
        index.split_cell_by_text(cell, {"kobe": 7, "music": 5}, default_worker=7)
        assert index.route_cell(cell, terms) == (5, 7)
        index.route_deletion(q_kobe)
        assert index.route_cell(cell, terms) == (5,)
        index.apply_deletion_pairs({5: [(cell, "music")]})
        assert index.route_cell(cell, terms) == ()
