"""Unit tests for the gridt dispatcher routing index (Section IV-C)."""

import copy
from zlib import crc32

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Point, Rect, STSQuery, SpatioTextualObject, TermStatistics
from repro.indexes.gridt import _CELL_BYTES, GridTIndex


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
        assert len(index.cells()) == index.grid.columns * index.grid.rows

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

    def test_fallback_depends_on_h1_only(self, stats):
        """Regression: the fallback hashed over H1 *and* H2 owners, so a
        worker that had lost its last H1 cell still drew fallback postings
        while it held H2 ones — and once those went, a recomputed deletion
        plan named another worker than the insertion had.  Hashing over
        the *current* H1 owners had the same flaw one step earlier: the
        migration below changes that set.  The table is the H1 owners as
        the cells were assigned, whatever H1 does after."""
        index = GridTIndex.from_assignments(
            BOUNDS,
            [(Rect(0, 0, 10, 10), None, 0), (Rect(10, 0, 20, 10), None, 1),
             (Rect(20, 0, 30, 10), None, 2)],
            granularity=10,
            term_statistics=stats,
        )
        def hashed(term, count):
            return crc32(term.encode("utf-8")) % count

        terms = ["term%d" % i for i in range(100)]
        # ``first`` hashes onto worker 2 of (0, 1, 2); ``second`` onto
        # another worker of (0, 1, 2) than of (0, 1), the H1 owners after
        # the migration.
        first = next(term for term in terms if hashed(term, 3) == 2)
        second = next(
            term for term in terms if hashed(term, 3) != 2 and hashed(term, 3) != hashed(term, 2)
        )
        uncovered = Rect(80, 80, 81, 81)
        early = STSQuery.create(first, uncovered)
        early_plan, _ = index.insertion_plan_apply(early)
        assert list(early_plan) == [2]
        index.migrate_cells([(2, 0)], 2, 1)  # worker 2 keeps only H2 postings
        late = STSQuery.create(second, uncovered)
        late_plan = index.insertion_plan_apply(late)
        # The deletion re-plans to worker 2, which holds the query.
        assert index.deletion_plan_apply(early)[0] == early_plan
        assert index.posting_assignments(late) == late_plan
        assert index.fallback_workers() == (0, 1, 2)
        assert list(late_plan[0]) == [hashed(second, 3)]


    def test_fallback_table_is_fixed_when_the_cells_are_assigned(self, stats):
        """Adjusters' H1 changes pin the table first, even before any query
        has fallen back; a recovery puts its target in the dead worker's
        slot; assigning cells anew re-derives it."""
        index = GridTIndex.from_assignments(
            BOUNDS,
            [(Rect(0, 0, 10, 10), None, 0), (Rect(10, 0, 20, 10), None, 1),
             (Rect(20, 0, 30, 10), None, 2)],
            granularity=10,
            term_statistics=stats,
        )
        index.migrate_cells([(2, 0)], 2, 1)
        index.split_cell_by_text((1, 0), {"kobe": 3})
        assert index.fallback_workers() == (0, 1, 2)
        index.replace_fallback_worker(2, 0)
        assert index.fallback_workers() == (0, 1, 0)
        index.set_cell_worker((5, 5), 4)
        assert index.fallback_workers() == (0, 1, 3, 4)


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
        cell = index.grid.cell_of(Point(6, 6))
        index.migrate_cells([cell], 0, 7)
        obj = SpatioTextualObject.create("whatever", Point(6, 6))
        assert index.route_object(obj) == {7}

    def test_split_cell_by_text(self, stats):
        index = make_index(stats)
        q_kobe = STSQuery.create("kobe", Rect(5, 5, 8, 8))
        q_music = STSQuery.create("music", Rect(5, 5, 8, 8))
        index.route_insertion(q_kobe)
        index.route_insertion(q_music)
        cell = index.grid.cell_of(Point(6, 6))
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

    def test_memory_bytes_equals_the_per_term_sum(self, stats):
        """The C-speed sums give the per-term generator's integer on a
        populated index whose shared H1 map was partly migrated (so two
        maps are shared), with one cell split by text."""

        def per_term(index):
            total, seen = 0, set()
            for cell in index.cells().values():
                total += 64
                if cell.term_workers is not None and id(cell.term_workers) not in seen:
                    seen.add(id(cell.term_workers))
                    total += sum(24 + len(term) for term in cell.term_workers)
                total += sum(
                    24 + len(term) + 12 * len(owners) for term, owners in cell.h2.items()
                )
            return total

        index = make_index(stats)
        words = ["kobe", "retired", "music", "jazz", "x"]
        for offset in range(40):
            text = " OR ".join(words[offset % 5 : offset % 5 + 2])
            x, y = (offset * 7) % 90, (offset * 13) % 90
            index.route_insertion(STSQuery.create(text, Rect(x, y, x + 12, y + 9)))
        text_cells = [coord for coord, cell in index.cells().items() if cell.term_workers]
        index.migrate_cells(text_cells[: len(text_cells) // 2], 1, 3)
        index.migrate_cells([index.grid.cell_of(Point(6, 6))], 0, 4)
        index.split_cell_by_text(index.grid.cell_of(Point(16, 16)), {"kobe": 0, "jazz": 5})
        assert len({id(cell.term_workers) for cell in index.cells().values()}) == 4
        assert index.memory_bytes() == per_term(index)

    def test_route_cell_tracks_every_mutation(self, stats):
        """The same ``(cell, terms)`` probe answers the current routing state
        after an insertion, a deletion, a migration and a text split."""
        index = make_index(stats, object_filtering=True)
        cell = index.grid.cell_of(Point(6, 6))
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


def _h2(index):
    """Every non-empty H2 map, copied."""
    return {
        coord: {key: dict(owners) for key, owners in cell.h2.items()}
        for coord, cell in index.cells().items()
        if cell.h2
    }


_TEXTS = ["kobe", "music OR jazz", "kobe AND retired", "jazz AND music",
          "retired OR kobe OR music", "blues"]
_QUERIES = st.builds(
    lambda text, x, y, w, h: STSQuery.create(text, Rect(x, y, x + w, y + h)),
    st.sampled_from(_TEXTS),
    st.floats(-20, 110), st.floats(-20, 110), st.floats(0, 45), st.floats(0, 45),
)


class TestOnePassDeletion:
    """Every update plan comes out of one resolution loop: the read-only
    ``posting_assignments`` pass is the plan ``insertion_plan_apply`` and
    ``deletion_plan_apply`` make, in dict and pair order, and the pair
    loop (``apply_insertion`` / ``apply_deletion``) has their H2 effect."""

    @settings(max_examples=60, deadline=None)
    @given(
        resident=st.lists(_QUERIES, min_size=1, max_size=12),
        fresh=_QUERIES,
        migrated=st.tuples(st.integers(0, 9), st.integers(0, 5)),
        data=st.data(),
    )
    def test_plan_and_h2_match_the_three_pass_deletion(self, resident, fresh, migrated, data):
        stats = TermStatistics()
        stats.add_document(["kobe"] * 10 + ["retired"] * 2 + ["music"] * 8 + ["jazz"])
        # Space on the left, text bottom right, the top-right corner uncovered.
        index = GridTIndex.from_assignments(
            BOUNDS,
            [(Rect(0, 0, 50, 100), None, 0),
             (Rect(50, 0, 100, 60), {"kobe": 1, "retired": 1, "music": 2, "jazz": 2}, 1)],
            granularity=10,
            term_statistics=stats,
        )
        for query in resident:
            index.insertion_plan_apply(query)
        index.migrate_cells([migrated], index.cells()[migrated].default_worker, 3)

        h2, memory, cells = _h2(index), index.memory_bytes(), len(index.cells())
        read = index.posting_assignments(fresh)
        # The read-only pass leaves H2, the cells and the memory count alone.
        assert _h2(index) == h2
        assert index.memory_bytes() == memory and len(index.cells()) == cells
        replica = copy.deepcopy(index)
        assert replica.insertion_plan_apply(fresh) == read
        inserted = index.insertion_plan_apply(fresh)
        deleted = index.deletion_plan_apply(fresh)
        assert list(inserted[0].items()) == list(read[0].items())
        assert list(deleted[0].items()) == list(read[0].items())
        assert deleted[1] == inserted[1] == read[1]
        assert _h2(index) == h2
        # Only the empty cells an uncovered insertion created stay behind.
        created = _CELL_BYTES * (len(index.cells()) - cells)
        assert index.memory_bytes() == memory + created
        # The pair loop counts the same plan in and out again.
        index.apply_insertion(read[0])
        assert _h2(index) == _h2(replica)
        assert index.memory_bytes() == replica.memory_bytes()
        index.apply_deletion(read[0])
        assert _h2(index) == h2
        assert index.memory_bytes() == memory + created

        twin = copy.deepcopy(index)
        for query in data.draw(st.permutations(resident)):
            expected, probed = index.posting_assignments(query)
            plan, cells = index.deletion_plan_apply(query)
            assert list(plan.items()) == list(expected.items())
            assert cells == probed
            twin.apply_deletion(expected)
            assert _h2(index) == _h2(twin)
            assert index.memory_bytes() == twin.memory_bytes()
        # Every posting went with its query: the fallback table did not
        # move under the migration, so each re-plan named the holder.
        assert _h2(index) == {}
