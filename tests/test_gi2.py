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


def _posted(index, query_id):
    """How many physical postings carry ``query_id``."""
    return sum(
        posting_list.count(query_id)
        for inverted in index._cells.values()
        for posting_list in inverted.postings_map().values()
    )


class TestPurgeOnTraversal:
    """Lazy deletion: the postings stay until an object traverses their list."""

    @pytest.fixture
    def populated(self, index):
        """Two stale ids beside a live one under ``kobe`` in cell (0, 0), a
        stale-only ``storm`` list there, more stale postings in cell (5, 5),
        and enough live queries elsewhere that no sweep fires."""
        area = Rect(0, 0, 100, 100)
        self.live = make_query("kobe", area)
        self.stale = [make_query("kobe", area) for _ in range(2)]
        self.stale_or = make_query("kobe OR storm", area)
        for query in [self.live] + self.stale:
            index.insert_pairs(query, [((0, 0), "kobe"), ((5, 5), "kobe")])
        index.insert_pairs(self.stale_or, [((0, 0), "kobe"), ((0, 0), "storm")])
        for _ in range(6):
            index.insert_pairs(make_query("lebron", area), [((9, 9), "lebron")])
        for query in self.stale + [self.stale_or]:
            assert index.delete(query.query_id)
        return index

    def test_deletion_and_unrelated_objects_leave_postings(self, populated):
        assert populated.pending_deletion_count == 3
        assert populated.posting_count == 14
        populated.match(make_object("kobe", 60, 60))  # another cell, no list there
        populated.match(make_object("lebron retired", 1, 1))  # cell (0, 0), other terms
        assert populated.posting_count == 14
        assert populated.pending_deletion_count == 3

    def test_first_traversal_drops_exactly_the_stale_entries(self, populated):
        outcome = populated.match(make_object("kobe", 1, 1))
        assert outcome == ((self.live.query_id,), 1)  # stale ids are not candidates
        cell = populated._cells[(0, 0)]
        assert cell.postings("kobe") == [self.live.query_id]
        # The untraversed lists keep their stale postings ...
        assert cell.postings("storm") == [self.stale_or.query_id]
        assert len(populated._cells[(5, 5)].postings("kobe")) == 3
        assert populated.posting_count == 14 - 3
        assert cell.entry_count == 2
        # ... and a tombstone stays until a sweep: it still lists them.
        assert populated.pending_deletion_count == 3

    def test_emptied_key_and_cell_disappear(self, populated):
        assert populated.match(make_object("storm", 1, 1)) == ((), 0)
        assert "storm" not in populated._cells[(0, 0)]
        populated.remove_pairs(self.live.query_id, [((0, 0), "kobe")])
        assert populated.match(make_object("kobe", 1, 1)) == ((), 0)
        assert (0, 0) not in populated._cells
        assert populated.match(make_object("kobe", 1, 1)) == ((), 0)

    def test_batch_purges_each_list_once_and_keeps_object_order(self, populated):
        probes = [make_object("kobe", 1, 1), make_object("storm", 2, 2), make_object("kobe", 35, 35)]
        outcomes = populated.match_batch(probes, cells=[(0, 0), (0, 0), (5, 5)])
        assert outcomes == [((self.live.query_id,), 1), ((), 0), ((self.live.query_id,), 1)]
        assert populated.posting_count == 14 - 3 - 1 - 2

    @pytest.mark.parametrize("forget", ["purge_cells", "remove_pairs", "remove_queries", "compact"])
    def test_forgetting_a_tombstoned_id(self, populated, forget):
        """Every eager path removes a deleted query's postings and tombstone."""
        first, second = (query.query_id for query in self.stale)
        if forget == "purge_cells":
            assert populated.purge_cells([(0, 0)]) == 3
            assert _posted(populated, first) == 1  # cell (5, 5) was not purged
            assert populated.pending_deletion_count == 2  # stale_or lived in (0, 0) only
            assert populated.purge_cells([(5, 5), (9, 9)]) == 2
        elif forget == "remove_pairs":
            assert not populated.remove_pairs(first, [((0, 0), "kobe")])
            assert _posted(populated, first) == 1
            assert populated.remove_pairs(first, [((5, 5), "kobe"), ((7, 7), "kobe")])
            assert populated.remove_pairs(second, [((0, 0), "kobe"), ((5, 5), "kobe")])
            assert populated.remove_pairs(
                self.stale_or.query_id, [((0, 0), "kobe"), ((0, 0), "storm")]
            )
            assert not populated.remove_pairs(first, [((0, 0), "kobe")])
        elif forget == "remove_queries":
            ids = [first, second, self.stale_or.query_id, 424242]
            assert populated.remove_queries(ids) == []  # none of them was live
        else:
            assert populated.compact() == 3
        assert populated.pending_deletion_count == 0
        assert populated.posting_count == 2 + 6
        assert all(_posted(populated, query.query_id) == 0 for query in self.stale + [self.stale_or])
        assert populated.match(make_object("kobe storm", 1, 1)) == ((self.live.query_id,), 1)

    def test_forgotten_queries_stop_counting_as_memory(self, populated):
        """``memory_bytes`` = live queries + physical postings (16 B each,
        64 B per key, 96 B per cell); a deleted query leaves at delete()."""
        live_bytes = sum(query.size_bytes() for query in populated.queries())
        assert populated.memory_bytes() == live_bytes + 14 * 16 + 4 * 64 + 3 * 96
        populated.compact()  # 6 stale postings and the emptied storm key go
        assert populated.memory_bytes() == live_bytes + 8 * 16 + 3 * 64 + 3 * 96


class TestSweep:
    def test_insert_then_delete_rounds_stay_bounded(self, index):
        """Regression: with no object to traverse them, deleted queries'
        postings and tombstones used to stay for the life of the worker."""
        area = Rect(0, 0, 30, 30)
        residents = [make_query("kobe AND retired", area) for _ in range(10)]
        for query in residents:
            index.insert(query)
        live_postings = index.posting_count
        for _ in range(20):
            batch = [make_query("lebron", area) for _ in range(7)]
            for query in batch:
                index.insert(query)
            for query in batch:
                index.delete(query.query_id)
            assert index.pending_deletion_count <= index.query_count + 1
            assert index.posting_count <= 2 * live_postings
        assert index.query_count == 10
        assert sorted(index.queries(), key=lambda q: q.query_id) == residents

    def test_sweep_depends_on_the_update_sequence_only(self, stats):
        """Objects in between move postings, never the sweep: two indexes fed
        the same updates end in the same state whatever was matched."""
        quiet = GI2Index(BOUNDS, granularity=16, term_statistics=stats)
        busy = GI2Index(BOUNDS, granularity=16, term_statistics=stats)
        queries = [make_query("kobe", Rect(0, 0, 40, 40)) for _ in range(12)]
        for index in (quiet, busy):
            for query in queries:
                index.insert(query)
        for query in queries[:9]:
            quiet.delete(query.query_id)
            busy.delete(query.query_id)
            busy.match(make_object("kobe", 3, 3))
            assert busy.pending_deletion_count == quiet.pending_deletion_count
        assert quiet.posting_count > busy.posting_count  # busy's cell was traversed
        for cell in busy.grid.cells_overlapping(Rect(0, 0, 40, 40)):
            quiet.match_batch([make_object("kobe", 3, 3)], cells=[cell])
            busy.match_batch([make_object("kobe", 3, 3)], cells=[cell])
        assert (quiet.posting_count, quiet.memory_bytes()) == (busy.posting_count, busy.memory_bytes())


class TestRandomisedInterleaving:
    """insert_pairs / delete / re-insert / match_batch against brute force and
    against the candidate rule written out straight."""

    VOCABULARY = ["kobe", "retired", "lebron", "storm", "flood", "rain"]

    def _random_query(self, rng, query_id=None):
        x, y = rng.uniform(0, 80), rng.uniform(0, 80)
        region = Rect(x, y, x + rng.uniform(1, 30), y + rng.uniform(1, 30))
        clauses = [
            rng.sample(self.VOCABULARY, rng.randint(1, 2)) for _ in range(rng.choice([1, 1, 2, 3]))
        ]
        expression = " OR ".join("(%s)" % " AND ".join(clause) for clause in clauses)
        return make_query(expression, region, query_id=query_id)

    def _random_pairs(self, rng, index, query):
        """The full footprint under one arbitrary keyword per clause (any
        member is a valid posting key; duplicates across clauses happen)."""
        keys = [rng.choice(sorted(clause)) for clause in query.expression.clauses]
        return [
            (cell, key) for cell in index.grid.cells_overlapping(query.region) for key in keys
        ]

    @staticmethod
    def _expected(live, obj, cell):
        """The parent's candidate rule over the live postings of ``cell``:
        skip an id already matched, (skip a stale id, uncounted,) count a
        check, then test region and expression."""
        lists = {}
        for query, pairs in live.values():
            for coord, key in pairs:
                if coord == cell and key in obj.terms:
                    lists.setdefault(key, []).append(query)
        matched, checks = set(), 0
        for posting_list in lists.values():
            for query in posting_list:
                if query.query_id in matched:
                    continue
                checks += 1
                if query.matches(obj):
                    matched.add(query.query_id)
        return tuple(sorted(matched)), checks

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_and_checks(self, stats, seed):
        import random

        rng = random.Random(seed)
        index = GI2Index(BOUNDS, granularity=8, term_statistics=stats)
        live, deleted = {}, []
        or_under_two_keys = 0
        for step in range(600):
            action = rng.random()
            if action < 0.3 or not live:
                if deleted and rng.random() < 0.4:
                    # Re-insert a deleted id: another query, other pairs.
                    query = self._random_query(rng, query_id=deleted.pop(rng.randrange(len(deleted))))
                else:
                    query = self._random_query(rng)
                pairs = self._random_pairs(rng, index, query)
                or_under_two_keys += len({key for _, key in pairs}) > 1
                assert index.insert_pairs(query, pairs) == len(pairs)
                assert index.insert_pairs(query, pairs[:1]) == 0  # live: idempotent
                live[query.query_id] = (query, pairs)
            elif action < 0.55:
                query_id = rng.choice(sorted(live))
                del live[query_id]
                deleted.append(query_id)
                assert index.delete(query_id) and not index.delete(query_id)
            else:
                objects = [
                    make_object(
                        " ".join(rng.sample(self.VOCABULARY, rng.randint(1, 4))),
                        rng.uniform(0, 99),
                        rng.uniform(0, 99),
                    )
                    for _ in range(rng.randint(1, 6))
                ]
                cells = [index.grid.cell_of(obj.location) for obj in objects]
                outcomes = index.match_batch(objects, cells if rng.random() < 0.5 else None)
                assert len(outcomes) == len(objects)
                for obj, cell, outcome in zip(objects, cells, outcomes):
                    brute = tuple(sorted(q.query_id for q, _ in live.values() if q.matches(obj)))
                    assert outcome.query_ids == brute
                    assert outcome == self._expected(live, obj, cell)
            assert index.query_count == len(live)
            # Every physical posting belongs to a live query or a tombstone.
            assert index.posting_count <= sum(len(pairs) for _, pairs in live.values()) + sum(
                len(pairs) for pairs in index._tombstones.values()
            )
        assert or_under_two_keys > 10
        index.compact()
        assert index.pending_deletion_count == 0
        assert index.posting_count == sum(len(pairs) for _, pairs in live.values())
        assert {query_id: pairs for query_id, (_, pairs) in live.items()} == index.posting_pairs_by_query()


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
