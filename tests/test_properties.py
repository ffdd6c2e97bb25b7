"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.core import (
    BooleanExpression,
    Point,
    Rect,
    STSQuery,
    SpatioTextualObject,
    TermStatistics,
    cosine_similarity,
)
from repro.indexes.gi2 import GI2Index
from repro.indexes.grid import UniformGrid
from repro.indexes.gridt import GridTIndex
from repro.indexes.kdtree import KDTree, build_leaf_regions
from repro.indexes.rtree import RTree, RTreeEntry
from repro.adjustment import GreedySelector, SizeSelector
from repro.indexes.gi2 import CellStats


BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)

coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)
words = st.sampled_from(
    ["kobe", "lebron", "nba", "music", "jazz", "storm", "flood", "pizza", "tesla", "news"]
)
term_sets = st.sets(words, min_size=1, max_size=5)


def rects(min_size=0.0):
    return st.builds(
        lambda x1, y1, x2, y2: Rect(min(x1, x2), min(y1, y2), max(x1, x2) + min_size, max(y1, y2) + min_size),
        coords, coords, coords, coords,
    )


# ----------------------------------------------------------------------
# Geometry properties
# ----------------------------------------------------------------------
@given(rects(), rects())
def test_rect_intersection_is_contained_in_both(a, b):
    overlap = a.intersection(b)
    if overlap is not None:
        assert a.contains_rect(overlap)
        assert b.contains_rect(overlap)
        assert a.intersects(b)
    else:
        assert not a.intersects(b)


@given(rects(), rects())
def test_rect_union_contains_both(a, b):
    union = a.union(b)
    assert union.contains_rect(a)
    assert union.contains_rect(b)


@given(rects(min_size=0.5), st.floats(min_value=0.01, max_value=0.99))
def test_split_partitions_area(rect, fraction):
    coordinate = rect.min_x + fraction * rect.width
    left, right = rect.split_x(coordinate)
    assert left.area + right.area == left.area + right.area  # no NaN
    assert abs((left.area + right.area) - rect.area) < 1e-6 * max(rect.area, 1.0)


# ----------------------------------------------------------------------
# Grid properties
# ----------------------------------------------------------------------
@given(points, st.integers(min_value=1, max_value=32))
def test_grid_cell_of_contains_point(point, granularity):
    grid = UniformGrid(BOUNDS, granularity, granularity)
    cell = grid.cell_of(point)
    assert grid.cell_rect(cell).contains_point(point)


@given(rects(), st.integers(min_value=1, max_value=16))
def test_grid_overlapping_cells_cover_rect_corners(rect, granularity):
    grid = UniformGrid(BOUNDS, granularity, granularity)
    cells = set(grid.cells_overlapping(rect))
    for corner in rect.corners:
        assert grid.cell_of(corner) in cells


# ----------------------------------------------------------------------
# Expression properties
# ----------------------------------------------------------------------
@given(st.lists(term_sets, min_size=1, max_size=4), term_sets)
def test_expression_match_iff_some_clause_subset(clauses, text_terms):
    expression = BooleanExpression.from_clauses(clauses)
    expected = any(set(clause) <= text_terms for clause in clauses)
    assert expression.matches(text_terms) == expected


@given(st.lists(term_sets, min_size=1, max_size=4), term_sets)
def test_posting_keyword_completeness(clauses, text_terms):
    """If an expression matches a text, the text contains a posting keyword."""
    stats = TermStatistics()
    stats.add_document(["kobe"] * 7 + ["music"] * 5 + ["storm"] * 2)
    expression = BooleanExpression.from_clauses(clauses)
    if expression.matches(text_terms):
        assert not text_terms.isdisjoint(expression.posting_keywords(stats))


@given(st.dictionaries(words, st.floats(min_value=0.0, max_value=100.0), max_size=8),
       st.dictionaries(words, st.floats(min_value=0.0, max_value=100.0), max_size=8))
def test_cosine_similarity_bounds_and_symmetry(a, b):
    value = cosine_similarity(a, b)
    assert 0.0 <= value <= 1.0 + 1e-9
    assert math.isclose(value, cosine_similarity(b, a), abs_tol=1e-9)


# ----------------------------------------------------------------------
# Spatial index properties
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.lists(points, min_size=0, max_size=200), rects())
def test_kdtree_range_search_equals_bruteforce(point_list, probe):
    tree = KDTree(point_list, leaf_capacity=8, bounds=BOUNDS)
    expected = sorted(p.as_tuple() for p in point_list if probe.contains_point(p))
    assert sorted(p.as_tuple() for p in tree.range_search(probe)) == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(points, min_size=1, max_size=150), st.integers(min_value=1, max_value=12))
def test_kdtree_leaf_regions_cover_all_points(point_list, leaves):
    regions = build_leaf_regions(point_list, leaves, BOUNDS)
    assert len(regions) == leaves
    for point in point_list:
        assert any(region.contains_point(point) for region in regions)


@settings(max_examples=30, deadline=None)
@given(st.lists(rects(), min_size=0, max_size=120), rects())
def test_rtree_search_equals_bruteforce(rect_list, probe):
    entries = [RTreeEntry(rect, index) for index, rect in enumerate(rect_list)]
    tree = RTree.bulk_load(entries, capacity=6)
    expected = sorted(index for index, rect in enumerate(rect_list) if rect.intersects(probe))
    assert sorted(entry.payload for entry in tree.search(probe)) == expected


# ----------------------------------------------------------------------
# GI2 index properties
# ----------------------------------------------------------------------
query_specs = st.tuples(term_sets, rects(min_size=1.0), st.booleans())
object_specs = st.tuples(term_sets, points)


@settings(max_examples=40, deadline=None)
@given(st.lists(query_specs, min_size=0, max_size=25),
       st.lists(object_specs, min_size=0, max_size=25),
       st.data())
def test_gi2_matches_equal_bruteforce_with_interleaved_deletes(queries_spec, objects_spec, data):
    stats = TermStatistics()
    stats.add_document(["kobe"] * 9 + ["music"] * 6 + ["storm"] * 3 + ["pizza"])
    index = GI2Index(BOUNDS, granularity=8, term_statistics=stats)
    live = {}
    for terms, region, conjunctive in queries_spec:
        expression = (
            BooleanExpression.conjunction(terms) if conjunctive else BooleanExpression.disjunction(terms)
        )
        query = STSQuery.create(expression, region)
        index.insert(query)
        live[query.query_id] = query
        # Randomly delete some earlier query.
        if live and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(sorted(live)))
            index.delete(victim)
            live.pop(victim)
    for terms, location in objects_spec:
        obj = SpatioTextualObject.create(" ".join(terms), location)
        expected = sorted(
            query_id for query_id, query in live.items() if query.matches(obj)
        )
        assert list(index.match(obj).query_ids) == expected


# ----------------------------------------------------------------------
# Routing completeness property (gridt)
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.lists(query_specs, min_size=1, max_size=15),
       st.lists(object_specs, min_size=1, max_size=15),
       st.booleans())
def test_gridt_routing_never_loses_matches(queries_spec, objects_spec, filtering):
    stats = TermStatistics()
    stats.add_document(["kobe"] * 9 + ["music"] * 6 + ["storm"] * 3 + ["pizza"])
    index = GridTIndex.from_assignments(
        BOUNDS,
        [
            (Rect(0, 0, 50, 100), None, 0),
            (Rect(50, 0, 100, 100), {w: 1 + (hash(w) % 2) for w in
                                     ["kobe", "lebron", "nba", "music", "jazz", "storm",
                                      "flood", "pizza", "tesla", "news"]}, 1),
        ],
        granularity=8,
        term_statistics=stats,
        object_filtering=filtering,
    )
    placements = {}
    for terms, region, conjunctive in queries_spec:
        expression = (
            BooleanExpression.conjunction(terms) if conjunctive else BooleanExpression.disjunction(terms)
        )
        query = STSQuery.create(expression, region)
        placements[query] = index.route_insertion(query)
    for terms, location in objects_spec:
        obj = SpatioTextualObject.create(" ".join(terms), location)
        routed = index.route_object(obj)
        for query, workers in placements.items():
            if query.matches(obj):
                assert routed & workers, "matching object must reach a worker holding the query"


# ----------------------------------------------------------------------
# Migration selector properties
# ----------------------------------------------------------------------
cell_specs = st.tuples(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=4000),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(cell_specs, min_size=1, max_size=40), st.floats(min_value=0.0, max_value=1.0))
def test_selectors_meet_tau_or_return_everything(spec, fraction):
    cells = [
        CellStats(cell=(index, 0), object_count=objects, query_count=queries, size_bytes=size)
        for index, (objects, queries, size) in enumerate(spec)
    ]
    total = sum(cell.load for cell in cells)
    tau = total * fraction
    for selector in (GreedySelector(), SizeSelector()):
        selected = selector.select(cells, tau)
        if tau <= 0:
            assert selected == []
        elif total >= tau:
            assert sum(cell.load for cell in selected) >= tau
        else:
            assert sum(cell.load for cell in selected) == total


# ----------------------------------------------------------------------
# Checkpoint round-trip property (runtime/checkpoint.py)
# ----------------------------------------------------------------------
from functools import lru_cache

from repro.runtime import Cluster, ClusterConfig, CheckpointStore, decode_checkpoint, encode_checkpoint
from repro.runtime.worker import WorkerNode
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset


@lru_cache(maxsize=4)
def _fig07_slice(seed):
    """One cached fig 7(a)-style slice per seed (plan + tuples)."""
    from repro.partitioning import HybridPartitioner

    tweets = make_dataset("us", seed=seed)
    queries = QueryGenerator(tweets, seed=seed + 1)
    stream = WorkloadStream(
        tweets, queries, StreamConfig(mu=200, group="Q1"), seed=seed + 2
    )
    sample = stream.partitioning_sample(400)
    plan = HybridPartitioner().partition(sample, 4)
    return plan, tuple(stream.tuples(350))


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=120),
    st.integers(min_value=40, max_value=300),
)
def test_checkpoint_roundtrip_restores_posting_parity(seed, start, length):
    """Seeded fuzz: snapshot -> JSONL codec -> restore == original postings.

    A random slice of a fig 7(a) workload is replayed on the in-process
    cluster; every worker's snapshotted assignments survive the
    encode/decode round trip exactly, and installing them onto a *fresh*
    worker set reproduces each GI2 index's live posting registrations
    pair for pair (the recovery guarantee the chaos tests build on).
    """
    plan, tuples = _fig07_slice(seed)
    window = list(tuples[start:start + length])
    config = ClusterConfig(num_dispatchers=2, num_workers=4)
    with Cluster(plan, config) as cluster:
        cluster.run_batched(window, batch_size=64)
        snapshot = cluster.transport.snapshot_assignments()
        store = CheckpointStore()
        checkpoint = store.record(snapshot, len(window))
        decoded = decode_checkpoint(encode_checkpoint(checkpoint))
        assert decoded == checkpoint

        for worker_id, original in snapshot.items():
            fresh = WorkerNode(
                worker_id,
                plan.bounds,
                granularity=config.granularity,
                term_statistics=plan.statistics,
            )
            fresh.install_queries(list(decoded.assignments[worker_id]))
            restored = {a.query.query_id: (a.query, a.pairs) for a in fresh.snapshot_assignments()}
            assert restored == {a.query.query_id: (a.query, a.pairs) for a in original}
