"""Both indexes count their memory instead of walking it.

``GI2Index.memory_bytes`` keeps the query table's ``size_bytes`` as a
running total, and ``GridTIndex.memory_bytes`` keeps H2's share as one and
caches H1's.  These stateful tests drive every mutator of each index in
random order and compare the count, after every step, with the walk the
indexes used to do — written out here, from the raw structures.
"""

import pickle

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.adjustment import DualRoutingIndex
from repro.core import Point, Rect, SpatioTextualObject, STSQuery, TermStatistics
from repro.indexes.gi2 import GI2Index
from repro.indexes.gridt import GridTIndex

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)
GRANULARITY = 4
WORKERS = (0, 1, 2, 3)
WORDS = ["kobe", "music", "jazz", "rock", "city", "retired", "x"]

STATISTICS = TermStatistics()
STATISTICS.add_document(["kobe"] * 9 + ["music"] * 7 + ["jazz"] * 3 + ["rock", "city"])

# Queries may poke past the bounds (their cells are clamped to the border).
coords = st.floats(min_value=-10.0, max_value=110.0, allow_nan=False)
cells = st.tuples(
    st.integers(0, GRANULARITY - 1), st.integers(0, GRANULARITY - 1)
)
workers = st.sampled_from(WORKERS)
#: A per-worker plan posting one keyword of one cell by several workers —
#: which routing through H1 alone rarely produces.
plans = st.builds(
    lambda cell, key, owners: {worker: [(cell, key)] for worker in owners},
    cells,
    st.sampled_from(WORDS),
    st.lists(workers, min_size=1, max_size=4),
)


@st.composite
def queries(draw):
    x, y = draw(coords), draw(coords)
    width, height = draw(st.floats(0.0, 40.0)), draw(st.floats(0.0, 40.0))
    keywords = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3, unique=True))
    connector = draw(st.sampled_from([" AND ", " OR "]))
    return STSQuery.create(connector.join(keywords), Rect(x, y, x + width, y + height))


def footprint(grid, query):
    """Every ``(cell, posting keyword)`` pair a full registration creates."""
    keys = sorted(query.expression.posting_keywords(STATISTICS))
    return [(cell, key) for cell in grid.cells_overlapping(query.region) for key in keys]


def gi2_walk(index):
    """The old ``GI2Index.memory_bytes``: every live query, every posting."""
    query_bytes = sum(record[0].size_bytes() for record in index.records().values())
    posting_bytes = 0
    for inverted in index._cells.values():
        postings = inverted.by_term
        posting_bytes += 64 * len(postings) + 16 * sum(map(len, postings.values()))
    return query_bytes + posting_bytes + 96 * len(index._cells)


def gridt_walk(index):
    """The old ``GridTIndex.memory_bytes``: every cell, H1 maps (a shared
    map once) and every H2 posting keyword and owner."""
    total, seen = 0, set()
    for cell in index.cells().values():
        total += 64
        term_workers = cell.term_workers
        if term_workers is not None and id(term_workers) not in seen:
            seen.add(id(term_workers))
            total += sum(24 + len(term) for term in term_workers)
        total += sum(24 + len(term) + 12 * len(owners) for term, owners in cell.h2.items())
    return total


def h1_owners(index):
    owners = set()
    for cell in index.cells().values():
        if cell.default_worker is not None:
            owners.add(cell.default_worker)
        if cell.term_workers:
            owners.update(cell.term_workers.values())
    return tuple(sorted(owners))


class GI2Memory(RuleBasedStateMachine):
    """Every GI2 mutator, including the stale-list rewrite of matching."""

    def __init__(self):
        super().__init__()
        self.index = GI2Index(BOUNDS, GRANULARITY, STATISTICS)
        self.known = []

    def _pick(self, data):
        return data.draw(st.sampled_from(self.known)) if self.known else None

    @rule(query=queries(), data=st.data())
    def insert_pairs(self, query, data):
        pairs = footprint(self.index.grid, query)
        take = data.draw(st.integers(1, len(pairs)))
        self.index.insert_pairs(query, pairs[:take])
        self.known.append(query)

    @rule(data=st.data())
    def add_pairs(self, data):
        query = self._pick(data)
        if query is None:
            return
        registered = set(self.index.posting_pairs_of_query(query.query_id))
        fresh = [pair for pair in footprint(self.index.grid, query) if pair not in registered]
        if fresh:
            self.index.add_pairs(query, fresh[: data.draw(st.integers(1, len(fresh)))])

    @rule(data=st.data())
    def remove_pairs(self, data):
        query = self._pick(data)
        if query is not None:
            pairs = footprint(self.index.grid, query)
            self.index.remove_pairs(query.query_id, data.draw(st.lists(st.sampled_from(pairs))))

    @rule(data=st.data())
    def delete(self, data):
        query = self._pick(data)
        if query is not None:
            self.index.delete(query.query_id)

    @rule()
    def compact(self):
        self.index.compact()

    @rule(chosen=st.lists(cells, max_size=6))
    def purge_cells(self, chosen):
        self.index.purge_cells(chosen)

    @rule(data=st.data())
    def remove_queries(self, data):
        if self.known:
            chosen = data.draw(st.lists(st.sampled_from(self.known), max_size=4))
            self.index.remove_queries(query.query_id for query in chosen)

    @rule(
        objects=st.lists(
            st.tuples(coords, coords, st.lists(st.sampled_from(WORDS), min_size=1, max_size=4)),
            min_size=1,
            max_size=8,
        )
    )
    def match_batch(self, objects):
        self.index.match_batch(
            [
                SpatioTextualObject.create(" ".join(terms), Point(x, y)).row()
                for x, y, terms in objects
            ]
        )

    @rule()
    def pickle_round_trip(self):
        self.index = pickle.loads(pickle.dumps(self.index))

    @invariant()
    def memory_is_the_walk(self):
        assert self.index.memory_bytes() == gi2_walk(self.index)


def fresh_gridt():
    """Left column space-partitioned over workers 0/1, a text block
    sharing one term map, the top row uncovered (the fallback's ground)."""
    shared = {"kobe": 1, "music": 2, "jazz": 3, "rock": 2}
    return GridTIndex.from_assignments(
        BOUNDS,
        [
            (Rect(0, 0, 30, 50), None, 0),
            (Rect(0, 50, 30, 75), None, 1),
            (Rect(30, 0, 100, 75), shared, 2),
        ],
        granularity=GRANULARITY,
        term_statistics=STATISTICS,
        object_filtering=True,
    )


class GridTMemory(RuleBasedStateMachine):
    """Every GridT mutator, through a plain index and a dual-routing drain."""

    @initialize()
    def build(self):
        self.routing = fresh_gridt()
        self.placed = {}
        self.routed = []
        #: Per structure, the fallback table it must hash over: the H1
        #: owners as its cells were last assigned (construction), remapped
        #: only by a recovery.
        self.tables = [h1_owners(self.routing)]

    @property
    def current(self):
        """The plain index the single-index rules act on."""
        routing = self.routing
        return routing.new_index if isinstance(routing, DualRoutingIndex) else routing

    def _structures(self):
        routing = self.routing
        if isinstance(routing, DualRoutingIndex):
            return [routing.old_index, routing.new_index]
        return [routing]

    def _shared_keywords(self):
        """``(cell, owners)`` of every H2 keyword posted by two or more
        workers in one cell — where moving or splitting merges owners."""
        return sorted(
            (coord, tuple(sorted(owners)))
            for index in self._structures()
            for coord, cell in index.cells().items()
            for owners in cell.h2.values()
            if len(owners) > 1
        )

    @rule(query=queries())
    def insertion_plan_apply(self, query):
        self.routing.insertion_plan_apply(query)
        self.placed[query.query_id] = query

    @rule(data=st.data())
    def deletion_plan_apply(self, data):
        if self.placed:
            query_id = data.draw(st.sampled_from(sorted(self.placed)))
            self.routing.deletion_plan_apply(self.placed.pop(query_id))

    @rule(posted=plans)
    def apply_insertion(self, posted):
        self.current.apply_insertion(posted)

    @rule(posted=plans)
    def apply_deletion(self, posted):
        self.current.apply_deletion(posted)

    @rule(query=queries())
    def route_insertion(self, query):
        self.current.route_insertion(query)
        self.routed.append(query)

    @rule(data=st.data())
    def route_deletion(self, data):
        if self.routed:
            query = self.routed.pop(data.draw(st.integers(0, len(self.routed) - 1)))
            self.current.route_deletion(query)

    @rule(chosen=st.lists(cells, min_size=1, max_size=8), source=workers, destination=workers)
    def migrate_cells(self, chosen, source, destination):
        self.routing.migrate_cells(chosen, source, destination)

    @rule(data=st.data())
    def merge_owners(self, data):
        shared = self._shared_keywords()
        if shared:
            coord, owners = data.draw(st.sampled_from(shared))
            source, destination = data.draw(st.permutations(owners))[:2]
            self.routing.migrate_cells([coord], source, destination)

    @rule(
        data=st.data(),
        assignment=st.dictionaries(st.sampled_from(WORDS), workers, max_size=4),
        default=st.one_of(st.none(), workers),
    )
    def split_cell_by_text(self, data, assignment, default):
        shared = [coord for coord, _ in self._shared_keywords()]
        cell = data.draw(st.sampled_from(shared) if shared else cells)
        self.routing.split_cell_by_text(cell, assignment, default)

    @rule(data=st.data(), worker=workers)
    def set_cell_worker(self, data, worker):
        text_cells = sorted(
            coord for coord, cell in self.current.cells().items() if cell.term_workers
        )
        cell = data.draw(st.sampled_from(text_cells) if text_cells else cells)
        self.current.set_cell_worker(cell, worker)
        self.tables[-1] = h1_owners(self.current)

    @rule(
        cell=cells,
        term_map=st.dictionaries(st.sampled_from(WORDS), workers, max_size=5),
        default=st.one_of(st.none(), workers),
    )
    def set_cell_term_map(self, cell, term_map, default):
        self.current.set_cell_term_map(cell, term_map, default)
        self.tables[-1] = h1_owners(self.current)

    @rule(dead=workers, successor=workers)
    def replace_fallback_worker(self, dead, successor):
        """A recovery's remap of the dead worker's slot."""
        self.routing.replace_fallback_worker(dead, successor)
        self.tables = [
            tuple(successor if worker == dead else worker for worker in table)
            for table in self.tables
        ]

    @rule()
    def clear_h2(self):
        self.current.clear_h2()
        self.routed.clear()

    @rule()
    def drain_or_finalize(self):
        """Start a dual-routing drain, or end one on its new strategy."""
        if isinstance(self.routing, DualRoutingIndex):
            self.routing = self.routing.new_index
            self.tables = self.tables[-1:]
        else:
            self.routing = DualRoutingIndex(self.routing, fresh_gridt())
            self.tables = [self.tables[0], h1_owners(self.routing.new_index)]
        self.placed.clear()
        self.routed.clear()

    @rule()
    def pickle_round_trip(self):
        """What a dispatch-shard sync does to the routing index."""
        self.routing = pickle.loads(pickle.dumps(self.routing))

    @invariant()
    def memory_is_the_walk(self):
        structures = self._structures()
        for index, table in zip(structures, self.tables):
            assert index.memory_bytes() == gridt_walk(index)
            assert index.fallback_workers() == table
        assert self.routing.memory_bytes() == sum(map(gridt_walk, structures))


TestGI2Memory = GI2Memory.TestCase
TestGI2Memory.settings = settings(max_examples=100, stateful_step_count=25, deadline=None)
TestGridTMemory = GridTMemory.TestCase
TestGridTMemory.settings = settings(max_examples=100, stateful_step_count=25, deadline=None)
