"""The fabric's wire budget: bytes per data-plane op are an invariant.

The wire contract (docs/ARCHITECTURE.md, "Wire contract"): a query value
type pickles its declared dataclass fields positionally (its
``__reduce__``) and nothing else, and an object crosses as the
``(object_id, x, y, terms)`` row a worker reads.  Process-local memos —
``BooleanExpression._posting_cache`` holds a reference to the whole
:class:`TermStatistics`, ``STSQuery._size_cache`` an int — stay on the
sender and are recomputed by the receiver.  Before that contract, every
query that had been routed once dragged the statistics object (37 KB)
behind it in every ``RouteBatch`` that carried an insertion.

The budgets are pinned on protocol-5 pickles of the very values a
cluster has routed and shipped (so the memos are populated), which needs
no processes; one multiprocess case checks the checkpoint path and the
always-on channel byte counters.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.core import TupleKind
from repro.core.expression import BooleanExpression
from repro.core.geometry import Rect
from repro.core.text import TermStatistics
from repro.runtime import Cluster, ClusterConfig
from repro.runtime.transport import InsertPairs, MatchObjects, RouteBatch
from repro.runtime.worker import QueryAssignment

from harness import make_workload, needs_cores, replayed

KIB = 1024


def dumps(value):
    return pickle.dumps(value, protocol=5)


@pytest.fixture(scope="module")
def routed():
    """(statistics, live queries, objects, shipped match ops) after an
    in-process replay.

    The replay routes every insertion (``posting_keywords`` memoised
    against the plan's real vocabulary); ``size_bytes`` is then called
    the way the adjusters do, so both memos are populated.  Every
    :class:`MatchObjects` op the coordinator submitted is kept.
    """
    plan, tuples = make_workload(mu=500, num_objects=600)
    shipped = []
    with Cluster(plan, ClusterConfig(num_dispatchers=2, num_workers=4)) as cluster:
        submit = cluster.transport.submit

        def recording_submit(batches):
            for batch in batches.values():
                shipped.extend(op for op in batch.ops if type(op) is MatchObjects)
            return submit(batches)

        cluster.transport.submit = recording_submit
        cluster.run_batched(tuples, batch_size=256)
    queries = [t.payload.query for t in tuples if t.kind is TupleKind.INSERT]
    objects = [t.payload for t in tuples if t.kind is TupleKind.OBJECT]
    for query in queries:
        query.size_bytes()
        assert "_size_cache" in vars(query)
        assert vars(query.expression)["_posting_cache"][0] is plan.statistics
    assert len(dumps(plan.statistics)) > 10 * KIB, "the vocabulary must be the real one"
    return plan.statistics, queries, objects, shipped


def pairs_of(query, statistics):
    keys = sorted(query.expression.posting_keywords(statistics))
    return tuple(((3 + index, 7), keys[index % len(keys)]) for index in range(3))


class TestOpBudgets:
    def test_insert_pairs_batch_ships_no_statistics(self, routed):
        statistics, queries, _, _ = routed
        for query in queries[:50]:
            payload = dumps(RouteBatch([InsertPairs(query, pairs_of(query, statistics))]))
            assert len(payload) <= 400
            assert b"TermStatistics" not in payload

    def test_match_objects_bytes_per_object(self, routed):
        """Every row the coordinator shipped, pooled into one op: ids,
        coordinates and term sets only — no object, no raw text."""
        _, _, objects, shipped = routed
        rows = [row for op in shipped for row in op.rows]
        cells = [cell for op in shipped for cell in op.cells]
        assert len(rows) >= 50
        payload = dumps(RouteBatch([MatchObjects(rows, cells)]))
        assert len(payload) <= 128 * len(rows)
        assert b"SpatioTextualObject" not in payload
        assert b"Point" not in payload
        for obj in objects:
            assert obj.text.encode() not in payload

    def test_assignment_list_bytes_per_query(self, routed):
        statistics, queries, _, _ = routed
        live = queries[:500]
        assert len(live) == 500
        assignments = [QueryAssignment(q, pairs_of(q, statistics)) for q in live]
        payload = dumps(assignments)
        assert len(payload) <= 400 * len(live)
        assert b"TermStatistics" not in payload


class TestMemosStayLocal:
    def test_round_trip_drops_the_memos_and_nothing_else(self, routed):
        statistics, queries, _, _ = routed
        for query in queries[:50]:
            restored = pickle.loads(dumps(query))
            assert restored == query
            assert hash(restored) == hash(query)
            assert vars(restored).keys() == {f.name for f in dataclasses.fields(query)}
            assert vars(restored.expression).keys() == {"clauses"}
            assert restored.expression.posting_keywords(
                statistics
            ) == query.expression.posting_keywords(statistics)
            assert restored.size_bytes() == query.size_bytes()

    def test_copies_of_a_memoised_query_still_work(self, routed):
        statistics, queries, _, _ = routed
        query = queries[0]
        for clone in (
            copy.copy(query),
            copy.deepcopy(query),
            dataclasses.replace(query, subscriber_id=query.subscriber_id),
        ):
            assert clone == query
            assert clone.size_bytes() == query.size_bytes()
            assert clone.expression.posting_keywords(
                statistics
            ) == query.expression.posting_keywords(statistics)

    def test_sender_keeps_its_memo(self, routed, monkeypatch):
        statistics, queries, _, _ = routed
        calls = []
        original = TermStatistics.least_frequent

        def spy(self, terms):
            calls.append(terms)
            return original(self, terms)

        monkeypatch.setattr(TermStatistics, "least_frequent", spy)
        for query in queries[:50]:
            dumps(query)
            query.expression.posting_keywords(statistics)
        assert calls == []

    @pytest.mark.parametrize(
        "cls, state",
        [
            (Rect, {"min_x": 5.0, "min_y": 0.0, "max_x": 1.0, "max_y": 1.0}),
            (BooleanExpression, {"clauses": (frozenset({"kobe"}), frozenset())}),
        ],
        ids=["rect-min-over-max", "expression-empty-clause"],
    )
    def test_receiver_validates_what_arrives(self, cls, state):
        """Unpickling rebuilds through the constructor, so a value that
        could never be built locally is refused at ``pickle.loads``."""
        forged = object.__new__(cls)
        for name, value in state.items():
            object.__setattr__(forged, name, value)
        payload = dumps(forged)
        with pytest.raises(ValueError):
            pickle.loads(payload)


@needs_cores
class TestOutOfProcess:
    def test_snapshot_and_channel_bytes_stay_in_budget(self):
        plan, tuples = make_workload(workers=2)
        windows_with_inserts = sum(
            any(t.kind is TupleKind.INSERT for t in tuples[start : start + 32])
            for start in range(0, len(tuples), 32)
        )
        assert windows_with_inserts >= 20
        with replayed(plan, tuples, batch_size=32, workers=2) as (cluster, reference):
            local_wire = cluster.wire_stats()
        with replayed(
            plan, tuples, batch_size=32, workers=2, backend="multiprocess",
        ) as (cluster, report):
            snapshot = cluster.transport.snapshot_assignments()
            wire = cluster.wire_stats()
        assert report == reference

        # The checkpoint path: workers pickle their resident queries back.
        live = {a.query.query_id for assignments in snapshot.values() for a in assignments}
        assert live
        assert len(dumps(snapshot)) <= 400 * len(live)

        # The always-on channel counters: in-process tiers have no
        # channel; the worker tier's frames stay under the budget.
        assert local_wire == {}
        assert set(wire) == {"worker"}
        sent = sum(stats.bytes_sent for stats in wire["worker"].values())
        assert 0 < sent / len(tuples) < 80
        for stats in wire["worker"].values():
            assert stats.messages_sent == stats.messages_received > 0
            assert stats.bytes_received > 0
