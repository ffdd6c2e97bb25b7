"""The fabric's wire budget: bytes per data-plane op are an invariant.

The wire contract (docs/ARCHITECTURE.md, "Wire contract"): a value type
pickles its declared dataclass fields and nothing else.  Process-local
memos — ``BooleanExpression._posting_cache`` holds a reference to the
whole :class:`TermStatistics`, ``STSQuery._size_cache`` an int — stay on
the sender and are recomputed by the receiver.  Before that contract,
every query that had been routed once dragged the statistics object
(37 KB) behind it in every ``RouteBatch`` that carried an insertion.

The budgets are pinned on protocol-5 pickles of the very objects a
cluster has routed (so the memos are populated), which needs no
processes; one multiprocess case checks the checkpoint path and the
always-on channel byte counters.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.core import TupleKind
from repro.core.text import TermStatistics
from repro.runtime import Cluster, ClusterConfig
from repro.runtime.transport import InsertPairs, MatchObjects, RouteBatch
from repro.runtime.worker import QueryAssignment

from test_chaos import needs_cores
from test_transport import assert_identical, make_workload

KIB = 1024


def dumps(value):
    return pickle.dumps(value, protocol=5)


@pytest.fixture(scope="module")
def routed():
    """(statistics, live queries, objects) after an in-process replay.

    The replay routes every insertion (``posting_keywords`` memoised
    against the plan's real vocabulary); ``size_bytes`` is then called
    the way the adjusters do, so both memos are populated.
    """
    plan, tuples = make_workload(mu=500, num_objects=600)
    with Cluster(plan, ClusterConfig(num_dispatchers=2, num_workers=4)) as cluster:
        cluster.run_batched(tuples, batch_size=256)
    queries = [t.payload.query for t in tuples if t.kind is TupleKind.INSERT]
    objects = [t.payload for t in tuples if t.kind is TupleKind.OBJECT]
    for query in queries:
        query.size_bytes()
        assert "_size_cache" in vars(query)
        assert vars(query.expression)["_posting_cache"][0] is plan.statistics
    assert len(dumps(plan.statistics)) > 10 * KIB, "the vocabulary must be the real one"
    return plan.statistics, queries, objects


def pairs_of(query, statistics):
    keys = sorted(query.expression.posting_keywords(statistics))
    return tuple(((3 + index, 7), keys[index % len(keys)]) for index in range(3))


class TestOpBudgets:
    def test_insert_pairs_batch_ships_no_statistics(self, routed):
        statistics, queries, _ = routed
        for query in queries[:50]:
            payload = dumps(RouteBatch([InsertPairs(query, pairs_of(query, statistics))]))
            assert len(payload) <= KIB
            assert b"TermStatistics" not in payload

    def test_match_objects_bytes_per_object(self, routed):
        _, _, objects = routed
        window = objects[:256]
        cells = [(index % 64, index // 64) for index in range(len(window))]
        payload = dumps(RouteBatch([MatchObjects(window, cells)]))
        assert len(payload) <= 300 * len(window)

    def test_assignment_list_bytes_per_query(self, routed):
        statistics, queries, _ = routed
        live = queries[:500]
        assert len(live) == 500
        assignments = [QueryAssignment(q, pairs_of(q, statistics)) for q in live]
        payload = dumps(assignments)
        assert len(payload) <= 400 * len(live)
        assert b"TermStatistics" not in payload


class TestMemosStayLocal:
    def test_round_trip_drops_the_memos_and_nothing_else(self, routed):
        statistics, queries, _ = routed
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
        statistics, queries, _ = routed
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
        statistics, queries, _ = routed
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


def replay(plan, tuples, backend):
    config = ClusterConfig(num_dispatchers=2, num_workers=2, backend=backend)
    with Cluster(plan, config) as cluster:
        report = cluster.run_batched(tuples, batch_size=32)
        snapshot = cluster.transport.snapshot_assignments()
        return report, snapshot, cluster.wire_stats()


@needs_cores
class TestOutOfProcess:
    def test_snapshot_and_channel_bytes_stay_in_budget(self):
        plan, tuples = make_workload(workers=2)
        windows_with_inserts = sum(
            any(t.kind is TupleKind.INSERT for t in tuples[start : start + 32])
            for start in range(0, len(tuples), 32)
        )
        assert windows_with_inserts >= 20
        reference, _, local_wire = replay(plan, tuples, "inprocess")
        report, snapshot, wire = replay(plan, tuples, "multiprocess")
        assert_identical(reference, report)

        # The checkpoint path: workers pickle their resident queries back.
        live = {a.query.query_id for assignments in snapshot.values() for a in assignments}
        assert live
        assert len(dumps(snapshot)) <= 400 * len(live)

        # The always-on channel counters: in-process tiers have no
        # channel; the worker tier's frames stay under the budget.
        assert local_wire == {}
        assert set(wire) == {"worker"}
        sent = sum(stats.bytes_sent for stats in wire["worker"].values())
        assert 0 < sent / len(tuples) < 400
        for stats in wire["worker"].values():
            assert stats.messages_sent == stats.messages_received > 0
            assert stats.bytes_received > 0
