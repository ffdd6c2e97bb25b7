"""Unit tests for the mixed workload stream driver."""

import hashlib
from collections import Counter

import pytest

from repro.core import TupleKind
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset


def make_stream(mu=100, group="Q1", objects_per_update=5, seed=21):
    tweets = make_dataset("us", seed=seed)
    queries = QueryGenerator(tweets, seed=seed + 1)
    config = StreamConfig(mu=mu, group=group, objects_per_update=objects_per_update)
    return WorkloadStream(tweets, queries, config, seed=seed + 2)


class TestWarmup:
    def test_warmup_size_equals_mu(self):
        stream = make_stream(mu=50)
        assert len(stream.warmup_queries()) == 50
        assert stream.live_query_count == 50

    def test_warmup_idempotent(self):
        stream = make_stream(mu=30)
        first = stream.warmup_queries()
        second = stream.warmup_queries()
        assert [q.query_id for q in first] == [q.query_id for q in second]

    def test_partitioning_sample(self):
        stream = make_stream(mu=40)
        sample = stream.partitioning_sample(100)
        assert len(sample.objects) == 100
        assert len(sample.insertions) == 40


class TestTupleStream:
    def test_object_update_ratio(self):
        stream = make_stream(mu=50, objects_per_update=5)
        kinds = Counter(item.kind for item in stream.tuples(500, include_warmup=False))
        assert kinds[TupleKind.OBJECT] == 500
        updates = kinds[TupleKind.INSERT] + kinds[TupleKind.DELETE]
        assert updates == pytest.approx(100, abs=2)

    def test_insert_delete_rates_are_balanced(self):
        stream = make_stream(mu=20, objects_per_update=5)
        kinds = Counter(item.kind for item in stream.tuples(1000, include_warmup=False))
        assert abs(kinds[TupleKind.INSERT] - kinds[TupleKind.DELETE]) <= 1

    def test_warmup_included_by_default(self):
        stream = make_stream(mu=30)
        kinds = Counter(item.kind for item in stream.tuples(100))
        assert kinds[TupleKind.INSERT] >= 30

    def test_live_population_stays_near_mu(self):
        stream = make_stream(mu=50, objects_per_update=2)
        for _ in stream.tuples(2000):
            pass
        assert 25 <= stream.live_query_count <= 100

    def test_arrival_times_monotonic(self):
        stream = make_stream(mu=10)
        times = [item.arrival_time for item in stream.tuples(200)]
        assert times == sorted(times)

    def test_deletions_reference_previously_inserted_queries(self):
        stream = make_stream(mu=20)
        inserted = set()
        for item in stream.tuples(500):
            if item.kind is TupleKind.INSERT:
                inserted.add(item.payload.query_id)
            elif item.kind is TupleKind.DELETE:
                assert item.payload.query_id in inserted

    def test_on_insert_callback(self):
        stream = make_stream(mu=10)
        seen = []
        for _ in stream.tuples(100, include_warmup=False, on_insert=seen.append):
            pass
        assert seen == sorted(seen)
        assert len(seen) >= 8

    def test_q3_stream_produces_tuples(self):
        stream = make_stream(mu=30, group="Q3")
        kinds = Counter(item.kind for item in stream.tuples(100))
        assert kinds[TupleKind.OBJECT] == 100

    def test_deterministic_given_seed(self):
        first = [item.kind for item in make_stream(seed=77).tuples(200)]
        second = [item.kind for item in make_stream(seed=77).tuples(200)]
        assert first == second


def stream_digest(stream, num_objects):
    """SHA-256 of the tuple sequence and of the final live-query order.

    Ids come from process-global counters, so queries are named by their
    insertion ordinal and objects by their content.
    """
    ordinals = {}
    rows = []
    for item in stream.tuples(num_objects):
        if item.kind is TupleKind.OBJECT:
            obj = item.payload
            name = (obj.text, obj.location.x, obj.location.y)
        else:
            name = ordinals.setdefault(item.payload.query_id, len(ordinals))
        rows.append((item.kind.value, name, item.arrival_time))
    live = [ordinals[query.query_id] for query in stream.live_queries()]
    return tuple(
        hashlib.sha256(repr(part).encode()).hexdigest()[:16] for part in (rows, live)
    )


class TestStreamDigest:
    """The generated stream is pinned element for element.

    Every benchmark workload and seeded test is a function of this
    sequence, so a generator optimisation must leave it — and the
    ``live_queries()`` order — exactly as it was (the digests predate
    the O(1) deletion in ``_expired_query``).
    """

    @pytest.mark.parametrize(
        "group, objects_per_update, expected",
        [
            ("Q1", 5, ("a4c7fb4510859555", "793be5db26c3a5bd")),
            ("Q3", 1, ("060d21bef895dab1", "4b61c16507e061fd")),
        ],
    )
    def test_stream_matches_pinned_digest(self, group, objects_per_update, expected):
        stream = make_stream(mu=300, group=group, objects_per_update=objects_per_update)
        assert stream_digest(stream, 1500) == expected
