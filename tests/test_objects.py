"""Unit tests for the domain objects (objects, queries, tuples)."""


from repro.core import (
    BooleanExpression,
    Point,
    QueryDeletion,
    QueryInsertion,
    Rect,
    STSQuery,
    SpatioTextualObject,
    StreamTuple,
    TupleKind,
)
from repro.core.objects import MatchResult


class TestSpatioTextualObject:
    def test_create_tokenises_text(self):
        obj = SpatioTextualObject.create("Kobe has retired", Point(1, 2))
        assert obj.terms == frozenset({"kobe", "retired"})
        assert obj.location == Point(1, 2)

    def test_create_assigns_unique_ids(self):
        a = SpatioTextualObject.create("x", Point(0, 0))
        b = SpatioTextualObject.create("y", Point(0, 0))
        assert a.object_id != b.object_id

    def test_explicit_id_respected(self):
        obj = SpatioTextualObject.create("x", Point(0, 0), object_id=1234)
        assert obj.object_id == 1234


class TestSTSQuery:
    def test_create_parses_string_expression(self):
        query = STSQuery.create("kobe AND retired", Rect(0, 0, 10, 10))
        assert query.keywords() == {"kobe", "retired"}

    def test_create_accepts_expression_object(self):
        expr = BooleanExpression.disjunction(["a", "b"])
        query = STSQuery.create(expr, Rect(0, 0, 1, 1))
        assert query.expression is expr

    def test_matching_requires_location_and_text(self):
        query = STSQuery.create("kobe AND retired", Rect(0, 0, 10, 10))
        inside_match = SpatioTextualObject.create("kobe retired today", Point(5, 5))
        outside_match = SpatioTextualObject.create("kobe retired today", Point(50, 5))
        inside_nomatch = SpatioTextualObject.create("kobe dunks", Point(5, 5))
        assert query.matches(inside_match)
        assert not query.matches(outside_match)
        assert not query.matches(inside_nomatch)

    def test_boundary_location_matches(self):
        query = STSQuery.create("storm", Rect(0, 0, 10, 10))
        obj = SpatioTextualObject.create("storm", Point(10, 0))
        assert query.matches(obj)

    def test_or_query_matching(self):
        query = STSQuery.create("kobe OR lebron", Rect(0, 0, 10, 10))
        assert query.matches(SpatioTextualObject.create("lebron wins", Point(1, 1)))

    def test_size_bytes_grows_with_keywords(self):
        small = STSQuery.create("a", Rect(0, 0, 1, 1))
        large = STSQuery.create("alpha AND beta AND gamma", Rect(0, 0, 1, 1))
        assert large.size_bytes() > small.size_bytes()

    def test_unique_query_ids(self):
        a = STSQuery.create("a", Rect(0, 0, 1, 1))
        b = STSQuery.create("a", Rect(0, 0, 1, 1))
        assert a.query_id != b.query_id


class TestRequestsAndResults:
    def test_insertion_exposes_query_id(self):
        query = STSQuery.create("a", Rect(0, 0, 1, 1))
        assert QueryInsertion(query).query_id == query.query_id

    def test_deletion_exposes_query_id(self):
        query = STSQuery.create("a", Rect(0, 0, 1, 1))
        assert QueryDeletion(query).query_id == query.query_id

    def test_match_result_key(self):
        result = MatchResult(query_id=7, object_id=9, subscriber_id=1)
        assert result.key() == (7, 9)


class TestStreamTuple:
    def test_object_tuple(self):
        obj = SpatioTextualObject.create("x", Point(0, 0))
        item = StreamTuple.object(obj, arrival_time=3.0)
        assert item.kind is TupleKind.OBJECT
        assert item.payload is obj
        assert item.arrival_time == 3.0

    def test_insert_tuple_wraps_query(self):
        query = STSQuery.create("a", Rect(0, 0, 1, 1))
        item = StreamTuple.insert(query, arrival_time=1.0)
        assert item.kind is TupleKind.INSERT
        assert isinstance(item.payload, QueryInsertion)
        assert item.payload.query is query

    def test_delete_tuple_wraps_query(self):
        query = STSQuery.create("a", Rect(0, 0, 1, 1))
        item = StreamTuple.delete(query)
        assert item.kind is TupleKind.DELETE
        assert isinstance(item.payload, QueryDeletion)
