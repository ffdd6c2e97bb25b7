"""Domain objects: spatio-textual objects, STS queries and stream tuples.

These are the value types exchanged between every component of PS2Stream:
the workload generators emit them, dispatchers route them, workers index and
match them, and mergers deliver match results to subscribers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, FrozenSet, Iterable, NamedTuple, Optional, Set, Tuple, Union

from .expression import BooleanExpression
from .geometry import Point, Rect
from .text import tokenize

__all__ = [
    "ObjectRow",
    "SpatioTextualObject",
    "STSQuery",
    "QueryInsertion",
    "QueryDeletion",
    "MatchResult",
    "StreamTuple",
    "TupleKind",
]


_object_ids = itertools.count(1)
_query_ids = itertools.count(1)

#: The wire form of an object heading for a worker: ``(object_id, x, y,
#: terms)``.  Matching reads exactly these four values, so that is all
#: that crosses the data plane — never the raw text or a ``Point``.
ObjectRow = Tuple[int, float, float, FrozenSet[str]]


@dataclass(frozen=True)
class SpatioTextualObject:
    """A spatio-textual object ``o = <text, loc>`` (Definition in §III-A).

    ``terms`` is the tokenised, de-duplicated text content; matching only
    depends on term presence, so the raw text is kept for delivery but the
    frozen term set is what the indexes use.
    """

    object_id: int
    text: str
    location: Point
    terms: FrozenSet[str]
    timestamp: float = 0.0

    @classmethod
    def create(
        cls,
        text: str,
        location: Point,
        *,
        object_id: Optional[int] = None,
        timestamp: float = 0.0,
        terms: Optional[Iterable[str]] = None,
    ) -> "SpatioTextualObject":
        """Build an object from raw text, tokenising it on the way.

        A caller that built ``text`` from its tokens passes them as
        ``terms`` instead; they must equal ``tokenize(text)`` as a set.
        """
        return cls(  # positional: a third cheaper per object than by keyword
            object_id if object_id is not None else next(_object_ids),
            text,
            location,
            frozenset(tokenize(text) if terms is None else terms),
            timestamp,
        )

    def row(self) -> ObjectRow:
        """The object as a worker reads it (:data:`ObjectRow`)."""
        location = self.location
        return (self.object_id, location.x, location.y, self.terms)


@dataclass(frozen=True)
class STSQuery:
    """A Spatio-Textual Subscription query ``q = <K, R>`` (§III-A).

    ``expression`` is the boolean keyword expression ``q.K`` and ``region``
    the rectangle ``q.R``.  A query is a standing subscription: it stays in
    the system until the subscriber drops it.
    """

    query_id: int
    expression: BooleanExpression
    region: Rect
    subscriber_id: int = 0
    timestamp: float = 0.0

    @classmethod
    def create(
        cls,
        expression: Union[str, BooleanExpression],
        region: Rect,
        *,
        query_id: Optional[int] = None,
        subscriber_id: int = 0,
        timestamp: float = 0.0,
    ) -> "STSQuery":
        """Build a query, parsing the expression when given as a string."""
        if isinstance(expression, str):
            expression = BooleanExpression.parse(expression)
        return cls(
            query_id=query_id if query_id is not None else next(_query_ids),
            expression=expression,
            region=region,
            subscriber_id=subscriber_id,
            timestamp=timestamp,
        )

    # ------------------------------------------------------------------
    # Matching semantics (§III-A)
    # ------------------------------------------------------------------
    def matches(self, obj: SpatioTextualObject) -> bool:
        """True when ``obj`` is a result of this query.

        The object must lie inside the query region *and* satisfy the
        boolean keyword expression.
        """
        return self.region.contains_point(obj.location) and self.expression.matches(obj.terms)

    def keywords(self) -> Set[str]:
        """All keywords appearing in the expression."""
        return self.expression.keywords()

    def size_bytes(self) -> int:
        """Approximate serialised size, used for migration-cost accounting.

        The estimate covers the rectangle (4 doubles), identifiers and the
        keyword payload; it only needs to be *consistent* across queries so
        that relative migration costs are meaningful.  The query is
        immutable, so the value is memoised (the adjusters recompute cell
        sizes every measurement period).  The memo is process-local: it
        never crosses a pickle (see :meth:`__reduce__`).
        """
        cached = getattr(self, "_size_cache", None)
        if cached is not None:
            return cached
        keyword_bytes = sum(len(keyword) for keyword in self.keywords())
        size = 48 + 8 * self.expression.clause_count() + 2 * keyword_bytes
        # Frozen dataclass; the memo is not a field, so equality and
        # hashing are unaffected.
        object.__setattr__(self, "_size_cache", size)
        return size

    def __reduce__(self) -> Tuple[Any, ...]:
        """Pickle the declared fields positionally (the fabric's wire contract)."""
        return (
            type(self),
            (self.query_id, self.expression, self.region, self.subscriber_id, self.timestamp),
        )


class TupleKind(Enum):
    """The three kinds of tuples a dispatcher receives (§III-B)."""

    OBJECT = "object"
    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True)
class QueryInsertion:
    """A request to register a new STS query."""

    query: STSQuery
    timestamp: float = 0.0

    @property
    def query_id(self) -> int:
        return self.query.query_id


@dataclass(frozen=True)
class QueryDeletion:
    """A request to drop an existing STS query.

    The paper notes that deletion requests carry the complete query
    information, which the dispatcher needs in order to route the deletion
    to every worker holding a replica.
    """

    query: STSQuery
    timestamp: float = 0.0

    @property
    def query_id(self) -> int:
        return self.query.query_id


class MatchResult(NamedTuple):
    """A (query, object) match produced by a worker and emitted by a merger.

    A named tuple, built positionally on the worker's hot path: no
    ``__dict__``, a third of a frozen dataclass's construction cost, 40 %
    fewer pickled bytes, and (holding only scalars) dropped from GC
    tracking at its first collection.
    """

    query_id: int
    object_id: int
    subscriber_id: int = 0
    worker_id: Optional[int] = None

    def key(self) -> Tuple[int, int]:
        """Deduplication key used by the merger."""
        return (self.query_id, self.object_id)


@dataclass(frozen=True)
class StreamTuple:
    """A single element of the input stream presented to a dispatcher."""

    kind: TupleKind
    payload: Union[SpatioTextualObject, QueryInsertion, QueryDeletion]
    arrival_time: float = 0.0

    @classmethod
    def object(cls, obj: SpatioTextualObject, arrival_time: float = 0.0) -> "StreamTuple":
        return cls(TupleKind.OBJECT, obj, arrival_time)

    @classmethod
    def insert(cls, query: STSQuery, arrival_time: float = 0.0) -> "StreamTuple":
        return cls(TupleKind.INSERT, QueryInsertion(query, arrival_time), arrival_time)

    @classmethod
    def delete(cls, query: STSQuery, arrival_time: float = 0.0) -> "StreamTuple":
        return cls(TupleKind.DELETE, QueryDeletion(query, arrival_time), arrival_time)
