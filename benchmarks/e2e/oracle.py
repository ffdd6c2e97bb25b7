"""Brute-force oracle and exactly-once check for the delivery log.

The oracle replays the stream's inserts and deletes into a plain dict and,
for a seed-chosen sample of body objects, evaluates every live query with
:meth:`STSQuery.matches` semantics (a bounding-box pre-filter on the raw
rectangle first, the boolean expression second).  The delivered query-id
set of each sampled object must equal the brute-force set; no
``(query, object)`` pair may be delivered twice; the delivery count must
equal ``RunReport.matches_delivered`` and be identical on every pass.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, FrozenSet, List, Sequence, Set

from repro.core.objects import StreamTuple, TupleKind

__all__ = ["SAMPLE_SIZE", "expected_matches", "failed_objects"]

#: Body objects checked against brute force, per workload.
SAMPLE_SIZE = 200


def expected_matches(
    tuples: Sequence[StreamTuple], body_start: int, seed: int
) -> Dict[int, FrozenSet[int]]:
    """``{object id: brute-force query ids}`` for the sampled body objects."""
    positions = [
        index
        for index in range(body_start, len(tuples))
        if tuples[index].kind is TupleKind.OBJECT
    ]
    chosen = set(random.Random(seed).sample(positions, min(SAMPLE_SIZE, len(positions))))
    live: Dict[int, tuple] = {}
    expected: Dict[int, FrozenSet[int]] = {}
    for index, item in enumerate(tuples):
        kind = item.kind
        if kind is TupleKind.INSERT:
            query = item.payload.query
            region = query.region
            live[query.query_id] = (
                region.min_x, region.min_y, region.max_x, region.max_y, query
            )
        elif kind is TupleKind.DELETE:
            live.pop(item.payload.query_id, None)
        elif index in chosen:
            obj = item.payload
            x, y = obj.location.x, obj.location.y
            expected[obj.object_id] = frozenset(
                query_id
                for query_id, (min_x, min_y, max_x, max_y, query) in live.items()
                if min_x <= x <= max_x and min_y <= y <= max_y and query.matches(obj)
            )
    return expected


def failed_objects(
    queries: array,
    objects: array,
    expected: Dict[int, FrozenSet[int]],
    reported_delivered: int,
    reference_count: int,
    body_objects: int,
) -> int:
    """How many of a pass's objects failed (0 on a clean pass).

    A delivery count that disagrees with the run report or with the first
    pass fails every object of the pass; otherwise an object fails when one
    of its pairs was delivered twice or, for sampled objects, when its
    delivered set differs from brute force.
    """
    if len(queries) != reported_delivered or len(queries) != reference_count:
        return body_objects
    seen: Set[tuple] = set()
    delivered: Dict[int, List[int]] = {object_id: [] for object_id in expected}
    failed: Set[int] = set()
    for pair in zip(queries, objects):
        if pair in seen:
            failed.add(pair[1])
        seen.add(pair)
        bucket = delivered.get(pair[1])
        if bucket is not None:
            bucket.append(pair[0])
    for object_id, query_ids in delivered.items():
        if frozenset(query_ids) != expected[object_id]:
            failed.add(object_id)
    return len(failed)
