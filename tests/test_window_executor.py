"""The window executor's segmentation, pinned op by op.

The report matrices (``test_batched.py``, ``test_dispatch.py``) compare
whole-run reports.  This file pins what they cannot see: the ordered
per-worker ``RouteBatch`` ops the deferred-barrier executor ships through
``transport.exchange`` for one crafted stream that takes each flush
branch —

* an update that arrives with nothing pending (the opening insertions),
* an update that touches only cells holding no pending object (flushed
  alone while the object run keeps growing),
* an update that touches a pending object's cell (objects first, then the
  update),

— and requires the sequence to be the same whichever routing source fed
the executor: inline routing, ``inprocess`` dispatch shards (1 and 4), as
one window and as windows of one — and requires the per-tuple driver
(``Cluster.process``) to ship, op type for op type, what windows of one
ship.  Delivered ``(query, object)`` pairs must equal a brute-force
``STSQuery.matches`` replay in stream order.

Where an exchange is a round trip (remote worker backends) the segments
of a window travel together: one exchange per window whose per-worker
ops are the concatenation, in flush order, of what the in-process
executor ships segment by segment.
"""

import pytest

from repro.core import Point, Rect, STSQuery, SpatioTextualObject, StreamTuple, TupleKind
from repro.partitioning.base import PartitionPlan, PartitionUnit
from repro.runtime import Cluster, ClusterConfig, SinkSpec
from repro.runtime.transport import DeleteById, InsertPairs, MatchObjects
from test_chaos import needs_cores

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)
GRANULARITY = 4  # 25 x 25 cells; worker 0 owns columns 0-1, worker 1 columns 2-3
CELL_A = Point(10.0, 10.0)  # cell (0, 0), worker 0
CELL_B = Point(60.0, 10.0)  # cell (2, 0), worker 1
CELL_C = Point(30.0, 60.0)  # cell (1, 2), worker 0
CELL_D = Point(90.0, 90.0)  # cell (3, 3), worker 1


def make_plan():
    return PartitionPlan(
        units=[
            PartitionUnit(Rect(0.0, 0.0, 50.0, 100.0), None, 0),
            PartitionUnit(Rect(50.0, 0.0, 100.0, 100.0), None, 1),
        ],
        num_workers=2,
        bounds=BOUNDS,
        object_filtering=True,
    )


def make_stream():
    """The crafted stream plus the segmentation it must produce."""

    def query(keyword, center, query_id):
        return STSQuery.create(keyword, Rect.from_center(center, 4.0, 4.0), query_id=query_id)

    def obj(text, location, object_id):
        return StreamTuple.object(SpatioTextualObject.create(text, location, object_id=object_id))

    q1 = query("alpha", CELL_A, 1)
    q2 = query("beta", CELL_B, 2)
    q3 = query("gamma", CELL_C, 3)
    q4 = query("delta", CELL_A, 4)
    stream = [
        StreamTuple.insert(q1),  # nothing pending
        StreamTuple.insert(q2),
        obj("alpha", CELL_A, 101),  # touched cell, no pending object: updates flush alone
        StreamTuple.insert(q3),  # touches only a cell without pending objects
        obj("beta", CELL_B, 102),  # untouched cell: joins the run
        obj("gamma", CELL_C, 103),  # q3 flushes alone, 101/102 stay pending
        obj("omega", CELL_D, 104),  # no posting keyword: discarded by the dispatcher
        StreamTuple.insert(q4),  # touches pending object 101's cell
        obj("delta", CELL_A, 105),  # full flush: objects, then q4
        StreamTuple.delete(q1),  # touches pending object 105's cell
        obj("alpha delta", CELL_A, 106),  # full flush; must no longer match q1
        StreamTuple.delete(q2),  # left for the end-of-window flush
    ]
    one_window = [
        {0: [("insert", 1)], 1: [("insert", 2)]},
        {0: [("insert", 3)]},
        {0: [("match", 101, 103), ("insert", 4)], 1: [("match", 102)]},
        {0: [("match", 105), ("delete", 1)]},
        {0: [("match", 106)], 1: [("delete", 2)]},
    ]
    return stream, one_window


def brute_force(stream, live=None):
    """Delivered pairs of a sequential replay: the semantics of record.

    ``live`` (query id -> query) carries the registered population across
    calls and is updated in place.
    """
    live = {} if live is None else live
    pairs = set()
    for item in stream:
        if item.kind is TupleKind.OBJECT:
            pairs.update(
                (query.query_id, item.payload.object_id)
                for query in live.values()
                if query.matches(item.payload)
            )
        elif item.kind is TupleKind.INSERT:
            live[item.payload.query.query_id] = item.payload.query
        else:
            live.pop(item.payload.query.query_id, None)
    return pairs


def describe(op):
    if type(op) is MatchObjects:
        return ("match", *[obj.object_id for obj in op.objects])
    if type(op) is InsertPairs:
        return ("insert", op.query.query_id)
    assert type(op) is DeleteById, op
    return ("delete", op.query_id)


def replay(stream, *, dispatch, shards, mode, backend="inprocess"):
    """Replay on one routing source; returns (exchanged ops, delivered pairs)."""
    config = ClusterConfig(
        num_dispatchers=shards,
        num_workers=2,
        num_mergers=1,
        granularity=GRANULARITY,
        backend=backend,
        dispatch_backend=dispatch,
        sink=SinkSpec(kind="memory"),
    )
    exchanges = []
    with Cluster(make_plan(), config) as cluster:
        exchange = cluster.transport.exchange

        def recording_exchange(batches):
            exchanges.append(
                {
                    worker_id: [describe(op) for op in batches[worker_id].ops]
                    for worker_id in sorted(batches)
                }
            )
            return exchange(batches)

        cluster.transport.exchange = recording_exchange
        if mode == "one-window":
            cluster.process_batch(stream)
        elif mode == "windows-of-one":
            for item in stream:
                cluster.process_batch([item])
        else:
            for item in stream:
                cluster.process(item)
        assert cluster.report().tuples_processed == len(stream)
        delivered = {
            (result.query_id, result.object_id)
            for results in cluster.drain_sinks().values()
            for result in results
        }
    return exchanges, delivered


SOURCES = [("inline", 4), ("inprocess", 1), ("inprocess", 4)]


@pytest.mark.parametrize("mode", ["one-window", "windows-of-one", "per-tuple"])
def test_routing_sources_ship_identical_ops(mode):
    stream, one_window = make_stream()
    expected_pairs = brute_force(stream)
    assert expected_pairs == {(1, 101), (2, 102), (3, 103), (4, 105), (4, 106)}
    runs = {
        source: replay(stream, dispatch=source[0], shards=source[1], mode=mode)
        for source in SOURCES
    }
    reference, _ = runs[SOURCES[0]]
    if mode == "one-window":
        assert reference == one_window
    else:
        # One exchange per tuple that reaches a worker (104 is discarded).
        assert len(reference) == len(stream) - 1
    if mode == "per-tuple":
        windows_of_one, _ = replay(stream, dispatch="inline", shards=4, mode="windows-of-one")
        assert reference == windows_of_one
    for source, (exchanges, delivered) in runs.items():
        assert exchanges == reference, source
        assert delivered == expected_pairs, source


@needs_cores
@pytest.mark.parametrize("mode", ["one-window", "windows-of-one", "per-tuple"])
def test_remote_workers_get_one_batch_per_window(mode):
    stream, one_window = make_stream()
    exchanges, delivered = replay(
        stream, dispatch="inline", shards=4, mode=mode, backend="multiprocess"
    )
    if mode == "one-window":
        concatenated = {}
        for segment in one_window:
            for worker_id, ops in segment.items():
                concatenated.setdefault(worker_id, []).extend(ops)
        assert concatenated == {
            0: [
                ("insert", 1), ("insert", 3), ("match", 101, 103), ("insert", 4),
                ("match", 105), ("delete", 1), ("match", 106),
            ],
            1: [("insert", 2), ("match", 102), ("delete", 2)],
        }
        assert exchanges == [concatenated]
    else:
        # A window of one has one segment: nothing to coalesce.
        reference, _ = replay(stream, dispatch="inline", shards=4, mode=mode)
        assert exchanges == reference
    assert delivered == brute_force(stream)
