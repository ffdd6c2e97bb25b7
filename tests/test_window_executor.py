"""The window executor's segmentation, pinned op by op.

The report matrices (``test_batched.py``, ``test_dispatch.py``) compare
whole-run reports.  This file pins what they cannot see: the ordered
per-worker ``RouteBatch`` ops the deferred-barrier executor ships through
``transport.submit`` (the per-tuple driver through ``transport.exchange``)
for one crafted stream that takes each flush
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
ship.  Delivered ``(query, object)`` pairs must equal the brute-force
oracle (``harness.brute_force``).

On every worker backend the segments of a window travel together: one
submission per window whose per-worker ops are the window's segments,
concatenated in flush order.
"""

import pytest

from repro.core import Point, Rect, STSQuery, SpatioTextualObject, StreamTuple
from repro.partitioning.base import PartitionPlan, PartitionUnit
from repro.runtime import Cluster, ClusterConfig, SinkSpec
from repro.runtime.transport import DeleteById, InsertPairs, MatchObjects

from harness import brute_force, needs_cores

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
    """The crafted stream plus the one submission it must produce."""

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
    # One RouteBatch per worker: the window's five segments, each worker's
    # share concatenated in flush order.
    one_window = {
        0: [
            ("insert", 1),  # segment 1: the opening insertions, flushed alone
            ("insert", 3),  # segment 2: q3 flushed alone
            ("match", 101, 103), ("insert", 4),  # segment 3: objects, then q4
            ("match", 105), ("delete", 1),  # segment 4: objects, then q1's deletion
            ("match", 106),  # segment 5: the end-of-window flush
        ],
        1: [
            ("insert", 2),  # segment 1
            ("match", 102),  # segment 3
            ("delete", 2),  # segment 5
        ],
    }
    return stream, [one_window]


def describe(op):
    if type(op) is MatchObjects:
        return ("match", *[row[0] for row in op.rows])
    if type(op) is InsertPairs:
        return ("insert", op.query.query_id)
    assert type(op) is DeleteById, op
    return ("delete", op.query_id)


def replay(stream, *, dispatch, shards, mode, backend="inprocess"):
    """Replay on one routing source; returns (shipped ops, delivered pairs)."""
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

        def recording(ship):
            def recorded(batches):
                exchanges.append(
                    {
                        worker_id: [describe(op) for op in batches[worker_id].ops]
                        for worker_id in sorted(batches)
                    }
                )
                return ship(batches)

            return recorded

        # A window ships through ``submit`` (it settles later).  The
        # per-tuple driver exchanges each tuple at once when it routes
        # inline; on dispatch shards its tuple is a window of one.
        transport = cluster.transport
        transport.submit = recording(transport.submit)
        if mode == "per-tuple":
            transport.exchange = recording(transport.exchange)
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
        # One shipment per tuple that reaches a worker (104 is discarded).
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
        assert exchanges == one_window
    else:
        reference, _ = replay(stream, dispatch="inline", shards=4, mode=mode)
        assert exchanges == reference
    assert delivered == brute_force(stream)
