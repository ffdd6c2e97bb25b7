"""The sharded dispatch subsystem, past report equality.

The conformance matrix (``test_report_golden.py``) holds routing on
dispatcher shards — each owning its own replica of the routing index, in
the coordinator's interpreter (``inprocess``), one OS process per shard
(``multiprocess``) or one loopback TCP endpoint per shard (``socket``) —
to the inline run's report, rounds and delivered set.  This file pins
that worker-observable outcomes do not depend on the shard *count*, and
the shards' own mechanics.
"""

import copy
import pickle

import pytest

from repro.core import Point, Rect, SpatioTextualObject, STSQuery, TermStatistics
from repro.core.objects import StreamTuple, TupleKind
from repro.indexes.gridt import GridTIndex
from repro.runtime import (
    Cluster,
    ClusterConfig,
    InProcessDispatch,
    TransportError,
)

from repro.runtime.dispatch import (
    DispatchHost,
    RouteWindow,
    SyncRoutingIndex,
    _split_window,
    plan_update,
)

from harness import make_workload, run

WORKER_SIDE_FIELDS = [
    "tuples_processed",
    "objects_processed",
    "insertions_processed",
    "deletions_processed",
    "worker_loads",
    "worker_memory",
    "matches_produced",
    "matches_delivered",
    "object_fanout",
    "query_fanout",
]


class TestDispatchParity:
    def test_worker_side_invariant_across_shard_counts(self):
        """1 vs N shards: everything the workers observe is identical.

        Routing decisions do not depend on how many dispatchers compute
        them, so worker loads, memory, matches and fanout must agree;
        only the dispatcher-count-dependent fields (throughput bottleneck,
        latency, per-dispatcher memory keys) may differ — exactly as when
        the paper scales dispatchers in Figure 11.
        """
        plan, tuples = make_workload()
        one, _ = run(plan, tuples, dispatch="inprocess", dispatchers=1, batch_size=128)
        four, _ = run(plan, tuples, dispatch="inprocess", dispatchers=4, batch_size=128)
        for field in WORKER_SIDE_FIELDS:
            assert getattr(one, field) == getattr(four, field), field


class TestDispatchMechanics:
    def test_measured_shard_memory_matches_analytic(self):
        """Fig 9: per-shard measured replica bytes == the analytic estimate."""
        plan, tuples = make_workload(num_objects=300)
        config = ClusterConfig(num_dispatchers=3, num_workers=4,
                               dispatch_backend="inprocess")
        with Cluster(plan, config) as cluster:
            cluster.run_batched(tuples, batch_size=128)
            measured = cluster.dispatcher_memory_report()
            analytic = cluster.routing_index.memory_bytes()
        assert set(measured) == {0, 1, 2}
        assert all(value == analytic for value in measured.values())

    def test_replicas_resync_after_manual_migration(self):
        """An out-of-band migrate_cells re-syncs every shard replica."""
        plan, tuples = make_workload(num_objects=500)

        def run(dispatch):
            config = ClusterConfig(num_dispatchers=2, num_workers=4,
                                   dispatch_backend=dispatch)
            with Cluster(plan, config) as cluster:
                cluster.run_batched(tuples[:300], batch_size=64)
                loads = cluster.worker_load_report()
                source, target = loads.most_loaded(), loads.least_loaded()
                cells = [s.cell for s in cluster.worker_cell_stats(source)[:4]]
                assert cells, "the loaded worker must own cells"
                record = cluster.migrate_cells(source, target, cells)
                cluster.run_batched(tuples[300:], batch_size=64)
                report = cluster.report()
            return record, report

        ref_record, ref_report = run("inline")
        record, report = run("multiprocess")
        assert record == ref_record
        assert report == ref_report

    def test_barrier_epochs_advance(self):
        plan, _ = make_workload(num_objects=0)
        config = ClusterConfig(num_dispatchers=2, num_workers=2,
                               dispatch_backend="multiprocess")
        with Cluster(plan, config) as cluster:
            assert cluster._dispatch.backend_name == "multiprocess"
            assert cluster._dispatch.barrier() == 1
            assert cluster._dispatch.barrier() == 2

    def test_inprocess_backend_is_reference(self):
        plan, _ = make_workload(num_objects=0)
        config = ClusterConfig(num_dispatchers=2, num_workers=2,
                               dispatch_backend="inprocess")
        with Cluster(plan, config) as cluster:
            assert isinstance(cluster._dispatch, InProcessDispatch)
            assert cluster._dispatch.num_shards == 2

    def test_close_is_idempotent_and_ends_shards(self):
        plan, _ = make_workload(num_objects=0)
        config = ClusterConfig(num_dispatchers=2, num_workers=2,
                               dispatch_backend="multiprocess")
        cluster = Cluster(plan, config)
        processes = list(cluster._dispatch._fleet.processes.values())
        assert all(process.is_alive() for process in processes)
        cluster.close()
        cluster.close()
        assert all(not process.is_alive() for process in processes)

    def test_unknown_dispatch_backend_rejected(self):
        plan, _ = make_workload(num_objects=0)
        with pytest.raises(ValueError, match="unknown dispatch backend"):
            Cluster(plan, ClusterConfig(num_workers=2, dispatch_backend="smoke-signals"))

    def test_shard_errors_surface_as_transport_errors(self):
        """A shard that cannot route (never synced) raises TransportError."""
        from repro.runtime.dispatch import _ShardRouter

        router = _ShardRouter(0, 2)
        with pytest.raises(TransportError, match="before sync"):
            router.route_window([], [], 0)


class TestShardRowLoop:
    """The shard's one pass over object rows and updates, held to the
    sequential rules on a copy of the index."""

    def test_clamped_uncovered_and_interleaved_updates(self):
        stats = TermStatistics()
        stats.add_document(["kobe"] * 5 + ["jazz"] * 3 + ["music"])
        # Left half space-partitioned, a text square top right; the bottom
        # right quarter is uncovered (fallback).
        index = GridTIndex.from_assignments(
            Rect(0, 0, 100, 100),
            [(Rect(0, 0, 50, 100), None, 0),
             (Rect(50, 50, 100, 100), {"kobe": 1, "jazz": 2, "music": 2}, 1)],
            granularity=10, term_statistics=stats, object_filtering=True,
        )
        resident = STSQuery.create("kobe OR music", Rect(0, 0, 100, 100))
        index.insertion_plan_apply(resident)
        early = STSQuery.create("jazz", Rect(60, 5, 95, 40))    # uncovered cells
        late = STSQuery.create("jazz AND kobe", Rect(0, 80, 100, 100))

        def obj(text, x, y):
            return StreamTuple.object(SpatioTextualObject.create(text, Point(x, y)))

        items = [
            StreamTuple.insert(early),
            obj("jazz", 70, 20),           # uncovered cell, fallback posting
            obj("kobe", -30, 120),         # outside the bounds: clamped
            obj("music", 250, -4),         # clamped into an uncovered corner
            StreamTuple.delete(resident),
            obj("kobe music", 20, 20),
            obj("jazz", 99.99, 5),
            StreamTuple.insert(late),
            obj("jazz kobe", 75, 90),
            obj("jazz", 70, 20),
            StreamTuple.delete(early),
            StreamTuple.insert(resident),
        ]
        base, num_shards = 1, 2
        oracle = copy.deepcopy(index)
        expected_decisions, expected_plans = {}, {}
        for position, item in enumerate(items):
            if item.kind is TupleKind.OBJECT:
                location = item.payload.location
                cell = oracle.grid.cell_at(location.x, location.y)
                expected_decisions[position] = oracle.route_cell(cell, item.payload.terms)
            else:
                expected_plans[position] = plan_update(oracle, item)
        assert any(expected_decisions.values()) and not all(expected_decisions.values())

        payload = pickle.dumps(index)
        object_slices, updates = _split_window(items, base, num_shards)
        decisions, plans = {}, {}
        for shard_id in range(num_shards):
            host = DispatchHost(shard_id, {"num_shards": num_shards})
            host.handle(SyncRoutingIndex(payload, 1))
            reply = host.handle(RouteWindow(1, base, object_slices[shard_id], updates))
            for position, decision in reply.decisions:
                decisions[position] = decision
            for position, is_insert, per_worker, cells in reply.plans:
                plans[position] = (is_insert, per_worker, cells)
            replica = host.router.index
            assert replica.memory_bytes() == oracle.memory_bytes()
            assert {c: cell.h2 for c, cell in replica.cells().items()} == {
                c: cell.h2 for c, cell in oracle.cells().items()
            }
        assert decisions == expected_decisions
        assert plans == expected_plans
