"""The pluggable worker transport, past report equality.

The conformance matrix (``test_report_golden.py``) holds the
``multiprocess`` and ``socket`` worker backends (one OS process per
worker; ``repro serve`` endpoints over loopback TCP) to the in-process
run's report and to the oracle.  This file pins what a report cannot
show: the delivery *order*, direct ``process_batch`` windows mixed with
per-tuple calls, a manual migration between processes, the worker
control surface and its traffic, and the transport's own mechanics.
"""

import functools
import re

import pytest

from repro.adjustment import GlobalAdjuster, GreedySelector, LocalLoadAdjuster
from repro.core import Rect
from repro.partitioning import HybridPartitioner
from repro.runtime import (
    Cluster,
    ClusterConfig,
    InProcessTransport,
    SinkSpec,
    TransportError,
    WorkerNode,
)
from repro.runtime.transport import WorkerProxy

from harness import (
    DATA_PLANE,
    available_backends,
    control_sends,
    counted_worker_sends,
    global_scenario,
    local_scenario,
    make_alpha_beta_workload,
    make_workload,
    require_loopback,
    run,
)

#: The out-of-process deployments pinned against the in-process reference.
REMOTE_BACKENDS = available_backends(["multiprocess", "socket"])


def run_local_scenario(plan, tuples, backend):
    adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.2)
    run(plan, tuples, backend=backend, batch_size=128, adjust_every=400, local_adjuster=adjuster)
    return adjuster.history


def run_global_scenario(plan, tuples, backend):
    adjuster = GlobalAdjuster(HybridPartitioner(), improvement_threshold=0.01)
    run(plan, tuples, backend=backend, batch_size=100, adjust_every=250, global_adjuster=adjuster)
    return [(entry.checked, entry.repartitioned, entry.finalized) for entry in adjuster.history]


@functools.lru_cache(maxsize=None)
def ordered_deliveries(backend):
    """A closed-loop, checkpointed replay of the alpha/beta stream:
    (report, every delivery in sink order)."""
    plan, tuples = make_alpha_beta_workload()
    delivered = []
    config = ClusterConfig(
        num_dispatchers=2, num_workers=4, backend=backend, checkpoint_every=250,
        sink=SinkSpec(
            kind="callback",
            callback=lambda result: delivered.append((result.query_id, result.object_id)),
        ),
    )
    with Cluster(plan, config) as cluster:
        report = cluster.run_batched(
            tuples, batch_size=64, adjust_every=400,
            local_adjuster=LocalLoadAdjuster(GreedySelector(), sigma=1.2),
        )
    return report, delivered


@functools.lru_cache(maxsize=None)
def interleaved(backend):
    """The alpha/beta stream driven by hand: direct windows alternating
    with per-tuple calls, the sinks drained every third chunk."""
    plan, tuples = make_alpha_beta_workload()
    config = ClusterConfig(
        num_dispatchers=2, num_workers=4, backend=backend, sink=SinkSpec(kind="memory"),
    )
    drained = []
    with Cluster(plan, config) as cluster:
        for index, start in enumerate(range(0, len(tuples), 97)):
            window = tuples[start:start + 97]
            if index % 2 == 0:
                cluster.process_batch(window)
            else:
                drained.append(("process", [sorted(cluster.process(i)) for i in window]))
            if index % 3 == 2:
                drained.append(("sinks", [
                    (result.query_id, result.object_id)
                    for _, results in sorted(cluster.drain_sinks().items())
                    for result in results
                ]))
        return cluster.report(), drained


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", REMOTE_BACKENDS)
    def test_deliveries_keep_stream_order(self, backend):
        """The sink sees the same delivery *sequence*, not just the same set.

        Over a fabric the replay settles each window one window late; its
        deliveries must still leave in stream order, across a Section V
        round at 400 and the checkpoints at 0, 250 and 650, whose fences
        settle the window in flight first.
        """
        ref_report, reference = ordered_deliveries("inprocess")
        assert ref_report.deletions_processed > 0, "stream must exercise deletions"
        assert ref_report.recovery.checkpoints_taken == 4
        assert len(reference) > 1000
        assert ordered_deliveries(backend) == (ref_report, reference)

    @pytest.mark.parametrize("backend", REMOTE_BACKENDS)
    def test_direct_windows_interleave_with_per_tuple_calls(self, backend):
        """Over a fabric a direct ``process_batch`` returns with its window
        in flight; ``process``, ``drain_sinks`` and ``report`` settle it
        first, so driving the cluster by hand keeps the request/reply
        pairing and the delivery order of the in-process run."""
        ref_report, reference = interleaved("inprocess")
        assert sum(len(chunk) for kind, chunk in reference if kind == "sinks") > 500
        assert interleaved(backend) == (ref_report, reference)

    def test_explicit_migration_between_processes(self):
        """migrate_cells ships assignments between worker processes."""
        plan, tuples = make_workload(num_objects=400)

        def migrate(backend):
            config = ClusterConfig(num_dispatchers=2, num_workers=4, backend=backend)
            with Cluster(plan, config) as cluster:
                cluster.run_batched(tuples, batch_size=128)
                loads = cluster.worker_load_report()
                source, target = loads.most_loaded(), loads.least_loaded()
                cells = [s.cell for s in cluster.worker_cell_stats(source)[:4]]
                assert cells, "the loaded worker must own cells"
                record = cluster.migrate_cells(source, target, cells)
                report = cluster.report()
                populations = {
                    worker_id: worker.query_count
                    for worker_id, worker in sorted(cluster.workers.items())
                }
            return record, report, populations

        assert migrate("multiprocess") == migrate("inprocess")


class TestControlPlane:
    """The worker control surface is declared once, on ``WorkerNode``."""

    def test_surface_resolves_and_the_proxy_offers_exactly_it(self):
        plan, _ = make_workload(num_objects=0)
        node = WorkerNode(0, plan.bounds)
        surface = WorkerNode.CONTROL_SURFACE
        assert len(set(surface)) == len(surface)
        assert set(WorkerNode.CONTROL_READS) < set(surface)
        for name in surface:
            assert not name.startswith("_") and "." not in name
            if name in WorkerNode.CONTROL_READS:
                assert not callable(getattr(node, name)), name
            else:
                assert callable(getattr(WorkerNode, name)), name
        config = ClusterConfig(num_dispatchers=1, num_workers=1, backend="multiprocess")
        with Cluster(plan, config) as cluster:
            proxy = cluster.workers[0]
            assert not isinstance(proxy, WorkerNode)
            for name in surface:
                assert hasattr(proxy, name), name
            assert proxy.query_count == 0 and proxy.busy_cost == 0.0
            assert proxy.load() == 0.0 and proxy.cell_stats() == []
            # Nothing else of a worker is reachable through the handle.
            assert not hasattr(proxy, "index")
            others = [name for name in dir(node) if not name.startswith("_")]
            for name in set(others) - set(surface) - {"worker_id"}:
                with pytest.raises(AttributeError, match=name):
                    getattr(proxy, name)

    def test_control_traffic_is_what_was_measured(self):
        """Worker-tier sends other than the data plane's, over the two
        closed-loop scenarios on 4 worker processes: 19 and 32 (23 and 48
        when adjusters and migration reached through ``worker.index``)."""
        plan, tuples = local_scenario()
        with counted_worker_sends() as sends:
            history = run_local_scenario(plan, tuples, "multiprocess")
        assert any(entry.triggered and entry.records for entry in history)
        control = control_sends(sends)
        assert sum(control.values()) <= 19, control
        assert set(control) == {
            "cell_stats", "extract_cells", "install_queries", "reset_load_measurement"
        }

        plan, tuples = global_scenario()
        with counted_worker_sends() as sends:
            history = run_global_scenario(plan, tuples, "multiprocess")
        finalized = sum(1 for _, _, done in history if done)
        assert finalized > 0
        assert sum(control_sends(sends).values()) <= 32, control_sends(sends)
        assert set(sends) == {0, 1, 2, 3}
        for worker_id, counter in sends.items():
            # One finalisation: exactly one snapshot, at most one reconcile.
            assert counter["snapshot_assignments"] == finalized, (worker_id, counter)
            assert counter["reconcile_queries"] <= finalized, (worker_id, counter)
            assert counter["reset_load_measurement"] == len(history), (worker_id, counter)
            assert set(counter) <= {
                *DATA_PLANE, "snapshot_assignments", "reconcile_queries", "reset_load_measurement"
            }, (worker_id, counter)

    def test_call_all_writes_every_request_before_reading_a_reply(self):
        """``reset_*`` and the snapshot fan out as one broadcast, not one
        blocking round trip per worker in turn."""
        plan, _ = make_workload(num_objects=0)
        config = ClusterConfig(num_dispatchers=1, num_workers=3, backend="multiprocess")
        with Cluster(plan, config) as cluster:
            fleet = cluster.transport._fleet
            events = []
            send, receive = fleet.send, fleet.receive
            fleet.send = lambda i, m: events.append(("send", i)) or send(i, m)
            fleet.receive = lambda i: events.append(("receive", i)) or receive(i)
            for fan_out in (
                cluster.reset_load_measurement,
                cluster.reset_period,
                cluster.transport.snapshot_assignments,
            ):
                del events[:]
                fan_out()
                assert [kind for kind, _ in events] == ["send"] * 3 + ["receive"] * 3, events
            assert cluster.transport.snapshot_assignments() == {0: [], 1: [], 2: []}


class TestTransportMechanics:
    def test_inprocess_workers_are_proxies_over_the_declared_surface(self):
        """In process too, a worker handle passes the ``WorkerCall``
        allow-list: declared names work, anything else is refused."""
        plan, _ = make_workload(num_objects=0)
        with Cluster(plan, ClusterConfig(num_workers=2)) as cluster:
            assert isinstance(cluster.transport, InProcessTransport)
            worker = cluster.workers[0]
            assert isinstance(worker, WorkerProxy)
            assert worker.query_count == 0
            for name in ("index", "handle_object_batch", "worker_idx"):
                assert name not in WorkerNode.CONTROL_SURFACE
                with pytest.raises(AttributeError):
                    getattr(worker, name)

    def test_barrier_epochs_advance(self):
        plan, _ = make_workload(num_objects=0)
        config = ClusterConfig(num_dispatchers=1, num_workers=2, backend="multiprocess")
        with Cluster(plan, config) as cluster:
            assert cluster.transport.backend_name == "multiprocess"
            assert cluster.transport.barrier() == 1
            assert cluster.transport.barrier() == 2

    def test_remote_errors_surface_as_transport_errors(self):
        """A failing operation and an undeclared name both come back as
        ``TransportError``s, and neither desyncs the request/reply pairing."""
        from repro.runtime.telemetry import Observation

        plan, tuples = make_workload(num_objects=100, workers=1)
        config = ClusterConfig(num_dispatchers=1, num_workers=1, backend="multiprocess")
        with Cluster(plan, config) as cluster:
            cluster.run_batched(tuples, batch_size=64)
            population = cluster.workers[0].query_count
            assert population > 0
            # An exception inside a declared operation is a RemoteError reply.
            with pytest.raises(TransportError, match="TypeError"):
                cluster.transport.call(0, "extract_keywords")
            # Anything outside WorkerNode.CONTROL_SURFACE — unknown, private,
            # dotted, or a real but undeclared method — is refused by name
            # before the host resolves it.
            for name in (
                "no_such_method",
                "_queries",
                "__class__",
                "index",
                "index._queries",
                "index._queries.clear",
                "handle_deletion",
            ):
                with pytest.raises(TransportError, match=re.escape(repr(name))):
                    cluster.transport.call(0, name)
                observed = cluster.transport.observe()
                assert set(observed) == {0}
                assert isinstance(observed[0], Observation)
                assert observed[0].depth == population
            assert cluster.workers[0].query_count == population

    def test_failed_exchange_drains_other_workers(self):
        """A failing worker must not leave other replies queued on the pipes."""
        from repro.runtime.telemetry import Observation
        from repro.runtime.transport import RouteBatch

        plan, _ = make_workload(num_objects=0)
        config = ClusterConfig(num_dispatchers=1, num_workers=2, backend="multiprocess")
        with Cluster(plan, config) as cluster:
            transport = cluster.transport
            with pytest.raises(TransportError):
                transport.exchange({0: RouteBatch(("not-an-op",)), 1: RouteBatch(())})
            # Worker 1's (empty) reply was consumed, so the pipes are still
            # in protocol sync and later requests see fresh replies.
            stats = transport.observe()
            assert set(stats) == {0, 1}
            assert all(isinstance(entry, Observation) for entry in stats.values())

    @pytest.mark.parametrize("backend", REMOTE_BACKENDS)
    def test_one_round_trip_per_window(self, backend):
        """A remote worker is sent one ``RouteBatch`` per window, not per segment.

        Measured on this 970-tuple slice at 256 tuples a window: every
        worker is sent 5 messages over the run — the 4 windows plus the
        one ``Observe`` of the closing ``report()`` — where per-segment
        shipping sent 8.
        """
        plan, tuples = make_workload()
        windows = -(-len(tuples) // 256)
        assert windows == 4
        config = ClusterConfig(num_dispatchers=2, num_workers=4, backend=backend)
        with Cluster(plan, config) as cluster:
            before = cluster.wire_stats()["worker"]
            cluster.run_batched(tuples, batch_size=256)
            after = cluster.wire_stats()["worker"]
        for worker_id, stats in after.items():
            sent = stats.messages_sent - before[worker_id].messages_sent
            assert sent <= windows + 1, (worker_id, sent)

    def test_unknown_worker_op_is_rejected(self):
        """``execute_ops`` knows three op types; anything else is an error."""
        from repro.runtime.transport import MatchObjects, execute_ops

        worker = WorkerNode(0, Rect(0.0, 0.0, 10.0, 10.0), granularity=4)
        with pytest.raises(TransportError, match="unknown worker op 'not-an-op'"):
            execute_ops(worker, (MatchObjects(()), "not-an-op"))

    def test_close_is_idempotent_and_ends_workers(self):
        plan, _ = make_workload(num_objects=0)
        config = ClusterConfig(num_dispatchers=1, num_workers=2, backend="multiprocess")
        cluster = Cluster(plan, config)
        processes = list(cluster.transport._fleet.processes.values())
        assert all(process.is_alive() for process in processes)
        cluster.close()
        cluster.close()
        assert all(not process.is_alive() for process in processes)

    def test_socket_backend_spawns_loopback_serve_processes(self):
        require_loopback()
        plan, _ = make_workload(num_objects=0)
        config = ClusterConfig(num_dispatchers=1, num_workers=2, backend="socket")
        cluster = Cluster(plan, config)
        try:
            assert cluster.transport.backend_name == "socket"
            processes = list(cluster.transport._fleet.processes.values())
            assert len(processes) == 2
            assert all(process.is_alive() for process in processes)
            assert cluster.transport.barrier() == 1
            stats = cluster.transport.observe()
            assert set(stats) == {0, 1}
        finally:
            cluster.close()
        cluster.close()
        assert all(not process.is_alive() for process in processes)

    def test_unknown_backend_rejected(self):
        plan, _ = make_workload(num_objects=0)
        with pytest.raises(ValueError, match="unknown transport backend"):
            Cluster(plan, ClusterConfig(num_workers=2, backend="carrier-pigeon"))
