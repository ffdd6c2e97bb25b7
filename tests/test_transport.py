"""Equivalence tests for the pluggable worker transport.

The acceptance contract of the transport layer: the ``multiprocess``
backend (one OS process per worker, pickled ``RouteBatch`` messages) and
the ``socket`` backend (``repro serve`` endpoints over loopback TCP) must
produce **byte-identical** :class:`~repro.runtime.metrics.RunReport`
values to the ``inprocess`` reference backend on the same stream — same
execution path, same batch size, same closed-loop adjustment schedule.
Unlike the batched-vs-per-tuple equivalence (which tolerates 1e-9 float
drift from summation-order differences), the backends execute the
exact same operation sequence per worker, so every field compares with
``==``.

These tests run on a small Figure 7(a)-style slice (STS-US workload,
hybrid partitioning, 4 workers) so the multiprocess fixture stays fast on
one core; the wall-clock speedup at scale is measured by the opt-in
``benchmarks/test_multiprocess_speedup.py``.
"""

import collections
import contextlib
import re
import socket as socket_module

import pytest

from repro.adjustment import GlobalAdjuster, GreedySelector, LocalLoadAdjuster
from repro.partitioning import HybridPartitioner, MetricTextPartitioner
from repro.runtime import (
    Cluster,
    ClusterConfig,
    InProcessTransport,
    TransportError,
    WorkerNode,
)
from repro.runtime.fabric import Fleet
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset


def loopback_available():
    """Whether loopback TCP sockets work in this sandbox."""
    try:
        listener = socket_module.create_server(("127.0.0.1", 0))
        listener.close()
        return True
    except OSError:  # pragma: no cover - environment-dependent
        return False


def require_loopback():
    """Skip when loopback TCP sockets are unavailable in the sandbox."""
    if not loopback_available():  # pragma: no cover - environment-dependent
        pytest.skip("loopback sockets unavailable")


def require_backend(backend):
    if backend == "socket":
        require_loopback()


def available_backends(backends):
    """Filter a backend list down to the ones this sandbox can run."""
    return [
        backend for backend in backends
        if backend != "socket" or loopback_available()
    ]


#: The out-of-process deployments pinned against the in-process reference.
REMOTE_BACKENDS = ["multiprocess", "socket"]

REPORT_FIELDS = [
    "tuples_processed",
    "objects_processed",
    "insertions_processed",
    "deletions_processed",
    "throughput",
    "mean_latency_ms",
    "p95_latency_ms",
    "latency_buckets",
    "worker_loads",
    "dispatcher_memory",
    "worker_memory",
    "matches_produced",
    "matches_delivered",
    "object_fanout",
    "query_fanout",
]


def make_workload(mu=250, group="Q1", seed=11, num_objects=600, workers=4):
    """A fig 7(a)-style slice: plan + materialised tuples."""
    tweets = make_dataset("us", seed=seed)
    queries = QueryGenerator(tweets, seed=seed + 1)
    stream = WorkloadStream(tweets, queries, StreamConfig(mu=mu, group=group), seed=seed + 2)
    sample = stream.partitioning_sample(500)
    plan = HybridPartitioner().partition(sample, workers)
    return plan, list(stream.tuples(num_objects))


def local_scenario():
    """Metric text partitioning concentrates load enough for the local
    adjuster to actually trigger migrations mid-stream."""
    tweets = make_dataset("us", seed=3)
    queries = QueryGenerator(tweets, seed=4)
    stream = WorkloadStream(tweets, queries, StreamConfig(mu=300, group="Q1"), seed=5)
    sample = stream.partitioning_sample(600)
    plan = MetricTextPartitioner().partition(sample, 4)
    return plan, list(stream.tuples(800))


def run_local_scenario(plan, tuples, backend):
    adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.2)
    report, migrations = run_backend(
        plan, tuples, backend,
        batch_size=128, adjust_every=400, local_adjuster=adjuster,
    )
    triggered = sum(1 for entry in adjuster.history if entry.triggered)
    return report, migrations, triggered


def global_scenario():
    """A poor plan a hybrid repartitioning improves on: check, drain, finalise."""
    tweets = make_dataset("us", seed=3)
    queries = QueryGenerator(tweets, seed=4)
    stream = WorkloadStream(tweets, queries, StreamConfig(mu=250, group="Q1"), seed=5)
    sample = stream.partitioning_sample(500)
    plan = MetricTextPartitioner().partition(sample, 4)
    return plan, list(stream.tuples(700))


def run_global_scenario(plan, tuples, backend):
    adjuster = GlobalAdjuster(HybridPartitioner(), improvement_threshold=0.01)
    report, _ = run_backend(
        plan, tuples, backend,
        batch_size=100, adjust_every=250, global_adjuster=adjuster,
    )
    history = [
        (entry.checked, entry.repartitioned, entry.finalized)
        for entry in adjuster.history
    ]
    return report, history


#: Worker-tier messages that are not control operations.
DATA_PLANE = ("RouteBatch", "Observe", "AdjustBarrier", "Shutdown")


@contextlib.contextmanager
def counted_worker_sends():
    """Count every ``Fleet.send`` to the worker tier: ``sends[worker_id]``
    is a ``Counter`` by message name (a ``WorkerCall`` by its method)."""
    sends = collections.defaultdict(collections.Counter)
    original = Fleet.send

    def send(fleet, endpoint_id, message):
        if fleet.label == "worker":
            name = type(message).__name__
            sends[endpoint_id][getattr(message, "method", name)] += 1
        return original(fleet, endpoint_id, message)

    Fleet.send = send
    try:
        yield sends
    finally:
        Fleet.send = original


def control_sends(sends):
    """Total worker-tier sends other than the data plane's, by name."""
    total = collections.Counter()
    for counter in sends.values():
        total.update({name: n for name, n in counter.items() if name not in DATA_PLANE})
    return total


def assert_identical(reference, candidate):
    """Byte-identical reports: every field equal, no tolerance."""
    for field in REPORT_FIELDS:
        assert getattr(candidate, field) == getattr(reference, field), field
    assert candidate == reference


def run_backend(plan, tuples, backend, *, batch_size=0, workers=4, **run_kwargs):
    config = ClusterConfig(num_dispatchers=2, num_workers=workers, backend=backend)
    with Cluster(plan, config) as cluster:
        if batch_size > 1:
            report = cluster.run_batched(tuples, batch_size=batch_size, **run_kwargs)
        else:
            report = cluster.run(tuples, **run_kwargs)
        migrations = list(cluster.migrations)
    return report, migrations


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", REMOTE_BACKENDS)
    @pytest.mark.parametrize("batch_size", [0, 64, 256])
    def test_fig07_slice_identical_reports(self, batch_size, backend):
        """Per-tuple and batched paths: reports match field for field."""
        require_backend(backend)
        plan, tuples = make_workload()
        ref_report, _ = run_backend(plan, tuples, "inprocess", batch_size=batch_size)
        remote_report, _ = run_backend(plan, tuples, backend, batch_size=batch_size)
        assert ref_report.deletions_processed > 0, "stream must exercise deletions"
        assert_identical(ref_report, remote_report)

    @pytest.mark.parametrize("backend", REMOTE_BACKENDS)
    def test_closed_loop_adjustment_round_identical(self, backend):
        """One (and more) Section V rounds fire identically across backends.

        Uses the metric-text-partitioned ``local_scenario``.
        """
        require_backend(backend)
        plan, tuples = local_scenario()
        ref_report, ref_migrations, ref_triggered = run_local_scenario(plan, tuples, "inprocess")
        remote_report, remote_migrations, remote_triggered = run_local_scenario(
            plan, tuples, backend
        )
        assert ref_triggered > 0, "the adjustment loop must actually fire"
        assert remote_triggered == ref_triggered
        assert remote_migrations == ref_migrations
        assert_identical(ref_report, remote_report)

    def test_global_adjuster_repartition_identical(self):
        """Dual-routing drain + finalise reconcile worker state identically."""
        plan, tuples = global_scenario()
        ref_report, ref_history = run_global_scenario(plan, tuples, "inprocess")
        mp_report, mp_history = run_global_scenario(plan, tuples, "multiprocess")
        assert any(repartitioned for _, repartitioned, _ in ref_history)
        assert mp_history == ref_history
        assert_identical(ref_report, mp_report)

    def test_explicit_migration_between_processes(self):
        """migrate_cells ships assignments between worker processes."""
        plan, tuples = make_workload(num_objects=400)

        def run(backend):
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

        ref_record, ref_report, ref_pop = run("inprocess")
        mp_record, mp_report, mp_pop = run("multiprocess")
        assert mp_record == ref_record
        assert mp_pop == ref_pop
        assert_identical(ref_report, mp_report)


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
            _, migrations, triggered = run_local_scenario(plan, tuples, "multiprocess")
        assert triggered > 0 and migrations
        control = control_sends(sends)
        assert sum(control.values()) <= 19, control
        assert set(control) == {
            "cell_stats", "extract_cells", "install_queries", "reset_load_measurement"
        }

        plan, tuples = global_scenario()
        with counted_worker_sends() as sends:
            _, history = run_global_scenario(plan, tuples, "multiprocess")
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
    def test_inprocess_workers_are_real_nodes(self):
        plan, _ = make_workload(num_objects=0)
        with Cluster(plan, ClusterConfig(num_workers=2)) as cluster:
            assert isinstance(cluster.transport, InProcessTransport)
            assert cluster.workers[0].index.query_count == 0

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
        require_backend(backend)
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

        plan, _ = make_workload(num_objects=0)
        with Cluster(plan, ClusterConfig(num_workers=1)) as cluster:
            with pytest.raises(TransportError, match="unknown worker op 'not-an-op'"):
                execute_ops(cluster.workers[0], (MatchObjects(()), "not-an-op"))

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
