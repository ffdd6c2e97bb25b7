"""Chaos fault-injection matrix for worker checkpoint/recovery (PR 8).

The acceptance contract of the recovery subsystem: killing one worker
mid-run — on either out-of-process backend — must leave the delivered
result set identical to the single-process reference *modulo the
at-most-one in-flight window*, whose loss the run accounts in
``RunReport.recovery``.  Faults are injected deterministically through
the :class:`~repro.runtime.fabric.FaultSpec` seam of the fleet (no
timing races: a fault fires on the N-th matching send), so every test
here is reproducible.

The matrix:

* kill a worker mid-window (multiprocess and socket backends, routing
  inline or on dispatch shard processes with the next window routed
  ahead) — delivered results converge after filtering the lost window's
  object/query ids from both sides;
* kill a worker on the window left in flight at a checkpoint fence, or
  on the stream's last window — exactly that window is lost; where the
  death surfaces only at the next window's tail, both windows are;
* kill a worker at an adjustment fence — the window in flight settled
  before the fence, so the delivered sets converge exactly;
* a coordinator-side exception (a raising sink, or a raising scan of the
  window behind the one in flight) propagates as raised, and ``close()``
  stays bounded and leaves no child process;
* kill a merger shard — not recoverable: the death surfaces as a clean
  structured ``TransportError`` (never a hang) and ``close()`` still
  releases every tier, dispatch shards included;
* coordinator-side recovery idempotence — recovering the same worker
  twice is a no-op the second time — and a recovery with no survivor
  raises *before* it discards the worker;
* a constructor that fails opening one of its files leaves no child
  process behind.
"""

import gc
import multiprocessing
import os
import random
import time

import pytest

from test_transport import require_loopback

from repro.core.geometry import Point, Rect
from repro.core.objects import STSQuery, SpatioTextualObject, StreamTuple, TupleKind
from repro.partitioning import MetricTextPartitioner
from repro.partitioning.base import WorkloadSample
from repro.runtime import Cluster, ClusterConfig, TransportError
from repro.runtime.fabric import FaultPlan, FaultSpec
from repro.runtime.merge import SinkSpec
from repro.runtime.telemetry import TelemetrySpec

#: The process-spawning half of the matrix wants a second core (CI's
#: tier-1 job runs it everywhere else); PS2STREAM_CHAOS=1 forces it on.
needs_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 and not os.environ.get("PS2STREAM_CHAOS"),
    reason="chaos matrix needs at least 2 cores (PS2STREAM_CHAOS=1 forces)",
)

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)
BATCH_SIZE = 64


def make_chaos_workload(num_queries=120, num_objects=600, pairs=12, seed=7, workers=4):
    """Plan + tuples with a dense, deterministic delivered-result set.

    Each query is ``alphaJ OR betaJ`` and each object carries both
    keywords of one pair, so most objects match several live queries —
    a delivered set rich enough that losing one worker's partition
    would visibly diverge without recovery.  Inserts and deletes are
    interleaved mid-stream so the recovery replay covers both.
    """
    rng = random.Random(seed)
    queries = []
    for index in range(num_queries):
        j = index % pairs
        x, y = rng.uniform(0, 55), rng.uniform(0, 55)
        queries.append(
            STSQuery.create("alpha%d OR beta%d" % (j, j), Rect(x, y, x + 45, y + 45))
        )
    objects = []
    for index in range(num_objects):
        j = rng.randrange(pairs)
        objects.append(
            SpatioTextualObject(
                object_id=index + 1,
                text="",
                location=Point(rng.uniform(0, 100), rng.uniform(0, 100)),
                terms=frozenset({"alpha%d" % j, "beta%d" % j, "pad%d" % rng.randrange(40)}),
            )
        )
    sample = WorkloadSample(
        objects=objects[: num_objects // 2],
        insertions=queries,
        deletions=[],
        bounds=BOUNDS,
    )
    plan = MetricTextPartitioner().partition(sample, workers)
    tuples = [StreamTuple.insert(query) for query in queries[: num_queries - 20]]
    extra = iter(queries[num_queries - 20:])
    for index, obj in enumerate(objects):
        tuples.append(StreamTuple.object(obj))
        if index % 30 == 11:
            tuples.append(StreamTuple.insert(next(extra)))
        if index % 45 == 23:
            tuples.append(StreamTuple.delete(queries[index % (num_queries - 20)]))
    return plan, tuples


def run_chaos(
    plan,
    tuples,
    backend,
    *,
    fault=None,
    checkpoint_every=0,
    adjust_every=0,
    batch_size=BATCH_SIZE,
    workers=4,
    merger_backend="inprocess",
    dispatch_backend="inline",
):
    """One cluster run; returns (report, delivered {(query, object)} set)."""
    config = ClusterConfig(
        num_dispatchers=2,
        num_workers=workers,
        backend=backend,
        merger_backend=merger_backend,
        dispatch_backend=dispatch_backend,
        sink=SinkSpec(kind="memory"),
        checkpoint_every=checkpoint_every,
        fault_plan=FaultPlan((fault,)) if fault is not None else None,
    )
    with Cluster(plan, config) as cluster:
        report = cluster.run_batched(
            tuples, batch_size=batch_size, adjust_every=adjust_every
        )
        drained = cluster.drain_sinks()
    delivered = {
        (result.query_id, result.object_id)
        for results in drained.values()
        for result in results
    }
    return report, delivered


def converged(reference, delivered, event):
    """Delivered sets modulo the recovery event's lost in-flight window.

    The window's updates are in an unknown state on the recovered side:
    the dead worker never applied them (its share is replayed from the
    update log), while survivors may have — the fleet keeps submitting
    a failed exchange's batches to them, and a remote exchange carries
    the whole window.  The reference applied all of them.  Filtering
    both sides by the lost query ids is what makes the comparison
    sound; likewise the lost objects, which the recovered side never
    delivered from the coordinator.
    """
    lost_queries = set(event.lost_query_ids)
    lost_objects = set(event.lost_object_ids)

    def filtered(results):
        return {
            (query_id, object_id)
            for query_id, object_id in results
            if query_id not in lost_queries and object_id not in lost_objects
        }

    return filtered(reference), filtered(delivered)


WORKER_BACKENDS = ["multiprocess", "socket"]
#: Inline routing, and shard processes the replay routes one window ahead on.
DISPATCH_BACKENDS = ["inline", "multiprocess"]


@needs_cores
class TestKillWorkerMidRun:
    @pytest.mark.parametrize("dispatch", DISPATCH_BACKENDS)
    @pytest.mark.parametrize("backend", WORKER_BACKENDS)
    def test_delivered_results_converge_modulo_lost_window(self, backend, dispatch):
        if backend == "socket":
            require_loopback()
        plan, tuples = make_chaos_workload()
        ref_report, reference = run_chaos(plan, tuples, "inprocess")
        assert len(reference) > 50, "workload must deliver a dense result set"

        # The fourth RouteBatch to worker 1 ships the fourth window (tuples
        # 150-213): with shard processes the next full window is already
        # routed when the kill lands, on replicas that still name worker 1
        # (executing that stale routing loses a delivery here).
        fault = FaultSpec(
            action="kill", role="worker", endpoint_id=1,
            message_type="RouteBatch", after_sends=3,
        )
        report, delivered = run_chaos(
            plan, tuples, backend, fault=fault, checkpoint_every=150,
            dispatch_backend=dispatch,
        )
        recovery = report.recovery
        assert recovery is not None and len(recovery.events) == 1
        event = recovery.events[0]
        assert event.worker_id == 1
        assert event.worker_id != event.target_worker
        # Exactly the window in flight is lost, never the one routed ahead:
        # its death surfaces while the next window fills.
        assert event.lost_tuples == BATCH_SIZE
        assert recovery.lost_tuples == event.lost_tuples
        assert not event.during_adjustment
        ref_set, rec_set = converged(reference, delivered, event)
        assert rec_set == ref_set

    def test_truncate_fault_surfaces_as_death_and_recovers(self):
        """A mid-frame truncation on the socket backend == endpoint death."""
        require_loopback()
        plan, tuples = make_chaos_workload()
        _, reference = run_chaos(plan, tuples, "inprocess")
        fault = FaultSpec(
            action="truncate", role="worker", endpoint_id=2,
            message_type="RouteBatch", after_sends=3,
        )
        report, delivered = run_chaos(
            plan, tuples, "socket", fault=fault, checkpoint_every=150
        )
        assert report.recovery is not None and len(report.recovery.events) == 1
        event = report.recovery.events[0]
        assert event.worker_id == 2
        ref_set, rec_set = converged(reference, delivered, event)
        assert rec_set == ref_set


@needs_cores
class TestKillTheWindowInFlight:
    """Over a fabric the replay leaves each window in flight until the next
    one fills; a death that surfaces at a settle point loses only it, or
    also the window behind it when it surfaces at that window's tail."""

    @pytest.mark.parametrize(
        "after_sends, dispatch, start, end",
        [
            # The third window is clipped at the checkpoint at 150: its
            # death surfaces at that checkpoint's fence.
            pytest.param(2, "inline", 128, 150, id="before-a-checkpoint-fence"),
            # The stream's last window: no window ships behind it.
            pytest.param(14, "inline", 728, 733, id="last-window"),
            # Routed ahead, [128, 150) is the window after [64, 128) with
            # no fill between them: the death surfaces at its tail, after
            # it shipped to the survivors, so both windows are lost.
            pytest.param(1, "multiprocess", 64, 150, id="next-window-tail"),
        ],
    )
    def test_exactly_the_windows_in_flight_are_lost(self, after_sends, dispatch, start, end):
        plan, tuples = make_chaos_workload()
        assert len(tuples) == 733
        _, reference = run_chaos(plan, tuples, "inprocess")
        # Worker 1 gets a RouteBatch in each of the 15 windows.
        fault = FaultSpec(
            action="kill", role="worker", endpoint_id=1,
            message_type="RouteBatch", after_sends=after_sends,
        )
        report, delivered = run_chaos(
            plan, tuples, "multiprocess", fault=fault, checkpoint_every=150,
            dispatch_backend=dispatch,
        )
        recovery = report.recovery
        assert recovery is not None and len(recovery.events) == 1
        event = recovery.events[0]
        assert event.worker_id == 1
        assert not event.during_adjustment
        window = tuples[start:end]
        assert event.lost_tuples == len(window)
        assert event.lost_object_ids == tuple(
            item.payload.object_id for item in window if item.kind is TupleKind.OBJECT
        )
        assert event.lost_query_ids == tuple(
            item.payload.query_id for item in window if item.kind is not TupleKind.OBJECT
        )
        ref_set, rec_set = converged(reference, delivered, event)
        assert rec_set == ref_set


    def test_a_death_before_an_adjustment_barrier_keeps_the_round(self, monkeypatch):
        """The window clipped at the round at 200 is in flight when the
        barrier comes up; its death surfaces as the barrier settles it,
        before the cadences move, so the round still runs after recovery."""
        rounds = []
        run_adjustment = Cluster.run_adjustment

        def counted(cluster, **kwargs):
            run_adjustment(cluster, **kwargs)
            rounds.append(len(cluster.recovery.events))

        monkeypatch.setattr(Cluster, "run_adjustment", counted)
        plan, tuples = make_chaos_workload()
        cadences = {"checkpoint_every": 1000, "adjust_every": 200}
        _, reference = run_chaos(plan, tuples, "inprocess", **cadences)
        assert rounds == [0, 0, 0]  # at 200, 400 and 600
        rounds.clear()
        # Worker 1's fourth RouteBatch is the window [192, 200).
        fault = FaultSpec(
            action="kill", role="worker", endpoint_id=1,
            message_type="RouteBatch", after_sends=3,
        )
        report, delivered = run_chaos(plan, tuples, "multiprocess", fault=fault, **cadences)
        assert rounds == [1, 1, 1]
        event = report.recovery.events[0]
        assert not event.during_adjustment
        window = tuples[192:200]
        assert event.lost_tuples == len(window)
        assert event.lost_object_ids == tuple(
            item.payload.object_id for item in window if item.kind is TupleKind.OBJECT
        )
        ref_set, rec_set = converged(reference, delivered, event)
        assert rec_set == ref_set


@needs_cores
class TestCoordinatorFailure:
    def test_a_raising_sink_with_a_window_in_flight(self):
        """A subscriber failure is the coordinator's own exception: it
        propagates as raised, and the tiers still close, bounded."""
        plan, tuples = make_chaos_workload()
        deliveries = []

        def fail_on_third(result):
            deliveries.append(result)
            if len(deliveries) == 3:
                raise RuntimeError("subscriber gone")

        before = set(multiprocessing.active_children())
        config = ClusterConfig(
            num_dispatchers=2, num_workers=4, backend="multiprocess",
            sink=SinkSpec(kind="callback", callback=fail_on_third),
        )
        cluster = Cluster(plan, config)
        try:
            with pytest.raises(RuntimeError, match="subscriber gone") as raised:
                cluster.run_batched(tuples, batch_size=BATCH_SIZE)
            assert not isinstance(raised.value, TransportError)
            assert gc.isenabled()
        finally:
            started = time.monotonic()
            cluster.close()
        assert time.monotonic() - started < 10.0
        assert set(multiprocessing.active_children()) == before

    @pytest.mark.parametrize("dispatch", DISPATCH_BACKENDS)
    def test_a_raising_scan_with_a_window_in_flight(self, dispatch, monkeypatch):
        """A coordinator bug in window K+1's scan, while K is in flight on
        the workers: the exception propagates as raised, K's unread
        replies do not hold up ``close()``, and no child process outlives
        it."""
        plan, tuples = make_chaos_workload()
        failure = RuntimeError("scan failed")
        in_flight = []
        flush_fast = Cluster._flush_fast

        def failing_flush(cluster, *args):
            in_flight.append(cluster._in_flight is not None)
            if len(in_flight) == 12:  # a few windows in
                raise failure
            return flush_fast(cluster, *args)

        monkeypatch.setattr(Cluster, "_flush_fast", failing_flush)
        before = set(multiprocessing.active_children())
        config = ClusterConfig(
            num_dispatchers=2, num_workers=4, backend="multiprocess",
            dispatch_backend=dispatch,
        )
        cluster = Cluster(plan, config)
        try:
            # Replies still out at every fill: K settles only at K+1's tail.
            cluster.transport.ready = lambda submitted: False
            with pytest.raises(RuntimeError) as raised:
                cluster.run_batched(tuples, batch_size=BATCH_SIZE)
            assert raised.value is failure
            assert not in_flight[0] and in_flight[-1]
            assert cluster._in_flight is not None
            assert gc.isenabled()
        finally:
            started = time.monotonic()
            cluster.close()
        assert time.monotonic() - started < 10.0
        assert set(multiprocessing.active_children()) == before


@needs_cores
class TestKillDuringAdjustment:
    def test_kill_at_the_barrier_fence_converges_exactly(self):
        """Death at an adjustment fence loses nothing: no window in flight."""
        plan, tuples = make_chaos_workload()
        _, reference = run_chaos(plan, tuples, "inprocess")
        # The driver's initial checkpoint broadcasts one AdjustBarrier per
        # endpoint; after_sends=1 fires on the *second* barrier send to
        # worker 1 — the first mid-stream adjustment round.
        fault = FaultSpec(
            action="kill", role="worker", endpoint_id=1,
            message_type="AdjustBarrier", after_sends=1,
        )
        report, delivered = run_chaos(
            plan, tuples, "multiprocess",
            fault=fault, checkpoint_every=200, adjust_every=200,
        )
        recovery = report.recovery
        assert recovery is not None and len(recovery.events) == 1
        event = recovery.events[0]
        assert event.during_adjustment
        assert event.lost_tuples == 0
        assert event.lost_object_ids == () and event.lost_query_ids == ()
        assert delivered == reference


@needs_cores
class TestKillMergerShard:
    @pytest.mark.parametrize("dispatch", DISPATCH_BACKENDS)
    def test_merger_death_is_a_clean_error_not_a_hang(self, dispatch):
        """Merger shards are not recoverable; death must surface, bounded."""
        plan, tuples = make_chaos_workload()
        before = set(multiprocessing.active_children())
        fault = FaultSpec(
            action="kill", role="merger", endpoint_id=0,
            message_type="DeliverResults", after_sends=1,
        )
        config = ClusterConfig(
            num_dispatchers=2,
            num_workers=4,
            backend="inprocess",
            merger_backend="multiprocess",
            dispatch_backend=dispatch,
            sink=SinkSpec(kind="memory"),
            checkpoint_every=150,
            fault_plan=FaultPlan((fault,)),
        )
        cluster = Cluster(plan, config)
        try:
            with pytest.raises(TransportError, match="merger shard 0 died"):
                cluster.run_batched(tuples, batch_size=64)
                cluster.report()
            assert 0 in cluster._merge._fleet.dead_endpoints
        finally:
            cluster.close()
        assert set(multiprocessing.active_children()) == before


class TestRecoveryIdempotence:
    def test_second_recovery_of_the_same_worker_is_a_noop(self):
        plan, tuples = make_chaos_workload()
        config = ClusterConfig(
            num_dispatchers=2, num_workers=4, backend="inprocess",
            checkpoint_every=100,
        )
        with Cluster(plan, config) as cluster:
            cluster.run_batched(tuples[:300], batch_size=64)
            assert 1 in cluster.workers
            event = cluster.recover_worker(1)
            assert event is not None
            assert 1 not in cluster.workers
            assert event.target_worker in cluster.workers
            # Every routing cell the dead worker owned was remapped.
            for cell in cluster.routing_index.cells().values():
                assert 1 not in cell.workers()
            assert cluster.recover_worker(1) is None
            assert len(cluster.recovery.events) == 1
            # The run continues on the surviving workers.
            cluster.run_batched(tuples[300:], batch_size=64)
            report = cluster.report()
            assert report.recovery is not None
            assert len(report.recovery.events) == 1


class TestRecoveryNeedsASurvivor:
    def test_the_last_worker_is_not_discarded(self):
        """``recover_worker`` on a one-worker cluster used to drop the worker
        *before* it looked for a survivor: the call raised, ``cluster.workers``
        was left empty and the rest of the run matched nothing, silently."""
        from test_window_executor import brute_force  # imports this module

        plan, tuples = make_chaos_workload(workers=1)
        config = ClusterConfig(
            num_dispatchers=2, num_workers=1, backend="inprocess",
            sink=SinkSpec(kind="memory"), checkpoint_every=100,
        )
        with Cluster(plan, config) as cluster:
            cluster.run_batched(tuples[:300], batch_size=64)
            with pytest.raises(TransportError, match="no surviving workers"):
                cluster.recover_worker(0)
            assert list(cluster.workers) == [0]
            assert cluster.recovery.events == []
            # The following windows still deliver every oracle match.
            report = cluster.run_batched(tuples[300:], batch_size=64)
            delivered = {
                (result.query_id, result.object_id)
                for results in cluster.drain_sinks().values()
                for result in results
            }
        assert report.recovery.events == ()
        oracle = brute_force(tuples)
        assert len(oracle) > 50
        assert delivered == oracle


class TestFailedConstructor:
    @pytest.mark.parametrize("opens", ["checkpoint_path", "telemetry path"])
    def test_an_unwritable_path_fails_before_any_tier_spawns(self, opens, tmp_path):
        """The two files a cluster opens used to be opened *after* the fleets
        were spawned, and nothing closed the tiers when the open failed."""
        plan, _ = make_chaos_workload(workers=2)
        missing = str(tmp_path / "no-such-directory" / "out.jsonl")
        if opens == "checkpoint_path":
            files = {"checkpoint_every": 100, "checkpoint_path": missing}
        else:
            files = {"telemetry": TelemetrySpec(path=missing)}
        config = ClusterConfig(num_dispatchers=2, num_workers=2, backend="multiprocess", **files)
        before = set(multiprocessing.active_children())
        with pytest.raises(FileNotFoundError):
            Cluster(plan, config)
        assert set(multiprocessing.active_children()) == before


@needs_cores
class TestFaultFreeDeterminism:
    @pytest.mark.parametrize("backend", WORKER_BACKENDS)
    def test_checkpointed_run_reports_identical_across_backends(self, backend):
        """Checkpointing must not perturb a fault-free run's report."""
        if backend == "socket":
            require_loopback()
        plan, tuples = make_chaos_workload()
        ref_report, reference = run_chaos(
            plan, tuples, "inprocess", checkpoint_every=150
        )
        report, delivered = run_chaos(
            plan, tuples, backend, checkpoint_every=150
        )
        assert ref_report.recovery is not None
        assert ref_report.recovery.checkpoints_taken > 1
        assert ref_report.recovery.events == ()
        assert report == ref_report
        assert delivered == reference
