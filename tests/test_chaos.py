"""Chaos fault-injection matrix for worker checkpoint/recovery (PR 8).

The acceptance contract of the recovery subsystem: killing one worker
mid-run — on either out-of-process backend — must leave the delivered
result set identical to the brute-force oracle's (``harness.brute_force``)
*modulo the at-most-one in-flight window*, whose loss the run accounts in
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
import time

import pytest

from repro.core.objects import TupleKind
from repro.runtime import Cluster, ClusterConfig, TransportError
from repro.runtime.fabric import FaultPlan, FaultSpec
from repro.runtime.merge import SinkSpec
from repro.runtime.telemetry import TelemetrySpec

from harness import (
    brute_force,
    make_alpha_beta_workload,
    needs_cores,
    require_loopback,
    run,
)

BATCH_SIZE = 64


def converged(reference, delivered, event):
    """Delivered sets modulo the recovery event's lost in-flight window.

    The window's updates are in an unknown state on the recovered side:
    the dead worker never applied them (its share is replayed from the
    update log), while survivors may have — the fleet keeps submitting
    a failed exchange's batches to them, and a remote exchange carries
    the whole window.  The oracle applied all of them.  Filtering
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
        plan, tuples = make_alpha_beta_workload()
        reference = brute_force(tuples)
        assert len(reference) > 50, "workload must deliver a dense result set"

        # The fourth RouteBatch to worker 1 ships the fourth window (tuples
        # 150-213): with shard processes the next full window is already
        # routed when the kill lands, on replicas that still name worker 1
        # (executing that stale routing loses a delivery here).
        fault = FaultSpec(
            action="kill", role="worker", endpoint_id=1,
            message_type="RouteBatch", after_sends=3,
        )
        report, delivered = run(
            plan, tuples, backend=backend, batch_size=BATCH_SIZE, fault=fault, checkpoint_every=150,
            dispatch=dispatch,
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

    @pytest.mark.parametrize("backend", WORKER_BACKENDS)
    def test_per_tuple_driver_loses_only_the_tuple_in_progress(self, backend, monkeypatch):
        """Windows of one run under the same recovery guard: the death
        surfaces in the exchange of the tuple that killed the worker, that
        tuple alone is lost, and it still counts towards the cadences."""
        if backend == "socket":
            require_loopback()
        positions = []
        checkpoint_now = Cluster.checkpoint_now

        def recorded(cluster):
            # The stream position: every tuple processed, plus each one lost.
            positions.append(cluster.totals.tuples + cluster.recovery.report().lost_tuples)
            checkpoint_now(cluster)

        monkeypatch.setattr(Cluster, "checkpoint_now", recorded)
        plan, tuples = make_alpha_beta_workload()
        reference = brute_force(tuples)
        fault = FaultSpec(
            action="kill", role="worker", endpoint_id=1,
            message_type="RouteBatch", after_sends=100,
        )
        report, delivered = run(
            plan, tuples, backend=backend, batch_size=1, fault=fault, checkpoint_every=150
        )
        recovery = report.recovery
        assert recovery is not None and len(recovery.events) == 1
        event = recovery.events[0]
        assert event.worker_id == 1
        assert event.worker_id != event.target_worker
        assert event.lost_tuples == 1
        assert len(event.lost_object_ids) + len(event.lost_query_ids) == 1
        assert not event.during_adjustment
        ref_set, rec_set = converged(reference, delivered, event)
        assert rec_set == ref_set
        # Checkpoints fire where a fault-free run's do; the recovery adds one.
        assert positions == [0, 150, 300, 450, 600]
        assert recovery.checkpoints_taken == len(positions) + 1

    def test_truncate_fault_surfaces_as_death_and_recovers(self):
        """A mid-frame truncation on the socket backend == endpoint death."""
        require_loopback()
        plan, tuples = make_alpha_beta_workload()
        reference = brute_force(tuples)
        fault = FaultSpec(
            action="truncate", role="worker", endpoint_id=2,
            message_type="RouteBatch", after_sends=3,
        )
        report, delivered = run(
            plan, tuples, backend="socket", batch_size=BATCH_SIZE, fault=fault, checkpoint_every=150
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
        plan, tuples = make_alpha_beta_workload()
        assert len(tuples) == 733
        reference = brute_force(tuples)
        # Worker 1 gets a RouteBatch in each of the 15 windows.
        fault = FaultSpec(
            action="kill", role="worker", endpoint_id=1,
            message_type="RouteBatch", after_sends=after_sends,
        )
        report, delivered = run(
            plan, tuples, backend="multiprocess", batch_size=BATCH_SIZE, fault=fault,
            checkpoint_every=150, dispatch=dispatch,
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
        plan, tuples = make_alpha_beta_workload()
        cadences = {"checkpoint_every": 1000, "adjust_every": 200}
        _, reference = run(plan, tuples, batch_size=BATCH_SIZE, **cadences)
        assert rounds == [0, 0, 0]  # at 200, 400 and 600
        rounds.clear()
        # Worker 1's fourth RouteBatch is the window [192, 200).
        fault = FaultSpec(
            action="kill", role="worker", endpoint_id=1,
            message_type="RouteBatch", after_sends=3,
        )
        report, delivered = run(
            plan, tuples, backend="multiprocess", batch_size=BATCH_SIZE, fault=fault, **cadences
        )
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
        plan, tuples = make_alpha_beta_workload()
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
        plan, tuples = make_alpha_beta_workload()
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
        plan, tuples = make_alpha_beta_workload()
        reference = brute_force(tuples)
        # The driver's initial checkpoint broadcasts one AdjustBarrier per
        # endpoint; after_sends=1 fires on the *second* barrier send to
        # worker 1 — the first mid-stream adjustment round.
        fault = FaultSpec(
            action="kill", role="worker", endpoint_id=1,
            message_type="AdjustBarrier", after_sends=1,
        )
        report, delivered = run(
            plan, tuples, backend="multiprocess", batch_size=BATCH_SIZE,
            fault=fault, checkpoint_every=200, adjust_every=200,
        )
        recovery = report.recovery
        assert recovery is not None and len(recovery.events) == 1
        event = recovery.events[0]
        assert event.during_adjustment
        assert event.lost_tuples == 0
        assert event.lost_object_ids == () and event.lost_query_ids == ()
        assert set(delivered) == reference


@needs_cores
class TestKillMergerShard:
    @pytest.mark.parametrize("dispatch", DISPATCH_BACKENDS)
    def test_merger_death_is_a_clean_error_not_a_hang(self, dispatch):
        """Merger shards are not recoverable; death must surface, bounded."""
        plan, tuples = make_alpha_beta_workload()
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
        plan, tuples = make_alpha_beta_workload()
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
        plan, tuples = make_alpha_beta_workload(workers=1)
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
        plan, _ = make_alpha_beta_workload(workers=2)
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
