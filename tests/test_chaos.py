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

* kill a worker mid-window (multiprocess and socket backends) —
  delivered results converge after filtering the lost window's
  object/query ids from both sides;
* kill a worker at an adjustment fence — nothing was in flight, so the
  delivered sets converge exactly;
* kill a merger shard — not recoverable: the death surfaces as a clean
  structured ``TransportError`` (never a hang) and ``close()`` still
  releases every tier;
* coordinator-side recovery idempotence — recovering the same worker
  twice is a no-op the second time — and a recovery with no survivor
  raises *before* it discards the worker;
* a constructor that fails opening one of its files leaves no child
  process behind.
"""

import multiprocessing
import os
import random

import pytest

from test_transport import require_loopback

from repro.core.geometry import Point, Rect
from repro.core.objects import STSQuery, SpatioTextualObject, StreamTuple
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
):
    """One cluster run; returns (report, delivered {(query, object)} set)."""
    config = ClusterConfig(
        num_dispatchers=2,
        num_workers=workers,
        backend=backend,
        merger_backend=merger_backend,
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


@needs_cores
class TestKillWorkerMidRun:
    @pytest.mark.parametrize("backend", WORKER_BACKENDS)
    def test_delivered_results_converge_modulo_lost_window(self, backend):
        if backend == "socket":
            require_loopback()
        plan, tuples = make_chaos_workload()
        ref_report, reference = run_chaos(plan, tuples, "inprocess")
        assert len(reference) > 50, "workload must deliver a dense result set"

        fault = FaultSpec(
            action="kill", role="worker", endpoint_id=1,
            message_type="RouteBatch", after_sends=4,
        )
        report, delivered = run_chaos(
            plan, tuples, backend, fault=fault, checkpoint_every=150
        )
        recovery = report.recovery
        assert recovery is not None and len(recovery.events) == 1
        event = recovery.events[0]
        assert event.worker_id == 1
        assert event.worker_id != event.target_worker
        # At most one window is lost, whichever send the fault fires on.
        assert 0 < event.lost_tuples <= BATCH_SIZE
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
    def test_merger_death_is_a_clean_error_not_a_hang(self):
        """Merger shards are not recoverable; death must surface, bounded."""
        plan, tuples = make_chaos_workload()
        fault = FaultSpec(
            action="kill", role="merger", endpoint_id=0,
            message_type="DeliverResults", after_sends=1,
        )
        config = ClusterConfig(
            num_dispatchers=2,
            num_workers=4,
            backend="inprocess",
            merger_backend="multiprocess",
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
