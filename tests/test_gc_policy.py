"""The data plane's collector policy: :func:`repro.runtime.fabric.gc_paused`.

The replay loop (``driver.replay``) and every endpoint's ``serve_loop``
run with CPython's cyclic garbage collector paused.  That is safe only
because the data plane makes no reference cycles — reference counting
frees everything it drops, so a collection during a replay finds nothing
and is pure pause.  The first half of this file pins that invariant:
each deployment shape, and each of the three role hosts driven in
process, runs with the collector off and must leave zero unreachable
objects behind.  The second half checks that the collector's state is
handed back exactly: on after a replay (and during ``report()``), on
after a replay that raises, still off for a caller that had turned it
off.
"""

import functools
import gc
import pickle
import queue
from collections import Counter

import pytest

from repro.adjustment import GlobalAdjuster, GreedySelector, LocalLoadAdjuster
from repro.core.objects import TupleKind
from repro.partitioning import HybridPartitioner
from repro.runtime import Cluster, ClusterConfig, TransportError, metrics
from repro.runtime.dispatch import DispatchHost, RouteWindow, SyncRoutingIndex
from repro.runtime.fabric import FaultPlan, FaultSpec, Shutdown, serve_loop
from repro.runtime.merge import MergeHost, SinkSpec
from repro.runtime.transport import RouteBatch, WorkerHost

from harness import golden_workload, make_alpha_beta_workload, needs_cores


def assert_makes_no_cycles(step):
    """Run ``step`` with the collector off, then find no cyclic garbage."""
    gc.collect()
    gc.disable()
    try:
        step()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == 0, "reference cycles left as garbage: %s" % kinds.most_common(12)


# ----------------------------------------------------------------------
# The invariant: the data plane makes no reference cycles
# ----------------------------------------------------------------------
#: shape -> (golden workload, window size, ClusterConfig fields, adjuster).
SHAPES = {
    "tuple-local-checkpoints": ("us-Q3-metric", 1, {"checkpoint_every": 700}, "local"),
    "batched-global": ("us-Q3-metric", 256, {}, "global"),
    "inprocess-dispatch": ("us-Q1-hybrid", 256, {"dispatch_backend": "inprocess"}, None),
    "worker-merger-processes": (
        "us-Q1-hybrid", 256, {"backend": "multiprocess", "merger_backend": "multiprocess"}, None,
    ),
    "pipelined-dispatch-processes": (
        "us-Q1-hybrid", 256, {"dispatch_backend": "multiprocess"}, None,
    ),
}
SPAWNING = ("worker-merger-processes", "pipelined-dispatch-processes")


@pytest.mark.parametrize(
    "shape",
    [pytest.param(name, marks=needs_cores) if name in SPAWNING else name for name in SHAPES],
)
def test_replay_makes_no_cycles(shape):
    name, size, fields, adjuster = SHAPES[shape]
    plan, tuples = golden_workload(name)
    adjusters = {
        "local": LocalLoadAdjuster(GreedySelector()),
        "global": GlobalAdjuster(HybridPartitioner()),
    }
    replay = {}
    if adjuster is not None:
        replay = {"adjust_every": 900, adjuster + "_adjuster": adjusters[adjuster]}
    with Cluster(plan, ClusterConfig(num_dispatchers=2, num_workers=4, **fields)) as cluster:
        if size > 1:
            assert_makes_no_cycles(lambda: cluster.run_batched(tuples, batch_size=size, **replay))
        else:
            assert_makes_no_cycles(lambda: cluster.run(tuples, **replay))
    # The barriers did real work: migrations, a repartition and its drain.
    if adjuster == "local":
        assert any(round_.queries_moved for round_ in adjusters["local"].history)
    if adjuster == "global":
        assert any(check.repartitioned for check in adjusters["global"].history)


@functools.lru_cache(maxsize=None)
def chaos_workload():
    return make_alpha_beta_workload()


def chaos_cluster(**fields):
    plan, tuples = chaos_workload()
    fields.setdefault("sink", SinkSpec(kind="memory"))
    return Cluster(plan, ClusterConfig(num_dispatchers=2, num_workers=4, **fields)), tuples


@pytest.fixture(scope="module")
def endpoint_traffic():
    """What a fabric would carry to worker 0, dispatch shard 0 and merger 0.

    Worker 0's ``RouteBatch``es are recorded off an in-process replay of
    the stream; the dispatch shard gets a snapshot of the initial routing
    index and the stream in windows of 64; the merger the deliveries a
    worker host ships to it directly.  Every message is a pickle round
    trip, as it would arrive at an endpoint.
    """
    cluster, tuples = chaos_cluster()
    with cluster:
        worker_init = {
            "bounds": cluster.bounds,
            "granularity": cluster.config.granularity,
            "term_statistics": cluster.plan.statistics,
        }
        routing = pickle.dumps(cluster.routing_index)
        batches = []
        submit = cluster.transport.submit

        def recording(per_worker):
            if 0 in per_worker:
                batches.append(pickle.loads(pickle.dumps(per_worker[0])))
            return submit(per_worker)

        cluster.transport.submit = recording
        cluster.run_batched(tuples, batch_size=64)
    windows = [SyncRoutingIndex(routing, 1)]
    for seq, start in enumerate(range(0, len(tuples), 64)):
        window = tuples[start:start + 64]
        objects = [
            (position, item.payload.location.x, item.payload.location.y, item.payload.terms)
            for position, item in enumerate(window)
            if item.kind is TupleKind.OBJECT
        ]
        updates = [
            (position, item)
            for position, item in enumerate(window)
            if item.kind is not TupleKind.OBJECT
        ]
        windows.append(pickle.loads(pickle.dumps(RouteWindow(seq, 0, objects, updates))))
    inboxes = (queue.SimpleQueue(), queue.SimpleQueue())
    shipper = WorkerHost(0, {"worker": worker_init, "merger_endpoints": inboxes})
    for batch in batches:
        shipper.handle(batch)
    deliveries = []
    while not inboxes[0].empty():
        deliveries.append(pickle.loads(pickle.dumps(inboxes[0].get())))
    assert len(batches) > 10 and len(windows) > 10 and len(deliveries) > 10
    return worker_init, batches, windows, deliveries


def test_worker_host_makes_no_cycles(endpoint_traffic):
    worker_init, batches, _, _ = endpoint_traffic
    host = WorkerHost(0, {"worker": worker_init, "merger_endpoints": (queue.SimpleQueue(),) * 2})
    assert_makes_no_cycles(lambda: [host.handle(batch) for batch in batches])


def test_dispatch_host_makes_no_cycles(endpoint_traffic):
    _, _, windows, _ = endpoint_traffic
    host = DispatchHost(0, {"num_shards": 1})
    host.handle(windows[0])
    assert_makes_no_cycles(lambda: [host.handle(window) for window in windows[1:]])


def test_merge_host_makes_no_cycles(endpoint_traffic):
    _, _, _, deliveries = endpoint_traffic
    host = MergeHost(0, {"sink": SinkSpec(kind="memory")})
    assert_makes_no_cycles(lambda: [host.handle(delivery) for delivery in deliveries])
    assert host.merger.delivered > 0


# ----------------------------------------------------------------------
# The collector's state is handed back
# ----------------------------------------------------------------------
@pytest.fixture()
def report_probe(monkeypatch):
    """Record the collector's state each time ``report()`` builds its report."""
    states = []
    run_report = metrics.run_report

    def probe(*args, **kwargs):
        states.append(gc.isenabled())
        return run_report(*args, **kwargs)

    monkeypatch.setattr(metrics, "run_report", probe)
    return states


def record_steps(cluster, monkeypatch):
    """The replay's shard submissions, window executions and fences, in order."""
    steps = []

    def spy(owner, name, step):
        original = getattr(owner, name)

        def recorded(*args):
            steps.append(step)
            return original(*args)

        monkeypatch.setattr(owner, name, recorded)

    spy(cluster, "_execute_window", "execute")
    spy(cluster, "fence", "fence")
    if cluster._dispatch is not None:
        spy(cluster._dispatch, "submit_window", "submit")
    return steps


def overlapped_windows(steps):
    """Windows whose successor was submitted before they executed.

    Asserts on the way that every fence found nothing in flight: each
    submitted window had executed, so no window after a barrier was
    submitted before the barrier fired.
    """
    submitted = executed = overlapped = 0
    for step in steps:
        if step == "submit":
            submitted += 1
        elif step == "execute":
            overlapped += submitted > executed + 1
            executed += 1
        else:
            assert submitted == executed, "a window was routing at a fence"
    assert submitted == executed
    return overlapped


@pytest.mark.parametrize(
    "driver, dispatch, adjust_every",
    [
        pytest.param("run", "inline", 0, id="run-inline"),
        pytest.param("run_batched", "inline", 0, id="run_batched-inline"),
        pytest.param(
            "run_batched", "multiprocess", 0, marks=needs_cores, id="run_batched-pipelined"
        ),
        pytest.param(
            "run_batched", "multiprocess", 300, marks=needs_cores,
            id="run_batched-pipelined-adjusting",
        ),
    ],
)
def test_replay_is_paused_and_report_is_not(
    driver, dispatch, adjust_every, report_probe, monkeypatch
):
    states = []
    cluster, tuples = chaos_cluster(
        dispatch_backend=dispatch,
        sink=SinkSpec(kind="callback", callback=lambda result: states.append(gc.isenabled())),
    )
    steps = record_steps(cluster, monkeypatch)
    with cluster:
        assert gc.isenabled()
        getattr(cluster, driver)(tuples, adjust_every=adjust_every)
        assert gc.isenabled()
    assert len(states) > 50 and not any(states)
    assert report_probe == [True]
    if dispatch == "multiprocess":
        # Windows of 256 over 733 tuples; at a cadence of 300 they clip
        # to 256, 44 | 256, 44 | 133 and only the first of each pair has
        # its successor in flight while it executes.
        windows = steps.count("execute")
        assert overlapped_windows(steps) == (2 if adjust_every else windows - 1)
        assert steps.count("fence") == (2 if adjust_every else 0)


@pytest.mark.parametrize("driver", ["run", "run_batched"])
def test_collector_is_back_after_a_sink_raises(driver):
    deliveries = []

    def fail_on_fifth(result):
        deliveries.append(result)
        if len(deliveries) == 5:
            raise RuntimeError("subscriber gone")

    cluster, tuples = chaos_cluster(sink=SinkSpec(kind="callback", callback=fail_on_fifth))
    with cluster, pytest.raises(RuntimeError, match="subscriber gone"):
        getattr(cluster, driver)(tuples)
    assert gc.isenabled()


@needs_cores
def test_collector_is_back_after_a_worker_dies_unrecoverably():
    fault = FaultSpec(
        action="kill", role="worker", endpoint_id=1, message_type="RouteBatch", after_sends=2,
    )
    cluster, tuples = chaos_cluster(backend="multiprocess", fault_plan=FaultPlan((fault,)))
    with cluster, pytest.raises(TransportError):
        cluster.run_batched(tuples, batch_size=64)
    assert gc.isenabled()


def test_a_caller_that_disabled_the_collector_keeps_it_disabled(report_probe):
    states = []
    cluster, tuples = chaos_cluster(
        sink=SinkSpec(kind="callback", callback=lambda result: states.append(gc.isenabled())),
    )
    gc.disable()
    try:
        with cluster:
            cluster.run_batched(tuples, batch_size=64)
            cluster.run(tuples[:100])
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert states and not any(states)
    assert report_probe == [False, False]


class ScriptedChannel:
    """A channel that plays a fixed list of messages and keeps the replies."""

    def __init__(self, messages):
        self._messages = list(messages)
        self.sent = []

    def recv(self):
        return self._messages.pop(0)

    def send(self, message):
        self.sent.append(message)


def test_serve_loop_handles_its_session_paused(endpoint_traffic):
    worker_init, batches, _, _ = endpoint_traffic
    states = []

    class ProbedWorkerHost(WorkerHost):
        def handle(self, message):
            states.append(gc.isenabled())
            return super().handle(message)

    host = ProbedWorkerHost(0, {"worker": worker_init})
    channel = ScriptedChannel([RouteBatch(batches[0].ops), Shutdown()])
    assert serve_loop(host, 0, channel) is True
    assert states == [False]
    assert gc.isenabled()
    assert len(channel.sent) == 2 and channel.sent[-1] is True
