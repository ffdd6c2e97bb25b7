"""Shared test code: the oracle, the workloads, the backend gates, one replay.

Every test module imports what it shares from here, never from another
``test_*`` module, and :func:`brute_force` is the suite's only matcher of
record (CI checks both).
"""

import collections
import contextlib
import functools
import os
import random
import socket
from dataclasses import replace

import pytest

from repro.core import Point, Rect, STSQuery, SpatioTextualObject, StreamTuple, TupleKind
from repro.partitioning import HybridPartitioner, MetricTextPartitioner, WorkloadSample
from repro.runtime import Cluster, ClusterConfig, SinkSpec
from repro.runtime.fabric import FaultPlan, Fleet
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# What this host can run
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def loopback_available():
    """Whether loopback TCP sockets work in this sandbox."""
    try:
        socket.create_server(("127.0.0.1", 0)).close()
        return True
    except OSError:  # pragma: no cover - environment-dependent
        return False


def require_loopback():
    """Skip when loopback TCP sockets are unavailable in the sandbox."""
    if not loopback_available():  # pragma: no cover - environment-dependent
        pytest.skip("loopback sockets unavailable")


def available_backends(backends):
    """Filter a backend list down to the ones this sandbox can run."""
    return [backend for backend in backends if backend != "socket" or loopback_available()]


#: The process-spawning tests want a second core (CI's tier-1 job runs
#: them everywhere else); PS2STREAM_CHAOS=1 forces them on.
needs_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2 and not os.environ.get("PS2STREAM_CHAOS"),
    reason="spawning tests need at least 2 cores (PS2STREAM_CHAOS=1 forces)",
)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def make_workload(mu=250, group="Q1", seed=11, num_objects=600, workers=4,
                  partitioner=None, sample=500):
    """A fig 7(a)-style slice of the US stream: plan + materialised tuples."""
    tweets = make_dataset("us", seed=seed)
    queries = QueryGenerator(tweets, seed=seed + 1)
    stream = WorkloadStream(tweets, queries, StreamConfig(mu=mu, group=group), seed=seed + 2)
    partitioner = partitioner if partitioner is not None else HybridPartitioner()
    plan = partitioner.partition(stream.partitioning_sample(sample), workers)
    return plan, list(stream.tuples(num_objects))


def local_scenario():
    """A text plan whose load is concentrated enough for the local
    adjuster (``sigma=1.2``) to migrate cells mid-stream."""
    return make_workload(mu=300, seed=3, num_objects=800,
                         partitioner=MetricTextPartitioner(), sample=600)


def global_scenario():
    """A poor plan a hybrid repartitioning improves on: check, drain, finalise."""
    return make_workload(seed=3, num_objects=700, partitioner=MetricTextPartitioner())


def make_alpha_beta_workload(num_queries=120, num_objects=600, pairs=12, seed=7, workers=4):
    """Plan + tuples with a dense delivered set and real merger dedup.

    Each query is ``alphaJ OR betaJ`` and each object carries both keywords
    of one pair.  Metric text partitioning posts the two clauses under
    their own keywords, which routinely land on different workers, so a
    match is produced once per replica and the merger tier drops the
    copies.  Inserts and deletes are interleaved mid-stream.  Ids are
    explicit (queries and objects from 1), so the stream does not depend
    on what the process generated before.
    """
    rng = random.Random(seed)
    queries = []
    for index in range(num_queries):
        j = index % pairs
        x, y = rng.uniform(0, 55), rng.uniform(0, 55)
        queries.append(STSQuery.create(
            "alpha%d OR beta%d" % (j, j), Rect(x, y, x + 45, y + 45), query_id=index + 1,
        ))
    objects = []
    for index in range(num_objects):
        j = rng.randrange(pairs)
        objects.append(SpatioTextualObject(
            object_id=index + 1,
            text="",
            location=Point(rng.uniform(0, 100), rng.uniform(0, 100)),
            terms=frozenset({"alpha%d" % j, "beta%d" % j, "pad%d" % rng.randrange(40)}),
        ))
    sample = WorkloadSample(
        objects=objects[: num_objects // 2], insertions=queries, deletions=[], bounds=BOUNDS,
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


def renumbered(tuples):
    """The stream with object and query ids 1, 2, ... in arrival order.

    ``create`` draws ids from process-wide counters, so the raw ids — and
    with them the merger shard (``query_id % mergers``) a result lands on —
    depend on whatever the process generated before.
    """
    objects, queries, stream = 0, {}, []
    for item in tuples:
        if item.kind is TupleKind.OBJECT:
            objects += 1
            renamed = replace(item.payload, object_id=objects)
            stream.append(StreamTuple.object(renamed, item.arrival_time))
            continue
        query = item.payload.query
        if query.query_id not in queries:
            queries[query.query_id] = replace(query, query_id=len(queries) + 1)
        make = StreamTuple.insert if item.kind is TupleKind.INSERT else StreamTuple.delete
        stream.append(make(queries[query.query_id], item.arrival_time))
    return stream


#: The golden report matrix's streams: ``dataset-group-partitioner`` ->
#: (dataset, group, objects per update, partitioner), a read-mostly stream
#: over Algorithm 1's plan and a 1:1 object/update stream over a text plan.
GOLDEN_WORKLOADS = {
    "us-Q1-hybrid": ("us", "Q1", 5, HybridPartitioner),
    "us-Q3-metric": ("us", "Q3", 1, MetricTextPartitioner),
}


@functools.lru_cache(maxsize=None)
def golden_workload(name):
    """``(plan, tuples)`` of a golden workload (4 workers, 1 500 objects)."""
    dataset, group, objects_per_update, partitioner = GOLDEN_WORKLOADS[name]
    tweets = make_dataset(dataset, seed=5)
    queries = QueryGenerator(tweets, seed=6)
    config = StreamConfig(mu=1000, group=group, objects_per_update=objects_per_update)
    stream = WorkloadStream(tweets, queries, config, seed=7)
    plan = partitioner().partition(stream.partitioning_sample(800), 4)
    return plan, renumbered(stream.tuples(1500))


# ----------------------------------------------------------------------
# One replay
# ----------------------------------------------------------------------
@contextlib.contextmanager
def replayed(plan, tuples, *, batch_size=0, workers=4, dispatchers=2, mergers=2,
             backend="inprocess", dispatch="inline", merger="inprocess",
             granularity=ClusterConfig.granularity, sink=SinkSpec(kind="memory"),
             checkpoint_every=0, fault=None, telemetry=None, prepare=None, **replay):
    """Replay ``tuples`` on one deployment and yield
    ``(cluster, report)`` while the cluster is still up.

    ``batch_size`` 0 or 1 runs the per-tuple driver; ``prepare(cluster)``,
    if given, runs before the replay; ``replay`` carries ``adjust_every``
    and the adjusters.
    """
    config = ClusterConfig(
        num_dispatchers=dispatchers,
        num_workers=workers,
        num_mergers=mergers,
        granularity=granularity,
        backend=backend,
        dispatch_backend=dispatch,
        merger_backend=merger,
        sink=sink,
        checkpoint_every=checkpoint_every,
        fault_plan=FaultPlan((fault,)) if fault is not None else None,
        telemetry=telemetry,
    )
    with Cluster(plan, config) as cluster:
        if prepare is not None:
            prepare(cluster)
        if batch_size > 1:
            report = cluster.run_batched(tuples, batch_size=batch_size, **replay)
        else:
            report = cluster.run(tuples, **replay)
        yield cluster, report


def delivered_pairs(cluster):
    """Drain the sinks: every ``(query id, object id)``, duplicates kept."""
    return [
        (result.query_id, result.object_id)
        for _, results in sorted(cluster.drain_sinks().items())
        for result in results
    ]


def run(plan, tuples, **deployment):
    """:func:`replayed`, then drain the sinks; returns ``(report, delivered
    pairs)`` (only the default ``memory`` sink keeps pairs to drain)."""
    with replayed(plan, tuples, **deployment) as (cluster, report):
        return report, delivered_pairs(cluster)


# ----------------------------------------------------------------------
# Comparing runs
# ----------------------------------------------------------------------
def assert_equivalent(reference, candidate):
    """The per-tuple and the batched driver report the same run: counts
    exactly, loads, throughput and latency within float summation order."""
    for field in ("tuples_processed", "objects_processed", "insertions_processed",
                  "deletions_processed", "matches_produced", "matches_delivered",
                  "object_fanout", "query_fanout"):
        assert getattr(reference, field) == getattr(candidate, field), field
    assert candidate.throughput == pytest.approx(reference.throughput, rel=1e-9)
    assert set(candidate.worker_loads) == set(reference.worker_loads)
    for worker, load in reference.worker_loads.items():
        assert candidate.worker_loads[worker] == pytest.approx(load, rel=1e-9, abs=1e-9)
    assert candidate.worker_memory == reference.worker_memory
    assert candidate.dispatcher_memory == reference.dispatcher_memory
    assert candidate.mean_latency_ms == pytest.approx(reference.mean_latency_ms, rel=1e-9)
    assert candidate.p95_latency_ms == pytest.approx(reference.p95_latency_ms, rel=1e-9)


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
