"""The report matrix as a checked-in golden.

Every PR that reshaped the drivers or the window executor re-scripted the
same check by hand: ``repr(RunReport)`` byte-identical to the parent commit
over driver x dispatch x adjuster x checkpoints x workload.  Here it is one
file.  ``data/report_golden.json`` holds the sha-1 of ``repr(report)`` per
row, recorded with :func:`report_digest` **at the commit before ISSUE 21**
(the ``Cluster`` split) — never regenerate it from a commit that changes
the drivers, the executor or the report path; a row that legitimately moves
(a cost-model change, say) is re-recorded at the parent of that change:

    PYTHONPATH=<parent>/src:tests python -c "import json, test_report_golden as t; \
        print(json.dumps({row: t.report_digest(row) for row in t.ROWS}, indent=1))"
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.adjustment import GlobalAdjuster, GreedySelector, LocalLoadAdjuster
from repro.core.objects import StreamTuple, TupleKind
from repro.partitioning import HybridPartitioner, MetricTextPartitioner
from repro.runtime import Cluster, ClusterConfig
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset

GOLDEN_PATH = Path(__file__).parent / "data" / "report_golden.json"
SRC = str(Path(repro.__file__).resolve().parent.parent)

#: ``dataset-group-partitioner`` -> (dataset, group, objects per update,
#: partitioner): a read-mostly stream over Algorithm 1's plan and a 1:1
#: object/update stream over a text plan.
WORKLOADS = {
    "us-Q1-hybrid": ("us", "Q1", 5, HybridPartitioner),
    "us-Q3-metric": ("us", "Q3", 1, MetricTextPartitioner),
}
DRIVERS = {"tuple": 0, "batched": 256}
DISPATCH = ("inline", "inprocess")
ADJUSTERS = ("none", "local", "both")
CHECKPOINTS = {"off": 0, "on": 700}
#: Neither cadence divides the other or the window, so every clip happens.
ADJUST_EVERY = 900

#: ``workload/driver/dispatch/adjuster/checkpoints[/fabric tiers]``.
ROWS = [
    "/".join((workload, driver, dispatch, adjuster, checkpoints))
    for workload in WORKLOADS
    for driver in DRIVERS
    for dispatch in DISPATCH
    for adjuster in ADJUSTERS
    for checkpoints in CHECKPOINTS
] + [
    # Worker processes under the closed loop with checkpoints ...
    "us-Q1-hybrid/batched/inline/local/on/workers",
    # ... and every tier out of process: the pipelined sharded replay.
    "us-Q1-hybrid/batched/multiprocess/none/off/workers+mergers",
]


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


@functools.lru_cache(maxsize=None)
def workload(name):
    """``(plan, tuples)`` of one workload (4 workers, 1 500 objects, 2 800 and 4 000 tuples)."""
    dataset, group, objects_per_update, partitioner = WORKLOADS[name]
    tweets = make_dataset(dataset, seed=5)
    queries = QueryGenerator(tweets, seed=6)
    config = StreamConfig(mu=1000, group=group, objects_per_update=objects_per_update)
    stream = WorkloadStream(tweets, queries, config, seed=7)
    plan = partitioner().partition(stream.partitioning_sample(800), 4)
    return plan, renumbered(stream.tuples(1500))


def run_row(row):
    """Replay one row of the matrix; returns its :class:`RunReport`."""
    name, driver, dispatch, adjuster, checkpoints, *fabric = row.split("/")
    tiers = fabric[0].split("+") if fabric else ()
    plan, tuples = workload(name)
    config = ClusterConfig(
        num_dispatchers=2,
        num_workers=4,
        dispatch_backend=dispatch,
        checkpoint_every=CHECKPOINTS[checkpoints],
        backend="multiprocess" if "workers" in tiers else "inprocess",
        merger_backend="multiprocess" if "mergers" in tiers else "inprocess",
    )
    replay = {"adjust_every": 0 if adjuster == "none" else ADJUST_EVERY}
    if adjuster in ("local", "both"):
        replay["local_adjuster"] = LocalLoadAdjuster(GreedySelector())
    if adjuster == "both":
        replay["global_adjuster"] = GlobalAdjuster(HybridPartitioner())
    with Cluster(plan, config) as cluster:
        if DRIVERS[driver]:
            return cluster.run_batched(tuples, batch_size=DRIVERS[driver], **replay)
        return cluster.run(tuples, **replay)


def report_digest(row):
    return hashlib.sha1(repr(run_row(row)).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_row_is_recorded(golden):
    assert sorted(golden) == sorted(ROWS)
    # The axes are live: each one changes some report.
    assert len(set(golden.values())) > len(ROWS) // 4


@pytest.mark.parametrize("row", ROWS)
def test_report_equals_golden(golden, row):
    assert report_digest(row) == golden[row]


def test_reports_do_not_depend_on_the_hash_seed(golden):
    """A global check re-runs Algorithm 1 mid-stream over sets of terms."""
    rows = ["us-Q1-hybrid/batched/inline/both/on", "us-Q3-metric/tuple/inprocess/both/off"]
    script = (
        "import json, sys; sys.path.insert(0, %r); import test_report_golden as t; "
        "print(json.dumps({row: t.report_digest(row) for row in %r}))"
        % (str(Path(__file__).parent), rows)
    )
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        output = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, capture_output=True,
            text=True, timeout=120,
        ).stdout
        assert json.loads(output) == {row: golden[row] for row in rows}, seed
