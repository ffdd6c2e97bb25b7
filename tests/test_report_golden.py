"""The conformance matrix: every row is one deployment checked against one oracle.

A row is ``workload/driver/dispatch/adjuster/checkpoints[/tiers[/telemetry]]``:

* ``workload`` — a key of :data:`WORKLOADS`, which also fixes the window,
  the adjustment and checkpoint cadences, the local adjuster's sigma, the
  number of dispatcher shards and the grid granularity;
* ``driver`` — ``tuple`` (``Cluster.run``) or ``batched`` (``run_batched``);
* ``dispatch`` — ``inline`` or the shard backend (``inprocess``,
  ``multiprocess``, ``socket``);
* ``adjuster`` — ``none``, ``local`` or ``both`` (local and global);
* ``checkpoints`` — ``off`` or ``on``;
* ``tiers`` — ``-``, or the ``+``-joined tiers run out of process, each
  ``workers`` or ``mergers`` with an optional ``:backend``
  (``multiprocess`` when omitted);
* ``telemetry`` — present when telemetry is on.

Each row replays once, into a memory sink, and must

1. have its digest, the sha-1 of ``repr(RunReport)``;
2. deliver exactly the :func:`harness.brute_force` oracle's
   ``(query, object)`` set;
3. deliver no pair twice.

A row's **twin** is the same row routed inline, with every tier in
process and telemetry off; every row's adjustment rounds (cell
migrations, per-round shard snapshots, repartitions) must equal its
twin's.  Every replay is cached, so a twin runs once however many rows
name it.

There are two kinds of row.  A **golden row** (:data:`GOLDEN_ROWS`) has
its digest in ``data/report_golden.json``, recorded **at the commit before
the ``Cluster`` split**.  Never regenerate it from a commit
that changes the drivers, the executor or the report path; a row that
legitimately moves (a cost-model change, say) is re-recorded at the parent
of that change:

    PYTHONPATH=<parent>/src:tests python -c "import json, test_report_golden as t; \
        print(json.dumps({row: t.replay(row).digest for row in t.GOLDEN_ROWS}, indent=1))"

A **twin row** (:data:`TWIN_ROWS`) has its twin's digest, replayed in
the same session.  Twin rows run the dense alpha/beta workload, where
the merger really deduplicates, and put each tier out of process, the
dispatch and merger backends crossed with in-process and out-of-process
workers; they also assert that each row exercises what it claims
(deletions, duplicates, checkpoints, triggered rounds, a finalised
repartition, traced batched windows and lifecycle marks).

To add an axis, give the row grammar one more field (or one more value of
a field), map it onto :func:`harness.run` in :func:`replay`, keep its
reference value equal to what a twin runs, and list the rows that need it
in :data:`TWIN_ROWS`.  Golden rows keep their names and digests.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import pytest

import repro
from harness import (
    brute_force,
    golden_workload,
    make_alpha_beta_workload,
    require_loopback,
    run,
)
from repro.adjustment import GlobalAdjuster, GreedySelector, LocalLoadAdjuster
from repro.partitioning import HybridPartitioner
from repro.runtime.telemetry import (
    GaugeSample,
    LifecycleEvent,
    TelemetrySpec,
    WindowSpan,
    read_events,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "report_golden.json"
SRC = str(Path(repro.__file__).resolve().parent.parent)


class Workload(NamedTuple):
    build: object
    #: Tuples per window of the batched driver.
    batch_size: int
    adjust_every: int
    checkpoint_every: int
    #: The local adjuster's trigger ratio.
    sigma: float
    #: Dispatcher shards (inline routing keeps one ledger per shard).
    dispatchers: int
    #: Cells per side of the routing and GI2 grids.
    granularity: int


#: No cadence divides another or the window, so every clip happens.  The
#: alpha/beta queries each cover a fifth of the space; a 32-cell grid keeps
#: their insertion (about 15 x 15 cells per query, on every dispatcher
#: replica and worker) cheap enough for the twin rows' many deployments.
WORKLOADS = {
    **{
        name: Workload(functools.partial(golden_workload, name), 256, 900, 700, 2.0, 2, 64)
        for name in ("us-Q1-hybrid", "us-Q3-metric")
    },
    "alphabeta-OR-metric": Workload(make_alpha_beta_workload, 64, 200, 150, 1.2, 4, 32),
}

GOLDEN_ROWS = [
    "/".join((workload, driver, dispatch, adjuster, checkpoints))
    for workload in ("us-Q1-hybrid", "us-Q3-metric")
    for driver in ("tuple", "batched")
    for dispatch in ("inline", "inprocess")
    for adjuster in ("none", "local", "both")
    for checkpoints in ("off", "on")
] + [
    # Worker processes under the closed loop with checkpoints ...
    "us-Q1-hybrid/batched/inline/local/on/workers",
    # ... and every tier out of process: the replay routes a window ahead,
    # also across adjustment rounds and checkpoints.
    "us-Q1-hybrid/batched/multiprocess/none/off/workers+mergers",
    "us-Q1-hybrid/batched/multiprocess/local/on/workers+mergers",
    "us-Q1-hybrid/batched/multiprocess/both/on/workers+mergers",
]

SHARDS = ("inprocess", "multiprocess", "socket")

TWIN_ROWS = [
    "alphabeta-OR-metric/" + row
    for row in (
        # Worker processes and sockets: both drivers, checkpointed, closed
        # loop, repartition.
        *(
            f"{driver}/inline/{adjuster}/{checkpoints}/workers{backend}"
            for driver, adjuster, checkpoints in (
                ("tuple", "none", "off"),
                ("batched", "none", "off"),
                ("batched", "none", "on"),
                ("batched", "local", "off"),
                ("batched", "both", "off"),
            )
            for backend in ("", ":socket")
        ),
        # Dispatch shards in process, in processes and behind sockets: over
        # in-process and worker processes, and through both adjusters.
        *(f"{driver}/{dispatch}/none/off" for driver in ("tuple", "batched") for dispatch in SHARDS),
        *(f"tuple/{dispatch}/none/off/workers" for dispatch in SHARDS),
        *(
            f"batched/{dispatch}/local/off{workers}"
            for dispatch in SHARDS
            for workers in ("", "/workers")
        ),
        *(f"batched/{dispatch}/both/off" for dispatch in SHARDS[:2]),
        "batched/socket/both/on",
        "batched/inprocess/local/on/workers+mergers",
        # Merger processes and sockets, over in-process and worker processes.
        *(
            f"{driver}/inline/{adjuster}/off/{workers}mergers{backend}"
            for driver, adjuster in (("tuple", "none"), ("batched", "none"), ("batched", "local"))
            for workers in ("", "workers+")
            for backend in ("", ":socket")
        ),
        # Telemetry on: in process, and with every tier out of process.
        "tuple/inline/none/off/-/telemetry",
        "batched/inline/local/on/-/telemetry",
        "batched/multiprocess/both/on/workers+mergers/telemetry",
        "batched/socket/none/off/workers:socket+mergers:socket/telemetry",
    )
]


class Outcome(NamedTuple):
    report: object
    digest: str
    #: The local and the global adjuster's rounds (wall-clock fields zeroed).
    rounds: tuple
    delivered: list
    events: list


@functools.lru_cache(maxsize=None)
def stream(name):
    return WORKLOADS[name].build()


@functools.lru_cache(maxsize=None)
def oracle(name):
    return brute_force(stream(name)[1])


def twin(row):
    """The row routed inline, every tier in process, telemetry off."""
    name, driver, _, adjuster, checkpoints = row.split("/")[:5]
    return "/".join((name, driver, "inline", adjuster, checkpoints))


@functools.lru_cache(maxsize=None)
def replay(row):
    """Replay one row of the matrix (once per session)."""
    name, driver, dispatch, adjuster, checkpoints, *rest = row.split("/")
    backends = {"workers": "inprocess", "mergers": "inprocess"}
    for tier in rest[0].split("+") if rest and rest[0] != "-" else ():
        tier, _, backend = tier.partition(":")
        assert tier in backends, row
        backends[tier] = backend or "multiprocess"
    workload = WORKLOADS[name]
    plan, tuples = stream(name)
    adjusters = {}
    if adjuster in ("local", "both"):
        adjusters["local_adjuster"] = LocalLoadAdjuster(GreedySelector(), sigma=workload.sigma)
    if adjuster == "both":
        adjusters["global_adjuster"] = GlobalAdjuster(HybridPartitioner())
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "telemetry.jsonl")
        report, delivered = run(
            plan,
            tuples,
            batch_size=workload.batch_size if driver == "batched" else 0,
            dispatchers=workload.dispatchers,
            granularity=workload.granularity,
            dispatch=dispatch,
            backend=backends["workers"],
            merger=backends["mergers"],
            checkpoint_every=workload.checkpoint_every if checkpoints == "on" else 0,
            telemetry=TelemetrySpec(path=path) if rest[1:] == ["telemetry"] else None,
            adjust_every=workload.adjust_every if adjusters else 0,
            **adjusters,
        )
        events = read_events(path) if os.path.exists(path) else []
    local, global_ = adjusters.get("local_adjuster"), adjusters.get("global_adjuster")
    rounds = (
        tuple(replace(entry, selection_time_ms=0.0) for entry in local.history) if local else (),
        tuple(global_.history) if global_ else (),
    )
    digest = hashlib.sha1(repr(report).encode()).hexdigest()
    return Outcome(report, digest, rounds, delivered, events)


def assert_conforms(row):
    """Checks 2 and 3; and the row's adjustment rounds are its twin's."""
    outcome = replay(row)
    assert set(outcome.delivered) == oracle(row.split("/")[0])
    assert len(outcome.delivered) == len(set(outcome.delivered))
    assert outcome.rounds == replay(twin(row)).rounds
    return outcome


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_golden_row_is_recorded(golden):
    assert sorted(golden) == sorted(GOLDEN_ROWS)
    # The axes are live: each one changes some report.
    assert len(set(golden.values())) > len(GOLDEN_ROWS) // 4


@pytest.mark.parametrize("row", GOLDEN_ROWS)
def test_golden_row(golden, row):
    assert assert_conforms(row).digest == golden[row]


@pytest.mark.parametrize("row", TWIN_ROWS)
def test_twin_row(row):
    if "socket" in row:
        require_loopback()
    assert twin(row) != row
    outcome = assert_conforms(row)
    assert outcome.digest == assert_conforms(twin(row)).digest
    # The row exercises what it claims.
    report, (local, global_) = outcome.report, outcome.rounds
    assert report.deletions_processed > 0
    assert report.matches_produced > report.matches_delivered
    assert sum(report.merger_duplicates.values()) > 0
    name, driver, _, adjuster, checkpoints, *rest = row.split("/")
    if checkpoints == "on":
        assert report.recovery.checkpoints_taken > 1 and report.recovery.events == ()
    if adjuster != "none":
        assert any(entry.triggered for entry in local)
    for entry in local:  # a round reads both sharded tiers at its fence
        assert set(entry.dispatcher_memory_bytes) == set(range(WORKLOADS[name].dispatchers))
        assert set(entry.merger_delivered) == {0, 1}
    if adjuster == "both":
        assert any(entry.repartitioned for entry in global_)
        assert any(entry.finalized for entry in global_)
    if rest[1:] == ["telemetry"]:
        # Only a batched window is traced as a span.
        assert any(isinstance(event, WindowSpan) for event in outcome.events) == (driver == "batched")
        tiers = {event.tier for event in outcome.events if isinstance(event, GaugeSample)}
        assert tiers == {"dispatcher", "worker", "merger", "coordinator"}
        kinds = {event.kind for event in outcome.events if isinstance(event, LifecycleEvent)}
        assert ("adjustment" in kinds) == (adjuster != "none")
        assert ("checkpoint" in kinds) == (checkpoints == "on")


def test_reports_do_not_depend_on_the_hash_seed(golden):
    """A global check re-runs Algorithm 1 mid-stream over sets of terms."""
    rows = ["us-Q1-hybrid/batched/inline/both/on", "us-Q3-metric/tuple/inprocess/both/off"]
    script = (
        "import json, sys; sys.path.insert(0, %r); import test_report_golden as t; "
        "print(json.dumps({row: t.replay(row).digest for row in %r}))"
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
