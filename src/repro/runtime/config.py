"""Sizing and calibration of one simulated cluster (:class:`ClusterConfig`)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.costmodel import CostModel
from .dispatch import DISPATCH_BACKENDS
from .fabric import FaultPlan
from .merge import MERGE_BACKENDS, SinkSpec
from .profiling import ProfilingSpec
from .telemetry import TelemetrySpec
from .transport import TRANSPORT_BACKENDS

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Sizing and calibration of the simulated cluster.

    The defaults mirror the paper's testbed: 4 dispatchers, 8 workers and
    one cell granularity ``2^6`` for the gridt and GI2 indexes alike.
    ``cost_unit_seconds`` converts the abstract cost units of
    :class:`~repro.core.costmodel.CostModel` into seconds; it was
    calibrated so that one object-handling unit corresponds to a few tens
    of microseconds of Python matching work.
    """

    num_dispatchers: int = 4
    num_workers: int = 8
    num_mergers: int = 2
    granularity: int = 64
    cost_model: CostModel = field(default_factory=CostModel)
    #: Seconds per cost unit.
    cost_unit_seconds: float = 20e-6
    #: Input rate (as a fraction of saturation) at which latency is reported.
    latency_load_fraction: float = 0.6
    #: Network / framework overhead per hop (source -> dispatcher -> worker),
    #: matching the millisecond-scale per-tuple latency floor of a Storm
    #: deployment on EC2.
    network_hop_ms: float = 4.0
    #: Bandwidth available for migrating queries between workers.
    migration_bandwidth_bytes_per_sec: float = 20e6
    #: Fixed network/coordination overhead per migration.
    migration_fixed_seconds: float = 0.05
    #: Worker transport backend: ``"inprocess"`` hosts every WorkerNode in
    #: the coordinator's interpreter (the reference), ``"multiprocess"``
    #: runs each worker in its own OS process (real multi-core matching),
    #: ``"socket"`` reaches ``repro serve --role worker`` endpoints over
    #: TCP (addresses from :attr:`manifest`, loopback-spawned otherwise).
    backend: str = "inprocess"
    #: Dispatch backend: ``"inline"`` routes on the coordinator (the
    #: reference), ``"inprocess"`` / ``"multiprocess"`` / ``"socket"``
    #: shard routing across ``num_dispatchers`` replicas of the routing
    #: index — the latter two one OS process (or TCP endpoint) per shard.
    dispatch_backend: str = "inline"
    #: Merger backend: ``"inprocess"`` hosts the ``num_mergers`` merger
    #: shards in the coordinator's interpreter (the reference),
    #: ``"multiprocess"`` one OS process per shard — combined with the
    #: multiprocess worker backend, workers ship match results directly
    #: to the shards and the coordinator never touches a result —
    #: ``"socket"`` one TCP endpoint per shard.
    merger_backend: str = "inprocess"
    #: Host manifest for the socket backends: a path to the JSON manifest
    #: (see :func:`repro.runtime.fabric.load_manifest`) or a
    #: :class:`~repro.runtime.fabric.ClusterManifest`.  Tiers without
    #: manifest addresses fall back to coordinator-spawned loopback
    #: ``serve`` processes.
    manifest: Optional[Any] = None
    #: Subscriber sink attached to every merger shard (null / memory /
    #: jsonl / callback; see :mod:`repro.runtime.merge`).
    sink: SinkSpec = field(default_factory=SinkSpec)
    #: How many recent (query, object) keys each merger shard remembers
    #: for deduplication.
    merger_dedup_window: int = 100_000
    #: Checkpoint the workers' query assignments every N tuples (0 — the
    #: default — disables checkpointing *and* worker recovery).  Checkpoints
    #: ride the same quiescent point as adjustment rounds: the closed-loop
    #: driver fences all three tiers, snapshots every worker's
    #: ``(cell, posting keyword)`` assignments into the cluster's
    #: :class:`~repro.runtime.checkpoint.CheckpointStore`, and an
    #: adjustment round doubles as a checkpoint.  A fault-free
    #: checkpointed run stays byte-identical across backends
    #: (``RunReport.recovery`` records only checkpoint counts and
    #: recovery events, never wall-clock state).
    checkpoint_every: int = 0
    #: Optional JSONL path the checkpoint store also appends encoded
    #: checkpoints to (for post-mortem inspection / cold restore).
    checkpoint_path: Optional[str] = None
    #: Chaos-harness fault plan: per-role
    #: :class:`~repro.runtime.fabric.FaultSpec` entries installed into the
    #: worker / merger / dispatcher fleets at construction (no-op on the
    #: in-process backends, which have no fleet to kill).
    fault_plan: Optional[FaultPlan] = None
    #: Runtime telemetry (:mod:`repro.runtime.telemetry`): ``None`` — the
    #: default — disables it entirely (zero hot-path work beyond one
    #: ``is None`` check per window).  When set, every batched window is
    #: traced route → match → merge, per-tier gauges are drained at
    #: window boundaries and adjustment barriers, and lifecycle events
    #: (adjustments, checkpoints, recoveries) are recorded — without
    #: perturbing reports: telemetry only *reads* the simulated cost
    #: accounting, and its control messages are exempt from chaos fault
    #: counting.
    telemetry: Optional[TelemetrySpec] = None
    #: The wall-clock stack sampler (:mod:`repro.runtime.profiling`):
    #: ``sample=True`` runs it in the coordinator process; ``None`` and
    #: ``ProfilingSpec()`` both leave it off.  The hot-loop cost counters
    #: (GI2 matching, GridT routing, merger dedup) are not configured
    #: here or anywhere — they count on every run and
    #: :meth:`Cluster.profile_report` always reads them.
    profiling: Optional[ProfilingSpec] = None

    def __post_init__(self) -> None:
        """Reject a deployment no tier could run — here, before any
        endpoint process has been spawned for it."""
        for name in ("num_dispatchers", "num_workers", "num_mergers"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1, got %r" % (name, getattr(self, name)))
        for kind, name, known in (
            ("transport", self.backend, TRANSPORT_BACKENDS),
            ("dispatch", self.dispatch_backend, DISPATCH_BACKENDS),
            ("merger", self.merger_backend, MERGE_BACKENDS),
        ):
            if name not in known:
                raise ValueError(
                    "unknown %s backend %r (expected one of %s)" % (kind, name, ", ".join(known))
                )
