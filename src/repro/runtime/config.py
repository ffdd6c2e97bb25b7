"""Sizing and calibration of one simulated cluster (:class:`ClusterConfig`)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

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
    one cell granularity ``2^6`` for the gridt and GI2 indexes alike.  The
    cost model and its calibration (seconds per cost unit, the network
    hop, the latency load point) are constants of
    :mod:`repro.core.costmodel`, not settings.
    """

    num_dispatchers: int = 4
    num_workers: int = 8
    num_mergers: int = 2
    granularity: int = 64
    #: Bandwidth available for migrating queries between workers.
    migration_bandwidth_bytes_per_sec: float = 20e6
    #: Fixed network/coordination overhead per migration.
    migration_fixed_seconds: float = 0.05
    #: Where the worker hosts live (:func:`~repro.runtime.fabric.make_fleet`):
    #: ``"inprocess"`` in the coordinator's interpreter on a ``LocalFleet``
    #: (the reference), ``"multiprocess"`` one OS process per worker (real
    #: multi-core matching), ``"socket"`` behind ``repro serve --role
    #: worker`` endpoints over TCP (addresses from :attr:`manifest`,
    #: loopback-spawned otherwise).
    backend: str = "inprocess"
    #: Dispatch backend: ``"inline"`` routes on the coordinator (the
    #: reference), ``"inprocess"`` / ``"multiprocess"`` / ``"socket"``
    #: shard routing across ``num_dispatchers`` replicas of the routing
    #: index — the same dispatch hosts on a ``LocalFleet``, one OS process
    #: or one TCP endpoint per shard.
    dispatch_backend: str = "inline"
    #: Where the ``num_mergers`` merger hosts live: ``"inprocess"`` in the
    #: coordinator's interpreter on a ``LocalFleet`` (the reference),
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
    #: worker / merger / dispatcher fleets at construction (ignored by a
    #: ``LocalFleet``: an in-process host has no process or link to kill).
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
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0, got %r" % self.checkpoint_every)
        for kind, name, known in (
            ("transport", self.backend, TRANSPORT_BACKENDS),
            ("dispatch", self.dispatch_backend, DISPATCH_BACKENDS),
            ("merger", self.merger_backend, MERGE_BACKENDS),
        ):
            if name not in known:
                raise ValueError(
                    "unknown %s backend %r (expected one of %s)" % (kind, name, ", ".join(known))
                )
        tiers = {
            "worker": self.num_workers,
            "dispatcher": self.num_dispatchers,
            "merger": self.num_mergers,
        }
        for spec in self.fault_plan.faults if self.fault_plan is not None else ():
            if spec.endpoint_id >= tiers[spec.role]:
                raise ValueError(
                    "fault endpoint_id %d is outside the %s tier of %d"
                    % (spec.endpoint_id, spec.role, tiers[spec.role])
                )
