"""The replay driver: windows, Section V barriers and their recovery guard.

:func:`replay` is the loop behind :meth:`Cluster.run` and
:meth:`Cluster.run_batched` (the one other loop, the pipelined sharded
replay, lives beside the window executor it splits open).  It steps the
cluster through its public entry points only — ``process`` /
``process_batch``, ``run_adjustment`` / ``checkpoint_now`` — and hands a
worker death to :class:`~repro.runtime.checkpoint.Recovery`.
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import TYPE_CHECKING, Iterable, List, Optional, Protocol, Sequence

from ..core.geometry import Rect
from ..core.objects import StreamTuple, TupleKind
from ..partitioning.base import WorkloadSample
from .fabric import TransportError, gc_paused
from .protocol import barrier_context

if TYPE_CHECKING:
    from .cluster import Cluster

__all__ = [
    "GlobalAdjusterLike",
    "LocalAdjusterLike",
    "PeriodSampleCollector",
    "replay",
    "run_adjustment",
]

#: Stream position of a barrier that is switched off.
_NEVER = sys.maxsize


class LocalAdjusterLike(Protocol):
    """What the closed loop needs from a Section V-A local adjuster
    (structural — the concrete adjusters live in :mod:`repro.adjustment`,
    which imports the cluster, so the dependency cannot point the other
    way)."""

    def adjust(self, cluster: "Cluster") -> object: ...


class GlobalAdjusterLike(Protocol):
    """What the closed loop needs from a Section V-B global adjuster."""

    def adjust(self, cluster: "Cluster", sample: Optional[WorkloadSample]) -> object: ...


class PeriodSampleCollector:
    """Workload sample of the current measurement period (closed loop).

    The global adjuster re-runs the partitioning algorithm on "a recent
    sample" (Section V-B).  When a global adjuster is attached to the
    closed-loop driver, the cluster collects the period's traffic here —
    capped so a long period cannot balloon — and hands a
    :class:`~repro.partitioning.base.WorkloadSample` to the adjuster at
    every window barrier, then starts over for the next period.
    """

    __slots__ = ("bounds", "max_objects", "max_queries", "_objects", "_insertions", "_deletions")

    def __init__(self, bounds: Rect, *, max_objects: int = 2000, max_queries: int = 1000) -> None:
        self.bounds = bounds
        self.max_objects = max_objects
        self.max_queries = max_queries
        self.reset()

    def observe(self, items: Iterable[StreamTuple]) -> None:
        """Record one window of tuples (first-N per kind per period)."""
        objects = self._objects
        insertions = self._insertions
        deletions = self._deletions
        max_objects = self.max_objects
        max_queries = self.max_queries
        for item in items:
            if item.kind is TupleKind.OBJECT:
                if len(objects) < max_objects:
                    objects.append(item.payload)
            elif item.kind is TupleKind.INSERT:
                if len(insertions) < max_queries:
                    insertions.append(item.payload.query)
            elif len(deletions) < max_queries:
                deletions.append(item.payload.query)

    def sample(self) -> Optional[WorkloadSample]:
        """The period's sample, or ``None`` when nothing was observed."""
        if not self._objects and not self._insertions:
            return None
        return WorkloadSample(
            objects=list(self._objects),
            insertions=list(self._insertions),
            deletions=list(self._deletions),
            bounds=self.bounds,
        )

    def reset(self) -> None:
        """Forget the period (called after each adjustment barrier)."""
        self._objects: List = []
        self._insertions: List = []
        self._deletions: List = []


@gc_paused()
def replay(
    cluster: "Cluster",
    tuples: Iterable[StreamTuple],
    size: int,
    trace: bool,
    adjust_every: int = 0,
    local_adjuster: Optional[LocalAdjusterLike] = None,
    global_adjuster: Optional[GlobalAdjusterLike] = None,
) -> None:
    """Replay ``tuples`` in windows of ``size``, firing the barriers between.

    One loop for both drivers: ``size == 1`` steps tuple by tuple through
    :meth:`Cluster.process`, larger sizes through
    :meth:`Cluster.process_batch` with windows clipped at the next
    barrier, so a barrier fires at the same stream position under either
    driver.  Two cadences set the barriers: every ``adjust_every`` tuples
    (when positive) one Section V round (:func:`run_adjustment`) on the
    period's sample; on a checkpointed cluster a checkpoint at stream
    start (if the store is empty) and every ``checkpoint_every`` tuples.
    An adjustment round doubles as a checkpoint and restarts that cadence
    — the adjusters may have migrated assignments, so the pre-round
    snapshot is stale anyway.

    Each step, window or barrier, runs under the one recovery guard: a
    worker death surfaces as a ``TransportError`` with ``died=True``,
    :meth:`~repro.runtime.checkpoint.Recovery.recover_from` re-installs
    the dead partition (or re-raises what it cannot recover) and the run
    resumes with the next step.  At most the in-flight window is lost; a
    barrier that dies loses nothing and is not retried.
    """
    recovery = cluster.recovery
    checkpoint_every = cluster.config.checkpoint_every
    collector = PeriodSampleCollector(cluster.bounds) if global_adjuster is not None else None
    iterator = iter(tuples)
    singles = zip(iterator)  # windows of one, built at C speed
    position = 0
    next_adjustment = adjust_every if adjust_every > 0 else _NEVER
    next_checkpoint = _NEVER
    if recovery is not None:
        next_checkpoint = checkpoint_every if len(recovery.store) else 0
    barrier = min(next_adjustment, next_checkpoint)
    window: Sequence[StreamTuple] = ()
    while True:
        try:
            if position < barrier:
                if size > 1:
                    window = list(islice(iterator, min(size, barrier - position)))
                else:
                    window = next(singles, ())
                if not window:
                    break
                # A window lost to a recovery still counts towards the cadences.
                position += len(window)
                if collector is not None:
                    collector.observe(window)
                if size > 1:
                    cluster.process_batch(window, trace=trace)
                else:
                    cluster.process(window[0], trace=trace)
            else:
                window = ()  # nothing is in flight at a barrier
                adjusting = position >= next_adjustment
                if adjusting:
                    next_adjustment = position + adjust_every
                if recovery is not None:
                    next_checkpoint = position + checkpoint_every
                barrier = min(next_adjustment, next_checkpoint)
                if adjusting:
                    sample = None
                    if collector is not None:
                        sample = collector.sample()
                        collector.reset()
                    cluster.run_adjustment(
                        local_adjuster=local_adjuster,
                        global_adjuster=global_adjuster,
                        sample=sample,
                    )
                    if recovery is not None:
                        recovery.take_checkpoint()
                else:
                    cluster.checkpoint_now()
        except TransportError as exc:
            if recovery is None:
                raise
            recovery.recover_from(exc, window)


@barrier_context
def run_adjustment(
    cluster: "Cluster",
    *,
    local_adjuster: Optional[LocalAdjusterLike] = None,
    global_adjuster: Optional[GlobalAdjusterLike] = None,
    sample: Optional[WorkloadSample] = None,
    reset_loads: bool = True,
) -> None:
    """One Section V adjustment round at a window barrier (``Cluster.run_adjustment``).

    Runs the local adjuster (``adjust(cluster)``) and/or the global
    adjuster (``adjust(cluster, sample)`` — a pending repartition is
    finalised, otherwise the period sample is checked), then starts a
    new load-measurement period so the next round observes only
    post-adjustment traffic.  The invalidation contract is enforced
    by the mutators themselves: every H1 mutation the adjusters can
    perform (``migrate_cells``, ``migrate_keywords``,
    ``replace_routing_index``, a Phase I split) bumps the routing
    version and drops the insertion-plan cache, so an untriggered
    round leaves the plan cache warm.  Run-level accounting (busy
    time, traces, match counts) is *not* cleared — the RunReport of a
    closed-loop run covers the whole stream; use
    :meth:`Cluster.reset_period` for a full reset.

    The round opens with :meth:`Cluster.fence`, so no adjuster reads or
    mutates state while a shipped window is unapplied, a shard is still
    routing or a result is undelivered.
    """
    epoch = cluster.fence()
    # The fence is the one point where every tier is quiescent, so the
    # gauges drained here are an exact cross-tier cut.
    cluster._record_lifecycle("adjustment", epoch=epoch)
    cluster._drain_gauges()
    if local_adjuster is not None:
        local_adjuster.adjust(cluster)
    if global_adjuster is not None:
        global_adjuster.adjust(cluster, sample)
    if reset_loads:
        cluster.reset_load_measurement()
