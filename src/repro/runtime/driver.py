"""The replay driver: windows, Section V barriers and their recovery guard.

:func:`replay` is the one replay loop, behind :meth:`Cluster.run` and
:meth:`Cluster.run_batched`; on a concurrent dispatch fleet the shards
route the next window while the workers match the current one, and each
window is left in flight while the loop fills the next (on a remote
worker fleet the workers match it meanwhile).  Windows of one go to the
per-tuple driver as runs: the stream up to the next barrier is one
``Cluster._run``, which takes each tuple through the cluster before it
pulls the next.  The loop steps the cluster through ``_run`` /
``process_batch`` and ``run_adjustment`` / ``checkpoint_now``, reaching
past them only to stage the lookahead and to settle the window in flight
(``Cluster._settle``), and hands a worker death to
:class:`~repro.runtime.checkpoint.Recovery`.
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Protocol, Sequence

from ..core.geometry import Rect
from ..core.objects import StreamTuple, TupleKind
from ..partitioning.base import WorkloadSample
from .fabric import TransportError, gc_paused
from .protocol import barrier_context

if TYPE_CHECKING:
    from .checkpoint import Recovery
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

#: Tuples the replay pulls between two readiness checks of a window in flight.
POLL_EVERY = 16


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

    def passing(self, item: StreamTuple) -> StreamTuple:
        """Record one tuple and hand it on (a per-tuple run's feed)."""
        self.observe((item,))
        return item

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


def _fill(
    cluster: "Cluster", iterator: Iterator[StreamTuple], limit: int, recovery: Optional[Recovery]
) -> List[StreamTuple]:
    """Pull the next window of up to ``limit`` tuples off the stream.

    While a window is in flight its replies are checked before the first
    tuple and then every :data:`POLL_EVERY` tuples, and it settles as
    soon as all are in, so a paced feed never holds its deliveries back
    for a whole window.  A worker death that surfaces here loses only the
    window in flight: it is recovered on the spot, and the tuples already
    pulled stay in this window.
    """
    window: List[StreamTuple] = []
    while len(window) < limit:
        try:
            if not cluster._settle(wait=False):
                break
        except TransportError as exc:
            if recovery is None:
                raise
            recovery.recover_from(exc, ())
            break
        pulled = len(window)
        window.extend(islice(iterator, min(POLL_EVERY, limit - pulled)))
        if len(window) == pulled:
            return window  # the stream has ended
    window.extend(islice(iterator, limit - len(window)))
    return window


@gc_paused()
def replay(
    cluster: "Cluster",
    tuples: Iterable[StreamTuple],
    size: int,
    adjust_every: int = 0,
    local_adjuster: Optional[LocalAdjusterLike] = None,
    global_adjuster: Optional[GlobalAdjusterLike] = None,
) -> None:
    """Replay ``tuples`` in windows of ``size``, firing the barriers between.

    One loop for both drivers: ``size == 1`` hands the per-tuple driver
    the stream up to the next barrier as one run (``Cluster._run``; with a
    global adjuster each tuple passes the period sample on its way in),
    larger sizes go through :meth:`Cluster.process_batch` with windows
    clipped at the next barrier, so a barrier fires at the same stream
    position under either driver.  Two cadences set the barriers: every
    ``adjust_every`` tuples (when positive) one Section V round
    (:func:`run_adjustment`) on the period's sample; on a checkpointed
    cluster a checkpoint at stream start (if the store is empty) and every
    ``checkpoint_every`` tuples.
    An adjustment round doubles as a checkpoint and restarts that cadence
    — the adjusters may have migrated assignments, so the pre-round
    snapshot is stale anyway.

    With sharded routing on a concurrent dispatch fleet and windows of
    more than one tuple the loop looks one window ahead: it stages window
    K+1, which ``process_batch`` submits after collecting window K's
    routing and before executing K.  No window is taken past a barrier,
    and a barrier fires only once the window in flight has executed; the
    lookahead is re-decided after each, as a global drain routes inline.

    The workers' hop is pipelined too: window K is left in flight, and
    the loop fills window K+1 (:func:`_fill`) while the workers match K
    (in process they have matched it already).  K settles as soon as its
    replies are in, else at the tail of K+1 before K+1 ships, and always
    before a fence, an observation or the end of the stream.  The
    overlap comes from tuples already admitted: nothing waits on the
    source for K+1.

    Each step, window or barrier, runs under the one recovery guard: a
    worker death surfaces as a ``TransportError`` with ``died=True``,
    :meth:`~repro.runtime.checkpoint.Recovery.recover_from` re-installs
    the dead partition (or re-raises what it cannot recover) and the run
    resumes with the next step.  A run of the per-tuple driver loses the
    tuple it was taking through (``TransportError.progress``), which
    counts towards the cadences.  At most the windows in flight are lost
    — the one settling, and the one that shipped behind it if the death
    surfaced only at its tail — and the one routed ahead is routed again
    on the re-synced replicas.  A barrier settles the window in flight
    before it moves a cadence, so a death there loses that window and the
    barrier fires after the recovery; a barrier that dies with nothing in
    flight loses nothing and is not retried.
    """
    recovery = cluster.recovery
    checkpoint_every = cluster.config.checkpoint_every
    collector = PeriodSampleCollector(cluster.bounds) if global_adjuster is not None else None
    iterator = iter(tuples)
    position = 0  # tuples taken off the stream
    next_adjustment = adjust_every if adjust_every > 0 else _NEVER
    next_checkpoint = _NEVER
    if recovery is not None:
        next_checkpoint = checkpoint_every if len(recovery.store) else 0
    barrier = min(next_adjustment, next_checkpoint)
    dispatch = cluster._dispatch
    concurrent = size > 1 and dispatch is not None and dispatch.supports_pipelining
    lookahead = concurrent and cluster._sharded_routing()
    window: Sequence[StreamTuple] = ()
    ahead: Sequence[StreamTuple] = ()  # routing on the shards while ``window`` executes
    while True:
        try:
            if not ahead and position >= barrier:
                window = ()  # a barrier executes no window
                # Settle first: a death here loses that window, and the
                # barrier, its cadences and the period sample untouched,
                # fires again on the next pass.
                cluster._settle()
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
                lookahead = concurrent and cluster._sharded_routing()
                continue
            if size == 1:
                # Windows of one: the stream up to the barrier is one run.
                limit = barrier - position
                run: Iterator[StreamTuple] = islice(iterator, limit)
                if collector is not None:
                    run = map(collector.passing, run)
                try:
                    taken = cluster._run(run)[0]
                except TransportError as exc:
                    # A tuple lost to a recovery still counts towards the cadences.
                    taken, window = exc.progress
                    position += taken
                    raise
                position += taken
                if taken < limit:  # the stream has ended
                    break
                continue
            if ahead:
                window, ahead = ahead, ()
            else:
                window = _fill(cluster, iterator, min(size, barrier - position), recovery)
                if not window:
                    cluster._settle()
                    break
                # A window lost to a recovery still counts towards the cadences.
                position += len(window)
            if collector is not None:
                collector.observe(window)
            if lookahead and position < barrier:
                ahead = _fill(cluster, iterator, min(size, barrier - position), recovery)
                cluster._lookahead = ahead
                position += len(ahead)
            cluster.process_batch(window)
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
    version, so an untriggered round leaves the shard replicas synced.
    Run-level accounting (busy time, traces, match counts) is *not*
    cleared — the RunReport of a closed-loop run covers the whole
    stream; use :meth:`Cluster.reset_period` for a full reset.

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
