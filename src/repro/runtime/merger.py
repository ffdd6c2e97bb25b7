"""Merger processes: deduplicate match results and deliver them to users.

A query replicated to several workers (because its region or keywords span
multiple partitions) can produce the same (query, object) match more than
once; the merger removes the duplicates before notifying subscribers
(Section III-B).

:class:`MergerNode` is the single-shard state machine — one loop,
:meth:`MergerNode.handle_many`, which every backend feeds whole batches;
each node lives in a merger host (:class:`repro.runtime.merge.MergeHost`),
and where that host runs is :func:`repro.runtime.fabric.make_fleet`'s to
decide: in the coordinator's interpreter (``inprocess``), one per OS
process with workers shipping results to the shards directly
(``multiprocess``) or behind TCP (``socket``).  Delivered results are
handed to an optional subscriber *sink* (null / memory / JSONL / callback —
see :mod:`repro.runtime.merge`), which is also where per-subscriber
deliveries are counted; sink work is real I/O and is deliberately not
part of the simulated ``RESULT_COST`` accounting, so attaching a sink
never changes a report.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Optional, Protocol, Set, Tuple

from ..core.counters import DedupProfile
from ..core.objects import MatchResult

__all__ = ["MergerNode", "ResultSink"]


class ResultSink(Protocol):
    """What a merger needs from a subscriber sink (structural — the
    concrete sinks live in :mod:`repro.runtime.merge`, which imports this
    module, so the dependency cannot point the other way)."""

    def deliver(self, result: MatchResult) -> None: ...


class MergerNode:
    """One merger of the PS2Stream cluster."""

    #: Cost of handling one match result (deduplication + delivery).
    RESULT_COST = 0.02
    #: How many recent match keys are remembered for deduplication.  A real
    #: deployment cannot remember every (query, object) pair it ever
    #: delivered; a sliding window over recent keys is sufficient because
    #: duplicates of one object arrive close together.
    DEDUP_WINDOW = 100_000

    def __init__(self, merger_id: int, *, sink: Optional[ResultSink] = None) -> None:
        """``sink`` is an optional subscriber sink receiving every delivered
        result."""
        self.merger_id = merger_id
        #: What :meth:`handle_many` did so far (:mod:`repro.core.counters`);
        #: unlike the period counters below these accumulate across
        #: ``reset_period``, so a run's profile covers every window.
        self.profile = DedupProfile()
        self.busy_cost = 0.0
        self.received = 0
        self.delivered = 0
        self.duplicates = 0
        self.sink = sink
        self._seen: Set[Tuple[int, int]] = set()
        # Eviction order of the dedup window; a deque so the per-result
        # eviction at the window boundary is O(1) (a list's pop(0) is O(n)).
        self._order: Deque[Tuple[int, int]] = deque()

    def handle(self, result: MatchResult) -> bool:
        """Process one match result; returns ``True`` when delivered."""
        return self.handle_many((result,)) == 1

    def handle_many(self, results: Iterable[MatchResult]) -> int:
        """Process a batch of results; returns how many were delivered.

        The merger's one loop: state is bound to locals and the counters
        are settled once per batch (in ``finally``, so a raising sink
        leaves them where a per-result update would have).  ``busy_cost``
        is still advanced result by result — a single
        ``received * RESULT_COST`` would round differently and move the
        reported ``merger_busy`` float.
        """
        seen = self._seen
        seen_add = seen.add
        order = self._order
        order_append = order.append
        window = self.DEDUP_WINDOW
        deliver = self.sink.deliver if self.sink is not None else None
        result_cost = self.RESULT_COST
        busy_cost = self.busy_cost
        received = duplicates = evictions = 0
        try:
            for result in results:
                received += 1
                busy_cost += result_cost
                key = (result.query_id, result.object_id)  # result.key(), inlined
                if key in seen:
                    duplicates += 1
                    continue
                seen_add(key)
                order_append(key)
                if len(order) > window:
                    seen.discard(order.popleft())
                    evictions += 1
                if deliver is not None:
                    deliver(result)
        finally:
            delivered = received - duplicates
            self.busy_cost = busy_cost
            self.received += received
            self.delivered += delivered
            self.duplicates += duplicates
            counters = self.profile
            counters.lookups += received
            counters.duplicates += duplicates
            counters.evictions += evictions
        return delivered

    def reset_period(self) -> None:
        self.busy_cost = 0.0
        self.received = 0
        self.delivered = 0
        self.duplicates = 0

    def memory_bytes(self) -> int:
        return 48 * len(self._seen)

    def dedup_population(self) -> int:
        """Live ``(query, object)`` keys in the dedup window (telemetry)."""
        return len(self._seen)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "MergerNode(id=%d, delivered=%d)" % (self.merger_id, self.delivered)
