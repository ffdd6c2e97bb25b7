"""Measurement utilities of the cluster simulator (paper Section VI).

The paper's experiments report four families of metrics: processing
throughput (tuples per second at saturation — Figures 6, 7, 11, 16),
per-tuple latency (Figure 8, including the <100 ms / 100 ms–1 s / >1 s
buckets of Figures 12(c) and 15), memory of dispatchers and workers
(Figures 9 and 10), and migration cost/time (Figures 12–14).  The classes
here accumulate those measurements during a simulated run; worker-side
numbers arrive as :class:`~repro.runtime.telemetry.Observation` replies
whichever transport backend hosts the workers.

Reporting is pure: :func:`run_report` and the functions it is built from
read :class:`RunTotals`, a :class:`TraceStore`, dispatcher
ledgers and **one** :class:`~repro.runtime.telemetry.Snapshot` of every
endpoint — nothing here talks to a tier or knows a ``Cluster``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.costmodel import COST_UNIT_SECONDS, LATENCY_LOAD_FRACTION, NETWORK_HOP_MS
from .checkpoint import RecoveryReport
from .dispatch import DispatcherLedger
from .merger import MergerNode
from .telemetry import Observation, Snapshot

__all__ = [
    "JSON_IMBALANCE_CAP",
    "LatencyTracker",
    "LatencyBuckets",
    "RunReport",
    "RunTotals",
    "TraceStore",
    "delivery_latency",
    "dispatcher_memory_report",
    "latency_tracker",
    "run_report",
    "saturation_throughput",
    "utilization_latency",
]

#: JSON-safe stand-in for an infinite load imbalance (some worker got
#: zero load while another got work).  :meth:`RunReport.summary` — and
#: any JSONL sink serialising it — clamps to this finite cap so the
#: output stays standard JSON (``json.dump`` would otherwise emit the
#: non-standard ``Infinity`` token); any observed imbalance at the cap
#: should be read as "infinite".
JSON_IMBALANCE_CAP = 1e15


@dataclass(frozen=True)
class LatencyBuckets:
    """Fractions of tuples per latency bucket (Figures 12(c) and 15)."""

    under_100ms: float
    between_100ms_and_1s: float
    over_1s: float


class LatencyTracker:
    """Collects per-tuple latencies (in milliseconds)."""

    def __init__(self) -> None:
        self._latencies: List[float] = []
        # Sorted copy shared by ``percentile`` and ``buckets``; writes drop it.
        self._ordered: Optional[List[float]] = None

    def record(self, latency_ms: float) -> None:
        self._latencies.append(latency_ms)
        self._ordered = None

    def extend(self, latencies_ms: Iterable[float]) -> None:
        self._latencies.extend(latencies_ms)
        self._ordered = None

    def __len__(self) -> int:
        return len(self._latencies)

    @property
    def values(self) -> List[float]:
        """The recorded latencies, in arrival order (a copy)."""
        return list(self._latencies)

    @property
    def mean(self) -> float:
        if not self._latencies:
            return 0.0
        return sum(self._latencies) / len(self._latencies)

    def _sorted(self) -> List[float]:
        if self._ordered is None:
            self._ordered = sorted(self._latencies)
        return self._ordered

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) using nearest-rank interpolation."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self._latencies:
            return 0.0
        ordered = self._sorted()
        rank = max(0, min(len(ordered) - 1, int(math.ceil(q / 100.0 * len(ordered))) - 1))
        return ordered[rank]

    def buckets(self, thresholds: Tuple[float, float] = (100.0, 1000.0)) -> LatencyBuckets:
        """Bucket the latencies at the two thresholds (milliseconds)."""
        low, high = thresholds
        if not self._latencies:
            return LatencyBuckets(1.0, 0.0, 0.0)
        ordered = self._sorted()
        total = len(ordered)
        under = bisect_left(ordered, low)
        over = total - bisect_right(ordered, high)
        middle = total - under - over
        return LatencyBuckets(under / total, middle / total, over / total)


class TraceStore:
    """Per-period trace of dispatcher / worker costs, interned by signature.

    A tuple's signature is ``(dispatcher_id, dispatcher_cost, (worker_id,
    cost), ...)``, one pair per handling worker.  A stream repeats a few
    thousand distinct signatures over tens of thousands of tuples, so
    ``signatures`` maps each to a small int in first-seen order and
    ``ids`` holds one per tuple in stream order: memory is bounded by the
    distinct signatures plus 4 bytes per tuple, and the report prices
    each signature once.
    """

    __slots__ = ("signatures", "ids", "_pairs")

    def __init__(self) -> None:
        self.clear()

    def append(
        self,
        dispatcher_id: int,
        dispatcher_cost: float,
        worker_items: Iterable[Tuple[int, float]],
    ) -> None:
        key = (dispatcher_id, dispatcher_cost, *worker_items)
        sid = self.signatures.get(key)
        if sid is None:
            sid = self.intern(key)
        self.ids.append(sid)

    def extend(
        self,
        dispatcher_ids: Iterable[int],
        dispatcher_costs: Iterable[float],
        worker_items_per_tuple: Iterable[Optional[Iterable[Tuple[int, float]]]],
    ) -> None:
        """Bulk-append one window of traces (batched engine)."""
        lookup = self.signatures.get
        intern = self.intern
        record = self.ids.append
        for dispatcher_id, dispatcher_cost, items in zip(
            dispatcher_ids, dispatcher_costs, worker_items_per_tuple
        ):
            key = (dispatcher_id, dispatcher_cost, *(items or ()))
            sid = lookup(key)
            if sid is None:
                sid = intern(key)
            record(sid)

    def intern(self, key: Tuple[Any, ...]) -> int:
        """Add the new signature ``key``; returns its id."""
        # A new signature keeps earlier signatures' equal (worker, cost)
        # pairs, not copies: pairs and their floats fill most of the table.
        signatures = self.signatures
        pairs = map(self._pairs.setdefault, key[2:], key[2:])
        sid = signatures[(*key[:2], *pairs)] = len(signatures)
        return sid

    def __len__(self) -> int:
        return len(self.ids)

    def clear(self) -> None:
        self.signatures: Dict[Tuple[Any, ...], int] = {}
        self._pairs: Dict[Tuple[int, float], Tuple[int, float]] = {}
        self.ids = array("I")


@dataclass(slots=True)
class RunTotals:
    """Coordinator-side counters of one measurement period.

    What the drivers count themselves rather than observe on an endpoint:
    tuples by kind, matches the workers produced, and how many worker
    deliveries the objects and the insertions needed.
    """

    tuples: int = 0
    objects: int = 0
    insertions: int = 0
    deletions: int = 0
    matches_produced: int = 0
    object_fanout: int = 0
    query_fanout: int = 0


def utilization_latency(service_ms: float, utilization: float, *, cap_ms: float = 10_000.0) -> float:
    """Latency of a tuple at a server with the given utilisation.

    A standard single-server queueing approximation: the sojourn time grows
    as ``service / (1 - rho)``.  Utilisations at or above 1 are clamped just
    below 1 so an overloaded worker yields a large but finite latency, which
    is then capped — matching how the paper reports latency outliers (e.g.
    407 ms for metric-based partitioning on STS-UK-Q1) rather than infinite
    values.
    """
    if service_ms < 0:
        raise ValueError("service time must be non-negative")
    rho = min(max(utilization, 0.0), 0.995)
    return min(service_ms / (1.0 - rho), cap_ms)


@dataclass
class RunReport:
    """Summary of one simulated run of the cluster."""

    #: Tuples processed (objects + insertions + deletions).
    tuples_processed: int = 0
    objects_processed: int = 0
    insertions_processed: int = 0
    deletions_processed: int = 0
    #: Saturation throughput in tuples per (simulated) second.
    throughput: float = 0.0
    #: Mean per-tuple latency in milliseconds at the evaluated input rate.
    mean_latency_ms: float = 0.0
    p95_latency_ms: float = 0.0
    latency_buckets: Optional[LatencyBuckets] = None
    #: Definition-1 loads per worker over the run.
    worker_loads: Dict[int, float] = field(default_factory=dict)
    #: Routing-structure memory per dispatcher (bytes, Figure 9): the
    #: analytic estimate of the coordinator's index under inline dispatch,
    #: the *measured* footprint of each shard's replica under sharded
    #: dispatch (equal values while the replicas are in sync — pinned by
    #: tests/test_report_golden.py).
    dispatcher_memory: Dict[int, int] = field(default_factory=dict)
    #: Estimated GI2 memory per worker (bytes, Figure 10).
    worker_memory: Dict[int, int] = field(default_factory=dict)
    #: Matching results produced / delivered after merger deduplication.
    matches_produced: int = 0
    matches_delivered: int = 0
    #: How many worker deliveries each object needed on average.
    object_fanout: float = 0.0
    query_fanout: float = 0.0
    #: Per-merger Definition-1 busy cost and delivered/duplicate counts
    #: (merged sorted by merger id, whichever backend hosts the shards).
    merger_busy: Dict[int, float] = field(default_factory=dict)
    merger_delivered: Dict[int, int] = field(default_factory=dict)
    merger_duplicates: Dict[int, int] = field(default_factory=dict)
    #: End-to-end notification latency of delivered results (merger hop
    #: inflated by merger utilisation — the Figure 8 / 15 delivery path).
    delivery_mean_latency_ms: float = 0.0
    delivery_latency_buckets: Optional[LatencyBuckets] = None
    #: Checkpoint/recovery accounting: ``None`` on non-checkpointed runs;
    #: on checkpointed runs a RecoveryReport whose ``events`` record every
    #: recovered worker death (empty when nothing died, so fault-free
    #: checkpointed runs stay byte-identical across backends).
    recovery: Optional[RecoveryReport] = None

    @property
    def total_load(self) -> float:
        return sum(self.worker_loads.values())

    @property
    def load_imbalance(self) -> float:
        if not self.worker_loads:
            return 1.0
        minimum = min(self.worker_loads.values())
        maximum = max(self.worker_loads.values())
        if minimum <= 0.0:
            return float("inf") if maximum > 0 else 1.0
        return maximum / minimum

    @property
    def avg_dispatcher_memory_mb(self) -> float:
        if not self.dispatcher_memory:
            return 0.0
        return sum(self.dispatcher_memory.values()) / len(self.dispatcher_memory) / 1e6

    @property
    def avg_worker_memory_mb(self) -> float:
        if not self.worker_memory:
            return 0.0
        return sum(self.worker_memory.values()) / len(self.worker_memory) / 1e6

    def summary(self) -> Dict[str, float]:
        """A flat, JSON-safe dict convenient for printing bench tables.

        Every value is a finite float: an infinite :attr:`load_imbalance`
        (a zero-load worker alongside a loaded one) is clamped to
        :data:`JSON_IMBALANCE_CAP`, because ``json.dump`` would emit the
        non-standard ``Infinity`` token that strict JSON parsers reject.
        The property itself still returns the honest ``inf``.
        """
        buckets = self.delivery_latency_buckets
        recovery = self.recovery
        return {
            "tuples": float(self.tuples_processed),
            "throughput": self.throughput,
            "mean_latency_ms": self.mean_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "total_load": self.total_load,
            "imbalance": min(self.load_imbalance, JSON_IMBALANCE_CAP),
            "dispatcher_memory_mb": self.avg_dispatcher_memory_mb,
            "worker_memory_mb": self.avg_worker_memory_mb,
            "matches": float(self.matches_delivered),
            "merger_duplicates": float(sum(self.merger_duplicates.values())),
            "object_fanout": self.object_fanout,
            "query_fanout": self.query_fanout,
            "delivery_latency_ms": self.delivery_mean_latency_ms,
            "delivery_under_100ms": buckets.under_100ms if buckets else 1.0,
            "delivery_100ms_to_1s": (
                buckets.between_100ms_and_1s if buckets else 0.0
            ),
            "delivery_over_1s": buckets.over_1s if buckets else 0.0,
            "checkpoints_taken": (
                float(recovery.checkpoints_taken) if recovery else 0.0
            ),
            "recoveries": float(len(recovery.events)) if recovery else 0.0,
            "recovery_lost_tuples": (
                float(recovery.lost_tuples) if recovery else 0.0
            ),
        }


# ----------------------------------------------------------------------
# Reporting: pure functions of one observation
# ----------------------------------------------------------------------
def saturation_throughput(
    totals: RunTotals,
    dispatchers: Sequence[DispatcherLedger],
    observed: Snapshot,
) -> float:
    """Tuples per second when the bottleneck process is saturated."""
    if totals.tuples == 0:
        return 0.0
    unit = COST_UNIT_SECONDS
    busy_seconds = [d.busy_cost * unit for d in dispatchers]
    busy_seconds += [s.busy_cost * unit for s in observed.workers.values()]
    busy_seconds += [m.busy_cost * unit for m in observed.mergers.values()]
    bottleneck = max(busy_seconds) if busy_seconds else 0.0
    if bottleneck <= 0.0:
        return 0.0
    return totals.tuples / bottleneck


def latency_tracker(
    totals: RunTotals,
    traces: TraceStore,
    dispatchers: Sequence[DispatcherLedger],
    observed: Snapshot,
    input_rate: Optional[float] = None,
) -> LatencyTracker:
    """Per-tuple latencies (ms) at the given input rate.

    Defaults to ``LATENCY_LOAD_FRACTION`` of the saturation throughput,
    matching the paper's "moderate input speed" protocol for Figure 8.
    """
    tracker = LatencyTracker()
    if not traces:
        return tracker
    if input_rate is None:
        input_rate = LATENCY_LOAD_FRACTION * saturation_throughput(
            totals, dispatchers, observed
        )
    # Utilisation of each dispatcher and worker at ``input_rate`` tuples/s.
    dispatcher_util: Dict[int, float] = {}
    worker_util: Dict[int, float] = {}
    if totals.tuples and input_rate > 0.0:
        unit = COST_UNIT_SECONDS
        wall_seconds = totals.tuples / input_rate
        dispatcher_util = {
            d.dispatcher_id: (d.busy_cost * unit) / wall_seconds for d in dispatchers
        }
        worker_util = {
            worker_id: (s.busy_cost * unit) / wall_seconds
            for worker_id, s in observed.workers.items()
        }
    unit_ms = COST_UNIT_SECONDS * 1000.0
    hop_ms = NETWORK_HOP_MS
    dispatcher_util_get = dispatcher_util.get
    worker_util_get = worker_util.get
    # A run charges a few hundred distinct (endpoint, cost) pairs over a
    # few thousand distinct signatures: price each pair once, then each
    # signature once, then hand every tuple its signature's latency.
    dispatcher_priced: Dict[Tuple[int, float], float] = {}
    worker_priced: Dict[Tuple[int, float], float] = {}
    priced: List[float] = []
    for dispatcher_id, dispatcher_cost, *worker_items in traces.signatures:
        key = (dispatcher_id, dispatcher_cost)
        dispatcher_ms = dispatcher_priced.get(key)
        if dispatcher_ms is None:
            dispatcher_ms = dispatcher_priced[key] = utilization_latency(
                hop_ms + dispatcher_cost * unit_ms, dispatcher_util_get(dispatcher_id, 0.0)
            )
        worker_ms = 0.0
        for key in worker_items:
            candidate = worker_priced.get(key)
            if candidate is None:
                candidate = worker_priced[key] = utilization_latency(
                    hop_ms + key[1] * unit_ms, worker_util_get(key[0], 0.0)
                )
            if candidate > worker_ms:
                worker_ms = candidate
        priced.append(dispatcher_ms + worker_ms)
    tracker.extend(map(priced.__getitem__, traces.ids))
    return tracker


def delivery_latency(
    totals: RunTotals,
    mergers: Mapping[int, Observation],
    input_rate: float,
) -> Tuple[float, LatencyBuckets]:
    """End-to-end notification latency of the delivered results.

    Models the merger hop the same way tuple latency models the
    dispatcher/worker hops: each delivery pays the network hop plus
    the Definition-1 ``RESULT_COST`` service time, inflated by its
    merger's utilisation at ``input_rate``.  Every quantity derives
    from the per-merger observations (merged sorted by merger id), so the
    numbers are identical whichever backend hosts the shards.
    """
    delivered_total = sum(s.delivered for s in mergers.values())
    if delivered_total == 0 or totals.tuples == 0 or input_rate <= 0.0:
        return 0.0, LatencyBuckets(1.0, 0.0, 0.0)
    unit = COST_UNIT_SECONDS
    wall_seconds = totals.tuples / input_rate
    service_ms = NETWORK_HOP_MS + MergerNode.RESULT_COST * unit * 1000.0
    weighted = 0.0
    under = 0
    over = 0
    for merger_id in sorted(mergers):
        stat = mergers[merger_id]
        if stat.delivered == 0:
            continue
        latency = utilization_latency(service_ms, (stat.busy_cost * unit) / wall_seconds)
        weighted += latency * stat.delivered
        if latency < 100.0:
            under += stat.delivered
        elif latency > 1000.0:
            over += stat.delivered
    middle = delivered_total - under - over
    return weighted / delivered_total, LatencyBuckets(
        under / delivered_total, middle / delivered_total, over / delivered_total
    )


def dispatcher_memory_report(
    dispatchers: Sequence[DispatcherLedger],
    shards: Mapping[int, Observation],
    routing_index: Any,
) -> Dict[int, int]:
    """Routing-structure bytes per dispatcher (Figure 9).

    Inline dispatch (no shard observations) charges the analytic estimate
    of the coordinator's index once per simulated dispatcher, as the paper
    does; sharded dispatch reports what each shard *measured* on its replica
    (equal values while the replicas are in sync — ``tests/test_report_golden.py``).
    """
    if shards:
        return {shard: o.memory_bytes for shard, o in shards.items()}
    # Every inline dispatcher references the same routing index, so the
    # O(cells x postings) estimate is computed once and fanned out.
    estimate = routing_index.memory_bytes()
    return {d.dispatcher_id: estimate for d in dispatchers}


def run_report(
    totals: RunTotals,
    traces: TraceStore,
    dispatchers: Sequence[DispatcherLedger],
    observed: Snapshot,
    routing_index: Any,
    recovery: Optional[RecoveryReport] = None,
    input_rate: Optional[float] = None,
) -> RunReport:
    """The full :class:`RunReport` of the processed stream.

    Every remote number (worker loads, busy time and memory, shard
    replica memory, merger counters) is read off ``observed`` — one
    :class:`~repro.runtime.telemetry.Observation` per endpoint,
    whichever backend hosts it.
    """
    stats = observed.workers
    merger_stats = observed.mergers
    throughput = saturation_throughput(totals, dispatchers, observed)
    rate = LATENCY_LOAD_FRACTION * throughput if input_rate is None else input_rate
    tracker = latency_tracker(totals, traces, dispatchers, observed, rate)
    delivery_mean, delivery_buckets = delivery_latency(totals, merger_stats, rate)
    return RunReport(
        tuples_processed=totals.tuples,
        objects_processed=totals.objects,
        insertions_processed=totals.insertions,
        deletions_processed=totals.deletions,
        throughput=throughput,
        mean_latency_ms=tracker.mean,
        p95_latency_ms=tracker.percentile(95.0),
        latency_buckets=tracker.buckets(),
        worker_loads={worker_id: s.load for worker_id, s in stats.items()},
        dispatcher_memory=dispatcher_memory_report(dispatchers, observed.shards, routing_index),
        worker_memory={worker_id: s.memory_bytes for worker_id, s in stats.items()},
        matches_produced=totals.matches_produced,
        matches_delivered=sum(s.delivered for s in merger_stats.values()),
        object_fanout=totals.object_fanout / max(totals.objects, 1),
        query_fanout=totals.query_fanout / max(totals.insertions, 1),
        merger_busy={m: s.busy_cost for m, s in merger_stats.items()},
        merger_delivered={m: s.delivered for m, s in merger_stats.items()},
        merger_duplicates={m: s.duplicates for m, s in merger_stats.items()},
        delivery_mean_latency_ms=delivery_mean,
        delivery_latency_buckets=delivery_buckets,
        recovery=recovery,
    )
