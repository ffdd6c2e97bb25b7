"""Measurement utilities of the cluster simulator (paper Section VI).

The paper's experiments report four families of metrics: processing
throughput (tuples per second at saturation — Figures 6, 7, 11, 16),
per-tuple latency (Figure 8, including the <100 ms / 100 ms–1 s / >1 s
buckets of Figures 12(c) and 15), memory of dispatchers and workers
(Figures 9 and 10), and migration cost/time (Figures 12–14).  The classes
here accumulate those measurements during a simulated run; worker-side
numbers arrive as :class:`~repro.runtime.telemetry.Observation` replies
whichever transport backend hosts the workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .checkpoint import RecoveryReport

__all__ = [
    "JSON_IMBALANCE_CAP",
    "LatencyTracker",
    "LatencyBuckets",
    "RunReport",
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

    def as_dict(self) -> Dict[str, float]:
        return {
            "<100ms": self.under_100ms,
            "[100ms, 1000ms]": self.between_100ms_and_1s,
            ">1000ms": self.over_1s,
        }


class LatencyTracker:
    """Collects per-tuple latencies (in milliseconds)."""

    def __init__(self) -> None:
        self._latencies: List[float] = []

    def record(self, latency_ms: float) -> None:
        self._latencies.append(latency_ms)

    def extend(self, latencies_ms: Iterable[float]) -> None:
        self._latencies.extend(latencies_ms)

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

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) using nearest-rank interpolation."""
        if not self._latencies:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(self._latencies)
        rank = max(0, min(len(ordered) - 1, int(math.ceil(q / 100.0 * len(ordered))) - 1))
        return ordered[rank]

    def buckets(self, thresholds: Tuple[float, float] = (100.0, 1000.0)) -> LatencyBuckets:
        """Bucket the latencies at the two thresholds (milliseconds)."""
        low, high = thresholds
        if not self._latencies:
            return LatencyBuckets(1.0, 0.0, 0.0)
        total = len(self._latencies)
        under = over = 0
        for value in self._latencies:
            if value < low:
                under += 1
            if value > high:
                over += 1
        middle = total - under - over
        return LatencyBuckets(under / total, middle / total, over / total)


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
    #: tests/test_dispatch.py).
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
