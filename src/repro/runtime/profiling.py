"""Hot-loop profiling: deterministic cost counters + a sampling profiler.

PR 9's telemetry (:mod:`repro.runtime.telemetry`) shows *where* a window
spends wall-clock across tiers; this module shows *why* — what the three
per-core inner loops actually did:

* **GI2 matching** (:meth:`repro.indexes.gi2.GI2Index.match_batch`) —
  postings scanned, candidate checks and matches per worker, plus the
  number of cell probes, so selectivity of the term intersection and the
  region/expression filter is attributable per worker.
* **GridT routing** (:meth:`repro.indexes.gridt.GridTIndex.route_object_batch`
  and :meth:`~repro.indexes.gridt.GridTIndex.route_cell`) — content-path
  probes and fallback routes (missing cell / default-worker / empty H2)
  per routing replica, so the H2 pressure is visible.
* **Merger dedup** (:meth:`repro.runtime.merger.MergerNode.handle_many`) —
  dedup-set lookups, duplicates suppressed and window evictions per
  shard.

Counters are **deterministic pure counts** — no wall clock anywhere near
a hot loop (lint rule RL007 bans timing calls inside ``gi2.py`` /
``gridt.py``), so two runs of the same stream produce identical profiles
and a profiled run's :class:`~repro.runtime.metrics.RunReport` is
byte-identical to an unprofiled one (the same perturbation-freedom
invariant telemetry pins; ``tests/test_profiling.py`` checks the full
backend matrix).

Counters live next to the state they observe (``GI2Index.profile``,
``GridTIndex.profile``, ``MergerNode.profile`` — ``None`` when
profiling is off) and reach the coordinator as the ``profile`` field of
each endpoint's :class:`~repro.runtime.telemetry.Observation` — the same
read-only reply to :class:`~repro.runtime.telemetry.Observe` (a
``__telemetry_control__`` message, exempt from chaos fault counting)
that reports and gauges are built from.

The optional **sampling profiler** (:class:`StackSampler`) is the
wall-clock half: a daemon thread snapshots every thread's Python stack
via ``sys._current_frames()`` at a fixed interval and aggregates the
samples into collapsed-stack lines (``frame;frame;frame count``) that
flamegraph tools consume directly.  It samples the *coordinator
process only* — under the in-process backends that covers all three
tiers; remote endpoints of the multiprocess/socket backends are outside
its reach (see docs/PROFILING.md for the caveats).

Surface: ``repro profile`` (per-tier attribution table, ``--stacks-path``
collapsed stacks, ``--json``), ``ClusterConfig.profiling`` /
``--profile`` on the workload commands.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Mapping, Optional, Tuple

from .fabric import WireStats

__all__ = [
    "DedupCounters",
    "DedupProfile",
    "MatchCounters",
    "MatchProfile",
    "ProfileEvent",
    "ProfileReport",
    "ProfilingSpec",
    "RouteCounters",
    "RouteProfile",
    "StackSampler",
    "profile_text",
]


# ----------------------------------------------------------------------
# The typed profile-event vocabulary
# ----------------------------------------------------------------------
class ProfileEvent:
    """Base class of every profile event (lint rule RL006 anchors here)."""

    __slots__ = ()


@dataclass(slots=True, frozen=True)
class MatchProfile(ProfileEvent):
    """One worker's GI2 matching counters for the run so far.

    Invariant (checked by ``tests/test_profiling.py``):
    ``postings_scanned >= candidates >= matches`` — every candidate check
    walks a posting entry, and every match passed a candidate check
    (``candidates`` skips postings already matched or lazily deleted, so
    it can undercut ``postings_scanned``).
    """

    endpoint_id: int
    cells_probed: int
    postings_scanned: int
    candidates: int
    matches: int


@dataclass(slots=True, frozen=True)
class RouteProfile(ProfileEvent):
    """One routing replica's GridT counters for the run so far.

    ``endpoint_id`` is the dispatch shard id, or ``-1`` for the
    coordinator's inline routing (the ``inline`` dispatch backend and
    the batched engine's fused arrival scan).  Invariant:
    ``probes + fallback_routes == cells_probed`` (every routed object
    probes exactly one cell and takes exactly one of the two paths).
    """

    endpoint_id: int
    cells_probed: int
    probes: int
    fallback_routes: int
    #: Vestige of the deleted route memo, not a field: the frozen
    #: ``benchmarks/e2e/bench.py`` reads this name to print
    #: ``gridt.cache_hit_ratio``, which therefore stays 0.0.
    cache_hits: ClassVar[int] = 0


@dataclass(slots=True, frozen=True)
class DedupProfile(ProfileEvent):
    """One merger shard's dedup counters for the run so far.

    ``lookups`` counts dedup-set membership tests (one per received
    result), ``duplicates`` the results suppressed, ``evictions`` the
    keys pushed out of the sliding window.  Unlike the period counters
    of :class:`~repro.runtime.merger.MergerNode`, these survive
    ``reset_period`` — a profile always covers the whole run.
    """

    endpoint_id: int
    lookups: int
    duplicates: int
    evictions: int


# ----------------------------------------------------------------------
# Mutable counter holders (live on the indexes / merger nodes)
# ----------------------------------------------------------------------
class MatchCounters:
    """Mutable GI2 matching counters (plain ints; picklable)."""

    __slots__ = ("cells_probed", "postings_scanned", "candidates", "matches")

    def __init__(self) -> None:
        self.cells_probed = 0
        self.postings_scanned = 0
        self.candidates = 0
        self.matches = 0

    def event(self, endpoint_id: int) -> MatchProfile:
        return MatchProfile(
            endpoint_id=endpoint_id,
            cells_probed=self.cells_probed,
            postings_scanned=self.postings_scanned,
            candidates=self.candidates,
            matches=self.matches,
        )


class RouteCounters:
    """Mutable GridT routing counters (plain ints; picklable)."""

    __slots__ = ("cells_probed", "probes", "fallback_routes")

    def __init__(self) -> None:
        self.cells_probed = 0
        self.probes = 0
        self.fallback_routes = 0

    def event(self, endpoint_id: int) -> RouteProfile:
        return RouteProfile(
            endpoint_id=endpoint_id,
            cells_probed=self.cells_probed,
            probes=self.probes,
            fallback_routes=self.fallback_routes,
        )


class DedupCounters:
    """Mutable merger dedup counters (plain ints; picklable)."""

    __slots__ = ("lookups", "duplicates", "evictions")

    def __init__(self) -> None:
        self.lookups = 0
        self.duplicates = 0
        self.evictions = 0

    def event(self, endpoint_id: int) -> DedupProfile:
        return DedupProfile(
            endpoint_id=endpoint_id,
            lookups=self.lookups,
            duplicates=self.duplicates,
            evictions=self.evictions,
        )


# ----------------------------------------------------------------------
# Configuration and the assembled report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProfilingSpec:
    """Configuration of the profiling subsystem (coordinator-side, inert).

    ``ClusterConfig.profiling`` is ``None`` by default — profiling is
    strictly opt-in.  Only a plain ``bool`` crosses process boundaries
    (inside the Init handshake dicts), never this spec.  ``sample``
    additionally starts the wall-clock :class:`StackSampler` in the
    coordinator process.
    """

    enabled: bool = True
    #: Also run the thread-based sampling profiler (wall-clock; samples
    #: the coordinator process only).
    sample: bool = False
    #: Sampling interval of the stack sampler, in milliseconds.
    sample_interval_ms: float = 5.0


@dataclass(frozen=True)
class ProfileReport:
    """Per-tier hot-loop counters of one finished run (coordinator-side).

    One :class:`MatchProfile` per worker, one :class:`RouteProfile` per
    routing replica (``-1`` = inline coordinator routing) and one
    :class:`DedupProfile` per merger shard, each in ascending endpoint
    order.  ``wire`` is :meth:`Cluster.wire_stats` — the coordinator's
    channel traffic per out-of-process tier, empty for a fully
    in-process cluster — and ``tuples`` the tuples processed in the
    current measurement period, the base of the bytes-per-tuple column
    (the channel counters cover the channels' lifetime, so the ratio is
    a whole-run figure only when no ``reset_period`` intervened).
    """

    matchers: Tuple[MatchProfile, ...]
    routers: Tuple[RouteProfile, ...]
    mergers: Tuple[DedupProfile, ...]
    wire: Mapping[str, Mapping[int, WireStats]] = field(default_factory=dict)
    tuples: int = 0


# ----------------------------------------------------------------------
# Rendering (the `repro profile` attribution table)
# ----------------------------------------------------------------------
def _endpoint(endpoint_id: int) -> str:
    return "inline" if endpoint_id < 0 else str(endpoint_id)


def _ratio(part: int, whole: int) -> str:
    return "%5.1f%%" % (100.0 * part / whole) if whole else "    --"


def profile_text(report: ProfileReport) -> str:
    """Render the per-tier hot-path attribution table."""
    lines: List[str] = ["hot-loop profile", "================"]
    lines.append("")
    lines.append("GI2 matching (per worker)")
    lines.append(
        "  %-8s %12s %12s %12s %10s %10s"
        % ("worker", "cells", "postings", "candidates", "matches", "hit rate")
    )
    total_post = total_cand = total_match = 0
    for match in report.matchers:
        total_post += match.postings_scanned
        total_cand += match.candidates
        total_match += match.matches
        lines.append(
            "  %-8s %12d %12d %12d %10d %10s"
            % (
                _endpoint(match.endpoint_id),
                match.cells_probed,
                match.postings_scanned,
                match.candidates,
                match.matches,
                _ratio(match.matches, match.candidates),
            )
        )
    lines.append(
        "  %-8s %12s %12d %12d %10d %10s"
        % ("total", "", total_post, total_cand, total_match, _ratio(total_match, total_cand))
    )
    lines.append("")
    lines.append("GridT routing (per replica; 'inline' = coordinator)")
    lines.append(
        "  %-8s %12s %12s %12s" % ("replica", "cells", "probes", "fallback")
    )
    for route in report.routers:
        lines.append(
            "  %-8s %12d %12d %12d"
            % (
                _endpoint(route.endpoint_id),
                route.cells_probed,
                route.probes,
                route.fallback_routes,
            )
        )
    lines.append("")
    lines.append("Merger dedup (per shard)")
    lines.append(
        "  %-8s %12s %12s %12s %10s"
        % ("merger", "lookups", "duplicates", "evictions", "dup rate")
    )
    for dedup in report.mergers:
        lines.append(
            "  %-8s %12d %12d %12d %10s"
            % (
                _endpoint(dedup.endpoint_id),
                dedup.lookups,
                dedup.duplicates,
                dedup.evictions,
                _ratio(dedup.duplicates, dedup.lookups),
            )
        )
    for tier, endpoints in report.wire.items():
        lines.append("")
        lines.append("wire (coordinator side): %s tier, %d tuples" % (tier, report.tuples))
        lines.append(
            "  %-8s %12s %14s %12s %14s %12s"
            % ("endpoint", "msgs sent", "bytes sent", "msgs recv", "bytes recv", "sent B/tuple")
        )
        rows = [(_endpoint(endpoint_id), stats) for endpoint_id, stats in endpoints.items()]
        rows.append(("total", WireStats(*map(sum, zip(*endpoints.values())))))
        for label, stats in rows:
            per_tuple = "%.1f" % (stats.bytes_sent / report.tuples) if report.tuples else "--"
            lines.append("  %-8s %12d %14d %12d %14d %12s" % ((label,) + stats + (per_tuple,)))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The sampling profiler (opt-in, wall-clock, coordinator process only)
# ----------------------------------------------------------------------
class StackSampler:
    """Thread-based sampling profiler producing collapsed stacks.

    A daemon thread wakes every ``interval_ms`` and snapshots the Python
    stack of every live thread via ``sys._current_frames()``; each
    snapshot increments one collapsed-stack key
    (``thread;module.func;module.func;...``, outermost frame first).
    ``collapsed()`` renders the aggregate as ``stack count`` lines —
    the input format of ``flamegraph.pl`` / speedscope / inferno.

    Wall-clock by design, so it lives entirely outside the deterministic
    counter seam: samples never touch report state, and the sampler
    thread's own stack is excluded.  Accuracy is statistical — see
    docs/PROFILING.md for interval and GIL caveats.
    """

    def __init__(self, interval_ms: float = 5.0) -> None:
        self.interval_s = max(0.001, interval_ms / 1000.0)
        self._samples: Counter[str] = Counter()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None

    @property
    def sample_count(self) -> int:
        return sum(self._samples.values())

    def _run(self) -> None:
        me = threading.get_ident()
        names: Dict[Optional[int], str] = {}
        while not self._stop.wait(self.interval_s):
            names.clear()
            for thread in threading.enumerate():
                names[thread.ident] = thread.name
            for ident, frame in sys._current_frames().items():
                if ident == me:
                    continue
                stack: List[str] = []
                while frame is not None:
                    code = frame.f_code
                    module = code.co_filename.rsplit("/", 1)[-1]
                    if module.endswith(".py"):
                        module = module[:-3]
                    stack.append("%s.%s" % (module, code.co_name))
                    frame = frame.f_back
                stack.append(names.get(ident, "thread-%d" % ident))
                self._samples[";".join(reversed(stack))] += 1

    def collapsed(self) -> List[str]:
        """The aggregated samples as collapsed-stack lines (sorted)."""
        return [
            "%s %d" % (stack, count)
            for stack, count in sorted(self._samples.items())
        ]
