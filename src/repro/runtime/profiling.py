"""Hot-loop profiling: the always-on cost counters + an opt-in sampling profiler.

PR 9's telemetry (:mod:`repro.runtime.telemetry`) shows *where* a window
spends wall-clock across tiers; this module shows *why* — what the three
per-core inner loops actually did:

* **GI2 matching** (:meth:`repro.indexes.gi2.GI2Index.match_batch`) —
  postings scanned, candidate checks and matches per worker, plus the
  number of cell probes, so selectivity of the term intersection and the
  region/expression filter is attributable per worker.
* **GridT routing** (:meth:`repro.indexes.gridt.GridTIndex.route_cell`) —
  content-path probes and fallback routes (missing cell / default-worker
  / empty H2) per routing replica, so the H2 pressure is visible.
* **Merger dedup** (:meth:`repro.runtime.merger.MergerNode.handle_many`) —
  dedup-set lookups, duplicates suppressed and window evictions per
  shard.

The counters are state, not an option: every ``GI2Index``, ``GridTIndex``
and ``MergerNode`` owns its holder (``.profile``, defined in
:mod:`repro.core.counters` and re-exported here) and counts on every
run, the lean way docs/PROFILING.md measured — one increment per routed
object, locals flushed once per matched / merged batch.  They are
**deterministic pure counts** — no wall clock anywhere near a hot loop
(lint rule RL007 bans timing calls inside ``gi2.py`` / ``gridt.py``) —
so two runs of the same stream produce identical profiles on every
backend.  They reach the coordinator as the ``profile`` field of each
endpoint's :class:`~repro.runtime.telemetry.Observation` — the same
read-only reply to :class:`~repro.runtime.telemetry.Observe` (a
``__telemetry_control__`` message, exempt from chaos fault counting)
that reports and gauges are built from — and
:meth:`Cluster.profile_report` assembles them.

The **sampling profiler** (:class:`StackSampler`) is the wall-clock half
and the only opt-in (``ProfilingSpec(sample=True)``): a daemon thread
snapshots every thread's Python stack via ``sys._current_frames()`` at a
fixed interval and aggregates the samples into collapsed-stack lines
(``frame;frame;frame count``) that flamegraph tools consume directly.
It samples the *coordinator process only* — under the in-process
backends that covers all three tiers; remote endpoints of the
multiprocess/socket backends are outside its reach (see
docs/PROFILING.md for the caveats).

Surface: ``repro profile`` (per-tier attribution table, ``--stacks-path``
collapsed stacks, ``--json``) and :meth:`Cluster.profile_report` on any
cluster.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.counters import DedupProfile, MatchProfile, ProfileEvent, RouteProfile
from .fabric import WireStats

__all__ = [
    "DedupProfile",
    "MatchProfile",
    "ProfileEvent",
    "ProfileReport",
    "ProfilingSpec",
    "RouteProfile",
    "StackSampler",
    "profile_text",
]


# ----------------------------------------------------------------------
# Configuration and the assembled report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProfilingSpec:
    """Configuration of the stack sampler (coordinator-side, inert).

    The hot-loop counters need no configuration — they run on every
    cluster.  ``ClusterConfig.profiling`` only says whether the
    wall-clock :class:`StackSampler` runs in the coordinator process;
    ``None`` and ``ProfilingSpec()`` both mean it does not.
    """

    #: Run the thread-based sampling profiler (wall-clock; samples the
    #: coordinator process only).
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
