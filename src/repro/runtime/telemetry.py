"""Fleet-wide runtime telemetry (tracing, gauges, lifecycle events).

The paper's whole evaluation (Section VI) is an observability exercise,
yet until this module the repro only materialised its numbers as one
end-of-run :class:`~repro.runtime.metrics.RunReport`.  This module makes
telemetry a first-class subsystem of the pipeline:

* **Per-window spans** — every batched window is traced through its
  route → match → merge/deliver hops (:class:`WindowSpan`, one
  :class:`SpanHop` per stage with monotonic timestamps), built
  coordinator-side where all three hops are orchestrated.
* **Per-tier gauge samples** — every role host (worker, dispatcher
  shard, merger shard) answers the one :class:`Observe` control message
  with one :class:`Observation` (busy cost, queue/structure depth,
  memory, plus what reports and the profiler read), which
  :func:`gauge_sample` views as a :class:`GaugeSample` coordinator-side;
  the in-process reference backends build identical observations from
  their local nodes.  Observations ride the existing control channels at
  quiescent points (window boundaries, ``AdjustBarrier`` fences, report
  time), so a report and the gauges beside it come from the same replies.
* **Lifecycle events** — adjustment rounds, checkpoints, recoveries and
  endpoint deaths (:class:`LifecycleEvent`).

Everything lands in the coordinator's :class:`TelemetryHub`: a bounded
in-memory ring plus an optional JSONL sink (``--telemetry-path``).  A
:class:`TierTimeseries` built from those events holds each tier's latest
gauge drain and its per-endpoint busy fractions.

**Perturbation-freedom invariant.**  Telemetry is off by default and
must never change a delivered report: every report number derives from
Definition-1 simulated cost accounting, which :class:`Observe`
handling only *reads*; and :class:`Observe` carries the
``__telemetry_control__`` marker, which exempts it from the chaos
harness's fault-injection send counters (``Fleet._maybe_inject``) — so
faults fire at the exact same data-plane send whether telemetry is on
or off.  Wall-clock timestamps appear *only* inside telemetry events,
never in a report.  tests/test_telemetry.py pins reports byte-identical
telemetry-on vs. telemetry-off across inprocess × multiprocess ×
socket, including closed-loop adjustment and chaos recovery runs.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    IO,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .profiling import ProfileEvent

__all__ = [
    "GaugeSample",
    "LifecycleEvent",
    "Observation",
    "Observe",
    "Snapshot",
    "SpanHop",
    "TelemetryEvent",
    "TelemetryHub",
    "TelemetryServer",
    "TelemetrySpec",
    "TierTimeseries",
    "WindowSpan",
    "decode_event",
    "encode_event",
    "gauge_sample",
    "read_events",
    "render_timeline",
]


#: The pipeline tiers gauge samples are keyed by.
TIERS: Tuple[str, ...] = ("dispatcher", "worker", "merger", "coordinator")


class TelemetryEvent:
    """Base class of every telemetry event type.

    Lint rules RL001 and RL003 enforce that every subclass is classified
    in the protocol registry (:mod:`repro.runtime.protocol`) and is
    transitively pickle-safe — every event must encode to the JSONL
    sink ``repro report`` reads back.
    """

    __slots__ = ()


@dataclass(slots=True, frozen=True)
class SpanHop(TelemetryEvent):
    """One stage of a window's journey through the pipeline.

    ``started_ms`` is monotonic milliseconds since the hub opened (one
    clock, coordinator-side, so hop timestamps are comparable across the
    whole run); ``elapsed_ms`` is the wall time the stage took.  For the
    ``route`` hop of a window the elapsed time is the window's residual
    wall time after the measured match and merge hops — inline routing
    is interleaved with the arrival scan, and sharded routing overlaps
    the previous window's matching, so the residual is the honest
    attribution on both engines.
    """

    stage: str  # "route" | "match" | "merge"
    tier: str
    started_ms: float
    elapsed_ms: float
    endpoints: int


@dataclass(slots=True, frozen=True)
class WindowSpan(TelemetryEvent):
    """The trace of one batched window: route → match → merge hops."""

    seq: int
    base: int
    size: int
    hops: Tuple[SpanHop, ...]


@dataclass(slots=True, frozen=True)
class GaugeSample(TelemetryEvent):
    """One endpoint's live state at an observation point.

    ``busy_cost`` is the endpoint's Definition-1 simulated busy counter
    (the same number reports are built from — telemetry only reads it);
    ``depth`` is the tier's natural queue/structure depth: registered
    queries for a worker, 0 for a dispatch shard (it queues nothing
    between windows), dedup-window keys for a merger shard,
    coordinator-relayed result hops for the coordinator.  ``seq`` tags
    the window (or barrier) the sample was taken at; it is stamped
    coordinator-side.
    """

    tier: str
    endpoint_id: int
    busy_cost: float
    memory_bytes: int
    depth: int
    seq: int = -1


@dataclass(slots=True, frozen=True)
class LifecycleEvent(TelemetryEvent):
    """A control-plane milestone: adjustment / checkpoint / recovery."""

    kind: str  # "adjustment" | "checkpoint" | "recovery" | "endpoint_death"
    seq: int
    at_ms: float
    detail: str = ""
    epoch: int = -1
    tier: str = ""
    endpoint_id: int = -1


@dataclass(slots=True)
class Observe:
    """Coordinator→endpoint: report your state right now.

    The one replied observation request, handled by every role host.
    The ``__telemetry_control__`` marker (read by ``Fleet._maybe_inject``)
    keeps it out of the chaos harness's fault send counters — faults
    must count only data-plane traffic (perturbation-freedom).
    """

    __telemetry_control__ = True


@dataclass(slots=True, frozen=True)
class Observation:
    """Endpoint→coordinator: what reports, adjusters, gauges and the
    profiler read of one endpoint.  The first five fields are
    :class:`GaugeSample`'s (a dispatch shard's ``busy_cost`` is 0 — the
    coordinator charges dispatcher cost itself); ``load`` is the worker's
    period load, ``received`` / ``delivered`` / ``duplicates`` the merger's
    period counters, ``profile`` the role's hot-loop counters, stamped
    (hand-built observations carry the empty base event)."""

    tier: str
    endpoint_id: int
    busy_cost: float
    memory_bytes: int
    depth: int
    load: float = 0.0
    received: int = 0
    delivered: int = 0
    duplicates: int = 0
    profile: ProfileEvent = field(default_factory=ProfileEvent)


class Snapshot(NamedTuple):
    """One observation of every tier, each keyed by ascending endpoint id
    (``shards`` is empty under inline dispatch).  Reports, gauges and the
    profile are all views of one snapshot."""

    workers: Dict[int, Observation]
    shards: Dict[int, Observation]
    mergers: Dict[int, Observation]


def gauge_sample(observation: Observation) -> GaugeSample:
    """The gauge view of one observation (``seq`` is stamped on record)."""
    return GaugeSample(
        tier=observation.tier,
        endpoint_id=observation.endpoint_id,
        busy_cost=observation.busy_cost,
        memory_bytes=observation.memory_bytes,
        depth=observation.depth,
    )


@dataclass(frozen=True)
class TelemetrySpec:
    """Configuration of the telemetry subsystem (picklable, inert).

    ``ClusterConfig.telemetry`` is ``None`` by default — telemetry is
    strictly opt-in.  ``path`` names the optional JSONL sink.
    """

    path: Optional[str] = None


#: Events the hub's in-memory ring keeps (the JSONL sink keeps them all).
RING_SIZE = 4096


# ----------------------------------------------------------------------
# JSON codec (the JSONL sink format `repro report` reads back)
# ----------------------------------------------------------------------
_EVENT_TYPES: Mapping[str, type] = {
    "SpanHop": SpanHop,
    "WindowSpan": WindowSpan,
    "GaugeSample": GaugeSample,
    "LifecycleEvent": LifecycleEvent,
}


def encode_event(event: TelemetryEvent) -> Dict[str, Any]:
    """Encode one event as a JSON-safe dict tagged with its type name."""
    payload = asdict(event)
    payload["event"] = type(event).__name__
    return payload


def decode_event(payload: Mapping[str, Any]) -> TelemetryEvent:
    """Rebuild an event from its :func:`encode_event` dict."""
    data = dict(payload)
    name = data.pop("event")
    cls = _EVENT_TYPES.get(name)
    if cls is None:
        raise ValueError("unknown telemetry event type %r" % (name,))
    if cls is WindowSpan:
        data["hops"] = tuple(SpanHop(**hop) for hop in data.get("hops", ()))
    return cls(**data)


def read_events(path: str) -> List[TelemetryEvent]:
    """Read a telemetry JSONL file back into events (blank lines skipped)."""
    events: List[TelemetryEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(decode_event(json.loads(line)))
    return events


# ----------------------------------------------------------------------
# Each tier's latest gauge drain (the elastic controller's input)
# ----------------------------------------------------------------------
class TierTimeseries:
    """Each tier's most recent gauge drain, fed samples in drain order.

    The input a controller needs at the ``AdjustBarrier`` fence: measured
    per-tier busy fractions from live samples rather than an end-of-run
    report.  :func:`render_timeline` builds one from a run's events.
    """

    def __init__(self) -> None:
        #: tier -> its most recent drain.  A drain holds one sample per live
        #: endpoint at one seq, so a repeated endpoint or a new seq opens the next.
        self._latest: Dict[str, Dict[int, GaugeSample]] = {}

    def add(self, sample: GaugeSample) -> None:
        drain = self._latest.setdefault(sample.tier, {})
        if sample.endpoint_id in drain or any(s.seq != sample.seq for s in drain.values()):
            drain.clear()
        drain[sample.endpoint_id] = sample

    def tiers(self) -> List[str]:
        return sorted(self._latest)

    def latest(self, tier: str) -> Dict[int, GaugeSample]:
        """The tier's most recent drain, by endpoint — an endpoint that
        died (and was discarded) before it is no longer reported."""
        return dict(sorted(self._latest.get(tier, {}).items()))

    def busy_fractions(self, tier: str) -> Dict[int, float]:
        """Each endpoint's share of the tier's total busy cost (sums to 1).

        Computed over the tier's most recent drain; an idle tier
        (zero total busy) reports uniform shares, so a controller can
        always treat the result as a probability distribution.
        """
        latest = self.latest(tier)
        if not latest:
            return {}
        total = sum(sample.busy_cost for sample in latest.values())
        if total <= 0.0:
            uniform = 1.0 / len(latest)
            return {endpoint: uniform for endpoint in latest}
        return {
            endpoint: sample.busy_cost / total for endpoint, sample in latest.items()
        }


# ----------------------------------------------------------------------
# The coordinator-side aggregation hub
# ----------------------------------------------------------------------
@dataclass(slots=True)
class SpanState:
    """Accumulator of one in-flight window's telemetry span.

    The deferred-barrier engine interleaves routing with matching and
    may flush several segments per window, so the match and merge hops
    accumulate across flushes (the window executor adds to them); the
    route hop is the window's residual wall time (see :class:`SpanHop`).
    """

    seq: int
    base: int
    size: int
    opened_ms: float
    match_ms: float = 0.0
    merge_ms: float = 0.0
    match_started_ms: float = -1.0
    merge_started_ms: float = -1.0
    match_endpoints: int = 0


class TelemetryHub:
    """Bounded in-memory event ring + optional JSONL sink.

    Also the owner of the run's window sequence: ``span`` is the window
    in flight (``None`` between windows), and gauge drains and lifecycle
    events are stamped with the sequence of the window they follow.
    """

    def __init__(self, spec: TelemetrySpec) -> None:
        self.window_seq = 0
        self.span: Optional[SpanState] = None
        self._ring: Deque[TelemetryEvent] = deque(maxlen=RING_SIZE)
        self._t0 = time.monotonic()
        self._sink: Optional[IO[str]] = (
            open(spec.path, "w", encoding="utf-8") if spec.path else None
        )

    def now_ms(self) -> float:
        """Monotonic milliseconds since the hub opened (one run clock)."""
        return (time.monotonic() - self._t0) * 1000.0

    def record(self, event: TelemetryEvent) -> None:
        """Aggregate one event: ring, JSONL sink."""
        self._ring.append(event)
        if self._sink is not None:
            json.dump(encode_event(event), self._sink, sort_keys=True, allow_nan=False)
            self._sink.write("\n")

    def open_span(self, base: int, size: int) -> None:
        """Start tracing one batched window of ``size`` tuples from ``base``."""
        self.window_seq += 1
        self.span = SpanState(self.window_seq, base, size, self.now_ms())

    def close_span(self, dispatchers: int, mergers: int) -> bool:
        """Record the in-flight window's span (its route hop is the residual,
        see :class:`SpanHop`); ``True`` when a window was in flight."""
        state = self.span
        if state is None:
            return False
        self.span = None
        closed_ms = self.now_ms()
        total_ms = closed_ms - state.opened_ms
        route_ms = max(0.0, total_ms - state.match_ms - state.merge_ms)
        hops = (
            SpanHop("route", "dispatcher", state.opened_ms, route_ms, dispatchers),
            SpanHop(
                "match",
                "worker",
                state.match_started_ms if state.match_started_ms >= 0 else closed_ms,
                state.match_ms,
                state.match_endpoints,
            ),
            SpanHop(
                "merge",
                "merger",
                state.merge_started_ms if state.merge_started_ms >= 0 else closed_ms,
                state.merge_ms,
                mergers,
            ),
        )
        self.record(WindowSpan(state.seq, state.base, state.size, hops))
        return True

    def lifecycle(self, kind: str, **fields: Any) -> None:
        """Record one control-plane milestone at the current window seq
        (``fields``: the optional :class:`LifecycleEvent` fields)."""
        self.record(LifecycleEvent(kind, self.window_seq, self.now_ms(), **fields))

    def drain_gauges(
        self, observed: Snapshot, dispatcher_busy: Mapping[int, float], result_hops: int
    ) -> None:
        """Record one gauge sample per endpoint of every tier.

        Worker and merger gauges are their observations.  Dispatcher
        gauges overlay the coordinator's authoritative Definition-1
        busy accounting (``dispatcher_busy``, by dispatcher id) on the
        shard replicas' memory/cache depth, and the coordinator itself
        contributes a sample (its relayed-result depth).
        """
        samples: List[GaugeSample] = [gauge_sample(o) for o in observed.workers.values()]
        for dispatcher_id, busy_cost in dispatcher_busy.items():
            shard = observed.shards.get(dispatcher_id)
            samples.append(
                GaugeSample(
                    tier="dispatcher",
                    endpoint_id=dispatcher_id,
                    busy_cost=busy_cost,
                    memory_bytes=shard.memory_bytes if shard is not None else 0,
                    depth=shard.depth if shard is not None else 0,
                )
            )
        samples.extend(gauge_sample(o) for o in observed.mergers.values())
        samples.append(
            GaugeSample(
                tier="coordinator",
                endpoint_id=0,
                busy_cost=0.0,
                memory_bytes=0,
                depth=result_hops,
            )
        )
        self.record_gauges(samples, self.window_seq)

    def record_gauges(self, samples: Iterable[GaugeSample], seq: int) -> None:
        """Stamp drained samples with the window/barrier seq and record."""
        for sample in samples:
            self.record(replace(sample, seq=seq))

    def events(self) -> List[TelemetryEvent]:
        """The retained ring contents, oldest first (a copy)."""
        return list(self._ring)

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None


# ----------------------------------------------------------------------
# Timeline rendering (the `repro report` subcommand)
# ----------------------------------------------------------------------
def _bar(value: float, maximum: float, width: int) -> str:
    if maximum <= 0.0:
        return ""
    return "#" * max(1, int(round(width * value / maximum))) if value > 0 else ""


def render_timeline(events: Sequence[TelemetryEvent], *, width: int = 30) -> str:
    """Render a run's telemetry as a human-readable timeline.

    Three sections: the per-tier utilisation table (from the newest
    gauge samples), the window trace waterfall (route/match/merge bars
    scaled to the slowest hop of the run), and lifecycle annotations
    (adjustments, checkpoints, recoveries) interleaved by window seq.
    """
    spans = sorted(
        (e for e in events if isinstance(e, WindowSpan)), key=lambda s: s.seq
    )
    lifecycle = sorted(
        (e for e in events if isinstance(e, LifecycleEvent)), key=lambda e: (e.seq, e.at_ms)
    )
    series = TierTimeseries()
    for event in events:
        if isinstance(event, GaugeSample):
            series.add(event)

    lines: List[str] = ["== Per-tier utilisation =="]
    if series.tiers():
        lines.append(
            "%-12s %9s %12s %14s %10s %s"
            % ("tier", "endpoints", "busy_cost", "memory_bytes", "depth", "busy share")
        )
        for tier in series.tiers():
            latest = series.latest(tier)
            fractions = series.busy_fractions(tier)
            share = " ".join(
                "%d:%.0f%%" % (endpoint, 100.0 * fractions[endpoint])
                for endpoint in sorted(fractions)
            )
            lines.append(
                "%-12s %9d %12.2f %14d %10d %s"
                % (
                    tier,
                    len(latest),
                    sum(s.busy_cost for s in latest.values()),
                    sum(s.memory_bytes for s in latest.values()),
                    sum(s.depth for s in latest.values()),
                    share,
                )
            )
    else:
        lines.append("(no gauge samples)")

    lines.append("")
    lines.append("== Window trace waterfall ==")
    annotations: Dict[int, List[LifecycleEvent]] = {}
    for event in lifecycle:
        annotations.setdefault(event.seq, []).append(event)
    if spans:
        max_hop = max(
            (hop.elapsed_ms for span in spans for hop in span.hops), default=0.0
        )
        for span in spans:
            lines.append(
                "window %4d  tuples %5d..%-5d"
                % (span.seq, span.base, span.base + span.size - 1)
            )
            for hop in span.hops:
                lines.append(
                    "  %-6s %-10s %8.2fms |%s"
                    % (hop.stage, hop.tier, hop.elapsed_ms, _bar(hop.elapsed_ms, max_hop, width))
                )
            for event in annotations.pop(span.seq, ()):  # fired at this window
                lines.append("  ** %s" % _annotation(event))
    else:
        lines.append("(no window spans)")
    # Lifecycle events after the last span (e.g. a final checkpoint).
    for seq in sorted(annotations):
        for event in annotations[seq]:
            lines.append("** %s" % _annotation(event))
    return "\n".join(lines) + "\n"


def _annotation(event: LifecycleEvent) -> str:
    parts = [event.kind]
    if event.epoch >= 0:
        parts.append("epoch %d" % event.epoch)
    if event.endpoint_id >= 0:
        parts.append("%s %d" % (event.tier or "endpoint", event.endpoint_id))
    if event.detail:
        parts.append(event.detail)
    return " — ".join(parts) + " @ %.1fms" % event.at_ms


# ----------------------------------------------------------------------
# Prometheus-style HTTP exposition (`repro serve --telemetry-port`)
# ----------------------------------------------------------------------
class TelemetryServer:
    """A tiny threaded HTTP server exposing a text-format snapshot.

    ``render`` is called per request (so the page is always current);
    binds loopback only — telemetry is operational introspection, not a
    public surface.  ``port=0`` picks a free port (see :attr:`port`).
    """

    def __init__(self, render: Callable[[], str], port: int = 0) -> None:
        # Imported here: http.server costs ~25 ms, and only `repro serve
        # --telemetry-port` ever gets this far.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        self._render = render

        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                body = server._render().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; version=0.0.4")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:  # silence stderr
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-telemetry", daemon=True
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    def close(self) -> None:
        self._httpd.shutdown()
        self._thread.join(timeout=10.0)
        self._httpd.server_close()
