"""The sharded merger/delivery tier of the PS2Stream cluster.

The paper's topology is dispatchers → workers → **mergers** (Section
III-B): mergers deduplicate the matches of replicated queries and notify
subscribers.  This module is that tier:

* results are partitioned across ``num_mergers`` merger **shards** by
  ``query_id % num_mergers`` — the exact assignment the inline loop
  already simulated, and one that is invariant under Section V
  migrations (a query keeps its merger wherever its cells move, so
  replicated matches keep meeting at the same shard);
* one :class:`MergeBackend` drives the shards on every deployment, as
  for the worker transport and the dispatch stage: each shard is a
  :class:`MergeHost` (a :class:`MergerNode` and its sink) on the fleet
  :func:`~repro.runtime.fabric.make_fleet` builds —

  - ``inprocess``, the reference: the hosts live in the coordinator's
    interpreter on a :class:`~repro.runtime.fabric.LocalFleet` and a
    delivery is a direct call, byte-identical to the pre-subsystem
    inline loop.
  - ``multiprocess`` / ``socket``: one fabric endpoint per merger shard
    (:mod:`repro.runtime.fabric`).  In the ``multiprocess`` deployment
    each shard owns an **inbox** (a ``multiprocessing.SimpleQueue``)
    carrying the data plane
    (:class:`~repro.runtime.transport.DeliverResults`) and the control
    plane (observations, period resets, adjustment fences, sink drains), with
    replies on a per-shard pipe; ``SimpleQueue.put`` writes synchronously
    in the calling thread, so a control message enqueued after a delivery
    is guaranteed to be processed after it — the inbox ordering *is* the
    fence.  In the ``socket`` deployment each shard is a ``repro serve
    --role merger`` endpoint over one TCP connection, which is equally
    FIFO — the same fence argument holds because the coordinator is the
    connection's only producer.

* in the full multiprocess deployment (multiprocess workers **and**
  multiprocess mergers) the worker hosts ship match results straight
  into the shard inboxes (:func:`repro.runtime.transport.make_result_shipper`)
  and reply to the coordinator with costs/counts only: dedup/delivery of
  window ``K`` overlaps matching of window ``K+1``, and the
  coordinator's result-hop counter (``Cluster.result_hops``) stays zero.
  (The socket deployment routes results through the coordinator instead:
  TCP gives no ordering across *different* connections, so direct
  worker→merger shipping would need a distributed fence — future work.)

Delivered results feed a pluggable **subscriber sink** (one instance per
shard, built where the shard lives): ``null`` discards, ``memory``
buffers (drained over the control plane), ``jsonl`` appends one JSON
line per delivery to a per-shard file, ``callback`` invokes a picklable
callable.  Sink work is real I/O, deliberately outside the simulated
``RESULT_COST`` accounting, so attaching a sink never changes a report.

Reports are byte-identical across merger backends
(``tests/test_report_golden.py``): delivered/duplicate counts and busy
cost are multiset-invariant in the arrival order of a shard's results,
and every ``Observe`` read is fenced through the inbox.  (The only order-sensitive
state is dedup-window *eviction*, which needs more than
``MergerNode.DEDUP_WINDOW`` distinct keys per shard to begin — far beyond
any equivalence test.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.objects import MatchResult
from .fabric import Fleet, RoleHost, TierBackend, TransportError, make_fleet, register_role
from .merger import MergerNode
from .telemetry import Observation, Observe
from .transport import DeliverResults, MergerReset, SinkDrain, ship_results

__all__ = [
    "CallbackSink",
    "FabricMerge",
    "InProcessMerge",
    "JsonlSink",
    "MERGE_BACKENDS",
    "MemorySink",
    "MergeBackend",
    "MergeHost",
    "NullSink",
    "SINK_KINDS",
    "SinkSpec",
    "SubscriberSink",
    "build_sink",
    "make_merge",
]


# ----------------------------------------------------------------------
# Subscriber sinks
# ----------------------------------------------------------------------
class SubscriberSink:
    """Delivery endpoint of one merger shard (one instance per shard)."""

    kind = "abstract"

    def deliver(self, result: MatchResult) -> None:
        """Receive one deduplicated match result."""

    def drain(self) -> List[MatchResult]:
        """Return (and clear) the buffered deliveries, if the sink buffers."""
        return []

    def close(self) -> None:
        """Release sink resources (flushes/closes files)."""


class NullSink(SubscriberSink):
    """Discard deliveries (the default — delivery is pure accounting)."""

    kind = "null"


class MemorySink(SubscriberSink):
    """Buffer deliveries in memory; ``drain`` hands them out and clears."""

    kind = "memory"

    def __init__(self) -> None:
        self._delivered: List[MatchResult] = []

    def deliver(self, result: MatchResult) -> None:
        self._delivered.append(result)

    def drain(self) -> List[MatchResult]:
        delivered, self._delivered = self._delivered, []
        return delivered


class JsonlSink(SubscriberSink):
    """Append one JSON line per delivery to a per-shard file.

    Every shard writes its own file so out-of-process shards never
    interleave writes: a ``{merger}`` placeholder in the path is
    substituted with the shard id, otherwise ``.m<id>`` is appended.
    """

    kind = "jsonl"

    def __init__(self, path: str, merger_id: int) -> None:
        if "{merger}" in path:
            path = path.replace("{merger}", str(merger_id))
        else:
            path = "%s.m%d" % (path, merger_id)
        self.path = path
        self._handle = None

    def deliver(self, result: MatchResult) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(
            json.dumps(
                {
                    "query_id": result.query_id,
                    "object_id": result.object_id,
                    "subscriber_id": result.subscriber_id,
                    "worker_id": result.worker_id,
                },
                sort_keys=True,
            )
        )
        self._handle.write("\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class CallbackSink(SubscriberSink):
    """Invoke a callable per delivery.

    On the out-of-process backends the callable crosses a process
    boundary, so it must be picklable (a module-level function, not a
    closure) and runs *in the shard process* — use it for side effects
    there, or use the memory sink + ``drain_sinks`` to get deliveries
    back.
    """

    kind = "callback"

    def __init__(self, callback: Callable[[MatchResult], None]) -> None:
        #: The callback *is* the delivery: one Python frame less per result.
        self.deliver = callback  # type: ignore[method-assign]


#: The selectable sink kinds (``--sink`` on the CLI exposes the first three).
SINK_KINDS = ("null", "memory", "jsonl", "callback")


@dataclass(frozen=True)
class SinkSpec:
    """Picklable description of a sink, instantiated where the shard lives."""

    kind: str = "null"
    path: Optional[str] = None
    # The callback sink is documented to require a picklable module-level
    # callable (tests ship one across process boundaries); the Callable
    # annotation itself is wire-legal under that contract.
    callback: Optional[Callable[[MatchResult], None]] = None  # repro-lint: disable=RL003

    def __post_init__(self) -> None:
        if self.kind not in SINK_KINDS:
            raise ValueError(
                "unknown sink kind %r (expected one of %s)"
                % (self.kind, ", ".join(SINK_KINDS))
            )
        if self.kind == "jsonl" and not self.path:
            raise ValueError("the jsonl sink needs a path")
        if self.kind == "callback" and self.callback is None:
            raise ValueError("the callback sink needs a callable")


def build_sink(spec: SinkSpec, merger_id: int) -> SubscriberSink:
    """Instantiate one shard's sink from its picklable spec."""
    if spec.kind == "null":
        return NullSink()
    if spec.kind == "memory":
        return MemorySink()
    if spec.kind == "jsonl":
        assert spec.path is not None
        return JsonlSink(spec.path, merger_id)
    assert spec.callback is not None
    return CallbackSink(spec.callback)


# ----------------------------------------------------------------------
# The merger role host (served by the fabric's generic serve loop)
# ----------------------------------------------------------------------
class MergeHost(RoleHost):
    """One merger-shard endpoint: a :class:`MergerNode` behind the typed
    surface.  ``init`` carries the picklable ``sink`` spec;
    :class:`DeliverResults` is the fire-and-forget data plane — the fabric
    parks a delivery failure and reports it on the next control request
    (an unsolicited reply would desynchronise the request/reply
    pairing)."""

    fire_and_forget = (DeliverResults,)

    def __init__(self, merger_id: int, init: Mapping[str, Any]) -> None:
        spec = init.get("sink") or SinkSpec()
        self.merger = MergerNode(merger_id, sink=build_sink(spec, merger_id))

    def handle(self, message: Any) -> Any:
        kind = type(message)
        merger = self.merger
        if kind is DeliverResults:
            merger.handle_many(message.results)
            return None
        if kind is Observe:
            # ``depth`` is the live dedup-window population — the bounded
            # state a future merger re-shard would hand off (droppable: at
            # worst duplicates, never losses).
            return Observation(
                tier="merger",
                endpoint_id=merger.merger_id,
                busy_cost=merger.busy_cost,
                memory_bytes=merger.memory_bytes(),
                depth=merger.dedup_population(),
                received=merger.received,
                delivered=merger.delivered,
                duplicates=merger.duplicates,
                profile=merger.profile.event(merger.merger_id),
            )
        if kind is MergerReset:
            merger.reset_period()
            return True
        if kind is SinkDrain:
            return merger.sink.drain()
        raise TransportError("unknown merge message %r" % (message,))

    def close(self) -> None:
        self.merger.sink.close()


register_role("merger", MergeHost)


# ----------------------------------------------------------------------
# The merger tier (one class over every deployment's fleet)
# ----------------------------------------------------------------------
class MergeBackend(TierBackend):
    """Coordinator-side surface of the merger/delivery tier.

    The cluster drives it with ``deliver`` (coordinator-side delivery of
    results it received over the worker transport), ``reset_period`` /
    ``drain_sinks`` and ``worker_endpoints`` — the per-shard inboxes
    handed to the multiprocess worker transport for direct shipping
    (``None`` when the tier lives in the coordinator's interpreter or
    behind TCP) — plus the :class:`~repro.runtime.fabric.TierBackend`
    lifecycle: ``observe`` for the reports, ``barrier`` at adjustment
    fences — each shard's channel is FIFO, so all earlier deliveries are
    processed (the fence argument of the module docstring).
    """

    def __init__(self, fleet: Fleet) -> None:
        super().__init__(fleet)
        self.num_mergers = len(fleet.endpoint_ids)

    def deliver(self, results: Sequence[MatchResult]) -> None:
        """Partition ``results`` across the shards and deliver them.

        Each batch goes as it is: a fabric send pickles it at once and a
        local host consumes it before the call returns."""
        send = self._fleet.send
        ship_results(results, self.num_mergers, lambda m, batch: send(m, DeliverResults(batch)))

    def worker_endpoints(self) -> Optional[Sequence[Any]]:
        """Shard inboxes for direct worker→merger shipping, or ``None``."""
        return self._fleet.data_endpoints()

    def reset_period(self) -> None:
        """Start a new measurement period on every shard."""
        self._fleet.broadcast(MergerReset())

    def drain_sinks(self) -> Dict[int, List[MatchResult]]:
        """Drain every shard's sink buffer, keyed by merger id."""
        drained = self._fleet.broadcast(SinkDrain())
        return {merger_id: drained[merger_id] for merger_id in sorted(drained)}


class InProcessMerge(MergeBackend):
    """:class:`MergeBackend` on a ``LocalFleet``: a name the e2e tracer wraps, kept
    until a benchmark change retargets it (ROADMAP item 1(b))."""


class FabricMerge(MergeBackend):
    """:class:`MergeBackend` on a process or socket fleet: a name the e2e tracer
    wraps, kept until a benchmark change retargets it (ROADMAP item 1(b))."""


#: Registry of the selectable merger backends (``--merger-backend``).
MERGE_BACKENDS = ("inprocess", "multiprocess", "socket")


def make_merge(
    backend: str,
    num_mergers: int,
    *,
    sink: Optional[SinkSpec] = None,
    addresses: Optional[Sequence[Tuple[str, int]]] = None,
) -> MergeBackend:
    """Build the merger/delivery backend for a cluster deployment.

    ``addresses`` are the manifest's ``repro serve --role merger``
    endpoints (:func:`~repro.runtime.fabric.make_fleet`).
    """
    init = {"sink": sink}
    inits = {merger_id: init for merger_id in range(num_mergers)}
    fleet = make_fleet(
        "merger", backend, inits, addresses=addresses, label="merger shard",
        # Multiprocess shards receive through a multi-producer inbox, so
        # worker hosts can ship results to them directly.
        queue_inbox=True,
    )
    return (FabricMerge if fleet.concurrent else InProcessMerge)(fleet)
