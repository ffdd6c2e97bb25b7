"""The sharded merger/delivery tier of the PS2Stream cluster.

The paper's topology is dispatchers → workers → **mergers** (Section
III-B): mergers deduplicate the matches of replicated queries and notify
subscribers.  Until this module existed the merger tier was an inline
loop the coordinator ran after every exchange — one more serial stage on
the coordinator, and every match result paid a worker→coordinator hop
before it could be deduplicated.  This module makes the tier real:

* results are partitioned across ``num_mergers`` merger **shards** by
  ``query_id % num_mergers`` — the exact assignment the inline loop
  already simulated, and one that is invariant under Section V
  migrations (a query keeps its merger wherever its cells move, so
  replicated matches keep meeting at the same shard);
* backends mirror the worker transport and the dispatch stage:

  - :class:`InProcessMerge` — the reference.  :class:`MergerNode` shards
    live in the coordinator's interpreter and delivery is a direct call,
    byte-identical to the pre-subsystem inline loop.
  - :class:`FabricMerge` — one fabric endpoint per merger shard
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
(``tests/test_merge.py``): delivered/duplicate counts and busy cost are
multiset-invariant in the arrival order of a shard's results, and every
``Observe`` read is fenced through the inbox.  (The only order-sensitive
state is dedup-window *eviction*, which needs more than ``dedup_window``
distinct keys per shard to begin — far beyond any equivalence test.)
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


def _observe_merger(merger: MergerNode) -> Observation:
    """One merger shard's observation from live state (read-only).

    ``depth`` is the live dedup-window population — the bounded state a
    future merger re-shard would hand off (droppable: at worst
    duplicates, never losses).
    """
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


# ----------------------------------------------------------------------
# Backend interface
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
    fences (all earlier deliveries processed).
    """

    num_mergers: int = 0

    def deliver(self, results: Sequence[MatchResult]) -> None:
        """Partition ``results`` across the shards and deliver them."""
        raise NotImplementedError

    def merger_handles(self) -> List[Any]:
        """Per-shard handles: real :class:`MergerNode` objects in process,
        :class:`Observation` snapshots for remote shards — either exposes
        ``delivered`` / ``duplicates`` / ``busy_cost``."""
        raise NotImplementedError

    def worker_endpoints(self) -> Optional[Sequence[Any]]:
        """Shard inboxes for direct worker→merger shipping, or ``None``."""
        return None

    def reset_period(self) -> None:
        """Start a new measurement period on every shard."""
        raise NotImplementedError

    def drain_sinks(self) -> Dict[int, List[MatchResult]]:
        """Drain every shard's sink buffer, keyed by merger id."""
        raise NotImplementedError


class InProcessMerge(MergeBackend):
    """Reference backend: merger shards in the coordinator's interpreter."""

    backend_name = "inprocess"

    def __init__(
        self,
        num_mergers: int,
        *,
        sink: Optional[SinkSpec] = None,
        dedup_window: int = 100_000,
    ) -> None:
        if num_mergers < 1:
            raise ValueError("the merger tier needs at least one shard")
        self.num_mergers = num_mergers
        spec = sink if sink is not None else SinkSpec()
        self.mergers: List[MergerNode] = [
            MergerNode(merger_id, dedup_window=dedup_window, sink=build_sink(spec, merger_id))
            for merger_id in range(num_mergers)
        ]

    def deliver(self, results: Sequence[MatchResult]) -> None:
        ship_results(
            results,
            self.num_mergers,
            lambda merger_id, batch: self.mergers[merger_id].handle_many(batch),
        )

    def observe(self) -> Dict[int, Observation]:
        return {merger.merger_id: _observe_merger(merger) for merger in self.mergers}

    def merger_handles(self) -> List[Any]:
        return list(self.mergers)

    def reset_period(self) -> None:
        for merger in self.mergers:
            merger.reset_period()

    def drain_sinks(self) -> Dict[int, List[MatchResult]]:
        return {merger.merger_id: merger.sink.drain() for merger in self.mergers}

    def close(self) -> None:
        for merger in self.mergers:
            merger.sink.close()


# ----------------------------------------------------------------------
# The merger role host (served by the fabric's generic serve loop)
# ----------------------------------------------------------------------
class MergeHost(RoleHost):
    """One merger-shard endpoint: a :class:`MergerNode` behind the typed
    surface.  ``init`` carries the picklable ``sink`` spec and the
    ``dedup_window``; :class:`DeliverResults` is the fire-and-forget data
    plane — the fabric parks a delivery failure and reports it on the
    next control request (an unsolicited reply would desynchronise the
    request/reply pairing)."""

    fire_and_forget = (DeliverResults,)

    def __init__(self, merger_id: int, init: Mapping[str, Any]) -> None:
        spec = init.get("sink") or SinkSpec()
        self.merger = MergerNode(
            merger_id,
            dedup_window=init.get("dedup_window", 100_000),
            sink=build_sink(spec, merger_id),
        )

    def handle(self, message: Any) -> Any:
        kind = type(message)
        merger = self.merger
        if kind is DeliverResults:
            merger.handle_many(message.results)
            return None
        if kind is Observe:
            return _observe_merger(merger)
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
# Fabric-backed merger tier (multiprocess and socket deployments)
# ----------------------------------------------------------------------
class FabricMerge(MergeBackend):
    """Each merger shard is a fabric endpoint fed through a FIFO channel.

    In the multiprocess deployment the channel's send side is the shard's
    ``SimpleQueue`` inbox — shared by every producer, i.e. the
    coordinator and, in the full multiprocess deployment, the worker
    hosts shipping results directly.  ``SimpleQueue.put`` serialises and
    writes under the queue lock in the calling thread, so any message a
    producer enqueues *after* another producer's put has returned is
    dequeued after it: control requests the coordinator issues once an
    ``exchange`` has completed are guaranteed to observe every delivery
    that exchange produced.  In the socket deployment the channel is one
    TCP connection with the coordinator as sole producer; per-connection
    FIFO gives the identical fence.
    """

    _fleet: Fleet

    def __init__(self, fleet: Fleet) -> None:
        self._fleet = fleet
        self.backend_name = fleet.backend_name
        self.num_mergers = len(fleet.endpoint_ids)

    # -- MergeBackend surface ------------------------------------------
    def deliver(self, results: Sequence[MatchResult]) -> None:
        ship_results(
            results,
            self.num_mergers,
            lambda merger_id, batch: self._fleet.send(
                merger_id, DeliverResults(tuple(batch))
            ),
        )

    def worker_endpoints(self) -> Optional[Sequence[Any]]:
        return self._fleet.data_endpoints()

    def merger_handles(self) -> List[Any]:
        return list(self.observe().values())

    def reset_period(self) -> None:
        self._fleet.broadcast(MergerReset())

    def drain_sinks(self) -> Dict[int, List[MatchResult]]:
        drained = self._fleet.broadcast(SinkDrain())
        return {merger_id: drained[merger_id] for merger_id in sorted(drained)}


#: Registry of the selectable merger backends (``--merger-backend``).
MERGE_BACKENDS = ("inprocess", "multiprocess", "socket")


def make_merge(
    backend: str,
    num_mergers: int,
    *,
    sink: Optional[SinkSpec] = None,
    dedup_window: int = 100_000,
    addresses: Optional[Sequence[Tuple[str, int]]] = None,
) -> MergeBackend:
    """Build the merger/delivery backend for a cluster deployment.

    ``addresses`` are the manifest's ``repro serve --role merger``
    endpoints (:func:`~repro.runtime.fabric.make_fleet`).
    """
    if backend == "inprocess":
        return InProcessMerge(num_mergers, sink=sink, dedup_window=dedup_window)
    init = {"sink": sink, "dedup_window": dedup_window}
    inits = {merger_id: init for merger_id in range(num_mergers)}
    return FabricMerge(
        make_fleet(
            "merger", backend, inits, addresses=addresses, label="merger shard",
            # Multiprocess shards receive through a multi-producer inbox, so
            # worker hosts can ship results to them directly.
            queue_inbox=True,
        )
    )
