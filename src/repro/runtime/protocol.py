"""The declarative protocol registry of the runtime fabric.

PRs 3-6 grew a three-tier distributed runtime whose message vocabulary
lives in :mod:`repro.runtime.transport`, :mod:`repro.runtime.dispatch`,
:mod:`repro.runtime.merge` and :mod:`repro.runtime.fabric`.  Until this
module existed, the mapping from message type to the role host that must
handle it was implied by docstrings and enforced only by the serve loop
raising ``TransportError`` at runtime — i.e. by a hung pipe when a new
message shipped without its handler.  This registry makes the routing
explicit and machine-checkable:

* ``MESSAGE_ROUTING`` — for each role, the request messages its host's
  ``handle`` method must dispatch.  ``repro lint`` rule **RL001** parses
  this table and verifies every listed message appears in the host's
  dispatch chain, and that every message dataclass defined in
  ``PROTOCOL_MODULES`` is classified below (a brand-new message cannot be
  added without declaring who handles it).
* ``REPLY_MESSAGES`` / ``PAYLOAD_DATACLASSES`` — the rest of the wire
  vocabulary: replies the coordinator reads back, and dataclasses that
  ride *inside* other messages (worker ops in a ``RouteBatch``, sink
  specs in an ``Init``).  Rule **RL003** checks every wire-crossing
  dataclass — requests, replies and payloads — for transitive
  picklability.
* ``FABRIC_MESSAGES`` — handled by :func:`repro.runtime.fabric.serve_loop`
  itself, identically for every role (shutdown, barrier fence, Init
  handshake); ``INTERNAL_DATACLASSES`` never cross a process boundary.
* :func:`mutates_routing` / :func:`barrier_context` — the fence-discipline
  registry of rule **RL005**: a function that mutates routing state (H1
  cell ownership, the routing index object itself) must be decorated, and
  the linter proves it either bumps the routing version (so stale
  dispatch-shard replicas re-sync before the next routed window) or is
  only ever reached from an ``AdjustBarrier`` context.

Everything here is a *literal* — the linter reads this module as an AST,
never imports it — and :mod:`tests.test_lint` imports it for real to
assert the names resolve against the live modules, so the table cannot
drift from the code.
"""

from __future__ import annotations

from typing import Callable, Mapping, Tuple, TypeVar

__all__ = [
    "FABRIC_MESSAGES",
    "INTERNAL_DATACLASSES",
    "MESSAGE_ROUTING",
    "PAYLOAD_DATACLASSES",
    "PROTOCOL_MODULES",
    "REPLY_MESSAGES",
    "ROLE_HOSTS",
    "barrier_context",
    "mutates_routing",
]


#: Modules whose dataclasses form the wire vocabulary of the fabric.
#: Every ``@dataclass`` defined in one of them must be classified in
#: exactly one of the tables below (checked by lint rule RL001).
PROTOCOL_MODULES: Tuple[str, ...] = (
    "repro.runtime.fabric",
    "repro.runtime.transport",
    "repro.runtime.dispatch",
    "repro.runtime.merge",
    "repro.runtime.checkpoint",
    "repro.runtime.telemetry",
    "repro.runtime.profiling",
    "repro.core.counters",
)

#: role -> request messages its host's ``handle`` method must dispatch.
MESSAGE_ROUTING: Mapping[str, Tuple[str, ...]] = {
    "worker": (
        "RouteBatch",
        "Observe",
        "WorkerCall",
    ),
    "dispatcher": (
        "RouteWindow",
        "SyncRoutingIndex",
        "Observe",
    ),
    "merger": (
        "DeliverResults",
        "Observe",
        "MergerReset",
        "SinkDrain",
    ),
}

#: role -> the host class serving that role's endpoints.
ROLE_HOSTS: Mapping[str, str] = {
    "worker": "WorkerHost",
    "dispatcher": "DispatchHost",
    "merger": "MergeHost",
}

#: Messages the generic serve loop handles before the host sees them.
FABRIC_MESSAGES: Tuple[str, ...] = ("Shutdown", "AdjustBarrier", "Init")

#: Endpoint->coordinator replies (read by Fleet.receive, never dispatched).
REPLY_MESSAGES: Tuple[str, ...] = (
    "BarrierAck",
    "MatchResults",
    "Observation",
    "RemoteError",
    "WindowRouting",
)

#: Dataclasses that cross the wire only inside another message (worker
#: ops inside a RouteBatch, sink specs inside an Init handshake, the
#: per-tier hot-loop counters of :mod:`repro.core.counters` inside an
#: Observation).  They are pickle-checked (RL003) like the messages that
#: carry them.
PAYLOAD_DATACLASSES: Tuple[str, ...] = (
    "MatchObjects",
    "InsertPairs",
    "DeleteById",
    "SinkSpec",
    "ProfileEvent",
    "MatchProfile",
    "RouteProfile",
    "DedupProfile",
)

#: Dataclasses in the protocol modules that never cross a process
#: boundary (coordinator-side merge results, host manifests, checkpoint
#: state and the fault-injection specs of the chaos harness).
INTERNAL_DATACLASSES: Tuple[str, ...] = (
    "RoutedWindow",
    "ClusterManifest",
    "Checkpoint",
    "FaultPlan",
    "FaultSpec",
    "RecoveryEvent",
    "RecoveryReport",
    "TelemetrySpec",
    "SpanHop",
    "WindowSpan",
    "GaugeSample",
    "LifecycleEvent",
    "SpanState",
    "ProfilingSpec",
    "ProfileReport",
)


_F = TypeVar("_F", bound=Callable[..., object])


def mutates_routing(func: _F) -> _F:
    """Declare that ``func`` mutates dispatcher routing state (H1/H2).

    Sharded dispatch routes on per-process *replicas* of the routing
    index (:mod:`repro.runtime.dispatch`); a mutation that does not bump
    the cluster's routing version leaves the replicas silently stale —
    every window after it routes on pre-mutation state and the delivered
    reports diverge from the reference backends.  Lint rule **RL005**
    checks every decorated function either calls
    ``invalidate_routing_caches`` / ``_mark_routing_mutated`` (directly
    or via another decorated function) or is reachable only from
    functions decorated with :func:`barrier_context`.
    """
    func.__mutates_routing__ = True  # type: ignore[attr-defined]
    return func


def barrier_context(func: _F) -> _F:
    """Declare that ``func`` runs inside an ``AdjustBarrier`` fence.

    Callers marked with this decorator have already quiesced the
    pipeline (every shipped window applied, every shard fenced), so a
    routing mutation they invoke is re-synced wholesale before the next
    routed window; RL005 accepts them as the only undecorated-bump
    callers of a :func:`mutates_routing` function.
    """
    func.__barrier_context__ = True  # type: ignore[attr-defined]
    return func
