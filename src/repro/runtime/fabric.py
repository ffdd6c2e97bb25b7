"""The role-based runtime fabric under every cluster backend.

The paper's PS2Stream deployment (Section III-B) is a Storm topology of
independently running **dispatchers**, **workers** and **mergers**.  Each
tier has its backend seam — the worker transport, the sharded dispatch
stage and the merger tier — over the same process-spawn/pipe/exchange/
drain/close lifecycle of pickled pipes, ``SimpleQueue``s and sockets.
This module is that lifecycle, written once:

* :class:`Channel` — one duplex typed-message link to a remote endpoint.
  Implementations: :class:`PipeChannel` (a ``multiprocessing`` pipe),
  :class:`OutboxChannel`/:class:`InboxChannel` (a multi-producer
  ``SimpleQueue`` inbox with a dedicated reply pipe — the merger tier's
  data plane) and :class:`SocketChannel` (length-prefixed frames over
  TCP, pickle protocol 5 with out-of-band buffers).
* :func:`serve_loop` — the one endpoint serve loop, parameterized by a
  **role host** (the tier logic: op execution, replica routing, shard
  dedup/delivery).  It owns the generic protocol: :class:`Shutdown`,
  :class:`AdjustBarrier` epoch fences, :class:`RemoteError` reporting
  and parked errors for fire-and-forget data-plane messages.  It serves
  under :func:`gc_paused`, the data plane's one collector policy.
* :class:`Fleet` — the coordinator-side handle of ``N`` endpoints of one
  role: synchronous ``request``, submit-all-then-collect ``exchange``
  (workers run their windows concurrently), ``broadcast``, the
  adjustment ``barrier`` and an idempotent, drain-safe ``close``;
  :class:`TierBackend` is the lifecycle the three tier seams share over it.
* deployment constructors — :func:`spawn_fleet` (one OS process per
  endpoint on this host), :func:`connect_fleet` (TCP endpoints from a
  host manifest) and :func:`spawn_socket_fleet` (loopback ``serve``
  processes the coordinator spawns itself, so tests and CI need no
  external orchestration); :func:`make_fleet` picks one per backend.

Roles register themselves under ``worker`` / ``dispatcher`` / ``merger``
(:func:`register_role`): :mod:`repro.runtime.transport` provides the
worker host, :mod:`repro.runtime.dispatch` the dispatch-shard host and
:mod:`repro.runtime.merge` the merger-shard host.  ``repro serve --role
<role> --listen HOST:PORT`` (:func:`serve`) turns any of them into a
standalone network service; :func:`load_manifest` reads the host
manifest a coordinator wires a multi-host cluster from.

Framing (:func:`pack_frame` / :func:`read_frame`): a frame is

``[u32 buffer count][u64 payload length][u64 length per buffer]
[payload][buffer 0]…[buffer N-1]``

with the payload pickled at protocol 5 and every
:class:`pickle.PickleBuffer` the pickler surrenders shipped raw after it
— large contiguous blobs (index snapshots, batched arrays) cross the
wire without being copied into the pickle stream.  A cleanly closed
connection raises :class:`EOFError` at a frame boundary and
:class:`FrameTruncated` (an :class:`OSError`) inside one, so every
consumer's ``except (EOFError, OSError)`` treats both as endpoint death.
"""

from __future__ import annotations

import gc
import importlib
import json
import multiprocessing
import pickle
import select
import socket
import struct
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, fields
from multiprocessing.reduction import ForkingPickler
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "AdjustBarrier",
    "BarrierAck",
    "Channel",
    "ClusterManifest",
    "FaultPlan",
    "FaultSpec",
    "Fleet",
    "FrameTruncated",
    "InboxChannel",
    "Init",
    "NO_REPLY",
    "OutboxChannel",
    "PipeChannel",
    "RemoteError",
    "RoleHost",
    "Shutdown",
    "SocketChannel",
    "TierBackend",
    "TransportError",
    "WireStats",
    "assign_addresses",
    "connect_fleet",
    "dump_message",
    "gc_paused",
    "load_manifest",
    "load_message",
    "make_fleet",
    "pack_frame",
    "parse_address",
    "parse_fault_plan",
    "read_frame",
    "register_role",
    "resolve_role",
    "serve",
    "serve_loop",
    "spawn_fleet",
    "spawn_socket_fleet",
]


class TransportError(RuntimeError):
    """A cluster backend failed to execute a message.

    When the failure maps to one endpoint, :attr:`label` /
    :attr:`endpoint_id` name it and :attr:`died` distinguishes endpoint
    death (pipe EOF, socket reset, truncated frame) from a remote
    exception on a live endpoint — the recovery machinery keys on these
    to decide whether a partition was lost.
    """

    #: Tier label of the failed endpoint ("worker", "merger shard", ...).
    label: Optional[str] = None
    #: Endpoint id within the tier, when the failure maps to one.
    endpoint_id: Optional[int] = None
    #: True when the endpoint process/connection died (not a remote error).
    died: bool = False


class FrameTruncated(ConnectionError):
    """A socket frame ended mid-message (peer died or stream corrupted).

    An :class:`OSError` subclass on purpose: every consumer that treats
    ``(EOFError, OSError)`` as "endpoint died" handles truncation the
    same way without naming it.
    """


# ----------------------------------------------------------------------
# Generic fabric messages (shared by every role)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Shutdown:
    """Terminate an endpoint host (acked, then the serve loop exits)."""


@dataclass(slots=True)
class RemoteError:
    """Endpoint→coordinator: an exception raised while executing a message."""

    message: str
    formatted_traceback: str


@dataclass(slots=True)
class AdjustBarrier:
    """Closed-loop adjustment fence: endpoints ack once fully drained."""

    epoch: int


@dataclass(slots=True)
class BarrierAck:
    """Endpoint→coordinator acknowledgement of an :class:`AdjustBarrier`."""

    epoch: int
    worker_id: int


@dataclass(slots=True)
class Init:
    """Coordinator→endpoint handshake of a network session.

    Carries the role the coordinator expects on the other end, the
    endpoint id it assigns, and the role-specific construction arguments
    (the same ``init`` mapping :func:`spawn_fleet` ships to a local
    process).  The endpoint acks with ``True`` once its host is built.
    """

    role: str
    endpoint_id: int
    init: Mapping[str, Any]


# ----------------------------------------------------------------------
# Fault injection (the chaos-testing seam of the fleet send path)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, armed on the coordinator's send path.

    Coordinator-side state only — a spec never crosses the wire, so the
    same plan drives every backend (multiprocess pipes, queue-inbox
    mergers, TCP sockets) without endpoint cooperation.  The spec fires
    once, on the ``after_sends``-th send to ``endpoint_id`` of tier
    ``role`` whose message type matches ``message_type`` (any type when
    ``None``):

    * ``kill`` — kill the endpoint process (or sever its channel) and
      swallow the send; death surfaces on the next receive;
    * ``drop`` — silently swallow one send (a lost frame);
    * ``truncate`` — ship a partial frame and sever the channel, so the
      peer sees :class:`FrameTruncated` mid-message (socket channels;
      degrades to ``kill`` elsewhere, where frames cannot be split);
    * ``delay`` — sleep ``delay_seconds`` before delivering normally.
    """

    action: str
    role: str = "worker"
    endpoint_id: int = 0
    after_sends: int = 0
    message_type: Optional[str] = None
    delay_seconds: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A set of :class:`FaultSpec`\\ s, split per tier at install time."""

    faults: Tuple[FaultSpec, ...] = ()

    def for_role(self, role: str) -> Tuple[FaultSpec, ...]:
        """The specs targeting one tier (installed on that tier's fleet)."""
        return tuple(spec for spec in self.faults if spec.role == role)

    def __bool__(self) -> bool:
        return bool(self.faults)


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse a fault plan from a JSON literal or a JSON file path.

    The ``--fault-plan`` CLI form: either an inline JSON array/object
    (recognised by its first character) or the path of a file holding
    one.  Accepted shapes::

        [{"action": "kill", "role": "worker", "endpoint_id": 1,
          "after_sends": 3, "message_type": "RouteBatch"}]
        {"faults": [ ... ]}
    """
    stripped = text.strip()
    if stripped.startswith("[") or stripped.startswith("{"):
        raw = json.loads(stripped)
    else:
        with open(text, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    if isinstance(raw, dict):
        raw = raw.get("faults", [])
    if not isinstance(raw, list):
        raise ValueError("fault plan must be a JSON array or {'faults': [...]}")
    specs = []
    for entry in raw:
        if not isinstance(entry, dict) or "action" not in entry:
            raise ValueError("each fault needs at least an 'action': %r" % (entry,))
        unknown = set(entry) - {field.name for field in fields(FaultSpec)}
        if unknown:
            raise ValueError("unknown fault keys %s" % ", ".join(sorted(unknown)))
        specs.append(FaultSpec(**entry))
    return FaultPlan(tuple(specs))


# ----------------------------------------------------------------------
# Framing codec (socket channels; also the unit the codec tests pin)
# ----------------------------------------------------------------------
_HEADER = struct.Struct("<I")  # number of out-of-band buffers
_LENGTH = struct.Struct("<Q")  # payload / buffer byte lengths
#: Upper bound on out-of-band buffers per frame; a header above it is
#: treated as stream corruption rather than an allocation request.
_MAX_BUFFERS = 1 << 20


def read_exact(read: Callable[[int], bytes], size: int) -> bytes:
    """Read exactly ``size`` bytes from a short-read source.

    ``read(n)`` may return fewer than ``n`` bytes (sockets do); an empty
    read inside the requested span means the stream died mid-frame and
    raises :class:`FrameTruncated`.
    """
    if size == 0:
        return b""
    chunk = read(size)
    if len(chunk) == size:
        return chunk
    if not chunk:
        raise FrameTruncated("stream closed %d bytes into a frame read" % 0)
    parts = [chunk]
    remaining = size - len(chunk)
    while remaining:
        chunk = read(remaining)
        if not chunk:
            raise FrameTruncated(
                "stream closed mid-frame: %d of %d bytes missing" % (remaining, size)
            )
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def pack_frame(payload: bytes, buffers: Sequence[Any] = ()) -> bytes:
    """Encode one frame: lengths header, then payload, then raw buffers."""
    parts: List[Any] = [_HEADER.pack(len(buffers)), _LENGTH.pack(len(payload))]
    for buffer in buffers:
        parts.append(_LENGTH.pack(len(buffer)))
    parts.append(payload)
    parts.extend(buffers)
    return b"".join(bytes(part) if not isinstance(part, bytes) else part for part in parts)


def read_frame(read: Callable[[int], bytes]) -> Tuple[bytes, List[bytes]]:
    """Decode one frame from a short-read source.

    Raises :class:`EOFError` when the stream is cleanly closed *between*
    frames and :class:`FrameTruncated` when it dies inside one.
    """
    first = read(1)
    if not first:
        raise EOFError("connection closed")
    header = first + read_exact(read, _HEADER.size - 1)
    (num_buffers,) = _HEADER.unpack(header)
    if num_buffers > _MAX_BUFFERS:
        raise FrameTruncated("corrupt frame header: %d out-of-band buffers" % num_buffers)
    lengths_blob = read_exact(read, _LENGTH.size * (num_buffers + 1))
    sizes = [size for (size,) in _LENGTH.iter_unpack(lengths_blob)]
    payload = read_exact(read, sizes[0])
    buffers = [read_exact(read, size) for size in sizes[1:]]
    return payload, buffers


def dump_message(message: Any) -> bytes:
    """Pickle one message at protocol 5, out-of-band buffers after it."""
    pickle_buffers: List[pickle.PickleBuffer] = []
    payload = pickle.dumps(message, protocol=5, buffer_callback=pickle_buffers.append)
    if not pickle_buffers:
        return pack_frame(payload)
    return pack_frame(payload, [buffer.raw() for buffer in pickle_buffers])


def load_message(read: Callable[[int], bytes]) -> Any:
    """Read one frame and unpickle its message (buffers re-attached)."""
    payload, buffers = read_frame(read)
    return pickle.loads(payload, buffers=buffers)


# ----------------------------------------------------------------------
# Channels
# ----------------------------------------------------------------------
class WireStats(NamedTuple):
    """What one channel has moved so far (messages and encoded bytes)."""

    messages_sent: int
    bytes_sent: int
    messages_received: int
    bytes_received: int


class Channel:
    """One duplex typed-message link between coordinator and endpoint.

    ``send``/``recv`` move whole messages; ``poll`` (coordinator side)
    bounds a wait so :meth:`Fleet.close` can drain without hanging on a
    dead or wedged endpoint.  ``recv`` raises :class:`EOFError` /
    :class:`OSError` when the peer is gone.

    Every channel counts the messages it moves and, where it holds the
    encoded frame itself (pipes, sockets), their bytes — always on, two
    integer adds per message (:meth:`wire_stats`).
    """

    messages_sent = 0
    bytes_sent = 0
    messages_received = 0
    bytes_received = 0

    def wire_stats(self) -> WireStats:
        return WireStats(
            self.messages_sent, self.bytes_sent, self.messages_received, self.bytes_received
        )

    def send(self, message: Any) -> None:
        raise NotImplementedError

    def recv(self) -> Any:
        raise NotImplementedError

    def poll(self, timeout: float) -> bool:
        """Whether a message is readable within ``timeout`` seconds."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the link (never raises for an already-dead peer)."""


class PipeChannel(Channel):
    """A ``multiprocessing`` pipe connection (one process per endpoint).

    ``send``/``recv`` are ``Connection.send``/``recv`` taken apart — the
    same ``ForkingPickler`` frames, so either end interoperates with a
    plain connection — because the encoded frame is what gets counted.
    """

    def __init__(self, connection: Any) -> None:
        self._connection = connection

    def send(self, message: Any) -> None:
        payload = ForkingPickler.dumps(message)
        self._connection.send_bytes(payload)
        self.messages_sent += 1
        self.bytes_sent += len(payload)

    def recv(self) -> Any:
        payload = self._connection.recv_bytes()
        self.messages_received += 1
        self.bytes_received += len(payload)
        return pickle.loads(payload)

    def poll(self, timeout: float) -> bool:
        return self._connection.poll(timeout)

    def close(self) -> None:
        try:
            self._connection.close()
        except OSError:  # pragma: no cover - already torn down
            pass


class OutboxChannel(Channel):
    """Coordinator side of a queue-inbox endpoint (the merger data plane).

    Sends enqueue on the endpoint's ``SimpleQueue`` inbox — shared with
    any other producer, e.g. worker hosts shipping results directly —
    and replies come back on a dedicated one-way pipe.  ``put``
    serialises and writes synchronously in the calling thread, so a
    control message enqueued after a data message is dequeued after it:
    the inbox ordering *is* the fence.  The queue encodes internally, so
    this channel counts messages only.
    """

    def __init__(self, inbox: Any, replies: Any) -> None:
        self.inbox = inbox
        self._replies = replies

    def send(self, message: Any) -> None:
        self.inbox.put(message)
        self.messages_sent += 1

    def recv(self) -> Any:
        reply = self._replies.recv()
        self.messages_received += 1
        return reply

    def poll(self, timeout: float) -> bool:
        return self._replies.poll(timeout)

    def close(self) -> None:
        try:
            self._replies.close()
        except OSError:  # pragma: no cover - already torn down
            pass


class InboxChannel(Channel):
    """Endpoint side of a queue-inbox endpoint: recv from the queue,
    reply on the pipe."""

    def __init__(self, inbox: Any, replies: Any) -> None:
        self._inbox = inbox
        self._replies = replies

    def send(self, message: Any) -> None:
        self._replies.send(message)

    def recv(self) -> Any:
        return self._inbox.get()

    def close(self) -> None:
        try:
            self._replies.close()
        except OSError:  # pragma: no cover - already torn down
            pass


class SocketChannel(Channel):
    """Length-prefixed pickled frames over one TCP connection."""

    def __init__(self, sock: socket.socket) -> None:
        self._socket = sock
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP test doubles
            pass

    def send(self, message: Any) -> None:
        frame = dump_message(message)
        self._socket.sendall(frame)
        self.messages_sent += 1
        self.bytes_sent += len(frame)

    def _read(self, size: int) -> bytes:
        chunk = self._socket.recv(size)
        self.bytes_received += len(chunk)
        return chunk

    def recv(self) -> Any:
        message = load_message(self._read)
        self.messages_received += 1
        return message

    def poll(self, timeout: float) -> bool:
        readable, _, _ = select.select([self._socket], [], [], timeout)
        return bool(readable)

    def close(self) -> None:
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - already torn down
            pass


# ----------------------------------------------------------------------
# Role registry + the one serve loop
# ----------------------------------------------------------------------
#: Sentinel reply for fire-and-forget messages (nothing goes back).
NO_REPLY = object()


class RoleHost:
    """One endpoint's tier logic, served by :func:`serve_loop`.

    Subclasses (``WorkerHost`` / ``DispatchHost`` / ``MergeHost``) are
    built from ``(endpoint_id, init)`` and implement :meth:`handle`;
    message types listed in :attr:`fire_and_forget` never produce a
    reply — a failure while handling one is parked and answers the next
    request instead (an unsolicited error reply would desynchronise the
    request/reply pairing of every later control message).
    """

    #: Message types handled without a reply (data-plane deliveries).
    fire_and_forget: Tuple[type, ...] = ()

    def handle(self, message: Any) -> Any:
        """Execute one message; the return value is the reply."""
        raise NotImplementedError

    def close(self) -> None:
        """Release host resources on shutdown (flush sinks, etc.)."""


#: role name -> host factory ``(endpoint_id, init) -> RoleHost``.
_ROLE_REGISTRY: Dict[str, Callable[[int, Mapping[str, Any]], RoleHost]] = {}

#: Modules that register each role on import (lazy, avoids import cycles).
_ROLE_MODULES = {
    "worker": "repro.runtime.transport",
    "dispatcher": "repro.runtime.dispatch",
    "merger": "repro.runtime.merge",
}

ROLES = tuple(sorted(_ROLE_MODULES))


def register_role(name: str, factory: Callable[[int, Mapping[str, Any]], RoleHost]) -> None:
    """Register the host factory serving ``--role name`` endpoints."""
    _ROLE_REGISTRY[name] = factory


def resolve_role(name: str) -> Callable[[int, Mapping[str, Any]], RoleHost]:
    """Look up a role's host factory, importing its module if needed."""
    factory = _ROLE_REGISTRY.get(name)
    if factory is None:
        module = _ROLE_MODULES.get(name)
        if module is None:
            raise ValueError(
                "unknown role %r (expected one of %s)" % (name, ", ".join(ROLES))
            )
        importlib.import_module(module)
        factory = _ROLE_REGISTRY[name]
    return factory


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run a data-plane loop with CPython's cyclic garbage collector paused.

    The replay loops and every endpoint's serve loop make no reference
    cycles (``tests/test_gc_policy.py`` holds them to it): reference
    counting frees all they drop, so a collection inside one only walks
    live objects — a pause that finds nothing.  The collector is enabled
    again on the way out, however the block ends; the young collection it
    deferred runs at the first allocation after it.  A caller that had
    the collector disabled keeps it disabled.  Usable as a decorator.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@gc_paused()
def serve_loop(host: RoleHost, endpoint_id: int, channel: Channel) -> bool:
    """Serve one endpoint until :class:`Shutdown` or channel death.

    THE endpoint lifecycle, shared by every role and every channel kind:

    * :class:`Shutdown` → close the host, ack ``True``, return ``True``;
    * :class:`AdjustBarrier` → ack the epoch.  The host is
      single-threaded and the channel is FIFO, so every earlier message
      has been fully applied — acking *is* the fence;
    * a parked data-plane error answers the next request (and skips it);
    * anything else goes to ``host.handle``; exceptions become
      :class:`RemoteError` replies (or are parked, for fire-and-forget
      message types).

    Returns whether the session ended in an orderly shutdown (``False``
    means the peer vanished — a network server may accept a new session).
    """
    fire_and_forget = host.fire_and_forget
    pending_error: Optional[RemoteError] = None
    while True:
        try:
            message = channel.recv()
        except (EOFError, OSError):
            return False
        kind = type(message)
        if kind is Shutdown:
            try:
                host.close()
            finally:
                try:
                    channel.send(True)
                except Exception:  # pragma: no cover - peer gone mid-shutdown
                    pass
            return True
        if pending_error is not None and kind not in fire_and_forget:
            # Flush only when the peer expects a reply: answering a
            # fire-and-forget message would push an unsolicited frame
            # and desync every later request/reply pair.
            try:
                channel.send(pending_error)
            except Exception:  # pragma: no cover - peer gone
                return False
            pending_error = None
            continue
        if kind is AdjustBarrier:
            try:
                channel.send(BarrierAck(message.epoch, endpoint_id))
            except Exception:  # pragma: no cover - peer gone
                return False
            continue
        try:
            reply = host.handle(message)
        except Exception as exc:
            error = RemoteError(repr(exc), traceback.format_exc())
            if kind in fire_and_forget:
                if pending_error is None:  # keep the first (root) failure
                    pending_error = error
                continue
            try:
                channel.send(error)
            except Exception:  # pragma: no cover - peer gone
                return False
            continue
        if kind in fire_and_forget or reply is NO_REPLY:
            continue
        try:
            channel.send(reply)
        except Exception:  # pragma: no cover - peer gone
            return False


# ----------------------------------------------------------------------
# Fleet: the coordinator-side surface of N endpoints of one role
# ----------------------------------------------------------------------
class _ClosesOnExit:
    """``close()`` on leaving a ``with`` block and, best effort, when collected."""

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> Any:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


class Fleet(_ClosesOnExit):
    """Coordinator handle of one role tier (its channels + lifecycle).

    ``label`` names endpoints in errors ("worker", "dispatch shard",
    "merger shard"); ``backend_name`` is the deployment kind the tier
    classes report ("multiprocess" or "socket").  The tier backends
    (:class:`~repro.runtime.transport.FabricTransport` and friends) hold
    exactly one fleet and layer role semantics on this surface.
    """

    def __init__(
        self,
        label: str,
        channels: Dict[int, Channel],
        *,
        processes: Optional[Dict[int, Any]] = None,
        data_endpoints: Optional[Sequence[Any]] = None,
        backend_name: str = "multiprocess",
    ) -> None:
        self.label = label
        self.backend_name = backend_name
        self._channels = channels
        self._processes: Dict[int, Any] = processes if processes is not None else {}
        self._data_endpoints = data_endpoints
        self._epoch = 0
        self._closed = False
        #: endpoint id -> reason, for every endpoint observed dead (on the
        #: request path, via fault injection, or during :meth:`close`).
        self.dead_endpoints: Dict[int, str] = {}
        self._fault_specs: Tuple[FaultSpec, ...] = ()
        #: spec index -> matching sends seen so far (-1 once fired).
        self._fault_counts: Dict[int, int] = {}

    # -- introspection -------------------------------------------------
    @property
    def endpoint_ids(self) -> List[int]:
        return list(self._channels)

    @property
    def processes(self) -> Dict[int, Any]:
        """Endpoint processes this fleet spawned (empty for remote hosts)."""
        return self._processes

    def data_endpoints(self) -> Optional[Sequence[Any]]:
        """Per-endpoint data-plane inboxes other producers may write to
        (the merger tier's direct worker→merger shipping), or ``None``."""
        return self._data_endpoints

    def wire_stats(self) -> Dict[int, WireStats]:
        """Coordinator-side traffic of every live endpoint's channel."""
        return {
            endpoint_id: channel.wire_stats()
            for endpoint_id, channel in sorted(self._channels.items())
        }

    # -- fault injection (testing seam) --------------------------------
    def install_fault_plan(self, faults: Sequence[FaultSpec]) -> None:
        """Arm fault specs on this fleet's send path (chaos tests)."""
        self._fault_specs = tuple(faults)
        self._fault_counts = {index: 0 for index in range(len(self._fault_specs))}

    def _maybe_inject(self, endpoint_id: int, message: Any) -> bool:
        """Fire any armed fault matching this send; True swallows the send."""
        if getattr(type(message), "__telemetry_control__", False):
            # Telemetry drains are exempt from fault counting: an armed
            # spec with message_type=None counts *every* matching send,
            # so counting them would shift when a fault fires between
            # telemetry-on and telemetry-off runs — breaking the
            # perturbation-freedom invariant chaos tests pin.
            return False
        for index, spec in enumerate(self._fault_specs):
            if spec.endpoint_id != endpoint_id:
                continue
            if spec.message_type is not None and type(message).__name__ != spec.message_type:
                continue
            seen = self._fault_counts.get(index, -1)
            if seen < 0:
                continue  # one-shot: already fired
            if seen < spec.after_sends:
                self._fault_counts[index] = seen + 1
                continue
            self._fault_counts[index] = -1
            if spec.action == "delay":
                time.sleep(spec.delay_seconds)
                return False
            if spec.action == "drop":
                return True
            if spec.action == "truncate":
                self._truncate_endpoint(endpoint_id, message)
                return True
            if spec.action == "kill":
                self.kill_endpoint(endpoint_id)
                return True
            raise ValueError("unknown fault action %r" % spec.action)
        return False

    def kill_endpoint(self, endpoint_id: int) -> None:
        """Forcibly kill one endpoint: the process if local, else its link.

        The fault-injection primitive — death is *not* reported here; it
        surfaces on the next send/receive exactly the way an organic
        crash would, so recovery code sees the same signal either way.
        """
        process = self._processes.get(endpoint_id)
        if process is not None:
            process.kill()
            process.join(timeout=10.0)
        channel = self._channels.get(endpoint_id)
        if channel is not None:
            channel.close()

    def _truncate_endpoint(self, endpoint_id: int, message: Any) -> None:
        """Ship a partial frame and sever the link (socket channels)."""
        channel = self._channels.get(endpoint_id)
        if isinstance(channel, SocketChannel):
            frame = dump_message(message)
            try:
                channel._socket.sendall(frame[: max(1, len(frame) // 2)])
            except OSError:
                pass
            channel.close()
        else:
            # Pipes/queues move whole pickled objects; a partial frame
            # cannot be expressed, so degrade to endpoint death.
            self.kill_endpoint(endpoint_id)

    def _death(self, endpoint_id: int, exc: BaseException) -> TransportError:
        """Record one endpoint death and build its structured error."""
        self.dead_endpoints.setdefault(endpoint_id, repr(exc))
        error = TransportError("%s %d died: %r" % (self.label, endpoint_id, exc))
        error.label = self.label
        error.endpoint_id = endpoint_id
        error.died = True
        return error

    # -- messaging -----------------------------------------------------
    def send(self, endpoint_id: int, message: Any) -> None:
        """Ship one message without waiting for a reply."""
        if self._fault_specs and self._maybe_inject(endpoint_id, message):
            return
        try:
            self._channels[endpoint_id].send(message)
        except (EOFError, OSError) as exc:
            raise self._death(endpoint_id, exc) from exc

    def receive(self, endpoint_id: int) -> Any:
        """Read one reply, surfacing endpoint death and remote errors."""
        try:
            reply = self._channels[endpoint_id].recv()
        except (EOFError, OSError) as exc:
            raise self._death(endpoint_id, exc) from exc
        if isinstance(reply, RemoteError):
            error = TransportError(
                "%s %d failed: %s\n%s"
                % (self.label, endpoint_id, reply.message, reply.formatted_traceback)
            )
            error.label = self.label
            error.endpoint_id = endpoint_id
            raise error
        return reply

    def request(self, endpoint_id: int, message: Any) -> Any:
        """Synchronous round trip of one control-plane message."""
        self.send(endpoint_id, message)
        return self.receive(endpoint_id)

    def collect(self, endpoint_ids: Iterable[int]) -> Dict[int, Any]:
        """Gather one reply per endpoint, consuming every pending reply.

        A failing endpoint must not leave the other endpoints' replies
        queued on their channels (a later request would read the stale
        message), so the loop keeps draining after the first error and
        re-raises it once every expected reply has been consumed.
        """
        replies: Dict[int, Any] = {}
        error: Optional[TransportError] = None
        for endpoint_id in endpoint_ids:
            try:
                replies[endpoint_id] = self.receive(endpoint_id)
            except TransportError as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return replies

    def exchange(self, messages: Mapping[int, Any]) -> Dict[int, Any]:
        """Submit every message before collecting any reply.

        The parallelism primitive of the fabric: all endpoints execute
        their messages concurrently, and the reply dict preserves
        ``messages``'s iteration order so downstream merges stay
        deterministic across backends.  A send failure does not stop the
        submit loop — survivors still receive their batches (they must
        not diverge from the coordinator just because another endpoint
        died first) — and the first error is re-raised once every
        successfully submitted endpoint has been collected.
        """
        error: Optional[TransportError] = None
        submitted: List[int] = []
        for endpoint_id, message in messages.items():
            try:
                self.send(endpoint_id, message)
            except TransportError as exc:
                if error is None:
                    error = exc
                continue
            submitted.append(endpoint_id)
        try:
            replies = self.collect(submitted)
        except TransportError as collect_error:
            raise error or collect_error
        if error is not None:
            raise error
        return replies

    def broadcast(self, message: Any) -> Dict[int, Any]:
        """Send one message to every endpoint, then gather all replies."""
        return self.exchange({endpoint_id: message for endpoint_id in self._channels})

    def barrier(self) -> int:
        """Run one :class:`AdjustBarrier` fence; returns the new epoch."""
        self._epoch += 1
        epoch = self._epoch
        acks = self.broadcast(AdjustBarrier(epoch))
        for endpoint_id, ack in acks.items():
            if not isinstance(ack, BarrierAck) or ack.epoch != epoch:
                raise TransportError(
                    "%s %d broke the adjustment fence: %r"
                    % (self.label, endpoint_id, ack)
                )
        return epoch

    # -- recovery ------------------------------------------------------
    def discard(self, endpoint_id: int, reason: str = "discarded after failure") -> None:
        """Drop one endpoint from the fleet (the recovery path).

        Closes its channel, reaps its local process if any, and records
        it in :attr:`dead_endpoints`.  Idempotent; the endpoint simply
        stops participating in ``exchange``/``broadcast``/``barrier``.
        """
        channel = self._channels.pop(endpoint_id, None)
        if channel is not None:
            channel.close()
        process = self._processes.pop(endpoint_id, None)
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
        self.dead_endpoints.setdefault(endpoint_id, reason)

    def resync(self, max_retries: int = 4) -> None:
        """Re-align surviving channels after an endpoint death.

        An aborted window may have left un-collected replies queued on
        surviving endpoints; a fresh :class:`AdjustBarrier` is sent to
        each and its channel drained up to the matching ack, discarding
        stale replies, so the next request/reply pair starts clean.  A
        parked fire-and-forget error is flushed by the serve loop *as*
        the reply to the barrier (which it swallows), so on a
        :class:`RemoteError` reply the barrier is re-sent — bounded by
        ``max_retries``.  Endpoints that fail during the resync are
        discarded rather than raising: resync is the cleanup step of a
        recovery already in progress.
        """
        self._epoch += 1
        epoch = self._epoch
        for endpoint_id in list(self._channels):
            channel = self._channels[endpoint_id]
            try:
                channel.send(AdjustBarrier(epoch))
            except Exception as exc:
                self.discard(endpoint_id, repr(exc))
                continue
            retries = 0
            while True:
                try:
                    reply = channel.recv()
                except Exception as exc:
                    self.discard(endpoint_id, repr(exc))
                    break
                if isinstance(reply, BarrierAck) and reply.epoch == epoch:
                    break
                if isinstance(reply, RemoteError):
                    retries += 1
                    if retries > max_retries:
                        self.discard(endpoint_id, "kept raising during resync")
                        break
                    try:
                        channel.send(AdjustBarrier(epoch))
                    except Exception as exc:
                        self.discard(endpoint_id, repr(exc))
                        break
                # Anything else is a stale reply of the aborted window.

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Shut every endpoint down; idempotent and hang-safe.

        Shutdown is best-effort per endpoint: the ack wait is bounded by
        ``poll`` (a wedged endpoint cannot hang the coordinator), stale
        in-flight replies queued before the ack are drained past, and a
        dead endpoint is skipped — but *recorded* in
        :attr:`dead_endpoints` (endpoint id -> reason), so callers and
        tests can tell which endpoints were already gone at close time.
        A poll timeout is treated as wedged-but-alive, not dead.
        """
        if self._closed:
            return
        self._closed = True
        for endpoint_id, channel in self._channels.items():
            try:
                channel.send(Shutdown())
            except Exception as exc:
                self.dead_endpoints.setdefault(endpoint_id, repr(exc))
                continue
            # Drain until the shutdown ack (True); a submitted-but-not-
            # collected window's reply may be queued ahead of it.
            for _ in range(64):
                try:
                    if not channel.poll(2.0):
                        break
                    if channel.recv() is True:
                        break
                except Exception as exc:
                    self.dead_endpoints.setdefault(endpoint_id, repr(exc))
                    break
        for channel in self._channels.values():
            channel.close()
        for process in self._processes.values():
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1.0)


class TierBackend(_ClosesOnExit):
    """The lifecycle the three tier seams share, around an optional fleet.

    Base of ``Transport``, ``DispatchBackend`` and ``MergeBackend``.
    ``_fleet`` stays ``None`` while the tier lives in the coordinator's
    interpreter; the ``Fabric*`` subclasses set it and add role logic only.
    """

    backend_name = "abstract"
    _fleet: Optional[Fleet] = None
    _epoch = 0

    def barrier(self) -> int:
        """Fence every endpoint with a new :class:`AdjustBarrier` epoch."""
        if self._fleet is not None:
            return self._fleet.barrier()
        # In process every call is synchronous: whatever was shipped is
        # already applied, so the fence reduces to bumping the epoch.
        self._epoch += 1
        return self._epoch

    def observe(self) -> Dict[int, Any]:
        """One read-only ``Observation`` per endpoint — observing never
        touches the counters reports derive from — keyed by ascending id so
        no report depends on reply order; in process, built from live state."""
        from .telemetry import Observe  # telemetry -> profiling -> this module

        assert self._fleet is not None, "in-process tiers observe live state"
        replies = self._fleet.broadcast(Observe())
        return {endpoint_id: replies[endpoint_id] for endpoint_id in sorted(replies)}

    def wire_stats(self) -> Dict[int, WireStats]:
        """Coordinator-side channel traffic per endpoint; empty in process."""
        return self._fleet.wire_stats() if self._fleet is not None else {}

    def install_fault_plan(self, faults: Sequence[FaultSpec]) -> None:
        """Arm injected faults on the fleet's send path; none in process."""
        if self._fleet is not None:
            self._fleet.install_fault_plan(faults)

    def close(self) -> None:
        """Release backend resources (shuts the fleet's endpoints down)."""
        if self._fleet is not None:
            self._fleet.close()


# ----------------------------------------------------------------------
# Local deployment: one OS process per endpoint
# ----------------------------------------------------------------------
def _process_host_main(
    role: str, endpoint_id: int, init: Mapping[str, Any], channel_parts: Tuple[Any, ...]
) -> None:
    """Entry point of one spawned endpoint process."""
    if channel_parts[0] == "queue":
        channel: Channel = InboxChannel(channel_parts[1], channel_parts[2])
    else:
        channel = PipeChannel(channel_parts[1])
    host = resolve_role(role)(endpoint_id, init)
    serve_loop(host, endpoint_id, channel)
    channel.close()


def spawn_fleet(
    role: str,
    inits: Mapping[int, Mapping[str, Any]],
    *,
    label: str,
    queue_inbox: bool = False,
) -> Fleet:
    """One OS process per endpoint on this host (the multiprocess tier).

    ``queue_inbox`` endpoints receive through a multi-producer
    ``SimpleQueue`` (exposed via :meth:`Fleet.data_endpoints` so worker
    hosts can ship to them directly) and reply on a dedicated pipe;
    otherwise each endpoint is served over one duplex pipe.  Endpoint
    construction arguments are pickled to the child, so the fleet works
    under ``fork`` and ``spawn`` start methods alike.
    """
    context = multiprocessing.get_context()
    channels: Dict[int, Channel] = {}
    processes: Dict[int, Any] = {}
    data_endpoints: List[Any] = []
    fleet = Fleet(
        label,
        channels,
        processes=processes,
        data_endpoints=data_endpoints if queue_inbox else None,
        backend_name="multiprocess",
    )
    try:
        for endpoint_id, init in inits.items():
            if queue_inbox:
                inbox = context.SimpleQueue()
                receive_end, send_end = context.Pipe(duplex=False)
                parts: Tuple[Any, ...] = ("queue", inbox, send_end)
                channel: Channel = OutboxChannel(inbox, receive_end)
                to_close = send_end
                data_endpoints.append(inbox)
            else:
                parent_end, child_end = context.Pipe()
                parts = ("pipe", child_end)
                channel = PipeChannel(parent_end)
                to_close = child_end
            process = context.Process(
                target=_process_host_main,
                args=(role, endpoint_id, init, parts),
                name="repro-%s-%d" % (role, endpoint_id),
                daemon=True,
            )
            process.start()
            to_close.close()
            channels[endpoint_id] = channel
            processes[endpoint_id] = process
    except Exception:
        fleet.close()
        raise
    return fleet


# ----------------------------------------------------------------------
# Network deployment: serve processes + TCP channels
# ----------------------------------------------------------------------
def parse_address(address: str) -> Tuple[str, int]:
    """Parse ``host:port`` (the manifest / ``--listen`` address form)."""
    host, separator, port = address.rpartition(":")
    if not separator or not host:
        raise ValueError("expected HOST:PORT, got %r" % address)
    return host, int(port)


@dataclass(frozen=True)
class ClusterManifest:
    """The host manifest a coordinator wires a multi-host cluster from.

    Each tier lists the ``(host, port)`` endpoints of its running
    ``repro serve`` processes; an empty tier means "spawn loopback serve
    processes locally" (the coordinator orchestrates itself).
    """

    workers: Tuple[Tuple[str, int], ...] = ()
    dispatchers: Tuple[Tuple[str, int], ...] = ()
    mergers: Tuple[Tuple[str, int], ...] = ()


def load_manifest(path: str) -> ClusterManifest:
    """Read a JSON host manifest::

        {"workers": ["10.0.0.2:7101", "10.0.0.3:7101"],
         "dispatchers": ["10.0.0.4:7201"],
         "mergers": ["10.0.0.5:7301"]}

    Tiers are optional; a missing tier falls back to coordinator-spawned
    loopback serve processes.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError("manifest %s: expected a JSON object at top level" % path)
    unknown = set(raw) - {"workers", "dispatchers", "mergers"}
    if unknown:
        raise ValueError(
            "manifest %s: unknown tier keys %s" % (path, ", ".join(sorted(unknown)))
        )

    def tier(name: str) -> Tuple[Tuple[str, int], ...]:
        return tuple(parse_address(entry) for entry in raw.get(name, ()))

    return ClusterManifest(
        workers=tier("workers"), dispatchers=tier("dispatchers"), mergers=tier("mergers")
    )


def assign_addresses(
    addresses: Sequence[Tuple[str, int]], endpoint_ids: Sequence[int], label: str
) -> Dict[int, Tuple[str, int]]:
    """Map endpoint ids onto manifest addresses, in order."""
    if len(addresses) < len(endpoint_ids):
        raise ValueError(
            "manifest lists %d %s endpoint(s) but the deployment needs %d"
            % (len(addresses), label, len(endpoint_ids))
        )
    return dict(zip(endpoint_ids, addresses))


def _serve_session(role: str, channel: Channel) -> bool:
    """Serve one coordinator session; returns True on orderly Shutdown."""
    try:
        handshake = channel.recv()
    except (EOFError, OSError):
        return False
    if not isinstance(handshake, Init) or handshake.role != role:
        try:
            channel.send(
                RemoteError(
                    "expected an Init handshake for role %r, got %r" % (role, handshake),
                    "",
                )
            )
        except Exception:
            pass
        return False
    try:
        host = resolve_role(role)(handshake.endpoint_id, handshake.init)
    except Exception as exc:
        try:
            channel.send(RemoteError(repr(exc), traceback.format_exc()))
        except Exception:
            pass
        return False
    channel.send(True)
    return serve_loop(host, handshake.endpoint_id, channel)


def serve(
    role: str,
    host: str,
    port: int,
    *,
    once: bool = False,
    announce: Optional[Callable[[str, int], None]] = None,
    on_session: Optional[Callable[[], None]] = None,
) -> None:
    """Run one endpoint as a network service (``repro serve``).

    Listens on ``host:port`` (port ``0`` binds an ephemeral port,
    reported through ``announce``) and serves coordinator sessions one
    at a time: each session starts with an :class:`Init` handshake that
    names the endpoint id and construction arguments, then runs the same
    :func:`serve_loop` a local process would.  A :class:`Shutdown` from
    the coordinator ends the service; a vanished coordinator only ends
    the session (the service accepts the next one), so long-running
    hosts in a manifest survive coordinator restarts.  ``once`` serves a
    single session regardless (used by coordinator-spawned loopback
    fleets, so closing the cluster reaps the serve process).
    ``on_session`` is called once per accepted coordinator session —
    the hook behind ``repro serve --telemetry-port``'s session counter.
    """
    resolve_role(role)  # fail fast on unknown roles, before binding
    listener = socket.create_server((host, port))
    try:
        bound_host, bound_port = listener.getsockname()[:2]
        if announce is not None:
            announce(bound_host, bound_port)
        while True:
            try:
                connection, _peer = listener.accept()
            except OSError:  # pragma: no cover - listener torn down
                break
            if on_session is not None:
                on_session()
            channel = SocketChannel(connection)
            shutdown = _serve_session(role, channel)
            channel.close()
            if shutdown or once:
                break
    finally:
        listener.close()


def _loopback_serve_main(role: str, report_connection: Any) -> None:
    """Entry point of one coordinator-spawned loopback serve process."""

    def report(host: str, port: int) -> None:
        report_connection.send((host, port))
        report_connection.close()

    serve(role, "127.0.0.1", 0, once=True, announce=report)


def connect_fleet(
    role: str,
    endpoints: Mapping[int, Tuple[str, int]],
    inits: Mapping[int, Mapping[str, Any]],
    *,
    label: str,
    processes: Optional[Dict[int, Any]] = None,
    connect_timeout: float = 10.0,
) -> Fleet:
    """Wire a fleet from running ``serve`` endpoints over TCP.

    Connects to each address, performs the :class:`Init` handshake and
    waits for the ready ack, so a misconfigured manifest fails fast with
    the remote construction error instead of on the first window.
    """
    channels: Dict[int, Channel] = {}
    fleet = Fleet(label, channels, processes=processes, backend_name="socket")
    try:
        for endpoint_id, address in endpoints.items():
            try:
                sock = socket.create_connection(address, timeout=connect_timeout)
            except OSError as exc:
                raise TransportError(
                    "cannot reach %s %d at %s:%d: %r"
                    % (label, endpoint_id, address[0], address[1], exc)
                ) from exc
            sock.settimeout(None)
            channels[endpoint_id] = SocketChannel(sock)
            fleet.send(endpoint_id, Init(role, endpoint_id, inits[endpoint_id]))
        # Handshakes were all submitted before any ack is awaited, so N
        # endpoints build their state concurrently.
        for endpoint_id in endpoints:
            ready = fleet.receive(endpoint_id)
            if ready is not True:
                raise TransportError(
                    "%s %d rejected the Init handshake: %r" % (label, endpoint_id, ready)
                )
    except Exception:
        fleet.close()
        raise
    return fleet


def spawn_socket_fleet(
    role: str,
    inits: Mapping[int, Mapping[str, Any]],
    *,
    label: str,
) -> Fleet:
    """Spawn loopback ``serve`` processes and connect to them over TCP.

    The no-orchestration fallback of the socket backend: when no
    manifest lists addresses for a tier, the coordinator hosts that
    tier itself as real network endpoints on ``127.0.0.1`` — the full
    socket path (framing, handshake, serve loop) without any external
    process manager, which is what the tests and CI run.
    """
    context = multiprocessing.get_context()
    processes: Dict[int, Any] = {}
    endpoints: Dict[int, Tuple[str, int]] = {}
    try:
        reports = {}
        for endpoint_id in inits:
            receive_end, send_end = context.Pipe(duplex=False)
            process = context.Process(
                target=_loopback_serve_main,
                args=(role, send_end),
                name="repro-serve-%s-%d" % (role, endpoint_id),
                daemon=True,
            )
            process.start()
            send_end.close()
            processes[endpoint_id] = process
            reports[endpoint_id] = receive_end
        for endpoint_id, receive_end in reports.items():
            if not receive_end.poll(30.0):
                raise TransportError(
                    "loopback %s %d never announced its port" % (label, endpoint_id)
                )
            endpoints[endpoint_id] = receive_end.recv()
            receive_end.close()
    except Exception:
        for process in processes.values():
            if process.is_alive():
                process.terminate()
            process.join(timeout=1.0)
        raise
    return connect_fleet(role, endpoints, inits, label=label, processes=processes)


def make_fleet(
    role: str,
    backend: str,
    inits: Mapping[int, Mapping[str, Any]],
    *,
    addresses: Optional[Sequence[Tuple[str, int]]] = None,
    label: str,
    queue_inbox: bool = False,
) -> Fleet:
    """THE backend → fleet switch under the three ``make_*`` factories:
    local processes for ``multiprocess``; for ``socket`` the manifest
    ``addresses`` of the tier's ``repro serve`` endpoints (one per endpoint
    id, in order) or, given none, loopback serve processes."""
    if backend == "multiprocess":
        return spawn_fleet(role, inits, label=label, queue_inbox=queue_inbox)
    if backend != "socket":
        raise ValueError("no fleet deployment for backend %r" % backend)
    if addresses:
        endpoints = assign_addresses(addresses, list(inits), role)
        return connect_fleet(role, endpoints, inits, label=label)
    return spawn_socket_fleet(role, inits, label=label)
