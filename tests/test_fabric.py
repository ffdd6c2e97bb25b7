"""Unit tests for the role-based runtime fabric.

Two layers under test.  First the framing codec that every
:class:`~repro.runtime.fabric.SocketChannel` speaks — round trips under
short reads, zero-length payloads, >64 KiB messages, pickle protocol 5
out-of-band buffers, and the two distinct death modes (clean
:class:`EOFError` between frames, :class:`FrameTruncated` inside one).
Second the lifecycle the fabric owes the coordinator: host manifests,
the ``serve`` handshake, and :meth:`Cluster.close` staying idempotent
and exception-safe even when a backend process is killed mid-run.
"""

import json
import multiprocessing
import os
import pickle
import random
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.runtime import (
    Cluster,
    ClusterConfig,
    ClusterManifest,
    FrameTruncated,
    TransportError,
    load_manifest,
    parse_address,
    serve,
)
from repro.core.geometry import Rect
from repro.runtime.dispatch import make_dispatch
from repro.runtime.fabric import (
    ENDPOINT_NICENESS,
    FaultPlan,
    FaultSpec,
    Fleet,
    Init,
    RemoteError,
    RoleHost,
    SocketChannel,
    Submitted,
    TierBackend,
    assign_addresses,
    dump_message,
    load_message,
    make_fleet,
    pack_frame,
    parse_fault_plan,
    read_frame,
    register_role,
)

from repro.runtime.merge import make_merge
from repro.runtime.telemetry import Observe
from repro.runtime.transport import RouteBatch, make_transport

from harness import make_workload, require_loopback


def chunked_reader(data, chunk_size):
    """A short-read source: never returns more than ``chunk_size`` bytes."""
    view = memoryview(data)
    position = 0

    def read(size):
        nonlocal position
        take = min(size, chunk_size, len(view) - position)
        result = bytes(view[position:position + take])
        position += take
        return result

    return read


def roundtrip(message, chunk_size=8192):
    return load_message(chunked_reader(dump_message(message), chunk_size))


class TestFramingCodec:
    def test_roundtrip_plain_message(self):
        message = {"kind": "probe", "ids": list(range(40)), "nested": (1, "two", 3.0)}
        assert roundtrip(message) == message

    def test_roundtrip_zero_length_payload(self):
        payload, buffers = read_frame(chunked_reader(pack_frame(b""), 3))
        assert payload == b""
        assert buffers == []

    def test_roundtrip_empty_containers(self):
        assert roundtrip(()) == ()
        assert roundtrip(b"") == b""
        assert roundtrip(None) is None

    def test_roundtrip_large_message(self):
        """Messages beyond 64 KiB cross the frame unharmed."""
        message = {"blob": "x" * (1 << 17), "tail": list(range(1000))}
        assert roundtrip(message, chunk_size=4096) == message

    def test_roundtrip_out_of_band_buffers(self):
        """PickleBuffers ship out-of-band at protocol 5 and come back equal."""
        dense = bytearray(range(256)) * 512
        message = {"dense": pickle.PickleBuffer(dense), "tag": 7}
        frame = dump_message(message)
        # The codec really did take the out-of-band path: the raw bytes
        # live after the pickle payload, not inside it.
        payload, buffers = read_frame(chunked_reader(frame, 1 << 16))
        assert len(buffers) >= 1
        assert len(payload) < len(dense)
        restored = pickle.loads(payload, buffers=buffers)
        assert bytes(restored["dense"]) == bytes(dense)
        assert restored["tag"] == 7

    @pytest.mark.parametrize("chunk_size", [1, 2, 7, 64, 100_000])
    def test_partial_reads_reassemble(self, chunk_size):
        """The codec never trusts one read() to return everything."""
        message = {"ids": list(range(500)), "raw": bytearray(b"abc" * 5000)}
        assert roundtrip(message, chunk_size) == message

    def test_clean_eof_between_frames(self):
        """A stream closed at a frame boundary is an EOFError, not corruption."""
        with pytest.raises(EOFError):
            read_frame(chunked_reader(b"", 1))

    def test_truncated_frame_raises_frame_truncated(self):
        """A stream dying inside a frame is FrameTruncated at every cut."""
        frame = dump_message({"ids": list(range(100)), "raw": bytearray(1000)})
        seen = 0
        for cut in range(1, len(frame), 97):
            with pytest.raises(FrameTruncated):
                read_frame(chunked_reader(frame[:cut], 13))
            seen += 1
        assert seen > 5

    def test_frame_truncated_is_oserror(self):
        """Consumers catching (EOFError, OSError) treat truncation as death."""
        assert issubclass(FrameTruncated, OSError)

    def test_corrupt_buffer_count_rejected(self):
        """A giant buffer count is corruption, not an allocation request."""
        import struct

        bogus = struct.pack("<I", (1 << 20) + 1) + b"\x00" * 64
        with pytest.raises(FrameTruncated, match="corrupt frame header"):
            read_frame(chunked_reader(bogus, 64))

    def test_randomised_roundtrips(self):
        """Seeded fuzz: random payload/buffer shapes, random read chunking."""
        rng = random.Random(20260808)
        for _ in range(25):
            message = {
                "payload": rng.randbytes(rng.randrange(0, 1 << 12)),
                "buffers": [
                    bytearray(rng.randbytes(rng.randrange(0, 1 << 14)))
                    for _ in range(rng.randrange(0, 4))
                ],
                "scalars": [rng.random() for _ in range(rng.randrange(0, 20))],
            }
            chunk_size = rng.choice([1, 3, 17, 256, 1 << 15])
            assert roundtrip(message, chunk_size) == message


class TestFaultSpec:
    """A fault that could never fire is refused when the plan is parsed,
    not at the first send (or never)."""

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"action": "crash"}, "unknown fault action 'crash'"),
            ({"action": "kill", "role": "wroker"}, "unknown fault role 'wroker'"),
            ({"action": "kill", "endpoint_id": -1}, "endpoint_id"),
            ({"action": "kill", "endpoint_id": 1.5}, "endpoint_id"),
            ({"action": "drop", "after_sends": -2}, "after_sends"),
            ({"action": "drop", "after_sends": True}, "after_sends"),
            ({"action": "drop", "message_type": 3}, "message_type"),
            # A message no fleet of the role ever counts: a misspelling,
            # another role's request, the exempt Observe, a removed action.
            ({"action": "kill", "message_type": "RouteBach"}, "'RouteBach' is never counted"),
            ({"action": "kill", "role": "merger", "message_type": "RouteBatch"},
             "'RouteBatch' is never counted on a merger"),
            ({"action": "drop", "message_type": "Observe"}, "'Observe' is never counted"),
            ({"action": "delay"}, "unknown fault action 'delay'"),
        ],
    )
    def test_invalid_spec_raises(self, fields, message):
        with pytest.raises(ValueError, match=message):
            FaultSpec(**fields)
        with pytest.raises(ValueError, match=message):
            parse_fault_plan(json.dumps([fields]))

    def test_valid_specs_parse(self):
        plan = parse_fault_plan(json.dumps([
            {"action": action, "role": role, "endpoint_id": 1, "after_sends": 2}
            for action in ("kill", "drop", "truncate")
            for role in ("worker", "dispatcher", "merger")
        ] + [
            {"action": "drop", "role": role, "message_type": message_type}
            for role, message_type in (
                ("worker", "RouteBatch"), ("worker", "WorkerCall"),
                ("dispatcher", "RouteWindow"), ("dispatcher", "SyncRoutingIndex"),
                ("merger", "DeliverResults"), ("merger", "MergerReset"),
                ("merger", "SinkDrain"), ("merger", "AdjustBarrier"),
            )
        ]))
        assert len(plan.faults) == 17
        assert plan.for_role("merger")[0] == FaultSpec("kill", "merger", 1, 2)

    def test_zero_counts_are_valid(self):
        """The bounds are inclusive: endpoint 0, the first send."""
        plan = parse_fault_plan('[{"action": "kill", "endpoint_id": 0, "after_sends": 0}]')
        assert plan.faults == (FaultSpec("kill"),)

    @pytest.mark.parametrize("role, size", [
        ("worker", "num_workers"), ("dispatcher", "num_dispatchers"), ("merger", "num_mergers"),
    ])
    def test_an_endpoint_outside_its_tier_is_refused(self, role, size):
        """The last endpoint of a tier deploys; the one past it never exists."""
        def config(endpoint_id):
            plan = FaultPlan((FaultSpec("kill", role, endpoint_id),))
            return ClusterConfig(fault_plan=plan, **{size: 3})

        assert config(2).fault_plan.faults[0].endpoint_id == 2
        with pytest.raises(ValueError, match="endpoint_id 3 is outside the %s tier of 3" % role):
            config(3)


class TestManifest:
    def test_parse_address(self):
        assert parse_address("10.0.0.2:7101") == ("10.0.0.2", 7101)
        assert parse_address("localhost:0") == ("localhost", 0)
        assert parse_address("localhost:65535") == ("localhost", 65535)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("7101")
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address(":7101")

    @pytest.mark.parametrize(
        "address", ["127.0.0.1:70000", "127.0.0.1:65536", "127.0.0.1:-1", "127.0.0.1:abc",
                    "127.0.0.1:", "127.0.0.1: 80"],
    )
    def test_parse_address_refuses_bad_port(self, address):
        with pytest.raises(ValueError, match="0-65535.*%s" % re.escape(repr(address))):
            parse_address(address)

    def test_load_manifest_roundtrip(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps({
            "workers": ["10.0.0.2:7101", "10.0.0.3:7101"],
            "mergers": ["10.0.0.5:7301"],
        }))
        manifest = load_manifest(str(path))
        assert isinstance(manifest, ClusterManifest)
        assert manifest.workers == (("10.0.0.2", 7101), ("10.0.0.3", 7101))
        assert manifest.dispatchers == ()
        assert manifest.mergers == (("10.0.0.5", 7301),)

    def test_load_manifest_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(["10.0.0.2:7101"]))
        with pytest.raises(ValueError, match="JSON object"):
            load_manifest(str(path))

    def test_load_manifest_rejects_unknown_tiers(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"workerz": ["10.0.0.2:7101"]}))
        with pytest.raises(ValueError, match="unknown tier keys workerz"):
            load_manifest(str(path))

    def test_assign_addresses_validates_count(self):
        addresses = [("10.0.0.2", 7101)]
        with pytest.raises(ValueError, match="needs 2"):
            assign_addresses(addresses, [0, 1], "worker")
        assigned = assign_addresses(addresses, [0], "worker")
        assert assigned == {0: ("10.0.0.2", 7101)}


class TestServeHandshake:
    def test_wrong_role_handshake_rejected(self):
        """A serve endpoint refuses an Init naming a different role."""
        require_loopback()
        announced = []
        ready = threading.Event()

        def announce(host, port):
            announced.append((host, port))
            ready.set()

        thread = threading.Thread(
            target=serve, args=("worker", "127.0.0.1", 0),
            kwargs={"once": True, "announce": announce}, daemon=True,
        )
        thread.start()
        assert ready.wait(10.0)
        channel = SocketChannel(socket.create_connection(announced[0], timeout=10.0))
        try:
            channel.send(Init("merger", 0, {}))
            reply = channel.recv()
        finally:
            channel.close()
        thread.join(timeout=10.0)
        assert isinstance(reply, RemoteError)
        assert "expected an Init handshake for role 'worker'" in reply.message

    def test_unknown_role_fails_before_binding(self):
        with pytest.raises(ValueError, match="unknown role 'stoker'"):
            serve("stoker", "127.0.0.1", 0)


class TestSocketPeerDeath:
    def test_peer_dying_mid_frame_is_endpoint_death_not_a_hang(self):
        """Satellite regression: a socket peer that dies inside a reply
        frame surfaces as a structured endpoint death (``died=True``,
        caused by :class:`FrameTruncated`) on the bounded-wait receive
        path — never as a hang — and ``Fleet.close()`` afterwards still
        completes, reporting the endpoint in ``dead_endpoints``."""
        require_loopback()
        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()

        def peer():
            conn, _ = listener.accept()
            # Drain the request frame first — closing with unread inbound
            # data would RST the connection instead of truncating the reply.
            load_message(conn.recv)
            frame = dump_message({"reply": "never finishes"})
            conn.sendall(frame[: len(frame) // 2])
            conn.close()

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        channel = SocketChannel(socket.create_connection(address, timeout=10.0))
        fleet = Fleet("worker", {0: channel}, backend_name="socket")
        try:
            with pytest.raises(TransportError) as excinfo:
                fleet.request(0, {"ping": 1})
            error = excinfo.value
            assert error.died
            assert error.label == "worker"
            assert error.endpoint_id == 0
            assert isinstance(error.__cause__, FrameTruncated)
            assert 0 in fleet.dead_endpoints
        finally:
            fleet.close()
            thread.join(timeout=10.0)
            listener.close()
        # close() keeps (and never clears) the death record.
        assert 0 in fleet.dead_endpoints


class TestClusterCloseResilience:
    def test_close_survives_backend_killed_mid_run(self):
        """Satellite regression: a dead worker process fails the run with a
        TransportError, and ``Cluster.close()`` still completes, twice."""
        plan, tuples = make_workload(num_objects=200)
        config = ClusterConfig(num_dispatchers=1, num_workers=2,
                               backend="multiprocess")
        cluster = Cluster(plan, config)
        try:
            victim = cluster.transport._fleet.processes[0]
            victim.kill()
            victim.join(timeout=10.0)
            with pytest.raises(TransportError, match="worker 0 died"):
                cluster.run_batched(tuples, batch_size=64)
        finally:
            cluster.close()
            cluster.close()
        assert all(
            not process.is_alive()
            for process in cluster.transport._fleet.processes.values()
        )
        # Satellite: close() reports *which* endpoints were already dead.
        assert 0 in cluster.transport._fleet.dead_endpoints
        assert 1 not in cluster.transport._fleet.dead_endpoints

    def test_close_survives_killed_merger_shard(self):
        plan, _ = make_workload(num_objects=0)
        config = ClusterConfig(num_dispatchers=1, num_workers=2,
                               merger_backend="multiprocess")
        cluster = Cluster(plan, config)
        victim = cluster._merge._fleet.processes[1]
        victim.kill()
        victim.join(timeout=10.0)
        cluster.close()
        cluster.close()
        assert all(
            not process.is_alive()
            for process in cluster._merge._fleet.processes.values()
        )
        # Satellite: the dead shard (and only it) is reported by close().
        assert set(cluster._merge._fleet.dead_endpoints) == {1}

    def test_close_runs_every_backend_despite_errors(self, monkeypatch):
        """One failing ``close`` neither hides the error nor skips the rest."""
        plan, _ = make_workload(num_objects=0)
        config = ClusterConfig(num_dispatchers=1, num_workers=2,
                               merger_backend="multiprocess")
        cluster = Cluster(plan, config)
        merger_processes = list(cluster._merge._fleet.processes.values())
        monkeypatch.setattr(
            cluster.transport, "close",
            lambda: (_ for _ in ()).throw(RuntimeError("transport close blew up")),
        )
        with pytest.raises(RuntimeError, match="transport close blew up"):
            cluster.close()
        # The merger fleet was still shut down, and close stays idempotent.
        assert all(not process.is_alive() for process in merger_processes)
        cluster.close()


def _make_worker_tier(backend):
    return make_transport(
        backend, [0, 1], bounds=Rect(0.0, 0.0, 10.0, 10.0), granularity=4,
        term_statistics=None,
    )


TIER_FACTORIES = {
    "transport": _make_worker_tier,
    "dispatch": lambda backend: make_dispatch(backend, 2),
    "merge": lambda backend: make_merge(backend, 2),
}


@pytest.mark.parametrize("backend", ["inprocess", "multiprocess"])
@pytest.mark.parametrize("seam", sorted(TIER_FACTORIES))
class TestTierSurface:
    """The lifecycle every tier seam inherits from ``TierBackend`` — one
    definition, so one test over (seam x where the endpoints live)."""

    def test_shared_lifecycle(self, seam, backend):
        tier = TIER_FACTORIES[seam](backend)
        try:
            assert isinstance(tier, TierBackend)
            assert tier.backend_name == backend
            # Every tier holds a fleet; only the in-process one is not concurrent.
            assert tier._fleet.concurrent == (backend != "inprocess")
            shared = [
                "barrier", "wire_stats", "install_fault_plan", "close",
                "__enter__", "__exit__", "__del__",
            ]
            if seam != "dispatch":  # dispatch skips observing with a window in flight
                shared.append("observe")
            for name in shared:  # defined once, for all three seams and every fleet
                assert getattr(type(tier), name) is getattr(TierBackend, name), name

            observed = tier.observe()
            assert list(observed) == [0, 1]
            assert [o.endpoint_id for o in observed.values()] == [0, 1]
            assert tier.observe() == observed  # read-only

            assert [tier.barrier() for _ in range(3)] == [1, 2, 3]

            stats = tier.wire_stats()
            if backend == "inprocess":
                assert stats == {}
            else:
                assert sorted(stats) == [0, 1]
                assert all(entry.messages_sent > 0 for entry in stats.values())
            tier.install_fault_plan(())
            assert tier.observe() == observed
        finally:
            tier.close()
        tier.close()  # idempotent
        assert multiprocessing.active_children() == []

    def test_context_manager_closes(self, seam, backend):
        with TIER_FACTORIES[seam](backend) as tier:
            fleet = tier._fleet
            children = list(fleet.processes.values())
            assert len(children) == (0 if backend == "inprocess" else 2)
            assert all(child.is_alive() for child in children)
        assert fleet._closed
        assert all(not child.is_alive() for child in children)
        assert multiprocessing.active_children() == []


class TestSubmitReadyCollect:
    """``exchange`` split in two, with the readiness check between: the
    shape a window left in flight uses (``Cluster._settle``)."""

    def test_replies_and_a_death_between_submit_and_collect(self):
        with _make_worker_tier("multiprocess") as tier:
            fleet = tier._fleet
            submitted = fleet.submit({1: Observe(), 0: Observe()})
            assert submitted == Submitted([1, 0], None)
            deadline = time.monotonic() + 10.0
            while not fleet.ready(submitted):  # never blocks
                assert time.monotonic() < deadline
                time.sleep(0.001)
            replies = fleet.collect(*submitted)
            assert [(i, o.endpoint_id) for i, o in replies.items()] == [(1, 1), (0, 0)]

            # A closed channel reads as ready at once; collect drains the
            # survivor, then raises the structured death.
            submitted = fleet.submit({0: Observe(), 1: Observe()})
            fleet.kill_endpoint(1)
            assert fleet.ready(submitted)
            with pytest.raises(TransportError, match="worker 1 died") as raised:
                fleet.collect(*submitted)
            assert raised.value.died and raised.value.endpoint_id == 1
            assert fleet.request(0, Observe()).endpoint_id == 0  # no stale reply
        assert multiprocessing.active_children() == []

    def test_in_process_replies_are_ready_at_submit(self):
        """A direct call has replied by the time ``submit`` returns, so an
        in-process submission is ready at once and collects in its order."""
        with _make_worker_tier("inprocess") as tier:
            submitted = tier.submit({1: RouteBatch(()), 0: RouteBatch(())})
            assert submitted == Submitted([1, 0], None)
            assert tier.ready(submitted)
            assert list(tier.collect(submitted).items()) == [(1, []), (0, [])]
            assert tier._fleet.ready(tier._fleet.submit({0: Observe()}))
            assert tier._fleet.receive(0).endpoint_id == 0


#: The ``src`` directory the suite runs against (for the subprocess test).
SRC = str(Path(repro.__file__).resolve().parent.parent)


def _niceness(pid=0):
    return os.getpriority(os.PRIO_PROCESS, pid)


#: A 2-worker replay on one CPU: niced worker processes share the
#: coordinator's only core and must still run every window it ships.
ONE_CORE_REPLAY = """
import os, sys
sys.path.insert(0, %r)
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from harness import make_workload, run
plan, tuples = make_workload(workers=2)
reference, _ = run(plan, tuples, batch_size=256, workers=2)
report, _ = run(plan, tuples, backend="multiprocess", batch_size=256, workers=2)
assert report == reference, (report, reference)
print("identical", len(os.sched_getaffinity(0)))
""" % str(Path(__file__).parent)


#: The spawned deployments, one per spawn entry point and channel kind.
SPAWNED_TIERS = {
    "pipe": lambda: _make_worker_tier("multiprocess"),
    "queue-inbox": lambda: make_merge("multiprocess", 2),
    "socket": lambda: _make_worker_tier("socket"),
}


class TestEndpointPriority:
    """Spawned endpoints run ``ENDPOINT_NICENESS`` below the coordinator, so
    a woken worker does not preempt the coordinator's serial scan."""

    @pytest.mark.parametrize("kind", sorted(SPAWNED_TIERS))
    def test_spawned_endpoints_run_niced(self, kind):
        if kind == "socket":
            require_loopback()
        coordinator = _niceness()
        with SPAWNED_TIERS[kind]() as tier:
            assert sorted(tier.observe()) == [0, 1]  # one round trip: both started
            pids = [process.pid for process in tier._fleet.processes.values()]
            assert len(pids) == 2
            expected = min(19, coordinator + ENDPOINT_NICENESS)
            assert [_niceness(pid) for pid in pids] == [expected, expected]
            assert _niceness() == coordinator
        assert _niceness() == coordinator
        assert multiprocessing.active_children() == []

    def test_in_process_endpoints_leave_the_coordinator_alone(self):
        coordinator = _niceness()
        with _make_worker_tier("inprocess") as tier:
            tier.observe()
        assert _niceness() == coordinator

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity"
    )
    def test_niced_workers_cannot_starve_on_one_core(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        output = subprocess.run(
            [sys.executable, "-c", ONE_CORE_REPLAY], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout
        assert output.split() == ["identical", "1"]


class Note:
    """A fire-and-forget message of the recorder role."""


class RecorderHost(RoleHost):
    """A test role: logs and echoes each message, raises an exception
    message, and logs its close."""

    fire_and_forget = (Note,)

    def __init__(self, endpoint_id, init):
        self.endpoint_id = endpoint_id
        self.log = init["log"]

    def handle(self, message):
        self.log.append((self.endpoint_id, message))
        if isinstance(message, Exception):
            raise message
        return (self.endpoint_id, message)

    def close(self):
        self.log.append((self.endpoint_id, "closed"))


register_role("test-recorder", RecorderHost)


class TestLocalFleet:
    """The in-process deployment: role hosts called directly, in order."""

    def _fleet(self, endpoint_ids=(0, 1, 2)):
        log = []
        init = {"log": log}
        fleet = make_fleet(
            "test-recorder", "inprocess", {i: init for i in endpoint_ids}, label="recorder"
        )
        return fleet, log

    def test_replies_come_back_in_message_order(self):
        fleet, log = self._fleet()
        assert fleet.concurrent is False and fleet.backend_name == "inprocess"
        replies = fleet.exchange({2: "a", 0: "b"})
        assert list(replies.items()) == [(2, (2, "a")), (0, (0, "b"))]
        assert log == [(2, "a"), (0, "b")]
        assert fleet.broadcast("c") == {i: (i, "c") for i in (0, 1, 2)}
        fleet.send(1, "d")
        fleet.send(1, "e")
        assert fleet.collect([1]) == {1: (1, "d")}
        assert fleet.request(1, "f") == (1, "e")  # replies queue per endpoint
        assert fleet.receive(1) == (1, "f")
        assert [fleet.barrier() for _ in range(2)] == [1, 2]
        assert fleet.wire_stats() == {}

    def test_a_fire_and_forget_message_leaves_no_reply(self):
        fleet, log = self._fleet()
        fleet.send(0, Note())
        assert [message for _, message in log if isinstance(message, Note)]
        assert fleet.request(0, "next") == (0, "next")

    def test_a_host_exception_surfaces_as_raised(self):
        fleet, _ = self._fleet()
        for call in (
            lambda: fleet.request(1, ValueError("boom")),
            lambda: fleet.exchange({1: ValueError("boom")}),
            lambda: fleet.broadcast(ValueError("boom")),
        ):
            with pytest.raises(ValueError, match="boom") as raised:
                call()
            assert not isinstance(raised.value, TransportError)
        assert fleet.request(1, "after") == (1, "after")  # nothing desynced

    def test_a_failed_send_loop_leaves_no_stale_reply(self):
        fleet, _ = self._fleet()
        fleet.send(0, "queued")
        with pytest.raises(ValueError, match="boom"):
            fleet.send(1, ValueError("boom"))
        # The half-sent loop's replies are gone; an empty receive is a
        # TransportError, so Fleet.collect drains the rest before raising.
        with pytest.raises(TransportError, match="recorder 0 has no reply pending"):
            fleet.collect([0, 1])
        assert fleet.request(0, "next") == (0, "next")

    def test_discard_is_idempotent_and_recorded(self):
        fleet, _ = self._fleet()
        fleet.discard(1, "gone")
        fleet.discard(1, "again")
        fleet.resync()  # nothing to drain, and no epoch spent
        assert fleet.barrier() == 1
        assert fleet.endpoint_ids == [0, 2]
        assert fleet.dead_endpoints == {1: "gone"}
        assert fleet.broadcast("x") == {0: (0, "x"), 2: (2, "x")}

    def test_close_closes_each_host_once(self):
        fleet, log = self._fleet()
        fleet.install_fault_plan(())  # accepted and ignored
        fleet.close()
        fleet.close()
        assert [entry for entry in log if entry[1] == "closed"] == [
            (0, "closed"), (1, "closed"), (2, "closed")
        ]
