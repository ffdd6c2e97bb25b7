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
import pickle
import random
import socket
import threading

import pytest

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
from repro.core.costmodel import CostModel
from repro.core.geometry import Rect
from repro.runtime.dispatch import make_dispatch
from repro.runtime.fabric import (
    Fleet,
    Init,
    RemoteError,
    SocketChannel,
    TierBackend,
    assign_addresses,
    dump_message,
    load_message,
    pack_frame,
    read_frame,
)

from repro.runtime.merge import make_merge
from repro.runtime.transport import make_transport

from test_transport import make_workload, require_loopback


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


class TestManifest:
    def test_parse_address(self):
        assert parse_address("10.0.0.2:7101") == ("10.0.0.2", 7101)
        assert parse_address("localhost:0") == ("localhost", 0)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("7101")
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address(":7101")

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
        cost_model=CostModel(), term_statistics=None,
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
            assert (tier._fleet is None) == (backend == "inprocess")
            for name in (
                "barrier", "wire_stats", "install_fault_plan", "__enter__", "__exit__", "__del__"
            ):  # defined once, for all three seams
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
            children = list(fleet.processes.values()) if fleet is not None else []
            assert len(children) == (0 if backend == "inprocess" else 2)
            assert all(child.is_alive() for child in children)
        assert fleet is None or fleet._closed
        assert all(not child.is_alive() for child in children)
        assert multiprocessing.active_children() == []
