"""End-to-end tests of ``repro serve`` and manifest-wired clusters.

The multi-host acceptance check: every tier of the cluster hosted by
**real** ``python -m repro serve`` processes — started exactly as an
operator would start them on separate machines, reached over loopback
TCP through a host-manifest file — must reproduce the single-process
reference :class:`~repro.runtime.metrics.RunReport` byte for byte.
"""

import json
import subprocess
import sys

import pytest

from repro.cli import main
from repro.runtime import Cluster, ClusterConfig

from harness import make_workload, require_loopback


class ServeProcess:
    """One ``python -m repro serve`` subprocess and its announced address."""

    def __init__(self, role):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--role", role,
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        line = self.process.stdout.readline()
        assert line.startswith("serving role=%s on " % role), line
        host, _, port = line.rsplit(" ", 1)[-1].strip().rpartition(":")
        self.address = "%s:%s" % (host, port)

    def stop(self):
        if self.process.poll() is None:
            self.process.terminate()
        self.process.wait(timeout=10.0)


@pytest.fixture
def serve_cluster(tmp_path):
    """2 workers + 2 dispatchers + 2 mergers as real serve processes."""
    require_loopback()
    fleet = {"workers": [], "dispatchers": [], "mergers": []}
    spawned = []
    try:
        for tier, role, count in [
            ("workers", "worker", 2),
            ("dispatchers", "dispatcher", 2),
            ("mergers", "merger", 2),
        ]:
            for _ in range(count):
                endpoint = ServeProcess(role)
                spawned.append(endpoint)
                fleet[tier].append(endpoint.address)
        manifest_path = tmp_path / "cluster.json"
        manifest_path.write_text(json.dumps(fleet))
        yield str(manifest_path), spawned
    finally:
        for endpoint in spawned:
            endpoint.stop()


class TestManifestCluster:
    def test_manifest_cluster_reproduces_reference_report(self, serve_cluster):
        """Full socket deployment from a manifest == in-process reference."""
        manifest_path, spawned = serve_cluster
        plan, tuples = make_workload(num_objects=400, workers=2)

        reference_config = ClusterConfig(num_dispatchers=2, num_workers=2,
                                         num_mergers=2)
        with Cluster(plan, reference_config) as cluster:
            reference = cluster.run_batched(tuples, batch_size=64)

        socket_config = ClusterConfig(
            num_dispatchers=2, num_workers=2, num_mergers=2,
            backend="socket", dispatch_backend="socket",
            merger_backend="socket", manifest=manifest_path,
        )
        with Cluster(plan, socket_config) as cluster:
            assert cluster.transport.backend_name == "socket"
            assert cluster._dispatch.backend_name == "socket"
            assert cluster._merge.backend_name == "socket"
            # The manifest fleet is remote-only: no coordinator-spawned
            # processes back these endpoints.
            assert not cluster.transport._fleet.processes
            report = cluster.run_batched(tuples, batch_size=64)

        assert report == reference
        # Cluster.close() sent Shutdown to every endpoint, which ends the
        # serve processes like an operator's drain would.
        for endpoint in spawned:
            assert endpoint.process.wait(timeout=10.0) == 0

    def test_manifest_too_small_fails_fast(self, tmp_path):
        require_loopback()
        endpoint = ServeProcess("worker")
        try:
            manifest_path = tmp_path / "cluster.json"
            manifest_path.write_text(json.dumps({"workers": [endpoint.address]}))
            plan, _ = make_workload(num_objects=0, workers=2)
            config = ClusterConfig(num_dispatchers=1, num_workers=2,
                                   backend="socket", manifest=str(manifest_path))
            with pytest.raises(ValueError, match="1 worker endpoint"):
                Cluster(plan, config)
        finally:
            endpoint.stop()


class TestServeCLI:
    def test_cli_run_against_manifest(self, serve_cluster, capsys):
        """The operator path: ``repro run --backend socket --cluster ...``."""
        manifest_path, _ = serve_cluster
        exit_code = main([
            "run", "--partitioner", "hybrid", "--mu", "300", "--objects", "300",
            "--workers", "2", "--dispatchers", "2", "--batch-size", "64",
            "--backend", "socket", "--dispatch-backend", "socket",
            "--merger-backend", "socket", "--cluster", manifest_path,
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "tuples processed" in captured.out

    def test_serve_rejects_unknown_role(self):
        process = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--role", "stoker",
             "--listen", "127.0.0.1:0"],
            capture_output=True, text=True,
        )
        assert process.returncode == 2
        assert "invalid choice" in process.stderr

    def test_serve_survives_coordinator_restart(self):
        """Without --once, a serve endpoint accepts the next session."""
        require_loopback()
        from repro.runtime.fabric import connect_fleet

        endpoint = ServeProcess("worker")
        try:
            host, _, port = endpoint.address.rpartition(":")
            address = (host, int(port))
            plan, _ = make_workload(num_objects=0, workers=1)
            init = {"worker": {"bounds": plan.bounds}}
            for _session in range(2):
                fleet = connect_fleet(
                    "worker", {0: address}, {0: init}, label="worker")
                try:
                    assert fleet.barrier() == 1
                finally:
                    # Drop the connection *without* Shutdown: the serve
                    # process must survive and accept the next session.
                    for channel in fleet._channels.values():
                        channel.close()
            fleet = connect_fleet("worker", {0: address}, {0: init}, label="worker")
            fleet.close()
            assert endpoint.process.wait(timeout=10.0) == 0
        finally:
            endpoint.stop()
