"""Span tracer for the traced run: timing wrappers around public entry points.

The wrappers are installed *from here*, at class/module level, around the
calls into each layer (``TARGETS``); nothing under ``src/`` knows about
them.  Each call records one span - name, start, end, parent - into
in-memory arrays: per-name ``count`` / ``total`` / ``self`` / ``max``
aggregates plus a bounded raw sample that is written to
``results/<workload>.spans.jsonl`` when the run ends.  A stack gives the
parent; the replay is the root.  Self time is a span's duration minus its
children's, so the self times of all spans sum to the root exactly.
``total`` counts a re-entrant same-name nest once (``GI2Index.insert``
calling ``insert_pairs``).

End-to-end metrics are never taken with the wrappers installed.  Remote
worker processes are not traced (forked children uninstall the wrappers
first); their cost appears as the coordinator's wait in ``fabric.wait``.
"""

from __future__ import annotations

import functools
import json
import pickle
from array import array
from multiprocessing.reduction import ForkingPickler
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.adjustment import LocalLoadAdjuster
from repro.indexes.gi2 import GI2Index
from repro.indexes.gridt import GridTIndex
from repro.runtime import fabric
from repro.runtime.cluster import Cluster
from repro.runtime.dispatch import FabricDispatch, InProcessDispatch
from repro.runtime.merge import InProcessMerge
from repro.runtime.transport import FabricTransport, InProcessTransport
from repro.runtime.worker import WorkerNode

__all__ = ["ROOT", "TARGETS", "Tracer"]

ROOT = "replay"
#: Raw spans kept verbatim (the aggregates cover every span).
SAMPLE_LIMIT = 50_000

#: ``(owner, attribute, span name)`` - the public entry points of each layer.
TARGETS: List[Tuple[Any, str, str]] = [
    # The drivers' own loops (window slicing, pulling the feed, the
    # adjustment cadence) - ~5 % of a per-tuple replay.
    (Cluster, "run", "cluster.driver"),
    (Cluster, "run_batched", "cluster.driver"),
    (Cluster, "process_batch", "cluster.window"),
    (Cluster, "process", "cluster.window"),
    (Cluster, "report", "cluster.report"),
    (Cluster, "run_adjustment", "adjustment.round"),
    (LocalLoadAdjuster, "adjust", "adjustment.adjust"),
    (Cluster, "checkpoint_now", "checkpoint.snapshot"),
    # An adjustment round doubles as a checkpoint without passing through
    # checkpoint_now; the snapshot itself is the transport call below.
    (InProcessTransport, "snapshot_assignments", "checkpoint.snapshot"),
    (FabricTransport, "snapshot_assignments", "checkpoint.snapshot"),
    (InProcessTransport, "exchange", "transport.exchange"),
    (FabricTransport, "exchange", "transport.exchange"),
    (fabric, "dump_message", "fabric.dump"),
    (fabric, "load_message", "fabric.load"),
    (InProcessDispatch, "submit_window", "dispatch.route_window"),
    (InProcessDispatch, "collect_window", "dispatch.route_window"),
    (InProcessDispatch, "sync", "dispatch.sync"),
    (FabricDispatch, "submit_window", "dispatch.route_window"),
    (FabricDispatch, "collect_window", "dispatch.route_window"),
    (FabricDispatch, "sync", "dispatch.sync"),
    (WorkerNode, "handle_insertion", "worker.handle"),
    (WorkerNode, "handle_deletion", "worker.handle"),
    (WorkerNode, "handle_object", "worker.handle"),
    (WorkerNode, "handle_object_batch", "worker.handle"),
    (GI2Index, "match", "gi2.match"),
    (GI2Index, "match_batch", "gi2.match"),
    (GI2Index, "insert", "gi2.update"),
    (GI2Index, "insert_pairs", "gi2.update"),
    (GI2Index, "delete", "gi2.update"),
    (GI2Index, "compact", "gi2.update"),
    (GridTIndex, "route_object", "gridt.route"),
    (GridTIndex, "route_object_batch", "gridt.route"),
    (GridTIndex, "insertion_plan_apply", "gridt.update"),
    (GridTIndex, "apply_deletion_pairs", "gridt.update"),
    (GridTIndex, "route_insertion", "gridt.update"),
    (GridTIndex, "route_deletion", "gridt.update"),
    # The per-tuple engine (DispatcherNode.route) plans and applies an
    # update through these four instead of the fused pair above.
    (GridTIndex, "insertion_assignments", "gridt.update"),
    (GridTIndex, "posting_assignments", "gridt.update"),
    (GridTIndex, "apply_insertion", "gridt.update"),
    (GridTIndex, "apply_deletion", "gridt.update"),
    (InProcessMerge, "deliver", "merge.deliver"),
]


class Tracer:
    """Aggregating span recorder (see the module docstring)."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.count: List[int] = []
        self.total: List[float] = []
        self.self_time: List[float] = []
        self.longest: List[float] = []
        self._depth: List[int] = []
        #: Payload bytes seen by the fabric pickle spans.
        self.bytes: Dict[str, int] = {"fabric.dump": 0, "fabric.load": 0}
        # Raw sample, parallel arrays: name id, start, end, parent index.
        self._s_name = array("i")
        self._s_start = array("d")
        self._s_end = array("d")
        self._s_parent = array("i")
        # Stack frames: [children seconds, own index in the raw sample].
        self._stack: List[List[Any]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _name_id(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.longest.append(0.0)
            self._depth.append(0)
        return name_id

    def _open(self, name_id: int) -> List[Any]:
        stack = self._stack
        index = -1
        if len(self._s_name) < SAMPLE_LIMIT:
            index = len(self._s_name)
            self._s_name.append(name_id)
            self._s_start.append(0.0)
            self._s_end.append(0.0)
            self._s_parent.append(stack[-1][1] if stack else -1)
        frame = [0.0, index]
        stack.append(frame)
        self._depth[name_id] += 1
        return frame

    def _close(self, name_id: int, frame: List[Any], start: float, end: float) -> None:
        self._stack.pop()
        took = end - start
        if self._stack:
            self._stack[-1][0] += took
        self.count[name_id] += 1
        self.self_time[name_id] += took - frame[0]
        if took > self.longest[name_id]:
            self.longest[name_id] = took
        self._depth[name_id] -= 1
        if not self._depth[name_id]:
            self.total[name_id] += took
        index = frame[1]
        if index >= 0:
            self._s_start[index] = start
            self._s_end[index] = end

    def span(self, name: str, call: Callable[[], Any]) -> Any:
        """Run ``call`` as one span (used for the root and the pipe codec)."""
        name_id = self._name_id(name)
        frame = self._open(name_id)
        start = perf_counter()
        try:
            return call()
        finally:
            self._close(name_id, frame, start, perf_counter())

    def trace_root(self, call: Callable[[], Any]) -> Any:
        """Run ``call`` as the root span with the wrappers switched on."""
        self.active = True
        try:
            return self.span(ROOT, call)
        finally:
            self.active = False

    # -- wrappers ------------------------------------------------------
    def _wrap(self, owner: Any, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            frame = tracer._open(name_id)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(name_id, frame, start, perf_counter())

        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def _wrap_pipe_channel(self) -> None:
        """Split ``PipeChannel.send/recv`` into codec and wire spans.

        ``Connection.send(obj)`` is ``send_bytes(ForkingPickler.dumps(obj))``
        and ``recv()`` is ``loads(recv_bytes())``; doing the two halves here
        lets the pickle cost be told apart from the wait for the worker.
        """
        tracer = self
        channel = fabric.PipeChannel
        send, recv = channel.send, channel.recv

        def traced_send(self: Any, message: Any) -> None:
            if not tracer.active:
                return send(self, message)
            payload = tracer.span("fabric.dump", lambda: ForkingPickler.dumps(message))
            tracer.bytes["fabric.dump"] += len(payload)
            tracer.span("fabric.write", lambda: self._connection.send_bytes(payload))

        def traced_recv(self: Any) -> Any:
            if not tracer.active:
                return recv(self)
            payload = tracer.span("fabric.wait", self._connection.recv_bytes)
            tracer.bytes["fabric.load"] += len(payload)
            return tracer.span("fabric.load", lambda: pickle.loads(payload))

        self._undo.append((channel, "send", send))
        self._undo.append((channel, "recv", recv))
        channel.send = traced_send
        channel.recv = traced_recv

    def install(self) -> None:
        for owner, attribute, name in TARGETS:
            self._wrap(owner, attribute, name)
        self._wrap_pipe_channel()
        # Forked endpoint processes inherit the patched classes; make them
        # drop the wrappers before serving, so workers run untraced code.
        host_main = fabric._process_host_main

        def untraced_host_main(*args: Any) -> None:
            self.uninstall()
            host_main(*args)

        self._undo.append((fabric, "_process_host_main", host_main))
        fabric._process_host_main = untraced_host_main

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- read-out ------------------------------------------------------
    def aggregates(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "count": self.count[i],
                "total_s": self.total[i],
                "self_s": self.self_time[i],
                "max_s": self.longest[i],
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """One JSON line of aggregates, then the raw sample span by span."""
        with open(path, "w") as out:
            header = {**header, "aggregates": self.aggregates(), "sampled": len(self._s_name)}
            out.write(json.dumps(header, sort_keys=True) + "\n")
            names = self.names
            for i, name_id in enumerate(self._s_name):
                out.write(
                    '{"id": %d, "name": "%s", "start": %.9f, "end": %.9f, "parent": %d}\n'
                    % (i, names[name_id], self._s_start[i], self._s_end[i], self._s_parent[i])
                )
