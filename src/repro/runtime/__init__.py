"""The simulated PS2Stream cluster runtime (paper Section III-B).

Substitute for the paper's Storm-on-EC2 deployment: dispatchers route the
tuple stream through the gridt index, workers match objects against their
GI2 indexes, mergers deduplicate results, and the cost model converts the
executed work into throughput, latency and memory reports.  The
dispatcher→worker→merger communication is an explicit typed-message
transport (:mod:`repro.runtime.transport`) layered on the role-based
runtime fabric (:mod:`repro.runtime.fabric`), with three backends: the
in-process reference, a multiprocess backend that hosts each worker in
its own OS process, and a socket backend that reaches ``repro serve``
endpoints over TCP (``ClusterConfig.backend`` / ``--backend`` on the
CLI).  Routing itself scales the same way through the sharded dispatch
stage (:mod:`repro.runtime.dispatch`, ``ClusterConfig.dispatch_backend``
/ ``--dispatch-backend``): each dispatcher shard routes its slice of the
stream on its own replica of the routing index, off the coordinator.
See docs/ARCHITECTURE.md for the dataflow walkthrough.
"""

from .checkpoint import (
    Checkpoint,
    CheckpointStore,
    RecoveryEvent,
    RecoveryReport,
    decode_checkpoint,
    encode_checkpoint,
)
from .cluster import Cluster
from .config import ClusterConfig
from .dispatch import (
    DISPATCH_BACKENDS,
    DispatchBackend,
    DispatchHost,
    DispatcherLedger,
    FabricDispatch,
    InProcessDispatch,
    make_dispatch,
)
from .fabric import (
    Channel,
    ClusterManifest,
    FaultPlan,
    FaultSpec,
    Fleet,
    FrameTruncated,
    RoleHost,
    load_manifest,
    parse_address,
    parse_fault_plan,
    register_role,
    resolve_role,
    serve,
    serve_loop,
)
from .merge import (
    FabricMerge,
    InProcessMerge,
    MERGE_BACKENDS,
    MergeBackend,
    MergeHost,
    SINK_KINDS,
    SinkSpec,
    SubscriberSink,
    build_sink,
    make_merge,
)
from .driver import PeriodSampleCollector
from .merger import MergerNode
from .migration import MigrationRecord
from .metrics import LatencyBuckets, LatencyTracker, RunReport, utilization_latency
from .profiling import (
    DedupProfile,
    MatchProfile,
    ProfileReport,
    ProfilingSpec,
    RouteProfile,
    StackSampler,
    profile_text,
)
from .telemetry import (
    GaugeSample,
    LifecycleEvent,
    Observation,
    SpanHop,
    TelemetryEvent,
    TelemetryHub,
    TelemetryServer,
    TelemetrySpec,
    TierTimeseries,
    WindowSpan,
    read_events,
    render_timeline,
)
from .transport import (
    FabricTransport,
    InProcessTransport,
    Transport,
    TransportError,
    TRANSPORT_BACKENDS,
    WorkerHost,
    make_transport,
)
from .worker import QueryAssignment, WorkerNode

__all__ = [
    "Channel",
    "Checkpoint",
    "CheckpointStore",
    "Cluster",
    "ClusterConfig",
    "ClusterManifest",
    "DISPATCH_BACKENDS",
    "DispatchBackend",
    "DispatchHost",
    "DispatcherLedger",
    "FabricDispatch",
    "FabricMerge",
    "FabricTransport",
    "FaultPlan",
    "FaultSpec",
    "Fleet",
    "FrameTruncated",
    "GaugeSample",
    "InProcessDispatch",
    "InProcessMerge",
    "InProcessTransport",
    "MERGE_BACKENDS",
    "MergeBackend",
    "MergeHost",
    "make_dispatch",
    "make_merge",
    "LatencyBuckets",
    "LatencyTracker",
    "LifecycleEvent",
    "MergerNode",
    "MigrationRecord",
    "Observation",
    "RoleHost",
    "SINK_KINDS",
    "SinkSpec",
    "SubscriberSink",
    "build_sink",
    "load_manifest",
    "parse_address",
    "parse_fault_plan",
    "register_role",
    "resolve_role",
    "serve",
    "serve_loop",
    "DedupProfile",
    "MatchProfile",
    "PeriodSampleCollector",
    "ProfileReport",
    "ProfilingSpec",
    "QueryAssignment",
    "RecoveryEvent",
    "RouteProfile",
    "StackSampler",
    "profile_text",
    "RecoveryReport",
    "RunReport",
    "SpanHop",
    "TelemetryEvent",
    "TelemetryHub",
    "TelemetryServer",
    "TelemetrySpec",
    "TierTimeseries",
    "Transport",
    "TransportError",
    "TRANSPORT_BACKENDS",
    "WindowSpan",
    "WorkerHost",
    "WorkerNode",
    "decode_checkpoint",
    "encode_checkpoint",
    "make_transport",
    "read_events",
    "render_timeline",
    "utilization_latency",
]
