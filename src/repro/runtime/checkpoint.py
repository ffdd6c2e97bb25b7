"""Worker checkpoint/recovery state (the fault-tolerance subsystem).

A worker owns one partition of the ``(cell, posting keyword)`` assignment
space; until this module existed, a dead worker only had its replies
drained and its partition was simply lost.  Checkpointing reuses the
exact state the Section V migration protocol already serializes: at each
adjustment-barrier quiescent point (and on a standalone checkpoint
cadence), every worker exports its live
:class:`~repro.runtime.worker.QueryAssignment` list — the same unit
``extract_cells`` ships during a migration — and the coordinator records
the full per-worker map as a :class:`Checkpoint` in a
:class:`CheckpointStore` (in-memory ring, optionally mirrored to JSONL).

On endpoint death (pipe EOF, socket reset or
:class:`~repro.runtime.fabric.FrameTruncated`) the cluster's
:class:`Recovery` collaborator — the store, the update log and the
recovery events — runs :meth:`Recovery.recover_worker` and resumes, losing
at most the windows in flight (the one settling and the one shipped behind
it), which are accounted in :class:`RecoveryReport` (surfaced as
``RunReport.recovery``).

Wire footprint: none of its own.  The snapshot is the worker control
operation ``snapshot_assignments`` (one
:meth:`~repro.runtime.transport.Transport.call_all`); everything here is
coordinator-side state that never crosses a process boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.expression import BooleanExpression
from ..core.geometry import Rect
from ..core.objects import STSQuery, StreamTuple, TupleKind
from .fabric import TransportError
from .protocol import barrier_context, mutates_routing
from .transport import DeleteById, InsertPairs, RouteBatch
from .worker import QueryAssignment

if TYPE_CHECKING:
    from .cluster import Cluster

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "Recovery",
    "RecoveryEvent",
    "RecoveryReport",
    "decode_checkpoint",
    "encode_checkpoint",
]


@dataclass(frozen=True)
class Checkpoint:
    """One quiescent-point snapshot of every worker's partition.

    ``epoch`` is the store's own monotonic counter (not the fabric's
    barrier epoch, which differs across backends); ``tuples_processed``
    anchors the checkpoint in the stream so recovery can bound the loss
    window it reports.
    """

    epoch: int
    tuples_processed: int
    assignments: Mapping[int, Tuple[QueryAssignment, ...]]


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovered worker death, as accounted in ``RunReport.recovery``.

    ``lost_object_ids`` / ``lost_query_ids`` identify the in-flight
    window's tuples whose effects may be partially applied: the
    convergence contract is delivered-results equality with the
    single-process reference *after excluding results involving them*.
    """

    worker_id: int
    target_worker: int
    epoch: int
    queries_reinstalled: int
    updates_replayed: int
    cells_remapped: int
    lost_tuples: int
    lost_object_ids: Tuple[int, ...] = ()
    lost_query_ids: Tuple[int, ...] = ()
    during_adjustment: bool = False


@dataclass(frozen=True)
class RecoveryReport:
    """The checkpoint/recovery section of a run report.

    Present on every checkpointed run; ``events`` is empty when nothing
    died, so fault-free checkpointed runs stay byte-identical across
    backends.
    """

    checkpoints_taken: int = 0
    events: Tuple[RecoveryEvent, ...] = ()

    @property
    def lost_tuples(self) -> int:
        """Total in-flight tuples lost across all recoveries."""
        return sum(event.lost_tuples for event in self.events)


# ----------------------------------------------------------------------
# JSONL codec (field-level, so checkpoints survive process restarts
# without depending on pickle compatibility across versions)
# ----------------------------------------------------------------------
def _encode_query(query: STSQuery) -> Dict[str, Any]:
    return {
        "query_id": query.query_id,
        "clauses": [sorted(clause) for clause in query.expression.clauses],
        "region": [
            query.region.min_x,
            query.region.min_y,
            query.region.max_x,
            query.region.max_y,
        ],
        "subscriber_id": query.subscriber_id,
        "timestamp": query.timestamp,
    }


def _decode_query(raw: Mapping[str, Any]) -> STSQuery:
    min_x, min_y, max_x, max_y = raw["region"]
    return STSQuery(
        query_id=raw["query_id"],
        expression=BooleanExpression.from_clauses(raw["clauses"]),
        region=Rect(min_x, min_y, max_x, max_y),
        subscriber_id=raw["subscriber_id"],
        timestamp=raw["timestamp"],
    )


def _encode_assignment(assignment: QueryAssignment) -> List[Any]:
    return [
        _encode_query(assignment.query),
        [[coord[0], coord[1], key] for coord, key in assignment.pairs],
        assignment.moved,
    ]


def _decode_assignment(raw: Sequence[Any]) -> QueryAssignment:
    query_raw, pairs_raw, moved = raw
    return QueryAssignment(
        query=_decode_query(query_raw),
        pairs=tuple(((column, row), key) for column, row, key in pairs_raw),
        moved=moved,
    )


def encode_checkpoint(checkpoint: Checkpoint) -> str:
    """One checkpoint as one JSON line (the JSONL record format)."""
    return json.dumps(
        {
            "epoch": checkpoint.epoch,
            "tuples_processed": checkpoint.tuples_processed,
            "assignments": {
                str(worker_id): [
                    _encode_assignment(assignment)
                    for assignment in checkpoint.assignments[worker_id]
                ]
                for worker_id in sorted(checkpoint.assignments)
            },
        },
        separators=(",", ":"),
    )


def decode_checkpoint(line: str) -> Checkpoint:
    """Parse one JSONL record back into a :class:`Checkpoint`."""
    raw = json.loads(line)
    return Checkpoint(
        epoch=raw["epoch"],
        tuples_processed=raw["tuples_processed"],
        assignments={
            int(worker_id): tuple(_decode_assignment(entry) for entry in entries)
            for worker_id, entries in raw["assignments"].items()
        },
    )


class CheckpointStore:
    """Bounded in-memory checkpoint ring, optionally mirrored to JSONL.

    ``record`` assigns each checkpoint the store's next epoch and keeps
    the most recent ``keep`` snapshots in memory (recovery only ever
    needs the latest; the ring exists so tests can inspect history).
    With ``path`` set, every checkpoint is also appended as one JSON
    line — the durable form :meth:`load` reads back.
    """

    def __init__(self, path: Optional[str] = None, keep: int = 4) -> None:
        self.path = path
        self.keep = max(1, keep)
        self._checkpoints: List[Checkpoint] = []
        self._taken = 0
        if self.path is not None:
            with open(self.path, "w", encoding="utf-8"):
                pass  # a fresh run starts a fresh log

    @property
    def checkpoints_taken(self) -> int:
        """Total checkpoints recorded over the store's lifetime."""
        return self._taken

    def __len__(self) -> int:
        return len(self._checkpoints)

    def record(
        self,
        assignments: Mapping[int, Sequence[QueryAssignment]],
        tuples_processed: int,
    ) -> Checkpoint:
        """Record one quiescent-point snapshot; returns the checkpoint."""
        self._taken += 1
        checkpoint = Checkpoint(
            epoch=self._taken,
            tuples_processed=tuples_processed,
            assignments={
                worker_id: tuple(assignments[worker_id])
                for worker_id in sorted(assignments)
            },
        )
        self._checkpoints.append(checkpoint)
        if len(self._checkpoints) > self.keep:
            del self._checkpoints[: len(self._checkpoints) - self.keep]
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(encode_checkpoint(checkpoint) + "\n")
        return checkpoint

    def latest(self) -> Optional[Checkpoint]:
        """The most recent checkpoint, or ``None`` before the first one."""
        if not self._checkpoints:
            return None
        return self._checkpoints[-1]

    @classmethod
    def load(cls, path: str) -> List[Checkpoint]:
        """Read every checkpoint from a JSONL log (restore/inspection)."""
        checkpoints: List[Checkpoint] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    checkpoints.append(decode_checkpoint(line))
        return checkpoints


class Recovery:
    """Checkpoint/recovery state and protocol of one checkpointed cluster.

    Owns what only recovery reads: the :class:`CheckpointStore` of
    barrier-point snapshots, the update log — which worker received each
    query update since the last checkpoint, so recovery can replay the
    dead worker's share — and the events that feed ``RunReport.recovery``.
    A cluster has one iff ``checkpoint_every > 0``; it reaches the tiers
    through the cluster's own handles (``transport``, ``workers``,
    ``routing_index``, ``fence()``).
    """

    def __init__(self, cluster: "Cluster", path: Optional[str] = None) -> None:
        self.cluster = cluster
        self.store = CheckpointStore(path=path)
        self.events: List[RecoveryEvent] = []
        self._update_log: List[Tuple[int, Any]] = []

    def log_update(self, worker_id: int, entry: Any) -> None:
        """Note one update shipped to ``worker_id``: the
        :class:`~repro.runtime.transport.InsertPairs` op of an insertion
        (replayed via ``install_queries``, which extends an existing
        registration), the query id of a deletion."""
        self._update_log.append((worker_id, entry))

    def report(self) -> RecoveryReport:
        return RecoveryReport(
            checkpoints_taken=self.store.checkpoints_taken, events=tuple(self.events)
        )

    @barrier_context
    def checkpoint_now(self) -> None:
        """Snapshot every worker's query assignments at a quiescent point.

        Fences all three tiers exactly like an adjustment round (so every
        shipped window is applied and every in-flight result is merged),
        then records one :class:`Checkpoint` in the store and clears the
        update log — the log only ever spans checkpoint-to-checkpoint.
        """
        self.cluster.fence()
        self.take_checkpoint()

    def take_checkpoint(self) -> None:
        """Record the fleet's assignments (caller guarantees quiescence)."""
        cluster = self.cluster
        tuples = cluster.totals.tuples
        self.store.record(cluster.transport.snapshot_assignments(), tuples)
        self._update_log.clear()
        cluster._record_lifecycle("checkpoint", detail="tuples=%d" % tuples)

    def recover_from(self, exc: TransportError, window: Sequence[StreamTuple]) -> None:
        """Recover from one worker death, or re-raise anything else.

        The replay loop's guard: ``window`` is what was executing — empty
        at a barrier or while the next window fills.  What is lost is
        every window the death left unsettled (the cluster's window in
        flight, and the one whose settling failed) or, with none, the
        executing window; with nothing lost (a death at a barrier with no
        window in flight) the recovery itself rebalances the dead
        partition.  Only a *worker* endpoint death is recoverable, and
        only when a checkpoint exists to restore from and at least one
        worker survives; every other transport failure (merger/dispatcher
        death, remote exceptions, a second fault during recovery)
        propagates.  The lost windows' object/query ids are recorded on
        the :class:`RecoveryEvent` so tests (and delivery accounting) can
        subtract exactly the lost in-flight work.  A fresh checkpoint is
        taken immediately after recovery — the restored assignment is the
        new baseline.
        """
        worker_id = exc.endpoint_id
        workers = self.cluster.workers
        if (
            self.store.latest() is None
            or not exc.died
            or exc.label != "worker"
            or worker_id is None
            or worker_id not in workers
            or len(workers) <= 1
        ):
            raise exc
        lost = [item for dropped in self.cluster._drop_in_flight() for item in dropped] or window
        objects = [item for item in lost if item.kind is TupleKind.OBJECT]
        updates = [item for item in lost if item.kind is not TupleKind.OBJECT]
        self.recover_worker(
            worker_id,
            lost_tuples=len(lost),
            lost_object_ids=tuple(item.payload.object_id for item in objects),
            lost_query_ids=tuple(item.payload.query_id for item in updates),
            during_adjustment=not lost,
        )
        self.take_checkpoint()

    @mutates_routing
    def recover_worker(
        self,
        worker_id: int,
        *,
        lost_tuples: int = 0,
        lost_object_ids: Tuple[int, ...] = (),
        lost_query_ids: Tuple[int, ...] = (),
        during_adjustment: bool = False,
    ) -> Optional[RecoveryEvent]:
        """Re-install a dead worker's partition onto a survivor.

        The recovery protocol: discard the dead endpoint (fencing and
        re-aligning the survivors via the fleet's resync barrier),
        re-install the worker's checkpointed query assignments onto the
        lowest-id survivor through the migration machinery
        (:meth:`WorkerNode.install_queries` extends registrations, so a
        query split across the dead worker and the target merges its
        postings), replay the update log entries addressed to the dead
        worker since that checkpoint, and point every routing cell the
        dead worker owned — H1 defaults, text-split term owners and H2
        posting owners alike — and its slot of the fallback table at the
        target.  Idempotent: recovering an
        already-recovered (or never-known) worker returns ``None``.
        Without a survivor nothing is discarded: the worker stays
        registered and the call raises.
        """
        cluster = self.cluster
        checkpoint = self.store.latest()
        if checkpoint is None:
            raise ValueError("no checkpoint to recover from")
        if worker_id not in cluster.workers:
            return None
        survivors = sorted(w for w in cluster.workers if w != worker_id)
        if not survivors:
            raise TransportError("no surviving workers to recover onto")
        cluster._record_lifecycle(
            "endpoint_death",
            tier="worker",
            endpoint_id=worker_id,
            detail="lost_tuples=%d" % lost_tuples,
        )
        cluster.transport.discard_worker(worker_id)
        target = survivors[0]
        target_worker = cluster.workers[target]
        assignments = list(checkpoint.assignments.get(worker_id, ()))
        reinstalled = target_worker.install_queries(assignments) if assignments else 0
        # Replay the dead worker's post-checkpoint updates in stream
        # order, re-keying them to the target (so a later recovery of the
        # *target* replays them again).
        replayed = 0
        new_log: List[Tuple[int, Any]] = []
        for owner, entry in self._update_log:
            if owner != worker_id:
                new_log.append((owner, entry))
                continue
            replayed += 1
            if isinstance(entry, InsertPairs):
                target_worker.install_queries(
                    [QueryAssignment(entry.query, tuple(entry.pairs), True)]
                )
            else:
                cluster.transport.exchange({target: RouteBatch((DeleteById(entry),))})
            new_log.append((target, entry))
        self._update_log = new_log
        # Routing remap: every cell that still names the dead worker —
        # as H1 default, term owner or H2 posting owner — moves to the
        # target wholesale.
        routing = cluster.routing_index
        coords = [
            coord for coord, cell in routing.cells().items() if worker_id in cell.workers()
        ]
        routing.migrate_cells(coords, worker_id, target)
        routing.replace_fallback_worker(worker_id, target)
        cluster.invalidate_routing_caches()
        event = RecoveryEvent(
            worker_id=worker_id,
            target_worker=target,
            epoch=checkpoint.epoch,
            queries_reinstalled=reinstalled,
            updates_replayed=replayed,
            cells_remapped=len(coords),
            lost_tuples=lost_tuples,
            lost_object_ids=lost_object_ids,
            lost_query_ids=lost_query_ids,
            during_adjustment=during_adjustment,
        )
        self.events.append(event)
        cluster._record_lifecycle(
            "recovery",
            tier="worker",
            endpoint_id=worker_id,
            epoch=checkpoint.epoch,
            detail="worker %d -> %d: %d queries reinstalled, %d updates replayed, "
            "%d cells remapped"
            % (worker_id, target, reinstalled, replayed, len(coords)),
        )
        return event
