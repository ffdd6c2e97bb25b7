"""The simulated PS2Stream cluster: dispatchers, workers and mergers.

The substitute for the paper's Storm-on-EC2 deployment: every tuple
executes *for real* while time is accounted through the Definition-1 cost
model — docs/ARCHITECTURE.md ("Execution engines", "Measurement model") is
the walkthrough.  This module holds what shares the coordinator's hot
state: construction, the dispatch-sync plumbing, the per-tuple driver
(:meth:`Cluster.process`), the window executor
(:meth:`Cluster._execute_window`) and ``close``.  The other concerns are
collaborators that take the cluster: the replay loop and the Section V
barrier (:mod:`.driver`), checkpoint/recovery (:class:`.checkpoint.Recovery`),
migration (:mod:`.migration`), reporting as pure functions of one
observation (:mod:`.metrics`) and the telemetry hub (:mod:`.telemetry`).
"""

from __future__ import annotations

from contextlib import ExitStack
from itertools import chain, cycle, islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.costmodel import LoadReport
from ..core.geometry import Rect
from ..core.objects import MatchResult, StreamTuple, TupleKind
from ..indexes.gi2 import CellStats
from ..indexes.grid import CellCoord
from ..indexes.gridt import GridTIndex, WorkerPlan
from ..partitioning.base import PartitionPlan
from ..workload.stream import iter_windows
from . import driver, metrics, migration
from .checkpoint import Recovery, RecoveryEvent
from .config import ClusterConfig
from .dispatch import (
    DispatchBackend,
    DispatcherLedger,
    RoutedWindow,
    make_dispatch,
    plan_update,
)
from .fabric import TierBackend, WireStats, gc_paused, load_manifest
from .merge import MergeBackend, make_merge
from .metrics import LatencyTracker, RunReport, RunTotals, TraceStore
from .profiling import ProfileReport, StackSampler
from .telemetry import Observation, Snapshot, TelemetryEvent, TelemetryHub, TierTimeseries
from .transport import (
    DeleteById,
    InsertPairs,
    MatchObjects,
    MatchResults,
    RouteBatch,
    Transport,
    WorkerOp,
    make_transport,
)
from .worker import QueryAssignment, WorkerNode

__all__ = ["Cluster"]


class _WindowRun:
    """One window's flush-side accumulators, a local of ``_execute_window``.

    Never cluster state: a window that aborts mid-scan cannot leak ops
    into the next.  ``ops`` is ``None`` where a segment executes at its
    own flush (in process); where an exchange is a round trip it collects
    each worker's ordered ops for the window's single exchange, and
    ``segments`` records for every flushed object run ``(positions,
    groups, {worker: index of the run's MatchObjects in ops[worker]})``.
    """

    def __init__(
        self, base: int, num_dispatchers: int, count: int, trace: bool, round_trip: bool
    ) -> None:
        self.base = base
        self.update_costs = [0.0] * num_dispatchers
        self.trace_costs: Optional[List[float]] = [0.0] * count if trace else None
        self.trace_workers: Optional[List[Optional[List[Tuple[int, float]]]]] = (
            [None] * count if trace else None
        )
        self.ops: Optional[Dict[int, List[WorkerOp]]] = {} if round_trip else None
        self.segments: List[Tuple[List[int], Dict[int, List[int]], Dict[int, int]]] = []


class Cluster:
    """A PS2Stream deployment over simulated processes."""

    def __init__(self, plan: PartitionPlan, config: Optional[ClusterConfig] = None) -> None:
        self.config = config if config is not None else ClusterConfig()
        self.plan = plan
        self.bounds: Rect = plan.bounds
        self.routing_index: GridTIndex = plan.to_gridt(self.config.granularity)
        # Every simulated dispatcher routes on the one routing structure
        # above (the memory report charges a full copy each, as in the
        # paper); what it owns is its Definition-1 cost ledger.
        self.dispatchers: List[DispatcherLedger] = [
            DispatcherLedger(index) for index in range(self.config.num_dispatchers)
        ]
        self._closed = False
        manifest = self.config.manifest
        if isinstance(manifest, str):
            manifest = load_manifest(manifest)
        self._sampler: Optional[StackSampler] = None
        # The two collaborators that open files come first: an unwritable
        # path must fail before any tier has spawned a process.
        # Checkpoint/recovery state (None disables both) ...
        self.recovery: Optional[Recovery] = (
            Recovery(self, self.config.checkpoint_path)
            if self.config.checkpoint_every > 0
            else None
        )
        # ... and runtime telemetry: a coordinator-side hub (bounded ring
        # + optional JSONL sink) fed by window spans, barrier-point gauge
        # drains and lifecycle events.  None (the default) keeps every
        # hot path on a single ``is None`` check.
        telemetry = self.config.telemetry
        self._telemetry: Optional[TelemetryHub] = (
            TelemetryHub(telemetry) if telemetry is not None else None
        )
        with ExitStack() as undo:  # a tier that fails to build closes the ones before it
            if self._telemetry is not None:
                undo.callback(self._telemetry.close)
            # The merge backend owns the merger tier; it is built before the
            # transport because the multiprocess worker hosts inherit the
            # shard inboxes at spawn (direct worker→merger result shipping).
            self._merge: MergeBackend = make_merge(
                self.config.merger_backend,
                self.config.num_mergers,
                sink=self.config.sink,
                dedup_window=self.config.merger_dedup_window,
                addresses=manifest.mergers if manifest else None,
            )
            undo.callback(self._merge.close)
            # The transport owns the worker fleet: in-process workers are real
            # WorkerNode objects, fabric workers are per-endpoint proxies.
            # Coordinator code only ever talks to them through the transport's
            # exchange()/observe() surface or through the handles in self.workers.
            self.transport: Transport = make_transport(
                self.config.backend,
                list(range(self.config.num_workers)),
                bounds=self.bounds,
                granularity=self.config.granularity,
                cost_model=self.config.cost_model,
                term_statistics=plan.statistics,
                merger_endpoints=self._merge.worker_endpoints(),
                addresses=manifest.workers if manifest else None,
            )
            undo.callback(self.transport.close)
            # Sharded dispatch: shard replicas route off the coordinator; the
            # routing version stamps every out-of-band H1/H2 mutation so
            # _ensure_dispatch_synced() knows when to re-ship a snapshot.
            self._routing_version = 0
            self._dispatch: Optional[DispatchBackend] = make_dispatch(
                self.config.dispatch_backend,
                self.config.num_dispatchers,
                addresses=manifest.dispatchers if manifest else None,
            )
            undo.pop_all()
        #: The tiers by fleet role, in pipeline order — what fences, observes,
        #: arms faults and closes walk.  Workers close first, so no producer
        #: still holds a shard inbox when the mergers shut down.
        self._tiers: Dict[str, TierBackend] = {"worker": self.transport}
        if self._dispatch is not None:
            self._tiers["dispatcher"] = self._dispatch
        self._tiers["merger"] = self._merge
        self.workers: Dict[int, WorkerNode] = self.transport.workers  # type: ignore[assignment]
        #: Match results the coordinator itself relayed to the merger tier.
        #: Zero in the full multiprocess deployment, where workers ship
        #: results directly to the merger shards.
        self._result_hops = 0
        self.totals = RunTotals()
        self._traces = TraceStore()
        self._next_dispatcher = 0
        self.migrations: List[migration.MigrationRecord] = []
        # Window-executor cache: per-query insertion plans (reused when the
        # deletion arrives).  Only valid while H1 is static;
        # invalidate_routing_caches() drops it.
        self._insertion_assignments: Dict[
            int, Tuple[Dict[int, List[Tuple[CellCoord, str]]], int]
        ] = {}
        fault_plan = self.config.fault_plan
        if fault_plan:
            for role, tier in self._tiers.items():
                tier.install_fault_plan(fault_plan.for_role(role))
        # The wall-clock stack sampler starts last so a failed tier
        # construction never leaks its thread; close() stops it.
        profiling = self.config.profiling
        if profiling is not None and profiling.sample:
            self._sampler = StackSampler(profiling.sample_interval_ms)
            self._sampler.start()

    def invalidate_routing_caches(self) -> None:
        """Drop what assumes a static H1 (call after H1 changes).

        The routing version bump marks every dispatch-shard replica stale
        — the next routed window (or memory report) re-syncs them from the
        authoritative index — and the insertion-plan cache is dropped.
        """
        self._routing_version += 1
        self._insertion_assignments.clear()

    # ------------------------------------------------------------------
    # Sharded dispatch plumbing
    # ------------------------------------------------------------------
    def _sharded_routing(self) -> bool:
        """Whether routing currently runs on the dispatch shards.

        Requires a sharded backend and a plain gridt index: the shards do
        not replicate the dual index of a global drain, which routes
        inline on the coordinator; every inline update then marks the
        replicas stale so they re-sync when sharding resumes.
        """
        return self._dispatch is not None and type(self.routing_index) is GridTIndex

    def _ensure_dispatch_synced(self) -> None:
        """Re-ship the routing index to the shards if the version moved."""
        dispatch = self._dispatch
        if dispatch is not None and dispatch.synced_version != self._routing_version:
            dispatch.sync(self.routing_index, self._routing_version)

    def _mark_routing_mutated(self) -> None:
        """Note an inline H2 mutation so stale shard replicas re-sync."""
        if self._dispatch is not None:
            self._routing_version += 1

    def _reserve_slots(self, count: int) -> int:
        """Reserve ``count`` round-robin dispatcher slots; returns the first."""
        base = self._next_dispatcher
        self._next_dispatcher = (base + count) % len(self.dispatchers)
        return base

    def _submit_window(self, items: Sequence[StreamTuple], base: int) -> int:
        """Submit one window (first dispatcher slot ``base``) to the synced shards."""
        self._ensure_dispatch_synced()
        assert self._dispatch is not None
        return self._dispatch.submit_window(items, base)

    def _process_on_shards(self, item: StreamTuple, slot: int, trace: bool) -> Set[int]:
        """Per-tuple replay on the dispatch shards: a window of one.

        The tuple rides the window protocol and the window executor from
        the slot :meth:`process` reserved, so the shards need no per-tuple
        wire protocol.  Returns the workers that handled it.
        """
        assert self._dispatch is not None
        routed = self._dispatch.collect_window(self._submit_window((item,), slot))
        self._execute_window((item,), slot, routed, trace)
        if item.kind is TupleKind.OBJECT:
            return self.workers.keys() & routed.decisions[0]
        return self.workers.keys() & routed.plans[0][1]

    # ------------------------------------------------------------------
    # Tuple processing (per-tuple driver)
    # ------------------------------------------------------------------
    def process(self, item: StreamTuple, *, trace: bool = True) -> Set[int]:
        """Run one tuple through dispatcher, workers and mergers.

        The per-tuple driver: no window bookkeeping, but the same two
        routing rules, plan cache and worker ops as
        :meth:`_execute_window` — each worker receives exactly the
        ``RouteBatch`` a window of one would ship.  Returns the set of
        workers that handled the tuple.
        """
        slot = self._next_dispatcher
        self._next_dispatcher = (slot + 1) % len(self.dispatchers)
        if self._sharded_routing():
            return self._process_on_shards(item, slot, trace)
        dispatcher = self.dispatchers[slot]
        totals = self.totals
        routing = self.routing_index
        workers_map = self.workers
        payload = item.payload
        worker_costs: List[Tuple[int, float]] = []
        if item.kind is TupleKind.OBJECT:
            cell = routing.grid.cell_of(payload.location)
            terms = payload.terms
            decision = routing.route_cell(cell, terms)
            cost = DispatcherLedger.TUPLE_COST + DispatcherLedger.PROBE_COST * max(1, len(terms))
            dispatcher.busy_cost += cost
            batches: Dict[int, RouteBatch] = {}
            if decision:
                batch = RouteBatch((MatchObjects((payload,), (cell,)),))
                batches = {w: batch for w in decision if w in workers_map}
            if batches:
                results: List[MatchResult] = []
                produced = 0
                for worker_id, replies in self.transport.exchange(batches).items():
                    reply = replies[0]
                    assert reply is not None
                    results.extend(reply.results)
                    produced += reply.produced_count
                    worker_costs.append((worker_id, reply.costs[0]))
                self._deliver_results(results, produced)
            totals.objects += 1
            totals.object_fanout += len(batches)
        else:
            is_insert, per_worker, cells = plan_update(
                routing, self._insertion_assignments, item
            )
            # Idle shard replicas (dual drain) no longer match H2.
            self._mark_routing_mutated()
            cost = DispatcherLedger.TUPLE_COST + DispatcherLedger.PROBE_COST * max(1, cells)
            dispatcher.busy_cost += cost
            batches = {
                worker_id: RouteBatch((op,))
                for worker_id, op in self._update_ops(is_insert, payload, per_worker)
            }
            if batches:
                self.transport.exchange(batches)
            cost_model = self.config.cost_model
            if is_insert:
                handling = cost_model.insert_handling
                totals.insertions += 1
                totals.query_fanout += len(batches)
            else:
                handling = cost_model.delete_handling
                totals.deletions += 1
            worker_costs.extend((worker_id, handling) for worker_id in batches)
        totals.tuples += 1
        if trace:
            self._traces.append(dispatcher.dispatcher_id, cost, worker_costs)
        return set(batches)

    def run(
        self,
        tuples: Iterable[StreamTuple],
        *,
        trace: bool = True,
        adjust_every: int = 0,
        local_adjuster: Optional[driver.LocalAdjusterLike] = None,
        global_adjuster: Optional[driver.GlobalAdjusterLike] = None,
    ) -> RunReport:
        """Process a tuple stream one tuple at a time.

        :func:`repro.runtime.driver.replay` with windows of one: with
        ``adjust_every > 0`` the attached adjusters run one Section V round
        every ``adjust_every`` tuples, and a checkpointed cluster snapshots
        worker assignments at its barriers and recovers dead workers.
        """
        driver.replay(self, tuples, 1, trace, adjust_every, local_adjuster, global_adjuster)
        return self.report()

    def run_batched(
        self,
        tuples: Iterable[StreamTuple],
        *,
        batch_size: int = 256,
        trace: bool = True,
        adjust_every: int = 0,
        local_adjuster: Optional[driver.LocalAdjusterLike] = None,
        global_adjuster: Optional[driver.GlobalAdjusterLike] = None,
    ) -> RunReport:
        """Process a tuple stream in windows of ``batch_size`` tuples.

        Semantically equivalent to :meth:`run` (``batch_size <= 1`` *is*
        the per-tuple replay): the same loop, its windows clipped at the
        barriers, so the schedule — and every simulated outcome — matches.
        A run with neither cadence on a pipelining dispatch backend takes
        the pipelined sharded replay instead (barriers need a quiescent
        point between windows, and recovery's at-most-one-lost-window
        guarantee rules out its overlap).
        """
        dispatch = self._dispatch
        if (
            batch_size > 1
            and adjust_every <= 0
            and self.recovery is None
            and dispatch is not None
            and dispatch.supports_pipelining
            and self._sharded_routing()
        ):
            self._replay_pipelined(tuples, batch_size, trace)
        else:
            driver.replay(
                self, tuples, max(1, batch_size), trace,
                adjust_every, local_adjuster, global_adjuster,
            )
        return self.report()

    @gc_paused()
    def _replay_pipelined(self, tuples: Iterable[StreamTuple], size: int, trace: bool) -> None:
        """Pipelined sharded replay: route window K+1 while K matches.

        Collect window K's routing, submit window K+1 to the shards, then
        run worker matching of K — shard routing of the next window
        overlaps worker matching of the current one (dispatcher→worker
        pipelining).  At most one window is ever in flight, and K's
        worker ops still ship before K+1's.
        """
        dispatch = self._dispatch
        assert dispatch is not None
        in_flight: Optional[Tuple[Sequence[StreamTuple], int, int]] = None
        # The trailing None drains the last submitted window.
        for window in chain(iter_windows(tuples, size), (None,)):
            routed = dispatch.collect_window(in_flight[2]) if in_flight is not None else None
            submitted = None
            if window is not None:
                base = self._reserve_slots(len(window))
                submitted = (window, base, self._submit_window(window, base))
            if in_flight is not None:
                items, base, _ = in_flight
                self._span_open(len(items))
                self._execute_window(items, base, routed, trace)
                self._span_close()
            in_flight = submitted

    # ------------------------------------------------------------------
    # Barriers: the Section V round, checkpoints, worker recovery
    # ------------------------------------------------------------------
    def fence(self) -> int:
        """Quiesce all three tiers; returns the transport's barrier epoch.

        When this returns every worker has applied every shipped window,
        no dispatch shard is still routing and every result shipped
        before (by the coordinator or directly by a worker) is
        deduplicated — what adjustment rounds and checkpoints open with.
        """
        epochs = [tier.barrier() for tier in self._tiers.values()]
        return epochs[0]

    run_adjustment = driver.run_adjustment

    def _checkpointing(self) -> Recovery:
        if self.recovery is None:
            raise ValueError("checkpointing is disabled (checkpoint_every == 0)")
        return self.recovery

    def checkpoint_now(self) -> None:
        """Fence every tier and snapshot the workers (:meth:`Recovery.checkpoint_now`)."""
        self._checkpointing().checkpoint_now()

    def recover_worker(self, worker_id: int, **lost: Any) -> Optional[RecoveryEvent]:
        """Re-install a dead worker's partition (:meth:`Recovery.recover_worker`)."""
        return self._checkpointing().recover_worker(worker_id, **lost)

    # ------------------------------------------------------------------
    # The window executor (batched driver)
    # ------------------------------------------------------------------
    def process_batch(self, items: Sequence[StreamTuple], *, trace: bool = True) -> None:
        """Process one window of tuples through the batched engine.

        Updates are *deferred* within the window: an update only acts as a
        barrier for objects falling into a grid cell it actually touches,
        because both its H2 effect and its worker-side posting effect are
        confined to those cells.  Objects in untouched cells keep
        accumulating, so the bulk-matching runs stay close to window-sized
        despite the 5:1 object/update interleaving.
        """
        self._span_open(len(items))
        base = self._reserve_slots(len(items))
        routed: Optional[RoutedWindow] = None
        if self._sharded_routing():
            assert self._dispatch is not None
            routed = self._dispatch.collect_window(self._submit_window(items, base))
        self._execute_window(items, base, routed, trace)
        self._span_close()

    def _execute_window(
        self,
        items: Sequence[StreamTuple],
        base: int,
        routed: Optional[RoutedWindow],
        trace: bool,
    ) -> None:
        """Deferred-barrier window execution.

        Correctness argument: an update's observable effect — H2 postings
        for routing, GI2 postings / pending deletions for matching — is
        confined to the grid cells of its routing assignments.  An object
        whose cell no pending update touches therefore sees the same state
        whether it executes before or after them, so it is executed in the
        current bulk run; an object whose cell *is* touched flushes the
        window segment first (objects, then the deferred updates in stream
        order).  Per-tuple dispatcher round-robin (from slot ``base``),
        costs, counters and traces are all assigned by original stream
        position.

        Only two steps depend on where routing ran.  With ``routed is
        None`` the coordinator routes inline, fused into this scan: an
        object's decision comes from :meth:`GridTIndex.route_cell`, an
        update's plan from :func:`~repro.runtime.dispatch.plan_update`.
        Otherwise both are read off the position-tagged
        :class:`~repro.runtime.dispatch.RoutedWindow` the dispatch shards
        produced, and each update's H2 delta is replayed on the
        coordinator's authoritative index (pure increments, no H1
        probing), so adjusters and migrations keep observing exact
        routing state.
        """
        routing = self.routing_index
        count = len(items)
        dispatchers = self.dispatchers
        num_dispatchers = len(dispatchers)

        grid = routing.grid
        bounds = grid.bounds
        min_x = bounds.min_x
        min_y = bounds.min_y
        cell_w = grid.cell_width
        cell_h = grid.cell_height
        max_col = grid.columns - 1
        max_row = grid.rows - 1

        window = _WindowRun(
            base, num_dispatchers, count, trace, self.transport.exchange_round_trip
        )
        trace_costs = window.trace_costs
        dispatcher_costs = [0.0] * num_dispatchers

        pending_positions: List[int] = []
        pending_objects: List = []
        pending_coords: List[CellCoord] = []
        pending_groups: Dict[int, List[int]] = {}
        pending_updates: List[Tuple] = []
        object_cells: Set[CellCoord] = set()
        # ``touched`` is synchronised lazily from ``pending_updates``: pure
        # update runs (e.g. the warm-up insertions) never pay for it.
        touched: Set[CellCoord] = set()
        touched_synced = 0

        decisions = routed.decisions if routed is not None else None
        plans = routed.plans if routed is not None else None
        insertion_cache = self._insertion_assignments
        route_cell = routing.route_cell
        object_kind = TupleKind.OBJECT
        tuple_cost = DispatcherLedger.TUPLE_COST
        probe_cost = DispatcherLedger.PROBE_COST
        workers_map = self.workers
        window_objects = 0
        window_fanout = 0

        for position, item in enumerate(items):
            if item.kind is object_kind:
                obj = item.payload
                location = obj.location
                col = int((location.x - min_x) / cell_w)
                row = int((location.y - min_y) / cell_h)
                if col < 0:
                    col = 0
                elif col > max_col:
                    col = max_col
                if row < 0:
                    row = 0
                elif row > max_row:
                    row = max_row
                coord = (col, row)
                window_objects += 1
                # Inline routing and dispatcher accounting are fused into
                # the arrival scan: H2 was already updated by every earlier
                # update in the window, so the decision equals the
                # sequential one.  Only *matched* objects need the
                # worker-side barrier below; discarded objects never reach
                # a worker and bypass the deferral machinery entirely.
                slot = (base + position) % num_dispatchers
                terms = obj.terms
                n_terms = len(terms)
                cost = tuple_cost + probe_cost * (n_terms if n_terms > 1 else 1)
                dispatcher_costs[slot] += cost
                if trace_costs is not None:
                    trace_costs[position] = cost
                decision = (
                    route_cell(coord, terms) if decisions is None else decisions[position]
                )
                if not decision:
                    continue
                if touched_synced < len(pending_updates):
                    touched_add = touched.add
                    for update in pending_updates[touched_synced:]:
                        for pairs in update[3].values():
                            for pair in pairs:
                                touched_add(pair[0])
                    touched_synced = len(pending_updates)
                if coord in touched:
                    if touched.isdisjoint(object_cells):
                        # No pending update touches any *pending object's*
                        # cell, so the queued updates can apply now while
                        # the object run keeps growing (every pending
                        # object is unaffected either way).
                        self._flush_fast(window, [], [], [], {}, pending_updates)
                    else:
                        self._flush_fast(
                            window, pending_positions, pending_objects,
                            pending_coords, pending_groups, pending_updates,
                        )
                        pending_positions = []
                        pending_objects = []
                        pending_coords = []
                        pending_groups = {}
                        object_cells = set()
                    pending_updates = []
                    touched = set()
                    touched_synced = 0
                local = len(pending_objects)
                pending_positions.append(position)
                pending_objects.append(obj)
                pending_coords.append(coord)
                object_cells.add(coord)
                for worker_id in decision:
                    if worker_id in workers_map:
                        window_fanout += 1
                        group = pending_groups.get(worker_id)
                        if group is None:
                            pending_groups[worker_id] = [local]
                        else:
                            group.append(local)
            else:
                # H2 applies immediately: pending objects were already
                # routed at their arrival, and later objects must see the
                # updated H2 — exactly the sequential routing order.  Only
                # the worker-side (GI2) effect is deferred to the flush.
                if plans is None:
                    is_insert, per_worker, cells = plan_update(
                        routing, insertion_cache, item
                    )
                    # Idle shard replicas (dual drain) no longer match H2.
                    self._mark_routing_mutated()
                else:
                    is_insert, per_worker, cells = plans[position]
                    if is_insert:
                        routing.apply_insertion(
                            (coord, key, worker)
                            for worker, pairs in per_worker.items()
                            for coord, key in pairs
                        )
                    else:
                        routing.apply_deletion_pairs(per_worker)
                pending_updates.append(
                    (position, is_insert, item.payload, per_worker, cells)
                )
        self._flush_fast(
            window, pending_positions, pending_objects, pending_coords,
            pending_groups, pending_updates,
        )
        if window.ops:
            # Round-trip transports: the window's one exchange, then every
            # segment settles in flush order, as if it had shipped alone.
            replies = self._exchange(window.ops)
            for positions, groups, offsets in window.segments:
                self._settle_segment(replies, positions, groups, offsets, window.trace_workers)
        totals = self.totals
        totals.objects += window_objects
        totals.tuples += window_objects
        totals.object_fanout += window_fanout
        for slot in range(num_dispatchers):
            # Two additions per slot, in this order: the float sum is
            # pinned by tests/test_report_golden.py.
            dispatchers[slot].busy_cost += dispatcher_costs[slot]
            dispatchers[slot].busy_cost += window.update_costs[slot]
        if trace:
            trace_workers = window.trace_workers
            assert trace_costs is not None and trace_workers is not None
            # Dispatcher ids repeat cyclically from ``base``; emit the whole
            # window's worth at C speed.
            rotated = [
                dispatchers[(base + offset) % num_dispatchers].dispatcher_id
                for offset in range(num_dispatchers)
            ]
            self._traces.extend(
                islice(cycle(rotated), count),
                trace_costs,
                trace_workers,
            )

    def _flush_fast(
        self,
        window: _WindowRun,
        positions: List[int],
        objects: List,
        coords: List[CellCoord],
        groups: Dict[int, List[int]],
        updates: List[Tuple],
    ) -> None:
        """Flush one deferred segment: bulk object matching, then updates.

        Objects were already routed, charged to their dispatchers and
        grouped per worker during the arrival scan; here each worker's
        share of the segment becomes ordered ops — the object group
        first, then the deferred updates in stream order.  In process
        the segment is exchanged and settled right here, so its
        deliveries leave while the scan goes on; where an exchange is a
        round trip (``Transport.exchange_round_trip``) the ops join the
        window's per-worker lists and :meth:`_execute_window` ships them
        all at once, settling segment by segment in flush order.  Workers
        see the same ops in the same order either way; the update
        accounting below and the update log stay at flush time in both.
        """
        workers_map = self.workers
        totals = self.totals
        num_dispatchers = len(self.dispatchers)
        tuple_cost = DispatcherLedger.TUPLE_COST
        probe_cost = DispatcherLedger.PROBE_COST
        base = window.base
        trace_costs = window.trace_costs
        trace_workers = window.trace_workers

        batch_ops: Dict[int, List[WorkerOp]] = {}
        if groups:
            for worker_id, locals_ in groups.items():
                batch_ops[worker_id] = [
                    MatchObjects(
                        [objects[local] for local in locals_],
                        [coords[local] for local in locals_],
                    )
                ]
        for _, is_insert, payload, per_worker, _ in updates:
            for worker_id, op in self._update_ops(is_insert, payload, per_worker):
                ops = batch_ops.get(worker_id)
                if ops is None:
                    batch_ops[worker_id] = [op]
                else:
                    ops.append(op)
        span = self._telemetry.span if self._telemetry is not None else None
        if span is not None and len(batch_ops) > span.match_endpoints:
            span.match_endpoints = len(batch_ops)
        if window.ops is None:
            if batch_ops:
                replies = self._exchange(batch_ops)
                if groups:
                    self._settle_segment(
                        replies, positions, groups, dict.fromkeys(groups, 0), trace_workers
                    )
        else:
            offsets: Dict[int, int] = {}
            for worker_id, ops in batch_ops.items():
                shipped = window.ops.setdefault(worker_id, [])
                offsets[worker_id] = len(shipped)
                shipped.extend(ops)
            if groups:
                window.segments.append((positions, groups, offsets))

        # Coordinator-side accounting of the deferred updates.  Their
        # worker-side effect (GI2 postings, load counters, busy time) is
        # applied by the ops built above; the per-tuple costs are the
        # fixed Definition-1 constants, so traces need no round trip.
        cost_model = self.config.cost_model
        insert_cost = cost_model.insert_handling
        delete_cost = cost_model.delete_handling
        for position, is_insert, payload, per_worker, cells in updates:
            slot = (base + position) % num_dispatchers
            cost = tuple_cost + probe_cost * (cells if cells > 1 else 1)
            window.update_costs[slot] += cost
            worker_items: Optional[List[Tuple[int, float]]] = (
                [] if trace_workers is not None else None
            )
            handled = 0
            if is_insert:
                for worker_id in per_worker:
                    if worker_id not in workers_map:
                        continue
                    handled += 1
                    if worker_items is not None:
                        worker_items.append((worker_id, insert_cost))
                totals.insertions += 1
                totals.query_fanout += handled
            else:
                for worker_id in per_worker:
                    if worker_id not in workers_map:
                        continue
                    if worker_items is not None:
                        worker_items.append((worker_id, delete_cost))
                totals.deletions += 1
            totals.tuples += 1
            if trace_costs is not None:
                trace_costs[position] = cost
                assert trace_workers is not None
                trace_workers[position] = worker_items

    def _update_ops(
        self, is_insert: bool, payload: Any, per_worker: WorkerPlan
    ) -> Iterator[Tuple[int, WorkerOp]]:
        """One planned update's op per live destination worker, in plan order.

        Shared by both drivers; each yielded op is also noted in the
        recovery update log (when checkpointing) for replay onto a
        recovery target.
        """
        workers_map = self.workers
        log = self.recovery.log_update if self.recovery is not None else None
        if is_insert:
            query = payload.query
            for worker_id, pairs in per_worker.items():
                if worker_id in workers_map:
                    if log is not None:
                        log(worker_id, QueryAssignment(query, tuple(pairs), True))
                    yield worker_id, InsertPairs(query, pairs)
        else:
            op = DeleteById(payload.query_id)
            for worker_id in per_worker:
                if worker_id in workers_map:
                    if log is not None:
                        log(worker_id, op.query_id)
                    yield worker_id, op

    def _settle_segment(
        self,
        replies: Dict[int, List[Optional[MatchResults]]],
        positions: List[int],
        groups: Dict[int, List[int]],
        offsets: Dict[int, int],
        trace_workers: Optional[List[Optional[List[Tuple[int, float]]]]],
    ) -> None:
        """Merge one flushed object run's match replies, in group order.

        ``offsets[worker]`` is the index of the run's ``MatchObjects`` op
        — hence of its reply — in what that worker was shipped: 0 when
        the segment was exchanged alone, its place in the window's op
        list when the whole window went out as one batch.
        """
        all_results: List[MatchResult] = []
        produced = 0
        for worker_id, locals_ in groups.items():
            reply = replies[worker_id][offsets[worker_id]]
            assert reply is not None
            if reply.results:
                all_results.extend(reply.results)
            produced += reply.produced_count
            if trace_workers is not None:
                for local, cost in zip(locals_, reply.costs):
                    position = positions[local]
                    entry = trace_workers[position]
                    if entry is None:
                        trace_workers[position] = [(worker_id, cost)]
                    else:
                        entry.append((worker_id, cost))
        if all_results or produced:
            self._deliver_results(all_results, produced)

    def _exchange(
        self, ops: Dict[int, List[WorkerOp]]
    ) -> Dict[int, List[Optional[MatchResults]]]:
        """One transport exchange, timed into the open window span's match hop."""
        batches = {worker_id: RouteBatch(worker_ops) for worker_id, worker_ops in ops.items()}
        hub = self._telemetry
        if hub is None or hub.span is None:
            return self.transport.exchange(batches)
        span = hub.span
        started_ms = hub.now_ms()
        replies = self.transport.exchange(batches)
        if span.match_started_ms < 0:
            span.match_started_ms = started_ms
        span.match_ms += hub.now_ms() - started_ms
        return replies

    # ------------------------------------------------------------------
    # Merger tier (delivery, dedup accounting, subscriber sinks)
    # ------------------------------------------------------------------
    def _deliver_results(self, results: List[MatchResult], produced: int) -> None:
        """Coordinator-side half of result delivery.

        ``produced`` counts every match the workers produced this
        exchange; ``results`` holds only the ones that came back to the
        coordinator (empty in the full multiprocess deployment, where
        workers ship them straight to the merger shards).  Relayed
        results count against :attr:`result_hops` — the coordinator-hop
        counter the direct-shipping tests pin to zero.
        """
        self.totals.matches_produced += produced
        if results:
            self._result_hops += len(results)
            hub = self._telemetry
            if hub is None or hub.span is None:
                self._merge.deliver(results)
            else:
                span = hub.span
                started_ms = hub.now_ms()
                self._merge.deliver(results)
                if span.merge_started_ms < 0:
                    span.merge_started_ms = started_ms
                span.merge_ms += hub.now_ms() - started_ms

    # ------------------------------------------------------------------
    # Observation: one snapshot, and its telemetry / report / profile views
    # ------------------------------------------------------------------
    def _span_open(self, size: int) -> None:
        """Start tracing one batched window (no-op when telemetry is off)."""
        if self._telemetry is not None:
            self._telemetry.open_span(self.totals.tuples, size)

    def _span_close(self) -> None:
        """Record the in-flight window's span; drain the gauges when due."""
        hub = self._telemetry
        if hub is not None and hub.close_span(len(self.dispatchers), self._merge.num_mergers):
            self._drain_gauges()

    def _observe(self) -> Snapshot:
        """Observe every endpoint once: workers, dispatch shards, mergers.

        The one read of remote state — one ``Observe`` round trip per
        endpoint (the in-process backends build identical observations
        locally); reports, gauges, load/memory reports and the profile
        are all views of it.  Purely read-only — an observed run's
        report is byte-identical to an unobserved one.
        """
        observed = {role: tier.observe() for role, tier in self._tiers.items()}
        return Snapshot(observed["worker"], observed.get("dispatcher", {}), observed["merger"])

    def wire_stats(self) -> Dict[str, Dict[int, WireStats]]:
        """Coordinator-side channel traffic per out-of-process tier.

        ``tier -> endpoint id ->`` :class:`~repro.runtime.fabric.WireStats`
        (messages and encoded bytes, both directions; queue-inbox
        mergers count messages only).  In-process tiers have no channel
        and are absent, so a fully in-process cluster answers ``{}``.
        Reads local counters only — no message is sent.
        """
        stats = {role: self._tiers[role].wire_stats() for role in sorted(self._tiers)}
        return {role: endpoints for role, endpoints in stats.items() if endpoints}

    def _drain_gauges(self, observed: Optional[Snapshot] = None) -> None:
        """Record one gauge sample per endpoint (no-op when telemetry is off)."""
        hub = self._telemetry
        if hub is not None:
            hub.drain_gauges(
                observed if observed is not None else self._observe(),
                {d.dispatcher_id: d.busy_cost for d in self.dispatchers},
                self._result_hops,
            )

    def _record_lifecycle(self, kind: str, **fields: Any) -> None:
        """Record one lifecycle event (no-op when telemetry is off)."""
        if self._telemetry is not None:
            self._telemetry.lifecycle(kind, **fields)

    def telemetry_events(self) -> List[TelemetryEvent]:
        """The telemetry ring's retained events (empty when disabled)."""
        return self._telemetry.events() if self._telemetry is not None else []

    def telemetry_timeseries(self) -> Optional[TierTimeseries]:
        """The per-window gauge store, queryable at the adjustment fence."""
        return self._telemetry.timeseries if self._telemetry is not None else None

    def telemetry_text(self) -> str:
        """Prometheus-style text snapshot of the telemetry state."""
        if self._telemetry is None:
            return "# telemetry disabled (ClusterConfig.telemetry is None)\n"
        return self._telemetry.telemetry_text()

    @property
    def result_hops(self) -> int:
        """Match results that reached the merger tier via the coordinator."""
        return self._result_hops

    @property
    def mergers(self) -> List:
        """Per-shard merger handles.

        Real :class:`MergerNode` objects under the in-process backend;
        fresh :class:`~repro.runtime.telemetry.Observation` snapshots
        (``delivered`` / ``duplicates`` / ``busy_cost``) under the
        multiprocess backend.
        """
        return self._merge.merger_handles()

    def merger_stats(self) -> Dict[int, Observation]:
        """One :class:`Observation` per merger shard, sorted by merger id.

        On the multiprocess backend the request rides the shard inboxes,
        so it observes every delivery enqueued before it — reading stats
        after an ``exchange`` returned is always consistent.
        """
        return self._merge.observe()

    def drain_sinks(self) -> Dict[int, List[MatchResult]]:
        """Drain every merger shard's sink buffer (memory sinks)."""
        return self._merge.drain_sinks()

    def saturation_throughput(self) -> float:
        """Tuples per second when the bottleneck process is saturated."""
        return metrics.saturation_throughput(
            self.config, self.totals, self.dispatchers, self._observe()
        )

    def latency_tracker(self, input_rate: Optional[float] = None) -> LatencyTracker:
        """Per-tuple latencies (ms) at ``input_rate`` (default: the report's)."""
        return metrics.latency_tracker(
            self.config, self.totals, self._traces, self.dispatchers, self._observe(), input_rate
        )

    def worker_load_report(self) -> LoadReport:
        return LoadReport(
            worker_loads={w: s.load for w, s in self.transport.observe().items()}
        )

    def dispatcher_memory_report(self) -> Dict[int, int]:
        """Routing-structure bytes per dispatcher (Figure 9), measured on
        the shard replicas — after a re-sync if the routing version moved
        — when dispatch is sharded."""
        self._ensure_dispatch_synced()
        shards = self._dispatch.observe() if self._dispatch is not None else {}
        return metrics.dispatcher_memory_report(self.dispatchers, shards, self.routing_index)

    def report(self, input_rate: Optional[float] = None) -> RunReport:
        """Build the full :class:`RunReport` for the processed stream.

        Every remote number comes from one :class:`Observation` per
        endpoint — each tier asked once per report whichever backend
        hosts it, telemetry on or off.  Shard replicas left stale by a
        trailing adjustment re-sync first, so the one observation also
        measures ``dispatcher_memory``.
        """
        self._ensure_dispatch_synced()
        observed = self._observe()
        # Final cross-tier gauge cut (same replies as the report) so a
        # run's last partial sampling interval is still visible in the
        # timeseries and the JSONL.
        self._drain_gauges(observed)
        return metrics.run_report(
            self.config, self.totals, self._traces, self.dispatchers, observed,
            self.routing_index,
            self.recovery.report() if self.recovery is not None else None,
            input_rate,
        )

    def profile_report(self) -> ProfileReport:
        """Every tier's hot-loop counters, as an independent snapshot.

        The ``profile`` fields of one observation per endpoint: one
        :class:`~repro.runtime.profiling.MatchProfile` per worker, one
        :class:`~repro.runtime.profiling.RouteProfile` per routing
        replica — the coordinator's inline counters first (endpoint
        ``-1``), then the dispatch shards — and one
        :class:`~repro.runtime.profiling.DedupProfile` per merger shard.
        Observing is read-only, so it can run any number of times (e.g.
        before and after an adjustment round) without perturbing a report.
        """
        workers, shards, mergers = self._observe()
        inline = self.routing_index.profile.event(-1)
        return ProfileReport(
            matchers=tuple(o.profile for o in workers.values()),
            routers=(inline, *(o.profile for o in shards.values())),
            mergers=tuple(o.profile for o in mergers.values()),
            wire=self.wire_stats(),
            tuples=self.totals.tuples,
        )

    def profile_stacks(self) -> Optional[List[str]]:
        """The stack sampler's collapsed stacks; ``None`` without ``sample``."""
        if self._sampler is None:
            return None
        self._sampler.stop()
        return self._sampler.collapsed()

    # ------------------------------------------------------------------
    # Dynamic adjustment hooks (Section V)
    # ------------------------------------------------------------------
    def worker_cell_stats(self, worker_id: int) -> List[CellStats]:
        return self.workers[worker_id].cell_stats()

    migration_seconds = migration.migration_seconds
    migrate_cells = migration.migrate_cells
    migrate_keywords = migration.migrate_keywords
    replace_routing_index = migration.replace_routing_index

    def reset_load_measurement(self) -> None:
        """Start a new Section V measurement period, keeping run totals.

        Resets exactly what the adjusters observe — the Definition-1
        worker load counters and the Definition-3 per-cell object counts —
        while busy time, traces, match counts and merger state keep
        accumulating, so a closed-loop run's report still covers the whole
        stream.
        """
        self.transport.call_all("reset_load_measurement")

    def close(self) -> None:
        """Release every backend (terminates out-of-process endpoints).

        Idempotent; a no-op for the in-process backends.  Out-of-process
        clusters should be closed (or used as a context manager) once the
        run and its reports are done — worker state is unreachable after.
        Releases the tiers in pipeline order (workers first).  Each tier is
        closed even if an earlier tier's close raises (a dead worker
        fleet must not leak dispatcher/merger processes; the first error
        is re-raised once all three are down), and the fabric's shutdown
        waits are poll-bounded, so closing mid-window — even with a
        failed exchange outstanding — cannot hang on a pipe/queue drain.
        """
        if self._closed:
            return
        self._closed = True
        if self._sampler is not None:
            self._sampler.stop()
        first_error: Optional[BaseException] = None
        closers = [tier.close for tier in self._tiers.values()]
        if self._telemetry is not None:
            # Last: flushes the JSONL sink after every tier stopped emitting.
            closers.append(self._telemetry.close)
        for closer in closers:
            try:
                closer()
            except BaseException as exc:  # noqa: BLE001 - close all tiers first
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def reset_period(self) -> None:
        """Start a new measurement period on every process."""
        for dispatcher in self.dispatchers:
            dispatcher.reset_period()
        self.transport.call_all("reset_period")
        self._merge.reset_period()
        self._traces.clear()
        self.totals = RunTotals()
