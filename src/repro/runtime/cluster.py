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
from itertools import cycle, islice
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.costmodel import COST_MODEL, LoadReport
from ..core.geometry import Rect
from ..core.objects import MatchResult, ObjectRow, StreamTuple, TupleKind
from ..indexes.gi2 import CellStats
from ..indexes.grid import CellCoord
from ..indexes.gridt import GridTIndex
from ..partitioning.base import PartitionPlan
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
from .fabric import Submitted, TierBackend, TransportError, WireStats, load_manifest
from .merge import MergeBackend, make_merge
from .metrics import LatencyTracker, RunReport, RunTotals, TraceStore
from .profiling import ProfileReport, StackSampler
from .telemetry import Observation, Snapshot, SpanState, TelemetryEvent, TelemetryHub
from .transport import (
    DeleteById,
    InsertPairs,
    MatchObjects,
    MatchResults,
    RouteBatch,
    Transport,
    WorkerOp,
    WorkerProxy,
    make_transport,
)

__all__ = ["Cluster"]


class _WindowRun:
    """One window's flush-side accumulators and what settling it needs.

    Never cluster state while the window scans: a window that aborts
    mid-scan cannot leak ops into the next.  ``ops`` collects each
    worker's ordered ops for the window's one ``RouteBatch`` per worker,
    and ``segments`` records for every flushed object run ``(positions,
    groups, {worker: index of the run's MatchObjects in ops[worker]})``.
    Once shipped, the run is the window in flight (``submitted``, its
    span and seq) until settled.
    """

    def __init__(self, items: Sequence[StreamTuple], base: int, num_dispatchers: int) -> None:
        count = len(items)
        self.items = items
        self.base = base
        self.update_costs = [0.0] * num_dispatchers
        self.dispatcher_costs = [0.0] * num_dispatchers
        self.objects = self.fanout = 0
        self.trace_costs = [0.0] * count
        self.trace_workers: List[Optional[List[Tuple[int, float]]]] = [None] * count
        self.ops: Dict[int, List[WorkerOp]] = {}
        self.segments: List[Tuple[List[int], Dict[int, List[int]], Dict[int, int]]] = []
        self.submitted = Submitted([], None)
        self.span: Optional[SpanState] = None
        self.seq = 0


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
                addresses=manifest.mergers if manifest else None,
            )
            undo.callback(self._merge.close)
            # The transport owns the worker fleet, wherever make_fleet put it.
            # Coordinator code only ever talks to the workers through the
            # transport's submit()/exchange()/observe() surface or the proxies
            # in self.workers.
            self.transport: Transport = make_transport(
                self.config.backend,
                list(range(self.config.num_workers)),
                bounds=self.bounds,
                granularity=self.config.granularity,
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
        #: Worker id -> :class:`~repro.runtime.transport.WorkerProxy` over the
        #: worker's declared control surface, on every backend.
        self.workers: Dict[int, WorkerProxy] = self.transport.workers
        #: Match results the coordinator itself relayed to the merger tier.
        #: Zero in the full multiprocess deployment, where workers ship
        #: results directly to the merger shards.
        self._result_hops = 0
        self.totals = RunTotals()
        self._traces = TraceStore()
        self._next_dispatcher = 0
        #: The replay's lookahead: the window ``process_batch`` submits
        #: next, then its ``(first slot, seq)`` while the shards route it.
        self._lookahead: Sequence[StreamTuple] = ()
        self._ahead: Optional[Tuple[int, Optional[int]]] = None
        #: The window shipped to the workers and not yet settled, and the
        #: windows whose settling failed (for recovery).
        self._in_flight: Optional[_WindowRun] = None
        self._abandoned: List[Sequence[StreamTuple]] = []
        self.migrations: List[migration.MigrationRecord] = []
        fault_plan = self.config.fault_plan
        if fault_plan:
            for role, tier in self._tiers.items():
                tier.install_fault_plan(fault_plan.for_role(role))
        # The wall-clock stack sampler starts last so a failed tier
        # construction never leaks its thread; close() stops it.
        profiling = self.config.profiling
        if profiling is not None and profiling.sample:
            self._sampler = StackSampler()
            self._sampler.start()

    def invalidate_routing_caches(self) -> None:
        """Note a routing mutation made outside the shards: bump the version.

        Every H1 change (a migration, a text split, a replaced routing
        index, a recovery's remap) and every H2 update routed inline on the
        coordinator marks the dispatch-shard replicas stale — the next
        routed window (or memory report) re-syncs them from the
        authoritative index.  Nothing else is derived from routing state: a
        deletion re-plans from the index (the keyword choice is
        deterministic, Section IV-C).
        """
        self._routing_version += 1

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

    def _submit(self, items: Sequence[StreamTuple]) -> Tuple[int, Optional[int]]:
        """Reserve a window's round-robin dispatcher slots and, when routing
        is sharded, submit it to the synced shards: ``(first slot, seq)``."""
        base = self._next_dispatcher
        self._next_dispatcher = (base + len(items)) % len(self.dispatchers)
        if not self._sharded_routing():
            return base, None
        self._ensure_dispatch_synced()
        assert self._dispatch is not None
        return base, self._dispatch.submit_window(items, base)

    # ------------------------------------------------------------------
    # Tuple processing (per-tuple driver)
    # ------------------------------------------------------------------
    def process(self, item: StreamTuple) -> Set[int]:
        """Run one tuple through dispatcher, workers and mergers: a run of
        one (:meth:`_run`).  Returns the set of workers that handled it."""
        return self._run((item,))[1]

    def _run(self, items: Iterable[StreamTuple]) -> Tuple[int, Set[int]]:
        """The per-tuple driver: each tuple routed, shipped, matched and
        delivered before the next is pulled off ``items``, by the routing
        rules and worker ops of :meth:`_execute_window` (each worker gets
        the ``RouteBatch`` a window of one would ship; on dispatch shards
        a tuple *is* one).  No barrier fires inside a run, so the routing
        state is read once.  Returns the tuples taken and the workers that
        handled the last; a ``TransportError`` leaves with ``progress`` set.
        """
        taken = 0
        item: Optional[StreamTuple] = None
        batches: Dict[int, RouteBatch] = {}
        try:
            self._settle()
            if self._sharded_routing():
                handled: Set[int] = set()
                for item in items:
                    taken += 1
                    slot, seq = self._submit((item,))
                    assert self._dispatch is not None and seq is not None
                    routed = self._dispatch.collect_window(seq)
                    self._execute_window((item,), slot, routed)
                    self._settle()
                    is_object = item.kind is TupleKind.OBJECT
                    handled = set(routed.decisions[0] if is_object else routed.plans[0][1])
                return taken, handled & self.workers.keys()
            routing = self.routing_index
            route_cell = routing.route_cell
            insertion_plan_apply = routing.insertion_plan_apply
            deletion_plan_apply = routing.deletion_plan_apply
            min_x, min_y, cell_w, cell_h, max_col, max_row = routing.grid.frame()
            dispatchers = self.dispatchers
            num_dispatchers = len(dispatchers)
            totals = self.totals
            workers_map = self.workers
            exchange = self.transport.exchange
            log = self.recovery.log_update if self.recovery is not None else None
            signature = self._traces.signatures.get
            intern = self._traces.intern
            record = self._traces.ids.append
            object_kind = TupleKind.OBJECT
            insert_kind = TupleKind.INSERT
            tuple_cost = DispatcherLedger.TUPLE_COST
            probe_cost = DispatcherLedger.PROBE_COST
            insert_cost = COST_MODEL.insert_handling
            delete_cost = COST_MODEL.delete_handling
            for item in items:
                taken += 1
                slot = self._next_dispatcher
                self._next_dispatcher = (slot + 1) % num_dispatchers
                dispatcher = dispatchers[slot]
                worker_costs: List[Tuple[int, float]] = []
                kind = item.kind
                batches = {}
                if kind is object_kind:
                    obj = item.payload
                    x, y, terms = obj.location.x, obj.location.y, obj.terms
                    col = int((x - min_x) / cell_w)
                    row = int((y - min_y) / cell_h)
                    coord = (0 if col < 0 else (max_col if col > max_col else col),
                             0 if row < 0 else (max_row if row > max_row else row))
                    cost = tuple_cost + probe_cost * (len(terms) or 1)
                    dispatcher.busy_cost += cost
                    decision = route_cell(coord, terms)
                    if decision:
                        match = MatchObjects(((obj.object_id, x, y, terms),), (coord,))
                        batch = RouteBatch((match,))
                        batches = {w: batch for w in decision if w in workers_map}
                    if batches:
                        results: List[MatchResult] = []
                        produced = 0
                        for worker_id, replies in exchange(batches).items():
                            reply = replies[0]
                            assert reply is not None
                            results.extend(reply.results)
                            produced += reply.produced_count
                            worker_costs.append((worker_id, reply.costs[0]))
                        self._deliver_results(results, produced)
                    totals.objects += 1
                    totals.object_fanout += len(batches)
                else:
                    query = item.payload.query
                    is_insert = kind is insert_kind
                    plan = insertion_plan_apply if is_insert else deletion_plan_apply
                    per_worker, cells = plan(query)
                    self._routing_version += 1  # idle shard replicas (dual drain) are stale
                    cost = tuple_cost + probe_cost * (cells if cells > 1 else 1)
                    dispatcher.busy_cost += cost
                    # The ops and log entries of _flush_fast, one batch per
                    # worker; a deletion's workers share its one batch.
                    handling = insert_cost if is_insert else delete_cost
                    shared = None if is_insert else RouteBatch((DeleteById(query.query_id),))
                    for worker_id, pairs in per_worker.items():
                        if worker_id in workers_map:
                            batch = shared or RouteBatch((InsertPairs(query, pairs),))
                            if log is not None:
                                log(worker_id, batch.ops[0] if is_insert else query.query_id)
                            batches[worker_id] = batch
                            worker_costs.append((worker_id, handling))
                    if batches:
                        exchange(batches)
                    if is_insert:
                        totals.insertions += 1
                        totals.query_fanout += len(batches)
                    else:
                        totals.deletions += 1
                totals.tuples += 1
                key = (dispatcher.dispatcher_id, cost, *worker_costs)
                sid = signature(key)
                record(intern(key) if sid is None else sid)
            return taken, set(batches)
        except TransportError as exc:
            exc.progress = (taken, (item,) if item is not None else ())
            raise

    def run(
        self,
        tuples: Iterable[StreamTuple],
        *,
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
        driver.replay(self, tuples, 1, adjust_every, local_adjuster, global_adjuster)
        return self.report()

    def run_batched(
        self,
        tuples: Iterable[StreamTuple],
        *,
        batch_size: int = 256,
        adjust_every: int = 0,
        local_adjuster: Optional[driver.LocalAdjusterLike] = None,
        global_adjuster: Optional[driver.GlobalAdjusterLike] = None,
    ) -> RunReport:
        """Process a tuple stream in windows of ``batch_size`` tuples.

        Semantically equivalent to :meth:`run` (``batch_size <= 1`` *is*
        the per-tuple replay): the same loop, its windows clipped at the
        barriers, so the schedule — and every simulated outcome — matches.
        On a concurrent dispatch fleet the loop routes one window ahead,
        so shard routing of the next window overlaps worker matching of
        the current one; every barrier drains that lookahead first.
        """
        driver.replay(
            self, tuples, max(1, batch_size), adjust_every, local_adjuster, global_adjuster
        )
        return self.report()

    # ------------------------------------------------------------------
    # Barriers: the Section V round, checkpoints, worker recovery
    # ------------------------------------------------------------------
    def fence(self) -> int:
        """Quiesce all three tiers; returns the transport's barrier epoch.

        When this returns every worker has applied every shipped window
        (the one in flight settles first), no dispatch shard is still
        routing and every result shipped before (by the coordinator or
        directly by a worker) is deduplicated — what adjustment rounds and
        checkpoints open with.
        """
        self._settle()
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
    def process_batch(self, items: Sequence[StreamTuple]) -> None:
        """Process one window of tuples through the batched engine.

        Updates are *deferred* within the window: an update only acts as a
        barrier for objects falling into a grid cell it actually touches,
        because both its H2 effect and its worker-side posting effect are
        confined to those cells.  Objects in untouched cells keep
        accumulating, so the bulk-matching runs stay close to window-sized
        despite the 5:1 object/update interleaving.

        Under the replay's lookahead this window was submitted while the
        previous one executed, and ``_lookahead`` is submitted before this
        one executes.  If this window fails, that routing is discarded and
        its slots handed back, so the next call routes it afresh.  The
        window is left in flight (:meth:`_settle`); every entry point that
        reads or messages a tier settles it first.
        """
        self._span_open(len(items))
        ahead, self._ahead = self._ahead, None
        following, self._lookahead = self._lookahead, ()
        base, seq = ahead if ahead is not None else self._submit(items)
        dispatch = self._dispatch
        routed = dispatch.collect_window(seq) if dispatch is not None and seq is not None else None
        if following:
            self._ahead = self._submit(following)
        try:
            self._execute_window(items, base, routed)
        except BaseException:
            self._discard_ahead()
            raise

    def _discard_ahead(self) -> None:
        """Drop the routing of the window submitted ahead and hand its
        slots back, so the next window routes afresh."""
        if self._ahead is not None:
            self._next_dispatcher, seq = self._ahead
            self._ahead = None
            if self._dispatch is not None and seq is not None:
                self._dispatch.collect_window(seq)

    def _execute_window(
        self,
        items: Sequence[StreamTuple],
        base: int,
        routed: Optional[RoutedWindow],
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
        num_dispatchers = len(self.dispatchers)

        min_x, min_y, cell_w, cell_h, max_col, max_row = routing.grid.frame()

        window = _WindowRun(items, base, num_dispatchers)
        trace_costs = window.trace_costs
        dispatcher_costs = window.dispatcher_costs

        pending_positions: List[int] = []
        pending_rows: List[ObjectRow] = []
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
                x = location.x
                y = location.y
                col = int((x - min_x) / cell_w)
                row = int((y - min_y) / cell_h)
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
                            window, pending_positions, pending_rows,
                            pending_coords, pending_groups, pending_updates,
                        )
                        pending_positions = []
                        pending_rows = []
                        pending_coords = []
                        pending_groups = {}
                        object_cells = set()
                    pending_updates = []
                    touched = set()
                    touched_synced = 0
                local = len(pending_rows)
                pending_positions.append(position)
                pending_rows.append((obj.object_id, x, y, terms))
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
                    is_insert, per_worker, cells = plan_update(routing, item)
                    # Idle shard replicas (dual drain) no longer match H2.
                    self.invalidate_routing_caches()
                else:
                    is_insert, per_worker, cells = plans[position]
                    if is_insert:
                        routing.apply_insertion(per_worker)
                    else:
                        routing.apply_deletion(per_worker)
                pending_updates.append(
                    (position, is_insert, item.payload, per_worker, cells)
                )
        self._flush_fast(
            window, pending_positions, pending_rows, pending_coords,
            pending_groups, pending_updates,
        )
        window.objects = window_objects
        window.fanout = window_fanout
        if not window.ops:  # nothing to ship: settled now
            self._settle()
            self._finish_window(window)
            return
        # Settle the window still in flight, then leave this one in
        # flight.  Its H2 updates are applied, so its ops ship to the
        # survivors even when settling the previous window fails.
        try:
            self._settle()
        finally:
            batches = {worker: RouteBatch(ops) for worker, ops in window.ops.items()}
            window.submitted = self._timed(self.transport.submit, batches)
            hub = self._telemetry
            if hub is not None:
                window.span, window.seq = hub.span, hub.window_seq
            self._in_flight = window

    def _settle(self, wait: bool = True) -> bool:
        """Settle the window in flight, if any: collect its one exchange,
        settle every segment in flush order, then account it and close
        its span, all as if it had been exchanged at its own tail.

        ``wait=False`` (the replay loop's polling fill) settles only once
        :meth:`Transport.ready` says no reply is outstanding.  Returns
        whether a window is still in flight.  A window lost to a
        transport failure is kept for recovery (:meth:`_drop_in_flight`).
        """
        window = self._in_flight
        if window is None:
            return False
        if not (wait or self.transport.ready(window.submitted)):
            return True
        self._in_flight = None
        hub = self._telemetry
        if hub is not None:
            resumed = hub.span, hub.window_seq
            hub.span, hub.window_seq = window.span, window.seq
        try:
            replies = self._timed(self.transport.collect, window.submitted)
            for positions, groups, offsets in window.segments:
                self._settle_segment(replies, positions, groups, offsets, window.trace_workers)
            self._finish_window(window)
        except TransportError:
            self._abandoned.append(window.items)
            raise
        finally:
            if hub is not None:
                hub.span, hub.window_seq = resumed
        return False

    def _drop_in_flight(self) -> List[Sequence[StreamTuple]]:
        """For recovery: abandon, in stream order, the window whose settling
        failed and the one still in flight (the recovery's resync drains
        their replies), and hand back the window routed ahead."""
        windows, self._abandoned = self._abandoned, []
        if self._in_flight is not None:
            windows.append(self._in_flight.items)
            self._in_flight = None
        self._discard_ahead()
        return windows

    def _finish_window(self, window: _WindowRun) -> None:
        """Account a window whose replies are all in, then close its span."""
        totals = self.totals
        totals.objects += window.objects
        totals.tuples += window.objects
        totals.object_fanout += window.fanout
        dispatchers = self.dispatchers
        num_dispatchers = len(dispatchers)
        for slot in range(num_dispatchers):
            # Two additions per slot, in this order: the float sum is
            # pinned by tests/test_report_golden.py.
            dispatchers[slot].busy_cost += window.dispatcher_costs[slot]
            dispatchers[slot].busy_cost += window.update_costs[slot]
        # Dispatcher ids repeat cyclically from ``base``; emit the whole
        # window's worth at C speed.
        rotated = [
            dispatchers[(window.base + offset) % num_dispatchers].dispatcher_id
            for offset in range(num_dispatchers)
        ]
        self._traces.extend(
            islice(cycle(rotated), len(window.trace_costs)),
            window.trace_costs,
            window.trace_workers,
        )
        self._span_close()

    def _flush_fast(
        self,
        window: _WindowRun,
        positions: List[int],
        rows: List[ObjectRow],
        coords: List[CellCoord],
        groups: Dict[int, List[int]],
        updates: List[Tuple],
    ) -> None:
        """Flush one deferred segment: bulk object matching, then updates.

        Objects were already routed, charged to their dispatchers and
        grouped per worker during the arrival scan; here each worker's
        share of the segment becomes ordered ops — the object group
        first, then the deferred updates in stream order — appended to
        the window's per-worker lists, which :meth:`_execute_window` ships
        all at once and :meth:`_settle` settles segment by segment.  The
        update accounting and the recovery update log stay at flush time;
        a deletion's workers share one ``DeleteById``.
        """
        workers_map = self.workers
        totals = self.totals
        num_dispatchers = len(self.dispatchers)
        tuple_cost = DispatcherLedger.TUPLE_COST
        probe_cost = DispatcherLedger.PROBE_COST
        base = window.base
        trace_costs = window.trace_costs
        trace_workers = window.trace_workers
        log = self.recovery.log_update if self.recovery is not None else None
        shipped = window.ops
        touched = set(groups)  # the workers this segment gives an op
        if groups:
            offsets: Dict[int, int] = {}
            for worker_id, locals_ in groups.items():
                ops = shipped.setdefault(worker_id, [])
                offsets[worker_id] = len(ops)
                selected = [rows[local] for local in locals_]
                ops.append(MatchObjects(selected, [coords[local] for local in locals_]))
            window.segments.append((positions, groups, offsets))

        # The deferred updates' ops and coordinator-side accounting.  Their
        # worker-side effect (GI2 postings, load counters, busy time) is
        # applied by the ops; the per-tuple costs are the fixed
        # Definition-1 constants, so traces need no round trip.
        insert_cost = COST_MODEL.insert_handling
        delete_cost = COST_MODEL.delete_handling
        for position, is_insert, payload, per_worker, cells in updates:
            slot = (base + position) % num_dispatchers
            cost = tuple_cost + probe_cost * (cells if cells > 1 else 1)
            window.update_costs[slot] += cost
            worker_items: List[Tuple[int, float]] = []
            if is_insert:
                query = payload.query
                for worker_id, pairs in per_worker.items():
                    if worker_id in workers_map:
                        insertion = InsertPairs(query, pairs)
                        if log is not None:
                            log(worker_id, insertion)
                        shipped.setdefault(worker_id, []).append(insertion)
                        worker_items.append((worker_id, insert_cost))
                totals.insertions += 1
                totals.query_fanout += len(worker_items)
            else:
                op = DeleteById(payload.query_id)
                for worker_id in per_worker:
                    if worker_id in workers_map:
                        if log is not None:
                            log(worker_id, op.query_id)
                        shipped.setdefault(worker_id, []).append(op)
                        worker_items.append((worker_id, delete_cost))
                totals.deletions += 1
            touched.update(worker_id for worker_id, _ in worker_items)
            totals.tuples += 1
            trace_costs[position] = cost
            trace_workers[position] = worker_items
        span = self._telemetry.span if self._telemetry is not None else None
        if span is not None and len(touched) > span.match_endpoints:
            span.match_endpoints = len(touched)

    def _settle_segment(
        self,
        replies: Dict[int, List[Optional[MatchResults]]],
        positions: List[int],
        groups: Dict[int, List[int]],
        offsets: Dict[int, int],
        trace_workers: List[Optional[List[Tuple[int, float]]]],
    ) -> None:
        """Merge one flushed object run's match replies, in group order.

        ``offsets[worker]`` is the index of the run's ``MatchObjects`` op
        — hence of its reply — in the window's op list for that worker.
        """
        all_results: List[MatchResult] = []
        produced = 0
        for worker_id, locals_ in groups.items():
            reply = replies[worker_id][offsets[worker_id]]
            assert reply is not None
            if reply.results:
                all_results.extend(reply.results)
            produced += reply.produced_count
            for local, cost in zip(locals_, reply.costs):
                position = positions[local]
                entry = trace_workers[position]
                if entry is None:
                    trace_workers[position] = [(worker_id, cost)]
                else:
                    entry.append((worker_id, cost))
        if all_results or produced:
            self._deliver_results(all_results, produced)

    def _timed(self, call: Any, argument: Any) -> Any:
        """``call(argument)``, its wall time added to the open span's match hop."""
        hub = self._telemetry
        if hub is None or hub.span is None:
            return call(argument)
        span = hub.span
        started_ms = hub.now_ms()
        result = call(argument)
        if span.match_started_ms < 0:
            span.match_started_ms = started_ms
        span.match_ms += hub.now_ms() - started_ms
        return result

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
            # A window still in flight counts its objects once it settles.
            base = self.totals.tuples + (self._in_flight.objects if self._in_flight else 0)
            self._telemetry.open_span(base, size)

    def _span_close(self) -> None:
        """Record the in-flight window's span, then drain every gauge."""
        hub = self._telemetry
        if hub is not None and hub.close_span(len(self.dispatchers), self._merge.num_mergers):
            self._drain_gauges()

    def _observe(self) -> Snapshot:
        """Observe every endpoint once: workers, dispatch shards, mergers.

        The one read of remote state — one ``Observe`` round trip per
        endpoint (the in-process backends build identical observations
        locally); reports, gauges, load/memory reports and the profile
        are all views of it.  Purely read-only — an observed run's
        report is byte-identical to an unobserved one.  The window in flight
        settles first: an ``Observe`` behind its unread replies would desync.
        """
        self._settle()
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

    @property
    def result_hops(self) -> int:
        """Match results that reached the merger tier via the coordinator."""
        return self._result_hops

    @property
    def mergers(self) -> List[Observation]:
        """One fresh :class:`~repro.runtime.telemetry.Observation` per merger
        shard (``delivered`` / ``duplicates`` / ``busy_cost``), in merger id
        order, on every backend; per-subscriber deliveries are a
        ``memory`` sink's to count (:meth:`drain_sinks`)."""
        return list(self.merger_stats().values())

    def merger_stats(self) -> Dict[int, Observation]:
        """One :class:`Observation` per merger shard, sorted by merger id.

        On the multiprocess backend the request rides the shard inboxes,
        so it observes every delivery enqueued before it — reading stats
        after an ``exchange`` returned is always consistent.
        """
        self._settle()
        return self._merge.observe()

    def drain_sinks(self) -> Dict[int, List[MatchResult]]:
        """Drain every merger shard's sink buffer (memory sinks)."""
        self._settle()
        return self._merge.drain_sinks()

    def saturation_throughput(self) -> float:
        """Tuples per second when the bottleneck process is saturated."""
        return metrics.saturation_throughput(self.totals, self.dispatchers, self._observe())

    def latency_tracker(self, input_rate: Optional[float] = None) -> LatencyTracker:
        """Per-tuple latencies (ms) at ``input_rate`` (default: the report's)."""
        return metrics.latency_tracker(
            self.totals, self._traces, self.dispatchers, self._observe(), input_rate
        )

    def worker_load_report(self) -> LoadReport:
        self._settle()
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
        # ring and the JSONL.
        self._drain_gauges(observed)
        return metrics.run_report(
            self.totals, self._traces, self.dispatchers, observed, self.routing_index,
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
        self._settle()
        for dispatcher in self.dispatchers:
            dispatcher.reset_period()
        self.transport.call_all("reset_period")
        self._merge.reset_period()
        self._traces.clear()
        self.totals = RunTotals()
