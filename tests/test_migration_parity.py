"""Migration-parity regression tests (assignment-aware adjustment).

Every migration path — cell migration, Phase I text splits, global
finalisation — must re-register queries under exactly the ``(cell,
posting keyword)`` pairs shipped to the target, the same posting-plan
mechanism the dispatcher uses at insertion time.  These tests pin down

* memory parity: a worker's GI2 footprint for a query is identical
  whether the query arrived by dispatch or by migration;
* posting parity: after any adjustment round, no worker's GI2 posting
  entries exceed the ``(cell, posting keyword)`` pairs the routing index
  currently assigns to it;
* closed-loop equivalence: ``run_batched`` with ``adjust_every`` produces
  the same simulated results as the per-tuple ``run`` under the same
  adjustment schedule;
* deletion re-planning: across H1 changes, deletions remove exactly the
  H2 postings their insertions posted;
* ground truth: the delivered ``(query, object)`` pairs of an adjusted run
  — local migrations, and the dual-routing drain of a global adjustment —
  equal a brute-force ``STSQuery.matches`` replay.
"""

import copy
import dataclasses

import pytest

from repro.adjustment import GlobalAdjuster, GreedySelector, LocalLoadAdjuster
from repro.core import (
    Point,
    Rect,
    SpatioTextualObject,
    STSQuery,
    StreamTuple,
    TermStatistics,
)
from repro.partitioning import (
    HybridPartitioner,
    MetricTextPartitioner,
    PartitionPlan,
    PartitionUnit,
)
from repro.runtime import Cluster, ClusterConfig, QueryAssignment, WorkerNode
from repro.runtime.merge import SinkSpec
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset

from harness import (
    BOUNDS,
    assert_equivalent,
    available_backends,
    brute_force,
    control_sends,
    counted_worker_sends,
)


def live_assignments(cluster):
    """worker id -> {query id: (query, its registered (cell, keyword) pairs)}.

    Read over the workers' control surface (``snapshot_assignments``), so
    it works on every worker backend.
    """
    return {
        worker_id: {a.query.query_id: (a.query, set(a.pairs)) for a in assignments}
        for worker_id, assignments in cluster.transport.snapshot_assignments().items()
    }


def live_queries(cluster):
    """Every live query on any worker, by id."""
    return {
        query_id: query
        for registered in live_assignments(cluster).values()
        for query_id, (query, _) in registered.items()
    }


def expected_assignments(cluster):
    """Per-(worker, query) posting pairs implied by the current routing index."""
    routing = cluster.routing_index
    queries = live_queries(cluster)
    expected = {}
    for query in queries.values():
        for worker_id, pairs in routing.posting_assignments(query)[0].items():
            expected.setdefault((worker_id, query.query_id), set()).update(pairs)
    return expected


def posting_parity_violations(cluster):
    """(worker, query, extra pairs) registrations the routing index does not assign."""
    expected = expected_assignments(cluster)
    violations = []
    for worker_id, registered in live_assignments(cluster).items():
        for query_id, (_, actual) in registered.items():
            extra = actual - expected.get((worker_id, query_id), set())
            if extra:
                violations.append((worker_id, query_id, sorted(extra)))
    return violations


def delivered_pairs(cluster):
    """Drain the memory sinks into a set of ``(query id, object id)`` pairs."""
    return {
        (result.query_id, result.object_id)
        for results in cluster.drain_sinks().values()
        for result in results
    }


def dense_stream(group):
    """A UK stream: ~15x the matches per object of the US fixtures."""
    tweets = make_dataset("uk", seed=5)
    queries = QueryGenerator(tweets, seed=6)
    return WorkloadStream(tweets, queries, StreamConfig(mu=300, group=group), seed=7)


def churn_stream():
    """``us_q3_churn`` in miniature: Q3 queries, one update per object."""
    tweets = make_dataset("us", seed=9)
    queries = QueryGenerator(tweets, seed=10)
    return WorkloadStream(
        tweets, queries, StreamConfig(mu=300, objects_per_update=1, group="Q3"), seed=11
    )


def build_imbalanced_cluster(stream, num_workers=4, backend="inprocess"):
    sample = stream.partitioning_sample(600)
    plan = MetricTextPartitioner().partition(sample, num_workers)
    config = ClusterConfig(num_dispatchers=2, num_workers=num_workers, backend=backend)
    cluster = Cluster(plan, config)
    cluster.run(stream.tuples(800))
    return cluster


def total_postings(cluster):
    """Cluster-wide physical postings (compacted, so lazy deletions don't skew)."""
    return sum(worker.compacted_posting_count() for worker in cluster.workers.values())


class TestDispatchVsMigrationMemory:
    """A query's worker-side footprint is the same however it arrived."""

    def _queries(self):
        return [
            STSQuery.create("kobe AND music", Rect(5, 5, 30, 20)),
            STSQuery.create("jazz OR concert", Rect(10, 0, 60, 40)),
            STSQuery.create("city", Rect(0, 0, 12, 12)),
        ]

    def test_install_matches_dispatch_footprint(self):
        dispatched = WorkerNode(0, BOUNDS, granularity=16)
        migrated = WorkerNode(1, BOUNDS, granularity=16)
        queries = self._queries()
        for query in queries:
            dispatched.handle_insertion(query)
            pairs = tuple(dispatched.index.posting_pairs_of_query(query.query_id))
            migrated.install_queries([QueryAssignment(query, pairs, True)])
        assert migrated.memory_bytes() == dispatched.memory_bytes()
        assert migrated.index.posting_count == dispatched.index.posting_count

    def test_extract_then_install_roundtrip_preserves_memory(self):
        reference = WorkerNode(0, BOUNDS, granularity=16)
        roundtrip = WorkerNode(1, BOUNDS, granularity=16)
        target = WorkerNode(2, BOUNDS, granularity=16)
        queries = self._queries()
        for query in queries:
            reference.handle_insertion(query)
            roundtrip.handle_insertion(query)
        cells = set()
        for query in queries:
            cells |= roundtrip.index.cells_of_query(query.query_id)
        shipped = roundtrip.extract_cells(cells)
        target.install_queries(shipped)
        assert roundtrip.index.posting_count == 0
        assert target.memory_bytes() == reference.memory_bytes()
        assert target.index.posting_count == reference.index.posting_count


class TestAdjustmentPostingParity:
    @pytest.mark.parametrize("backend", available_backends(["inprocess", "multiprocess"]))
    def test_cell_migration_stays_within_assignment(self, small_stream, backend):
        with build_imbalanced_cluster(small_stream, backend=backend) as cluster:
            before = total_postings(cluster)
            loads = cluster.worker_load_report()
            source = loads.most_loaded()
            target = loads.least_loaded()
            cells = [stat.cell for stat in cluster.worker_cell_stats(source)[:5]]
            record = cluster.migrate_cells(source, target, cells)
            assert record.queries_shipped > 0
            # Pairs are conserved 1:1 — migration never inflates posting lists.
            assert total_postings(cluster) == before
            assert posting_parity_violations(cluster) == []

    def test_phase1_split_stays_within_assignment(self, small_stream):
        cluster = build_imbalanced_cluster(small_stream)
        adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.2, hot_cells=8)
        before = total_postings(cluster)
        report = adjuster.adjust(cluster)
        assert report.triggered
        assert total_postings(cluster) == before
        assert posting_parity_violations(cluster) == []

    HOT_KEYWORDS = ["kobe", "music", "jazz", "rock", "city", "photo"]

    def _hot_cell_tuples(self):
        """Six single-keyword queries in one cell, then 30 objects there."""
        keywords = self.HOT_KEYWORDS
        tuples = [
            StreamTuple.insert(STSQuery.create(keyword, Rect(1, 1, 2, 2)))
            for keyword in keywords
        ]
        tuples += [
            StreamTuple.object(
                SpatioTextualObject.create(keywords[index % len(keywords)], Point(1.5, 1.5))
            )
            for index in range(30)
        ]
        return tuples

    def _hot_cell_cluster(self, backend="inprocess", tuples=None):
        """Two workers; everything lands in one space-partitioned hot cell."""
        stats = TermStatistics()
        for keyword in self.HOT_KEYWORDS:
            stats.add_document([keyword])
        plan = PartitionPlan(
            units=[
                PartitionUnit(region=Rect(0, 0, 90, 100), terms=None, worker_id=0),
                PartitionUnit(region=Rect(90, 0, 100, 100), terms=None, worker_id=1),
            ],
            num_workers=2,
            bounds=BOUNDS,
            statistics=stats,
            object_filtering=True,
        )
        config = ClusterConfig(num_dispatchers=1, num_workers=2, backend=backend)
        cluster = Cluster(plan, config)
        cluster.run(tuples if tuples is not None else self._hot_cell_tuples())
        return cluster

    def test_phase1_traffic_is_accounted(self):
        """Regression: Phase I shipments count toward the migration cost."""
        cluster = self._hot_cell_cluster()
        adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.1)
        report = adjuster.adjust(cluster)
        assert report.triggered
        assert report.phase1_splits >= 1
        phase1_records = report.records[: report.phase1_splits]
        shipped = sum(record.queries_shipped for record in phase1_records)
        assert shipped > 0
        assert report.queries_moved >= shipped
        assert report.bytes_moved >= sum(r.bytes_moved for r in phase1_records) > 0
        assert report.migration_seconds >= sum(r.seconds for r in phase1_records) > 0
        assert posting_parity_violations(cluster) == []

    def test_phase1_split_agrees_across_backends(self):
        """A Phase I text split over worker processes: the same report and
        the same per-worker registrations as in process, in 7 control
        messages (13 when the split read the cell through ``worker.index``)."""
        outcomes = []
        tuples = self._hot_cell_tuples()
        for backend in ("inprocess", "multiprocess"):
            with self._hot_cell_cluster(backend, tuples) as cluster:
                adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.1)
                with counted_worker_sends() as sends:
                    report = adjuster.adjust(cluster)
                assert report.triggered
                assert report.phase1_splits >= 1
                if backend == "multiprocess":
                    control = control_sends(sends)
                    assert sum(control.values()) <= 7, control
                    assert control["cell_keyword_counts"] == report.phase1_splits
                fields = dataclasses.asdict(report)
                del fields["selection_time_ms"]
                shapes = {
                    worker_id: [(a.query.query_id, a.pairs, a.moved) for a in assignments]
                    for worker_id, assignments in cluster.transport.snapshot_assignments().items()
                }
                outcomes.append((fields, shapes))
        assert outcomes[0] == outcomes[1]

    def test_global_finalize_stays_within_assignment(self, q3_stream):
        sample = q3_stream.partitioning_sample(600)
        poor_plan = MetricTextPartitioner().partition(sample, 4)
        cluster = Cluster(poor_plan, ClusterConfig(num_dispatchers=2, num_workers=4))
        cluster.run(q3_stream.tuples(300))
        adjuster = GlobalAdjuster(HybridPartitioner(), improvement_threshold=0.0)
        check = adjuster.check(cluster, sample)
        if not check.repartitioned:
            pytest.skip("repartitioning not deemed beneficial on this sample")
        cluster.run(q3_stream.tuples(200))
        final = adjuster.finalize(cluster)
        assert final.finalized
        assert posting_parity_violations(cluster) == []


class TestDeletionReplanning:
    """A deletion re-plans from the routing index and removes exactly the
    H2 postings its insertion posted, however H1 changed in between."""

    @pytest.mark.parametrize("dispatch_backend", ["inline", "inprocess"])
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_closed_loop_h2_equals_a_refill_of_the_live_queries(
        self, dispatch_backend, batch_size
    ):
        """Churn-shaped closed loop (Phase I and II, checkpoints): the
        coordinator's H2 equals the final index's H2 rebuilt from scratch
        out of the live queries."""
        stream = churn_stream()
        plan = HybridPartitioner().partition(stream.partitioning_sample(600), 8)
        tuples = list(stream.tuples(1200))
        config = ClusterConfig(
            num_dispatchers=2, num_workers=8, checkpoint_every=500,
            dispatch_backend=dispatch_backend,
        )
        with Cluster(plan, config) as cluster:
            cluster.run_batched(
                tuples, batch_size=batch_size, adjust_every=400,
                local_adjuster=LocalLoadAdjuster(GreedySelector(), sigma=1.2),
            )
            assert cluster.migrations
            routing = cluster.routing_index
            refilled = copy.deepcopy(routing)
            refilled.clear_h2()
            for query in live_queries(cluster).values():
                refilled.insertion_plan_apply(query)

        def h2(index):
            return {coord: cell.h2 for coord, cell in index.cells().items() if cell.h2}

        assert h2(routing) == h2(refilled)
        assert routing.memory_bytes() == refilled.memory_bytes()


class TestDedupAcrossMigration:
    """Merger dedup semantics survive Section V adjustment rounds.

    Results are partitioned across mergers by ``query_id % num_mergers``
    — an assignment migrations cannot change — so a query replicated to
    two workers keeps producing exactly one delivery per object even
    after an adjustment round moves one of its cells to another worker.
    """

    PAIRS = 6

    def _duplication_cluster(self, num_workers=4):
        """OR queries whose clauses land on different workers, plus a hot
        keyword pair so the local adjuster genuinely triggers."""
        import random

        rng = random.Random(17)
        queries = []
        for index in range(90):
            j = index % self.PAIRS
            x, y = rng.uniform(0, 60), rng.uniform(0, 60)
            queries.append(
                STSQuery.create(
                    "alpha%d OR beta%d" % (j, j), Rect(x, y, x + 40, y + 40)
                )
            )

        def make_object(object_id, hot_fraction):
            j = 0 if rng.random() < hot_fraction else rng.randrange(self.PAIRS)
            terms = frozenset({"alpha%d" % j, "beta%d" % j})
            return SpatioTextualObject(
                object_id=object_id,
                text="",
                location=Point(rng.uniform(0, 100), rng.uniform(0, 100)),
                terms=terms,
            )

        warmup_objects = [make_object(index, 0.8) for index in range(300)]
        from repro.partitioning import WorkloadSample

        sample = WorkloadSample(
            objects=warmup_objects[:150], insertions=queries, deletions=[], bounds=BOUNDS
        )
        plan = MetricTextPartitioner().partition(sample, num_workers)
        cluster = Cluster(plan, ClusterConfig(num_dispatchers=2, num_workers=num_workers))
        tuples = [StreamTuple.insert(query) for query in queries]
        tuples += [StreamTuple.object(obj) for obj in warmup_objects]
        cluster.run(tuples)
        continuation = [make_object(1000 + index, 0.3) for index in range(200)]
        return cluster, continuation

    def _replicated_queries(self, cluster):
        owners = {}
        for worker_id, registered in live_assignments(cluster).items():
            for query_id in registered:
                owners.setdefault(query_id, set()).add(worker_id)
        return {query_id for query_id, ids in owners.items() if len(ids) >= 2}

    def test_replicated_query_single_delivery_after_adjustment(self):
        cluster, continuation = self._duplication_cluster()
        replicated_before = self._replicated_queries(cluster)
        assert replicated_before, "the workload must replicate queries"

        adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.1)
        report = adjuster.adjust(cluster)
        assert report.triggered, "the Section V round must actually fire"
        assert report.cells_moved > 0 or report.phase1_splits > 0
        moved_cells = {cell for record in report.records for cell in record.cells}
        assert moved_cells, "the round must actually move cells"
        replicated = self._replicated_queries(cluster)
        assert replicated, "replication must survive the adjustment"

        # Brute-force ground truth: the distinct (query, object) matches
        # of the continuation against the post-adjustment live population.
        live = live_queries(cluster)
        expected = 0
        expected_replicated = 0
        for obj in continuation:
            for query in live.values():
                if query.matches(obj):
                    expected += 1
                    if query.query_id in replicated:
                        expected_replicated += 1
        assert expected_replicated > 0, (
            "the continuation must match queries that are still replicated"
        )

        before = cluster.report()
        cluster.run([StreamTuple.object(obj) for obj in continuation])
        after = cluster.report()
        delivered = after.matches_delivered - before.matches_delivered
        produced = after.matches_produced - before.matches_produced
        # Replicated queries produced each match once per worker copy...
        assert produced > expected
        # ...but every object was delivered exactly once per query.
        assert delivered == expected
        assert posting_parity_violations(cluster) == []


class TestClosedLoopEquivalence:
    def _build_pair(self, stream, num_objects=900, num_workers=4):
        sample = stream.partitioning_sample(600)
        plan = MetricTextPartitioner().partition(sample, num_workers)
        config = ClusterConfig(num_dispatchers=2, num_workers=num_workers)
        tuples = list(stream.tuples(num_objects))
        return Cluster(plan, config), Cluster(plan, config), tuples

    def _assert_reports_equal(self, reference, batched):
        for field in (
            "tuples_processed",
            "objects_processed",
            "insertions_processed",
            "deletions_processed",
            "matches_produced",
            "matches_delivered",
            "object_fanout",
            "query_fanout",
        ):
            assert getattr(reference, field) == getattr(batched, field), field
        assert batched.throughput == pytest.approx(reference.throughput, rel=1e-9)
        assert batched.worker_memory == reference.worker_memory
        assert batched.dispatcher_memory == reference.dispatcher_memory
        for worker, load in reference.worker_loads.items():
            assert batched.worker_loads[worker] == pytest.approx(load, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("batch_size", [64, 256])
    def test_batched_closed_loop_matches_per_tuple(self, small_stream, batch_size):
        reference, batched, tuples = self._build_pair(small_stream)
        ref_adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.2)
        bat_adjuster = LocalLoadAdjuster(GreedySelector(), sigma=1.2)
        ref_report = reference.run(tuples, adjust_every=250, local_adjuster=ref_adjuster)
        bat_report = batched.run_batched(
            tuples, batch_size=batch_size, adjust_every=250, local_adjuster=bat_adjuster
        )
        # The adjustment schedule fired identically...
        assert len(ref_adjuster.history) == len(bat_adjuster.history)
        assert [r.triggered for r in ref_adjuster.history] == [
            r.triggered for r in bat_adjuster.history
        ]
        assert any(r.triggered for r in ref_adjuster.history), "schedule must trigger"
        assert len(reference.migrations) == len(batched.migrations)
        for ref_record, bat_record in zip(reference.migrations, batched.migrations):
            assert set(ref_record.cells) == set(bat_record.cells)
            assert ref_record.queries_moved == bat_record.queries_moved
            assert ref_record.queries_copied == bat_record.queries_copied
            assert ref_record.bytes_moved == bat_record.bytes_moved
        # ...and every simulated outcome matches.
        self._assert_reports_equal(ref_report, bat_report)
        assert posting_parity_violations(batched) == []

    def test_closed_loop_states_converge(self, small_stream):
        """After a closed-loop run both engines keep producing equal results."""
        reference, batched, tuples = self._build_pair(small_stream, num_objects=700)
        reference.run(
            tuples, adjust_every=200,
            local_adjuster=LocalLoadAdjuster(GreedySelector(), sigma=1.2),
        )
        batched.run_batched(
            tuples, batch_size=128, adjust_every=200,
            local_adjuster=LocalLoadAdjuster(GreedySelector(), sigma=1.2),
        )
        more = list(small_stream.tuples(300))
        ref_before = sum(m.delivered for m in reference.mergers)
        bat_before = sum(m.delivered for m in batched.mergers)
        reference.run(more)
        batched.run_batched(more, batch_size=128)
        ref_delta = sum(m.delivered for m in reference.mergers) - ref_before
        bat_delta = sum(m.delivered for m in batched.mergers) - bat_before
        assert ref_delta == bat_delta

    def test_closed_loop_report_covers_whole_stream(self, small_stream):
        """Regression: barrier resets must not truncate the run report."""
        plain, adjusted, tuples = self._build_pair(small_stream, num_objects=700)
        plain_report = plain.run(tuples)
        adjusted_report = adjusted.run(
            tuples, adjust_every=200,
            local_adjuster=LocalLoadAdjuster(GreedySelector(), sigma=1.2),
        )
        assert adjusted_report.tuples_processed == plain_report.tuples_processed
        assert adjusted_report.objects_processed == plain_report.objects_processed
        # Migrations preserve matching, so the whole-stream delivery count
        # must equal the unadjusted run's.
        assert adjusted_report.matches_delivered == plain_report.matches_delivered
        assert adjusted_report.throughput > 0

    def test_closed_loop_with_global_adjuster_runs(self, q3_stream):
        """The global adjuster participates in the closed loop end to end."""
        sample = q3_stream.partitioning_sample(600)
        plan = MetricTextPartitioner().partition(sample, 4)
        cluster = Cluster(plan, ClusterConfig(num_dispatchers=2, num_workers=4))
        adjuster = GlobalAdjuster(HybridPartitioner(), improvement_threshold=0.0)
        cluster.run_batched(
            q3_stream.tuples(900), batch_size=128,
            adjust_every=300, global_adjuster=adjuster,
        )
        assert adjuster.history, "the closed loop must drive the global adjuster"
        finalized = [r for r in adjuster.history if r.finalized]
        if finalized:
            # Once finalised, routing is single-strategy and parity holds.
            assert posting_parity_violations(cluster) == []
        assert adjuster.pending_plan is None or finalized == []


class TestAdjustedRunsAgainstBruteForce:
    """Delivered pairs of adjusted runs equal a brute-force replay."""

    @pytest.mark.parametrize(
        "shape, backend, batch_size",
        [
            pytest.param("dense", "inprocess", 1, id="per-tuple"),
            pytest.param("dense", "inprocess", 128, id="batched"),
            *(
                pytest.param("churn", backend, size, id="churn-%s-%s" % (driver, backend))
                for backend in available_backends(["inprocess", "multiprocess"])
                for driver, size in (("per-tuple", 1), ("batched", 128))
            ),
        ],
    )
    def test_local_adjustment_delivers_exactly_brute_force(self, shape, backend, batch_size):
        """LocalLoadAdjuster: migrations ship routing-grid ``(cell,
        keyword)`` pairs into the workers' GI2 grids verbatim.

        ``dense``: the UK stream under a hybrid plan.  ``churn``: one
        update per object under a text plan, with checkpoints — deletions
        keep arriving after every round, half of them on an insertion
        plan the round kept.
        """
        if shape == "dense":
            stream = dense_stream("Q1")
            plan = HybridPartitioner().partition(stream.partitioning_sample(600), 8)
            tuples = list(stream.tuples(1500))
            settings = {}
        else:
            stream = churn_stream()
            plan = MetricTextPartitioner().partition(stream.partitioning_sample(600), 8)
            tuples = list(stream.tuples(1200))
            settings = {"checkpoint_every": 500}
        config = ClusterConfig(
            num_dispatchers=2, num_workers=8, backend=backend,
            sink=SinkSpec(kind="memory"), **settings,
        )
        with Cluster(plan, config) as cluster:
            cluster.run_batched(
                tuples, batch_size=batch_size, adjust_every=400,
                local_adjuster=LocalLoadAdjuster(GreedySelector(), sigma=1.2),
            )
            assert cluster.migrations
            assert delivered_pairs(cluster) == brute_force(tuples)

    def _run_global_drain(self, batch_size):
        """Inserts, deletes and objects between ``check`` and ``finalize``.

        The drain stream re-yields the warm-up insertions (live pre-drain
        queries registered again under the new strategy) and carries one
        crafted collision: a new query sharing region and expression — so
        every ``(cell, keyword, worker)`` triple — with a pre-drain query
        that is then deleted.  Delivered pairs are checked against brute
        force after every phase; returns the phases' reports.
        """
        stream = dense_stream("Q3")
        sample = stream.partitioning_sample(600)
        plan = MetricTextPartitioner().partition(sample, 4)
        config = ClusterConfig(
            num_dispatchers=2, num_workers=4, sink=SinkSpec(kind="memory")
        )
        live = {}
        with Cluster(plan, config) as cluster:
            warm = list(stream.tuples(300))
            reports = [cluster.run_batched(warm, batch_size=batch_size)]
            assert delivered_pairs(cluster) == brute_force(warm, live)
            adjuster = GlobalAdjuster(HybridPartitioner(), improvement_threshold=0.0)
            if not adjuster.check(cluster, sample).repartitioned:
                pytest.skip("repartitioning not deemed beneficial on this sample")
            before = stream.live_queries()[0]
            during = STSQuery.create(before.expression, before.region)
            hit = SpatioTextualObject.create(
                " ".join(sorted(before.keywords())), before.region.center
            )
            drain = list(stream.tuples(600)) + [
                StreamTuple.insert(during),
                StreamTuple.delete(before),
                StreamTuple.object(hit),
            ]
            reports.append(cluster.run_batched(drain, batch_size=batch_size))
            expected = brute_force(drain, live)
            assert (during.query_id, hit.object_id) in expected
            assert delivered_pairs(cluster) == expected
            assert adjuster.finalize(cluster).finalized
            after = list(stream.tuples(300))
            reports.append(cluster.run_batched(after, batch_size=batch_size))
            assert delivered_pairs(cluster) == brute_force(after, live)
        return reports

    @pytest.mark.parametrize("batch_size", [1, 128], ids=["per-tuple", "batched"])
    def test_global_drain_delivers_exactly_brute_force(self, batch_size):
        self._run_global_drain(batch_size)

    def test_global_drain_reports_agree_across_drivers(self):
        """Check -> drain (with the collision) -> finalize: the per-tuple and
        the batched driver report the same run after every phase."""
        per_tuple = self._run_global_drain(1)
        batched = self._run_global_drain(128)
        assert len(per_tuple) == len(batched) == 3
        for reference, report in zip(per_tuple, batched):
            assert_equivalent(reference, report)
