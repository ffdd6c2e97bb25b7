"""Unit tests for WorkloadSample, PartitionUnit and PartitionPlan."""

import pytest

from repro.core import CostModel, Point, Rect, STSQuery, SpatioTextualObject
from repro.partitioning import PartitionPlan, PartitionUnit, WorkloadSample


BOUNDS = Rect(0, 0, 100, 100)


def obj(text, x, y):
    return SpatioTextualObject.create(text, Point(x, y))


def query(expr, rect):
    return STSQuery.create(expr, rect)


@pytest.fixture
def simple_plan():
    units = [
        PartitionUnit(region=Rect(0, 0, 50, 100), terms=None, worker_id=0),
        PartitionUnit(region=Rect(50, 0, 100, 100), terms=frozenset({"kobe", "retired"}), worker_id=1),
        PartitionUnit(region=Rect(50, 0, 100, 100), terms=frozenset({"music", "jazz"}), worker_id=2),
    ]
    return PartitionPlan(units=units, num_workers=3, bounds=BOUNDS)


class TestWorkloadSample:
    def test_bounds_inferred_from_data(self):
        sample = WorkloadSample(
            objects=[obj("kobe", 10, 20), obj("music", 90, 80)],
            insertions=[query("kobe", Rect(0, 0, 5, 5))],
        )
        assert sample.bounds.contains_point(Point(10, 20))
        assert sample.bounds.contains_point(Point(90, 80))

    def test_empty_sample_gets_default_bounds(self):
        sample = WorkloadSample(objects=[], insertions=[])
        assert sample.bounds.area > 0

    def test_statistics_built_from_objects(self):
        sample = WorkloadSample(objects=[obj("kobe kobe retired", 1, 1)], insertions=[])
        assert sample.term_statistics.frequency("kobe") == 1  # terms de-duplicated per object
        assert "retired" in sample.term_statistics

    def test_vocabulary_includes_query_keywords(self):
        sample = WorkloadSample(
            objects=[obj("kobe", 1, 1)],
            insertions=[query("storm AND flood", Rect(0, 0, 1, 1))],
        )
        assert {"kobe", "storm", "flood"} <= sample.vocabulary()

    def test_len(self):
        sample = WorkloadSample(
            objects=[obj("a b", 1, 1)],
            insertions=[query("kobe", Rect(0, 0, 1, 1))],
            deletions=[query("kobe", Rect(0, 0, 1, 1))],
            bounds=BOUNDS,
        )
        assert len(sample) == 3


class TestPartitionUnit:
    def test_space_unit_accepts_any_text(self):
        unit = PartitionUnit(region=Rect(0, 0, 10, 10), terms=None, worker_id=0)
        assert unit.accepts_object(obj("anything", 5, 5))
        assert not unit.accepts_object(obj("anything", 50, 5))
        assert unit.terms is None

    def test_text_unit_requires_term_overlap(self):
        unit = PartitionUnit(region=Rect(0, 0, 10, 10), terms=frozenset({"kobe"}), worker_id=0)
        assert unit.accepts_object(obj("kobe retired", 5, 5))
        assert not unit.accepts_object(obj("music", 5, 5))
        assert unit.terms is not None

    def test_query_acceptance(self):
        unit = PartitionUnit(region=Rect(0, 0, 10, 10), terms=frozenset({"kobe"}), worker_id=0)
        assert unit.accepts_query(query("kobe AND retired", Rect(5, 5, 20, 20)))
        assert not unit.accepts_query(query("music", Rect(5, 5, 20, 20)))
        assert not unit.accepts_query(query("kobe", Rect(50, 50, 60, 60)))


class TestPartitionPlanRouting:
    def test_route_object_space_side(self, simple_plan):
        assert simple_plan.route_object(obj("whatever", 10, 10)) == {0}

    def test_route_object_text_side(self, simple_plan):
        assert simple_plan.route_object(obj("kobe", 80, 10)) == {1}
        assert simple_plan.route_object(obj("jazz kobe", 80, 10)) == {1, 2}
        assert simple_plan.route_object(obj("unknown", 80, 10)) == set()

    def test_route_query(self, simple_plan):
        assert simple_plan.route_query(query("kobe", Rect(60, 5, 70, 15))) == {1}
        assert simple_plan.route_query(query("kobe", Rect(40, 5, 70, 15))) == {0, 1}

    def test_workers(self, simple_plan):
        assert simple_plan.workers() == {0, 1, 2}


class TestPlanMaterialisation:
    def test_to_gridt_routes_like_plan_for_queries(self, simple_plan):
        index = simple_plan.to_gridt(granularity=20)
        q = query("kobe", Rect(60, 5, 70, 15))
        assert index.route_insertion(q) <= simple_plan.route_query(q)

    def test_to_kdt_tree_routes_objects_like_plan(self, simple_plan):
        tree = simple_plan.to_kdt_tree()
        for probe in [obj("kobe", 80, 20), obj("whatever", 20, 20), obj("jazz", 80, 80)]:
            assert tree.route_object(probe) == simple_plan.route_object(probe)


class TestEvaluation:
    def test_worker_loads_shape(self, simple_plan):
        sample = WorkloadSample(
            objects=[obj("kobe", 80, 10), obj("music", 20, 10)],
            insertions=[query("kobe", Rect(60, 5, 70, 15))],
            bounds=BOUNDS,
        )
        report = simple_plan.worker_loads(sample)
        assert set(report.worker_loads) == {0, 1, 2}
        assert report.total > 0

    def test_worker_loads_respect_routing(self, simple_plan, monkeypatch):
        sample = WorkloadSample(
            objects=[obj("kobe", 80, 10)] * 0 or [obj("kobe", 80, 10)],
            insertions=[],
            bounds=BOUNDS,
        )
        model = CostModel(match_check=0.0, object_handling=1.0, insert_handling=0.0, delete_handling=0.0)
        monkeypatch.setattr("repro.partitioning.base.COST_MODEL", model)
        report = simple_plan.worker_loads(sample)
        assert report.worker_loads[1] == pytest.approx(1.0)
        assert report.worker_loads[0] == 0.0

    def test_deletions_counted(self, simple_plan, monkeypatch):
        q = query("kobe", Rect(60, 5, 70, 15))
        sample = WorkloadSample(objects=[], insertions=[], deletions=[q], bounds=BOUNDS)
        model = CostModel(match_check=0.0, object_handling=0.0, insert_handling=0.0, delete_handling=2.0)
        monkeypatch.setattr("repro.partitioning.base.COST_MODEL", model)
        report = simple_plan.worker_loads(sample)
        assert report.worker_loads[1] == pytest.approx(2.0)

    def test_replication_factor(self, simple_plan):
        spanning = query("kobe", Rect(40, 5, 70, 15))       # workers 0 and 1
        local = query("music", Rect(10, 10, 20, 20))         # worker 0 only
        sample = WorkloadSample(objects=[], insertions=[spanning, local], bounds=BOUNDS)
        assert simple_plan.replication_factor(sample) == pytest.approx(1.5)

    def test_replication_factor_empty_sample(self, simple_plan):
        sample = WorkloadSample(objects=[], insertions=[], bounds=BOUNDS)
        assert simple_plan.replication_factor(sample) == 0.0
