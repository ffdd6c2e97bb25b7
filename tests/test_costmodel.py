"""Unit tests for the Definition-1 / Definition-3 cost model."""

import dataclasses

import pytest

from repro.core.costmodel import COST_MODEL, CostModel, LoadReport, WorkerLoadCounters, cell_load


class TestCostModel:
    def test_definition_one_formula(self):
        model = CostModel(match_check=2.0, object_handling=3.0, insert_handling=5.0, delete_handling=7.0)
        # L = c1*|O|*|Qi| + c2*|O| + c3*|Qi| + c4*|Qd|
        value = model.worker_load(objects=4, insertions=2, deletions=3)
        assert value == pytest.approx(2.0 * 4 * 2 + 3.0 * 4 + 5.0 * 2 + 7.0 * 3)

    def test_interaction_override(self):
        model = CostModel(match_check=1.0, object_handling=0.0, insert_handling=0.0, delete_handling=0.0)
        assert model.worker_load(10, 5, 0, average_resident_queries=2) == pytest.approx(20.0)

    def test_zero_workload(self):
        assert CostModel().worker_load(0, 0, 0) == 0.0

    def test_defaults_are_positive(self):
        model = CostModel()
        assert model.match_check > 0
        assert model.object_handling > 0
        assert model.insert_handling > 0
        assert model.delete_handling > 0

    def test_shared_model_is_the_default_and_immutable(self):
        """Every pricing site reads one module-level model; none can edit it."""
        assert COST_MODEL == CostModel()
        with pytest.raises(dataclasses.FrozenInstanceError):
            COST_MODEL.match_check = 0.0


class TestCellLoad:
    def test_definition_three(self):
        assert cell_load(10, 2.5) == pytest.approx(25.0)

    def test_zero_objects(self):
        assert cell_load(0, 100) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cell_load(-1, 5)
        with pytest.raises(ValueError):
            cell_load(1, -5)


class TestWorkerLoadCounters:
    def test_record_and_load(self):
        counters = WorkerLoadCounters()
        counters.record_object_batch(1, checks=3, matches=1)
        counters.record_object_batch(1, checks=0, matches=0)
        counters.insertions += 1
        counters.deletions += 2
        model = CostModel(match_check=1.0, object_handling=10.0, insert_handling=100.0, delete_handling=1000.0)
        assert counters.load(model) == pytest.approx(3 + 20 + 100 + 2000)
        assert counters.matches == 1

    def test_reset(self):
        counters = WorkerLoadCounters()
        counters.record_object_batch(1, checks=5)
        counters.reset()
        assert counters.objects == 0
        assert counters.match_checks == 0
        assert counters.load(CostModel()) == 0.0

    def test_snapshot_is_independent(self):
        counters = WorkerLoadCounters()
        counters.insertions += 1
        snap = counters.snapshot()
        counters.insertions += 1
        assert snap.insertions == 1
        assert counters.insertions == 2


class TestLoadReport:
    def test_aggregates(self):
        report = LoadReport(worker_loads={0: 10.0, 1: 20.0, 2: 30.0})
        assert report.total == 60.0
        assert report.maximum == 30.0
        assert report.minimum == 10.0
        assert report.imbalance == pytest.approx(3.0)

    def test_zero_minimum_gives_infinite_imbalance(self):
        report = LoadReport(worker_loads={0: 0.0, 1: 5.0})
        assert report.imbalance == float("inf")

    def test_all_zero_loads_are_balanced(self):
        report = LoadReport(worker_loads={0: 0.0, 1: 0.0})
        assert report.imbalance == 1.0

    def test_empty_report(self):
        report = LoadReport()
        assert report.total == 0.0
        assert report.imbalance == 1.0
        assert report.most_loaded() is None
        assert report.least_loaded() is None

    def test_most_and_least_loaded(self):
        report = LoadReport(worker_loads={3: 1.0, 5: 9.0, 7: 4.0})
        assert report.most_loaded() == 5
        assert report.least_loaded() == 3
