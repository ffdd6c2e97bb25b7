"""Unit tests for the hybrid partitioning algorithm (Algorithm 1)."""

import functools
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
import repro.partitioning.hybrid as hybrid_module
from repro.core.expression import BooleanExpression
from repro.partitioning import (
    HybridConfig,
    HybridPartitioner,
    KDTreeSpacePartitioner,
    MetricTextPartitioner,
    WorkloadSample,
)
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset

#: The ``src`` directory the suite runs against (for the subprocess test).
SRC = str(Path(repro.__file__).resolve().parent.parent)


class TestPlanShape:
    def test_all_workers_receive_units(self, toy_sample):
        plan = HybridPartitioner().partition(toy_sample, 4)
        assert {unit.worker_id for unit in plan.units} == {0, 1, 2, 3}

    def test_object_filtering_enabled(self, toy_sample):
        plan = HybridPartitioner().partition(toy_sample, 4)
        assert plan.object_filtering is True

    def test_partitioner_name(self, toy_sample):
        assert HybridPartitioner().partition(toy_sample, 2).partitioner_name == "hybrid"

    def test_invalid_worker_count(self, toy_sample):
        with pytest.raises(ValueError):
            HybridPartitioner().partition(toy_sample, 0)

    def test_single_worker(self, toy_sample):
        plan = HybridPartitioner().partition(toy_sample, 1)
        assert plan.workers() == {0}

    def test_more_workers_than_nodes_still_covered(self, toy_sample):
        plan = HybridPartitioner().partition(toy_sample, 16)
        assert len(plan.workers()) == 16

    def test_empty_sample(self, bounds):
        sample = WorkloadSample(objects=[], insertions=[], bounds=bounds)
        plan = HybridPartitioner().partition(sample, 4)
        assert plan.units, "plan must not be empty even for an empty sample"


class TestRoutingCorrectness:
    def test_matching_objects_reach_query_workers(self, toy_sample):
        plan = HybridPartitioner().partition(toy_sample, 4)
        queries = toy_sample.insertions[:60]
        objects = toy_sample.objects[:120]
        for query in queries:
            query_workers = plan.route_query(query)
            assert query_workers, "query must be assigned to at least one worker"
            for obj in objects:
                if query.matches(obj):
                    assert plan.route_object(obj) & query_workers


class TestQuality:
    def test_balance_constraint_approximately_met(self, toy_sample):
        config = HybridConfig(balance_sigma=2.0)
        plan = HybridPartitioner(config).partition(toy_sample, 4)
        report = plan.worker_loads(toy_sample)
        # The runtime balance loop targets sigma on its own estimate; allow
        # slack for the Definition-1 evaluation.
        assert report.imbalance < 6.0

    def test_total_load_not_worse_than_both_baselines(self, toy_sample):
        hybrid_total = (
            HybridPartitioner().partition(toy_sample, 4).worker_loads(toy_sample).total
        )
        kd_total = (
            KDTreeSpacePartitioner().partition(toy_sample, 4).worker_loads(toy_sample).total
        )
        metric_total = (
            MetricTextPartitioner().partition(toy_sample, 4).worker_loads(toy_sample).total
        )
        assert hybrid_total <= 1.25 * min(kd_total, metric_total)

    def test_deterministic_given_same_sample(self, toy_sample):
        first = HybridPartitioner().partition(toy_sample, 4)
        second = HybridPartitioner().partition(toy_sample, 4)
        assert [
            (unit.region.as_tuple(), unit.terms, unit.worker_id) for unit in first.units
        ] == [(unit.region.as_tuple(), unit.terms, unit.worker_id) for unit in second.units]


class TestConfigKnobs:
    def test_low_threshold_prefers_space_partitioning(self, toy_sample):
        # delta = 0 means every node's similarity exceeds the threshold, so
        # the whole space is treated as space-partitionable.
        config = HybridConfig(text_similarity_threshold=0.0)
        plan = HybridPartitioner(config).partition(toy_sample, 4)
        assert all(unit.terms is None for unit in plan.units)

    def test_high_threshold_allows_text_partitioning(self, query_generator, tweet_generator):
        # delta = 1 sends everything towards Nt; with fewer nodes than
        # workers, the DP then splits nodes by text.
        objects = tweet_generator.generate(600)
        queries = query_generator.generate("Q2", 300)
        sample = WorkloadSample(objects=objects, insertions=queries, bounds=tweet_generator.bounds)
        config = HybridConfig(text_similarity_threshold=1.01, max_depth=0)
        plan = HybridPartitioner(config).partition(sample, 4)
        assert any(unit.terms is not None for unit in plan.units)

    def test_max_nodes_limits_unit_count(self, toy_sample):
        config = HybridConfig(max_nodes=8, balance_sigma=1.0001)
        plan = HybridPartitioner(config).partition(toy_sample, 4)
        assert len(plan.units) <= 16  # theta bounds the node count

    def test_sigma_must_allow_imbalance(self, toy_sample):
        # A very tight sigma forces the algorithm to keep splitting until it
        # hits a stopping condition; it must still terminate and cover all
        # workers.
        config = HybridConfig(balance_sigma=1.01, max_nodes=64)
        plan = HybridPartitioner(config).partition(toy_sample, 4)
        assert plan.workers() == {0, 1, 2, 3}


class TestRegionalWorkloads:
    def test_q3_style_regions_use_space_where_similar(self, tweet_generator, query_generator):
        """On a Q3-style workload the hybrid plan's total load is at least as
        good as the better of the two pure baselines."""
        objects = tweet_generator.generate(800)
        queries = query_generator.generate("Q3", 400)
        sample = WorkloadSample(objects=objects, insertions=queries, bounds=tweet_generator.bounds)
        hybrid = HybridPartitioner().partition(sample, 8)
        kd = KDTreeSpacePartitioner().partition(sample, 8)
        metric = MetricTextPartitioner().partition(sample, 8)
        hybrid_report = hybrid.worker_loads(sample)
        best_baseline = min(
            kd.worker_loads(sample).total, metric.worker_loads(sample).total
        )
        assert hybrid_report.total <= 1.3 * best_baseline


# ----------------------------------------------------------------------
# Plan oracle, work guard, hash-seed independence
# ----------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).parent / "data" / "hybrid_golden_plans.json"

_CONFIGS = {
    "default": HybridConfig(),
    # delta > 1 and no exploration: the root goes to Nt, the DP splits by text.
    "text": HybridConfig(text_similarity_threshold=1.01, max_depth=0),
    # ... and the balance loop re-splits text children (vocabulary &= node.terms).
    "text-tight": HybridConfig(
        text_similarity_threshold=1.01, max_depth=0, balance_sigma=1.05, max_nodes=24
    ),
    # Space nodes whose cheaper split is sometimes text, under a long balance loop.
    "tight": HybridConfig(balance_sigma=1.05, max_nodes=40),
    # A deep Phase-1 exploration (many thin space nodes, no DP).
    "deep": HybridConfig(text_similarity_threshold=0.95, min_node_objects=8, similarity_epsilon=0.0),
}

#: ``dataset-group-workers-config``; 800 sampled objects, 1 500 insertions each.
GOLDEN_SHAPES = [
    "%s-%s-%d-default" % (dataset, group, workers)
    for dataset in ("us", "uk")
    for group in ("Q1", "Q3")
    for workers in (2, 8)
] + [
    "us-Q2-4-text",
    "us-Q2-4-text-tight",
    "us-Q2-4-tight",
    "uk-Q1-6-text-tight",
    "uk-Q1-6-tight",
    "us-Q3-5-deep",
]


@functools.lru_cache(maxsize=None)
def golden_sample(dataset, group):
    tweets = make_dataset(dataset, seed=1)
    queries = QueryGenerator(tweets, seed=2)
    stream = WorkloadStream(tweets, queries, StreamConfig(mu=1500, group=group), seed=3)
    return stream.partitioning_sample(800)


def plan_units(plan):
    """``[region, terms, worker]`` per unit, JSON-shaped; a text unit's sorted
    terms are folded to ``"<count>:<sha1>"`` to keep the golden file small."""
    units = []
    for unit in plan.units:
        terms = None
        if unit.terms is not None:
            digest = hashlib.sha1("\n".join(sorted(unit.terms)).encode()).hexdigest()
            terms = "%d:%s" % (len(unit.terms), digest)
        units.append([list(unit.region.as_tuple()), terms, unit.worker_id])
    return units


def golden_units(shape, partitioner_class=HybridPartitioner):
    dataset, group, workers, config = shape.split("-", 3)
    plan = partitioner_class(_CONFIGS[config]).partition(golden_sample(dataset, group), int(workers))
    return plan_units(plan)


class TestGoldenPlans:
    """The plans Algorithm 1 produced before it stopped repeating itself.

    ``data/hybrid_golden_plans.json`` was recorded with ``golden_units`` at
    the commit *before* the split memoisation (ISSUE 20); the plan is the
    oracle for any change that only makes the partitioner faster.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_every_shape_is_recorded(self, golden):
        assert sorted(golden) == sorted(GOLDEN_SHAPES)
        assert any(unit[1] is not None for units in golden.values() for unit in units)

    @pytest.mark.parametrize("shape", GOLDEN_SHAPES)
    def test_plan_equals_golden(self, golden, shape):
        assert golden_units(shape) == golden[shape]

    def test_plans_do_not_depend_on_the_hash_seed(self, golden):
        """Sets of terms are iterated all over Algorithm 1; the plan must not notice."""
        shapes = ["us-Q1-8-default", "us-Q2-4-text-tight", "uk-Q1-6-tight"]
        script = (
            "import json, sys; sys.path.insert(0, %r); import test_hybrid_partitioner as t; "
            "print(json.dumps({shape: t.golden_units(shape) for shape in %r}))"
            % (str(Path(__file__).parent), shapes)
        )
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            output = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True, capture_output=True,
                text=True, timeout=120,
            ).stdout
            assert json.loads(output) == {shape: golden[shape] for shape in shapes}, seed


class _CountingPartitioner(HybridPartitioner):
    """Records which ``(node, parts)`` each split is asked for."""

    def __init__(self, config=None):
        super().__init__(config)
        self.text_requests, self.space_requests = [], []

    def _text_split(self, node, parts):
        self.text_requests.append((node, parts))  # holds the node: ids stay unique
        return super()._text_split(node, parts)

    def _space_split(self, node, parts):
        self.space_requests.append((node, parts))
        return super()._space_split(node, parts)


class TestWorkGuard:
    """Deterministic work budget of one ``partition()`` (no clocks)."""

    @pytest.mark.parametrize("shape", ["us-Q1-8-default", "us-Q2-4-text-tight", "uk-Q1-6-tight"])
    def test_each_split_runs_once_and_posting_keys_are_read_once(self, monkeypatch, shape):
        calls = Counter()

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            BooleanExpression, "posting_keywords",
            counting("posting_keywords", BooleanExpression.posting_keywords),
        )
        monkeypatch.setattr(
            hybrid_module, "balanced_term_assignment",
            counting("text bodies", hybrid_module.balanced_term_assignment),
        )
        monkeypatch.setattr(
            hybrid_module, "build_leaf_regions",
            counting("space bodies", hybrid_module.build_leaf_regions),
        )
        dataset, group, workers, config = shape.split("-", 3)
        sample = golden_sample(dataset, group)
        calls.clear()
        partitioner = _CountingPartitioner(_CONFIGS[config])
        partitioner.partition(sample, int(workers))

        # 52 x len(insertions) before the node remembered its posting keys.
        assert 0 < calls["posting_keywords"] <= 3 * len(sample.insertions)
        text_keys = {(id(node), parts) for node, parts in partitioner.text_requests}
        space_keys = {(id(node), parts) for node, parts in partitioner.space_requests}
        assert text_keys, "the shape must exercise the text split"
        assert calls["text bodies"] == len(text_keys) <= len(partitioner.text_requests)
        assert calls["space bodies"] == len(space_keys) <= len(partitioner.space_requests)
        if config != "text-tight":  # a space node prices both splits, then installs one
            assert space_keys and len(partitioner.space_requests) > len(space_keys)

    def test_partitioner_keeps_no_sample_state(self):
        """One instance, sample A then B == two fresh instances (GlobalAdjuster
        keeps its partitioner between rounds)."""
        sample_a, sample_b = golden_sample("us", "Q1"), golden_sample("uk", "Q3")
        shared = HybridPartitioner()
        plans = [plan_units(shared.partition(sample, 6)) for sample in (sample_a, sample_b, sample_a)]
        fresh = [
            plan_units(HybridPartitioner().partition(sample, 6)) for sample in (sample_a, sample_b)
        ]
        assert plans == fresh + fresh[:1]
        assert vars(shared) == {"config": shared.config}
