"""White-box tests for Algorithm 1's internal steps.

The public behaviour of :class:`HybridPartitioner` is covered in
``test_hybrid_partitioner.py``; these tests pin down the individual
sub-procedures the paper names — ComputeNumberPartitions, PartitionNode and
MergeNodesIntoPartitions — so regressions in one phase are caught directly.
"""

import pytest

from repro.core import Point, Rect, STSQuery, SpatioTextualObject
from repro.core.costmodel import COST_MODEL
from repro.partitioning import HybridConfig, HybridPartitioner, WorkloadSample
from repro.partitioning.hybrid import _Node


BOUNDS = Rect(0, 0, 100, 100)


def obj(text, x, y):
    return SpatioTextualObject.create(text, Point(x, y))


def query(expr, x, y, size=6.0):
    return STSQuery.create(expr, Rect.from_center(Point(x, y), size, size))


@pytest.fixture
def partitioner():
    # No warm-up partition(): a node carries its queries' posting keys itself.
    return HybridPartitioner(HybridConfig())


def whole(sample, region=BOUNDS, keep=lambda x: True, every=slice(None)):
    """A hand-built node: the ``every`` slice of ``sample`` where x passes ``keep``."""
    return _Node(
        region,
        [o for o in sample.objects[every] if keep(o.location.x)],
        [q for q in sample.insertions[every] if keep(q.region.min_x)],
        sample.term_statistics,
    )


def definition_one_load(partitioner, sample, objects, queries):
    """Definition-1 load under H2 filtering, from first principles."""
    statistics, model = sample.term_statistics, COST_MODEL
    posted = set()
    for q in queries:
        posted.update(q.expression.posting_keywords(statistics))
    hits = [sum(1 for term in o.terms if term in posted) for o in objects]
    return (
        model.match_check * sum(hits)
        + model.object_handling * sum(1 for count in hits if count)
        + model.insert_handling * len(queries)
    )


@pytest.fixture
def left_right_sample():
    """Two regions with disjoint vocabularies and a handful of queries."""
    objects = []
    queries = []
    words_left = ["music", "rock", "jazz"]
    words_right = ["kobe", "lebron", "nba"]
    for index in range(120):
        left = index % 2 == 0
        words = words_left if left else words_right
        x = 10 + (index % 30) if left else 60 + (index % 30)
        objects.append(obj(" ".join(words), x, (index * 7) % 100))
        if index % 3 == 0:
            queries.append(query(" AND ".join(words[:2]), x, (index * 7) % 100))
    return WorkloadSample(objects=objects, insertions=queries, bounds=BOUNDS)


class TestNodeStatistics:
    def test_counters_and_similarity(self, left_right_sample):
        node = _Node(BOUNDS, list(left_right_sample.objects), list(left_right_sample.insertions))
        assert node.object_counter["music"] > 0
        assert node.query_counter["kobe"] > 0
        assert 0.0 <= node.text_similarity() <= 1.0

    def test_empty_node_similarity_is_zero(self):
        node = _Node(BOUNDS, [], [])
        assert node.text_similarity() == 0.0

    def test_node_load_is_cached_and_nonnegative(self, partitioner, left_right_sample):
        node = whole(left_right_sample)
        first = partitioner._node_load(node)
        second = partitioner._node_load(node)
        assert first == second >= 0.0

    def test_node_load_needs_no_prior_partition(self, partitioner, left_right_sample):
        """Regression: posting keys used to come from a dict only
        ``partition()`` filled, so a node priced outside it routed no
        objects and cost ``insert_handling * |queries|``."""
        sample = left_right_sample
        node = whole(sample)
        expected = definition_one_load(partitioner, sample, sample.objects, sample.insertions)
        assert partitioner._node_load(node) == expected
        floor = COST_MODEL.insert_handling * len(sample.insertions)
        assert expected > floor


class TestComputeNumberPartitions:
    def test_allocation_sums_to_worker_count(self, partitioner, left_right_sample):
        node_a = whole(left_right_sample, Rect(0, 0, 50, 100), lambda x: x <= 50)
        node_b = whole(left_right_sample, Rect(50, 0, 100, 100), lambda x: x > 50)
        allocation = partitioner._compute_number_partitions([node_a], [node_b], 6)
        assert sum(allocation.values()) == 6
        assert all(parts >= 1 for parts in allocation.values())
        # The DP compared real loads: objects are routed and checked, so a
        # node costs more than handling its insertions.
        for node in (node_a, node_b):
            assert partitioner._node_load(node) > COST_MODEL.insert_handling * node.query_count

    def test_enough_nodes_means_one_partition_each(self, partitioner, left_right_sample):
        nodes = [whole(left_right_sample) for _ in range(5)]
        allocation = partitioner._compute_number_partitions(nodes[:3], nodes[3:], 4)
        assert all(parts == 1 for parts in allocation.values())

    def test_empty_node_list(self, partitioner):
        assert partitioner._compute_number_partitions([], [], 4) == {}


class TestPartitionNode:
    def test_text_node_splits_by_text(self, partitioner, left_right_sample):
        node = whole(left_right_sample)
        text_nodes, space_nodes = [node], []
        children = partitioner._partition_node(node, text_nodes, space_nodes, 3)
        assert len(children) > 1
        assert node not in text_nodes
        assert all(child.terms is not None for child in children)
        # The children's term sets are pairwise disjoint.
        seen = set()
        for child in children:
            assert not (seen & set(child.terms))
            seen |= set(child.terms)

    def test_space_node_chooses_cheaper_strategy(self, partitioner, left_right_sample):
        """Small ranges: a space split replicates nothing and wins the tie.
        Ranges covering the whole space: it replicates every query, text wins."""
        for query_size, cheaper in ((6.0, "space"), (250.0, "text")):
            sample = WorkloadSample(
                objects=left_right_sample.objects,
                insertions=[
                    STSQuery.create(
                        str(q.expression), Rect.from_center(q.region.center, query_size, query_size)
                    )
                    for q in left_right_sample.insertions
                ],
                bounds=BOUNDS,
            )
            node = whole(sample)
            text_nodes, space_nodes = [], [node]
            children = partitioner._partition_node(node, text_nodes, space_nodes, 2)
            assert len(children) == 2
            assert node not in space_nodes
            assert len(text_nodes) + len(space_nodes) == 2
            # Both strategies are priced on routed objects and checks, not on
            # insertions alone, and the cheaper one is installed.
            loads = {
                kind: sum(
                    definition_one_load(partitioner, sample, child.objects, child.queries)
                    for child in split(node, 2)
                )
                for kind, split in (
                    ("space", partitioner._space_split),
                    ("text", partitioner._text_split),
                )
            }
            assert min(loads.values()) > COST_MODEL.insert_handling * node.query_count
            assert loads[cheaper] == min(loads.values())
            assert children == (space_nodes if cheaper == "space" else text_nodes)
            assert sum(partitioner._node_load(child) for child in children) == loads[cheaper]

    def test_single_part_is_noop(self, partitioner, left_right_sample):
        node = whole(left_right_sample)
        text_nodes, space_nodes = [node], []
        children = partitioner._partition_node(node, text_nodes, space_nodes, 1)
        assert children == [node]
        assert text_nodes == [node]

    @pytest.mark.parametrize("in_text", [True, False])
    def test_installed_children_are_the_priced_children(
        self, partitioner, left_right_sample, in_text
    ):
        """PartitionNode installs the very nodes the DP's C[i, k] summed."""
        node = whole(left_right_sample)
        priced_load = partitioner._simulated_split_load(node, 3, in_text)
        priced = partitioner._split_children(node, 3, in_text)
        assert all(child._load is not None for child in priced)
        text_nodes, space_nodes = ([node], []) if in_text else ([], [node])
        installed = partitioner._partition_node(node, text_nodes, space_nodes, 3)
        assert len(installed) == len(priced) > 1
        assert all(a is b for a, b in zip(installed, priced))
        assert sum(child._load for child in installed) == priced_load
        assert all(a is b for a, b in zip(text_nodes + space_nodes, priced))

    def test_children_per_number_of_parts_are_independent(self, partitioner, left_right_sample):
        node = whole(left_right_sample)
        for split in (partitioner._text_split, partitioner._space_split):
            two, three = split(node, 2), split(node, 3)
            assert (len(two), len(three)) == (2, 3)
            assert split(node, 2) is two and split(node, 3) is three
            assert two is not three
            assert not {id(child) for child in two} & {id(child) for child in three}
            lists = [child.objects for child in two + three] + [child.queries for child in two + three]
            assert len({id(items) for items in lists}) == len(lists)


class TestMergeNodesIntoPartitions:
    def test_every_node_assigned_exactly_once(self, partitioner, left_right_sample):
        nodes = [whole(left_right_sample, every=slice(index, None, 10)) for index in range(10)]
        partitions = partitioner._merge_nodes_into_partitions(nodes[:5], nodes[5:], 4)
        assert len(partitions) == 4
        flattened = [node for partition in partitions for node in partition]
        assert sorted(map(id, flattened)) == sorted(map(id, nodes))

    def test_loads_reasonably_balanced(self, partitioner, left_right_sample):
        nodes = [whole(left_right_sample, every=slice(index, None, 12)) for index in range(12)]
        partitions = partitioner._merge_nodes_into_partitions(nodes, [], 3)
        loads = [sum(partitioner._node_load(node) for node in part) for part in partitions]
        assert max(loads) <= 3.0 * (sum(loads) / len(loads) + 1e-9)
