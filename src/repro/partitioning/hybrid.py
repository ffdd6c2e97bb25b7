"""The hybrid workload-partitioning algorithm (Section IV-B, Algorithm 1).

The algorithm builds a *kdt-tree*: it first splits the space like a kd-tree
to isolate subspaces where the text distributions of objects and queries
diverge, then decides per subspace whether to split further by space or by
text, and finally packs the resulting leaf units onto workers subject to
the load-balance constraint of Definition 2.

Phase 1 (space exploration by text similarity)
    Starting from the root subspace, a node whose object/query cosine text
    similarity is at least ``delta`` is set aside for space partitioning
    (``Ns``).  Otherwise the node is split along the axis that minimises
    the smaller child similarity ``alpha``; when splitting no longer
    reduces the similarity the node is set aside for text partitioning
    (``Nt``), otherwise the children are explored recursively.

Phase 2 (producing exactly ``m`` balanced partitions)
    If fewer nodes than workers exist, a dynamic program
    (:meth:`HybridPartitioner._compute_number_partitions`) chooses how many
    parts each node should be split into so that the total load is
    minimised; nodes in ``Nt`` are split by text, nodes in ``Ns`` by
    whichever of space/text splitting yields less load.  Leaf units are
    then merged into ``m`` partitions; while the balance constraint
    ``L_max / L_min <= sigma`` is violated the most loaded node is split
    further (up to ``theta`` nodes).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.costmodel import CostModel
from ..core.geometry import Rect
from ..core.objects import SpatioTextualObject, STSQuery
from ..core.text import TermStatistics, cosine_similarity
from ..indexes.kdtree import build_leaf_regions, median_split
from .base import PartitionPlan, PartitionUnit, Partitioner, WorkloadSample
from .text import balanced_term_assignment

__all__ = ["HybridPartitioner", "HybridConfig"]

#: ``(term weights, [(object, its posted terms)])`` — see :attr:`_Node.text_inputs`.
_TextInputs = Tuple[Dict[str, float], List[Tuple[SpatioTextualObject, FrozenSet[str]]]]


@dataclass(frozen=True)
class HybridConfig:
    """Tunable parameters of Algorithm 1.

    ``text_similarity_threshold`` is δ, ``balance_sigma`` is σ and
    ``max_nodes`` is θ in the paper's notation.  ``similarity_epsilon``
    decides when the similarity reduction of a further split is "≈ 0".
    """

    text_similarity_threshold: float = 0.7
    similarity_epsilon: float = 0.05
    balance_sigma: float = 2.0
    max_nodes: int = 512
    min_node_objects: int = 32
    max_depth: int = 10
    cost_model: CostModel = field(default_factory=CostModel)


class _Node:
    """A working node of the kdt-tree under construction.

    ``terms is None`` for spatial nodes; text-split children carry the term
    subset they own.  Objects and queries are the sampled tuples that the
    node would receive under Definition-2 routing; ``query_keys[i]`` is the
    posting-key set of ``queries[i]`` (the expression's own memo, read
    only), looked up once for the root and handed down to every child.

    Everything Algorithm 1 derives from a node depends on the node alone,
    so it is derived once and kept here: the Definition-1 load, the inputs
    of a text split that do not depend on the number of parts, and the
    children of every split priced so far, per number of parts.  The
    children the dynamic program priced are therefore the objects
    PartitionNode installs.
    """

    __slots__ = (
        "region",
        "terms",
        "objects",
        "queries",
        "query_keys",
        "depth",
        "_object_counter",
        "_query_counter",
        "_load",
        "_text_inputs",
        "_text_children",
        "_space_children",
    )

    def __init__(
        self,
        region: Rect,
        objects: List[SpatioTextualObject],
        queries: List[STSQuery],
        statistics: Optional[TermStatistics] = None,
        terms: Optional[FrozenSet[str]] = None,
        depth: int = 0,
        query_keys: Optional[List[AbstractSet[str]]] = None,
    ) -> None:
        self.region = region
        self.terms = terms
        self.objects = objects
        self.queries = queries
        self.query_keys: List[AbstractSet[str]] = (
            query_keys
            if query_keys is not None
            else [query.expression.posting_keywords(statistics) for query in queries]
        )
        self.depth = depth
        self._object_counter: Optional[Counter] = None
        self._query_counter: Optional[Counter] = None
        self._load: Optional[float] = None
        self._text_inputs: Optional[_TextInputs] = None
        self._text_children: Dict[int, List[_Node]] = {}
        self._space_children: Dict[int, List[_Node]] = {}

    # -- cached statistics ------------------------------------------------
    @property
    def object_counter(self) -> Counter:
        if self._object_counter is None:
            counter: Counter = Counter()
            for obj in self.objects:
                counter.update(obj.terms)
            self._object_counter = counter
        return self._object_counter

    @property
    def query_counter(self) -> Counter:
        if self._query_counter is None:
            counter: Counter = Counter()
            for query in self.queries:
                counter.update(query.keywords())
            self._query_counter = counter
        return self._query_counter

    def text_similarity(self) -> float:
        """Cosine similarity between object terms and query keywords.

        Both vectors use sublinear (log-scaled) term frequencies so the
        similarity reflects how much of the *vocabulary* the two
        distributions share rather than being dominated by the handful of
        globally frequent head terms.
        """
        objects = {term: math.log1p(count) for term, count in self.object_counter.items()}
        queries = {term: math.log1p(count) for term, count in self.query_counter.items()}
        return cosine_similarity(objects, queries)

    @property
    def text_inputs(self) -> _TextInputs:
        """What a text split of this node needs, whatever the number of parts.

        The term weights handed to :func:`balanced_term_assignment` and,
        per object, its *posted* terms: an object without any is forwarded
        to no text slice (the dispatcher's H2 filtering, Section IV-C) and
        is dropped here once.
        """
        if self._text_inputs is None:
            object_counter = self.object_counter
            vocabulary: Set[str] = set(object_counter) | set(self.query_counter)
            if self.terms is not None:
                vocabulary &= self.terms
            posting_counts = Counter(chain.from_iterable(self.query_keys))
            weights: Dict[str, float] = {}
            for term in vocabulary:
                frequency = float(object_counter.get(term, 0))
                postings = float(posting_counts.get(term, 0))
                weights[term] = frequency * (postings + 1.0) + frequency + postings + 1.0
            posting_keys = frozenset(posting_counts)
            posted = [
                (obj, hits) for obj in self.objects if (hits := obj.terms & posting_keys)
            ]
            self._text_inputs = (weights, posted)
        return self._text_inputs

    @property
    def object_count(self) -> int:
        return len(self.objects)

    @property
    def query_count(self) -> int:
        return len(self.queries)


class HybridPartitioner(Partitioner):
    """Algorithm 1: hybrid space/text workload partitioning."""

    name = "hybrid"

    def __init__(self, config: Optional[HybridConfig] = None) -> None:
        self.config = config if config is not None else HybridConfig()

    # ------------------------------------------------------------------
    # Load estimation
    # ------------------------------------------------------------------
    def _node_load(self, node: _Node) -> float:
        """Definition-1 load of a node under the deployed routing rules.

        Only objects that contain at least one *posted* keyword of the
        node's queries are counted — the dispatcher's H2 filtering
        (Section IV-C) never forwards the rest, so counting them would bias
        the space-vs-text decision and the balance loop towards regions
        whose traffic the system actually discards.
        """
        if node._load is None:
            posting_terms: Set[str] = set()
            posting_terms.update(*node.query_keys)
            hits = [len(obj.terms & posting_terms) for obj in node.objects]
            # The interaction term uses the number of posting-list hits the
            # GI2 index would actually probe for the routed objects, not the
            # raw |O_i| * |Qi_i| product: the worker-side index prunes by
            # posting keyword, and the balance decisions must reflect the
            # work the workers really do.
            model = self.config.cost_model
            node._load = (
                model.match_check * sum(hits)
                + model.object_handling * (len(hits) - hits.count(0))
                + model.insert_handling * len(node.queries)
            )
        return node._load

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def partition(self, sample: WorkloadSample, num_workers: int) -> PartitionPlan:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        root = _Node(
            sample.bounds, list(sample.objects), list(sample.insertions), sample.term_statistics
        )
        text_nodes, space_nodes = self._phase_one(root)

        # Phase 2a: make sure there are at least ``num_workers`` leaf nodes.
        if len(text_nodes) + len(space_nodes) < num_workers:
            allocation = self._compute_number_partitions(text_nodes, space_nodes, num_workers)
            for node, parts in allocation.items():
                if parts > 1:
                    self._partition_node(node, text_nodes, space_nodes, parts)

        # Phase 2b: merge into partitions and enforce the balance constraint.
        partitions = self._merge_nodes_into_partitions(text_nodes, space_nodes, num_workers)
        while True:
            loads = [self._partition_load(part) for part in partitions]
            maximum = max(loads) if loads else 0.0
            positive = [load for load in loads if load > 0.0]
            minimum = min(positive) if positive else 0.0
            balanced = (
                maximum == 0.0
                or (minimum > 0.0 and len(positive) == len(loads)
                    and maximum / minimum <= self.config.balance_sigma)
            )
            if balanced:
                break
            if len(text_nodes) + len(space_nodes) >= self.config.max_nodes:
                break
            candidates = [
                node for node in text_nodes + space_nodes
                if node.object_count > 1 or node.query_count > 1
            ]
            if not candidates:
                break
            heaviest = max(candidates, key=lambda node: self._node_load(node))
            before = len(text_nodes) + len(space_nodes)
            self._partition_node(heaviest, text_nodes, space_nodes, 2)
            if len(text_nodes) + len(space_nodes) == before:
                break
            partitions = self._merge_nodes_into_partitions(text_nodes, space_nodes, num_workers)

        return self._build_plan(partitions, sample, num_workers)

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------
    def _phase_one(self, root: _Node) -> Tuple[List[_Node], List[_Node]]:
        config = self.config
        undecided = [root]
        text_nodes: List[_Node] = []
        space_nodes: List[_Node] = []
        while undecided:
            node = undecided.pop()
            similarity = node.text_similarity()
            if similarity >= config.text_similarity_threshold:
                space_nodes.append(node)
                continue
            if (
                node.depth >= config.max_depth
                or node.object_count < config.min_node_objects
                or node.query_count == 0
            ):
                text_nodes.append(node)
                continue
            split = self._best_spatial_split(node)
            if split is None:
                text_nodes.append(node)
                continue
            alpha, first, second = split
            # Splitting is only worthwhile when it exposes a subspace with a
            # meaningfully smaller similarity; a margin relative to the
            # node's own similarity prevents endless splitting of
            # homogeneous regions whose children only differ by noise.
            margin = max(config.similarity_epsilon, 0.05 * similarity)
            if similarity - alpha <= margin:
                text_nodes.append(node)
            else:
                undecided.append(first)
                undecided.append(second)
        return text_nodes, space_nodes

    def _best_spatial_split(self, node: _Node) -> Optional[Tuple[float, _Node, _Node]]:
        """Split ``node`` spatially along the axis minimising ``alpha``.

        ``alpha`` is the smaller of the children's text similarities
        (Algorithm 1, line 8).  Returns ``None`` when no axis admits a
        non-degenerate split.
        """
        best: Optional[Tuple[float, _Node, _Node]] = None
        points = [obj.location for obj in node.objects]
        for axis in (0, 1):
            lower = node.region.min_x if axis == 0 else node.region.min_y
            upper = node.region.max_x if axis == 0 else node.region.max_y
            if upper - lower <= 0.0:
                continue
            coordinate = median_split(points, axis) if points else (lower + upper) / 2.0
            if not (lower < coordinate < upper):
                coordinate = (lower + upper) / 2.0
                if not (lower < coordinate < upper):
                    continue
            first_region, second_region = node.region.split(axis, coordinate)
            children = self._spatial_children(node, [first_region, second_region])
            if any(
                child.object_count < self.config.min_node_objects
                or child.query_count < max(2, self.config.min_node_objects // 8)
                for child in children
            ):
                # Children this thin would make the similarity estimate pure
                # noise (and the resulting units would replicate queries for
                # no benefit); treat the axis as unsplittable.
                continue
            alpha = min(child.text_similarity() for child in children)
            if best is None or alpha < best[0]:
                best = (alpha, children[0], children[1])
        return best

    def _spatial_children(self, node: _Node, regions: Sequence[Rect]) -> List[_Node]:
        """One child per region: an object goes to the first region that
        contains its location, a query to every region its range touches."""
        children = [
            _Node(region, [], [], terms=node.terms, depth=node.depth + 1, query_keys=[])
            for region in regions
        ]
        slots = [(child, *child.region.as_tuple()) for child in children]
        for obj in node.objects:
            location = obj.location
            x, y = location.x, location.y
            for child, min_x, min_y, max_x, max_y in slots:
                if min_x <= x <= max_x and min_y <= y <= max_y:
                    child.objects.append(obj)
                    break
        for query, keys in zip(node.queries, node.query_keys):
            low_x, low_y, high_x, high_y = query.region.as_tuple()
            for child, min_x, min_y, max_x, max_y in slots:
                if not (max_x < low_x or high_x < min_x or max_y < low_y or high_y < min_y):
                    child.queries.append(query)
                    child.query_keys.append(keys)
        return children

    # ------------------------------------------------------------------
    # Node splitting (PartitionNode)
    # ------------------------------------------------------------------
    def _partition_node(
        self,
        node: _Node,
        text_nodes: List[_Node],
        space_nodes: List[_Node],
        parts: int,
    ) -> List[_Node]:
        """Split ``node`` into ``parts`` nodes in place (Algorithm 1, PartitionNode).

        Nodes in ``Nt`` are split by text.  Nodes in ``Ns`` are split by
        whichever of space/text splitting produces less total load.  The
        original node is removed from its set and the children are added to
        the set matching their kind.
        """
        if parts <= 1:
            return [node]
        in_text = node in text_nodes
        children = self._split_children(node, parts, in_text)
        if len(children) <= 1:
            return [node]
        if in_text:
            text_nodes.remove(node)
        elif node in space_nodes:
            space_nodes.remove(node)
        if children[0].terms is not None:
            text_nodes.extend(children)
        else:
            space_nodes.extend(children)
        return children

    def _split_children(self, node: _Node, parts: int, in_text: bool) -> List[_Node]:
        """The children PartitionNode gives ``node`` for ``parts`` > 1 (may be empty)."""
        text_children = self._text_split(node, parts)
        if in_text or node.terms is not None:
            return text_children
        space_children = self._space_split(node, parts)
        space_load = sum(self._node_load(child) for child in space_children)
        text_load = sum(self._node_load(child) for child in text_children)
        if space_children and (not text_children or space_load <= text_load):
            return space_children
        return text_children

    def _simulated_split_load(self, node: _Node, parts: int, in_text: bool) -> float:
        """Load after splitting ``node`` into ``parts`` without installing the split.

        This is the ``C[i, k]`` quantity of the dynamic program.
        """
        children = self._split_children(node, parts, in_text) if parts > 1 else []
        if not children:
            return self._node_load(node)
        return sum(self._node_load(child) for child in children)

    def _space_split(self, node: _Node, parts: int) -> List[_Node]:
        children = node._space_children.get(parts)
        if children is None:
            points = [obj.location for obj in node.objects]
            regions = build_leaf_regions(points, parts, node.region)
            children = node._space_children[parts] = self._spatial_children(node, regions)
        return children

    def _text_split(self, node: _Node, parts: int) -> List[_Node]:
        children = node._text_children.get(parts)
        if children is not None:
            return children
        children = node._text_children[parts] = []
        weights, posted = node.text_inputs
        if not weights:
            return children
        groups: List[Set[str]] = [set() for _ in range(parts)]
        for term, index in balanced_term_assignment(weights, parts).items():
            groups[index].add(term)
        keyed_queries = list(zip(node.queries, node.query_keys))
        for group in groups:
            if not group:
                continue
            terms = frozenset(group)
            # Objects are only forwarded to a text slice when they contain a
            # *posted* keyword owned by the slice (the dispatcher's H2
            # filtering, Section IV-C); counting them this way makes the
            # space-vs-text load comparison reflect the deployed system.
            objects = [obj for obj, hits in posted if not hits.isdisjoint(terms)]
            kept = [pair for pair in keyed_queries if not pair[1].isdisjoint(terms)]
            children.append(
                _Node(
                    node.region,
                    objects,
                    [query for query, _ in kept],
                    terms=terms,
                    depth=node.depth + 1,
                    query_keys=[keys for _, keys in kept],
                )
            )
        return children

    # ------------------------------------------------------------------
    # ComputeNumberPartitions (dynamic programming)
    # ------------------------------------------------------------------
    def _compute_number_partitions(
        self,
        text_nodes: List[_Node],
        space_nodes: List[_Node],
        num_workers: int,
    ) -> Dict[_Node, int]:
        """Choose how many parts each node is split into (Algorithm 1, l.14).

        ``L[i][j]`` is the minimum total load after partitioning the first
        ``i`` nodes into ``j`` partitions; ``C[i][k]`` the load of node
        ``i`` split into ``k`` parts.  The returned mapping assigns every
        node its optimal number of partitions, summing to ``num_workers``.
        """
        nodes = list(text_nodes) + list(space_nodes)
        count = len(nodes)
        if count == 0:
            return {}
        if count >= num_workers:
            return {node: 1 for node in nodes}
        max_parts = num_workers - count + 1
        in_text = [node in text_nodes for node in nodes]

        cost: List[List[float]] = []
        for index, node in enumerate(nodes):
            row = [math.inf] * (max_parts + 1)
            for parts in range(1, max_parts + 1):
                row[parts] = self._simulated_split_load(node, parts, in_text[index])
            cost.append(row)

        infinity = math.inf
        table = [[infinity] * (num_workers + 1) for _ in range(count + 1)]
        choice = [[0] * (num_workers + 1) for _ in range(count + 1)]
        table[0][0] = 0.0
        for index in range(1, count + 1):
            for partitions in range(index, num_workers + 1):
                upper = min(max_parts, partitions - (index - 1))
                for parts in range(1, upper + 1):
                    previous = table[index - 1][partitions - parts]
                    if previous == infinity:
                        continue
                    candidate = previous + cost[index - 1][parts]
                    if candidate < table[index][partitions]:
                        table[index][partitions] = candidate
                        choice[index][partitions] = parts
        allocation: Dict[_Node, int] = {}
        remaining = num_workers
        for index in range(count, 0, -1):
            parts = choice[index][remaining]
            if parts == 0:
                parts = 1
            allocation[nodes[index - 1]] = parts
            remaining -= parts
        return allocation

    # ------------------------------------------------------------------
    # MergeNodesIntoPartitions
    # ------------------------------------------------------------------
    def _merge_nodes_into_partitions(
        self,
        text_nodes: List[_Node],
        space_nodes: List[_Node],
        num_workers: int,
    ) -> List[List[_Node]]:
        """Pack the leaf nodes onto ``num_workers`` partitions.

        Nodes are placed in descending load order onto the partition whose
        load increases the least, preferring partitions that already hold a
        node covering the same region (co-locating the text slices of one
        region avoids duplicating its object traffic).
        """
        nodes = sorted(
            text_nodes + space_nodes,
            key=lambda node: -self._node_load(node),
        )
        partitions: List[List[_Node]] = [[] for _ in range(num_workers)]
        loads = [0.0] * num_workers
        regions: List[Set[Tuple[float, float, float, float]]] = [set() for _ in range(num_workers)]
        for node in nodes:
            load = self._node_load(node)
            region_key = node.region.as_tuple()
            same_region = [
                index
                for index in range(num_workers)
                if region_key in regions[index]
            ]
            candidates = same_region if same_region else list(range(num_workers))
            target = min(candidates, key=lambda index: loads[index])
            # Fall back to the globally least loaded partition when using the
            # affinity candidate would worsen the balance factor.
            least = min(range(num_workers), key=lambda index: loads[index])
            if loads[target] > loads[least] and (loads[target] + load) > (
                self.config.balance_sigma * max(loads[least] + load, 1e-9)
            ):
                target = least
            partitions[target].append(node)
            loads[target] += load
            regions[target].add(region_key)
        return partitions

    def _partition_load(self, partition: List[_Node]) -> float:
        return sum(self._node_load(node) for node in partition)

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def _build_plan(
        self,
        partitions: List[List[_Node]],
        sample: WorkloadSample,
        num_workers: int,
    ) -> PartitionPlan:
        units: List[PartitionUnit] = []
        for worker, partition in enumerate(partitions):
            for node in partition:
                units.append(
                    PartitionUnit(region=node.region, terms=node.terms, worker_id=worker)
                )
        if not units:
            units.append(PartitionUnit(region=sample.bounds, terms=None, worker_id=0))
        return PartitionPlan(
            units=units,
            num_workers=num_workers,
            bounds=sample.bounds,
            statistics=sample.term_statistics,
            partitioner_name=self.name,
            object_filtering=True,
        )
