"""Text-partitioning baselines (Section VI-B).

All three algorithms divide the lexicon into ``m`` term subsets, assign one
subset to each worker, and route objects/queries purely by their textual
content:

* **Frequency-based partitioning** balances the workers by the raw term
  frequencies observed in the object stream.
* **Hypergraph-based partitioning** (Cambazoglu et al., TWEB 2013 — the
  paper's reference [27]) models queries as hyperedges over their keyword
  vertices and greedily co-locates terms that co-occur in queries, cutting
  as few hyperedges as possible subject to a balance constraint.
* **Metric-based partitioning** (Basık et al., VLDB J. 2015 / S3-TM — the
  paper's reference [28]) balances an expected-matching-work metric that
  combines a term's frequency in the object stream with the number of
  queries posted under it.

All of them produce :class:`~repro.partitioning.base.PartitionPlan` objects
with one unit per worker covering the whole space.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Mapping, Optional, Set

from .base import PartitionPlan, PartitionUnit, Partitioner, WorkloadSample

__all__ = [
    "FrequencyTextPartitioner",
    "HypergraphTextPartitioner",
    "MetricTextPartitioner",
    "balanced_term_assignment",
]


def _query_posting_counts(sample: WorkloadSample) -> Counter:
    """How many sampled queries are posted under each term.

    Queries are routed by the least frequent keyword of each conjunctive
    clause (Section IV-C), so this counter — not the raw keyword counter —
    captures the query-side load a term attracts.
    """
    counts: Counter = Counter()
    statistics = sample.term_statistics
    for query in sample.insertions:
        for key in query.expression.posting_keywords(statistics):
            counts[key] += 1
    return counts


def balanced_term_assignment(
    weights: Mapping[str, float],
    num_workers: int,
    *,
    affinity: Optional[Mapping[str, Mapping[int, float]]] = None,
    affinity_weight: float = 0.0,
    imbalance_tolerance: float = 1.2,
) -> Dict[str, int]:
    """Greedy balanced assignment of weighted terms to workers.

    Terms are processed in descending weight (longest-processing-time
    order).  Without affinities this is plain LPT load balancing.  With
    affinities, a term prefers the worker it has the highest affinity to,
    as long as that worker's accumulated weight stays within
    ``imbalance_tolerance`` times the ideal average.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    loads = [0.0] * num_workers
    assignment: Dict[str, int] = {}
    total_weight = sum(weights.values()) or 1.0
    average = total_weight / num_workers
    ordered = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
    for term, weight in ordered:
        candidate: Optional[int] = None
        if affinity is not None and affinity_weight > 0.0:
            term_affinity = affinity.get(term)
            if term_affinity:
                best_score = None
                for worker, score in term_affinity.items():
                    if loads[worker] + weight > average * imbalance_tolerance:
                        continue
                    weighted = score * affinity_weight - loads[worker] / (average + 1e-9)
                    if best_score is None or weighted > best_score:
                        best_score = weighted
                        candidate = worker
        if candidate is None:
            candidate = loads.index(min(loads))
        loads[candidate] += weight
        assignment[term] = candidate
    return assignment


def _plan_from_assignment(
    assignment: Mapping[str, int],
    sample: WorkloadSample,
    num_workers: int,
    name: str,
) -> PartitionPlan:
    groups: Dict[int, Set[str]] = defaultdict(set)
    for term, worker in assignment.items():
        groups[worker].add(term)
    units = [
        PartitionUnit(region=sample.bounds, terms=frozenset(groups.get(worker, set())), worker_id=worker)
        for worker in range(num_workers)
    ]
    return PartitionPlan(
        units=units,
        num_workers=num_workers,
        bounds=sample.bounds,
        statistics=sample.term_statistics,
        partitioner_name=name,
    )


class FrequencyTextPartitioner(Partitioner):
    """Balance workers by raw object-stream term frequencies."""

    name = "frequency"

    def partition(self, sample: WorkloadSample, num_workers: int) -> PartitionPlan:
        statistics = sample.term_statistics
        weights: Dict[str, float] = {}
        for term in sample.vocabulary():
            weights[term] = float(statistics.frequency(term)) + 1.0
        assignment = balanced_term_assignment(weights, num_workers)
        return _plan_from_assignment(assignment, sample, num_workers, self.name)


class HypergraphTextPartitioner(Partitioner):
    """Co-locate terms that co-occur in queries (hyperedge-cut heuristic).

    The exact hypergraph model of [27] is solved with a multilevel
    partitioner; here a single-level greedy pass is used: terms are
    processed in descending weight and each prefers the worker already
    holding the most co-occurring keywords, subject to a balance tolerance.
    This preserves the baseline's qualitative behaviour (fewer queries
    spanning multiple workers than frequency-based partitioning) without an
    external hypergraph-partitioning dependency.
    """

    name = "hypergraph"

    def __init__(self, imbalance_tolerance: float = 1.25) -> None:
        self._tolerance = imbalance_tolerance

    def partition(self, sample: WorkloadSample, num_workers: int) -> PartitionPlan:
        statistics = sample.term_statistics
        vocabulary = sample.vocabulary()
        weights = {term: float(statistics.frequency(term)) + 1.0 for term in vocabulary}

        # Build keyword co-occurrence lists from the query hyperedges.
        co_occurrence: Dict[str, Counter] = defaultdict(Counter)
        for query in sample.insertions:
            keywords = sorted(query.keywords())
            for index, keyword in enumerate(keywords):
                for other in keywords[index + 1:]:
                    co_occurrence[keyword][other] += 1
                    co_occurrence[other][keyword] += 1

        loads = [0.0] * num_workers
        total_weight = sum(weights.values()) or 1.0
        average = total_weight / num_workers
        assignment: Dict[str, int] = {}
        ordered = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
        for term, weight in ordered:
            affinity_scores = Counter()
            for neighbour, strength in co_occurrence.get(term, {}).items():
                neighbour_worker = assignment.get(neighbour)
                if neighbour_worker is not None:
                    affinity_scores[neighbour_worker] += strength
            candidate: Optional[int] = None
            for worker, _ in affinity_scores.most_common():
                if loads[worker] + weight <= average * self._tolerance:
                    candidate = worker
                    break
            if candidate is None:
                candidate = loads.index(min(loads))
            loads[candidate] += weight
            assignment[term] = candidate
        return _plan_from_assignment(assignment, sample, num_workers, self.name)


class MetricTextPartitioner(Partitioner):
    """Balance an expected-matching-work metric per term (S3-TM style).

    The metric of a term combines how often it appears in the object stream
    with how many queries are posted under it — the product approximates
    the Definition-1 interaction term the worker owning it will pay.
    """

    name = "metric"

    def __init__(self, smoothing: float = 1.0) -> None:
        self._smoothing = smoothing

    def partition(self, sample: WorkloadSample, num_workers: int) -> PartitionPlan:
        statistics = sample.term_statistics
        posting_counts = _query_posting_counts(sample)
        weights: Dict[str, float] = {}
        for term in sample.vocabulary():
            object_frequency = float(statistics.frequency(term))
            query_postings = float(posting_counts.get(term, 0))
            weights[term] = (
                object_frequency * (query_postings + self._smoothing)
                + object_frequency
                + query_postings
            )
        assignment = balanced_term_assignment(weights, num_workers)
        return _plan_from_assignment(assignment, sample, num_workers, self.name)
