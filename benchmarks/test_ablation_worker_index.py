"""Ablation D — worker index choice: GI2 versus an R-tree query index.

Section IV-D argues for the GI2 index "due to its efficiency in
construction and maintaining, which is important for processing a dynamic
workload like the data stream", while noting that the centralized
spatial-keyword pub/sub indexes from related work could be plugged in
instead.  This ablation quantifies that trade-off with the
:class:`repro.indexes.rq_index.RQIndex` alternative: build cost, matching
cost, and maintenance cost under insert/delete churn.
"""

import pytest

from repro.core import TermStatistics
from repro.indexes.gi2 import GI2Index
from repro.indexes.rq_index import RQIndex
from repro.workload import QueryGenerator, make_dataset


@pytest.fixture(scope="module")
def workload():
    tweets = make_dataset("us", seed=21)
    queries = QueryGenerator(tweets, seed=22).generate("Q1", 1500)
    objects = tweets.generate(1500)
    churn = QueryGenerator(tweets, seed=23).generate("Q1", 500)
    stats = TermStatistics()
    for obj in objects:
        stats.add_document(obj.terms)
    return tweets, queries, objects, churn, stats


def _build_gi2(tweets, queries, stats):
    index = GI2Index(tweets.bounds, granularity=64, term_statistics=stats)
    for query in queries:
        index.insert(query)
    return index


def _build_rq(tweets, queries, stats):
    index = RQIndex(tweets.bounds, term_statistics=stats)
    for query in queries:
        index.insert(query)
    return index


@pytest.mark.parametrize("kind", ["GI2", "RQ-index"])
def test_ablation_worker_index_build(benchmark, record_row, workload, kind):
    tweets, queries, _, _, stats = workload
    builder = _build_gi2 if kind == "GI2" else _build_rq
    index = benchmark(lambda: builder(tweets, queries, stats))
    record_row(
        "Ablation D: worker index construction (1500 Q1 queries)",
        {
            "index": kind,
            "build time (s)": benchmark.stats.stats.mean,
            "memory (KB)": index.memory_bytes() / 1e3,
        },
    )


@pytest.mark.parametrize("kind", ["GI2", "RQ-index"])
def test_ablation_worker_index_matching(benchmark, record_row, workload, kind):
    tweets, queries, objects, _, stats = workload
    builder = _build_gi2 if kind == "GI2" else _build_rq
    index = builder(tweets, queries, stats)

    def match_all():
        return sum(len(index.match(obj).query_ids) for obj in objects)

    matches = benchmark(match_all)
    record_row(
        "Ablation D: worker index matching (1500 objects)",
        {
            "index": kind,
            "match time (s)": benchmark.stats.stats.mean,
            "matches": matches,
        },
    )


@pytest.mark.parametrize("kind", ["GI2", "RQ-index"])
def test_ablation_worker_index_churn(benchmark, record_row, workload, kind):
    tweets, queries, _, churn, stats = workload
    builder = _build_gi2 if kind == "GI2" else _build_rq

    def run_churn():
        index = builder(tweets, queries[:1000], stats)
        for query in churn:
            index.insert(query)
        for query in churn:
            index.delete(query.query_id)
        index.compact()
        return index.query_count

    remaining = benchmark(run_churn)
    assert remaining == 1000
    record_row(
        "Ablation D: worker index maintenance (500 inserts + 500 deletes)",
        {
            "index": kind,
            "churn time (s)": benchmark.stats.stats.mean,
        },
    )
