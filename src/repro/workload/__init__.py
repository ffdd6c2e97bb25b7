"""Synthetic workload generation: tweets, STS queries and mixed streams.

Stand-ins for the paper's TWEETS-US / TWEETS-UK corpora and the STS-*-Q1 /
Q2 / Q3 query groups (Section VI-A), plus the stream driver that interleaves
objects with query insertions/deletions at the paper's 5:1 ratio.
"""

from .distributions import (
    UK_BOUNDS,
    US_BOUNDS,
    SpatialClusterModel,
    TopicModel,
    ZipfVocabulary,
)
from .queries import QueryGenerator, QueryGroup, RegionalStyleMap
from .stream import StreamConfig, WorkloadStream
from .tweets import UK_SPEC, US_SPEC, DatasetSpec, TweetGenerator, make_dataset

__all__ = [
    "DatasetSpec",
    "QueryGenerator",
    "QueryGroup",
    "RegionalStyleMap",
    "SpatialClusterModel",
    "StreamConfig",
    "TopicModel",
    "TweetGenerator",
    "UK_BOUNDS",
    "UK_SPEC",
    "US_BOUNDS",
    "US_SPEC",
    "WorkloadStream",
    "ZipfVocabulary",
    "make_dataset",
]
