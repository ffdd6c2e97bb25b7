"""Workload-partitioning strategies.

Baselines evaluated in Section VI-B:

* text partitioning — :class:`FrequencyTextPartitioner`,
  :class:`HypergraphTextPartitioner`, :class:`MetricTextPartitioner`;
* space partitioning — :class:`GridSpacePartitioner`,
  :class:`KDTreeSpacePartitioner`, :class:`RTreeSpacePartitioner`.

The paper's contribution, Section IV-B:

* :class:`HybridPartitioner` (Algorithm 1) with :class:`HybridConfig`.

All strategies implement the :class:`Partitioner` interface and produce
:class:`PartitionPlan` objects.
"""

from .base import (
    PartitionPlan,
    PartitionUnit,
    Partitioner,
    WorkloadSample,
)
from .hybrid import HybridConfig, HybridPartitioner
from .space import (
    GridSpacePartitioner,
    KDTreeSpacePartitioner,
    RTreeSpacePartitioner,
    pack_weighted_items,
)
from .text import (
    FrequencyTextPartitioner,
    HypergraphTextPartitioner,
    MetricTextPartitioner,
    balanced_term_assignment,
)

ALL_BASELINES = {
    "frequency": FrequencyTextPartitioner,
    "hypergraph": HypergraphTextPartitioner,
    "metric": MetricTextPartitioner,
    "grid": GridSpacePartitioner,
    "kd-tree": KDTreeSpacePartitioner,
    "r-tree": RTreeSpacePartitioner,
}

__all__ = [
    "ALL_BASELINES",
    "FrequencyTextPartitioner",
    "GridSpacePartitioner",
    "HybridConfig",
    "HybridPartitioner",
    "HypergraphTextPartitioner",
    "KDTreeSpacePartitioner",
    "MetricTextPartitioner",
    "PartitionPlan",
    "PartitionUnit",
    "Partitioner",
    "RTreeSpacePartitioner",
    "WorkloadSample",
    "balanced_term_assignment",
    "pack_weighted_items",
]
