"""The PS2Stream cost model (Definitions 1 and 3 in the paper).

The workload partitioners and the cluster simulator share one notion of
"how much work does a worker do":

* **Definition 1 — load of one worker**::

      L_i = c1 * |O_i| * |Qi_i| + c2 * |O_i| + c3 * |Qi_i| + c4 * |Qd_i|

  where ``O_i`` is the set of objects routed to the worker, ``Qi_i`` the
  query insertions and ``Qd_i`` the query deletions in the period, and
  ``c1..c4`` are per-operation average costs.

* **Definition 3 — load of a cell**::

      L_g = n_o * n_q

  the number of objects falling in the cell times the average number of
  queries stored there.  Cell loads drive the Minimum Cost Migration
  problem in Section V.

The reproduction fixes the model and its calibration: :data:`COST_MODEL`
holds ``c1..c4``, and the constants below it turn cost units into the
simulated seconds and milliseconds the reports print.  A calibration fit
edits this module and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = [
    "COST_MODEL",
    "COST_UNIT_SECONDS",
    "CostModel",
    "LATENCY_LOAD_FRACTION",
    "LoadReport",
    "NETWORK_HOP_MS",
    "WorkerLoadCounters",
    "cell_load",
]


@dataclass(frozen=True)
class CostModel:
    """Per-operation cost constants of Definition 1.

    Defaults reflect the relative magnitudes measured from the pure-Python
    kernels in this repository (a match check is roughly an order of
    magnitude cheaper than handling an object end-to-end, and insertions
    are slightly more expensive than deletions because of index updates).
    Absolute units are arbitrary "cost units"; only ratios matter for
    partitioning decisions.
    """

    match_check: float = 0.05     # c1: object-vs-query check
    object_handling: float = 1.0  # c2: per-object overhead (route, probe cells)
    insert_handling: float = 1.2  # c3: per-insertion overhead
    delete_handling: float = 0.8  # c4: per-deletion overhead

    def worker_load(
        self,
        objects: int,
        insertions: int,
        deletions: int,
        *,
        average_resident_queries: Optional[float] = None,
    ) -> float:
        """Evaluate Definition 1 for one worker over a period.

        ``average_resident_queries`` estimates how many queries each object
        is checked against; when omitted the paper's literal formulation is
        used with ``|Qi_i|`` (insertions in the period) as the interaction
        term, which is what the partitioners optimise over a static sample.
        """
        interaction = (
            average_resident_queries if average_resident_queries is not None else insertions
        )
        return (
            self.match_check * objects * interaction
            + self.object_handling * objects
            + self.insert_handling * insertions
            + self.delete_handling * deletions
        )


#: The Definition-1 constants every partitioner and worker prices work with.
COST_MODEL = CostModel()
#: Seconds per cost unit: one object-handling unit is a few tens of
#: microseconds of Python matching work.
COST_UNIT_SECONDS = 20e-6
#: Input rate (as a fraction of saturation) at which latency is reported.
LATENCY_LOAD_FRACTION = 0.6
#: Network / framework overhead per hop (source -> dispatcher -> worker),
#: matching the millisecond-scale per-tuple latency floor of a Storm
#: deployment on EC2.
NETWORK_HOP_MS = 4.0


def cell_load(object_count: int, average_query_count: float) -> float:
    """Definition 3: ``L_g = n_o * n_q``."""
    if object_count < 0 or average_query_count < 0:
        raise ValueError("cell load inputs must be non-negative")
    return object_count * average_query_count


@dataclass
class WorkerLoadCounters:
    """Mutable per-worker counters accumulated over a measurement period."""

    objects: int = 0
    insertions: int = 0
    deletions: int = 0
    match_checks: int = 0
    matches: int = 0

    def record_object_batch(self, objects: int, checks: int = 0, matches: int = 0) -> None:
        self.objects += objects
        self.match_checks += checks
        self.matches += matches

    def reset(self) -> None:
        self.objects = 0
        self.insertions = 0
        self.deletions = 0
        self.match_checks = 0
        self.matches = 0

    def load(self, model: CostModel) -> float:
        """Exact load: uses the *actual* number of match checks performed."""
        return (
            model.match_check * self.match_checks
            + model.object_handling * self.objects
            + model.insert_handling * self.insertions
            + model.delete_handling * self.deletions
        )

    def snapshot(self) -> "WorkerLoadCounters":
        return WorkerLoadCounters(
            objects=self.objects,
            insertions=self.insertions,
            deletions=self.deletions,
            match_checks=self.match_checks,
            matches=self.matches,
        )


@dataclass
class LoadReport:
    """Cluster-wide load summary used by partitioner evaluations and benches."""

    worker_loads: Dict[int, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.worker_loads.values())

    @property
    def maximum(self) -> float:
        return max(self.worker_loads.values()) if self.worker_loads else 0.0

    @property
    def minimum(self) -> float:
        return min(self.worker_loads.values()) if self.worker_loads else 0.0

    @property
    def imbalance(self) -> float:
        """The load-balance factor ``L_max / L_min`` (1.0 is perfect).

        When the minimum load is zero the factor is infinite; we return
        ``float('inf')`` so callers can still compare against the paper's
        constraint ``L_max / L_min <= sigma``.
        """
        if not self.worker_loads:
            return 1.0
        minimum = self.minimum
        if minimum <= 0.0:
            return float("inf") if self.maximum > 0.0 else 1.0
        return self.maximum / minimum

    def most_loaded(self) -> Optional[int]:
        if not self.worker_loads:
            return None
        return max(self.worker_loads, key=self.worker_loads.get)

    def least_loaded(self) -> Optional[int]:
        if not self.worker_loads:
            return None
        return min(self.worker_loads, key=self.worker_loads.get)
