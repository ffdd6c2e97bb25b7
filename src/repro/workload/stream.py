"""The workload stream driver (Section VI-A, "Workload").

The paper drives its experiments with a mixed stream where

* the ratio of spatio-textual objects to STS query updates is roughly 5:1;
* insertion and deletion requests arrive at the same rate, so the live
  query population stabilises;
* the number of live queries is controlled by a parameter ``mu``: the
  lifetime of a query (measured in newly arrived queries between its
  insertion and deletion) follows a Gaussian ``N(mu, (0.2 mu)^2)``.

:class:`WorkloadStream` reproduces this protocol: it first materialises a
warm-up population of ``mu`` queries, then interleaves objects with
insertions/deletions whose expiry follows the Gaussian lifetime rule.  A
drift hook lets the Figure 16 bench flip the regional query styles while
the stream is running.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.objects import STSQuery, StreamTuple
from ..partitioning.base import WorkloadSample
from .queries import QueryGenerator, RegionalStyleMap
from .tweets import TweetGenerator

__all__ = ["StreamConfig", "WorkloadStream"]


@dataclass(frozen=True)
class StreamConfig:
    """Shape of the mixed object/update stream."""

    #: Target number of live STS queries (the paper's ``mu``).
    mu: int = 1000
    #: Objects per query-update operation (the paper uses ~5).
    objects_per_update: int = 5
    #: Standard deviation of the query lifetime as a fraction of ``mu``.
    sigma_fraction: float = 0.2
    #: Query group to draw from: "Q1", "Q2" or "Q3".
    group: str = "Q1"


class WorkloadStream:
    """Generates the interleaved object / insert / delete tuple stream."""

    def __init__(
        self,
        tweets: TweetGenerator,
        queries: QueryGenerator,
        config: StreamConfig,
        seed: int = 11,
        style_map: Optional[RegionalStyleMap] = None,
    ) -> None:
        self.tweets = tweets
        self.queries = queries
        self.config = config
        self._rng = random.Random(seed)
        self._style_map = style_map
        group = config.group.upper()
        self._group = group if group in ("Q2", "Q3") else "Q1"
        self._clock = 0.0
        self._inserted_count = 0
        # Priority queue of (expiry_insertion_index, query_id, query).
        self._expiry_heap: List[Tuple[int, int, STSQuery]] = []
        #: Live queries by id, in insertion order (deletion is a dict pop).
        self._live: Dict[int, STSQuery] = {}
        self._warmup: Optional[List[STSQuery]] = None

    # ------------------------------------------------------------------
    # Query lifecycle helpers
    # ------------------------------------------------------------------
    def _lifetime(self) -> int:
        mu = self.config.mu
        sigma = max(1.0, self.config.sigma_fraction * mu)
        return max(1, int(round(self._rng.gauss(mu, sigma))))

    def _new_query(self) -> STSQuery:
        query = self.queries.make_query(self._group, style_map=self._style_map)
        self._inserted_count += 1
        expiry = self._inserted_count + self._lifetime()
        heapq.heappush(self._expiry_heap, (expiry, query.query_id, query))
        self._live[query.query_id] = query
        return query

    def _expired_query(self) -> Optional[STSQuery]:
        """The next query due for deletion (oldest expiry first)."""
        while self._expiry_heap:
            _, query_id, query = heapq.heappop(self._expiry_heap)
            if self._live.pop(query_id, None) is None:
                continue
            return query
        return None

    # ------------------------------------------------------------------
    # Warm-up and sampling
    # ------------------------------------------------------------------
    def warmup_queries(self) -> List[STSQuery]:
        """The initial population of ``mu`` live queries (generated once)."""
        if self._warmup is None:
            self._warmup = [self._new_query() for _ in range(self.config.mu)]
        return list(self._warmup)

    def live_queries(self) -> List[STSQuery]:
        return list(self._live.values())

    @property
    def live_query_count(self) -> int:
        return len(self._live)

    def partitioning_sample(self, object_count: int) -> WorkloadSample:
        """A :class:`WorkloadSample` for driving the partitioners.

        Uses a dedicated draw of objects from the same generator (so the
        sample shares the stream's distribution without consuming the
        stream itself) plus the warm-up query population.
        """
        objects = self.tweets.generate(object_count)
        return WorkloadSample(
            objects=objects,
            insertions=self.warmup_queries(),
            bounds=self.tweets.bounds,
        )

    # ------------------------------------------------------------------
    # Stream generation
    # ------------------------------------------------------------------
    def tuples(
        self,
        num_objects: int,
        *,
        include_warmup: bool = True,
        on_insert: Optional[Callable[[int], None]] = None,
    ) -> Iterator[StreamTuple]:
        """Yield the interleaved tuple stream.

        ``num_objects`` objects are produced; query updates are interleaved
        so that the object-to-update ratio matches the configuration and
        insertions/deletions alternate.  ``on_insert`` is called with the
        running insertion count after every insertion — the Figure 16 bench
        uses it to trigger drift.
        """
        if include_warmup:
            for query in self.warmup_queries():
                self._clock += 1.0
                yield StreamTuple.insert(query, arrival_time=self._clock)

        produced_objects = 0
        next_is_insert = True
        updates_per_block = 1
        block = max(1, self.config.objects_per_update)
        while produced_objects < num_objects:
            for _ in range(min(block, num_objects - produced_objects)):
                self._clock += 1.0
                obj = self.tweets.generate_one(self._clock)
                produced_objects += 1
                yield StreamTuple.object(obj, self._clock)
            for _ in range(updates_per_block):
                self._clock += 1.0
                if next_is_insert:
                    query = self._new_query()
                    if on_insert is not None:
                        on_insert(self._inserted_count)
                    yield StreamTuple.insert(query, arrival_time=self._clock)
                else:
                    expired = self._expired_query()
                    if expired is not None:
                        yield StreamTuple.delete(expired, arrival_time=self._clock)
                next_is_insert = not next_is_insert
