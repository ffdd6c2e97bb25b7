"""Statistical building blocks of the synthetic workload generators.

The paper evaluates on two proprietary corpora (TWEETS-US with 280 million
and TWEETS-UK with 58 million geo-tagged tweets).  The generators in this
package substitute seeded synthetic streams that reproduce the three
statistics the experiments actually depend on:

* a power-law (Zipfian) term frequency distribution over the vocabulary;
* spatially clustered object density (people tweet from cities);
* regionally varying topical vocabularies, so that the text distributions
  of objects and queries differ between regions (the situation Figure 2
  motivates and the Q3 query sets exploit).

This module provides the low-level samplers; :mod:`repro.workload.tweets`
assembles them into object streams.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from ..core.geometry import Point, Rect

__all__ = [
    "ZipfVocabulary",
    "SpatialClusterModel",
    "TopicModel",
    "US_BOUNDS",
    "UK_BOUNDS",
]

#: Approximate bounding box of the contiguous United States (lon/lat).
US_BOUNDS = Rect(-125.0, 24.0, -66.0, 50.0)
#: Approximate bounding box of Great Britain (lon/lat).
UK_BOUNDS = Rect(-8.0, 49.9, 2.0, 59.5)


class ZipfVocabulary:
    """A vocabulary of synthetic terms with Zipfian sampling weights.

    Term ``i`` (1-based rank) has weight ``1 / i**exponent``.  Sampling is
    done by binary search over the cumulative weights, which keeps the
    generator fast enough to synthesise hundreds of thousands of tweets.
    """

    def __init__(self, size: int = 5000, exponent: float = 1.0, prefix: str = "term") -> None:
        if size <= 0:
            raise ValueError("vocabulary size must be positive")
        self.terms: List[str] = ["%s%05d" % (prefix, rank) for rank in range(1, size + 1)]
        weights = [1.0 / (rank ** exponent) for rank in range(1, size + 1)]
        total = sum(weights)
        #: ``terms[bisect_left(cumulative, rng.random())]`` is one Zipf draw.
        self.cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self.cumulative.append(running)
        # random() < 1.0, so bisect_left(cumulative, random()) is an index.
        self.cumulative[-1] = 1.0

    def __len__(self) -> int:
        return len(self.terms)

    def head(self, fraction: float) -> List[str]:
        """The most frequent ``fraction`` of the vocabulary (by rank)."""
        cutoff = max(1, int(round(len(self.terms) * fraction)))
        return self.terms[:cutoff]

    def tail(self, fraction: float) -> List[str]:
        """The least frequent ``fraction`` of the vocabulary (by rank)."""
        cutoff = max(1, int(round(len(self.terms) * fraction)))
        return self.terms[-cutoff:]


@dataclass(frozen=True)
class _Cluster:
    center: Point
    spread_x: float
    spread_y: float
    weight: float


class SpatialClusterModel:
    """A mixture of 2-D Gaussian clusters clipped to a bounding box.

    Models the city-centric density of geo-tagged tweets.  Cluster centres,
    spreads and weights are drawn from the seeded ``rng`` at construction
    so that a given seed always produces the same "country".
    """

    def __init__(
        self,
        bounds: Rect,
        num_clusters: int = 20,
        seed: int = 0,
        *,
        uniform_fraction: float = 0.1,
    ) -> None:
        if num_clusters <= 0:
            raise ValueError("num_clusters must be positive")
        if not 0.0 <= uniform_fraction <= 1.0:
            raise ValueError("uniform_fraction must lie in [0, 1]")
        self.bounds = bounds
        self.uniform_fraction = uniform_fraction
        rng = random.Random(seed)
        clusters: List[_Cluster] = []
        for _ in range(num_clusters):
            center = Point(
                rng.uniform(bounds.min_x, bounds.max_x),
                rng.uniform(bounds.min_y, bounds.max_y),
            )
            spread_x = rng.uniform(0.01, 0.06) * bounds.width
            spread_y = rng.uniform(0.01, 0.06) * bounds.height
            weight = rng.uniform(0.5, 3.0)
            clusters.append(_Cluster(center, spread_x, spread_y, weight))
        total = sum(cluster.weight for cluster in clusters)
        self._clusters = clusters
        self._cumulative: List[float] = []
        running = 0.0
        for cluster in clusters:
            running += cluster.weight / total
            self._cumulative.append(running)
        # random() < 1.0, so bisect_left(_cumulative, random()) is an index.
        self._cumulative[-1] = 1.0

    @property
    def clusters(self) -> Sequence[_Cluster]:
        return self._clusters

    def sampler(self, rng: random.Random) -> Callable[[], Tuple[Point, int]]:
        """``draw() -> (location, cluster_index)`` on ``rng``; index -1 is uniform noise.

        The model and ``rng`` are read once here, not once per draw.
        """
        random_, uniform, gauss = rng.random, rng.uniform, rng.gauss
        min_x, min_y, max_x, max_y = self.bounds.as_tuple()
        fraction, cumulative = self.uniform_fraction, self._cumulative
        shapes = [(c.center.x, c.spread_x, c.center.y, c.spread_y) for c in self._clusters]

        def draw() -> Tuple[Point, int]:
            if random_() < fraction:
                return Point(uniform(min_x, max_x), uniform(min_y, max_y)), -1
            index = bisect_left(cumulative, random_())
            center_x, spread_x, center_y, spread_y = shapes[index]
            x = gauss(center_x, spread_x)
            y = gauss(center_y, spread_y)
            return Point(min(max(x, min_x), max_x), min(max(y, min_y), max_y)), index

        return draw


class TopicModel:
    """Per-cluster topical vocabularies layered over the global Zipf terms.

    Each spatial cluster is associated with a small set of "topic" terms;
    tweets from that cluster mix globally popular terms with their local
    topic terms.  This is what makes text distributions differ by region —
    the property the hybrid partitioner exploits.
    """

    def __init__(
        self,
        vocabulary: ZipfVocabulary,
        num_clusters: int,
        seed: int = 0,
        *,
        topic_terms_per_cluster: int = 40,
        topical_fraction: float = 0.35,
    ) -> None:
        self.vocabulary = vocabulary
        self.topical_fraction = topical_fraction
        rng = random.Random(seed ^ 0x5EED)
        # Topic terms come from the middle of the Zipf distribution: not so
        # frequent that they dominate everywhere, not so rare they never occur.
        middle = vocabulary.terms[len(vocabulary.terms) // 10: len(vocabulary.terms) // 2]
        if not middle:
            middle = list(vocabulary.terms)
        self._topics: List[List[str]] = []
        for _ in range(max(1, num_clusters)):
            self._topics.append(rng.sample(middle, min(topic_terms_per_cluster, len(middle))))

    def topic_terms(self, cluster_index: int) -> List[str]:
        if cluster_index < 0:
            return []
        return self._topics[cluster_index % len(self._topics)]

    def sampler(self, rng: random.Random) -> Callable[[int, int], List[str]]:
        """``draw(count, cluster_index)``: ``count`` terms of one tweet, on ``rng``.

        A term is a topic term of the cluster with probability
        ``topical_fraction``, else a Zipf draw over the whole vocabulary
        (this loop is most of a stream's generation).  Uniform noise
        (index -1) has no topic, so its terms are all Zipf draws.
        """
        random_, choice, topic_terms = rng.random, rng.choice, self.topic_terms
        terms, cumulative = self.vocabulary.terms, self.vocabulary.cumulative
        fraction = self.topical_fraction

        def draw(count: int, cluster_index: int) -> List[str]:
            topic = topic_terms(cluster_index)
            return [
                choice(topic) if topic and random_() < fraction
                else terms[bisect_left(cumulative, random_())]
                for _ in range(count)
            ]

        return draw
