"""Synthetic geo-tweet streams standing in for TWEETS-US and TWEETS-UK.

See :mod:`repro.workload.distributions` for the statistical model and
DESIGN.md for the substitution rationale.  The generators are deterministic
for a given seed, so every bench run and test sees the same "dataset".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..core.geometry import Rect
from ..core.objects import SpatioTextualObject
from ..core.text import tokenize
from .distributions import (
    UK_BOUNDS,
    US_BOUNDS,
    SpatialClusterModel,
    TopicModel,
    ZipfVocabulary,
)

__all__ = ["TweetGenerator", "DatasetSpec", "make_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """Shape parameters of a synthetic tweet corpus."""

    name: str
    bounds: Rect
    vocabulary_size: int = 5000
    num_clusters: int = 25
    zipf_exponent: float = 1.05
    min_terms: int = 3
    max_terms: int = 9


#: Stand-ins for the paper's two corpora.  The UK dataset is smaller in
#: space and uses fewer clusters, matching its denser, smaller geography.
US_SPEC = DatasetSpec(name="TWEETS-US", bounds=US_BOUNDS, num_clusters=30)
UK_SPEC = DatasetSpec(name="TWEETS-UK", bounds=UK_BOUNDS, num_clusters=12)


class TweetGenerator:
    """Streams :class:`SpatioTextualObject` instances for one dataset."""

    def __init__(self, spec: DatasetSpec = US_SPEC, seed: int = 42) -> None:
        self.spec = spec
        self.seed = seed
        self.vocabulary = ZipfVocabulary(spec.vocabulary_size, spec.zipf_exponent)
        self.spatial = SpatialClusterModel(spec.bounds, spec.num_clusters, seed)
        self.topics = TopicModel(self.vocabulary, spec.num_clusters, seed)
        # Objects take their terms from the draw instead of tokenising the
        # joined text: sound only while every term is one token of its own,
        # i.e. while the joined vocabulary tokenises back to itself.
        if tokenize(" ".join(self.vocabulary.terms)) != self.vocabulary.terms:
            raise ValueError("every vocabulary term must tokenise to itself")
        self._rng = random.Random(seed)
        self._draw_location = self.spatial.sampler(self._rng)
        self._draw_terms = self.topics.sampler(self._rng)
        self._generated = 0

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate_one(self, timestamp: float = 0.0) -> SpatioTextualObject:
        """Produce the next tweet in the stream."""
        location, cluster = self._draw_location()
        spec = self.spec
        terms = self._draw_terms(self._rng.randint(spec.min_terms, spec.max_terms), cluster)
        self._generated += 1
        return SpatioTextualObject.create(
            " ".join(terms), location, timestamp=timestamp, terms=terms
        )

    def generate(self, count: int, start_time: float = 0.0, time_step: float = 1.0) -> List[SpatioTextualObject]:
        """Produce ``count`` tweets with increasing timestamps."""
        return [
            self.generate_one(timestamp=start_time + index * time_step)
            for index in range(count)
        ]

    def stream(self, count: Optional[int] = None) -> Iterator[SpatioTextualObject]:
        """An (optionally unbounded) iterator of tweets."""
        produced = 0
        while count is None or produced < count:
            yield self.generate_one(timestamp=float(self._generated))
            produced += 1

    # ------------------------------------------------------------------
    # Convenience accessors used by the query generators
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> Rect:
        return self.spec.bounds

    def frequent_terms(self, fraction: float = 0.01) -> List[str]:
        """The top ``fraction`` most frequent vocabulary terms (by Zipf rank)."""
        return self.vocabulary.head(fraction)

    def infrequent_terms(self, fraction: float = 0.5) -> List[str]:
        """The bottom ``fraction`` of the vocabulary (by Zipf rank)."""
        return self.vocabulary.tail(fraction)


def make_dataset(name: str = "us", seed: int = 42) -> TweetGenerator:
    """Build the ``"us"`` or ``"uk"`` tweet generator."""
    key = name.strip().lower()
    if key in ("us", "tweets-us"):
        return TweetGenerator(US_SPEC, seed)
    if key in ("uk", "tweets-uk"):
        return TweetGenerator(UK_SPEC, seed)
    raise ValueError("unknown dataset %r (expected 'us' or 'uk')" % name)
