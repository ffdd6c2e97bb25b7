"""STS query generators: the Q1 / Q2 / Q3 groups of Section VI-A.

The paper synthesises subscription queries from the tweet corpora:

* **Q1** — 1 to 3 keywords connected by AND or OR, drawn from the same
  power-law distribution as the tweet terms; square ranges with side
  lengths between 1 km and 50 km centred on tweet locations.
* **Q2** — side lengths between 1 km and 100 km; at least one keyword is
  *not* among the top 1 % most frequent terms.
* **Q3** — the space is divided into 100 equally sized regions and each
  region uses either the Q1 or the Q2 recipe, simulating users in different
  regions having different preferences (Section VI-C).

For the dynamic-adjustment experiment (Figure 16) the Q3 style map can be
*drifted*: a fraction of the regions flip between Q1 and Q2 style at fixed
intervals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..core.expression import BooleanExpression
from ..core.geometry import Point, Rect, km_to_degrees
from ..core.objects import STSQuery
from .tweets import TweetGenerator

__all__ = ["QueryGenerator", "RegionalStyleMap", "QueryGroup"]


@dataclass(frozen=True)
class QueryGroup:
    """Parameters of one query recipe (Q1 or Q2)."""

    name: str
    min_side_km: float
    max_side_km: float
    require_infrequent_keyword: bool


#: The two recipes by name; Q3 picks one of them per region.
GROUPS: Dict[str, QueryGroup] = {
    "Q1": QueryGroup("Q1", min_side_km=1.0, max_side_km=50.0, require_infrequent_keyword=False),
    "Q2": QueryGroup("Q2", min_side_km=1.0, max_side_km=100.0, require_infrequent_keyword=True),
}


class RegionalStyleMap:
    """Assigns a query recipe (Q1 or Q2) to each of ``rows x cols`` regions.

    Used by the Q3 generator and by the drift model of Figure 16.
    """

    def __init__(self, bounds: Rect, rows: int = 10, cols: int = 10, seed: int = 0) -> None:
        self.bounds = bounds
        self.rows = rows
        self.cols = cols
        rng = random.Random(seed)
        self._styles: List[str] = [
            "Q1" if rng.random() < 0.5 else "Q2" for _ in range(rows * cols)
        ]

    def region_of(self, point: Point) -> int:
        col = int((point.x - self.bounds.min_x) / self.bounds.width * self.cols)
        row = int((point.y - self.bounds.min_y) / self.bounds.height * self.rows)
        col = min(max(col, 0), self.cols - 1)
        row = min(max(row, 0), self.rows - 1)
        return row * self.cols + col

    def style_at(self, point: Point) -> str:
        return self._styles[self.region_of(point)]

    def styles(self) -> List[str]:
        return list(self._styles)

    def flip(self, fraction: float, rng: Optional[random.Random] = None) -> List[int]:
        """Switch the style of a random ``fraction`` of the regions.

        Returns the indices of the flipped regions.  This is the drift used
        in the Figure 16 experiment ("the types of queries in 10% of the
        regions switch between STS-US-Q1 and STS-US-Q2").
        """
        rng = rng if rng is not None else random.Random(0)
        count = max(1, int(round(len(self._styles) * fraction)))
        indices = rng.sample(range(len(self._styles)), count)
        for index in indices:
            self._styles[index] = "Q2" if self._styles[index] == "Q1" else "Q1"
        return indices


class QueryGenerator:
    """Synthesises STS queries from a tweet generator's statistics."""

    def __init__(self, tweets: TweetGenerator, seed: int = 7) -> None:
        self.tweets = tweets
        self._rng = random.Random(seed)
        self._draw_location = tweets.spatial.sampler(self._rng)
        self._draw_terms = tweets.topics.sampler(self._rng)
        self._frequent: Set[str] = set(tweets.frequent_terms(0.01))
        self._infrequent_pool: List[str] = tweets.infrequent_terms(0.7)
        self._style_map: Optional[RegionalStyleMap] = None
        self._seed = seed

    # ------------------------------------------------------------------
    # Keyword and range synthesis
    # ------------------------------------------------------------------
    #: Probability that a Q2 keyword is drawn from the infrequent tail of
    #: the vocabulary.  The paper's Q2 rule ("at least one keyword not in
    #: the top 1% most frequent terms") is stated against a multi-million
    #: term Twitter vocabulary where the top 1% covers nearly all token
    #: occurrences; with our much smaller synthetic vocabulary the same
    #: *intent* — query keywords that rarely occur in objects — is obtained
    #: by biasing Q2 keywords towards the tail (see DESIGN.md).
    INFREQUENT_KEYWORD_BIAS = 0.7

    def _sample_keywords(self, cluster: int, group: QueryGroup) -> List[str]:
        rng = self._rng
        count = rng.randint(1, 3)
        keywords: List[str] = []
        attempts = 0
        # The first attempt always lands, so ``keywords`` is never empty.
        while len(keywords) < count and attempts < 20 * count:
            if group.require_infrequent_keyword and rng.random() < self.INFREQUENT_KEYWORD_BIAS:
                term = rng.choice(self._infrequent_pool)
            else:
                term = self._draw_terms(1, cluster)[0]
            attempts += 1
            if term not in keywords:
                keywords.append(term)
        if group.require_infrequent_keyword and all(k in self._frequent for k in keywords):
            keywords[rng.randrange(len(keywords))] = rng.choice(self._infrequent_pool)
        return keywords

    def make_query(
        self, group_name: str, timestamp: float = 0.0, style_map: Optional[RegionalStyleMap] = None
    ) -> STSQuery:
        """One query of group ``"Q1"``, ``"Q2"`` or ``"Q3"``.

        A Q3 query takes the recipe of the region its centre falls in, on
        ``style_map`` (default: :meth:`style_map`).
        """
        rng = self._rng
        center, cluster = self._draw_location()
        if group_name == "Q3":
            style_map = style_map if style_map is not None else self.style_map()
            group = GROUPS[style_map.style_at(center)]
        else:
            group = GROUPS[group_name]
        keywords = self._sample_keywords(cluster, group)
        if len(keywords) == 1 or rng.random() < 0.5:
            expression = BooleanExpression.conjunction(keywords)
        else:
            expression = BooleanExpression.disjunction(keywords)
        side_km = rng.uniform(group.min_side_km, group.max_side_km)
        d_lon, d_lat = km_to_degrees(side_km, latitude_deg=center.y)
        return STSQuery.create(
            expression,
            Rect.from_center(center, d_lon, d_lat),
            timestamp=timestamp,
            subscriber_id=rng.randrange(1, 1_000_000),
        )

    # ------------------------------------------------------------------
    # Public recipes
    # ------------------------------------------------------------------
    def generate(self, group_name: str, count: int) -> List[STSQuery]:
        """Generate by group name: ``"Q1"``, ``"Q2"`` or ``"Q3"``."""
        key = group_name.strip().upper()
        if key not in ("Q1", "Q2", "Q3"):
            raise ValueError("unknown query group %r" % group_name)
        return [self.make_query(key, float(index)) for index in range(count)]

    def style_map(self) -> RegionalStyleMap:
        """The (lazily created) 10x10 regional style map used by Q3."""
        if self._style_map is None:
            self._style_map = RegionalStyleMap(self.tweets.bounds, 10, 10, seed=self._seed)
        return self._style_map
