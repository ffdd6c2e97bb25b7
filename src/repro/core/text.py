"""Text processing utilities: tokenisation, term statistics and similarity.

The paper's algorithms depend on a small set of textual primitives:

* tokenising the content of spatio-textual objects into terms;
* per-region term-frequency statistics (used to pick the least frequent
  keyword of a query, to build text partitions, and to decide between
  space- and text-partitioning);
* cosine similarity between the term distribution of objects and the term
  distribution of queries inside a subspace (Algorithm 1, line 5).

Everything here is deliberately dependency-free and cheap: these functions
sit on the hot path of the dispatcher and workers.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Mapping, Optional, Set, Tuple

__all__ = [
    "tokenize",
    "TermStatistics",
    "cosine_similarity",
]

_TOKEN_RE = re.compile(r"[a-z0-9']+")

#: A minimal English stop-word list.  The paper does not describe its text
#: pre-processing; we follow the common IR convention of dropping the most
#: frequent closed-class words so that query keywords are content words.
STOP_WORDS: Set[str] = {
    "a", "an", "the", "and", "or", "not", "is", "are", "was", "were", "be",
    "been", "am", "do", "does", "did", "to", "of", "in", "on", "at", "for",
    "with", "by", "from", "that", "this", "these", "those", "it", "its",
    "i", "you", "he", "she", "we", "they", "me", "my", "your", "his", "her",
    "our", "their", "so", "but", "if", "as", "than", "then", "too", "very",
    "can", "will", "just", "have", "has", "had",
}


def tokenize(text: str, *, remove_stop_words: bool = True) -> List[str]:
    """Split ``text`` into lower-case terms.

    Tokens are maximal runs of ASCII letters, digits and apostrophes.  Stop
    words are removed by default because subscription keywords are content
    words; duplicates are preserved (term frequency matters for statistics).
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if remove_stop_words:
        return [token for token in tokens if token not in STOP_WORDS]
    return tokens


@dataclass
class TermStatistics:
    """Mutable term-frequency statistics over a corpus of token sequences.

    The dispatcher and the partitioners keep one instance per region (or per
    kdt-tree node) to answer three questions:

    * how frequent is a term (``frequency`` / ``relative_frequency``)?
    * which of a set of terms is least frequent (``least_frequent``)?
    * what does the overall distribution look like (``as_counter``)?
    """

    _counts: Counter = field(default_factory=Counter)
    _total: int = 0
    _documents: int = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_document(self, tokens: Iterable[str]) -> None:
        """Account for one document's tokens."""
        added = 0
        for token in tokens:
            self._counts[token] += 1
            added += 1
        self._total += added
        self._documents += 1

    def merge(self, other: "TermStatistics") -> None:
        """Fold another statistics object into this one."""
        self._counts.update(other._counts)
        self._total += other._total
        self._documents += other._documents

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total_terms(self) -> int:
        """Total number of term occurrences accounted for."""
        return self._total

    @property
    def document_count(self) -> int:
        """Number of documents added via :meth:`add_document`."""
        return self._documents

    @property
    def vocabulary_size(self) -> int:
        return len(self._counts)

    def frequency(self, term: str) -> int:
        """Raw occurrence count of ``term``."""
        return self._counts.get(term, 0)

    def relative_frequency(self, term: str) -> float:
        """Occurrences of ``term`` divided by total occurrences."""
        if self._total == 0:
            return 0.0
        return self._counts.get(term, 0) / self._total

    def least_frequent(self, terms: Iterable[str]) -> Optional[str]:
        """The rarest term among ``terms`` (ties broken lexicographically).

        Returns ``None`` when ``terms`` is empty.  Terms never seen have
        frequency zero and therefore win against any seen term.
        """
        best: Optional[str] = None
        best_key: Optional[Tuple[int, str]] = None
        for term in terms:
            key = (self._counts.get(term, 0), term)
            if best_key is None or key < best_key:
                best_key = key
                best = term
        return best

    def most_common(self, n: Optional[int] = None) -> List[Tuple[str, int]]:
        """The ``n`` most frequent ``(term, count)`` pairs."""
        return self._counts.most_common(n)

    def terms(self) -> Iterator[str]:
        return iter(self._counts)

    def as_counter(self) -> Counter:
        """A copy of the underlying term counter."""
        return Counter(self._counts)

    def __contains__(self, term: str) -> bool:
        return term in self._counts

    def __len__(self) -> int:
        return len(self._counts)


def cosine_similarity(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Cosine similarity between two sparse term-frequency vectors.

    Either mapping may be a ``Counter`` or a plain dict.  Empty vectors have
    similarity 0 by convention (the paper treats empty subspaces as having
    nothing to gain from text-partitioning, and a zero similarity routes
    them through the same code path).
    """
    if not a or not b:
        return 0.0
    # Iterate over the smaller vector for the dot product.
    if len(a) > len(b):
        a, b = b, a
    dot = 0.0
    for term, weight in a.items():
        other = b.get(term)
        if other:
            dot += weight * other
    if dot == 0.0:
        return 0.0
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)
