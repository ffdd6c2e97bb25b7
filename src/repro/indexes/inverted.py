"""A simple in-memory inverted index from terms to posting lists.

Used as the building block of the GI2 worker index: each grid cell owns one
``InvertedIndex`` whose postings are STS queries keyed by their posting
keyword (the least frequent keyword of each conjunctive clause).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Generic, Iterator, List, TypeVar

__all__ = ["InvertedIndex"]

T = TypeVar("T")


class InvertedIndex(Generic[T]):
    """Maps terms to lists of postings.

    Postings are arbitrary hashable payloads (the GI2 index stores query
    ids).  Removal supports both eager deletion (:meth:`remove`) and the
    lazy-deletion pattern from the paper, where the traversal of a posting
    list finds its stale entries and the list is then rewritten without
    them (:meth:`rewrite`).
    """

    def __init__(self) -> None:
        self._postings: Dict[str, List[T]] = defaultdict(list)
        self._entry_count = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, term: str, posting: T) -> None:
        """Append ``posting`` to the list of ``term``."""
        self._postings[term].append(posting)
        self._entry_count += 1

    def note_appended(self, count: int) -> None:
        """Fix the entry count after direct appends via :meth:`postings_map`.

        The batched insertion path appends postings straight into the map
        (skipping one method call per posting) and settles the count once
        per run with this method.
        """
        self._entry_count += count

    def remove(self, term: str, posting: T) -> bool:
        """Eagerly remove one occurrence of ``posting`` from ``term``'s list.

        Returns ``True`` when an entry was removed.
        """
        postings = self._postings.get(term)
        if not postings:
            return False
        try:
            postings.remove(posting)
        except ValueError:
            return False
        self._entry_count -= 1
        if not postings:
            del self._postings[term]
        return True

    def purge(self, term: str, is_stale: Callable[[T], bool]) -> int:
        """Drop the entries of one posting list that ``is_stale`` flags.

        Returns the number of removed entries.  The GI2 index sweeps the
        lists of its deleted queries with this (:meth:`GI2Index.compact`).
        """
        postings = self._postings.get(term)
        if not postings:
            return 0
        return self.rewrite(term, [posting for posting in postings if not is_stale(posting)])

    def rewrite(self, term: str, kept: List[T]) -> int:
        """Replace ``term``'s posting list by its surviving entries ``kept``.

        Settles the entry count and drops an emptied term; returns the
        number of removed entries.  Lazy deletion ends here: GI2 matching
        calls it on a list in which the traversal met a stale posting.
        """
        removed = len(self._postings[term]) - len(kept)
        if removed:
            self._entry_count -= removed
            if kept:
                self._postings[term] = kept
            else:
                del self._postings[term]
        return removed

    def clear(self) -> None:
        self._postings.clear()
        self._entry_count = 0

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def postings(self, term: str) -> List[T]:
        """The posting list of ``term`` (empty list when absent)."""
        return self._postings.get(term, [])

    def postings_map(self) -> Dict[str, List[T]]:
        """The internal term -> posting-list dict (read-only for callers).

        Exposed so batched matching can intersect an object's terms with
        the resident terms at C speed instead of probing term by term.
        """
        return self._postings

    def terms(self) -> Iterator[str]:
        return iter(self._postings)

    def __contains__(self, term: str) -> bool:
        return term in self._postings

    def __len__(self) -> int:
        """Number of distinct terms with at least one posting."""
        return len(self._postings)

    @property
    def entry_count(self) -> int:
        """Total number of postings across all terms."""
        return self._entry_count

    def memory_bytes(self, per_entry: int = 16, per_term: int = 64) -> int:
        """Rough memory footprint estimate used by the benches."""
        return per_term * len(self._postings) + per_entry * self._entry_count
