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

    __slots__ = ("by_term", "entry_count")

    def __init__(self) -> None:
        #: Term -> posting list.  Read-only for callers, except that the
        #: GI2 index appends to it directly, settling ``entry_count``
        #: itself (one dict lookup per posting, no method call).
        self.by_term: Dict[str, List[T]] = defaultdict(list)
        #: Total number of postings across all terms.
        self.entry_count = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, term: str, posting: T) -> None:
        """Append ``posting`` to the list of ``term``."""
        self.by_term[term].append(posting)
        self.entry_count += 1

    def remove(self, term: str, posting: T) -> bool:
        """Eagerly remove one occurrence of ``posting`` from ``term``'s list.

        Returns ``True`` when an entry was removed.
        """
        postings = self.by_term.get(term)
        if not postings:
            return False
        try:
            postings.remove(posting)
        except ValueError:
            return False
        self.entry_count -= 1
        if not postings:
            del self.by_term[term]
        return True

    def purge(self, term: str, is_stale: Callable[[T], bool]) -> int:
        """Drop the entries of one posting list that ``is_stale`` flags.

        Returns the number of removed entries.  The GI2 index sweeps the
        lists of its deleted queries with this (:meth:`GI2Index.compact`).
        """
        postings = self.by_term.get(term)
        if not postings:
            return 0
        return self.rewrite(term, [posting for posting in postings if not is_stale(posting)])

    def rewrite(self, term: str, kept: List[T]) -> int:
        """Replace ``term``'s posting list by its surviving entries ``kept``.

        Settles the entry count and drops an emptied term; returns the
        number of removed entries.  Lazy deletion ends here: GI2 matching
        calls it on a list in which the traversal met a stale posting.
        """
        removed = len(self.by_term[term]) - len(kept)
        if removed:
            self.entry_count -= removed
            if kept:
                self.by_term[term] = kept
            else:
                del self.by_term[term]
        return removed

    def clear(self) -> None:
        self.by_term.clear()
        self.entry_count = 0

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def postings(self, term: str) -> List[T]:
        """The posting list of ``term`` (empty list when absent)."""
        return self.by_term.get(term, [])

    def terms(self) -> Iterator[str]:
        return iter(self.by_term)

    def __contains__(self, term: str) -> bool:
        return term in self.by_term

    def __len__(self) -> int:
        """Number of distinct terms with at least one posting."""
        return len(self.by_term)

    def memory_bytes(self, per_entry: int = 16, per_term: int = 64) -> int:
        """Rough memory footprint estimate used by the benches."""
        return per_term * len(self.by_term) + per_entry * self.entry_count
