"""Boolean keyword expressions for STS queries.

An STS query's text component ``q.K`` is "a set of query keywords connected
by AND or OR operators" (Section III-A).  Internally every expression is
normalised to *disjunctive normal form* (DNF): a disjunction of conjunctive
clauses, each clause being a set of keywords that must all appear in the
object's text.  This is the representation the paper's indexes rely on —
"for the query containing OR operators, it is appended to the inverted lists
of the least frequent keywords in each conjunctive [normal] form"
(Section IV-D), i.e. one posting per clause, keyed by the clause's rarest
keyword.

The module provides:

* :class:`BooleanExpression` — immutable DNF expression with matching,
  keyword extraction and posting-keyword selection;
* :func:`parse_expression` — a tiny recursive-descent parser for strings
  such as ``"kobe AND retired"`` or ``"(storm OR flood) AND warning"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .text import TermStatistics

__all__ = ["BooleanExpression", "parse_expression", "ExpressionParseError"]


class ExpressionParseError(ValueError):
    """Raised when a keyword expression string cannot be parsed."""


Clause = FrozenSet[str]


@dataclass(frozen=True)
class BooleanExpression:
    """A keyword expression in disjunctive normal form.

    ``clauses`` is a tuple of conjunctive clauses; the expression is
    satisfied by a text when at least one clause has all of its keywords
    present.  An expression with a single clause is a pure conjunction
    (``a AND b AND c``); an expression whose clauses are all singletons is a
    pure disjunction (``a OR b OR c``).
    """

    clauses: Tuple[Clause, ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("an expression needs at least one clause")
        for clause in self.clauses:
            if not clause:
                raise ValueError("clauses must not be empty")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def conjunction(cls, keywords: Iterable[str]) -> "BooleanExpression":
        """``k1 AND k2 AND ...``"""
        clause = frozenset(keyword.lower() for keyword in keywords)
        if not clause:
            raise ValueError("conjunction needs at least one keyword")
        return cls((clause,))

    @classmethod
    def disjunction(cls, keywords: Iterable[str]) -> "BooleanExpression":
        """``k1 OR k2 OR ...``"""
        clauses = tuple(frozenset((keyword.lower(),)) for keyword in keywords)
        if not clauses:
            raise ValueError("disjunction needs at least one keyword")
        return cls(clauses)

    @classmethod
    def from_clauses(cls, clauses: Iterable[Iterable[str]]) -> "BooleanExpression":
        """Build directly from an iterable of keyword groups (DNF clauses)."""
        normalised = tuple(
            frozenset(keyword.lower() for keyword in clause) for clause in clauses
        )
        return cls(normalised)

    @classmethod
    def parse(cls, expression: str) -> "BooleanExpression":
        """Parse a textual expression; see :func:`parse_expression`."""
        return parse_expression(expression)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def matches(self, terms: Iterable[str]) -> bool:
        """True when the term collection satisfies the expression."""
        term_set = terms if isinstance(terms, (set, frozenset)) else set(terms)
        clauses = self.clauses
        if len(clauses) == 1:
            return clauses[0] <= term_set
        for clause in clauses:
            if clause <= term_set:
                return True
        return False

    def keywords(self) -> Set[str]:
        """All distinct keywords mentioned anywhere in the expression."""
        result: Set[str] = set()
        for clause in self.clauses:
            result |= clause
        return result

    @property
    def is_conjunctive(self) -> bool:
        """True for pure-AND expressions (a single clause)."""
        return len(self.clauses) == 1

    def posting_keywords(self, statistics: Optional[TermStatistics] = None) -> Set[str]:
        """Keywords under which the query should be posted in an inverted index.

        One keyword per clause: the least frequent one according to
        ``statistics`` (Section IV-C / IV-D).  Without statistics the
        lexicographically smallest keyword is used, which is deterministic
        and still correct (any member of the clause is a valid posting key).

        The term statistics are frozen at partitioning time, so the choice
        is deterministic per statistics object; it is memoised on the
        expression (the hot routing/indexing paths recompute it for every
        insertion, deletion and posting otherwise).  Callers must treat the
        returned set as read-only.

        The memo is process-local: it never crosses a pickle (see
        :meth:`__getstate__`), so a received expression recomputes it on
        first use against the receiving process's own statistics.
        """
        cached = getattr(self, "_posting_cache", None)
        if cached is not None and cached[0] is statistics:
            return cached[1]
        keys: Set[str] = set()
        for clause in self.clauses:
            if statistics is not None:
                chosen = statistics.least_frequent(clause)
            else:
                chosen = min(clause)
            if chosen is not None:
                keys.add(chosen)
        # The dataclass is frozen; the memo is not a field, so equality and
        # hashing are unaffected.
        object.__setattr__(self, "_posting_cache", (statistics, keys))
        return keys

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the declared fields only (the fabric's wire contract).

        ``_posting_cache`` holds a reference to the whole
        :class:`TermStatistics`; shipping ``__dict__`` would drag it
        behind every routed query.
        """
        return {name: self.__dict__[name] for name in self.__dataclass_fields__}

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def clause_count(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __str__(self) -> str:
        rendered = []
        for clause in self.clauses:
            body = " AND ".join(sorted(clause))
            rendered.append("(%s)" % body if len(self.clauses) > 1 and len(clause) > 1 else body)
        return " OR ".join(rendered)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
_TOKEN_PATTERN = re.compile(r"\(|\)|\bAND\b|\bOR\b|[A-Za-z0-9_']+", re.IGNORECASE)


def _tokenize_expression(expression: str) -> List[str]:
    tokens = _TOKEN_PATTERN.findall(expression)
    stripped = re.sub(r"\s+", "", expression)
    joined = re.sub(r"\s+", "", "".join(tokens))
    if stripped != joined:
        raise ExpressionParseError("unrecognised characters in %r" % expression)
    return tokens


class _Parser:
    """Recursive-descent parser producing DNF clause lists.

    Grammar (OR binds loosest, AND tighter, parentheses group)::

        expr   := term (OR term)*
        term   := factor (AND factor)*
        factor := KEYWORD | '(' expr ')'
    """

    def __init__(self, tokens: Sequence[str]):
        self._tokens = list(tokens)
        self._position = 0

    def parse(self) -> List[Set[str]]:
        clauses = self._parse_expr()
        if self._position != len(self._tokens):
            raise ExpressionParseError(
                "unexpected token %r" % self._tokens[self._position]
            )
        return clauses

    # -- token helpers -------------------------------------------------
    def _peek(self) -> Optional[str]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _advance(self) -> str:
        token = self._peek()
        if token is None:
            raise ExpressionParseError("unexpected end of expression")
        self._position += 1
        return token

    # -- grammar rules ---------------------------------------------------
    def _parse_expr(self) -> List[Set[str]]:
        clauses = self._parse_term()
        while self._peek() is not None and self._peek().upper() == "OR":
            self._advance()
            clauses = clauses + self._parse_term()
        return clauses

    def _parse_term(self) -> List[Set[str]]:
        clauses = self._parse_factor()
        while self._peek() is not None and self._peek().upper() == "AND":
            self._advance()
            right = self._parse_factor()
            # Distribute AND over the accumulated DNF clauses.
            clauses = [left | extra for left in clauses for extra in right]
        return clauses

    def _parse_factor(self) -> List[Set[str]]:
        token = self._advance()
        if token == "(":
            inner = self._parse_expr()
            closing = self._advance()
            if closing != ")":
                raise ExpressionParseError("expected ')', got %r" % closing)
            return inner
        if token == ")" or token.upper() in ("AND", "OR"):
            raise ExpressionParseError("unexpected token %r" % token)
        return [{token.lower()}]


def parse_expression(expression: str) -> BooleanExpression:
    """Parse a keyword expression string into a :class:`BooleanExpression`.

    Examples::

        parse_expression("kobe")
        parse_expression("kobe AND retired")
        parse_expression("kobe OR lebron")
        parse_expression("(storm OR flood) AND warning")
    """
    tokens = _tokenize_expression(expression)
    if not tokens:
        raise ExpressionParseError("empty expression")
    clauses = _Parser(tokens).parse()
    # Drop clauses subsumed by a smaller clause: (a) OR (a AND b) == (a).
    minimal: List[Set[str]] = []
    for clause in sorted(clauses, key=len):
        if not any(existing <= clause for existing in minimal):
            minimal.append(clause)
    return BooleanExpression.from_clauses(minimal)
