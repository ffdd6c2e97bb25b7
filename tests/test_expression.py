"""Unit tests for boolean keyword expressions and their parser."""

import pytest

from repro.core.expression import (
    BooleanExpression,
    ExpressionParseError,
    parse_expression,
)
from repro.core.text import TermStatistics


class TestConstruction:
    def test_conjunction(self):
        expr = BooleanExpression.conjunction(["Kobe", "Retired"])
        assert expr.clauses == (frozenset({"kobe", "retired"}),)

    def test_disjunction(self):
        expr = BooleanExpression.disjunction(["a", "b"])
        assert len(expr.clauses) == 2

    def test_from_clauses(self):
        expr = BooleanExpression.from_clauses([["a", "b"], ["c"]])
        assert frozenset({"a", "b"}) in expr.clauses
        assert frozenset({"c"}) in expr.clauses

    def test_empty_expression_rejected(self):
        with pytest.raises(ValueError):
            BooleanExpression(())
        with pytest.raises(ValueError):
            BooleanExpression.conjunction([])
        with pytest.raises(ValueError):
            BooleanExpression.from_clauses([[]])


class TestMatching:
    def test_and_requires_all_keywords(self):
        expr = BooleanExpression.conjunction(["kobe", "retired"])
        assert expr.matches({"kobe", "retired", "nba"})
        assert not expr.matches({"kobe"})
        assert not expr.matches(set())

    def test_or_requires_any_keyword(self):
        expr = BooleanExpression.disjunction(["kobe", "lebron"])
        assert expr.matches({"lebron"})
        assert expr.matches({"kobe", "food"})
        assert not expr.matches({"food"})

    def test_mixed_dnf(self):
        expr = BooleanExpression.from_clauses([["storm", "warning"], ["flood"]])
        assert expr.matches({"flood"})
        assert expr.matches({"storm", "warning"})
        assert not expr.matches({"storm"})

    def test_matches_accepts_any_iterable(self):
        expr = BooleanExpression.conjunction(["a"])
        assert expr.matches(["a", "b"])
        assert expr.matches(frozenset({"a"}))


class TestKeywordsAndPosting:
    def test_keywords_union(self):
        expr = BooleanExpression.from_clauses([["a", "b"], ["b", "c"]])
        assert expr.keywords() == {"a", "b", "c"}

    def test_posting_keywords_without_statistics_is_deterministic(self):
        expr = BooleanExpression.from_clauses([["zebra", "apple"], ["mango"]])
        assert expr.posting_keywords() == ("apple", "mango")

    def test_posting_keywords_use_least_frequent(self):
        stats = TermStatistics()
        stats.add_document(["common"] * 50 + ["rare"])
        expr = BooleanExpression.conjunction(["common", "rare"])
        assert expr.posting_keywords(stats) == ("rare",)

    def test_posting_keywords_one_per_clause(self):
        stats = TermStatistics()
        stats.add_document(["a"] * 5 + ["b"] * 3 + ["c"])
        expr = BooleanExpression.from_clauses([["a", "b"], ["a", "c"]])
        keys = expr.posting_keywords(stats)
        assert keys == ("b", "c")

    def test_posting_keyword_completeness_invariant(self):
        """A text satisfying a clause always contains that clause's posting key."""
        stats = TermStatistics()
        stats.add_document(["x"] * 9 + ["y"] * 4 + ["z"])
        expr = BooleanExpression.from_clauses([["x", "y"], ["z"]])
        keys = expr.posting_keywords(stats)
        for text in ({"x", "y"}, {"z"}, {"x", "y", "z"}):
            if expr.matches(text):
                assert not text.isdisjoint(keys)


class TestParser:
    def test_single_keyword(self):
        expr = parse_expression("kobe")
        assert expr.clauses == (frozenset({"kobe"}),)

    def test_simple_and(self):
        expr = parse_expression("kobe AND retired")
        assert expr.clauses == (frozenset({"kobe", "retired"}),)

    def test_simple_or(self):
        expr = parse_expression("kobe OR lebron")
        assert set(expr.clauses) == {frozenset({"kobe"}), frozenset({"lebron"})}

    def test_case_insensitive_operators(self):
        expr = parse_expression("kobe and retired or lebron")
        assert frozenset({"kobe", "retired"}) in expr.clauses
        assert frozenset({"lebron"}) in expr.clauses

    def test_parentheses_distribution(self):
        expr = parse_expression("(storm OR flood) AND warning")
        assert set(expr.clauses) == {
            frozenset({"storm", "warning"}),
            frozenset({"flood", "warning"}),
        }

    def test_nested_parentheses(self):
        expr = parse_expression("((a))")
        assert expr.clauses == (frozenset({"a"}),)

    def test_and_binds_tighter_than_or(self):
        expr = parse_expression("a AND b OR c")
        assert set(expr.clauses) == {frozenset({"a", "b"}), frozenset({"c"})}

    def test_subsumed_clause_removed(self):
        expr = parse_expression("a OR (a AND b)")
        assert expr.clauses == (frozenset({"a"}),)

    def test_classmethod_parse(self):
        assert BooleanExpression.parse("a AND b").keywords() == {"a", "b"}

    def test_str_roundtrip_semantics(self):
        original = parse_expression("(a OR b) AND c")
        reparsed = parse_expression(str(original))
        assert set(original.clauses) == set(reparsed.clauses)

    @pytest.mark.parametrize(
        "bad",
        ["", "AND", "a AND", "a OR OR b", "(a", "a)", "a & b", "AND a"],
    )
    def test_invalid_expressions(self, bad):
        with pytest.raises(ExpressionParseError):
            parse_expression(bad)
