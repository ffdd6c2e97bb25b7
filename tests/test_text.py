"""Unit tests for repro.core.text."""

import pytest

from repro.core.text import TermStatistics, cosine_similarity, tokenize


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Kobe RETIRED") == ["kobe", "retired"]

    def test_removes_stop_words_by_default(self):
        assert tokenize("I want to watch the game") == ["want", "watch", "game"]

    def test_keeps_stop_words_when_asked(self):
        assert "the" in tokenize("the game", remove_stop_words=False)

    def test_splits_on_punctuation(self):
        assert tokenize("storm, flood; warning!") == ["storm", "flood", "warning"]

    def test_preserves_duplicates(self):
        assert tokenize("kobe kobe kobe") == ["kobe"] * 3

    def test_numbers_and_apostrophes(self):
        assert tokenize("it's 2024 madness") == ["it's", "2024", "madness"]

    def test_empty_string(self):
        assert tokenize("") == []


class TestTermStatistics:
    def test_add_document_updates_counts(self):
        stats = TermStatistics()
        stats.add_document(["kobe", "kobe", "nba"])
        assert stats.frequency("kobe") == 2
        assert stats.frequency("nba") == 1
        assert stats.total_terms == 3
        assert stats.document_count == 1
        assert stats.vocabulary_size == 2

    def test_frequency_of_unknown_term(self):
        assert TermStatistics().frequency("nope") == 0

    def test_relative_frequency(self):
        stats = TermStatistics()
        stats.add_document(["a", "a", "b", "c"])
        assert stats.relative_frequency("a") == pytest.approx(0.5)
        assert stats.relative_frequency("missing") == 0.0

    def test_relative_frequency_empty_stats(self):
        assert TermStatistics().relative_frequency("a") == 0.0

    def test_merge(self):
        left = TermStatistics()
        left.add_document(["a", "b"])
        right = TermStatistics()
        right.add_document(["b", "c"])
        left.merge(right)
        assert left.frequency("b") == 2
        assert left.total_terms == 4
        assert left.document_count == 2

    def test_least_frequent_prefers_rare_terms(self):
        stats = TermStatistics()
        stats.add_document(["common"] * 10 + ["rare"])
        assert stats.least_frequent(["common", "rare"]) == "rare"

    def test_least_frequent_unseen_term_wins(self):
        stats = TermStatistics()
        stats.add_document(["common"] * 3)
        assert stats.least_frequent(["common", "never_seen"]) == "never_seen"

    def test_least_frequent_tie_break_lexicographic(self):
        stats = TermStatistics()
        assert stats.least_frequent(["zeta", "alpha"]) == "alpha"

    def test_least_frequent_empty_returns_none(self):
        assert TermStatistics().least_frequent([]) is None

    def test_most_common(self):
        stats = TermStatistics()
        stats.add_document(["a"] * 3 + ["b"] * 2 + ["c"])
        assert stats.most_common(2) == [("a", 3), ("b", 2)]

    def test_contains_and_len(self):
        stats = TermStatistics()
        stats.add_document(["a", "b"])
        assert "a" in stats
        assert len(stats) == 2

    def test_as_counter_is_a_copy(self):
        stats = TermStatistics()
        stats.add_document(["a"])
        counter = stats.as_counter()
        counter["a"] = 99
        assert stats.frequency("a") == 1


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = {"a": 2.0, "b": 3.0}
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_empty_vector(self):
        assert cosine_similarity({}, {"a": 1.0}) == 0.0
        assert cosine_similarity({}, {}) == 0.0

    def test_symmetry(self):
        a = {"x": 1.0, "y": 4.0}
        b = {"y": 2.0, "z": 1.0}
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))

    def test_range(self):
        a = {"x": 3.0, "y": 1.0}
        b = {"x": 1.0, "y": 5.0, "z": 2.0}
        value = cosine_similarity(a, b)
        assert 0.0 < value < 1.0

    def test_known_value(self):
        # vectors (1, 1) and (1, 0) -> cos = 1/sqrt(2)
        assert cosine_similarity({"a": 1, "b": 1}, {"a": 1}) == pytest.approx(0.7071, abs=1e-3)
