"""Unit tests for the synthetic workload generators."""

import random

import pytest

import repro.workload.tweets as tweets_module
from repro.core.text import tokenize
from repro.workload import (
    RegionalStyleMap,
    SpatialClusterModel,
    TopicModel,
    UK_BOUNDS,
    US_BOUNDS,
    ZipfVocabulary,
    make_dataset,
)


class TestZipfVocabulary:
    def test_size(self):
        vocab = ZipfVocabulary(100)
        assert len(vocab) == 100
        assert len(vocab.terms) == 100

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ZipfVocabulary(0)

    def test_sampling_is_power_law_like(self):
        vocab = ZipfVocabulary(500, exponent=1.0)
        # Uniform noise (cluster -1) has no topic: every term is a Zipf draw.
        draw = TopicModel(vocab, num_clusters=1).sampler(random.Random(1))
        counts = {}
        for term in draw(20000, -1):
            counts[term] = counts.get(term, 0) + 1
        head = counts.get(vocab.terms[0], 0)
        tail = counts.get(vocab.terms[-1], 0)
        assert head > 20 * max(tail, 1)

    def test_head_and_tail(self):
        vocab = ZipfVocabulary(100)
        assert len(vocab.head(0.1)) == 10
        assert len(vocab.tail(0.1)) == 10
        assert set(vocab.head(0.1)).isdisjoint(vocab.tail(0.1))

    def test_deterministic_given_seeded_rng(self):
        topics = TopicModel(ZipfVocabulary(200), num_clusters=1)
        first, second = topics.sampler(random.Random(3)), topics.sampler(random.Random(3))
        assert first(20, -1) == second(20, -1)


class TestSpatialClusterModel:
    def test_points_inside_bounds(self):
        model = SpatialClusterModel(US_BOUNDS, num_clusters=10, seed=4)
        draw = model.sampler(random.Random(5))
        for _ in range(500):
            point, cluster = draw()
            assert US_BOUNDS.contains_point(point)
            assert -1 <= cluster < 10

    def test_clustered_density(self):
        model = SpatialClusterModel(US_BOUNDS, num_clusters=5, seed=6, uniform_fraction=0.0)
        draw = model.sampler(random.Random(7))
        points = [draw()[0] for _ in range(2000)]
        # Most points should be close to one of the five cluster centres.
        close = 0
        for point in points:
            for cluster in model.clusters:
                if abs(point.x - cluster.center.x) < 5 * cluster.spread_x and abs(
                    point.y - cluster.center.y
                ) < 5 * cluster.spread_y:
                    close += 1
                    break
        assert close > 0.9 * len(points)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpatialClusterModel(US_BOUNDS, num_clusters=0)
        with pytest.raises(ValueError):
            SpatialClusterModel(US_BOUNDS, num_clusters=3, uniform_fraction=2.0)

    def test_deterministic_given_seed(self):
        a = SpatialClusterModel(UK_BOUNDS, num_clusters=4, seed=9)
        b = SpatialClusterModel(UK_BOUNDS, num_clusters=4, seed=9)
        assert a.sampler(random.Random(1))() == b.sampler(random.Random(1))()


class TestTopicModel:
    def test_topics_differ_across_clusters(self):
        vocab = ZipfVocabulary(1000)
        topics = TopicModel(vocab, num_clusters=6, seed=2)
        assert topics.topic_terms(0) != topics.topic_terms(1)

    def test_uniform_noise_has_no_topic(self):
        vocab = ZipfVocabulary(100)
        topics = TopicModel(vocab, num_clusters=3, seed=2)
        assert topics.topic_terms(-1) == []

    def test_sampled_terms_belong_to_vocabulary(self):
        vocab = ZipfVocabulary(300)
        topics = TopicModel(vocab, num_clusters=3, seed=2)
        draw = topics.sampler(random.Random(8))
        for cluster in (1, -1):
            assert set(draw(200, cluster)) <= set(vocab.terms)


class TestTweetGenerator:
    def test_make_dataset_names(self):
        assert make_dataset("us").spec.name == "TWEETS-US"
        assert make_dataset("uk").spec.name == "TWEETS-UK"
        with pytest.raises(ValueError):
            make_dataset("fr")

    def test_generated_tweets_inside_bounds(self, tweet_generator):
        for obj in tweet_generator.generate(200):
            assert tweet_generator.bounds.contains_point(obj.location)

    def test_tweets_have_terms(self, tweet_generator):
        for obj in tweet_generator.generate(100):
            assert obj.terms

    def test_timestamps_increase(self):
        generator = make_dataset("us", seed=3)
        tweets = generator.generate(10, start_time=5.0, time_step=2.0)
        assert [tweet.timestamp for tweet in tweets] == [5.0 + 2.0 * i for i in range(10)]

    def test_stream_iterator_bounded(self):
        generator = make_dataset("uk", seed=3)
        assert len(list(generator.stream(25))) == 25

    def test_deterministic_given_seed(self):
        a = make_dataset("us", seed=99).generate(20)
        b = make_dataset("us", seed=99).generate(20)
        assert [obj.text for obj in a] == [obj.text for obj in b]
        assert [obj.location for obj in a] == [obj.location for obj in b]

    @pytest.mark.parametrize("name", ["us", "uk"])
    def test_terms_are_the_texts_tokens(self, name):
        for obj in make_dataset(name, seed=5).generate(2000):
            assert obj.terms == frozenset(tokenize(obj.text))

    def test_vocabulary_that_does_not_tokenise_to_itself_is_rejected(self, monkeypatch):
        def upper_case(size, exponent):
            return ZipfVocabulary(size, exponent, prefix="Term")

        monkeypatch.setattr(tweets_module, "ZipfVocabulary", upper_case)
        with pytest.raises(ValueError, match="tokenise"):
            make_dataset("us")

    def test_frequent_and_infrequent_terms(self, tweet_generator):
        frequent = tweet_generator.frequent_terms(0.01)
        infrequent = tweet_generator.infrequent_terms(0.5)
        assert frequent
        assert infrequent
        assert set(frequent).isdisjoint(infrequent)


class TestRegionalStyleMap:
    def test_styles_cover_grid(self):
        style_map = RegionalStyleMap(US_BOUNDS, rows=10, cols=10, seed=1)
        assert len(style_map.styles()) == 100
        assert set(style_map.styles()) <= {"Q1", "Q2"}

    def test_style_lookup_stable(self):
        style_map = RegionalStyleMap(US_BOUNDS, seed=1)
        point = US_BOUNDS.center
        assert style_map.style_at(point) == style_map.style_at(point)

    def test_flip_changes_requested_fraction(self):
        style_map = RegionalStyleMap(US_BOUNDS, seed=1)
        before = style_map.styles()
        flipped = style_map.flip(0.1, random.Random(3))
        after = style_map.styles()
        assert len(flipped) == 10
        changed = sum(1 for a, b in zip(before, after) if a != b)
        assert changed == 10


class TestQueryGenerator:
    def test_q1_properties(self, query_generator, tweet_generator):
        queries = query_generator.generate("Q1", 100)
        assert len(queries) == 100
        for query in queries:
            assert 1 <= len(query.keywords()) <= 3
            assert query.region.width > 0
            # Q1 side length is at most ~50 km ~ 0.7 degrees of longitude.
            assert query.region.width < 1.0

    def test_q2_ranges_can_be_larger(self, query_generator):
        q1 = query_generator.generate("Q1", 200)
        q2 = query_generator.generate("Q2", 200)
        assert max(q.region.width for q in q2) > max(q.region.width for q in q1) * 0.9

    def test_q2_contains_infrequent_keyword(self, query_generator, tweet_generator):
        frequent = set(tweet_generator.frequent_terms(0.01))
        for query in query_generator.generate("Q2", 100):
            assert any(keyword not in frequent for keyword in query.keywords())

    def test_q3_uses_style_map(self, query_generator):
        queries = query_generator.generate("Q3", 100)
        assert len(queries) == 100
        assert query_generator.style_map() is query_generator.style_map()

    def test_generate_by_name(self, query_generator):
        assert len(query_generator.generate("Q1", 5)) == 5
        assert len(query_generator.generate("q2", 5)) == 5
        assert len(query_generator.generate("Q3", 5)) == 5
        with pytest.raises(ValueError):
            query_generator.generate("Q9", 5)

    def test_queries_keywords_drawn_from_vocabulary(self, query_generator, tweet_generator):
        vocabulary = set(tweet_generator.vocabulary.terms)
        for query in query_generator.generate("Q1", 50):
            assert query.keywords() <= vocabulary
