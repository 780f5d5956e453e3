"""Tests for the TkLUSEngine facade."""

import pytest

from repro.core.model import Semantics
from repro.data.generator import generate_corpus
from repro.index.builder import IndexConfig
from repro.query.engine import EngineConfig, TkLUSEngine
from repro.query.results import QueryResult, QueryStats


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate_corpus(num_users=80, num_root_tweets=300, seed=21)


class TestConstruction:
    def test_from_posts_builds_everything(self, tiny_corpus):
        engine = TkLUSEngine.from_posts(tiny_corpus.posts)
        assert len(engine.database) == len(tiny_corpus.posts)
        assert len(engine.index.forward) > 0
        assert engine.bounds.global_bound > 0
        assert engine.bounds.keyword_bounds  # hot keywords precomputed

    def test_without_bound_precomputation(self, tiny_corpus):
        engine = TkLUSEngine.from_posts(tiny_corpus.posts,
                                        precompute_bounds=False)
        assert engine.bounds.keyword_bounds == {}

    def test_custom_geohash_length(self, tiny_corpus):
        config = EngineConfig(index=IndexConfig(geohash_length=3))
        engine = TkLUSEngine.from_posts(tiny_corpus.posts, config=config)
        assert engine.index.geohash_length == 3


class TestSearchApi:
    def test_methods_agree_with_dedicated_entry_points(self, tiny_corpus):
        engine = TkLUSEngine.from_posts(tiny_corpus.posts)
        query = engine.make_query((43.65, -79.38), 15.0, ["restaurant"], k=5)
        engine.threads.clear_cache()
        by_name = engine.search(query, method="sum")
        engine.threads.clear_cache()
        direct = engine.search_sum(query)
        assert by_name.users == direct.users

    def test_make_query_normalises(self, tiny_corpus):
        engine = TkLUSEngine.from_posts(tiny_corpus.posts)
        query = engine.make_query((43.65, -79.38), 5.0, ["Restaurants"],
                                  semantics=Semantics.AND)
        assert query.keywords == frozenset({"restaur"})
        assert query.semantics is Semantics.AND

    def test_index_report_keys(self, tiny_corpus):
        engine = TkLUSEngine.from_posts(tiny_corpus.posts)
        report = engine.index_report()
        assert report["tweets"] == len(tiny_corpus.posts)
        assert report["inverted_bytes"] > 0
        assert report["forward_bytes"] > 0
        assert report["geohash_length"] == 4

    def test_results_stable_across_repeats(self, tiny_corpus):
        engine = TkLUSEngine.from_posts(tiny_corpus.posts)
        query = engine.make_query((43.65, -79.38), 20.0, ["hotel"], k=5)
        first = engine.search_max(query).users
        second = engine.search_max(query).users
        assert first == second


class TestQueryStats:
    def test_prune_rate(self):
        stats = QueryStats(threads_built=6, threads_pruned=4)
        assert stats.prune_rate == pytest.approx(0.4)

    def test_prune_rate_no_work(self):
        assert QueryStats().prune_rate == 0.0


class TestQueryResult:
    def test_ranking_and_len(self):
        result = QueryResult(users=[(3, 0.9), (1, 0.5)])
        assert result.ranking() == [3, 1]
        assert len(result) == 2
