"""Tests for the hybrid index facade."""

from dataclasses import replace

import pytest

from repro.core.model import Post
from repro.core.temporal import TemporalSpec, TimeWindow
from repro.data.generator import generate_corpus
from repro.data.queries import QueryWorkload
from repro.dfs.cluster import paper_cluster
from repro.geo import geohash
from repro.index.builder import IndexConfig
from repro.index.hybrid import HybridIndex
from repro.query.engine import EngineConfig, TkLUSEngine
from repro.text import Analyzer

TORONTO = (43.6532, -79.3832)


def make_posts():
    analyzer = Analyzer()
    texts = [
        (1, "hotel by the lake", 43.65, -79.38),
        (2, "hotel hotel downtown", 43.66, -79.39),
        (3, "cozy cafe", 43.64, -79.37),
        (4, "beach hotel", -33.89, 151.27),
    ]
    return [Post(sid=sid, uid=sid, location=(lat, lon),
                 words=tuple(analyzer.analyze(text)), text=text)
            for sid, text, lat, lon in texts]


@pytest.fixture()
def index():
    return HybridIndex.build(make_posts(), paper_cluster())


class TestPostingsAccess:
    def test_postings_fetch(self, index):
        cell = geohash.encode(43.65, -79.38, 4)
        postings = index.postings(cell, "hotel")
        assert postings == [(1, 1), (2, 2)]

    def test_unindexed_pair_empty(self, index):
        assert len(index.postings("zzzz", "hotel")) == 0
        cell = geohash.encode(43.65, -79.38, 4)
        assert len(index.postings(cell, "nonexistent")) == 0

    def test_stats_updated(self, index):
        cell = geohash.encode(43.65, -79.38, 4)
        index.reset_stats()
        postings = index.postings(cell, "hotel")
        assert index.stats.postings_fetches == 1
        assert index.stats.postings_entries_read == 2
        assert index.stats.bytes_read > 0
        # Lazy view: nothing decoded until the entries are consumed.
        assert index.stats.bytes_decoded == 0
        list(postings)
        assert index.stats.bytes_decoded > 0
        assert index.stats.blocks_decoded == 1

    def test_flat_format_stats(self):
        index = HybridIndex.build(
            make_posts(), paper_cluster(),
            config=IndexConfig(postings_format="flat"))
        cell = geohash.encode(43.65, -79.38, 4)
        index.reset_stats()
        postings = index.postings(cell, "hotel")
        assert list(postings) == [(1, 1), (2, 2)]
        assert index.stats.bytes_read == 24
        assert index.stats.bytes_decoded == 24  # flat decodes eagerly

    def test_postings_for_query_groups(self, index):
        cells = index.cover(TORONTO, 10.0)
        grouped = index.postings_for_query(cells, ["hotel", "cafe"])
        all_terms = {term for per_term in grouped.values()
                     for term in per_term}
        assert all_terms == {"hotel", "cafe"}


class TestCache:
    def test_cache_disabled_by_default(self):
        index = HybridIndex.build(make_posts(), paper_cluster())
        cell = geohash.encode(43.65, -79.38, 4)
        index.postings(cell, "hotel")
        index.postings(cell, "hotel")
        assert index.stats.cache_hits == 0
        assert index.stats.postings_fetches == 2

    def test_cache_hits_when_enabled(self):
        index = HybridIndex.build(make_posts(), paper_cluster(),
                                  cache_size=8)
        cell = geohash.encode(43.65, -79.38, 4)
        first = index.postings(cell, "hotel")
        second = index.postings(cell, "hotel")
        assert first == second
        assert index.stats.cache_hits == 1
        assert index.stats.postings_fetches == 1

    def test_cache_returns_are_immutable(self):
        # Postings used to be handed out as defensive list copies (O(n)
        # per cache hit).  They are now immutable views shared by
        # reference: mutation is impossible, so the copy is gone.
        index = HybridIndex.build(make_posts(), paper_cluster(),
                                  cache_size=8)
        cell = geohash.encode(43.65, -79.38, 4)
        first = index.postings(cell, "hotel")
        with pytest.raises((AttributeError, TypeError)):
            first.clear()
        with pytest.raises((AttributeError, TypeError)):
            first.append((999, 1))
        second = index.postings(cell, "hotel")
        assert second is first  # shared by reference, no copy
        assert second == [(1, 1), (2, 2)]
        assert index.stats.postings_fetches == 1  # served from cache

    def test_flat_cache_returns_are_immutable(self):
        index = HybridIndex.build(make_posts(), paper_cluster(),
                                  cache_size=8,
                                  config=IndexConfig(postings_format="flat"))
        cell = geohash.encode(43.65, -79.38, 4)
        first = index.postings(cell, "hotel")
        assert isinstance(first, tuple)
        assert list(index.postings(cell, "hotel")) == [(1, 1), (2, 2)]

    def test_cache_eviction(self):
        index = HybridIndex.build(make_posts(), paper_cluster(),
                                  cache_size=1)
        cell = geohash.encode(43.65, -79.38, 4)
        index.postings(cell, "hotel")
        index.postings(cell, "cafe")   # evicts hotel
        index.postings(cell, "hotel")  # miss again
        assert index.stats.postings_fetches == 3


class TestCoverIntegration:
    def test_cover_uses_index_length(self):
        for length in (2, 3, 4):
            index = HybridIndex.build(
                make_posts(), paper_cluster(),
                config=IndexConfig(geohash_length=length))
            for cell in index.cover(TORONTO, 10.0):
                assert len(cell) == length


class TestSizeReporting:
    def test_inverted_size_counts_postings(self):
        # Under the legacy flat format every entry costs exactly 12
        # bytes; the block format trades that for varint bodies plus a
        # fixed header, so it is asserted separately as "smaller".
        flat = HybridIndex.build(make_posts(), paper_cluster(),
                                 config=IndexConfig(postings_format="flat"))
        total_entries = sum(ref.count for _k, ref in flat.forward.items())
        assert flat.inverted_size_bytes() == total_entries * 12

    def test_block_format_payloads_resolve(self, index):
        # Every forward-index ref must round-trip through the block
        # payload with a matching entry count.
        for (cell, term), ref in index.forward.items():
            postings = index.postings(cell, term)
            assert len(postings) == ref.count

    def test_forward_size_positive(self, index):
        assert index.forward_size_bytes() > 0


def _format_runs():
    """Run one small workload against a flat and a block engine built
    from the same corpus: per query shape and format, the max-score
    rankings and the postings bytes decoded from cold caches."""
    corpus = generate_corpus(num_users=60, num_root_tweets=300, seed=42)
    workload = QueryWorkload(corpus, seed=42)
    single = workload.make_queries(1, 20.0, k=10, limit=3)
    sids = sorted(post.sid for post in corpus.posts)
    # The central fifth of the timestamp range clips most postings
    # lists inside a block, so its boundary blocks go through clip().
    half = len(sids) // 10
    window = TemporalSpec(window=TimeWindow(sids[len(sids) // 2 - half],
                                            sids[len(sids) // 2 + half]))
    shapes = {
        "single": single,
        "single_windowed": [replace(q, temporal=window) for q in single],
        "multi": workload.make_queries(2, 20.0, k=10, limit=3),
    }
    runs = {shape: {} for shape in shapes}
    for fmt in ("flat", "block"):
        engine = TkLUSEngine.from_posts(
            corpus.posts, cluster=paper_cluster(),
            config=EngineConfig(index=IndexConfig(postings_format=fmt)))
        for shape, queries in shapes.items():
            engine.index.clear_caches()
            engine.threads.clear_cache()
            before = engine.index.stats.snapshot()
            rankings = [engine.search_max(query).users for query in queries]
            decoded = engine.index.stats.diff(before)["bytes_decoded"]
            runs[shape][fmt] = (rankings, decoded)
    return runs


class TestFormatParity:
    @pytest.fixture(scope="class")
    def runs(self):
        return _format_runs()

    @pytest.mark.parametrize("shape",
                             ["single", "single_windowed", "multi"])
    def test_block_answers_like_flat_and_decodes_less(self, runs, shape):
        flat_rankings, flat_decoded = runs[shape]["flat"]
        block_rankings, block_decoded = runs[shape]["block"]
        assert block_rankings == flat_rankings
        assert 0 < block_decoded < flat_decoded
        if shape == "single_windowed":
            # A window only ever narrows what is decoded: a clip()
            # boundary block that decode_block_arrays() decoded a second
            # time would push the windowed run past the unwindowed one.
            assert block_decoded <= runs["single"]["block"][1]
