"""Property tests for the numpy-optional columnar primitives.

Every kernel is exercised on both backends (``force_backend``) and must
be *bitwise* identical to its scalar reference — the contract the fused
query operators rely on.  On a host without numpy the numpy leg skips
and the fallback leg still proves the stdlib path.
"""

import math
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import columnar
from repro.geo.distance import haversine_km, haversine_km_batch
from repro.index.blocks import encode_postings_blocks, open_postings

BACKENDS = ["python"] + (["numpy"] if columnar.have_numpy() else [])

backend = pytest.fixture(params=BACKENDS)(lambda request: request.param)


latitudes = st.floats(min_value=-85.0, max_value=85.0,
                      allow_nan=False, allow_infinity=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0,
                       allow_nan=False, allow_infinity=False)
points = st.lists(st.tuples(latitudes, longitudes), max_size=60)

postings_lists = st.lists(
    st.tuples(st.integers(0, 5000), st.integers(0, 40)),
    max_size=200,
).map(lambda items: sorted({tid: tf for tid, tf in items}.items()))


class TestBackendSelection:
    def test_force_backend_round_trip(self):
        original = columnar.active_backend()
        with columnar.force_backend("python"):
            assert columnar.active_backend() == "python"
        assert columnar.active_backend() == original

    def test_force_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown columnar backend"):
            with columnar.force_backend("cuda"):
                pass  # pragma: no cover

    @pytest.mark.skipif(columnar.have_numpy(), reason="needs numpy absent")
    def test_numpy_backend_requires_numpy(self):
        with pytest.raises(RuntimeError):
            with columnar.force_backend("numpy"):
                pass  # pragma: no cover

    def test_columns_round_trip(self, backend):
        with columnar.force_backend(backend):
            ints = columnar.int_column([3, 1, 2])
            floats = columnar.float_column([0.5, -1.25])
            assert columnar.column_tolist(ints) == [3, 1, 2]
            assert columnar.column_tolist(floats) == [0.5, -1.25]
            # Python numbers, not numpy scalars.
            assert type(columnar.column_tolist(ints)[0]) is int
            assert type(columnar.column_tolist(floats)[0]) is float


class TestSortedRange:
    @given(tids=st.lists(st.integers(0, 1000)),
           lo=st.one_of(st.none(), st.integers(-5, 1005)),
           hi=st.one_of(st.none(), st.integers(-5, 1005)))
    @settings(max_examples=60, deadline=None)
    def test_matches_bisect(self, tids, lo, hi):
        tids = sorted(tids)
        expect_lo = 0 if lo is None else bisect_left(tids, lo)
        expect_hi = len(tids) if hi is None else bisect_right(tids, hi)
        for name in BACKENDS:
            with columnar.force_backend(name):
                column = columnar.int_column(tids)
                assert columnar.sorted_range(column, lo, hi) == \
                    (expect_lo, expect_hi)


class TestSelectTopK:
    # Few distinct scores so ties at the k-th position are common —
    # exactly the case partial selection can get wrong.
    scored_lists = st.lists(
        st.tuples(st.integers(0, 10_000),
                  st.sampled_from([0.0, 0.25, 0.5, 0.5000000001, 1.0])),
        max_size=80,
    ).map(lambda items: list({uid: score for uid, score in items}.items()))

    @given(scored=scored_lists, k=st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_matches_sorted_reference(self, scored, k):
        reference = sorted(scored, key=lambda item: (-item[1], item[0]))[:k]
        for name in BACKENDS:
            with columnar.force_backend(name):
                selected = columnar.select_top_k(scored, k)
                assert [(uid, score) for _pos, uid, score in selected] \
                    == reference
                # Positions must point back into the input.
                for position, uid, score in selected:
                    assert scored[position] == (uid, score)


class TestHaversineBatch:
    @given(origin=st.tuples(latitudes, longitudes), targets=points)
    # ``s ** 2`` (libm pow) and ``s * s`` differ in the last bit here.
    @example(origin=(0.0, 6.0), targets=[(74.17821170075914, 0.0)])
    @settings(max_examples=60, deadline=None)
    def test_bitwise_parity_with_scalar(self, origin, targets):
        lats = [lat for lat, _lon in targets]
        lons = [lon for _lat, lon in targets]
        expected = [haversine_km(origin, point) for point in targets]
        for name in BACKENDS:
            with columnar.force_backend(name):
                column = haversine_km_batch(origin, lats, lons)
                got = columnar.column_tolist(column)
                assert len(got) == len(expected)
                for value, reference in zip(got, expected):
                    assert math.isclose(value, reference, rel_tol=0.0,
                                        abs_tol=0.0), (value, reference)

    def test_empty_batch(self, backend):
        with columnar.force_backend(backend):
            column = haversine_km_batch((43.65, -79.38), [], [])
            assert columnar.column_tolist(column) == []


class TestDecodeBlockArrays:
    @given(postings=postings_lists,
           block_size=st.sampled_from([1, 3, 7, 16]))
    @settings(max_examples=40, deadline=None)
    def test_columns_match_materialized_tuples(self, postings, block_size):
        data = encode_postings_blocks(postings, block_size=block_size)
        for name in BACKENDS:
            with columnar.force_backend(name):
                reader = open_postings(data)
                tids, tfs = reader.column_view()
                assert list(zip(columnar.column_tolist(tids),
                                columnar.column_tolist(tfs))) \
                    == reader.materialize() == postings

    @given(postings=postings_lists.filter(bool),
           block_size=st.sampled_from([1, 3, 7]))
    @settings(max_examples=40, deadline=None)
    def test_clip_then_columns(self, postings, block_size):
        data = encode_postings_blocks(postings, block_size=block_size)
        tids = [tid for tid, _tf in postings]
        lo = tids[len(tids) // 3]
        hi = tids[(2 * len(tids)) // 3]
        expected = [(tid, tf) for tid, tf in postings if lo <= tid <= hi]
        for name in BACKENDS:
            with columnar.force_backend(name):
                clipped = open_postings(data).clip(lo, hi)
                got_tids, got_tfs = clipped.column_view()
                assert list(zip(columnar.column_tolist(got_tids),
                                columnar.column_tolist(got_tfs))) == expected

    def test_per_block_decode_accounting(self, backend):
        class Stats:
            blocks_decoded = 0
            bytes_decoded = 0
            blocks_skipped = 0
            block_cache_hits = 0
            block_cache_misses = 0

        postings = [(tid, tid % 5) for tid in range(40)]
        data = encode_postings_blocks(postings, block_size=8)
        with columnar.force_backend(backend):
            stats = Stats()
            reader = open_postings(data, stats=stats)
            tids, tfs = reader.decode_block_arrays(0)
            assert columnar.column_tolist(tids) == list(range(8))
            assert columnar.column_tolist(tfs) == [tid % 5
                                                   for tid in range(8)]
            assert stats.blocks_decoded == 1
            assert stats.bytes_decoded > 0
            # Memoised: decoding the same block twice is one decode.
            reader.decode_block_arrays(0)
            assert stats.blocks_decoded == 1

    def test_clip_boundary_block_not_decoded_twice(self, backend):
        class Stats:
            blocks_decoded = 0
            bytes_decoded = 0
            blocks_skipped = 0

        postings = [(tid, 1 + tid % 3) for tid in range(40)]
        data = encode_postings_blocks(postings, block_size=8)
        with columnar.force_backend(backend):
            stats = Stats()
            clipped = open_postings(data, stats=stats).clip(10, 13)
            assert stats.blocks_decoded == 1   # the one boundary block
            tids, tfs = clipped.column_view()
            assert list(zip(columnar.column_tolist(tids),
                            columnar.column_tolist(tfs))) == postings[10:14]
            assert stats.blocks_decoded == 1

    def test_block_index_out_of_range(self, backend):
        data = encode_postings_blocks([(1, 1)], block_size=4)
        with columnar.force_backend(backend):
            with pytest.raises(IndexError):
                open_postings(data).decode_block_arrays(5)
