"""Tests for the disk-backed B+-tree, including hypothesis property
tests of structural invariants under random operation sequences."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.bptree import (
    BPlusTree,
    BPlusTreeError,
    DuplicateKeyError,
    INTERNAL_MAX,
    LEAF_MAX,
    MAX_KEY,
    MIN_KEY,
)
from repro.storage.pager import BufferPool, FilePager, MemoryPager


def make_tree(capacity=128, unique=True):
    return BPlusTree(BufferPool(MemoryPager(), capacity=capacity),
                     unique=unique)


class TestBasics:
    def test_empty_tree(self):
        tree = make_tree()
        assert len(tree) == 0
        assert tree.get((1, 0)) is None
        assert list(tree.items()) == []
        tree.check_invariants()

    def test_insert_get(self):
        tree = make_tree()
        tree.insert((5, 0), 50)
        assert tree.get((5, 0)) == 50
        assert (5, 0) in tree
        assert (6, 0) not in tree

    def test_duplicate_rejected_in_unique(self):
        tree = make_tree(unique=True)
        tree.insert((1, 1), 10)
        with pytest.raises(DuplicateKeyError):
            tree.insert((1, 1), 11)

    def test_non_unique_overwrites(self):
        tree = make_tree(unique=False)
        tree.insert((1, 1), 10)
        tree.insert((1, 1), 20)
        assert tree.get((1, 1)) == 20
        assert len(tree) == 1

    def test_negative_keys(self):
        tree = make_tree()
        tree.insert((-100, -5), 1)
        tree.insert((-100, 5), 2)
        assert tree.get((-100, -5)) == 1
        assert [k for k, _v in tree.items()] == [(-100, -5), (-100, 5)]

    def test_delete_missing(self):
        tree = make_tree()
        assert not tree.delete((7, 7))


class TestSplitsAndHeight:
    def test_height_grows(self):
        tree = make_tree()
        assert tree.height == 1
        for i in range(LEAF_MAX + 1):
            tree.insert((i, 0), i)
        assert tree.height == 2
        tree.check_invariants()

    def test_large_sequential_load(self):
        tree = make_tree(capacity=64)
        n = LEAF_MAX * 5
        for i in range(n):
            tree.insert((i, 0), i * 2)
        assert len(tree) == n
        tree.check_invariants()
        assert [v for _k, v in tree.items()] == [i * 2 for i in range(n)]

    def test_reverse_order_load(self):
        tree = make_tree(capacity=64)
        n = LEAF_MAX * 3
        for i in reversed(range(n)):
            tree.insert((i, 0), i)
        tree.check_invariants()
        keys = [k for k, _v in tree.items()]
        assert keys == sorted(keys)


class TestRangeScans:
    def test_range_inclusive(self):
        tree = make_tree()
        for i in range(100):
            tree.insert((i, 0), i)
        got = [k[0] for k, _v in tree.range((10, 0), (20, 0))]
        assert got == list(range(10, 21))

    def test_range_empty_when_inverted(self):
        tree = make_tree()
        tree.insert((5, 0), 5)
        assert list(tree.range((10, 0), (1, 0))) == []

    def test_prefix_scan(self):
        tree = make_tree()
        for rsid in range(5):
            for sid in range(rsid + 1):
                tree.insert((rsid, sid), rsid * 10 + sid)
        for rsid in range(5):
            got = list(tree.prefix(rsid))
            assert len(got) == rsid + 1
            assert all(key[0] == rsid for key, _v in got)

    def test_full_range_defaults(self):
        tree = make_tree()
        for i in range(50):
            tree.insert((i, i), i)
        assert len(list(tree.range())) == 50

    def test_range_boundary_keys(self):
        tree = make_tree()
        tree.insert(MIN_KEY, 1)
        tree.insert(MAX_KEY, 2)
        assert [v for _k, v in tree.items()] == [1, 2]


class TestDeletionRebalancing:
    def test_delete_all_sequential(self):
        tree = make_tree(capacity=64)
        n = LEAF_MAX * 4
        for i in range(n):
            tree.insert((i, 0), i)
        for i in range(n):
            assert tree.delete((i, 0))
            if i % 97 == 0:
                tree.check_invariants()
        assert len(tree) == 0
        tree.check_invariants()

    def test_delete_random_half(self):
        tree = make_tree(capacity=64)
        rng = random.Random(3)
        keys = [(rng.randrange(10**7), 0) for _ in range(4000)]
        keys = list(dict.fromkeys(keys))
        for i, key in enumerate(keys):
            tree.insert(key, i)
        doomed = set(rng.sample(range(len(keys)), len(keys) // 2))
        for i, key in enumerate(keys):
            if i in doomed:
                assert tree.delete(key)
        tree.check_invariants()
        survivors = sorted(key for i, key in enumerate(keys)
                           if i not in doomed)
        assert [k for k, _v in tree.items()] == survivors

    def test_height_shrinks_after_mass_delete(self):
        tree = make_tree(capacity=64)
        n = LEAF_MAX * 6
        for i in range(n):
            tree.insert((i, 0), i)
        tall = tree.height
        for i in range(n - 2):
            tree.delete((i, 0))
        tree.check_invariants()
        assert tree.height <= tall


operations = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "get"]),
              st.integers(min_value=0, max_value=500)),
    min_size=1, max_size=400)


class TestPropertyBased:
    @given(operations)
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_oracle(self, ops):
        tree = make_tree(capacity=32)
        oracle = {}
        for op, key_int in ops:
            key = (key_int, 0)
            if op == "insert":
                if key in oracle:
                    with pytest.raises(DuplicateKeyError):
                        tree.insert(key, key_int)
                else:
                    tree.insert(key, key_int)
                    oracle[key] = key_int
            elif op == "delete":
                assert tree.delete(key) == (key in oracle)
                oracle.pop(key, None)
            else:
                assert tree.get(key) == oracle.get(key)
        tree.check_invariants()
        assert dict(tree.items()) == oracle
        assert len(tree) == len(oracle)

    @given(st.sets(st.integers(min_value=-10**9, max_value=10**9),
                   max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_sorted_iteration(self, keys):
        tree = make_tree(capacity=32)
        for key in keys:
            tree.insert((key, 0), key)
        got = [k[0] for k, _v in tree.items()]
        assert got == sorted(keys)


class TestPersistence:
    def test_reopen_from_disk(self, tmp_path):
        path = str(tmp_path / "tree.btree")
        pool = BufferPool(FilePager(path), capacity=32)
        tree = BPlusTree(pool)
        for i in range(1000):
            tree.insert((i, 0), i * 3)
        tree.flush()
        pool.close()

        pool2 = BufferPool(FilePager(path), capacity=32)
        reopened = BPlusTree(pool2)
        assert len(reopened) == 1000
        assert reopened.get((500, 0)) == 1500
        reopened.check_invariants()
        pool2.close()

    def test_bad_meta_page_rejected(self, tmp_path):
        path = tmp_path / "junk.btree"
        path.write_bytes(b"\x00" * 4096)
        from repro.storage.bptree import BPlusTreeError
        with pytest.raises(BPlusTreeError):
            BPlusTree(BufferPool(FilePager(str(path)), capacity=8))


class TestNodeCapacities:
    def test_capacities_fit_page(self):
        # Serialised sizes must fit in a page (guards layout edits).
        from repro.storage.page import PAGE_SIZE
        assert 7 + LEAF_MAX * 24 <= PAGE_SIZE
        assert 7 + INTERNAL_MAX * 16 + (INTERNAL_MAX + 1) * 4 <= PAGE_SIZE


class TestPageReclamation:
    def test_mass_delete_frees_pages(self):
        """Merging and root collapse return pages to the free list."""
        pool = BufferPool(MemoryPager(), capacity=64)
        tree = BPlusTree(pool)
        n = LEAF_MAX * 6
        for i in range(n):
            tree.insert((i, 0), i)
        assert pool._pager.free_count == 0
        for i in range(n):
            tree.delete((i, 0))
        tree.check_invariants()
        assert pool._pager.free_count > 0

    def test_delete_insert_cycle_reuses_pages(self):
        pool = BufferPool(MemoryPager(), capacity=64)
        tree = BPlusTree(pool)
        n = LEAF_MAX * 4
        for i in range(n):
            tree.insert((i, 0), i)
        pages_after_build = pool._pager.page_count
        for _round in range(3):
            for i in range(n):
                tree.delete((i, 0))
            for i in range(n):
                tree.insert((i, 0), i)
        tree.check_invariants()
        # Page footprint must not grow unboundedly across churn rounds.
        assert pool._pager.page_count <= pages_after_build * 2


class TestOnDiskLayout:
    """Searches and inserts work on page bytes; the bytes they leave must
    be those of the decode-and-re-encode design, so that existing page
    files still open."""

    #: sha256 over every page of the sequence below, produced by the
    #: decode-and-re-encode tree (each insert re-serialised the whole
    #: leaf) that preceded in-place insertion.
    PAGES_SHA256 = ("61f38bf6a678031f690f541cead89e309eb8320117"
                    "61f2edf80c784b7e07dc80")

    def test_fixed_sequence_writes_pinned_pages(self):
        pager = MemoryPager()
        # Large enough that nothing is evicted: the digest pins what the
        # tree writes, not the pool's eviction order.
        tree = BPlusTree(BufferPool(pager, capacity=1024))
        rng = random.Random(48)
        expected = {}
        for i in range(19_000):
            tree.insert((2 * i, 0), i)
            expected[(2 * i, 0)] = i
        heights = [tree.height]
        live = list(expected)
        # Odd keys land mid-leaf (in-place shifts); deletes borrow from
        # leaf and internal siblings, merge and finally collapse the root.
        for step in range(3_000):
            if step % 3 == 0:
                key = (2 * rng.randrange(19_000) + 1, rng.randrange(-4, 4))
                if tree.get(key) is None:
                    tree.insert(key, -step)
                    expected[key] = -step
                    live.append(key)
            else:
                index = rng.randrange(len(live))
                live[index], live[-1] = live[-1], live[index]
                key = live.pop()
                assert tree.delete(key)
                del expected[key]
            heights.append(tree.height)
        tree.flush()

        assert heights[0] == 3 and heights[-1] == 2
        digest = hashlib.sha256()
        for page_no in range(pager.page_count):
            digest.update(pager.read_page(page_no).data)
        assert digest.hexdigest() == self.PAGES_SHA256
        assert list(tree.items()) == sorted(expected.items())
        tree.check_invariants()


class TestCorruptNodeHeaders:
    def _tree_with_corrupt_leaf(self):
        pool = BufferPool(MemoryPager(), capacity=8)
        tree = BPlusTree(pool)
        for i in range(10):
            tree.insert((i, 0), i)
        leaf_page = 1  # the root leaf of a one-level tree
        with pool.pinned(leaf_page) as page:
            page.data[1:3] = (LEAF_MAX + 1).to_bytes(2, "little")
        return tree

    def test_count_over_leaf_max_raises_tree_error(self):
        tree = self._tree_with_corrupt_leaf()
        with pytest.raises(BPlusTreeError, match="page 1"):
            tree.get((3, 0))
        with pytest.raises(BPlusTreeError, match="page 1"):
            tree.get_many([(3, 0), (4, 0)])
        with pytest.raises(BPlusTreeError, match="page 1"):
            list(tree.prefix(3))
        with pytest.raises(BPlusTreeError, match="page 1"):
            tree.insert((20, 0), 20)
        with pytest.raises(BPlusTreeError, match="page 1"):
            tree.delete((3, 0))
        with pytest.raises(BPlusTreeError, match="page 1"):
            tree.check_invariants()

    def test_unknown_node_type_raises_tree_error(self):
        pool = BufferPool(MemoryPager(), capacity=8)
        tree = BPlusTree(pool)
        tree.insert((1, 0), 1)
        with pool.pinned(1) as page:
            page.data[0] = 7
        with pytest.raises(BPlusTreeError, match="invalid node type 7"):
            tree.get((1, 0))
        with pytest.raises(BPlusTreeError, match="invalid node type 7"):
            tree.check_invariants()
