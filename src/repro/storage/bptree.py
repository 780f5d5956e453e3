"""A disk-backed B+-tree.

The paper's metadata database builds "a B+-tree" on the primary key ``sid``
and "another B+-tree ... on attribute 'rsid'" to accelerate tweet-thread
construction ("select all where rsid equals to Id", Algorithm 1 line 7).

Keys are pairs of signed 64-bit integers compared lexicographically, which
supports both unique indexes (``(sid, 0)``) and duplicate-key indexes
(``(rsid, sid)`` — duplicates of ``rsid`` are disambiguated by ``sid`` and
retrieved with a prefix range scan).  Values are signed 64-bit integers
(packed record pointers).

Page 0 of the tree's file is a metadata page holding the root pointer,
height and entry count.  Every other page is one node: a ``(type, key
count, next leaf)`` header, then either ``count`` leaf entries ``(k1, k2,
value)`` or ``count`` separator keys followed by ``count + 1`` child page
numbers.

Searches and inserts work on the bytes of the pinned page.  ``get``,
``get_many``, ``range`` and ``prefix`` bisect keys with ``unpack_from`` at
computed offsets and unpack only the leaf entries they return; an insert
into a leaf with room shifts the entries after the new one by one slot
and packs the new entry in the gap.  A node is decoded into a
:class:`_Node` only to split a full leaf, to delete (which implements full
rebalancing: borrow from siblings, merge, root collapse) and to check
invariants, and each decode or encode is one ``struct`` call.  Every read
validates the node header, so a corrupt type or key count raises
:class:`BPlusTreeError` naming the page.

The tree takes no lock.  A reader bisecting a page must not interleave
with a writer shifting it, so callers sharing a tree between threads
serialise every call (:class:`~repro.storage.metadata.MetadataDatabase`
holds one lock around each).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .page import INVALID_PAGE, PAGE_SIZE, Page
from .pager import BufferPool

Key = Tuple[int, int]

_META = struct.Struct("<8sIIQ")  # magic, root page, height, size
_MAGIC = b"BPTREE01"

_NODE_HEADER = struct.Struct("<BHI")  # type, key count, next-leaf page
_LEAF_ENTRY = struct.Struct("<qqq")   # k1, k2, value
_KEY = struct.Struct("<qq")
_CHILD = struct.Struct("<I")

_BODY = _NODE_HEADER.size

_TYPE_LEAF = 0
_TYPE_INTERNAL = 1

#: Maximum entries per leaf: header + n * 24 bytes <= PAGE_SIZE.
LEAF_MAX = (PAGE_SIZE - _NODE_HEADER.size) // _LEAF_ENTRY.size
#: Maximum keys per internal node: header + n * 16 + (n + 1) * 4 <= PAGE_SIZE.
INTERNAL_MAX = (PAGE_SIZE - _NODE_HEADER.size - _CHILD.size) // (_KEY.size + _CHILD.size)

LEAF_MIN = LEAF_MAX // 2
INTERNAL_MIN = INTERNAL_MAX // 2

MIN_KEY: Key = (-(1 << 63), -(1 << 63))
MAX_KEY: Key = ((1 << 63) - 1, (1 << 63) - 1)


class BPlusTreeError(RuntimeError):
    """Raised on structural corruption or misuse."""


class DuplicateKeyError(BPlusTreeError):
    """Raised when inserting an existing key into a unique tree."""


@dataclass
class _Node:
    page_no: int
    is_leaf: bool
    keys: List[Key]
    # Leaf: values[i] pairs with keys[i].  Internal: children has
    # len(keys) + 1 entries.
    values: List[int]
    children: List[int]
    next_leaf: int = INVALID_PAGE


# Whole-node layouts by key count.  Counts are validated against
# LEAF_MAX / INTERNAL_MAX before use, which keeps both caches finite.

@lru_cache(maxsize=None)
def _leaf_body(count: int) -> struct.Struct:
    return struct.Struct(f"<{3 * count}q")


@lru_cache(maxsize=None)
def _internal_body(count: int) -> struct.Struct:
    return struct.Struct(f"<{2 * count}q{count + 1}I")


def _read_header(page: Page) -> Tuple[int, int, int]:
    """``(type, count, next_leaf)`` of a node page, after checking the
    type and that ``count`` fits the page."""
    node_type, count, next_leaf = _NODE_HEADER.unpack_from(page.data, 0)
    if node_type == _TYPE_LEAF:
        limit = LEAF_MAX
    elif node_type == _TYPE_INTERNAL:
        limit = INTERNAL_MAX
    else:
        raise BPlusTreeError(f"page {page.page_no} has invalid node type {node_type}")
    if count > limit:
        raise BPlusTreeError(
            f"page {page.page_no} claims {count} keys, more than {limit}")
    return node_type, count, next_leaf


def _node_header(page: Page, node_type: int) -> Tuple[int, int]:
    """``(count, next_leaf)`` of a page the descent expects to hold a
    node of ``node_type``."""
    found, count, next_leaf = _read_header(page)
    if found != node_type:
        expected = "leaf" if node_type == _TYPE_LEAF else "internal"
        raise BPlusTreeError(
            f"page {page.page_no} is not a {expected} node at its depth")
    return count, next_leaf


def _leaf_bisect(data: bytearray, count: int, key: Key, lo: int = 0) -> int:
    """Index of the first leaf entry whose key is >= ``key``."""
    return bisect_left(range(_BODY, _BODY + count * _LEAF_ENTRY.size,
                             _LEAF_ENTRY.size),
                       key, lo, key=partial(_KEY.unpack_from, data))


def _leaf_lookup(data: bytearray, count: int, key: Key, lo: int = 0
                 ) -> Tuple[int, Optional[int]]:
    """``(index, value)`` of ``key`` in a leaf; value is None when the key
    is absent and ``index`` is where it would go."""
    index = _leaf_bisect(data, count, key, lo)
    if index < count:
        k1, k2, value = _LEAF_ENTRY.unpack_from(
            data, _BODY + index * _LEAF_ENTRY.size)
        if (k1, k2) == key:
            return index, value
    return index, None


def _serialize(node: _Node, page: Page) -> None:
    buffer = page.data
    count = len(node.keys)
    if node.is_leaf:
        _NODE_HEADER.pack_into(buffer, 0, _TYPE_LEAF, count, node.next_leaf)
        flat: List[int] = [0] * (3 * count)
        flat[0::3] = [key[0] for key in node.keys]
        flat[1::3] = [key[1] for key in node.keys]
        flat[2::3] = node.values
        _leaf_body(count).pack_into(buffer, _BODY, *flat)
    else:
        _NODE_HEADER.pack_into(buffer, 0, _TYPE_INTERNAL, count, node.next_leaf)
        _internal_body(count).pack_into(
            buffer, _BODY, *[part for key in node.keys for part in key],
            *node.children)
    page.mark_dirty()


def _deserialize(page: Page) -> _Node:
    node_type, count, next_leaf = _read_header(page)
    if node_type == _TYPE_LEAF:
        flat = _leaf_body(count).unpack_from(page.data, _BODY)
        return _Node(page.page_no, True, list(zip(flat[0::3], flat[1::3])),
                     list(flat[2::3]), [], next_leaf)
    flat = _internal_body(count).unpack_from(page.data, _BODY)
    keys = list(zip(flat[0:2 * count:2], flat[1:2 * count:2]))
    return _Node(page.page_no, False, keys, [], list(flat[2 * count:]),
                 INVALID_PAGE)


class BPlusTree:
    """A B+-tree over a :class:`~repro.storage.pager.BufferPool`.

    Parameters
    ----------
    pool:
        Buffer pool the tree's pages live in.  The tree assumes exclusive
        ownership of the underlying pager's page space.
    unique:
        When True (default), inserting an existing key raises
        :class:`DuplicateKeyError`.  Duplicate-key indexes should encode
        the duplicate dimension into the second key component instead.
    """

    def __init__(self, pool: BufferPool, unique: bool = True) -> None:
        self._pool = pool
        self.unique = unique
        if self._pool._pager.page_count == 0:
            meta = self._pool.allocate_page()
            try:
                root = self._pool.allocate_page()
                try:
                    _serialize(_Node(root.page_no, True, [], [], []), root)
                    self._root_page = root.page_no
                    self._height = 1
                    self._size = 0
                    self._write_meta(meta)
                finally:
                    self._pool.unpin(root)
            finally:
                self._pool.unpin(meta)
        else:
            with self._pool.pinned(0) as meta:
                magic, root_page, height, size = _META.unpack_from(meta.data, 0)
                if magic != _MAGIC:
                    raise BPlusTreeError("page 0 is not a B+-tree metadata page")
                self._root_page = root_page
                self._height = height
                self._size = size

    # -- metadata ----------------------------------------------------------

    def _write_meta(self, page: Optional[Page] = None) -> None:
        if page is not None:
            _META.pack_into(page.data, 0, _MAGIC, self._root_page, self._height, self._size)
            page.mark_dirty()
            return
        with self._pool.pinned(0) as meta:
            _META.pack_into(meta.data, 0, _MAGIC, self._root_page, self._height, self._size)
            meta.mark_dirty()

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    # -- node I/O ------------------------------------------------------------

    def _load(self, page_no: int) -> _Node:
        with self._pool.pinned(page_no) as page:
            return _deserialize(page)

    def _store(self, node: _Node) -> None:
        with self._pool.pinned(node.page_no) as page:
            _serialize(node, page)

    def _new_node(self, is_leaf: bool) -> _Node:
        page = self._pool.allocate_page()
        try:
            _NODE_HEADER.pack_into(page.data, 0,
                                   _TYPE_LEAF if is_leaf else _TYPE_INTERNAL,
                                   0, INVALID_PAGE)
            page.mark_dirty()
            return _Node(page.page_no, is_leaf, [], [], [])
        finally:
            self._pool.unpin(page)

    # -- search ----------------------------------------------------------

    def _leaf_page(self, key: Key) -> int:
        """Page number of the leaf whose key range holds ``key``, found by
        bisecting each internal page in place (one pin at a time)."""
        page_no = self._root_page
        for _level in range(self._height - 1):
            with self._pool.pinned(page_no) as page:
                count, _next = _node_header(page, _TYPE_INTERNAL)
                data = page.data
                # A key equal to a separator belongs to the right child.
                index = bisect_right(
                    range(_BODY, _BODY + count * _KEY.size, _KEY.size),
                    key, key=partial(_KEY.unpack_from, data))
                (page_no,) = _CHILD.unpack_from(
                    data, _BODY + count * _KEY.size + index * _CHILD.size)
        return page_no

    def _descend_to_leaf(self, key: Key) -> Tuple[_Node, List[Tuple[_Node, int]]]:
        """Decode the root-to-leaf path for ``key``: the leaf and the
        ``(internal_node, child_index)`` pairs taken.  Only the paths that
        restructure nodes (leaf split, delete) need it."""
        path: List[Tuple[_Node, int]] = []
        node = self._load(self._root_page)
        while not node.is_leaf:
            index = bisect_right(node.keys, key)
            path.append((node, index))
            node = self._load(node.children[index])
        return node, path

    def get(self, key: Key) -> Optional[int]:
        """Return the value stored at ``key``, or None."""
        with self._pool.pinned(self._leaf_page(key)) as page:
            count, _next = _node_header(page, _TYPE_LEAF)
            return _leaf_lookup(page.data, count, key)[1]

    def __contains__(self, key: Key) -> bool:
        return self.get(key) is not None

    def get_many(self, keys: Sequence[Key]) -> Dict[Key, int]:
        """Point lookups for a whole batch of keys in one pass.

        Keys are visited in sorted order.  While the next key is no
        greater than the current leaf's last key it can only live in that
        leaf, so the batch stays on the leaf instead of descending from
        the root again.  Absent keys are simply missing from the result.
        """
        found: Dict[Key, int] = {}
        ordered = sorted(set(keys))
        position, total = 0, len(ordered)
        while position < total:
            with self._pool.pinned(self._leaf_page(ordered[position])) as page:
                count, _next = _node_header(page, _TYPE_LEAF)
                data = page.data
                last = _KEY.unpack_from(
                    data, _BODY + (count - 1) * _LEAF_ENTRY.size
                ) if count else MIN_KEY
                index = 0
                while True:
                    key = ordered[position]
                    index, value = _leaf_lookup(data, count, key, index)
                    if value is not None:
                        found[key] = value
                    position += 1
                    if position == total or ordered[position] > last:
                        break
        return found

    def range(self, lo: Key = MIN_KEY, hi: Key = MAX_KEY) -> Iterator[Tuple[Key, int]]:
        """Yield ``(key, value)`` pairs with ``lo <= key <= hi`` in order.

        Each leaf's matches are unpacked while it is pinned and yielded
        after it is unpinned, so no pin is held across a ``yield``.
        """
        if lo > hi:
            return
        page_no = self._leaf_page(lo)
        while page_no != INVALID_PAGE:
            with self._pool.pinned(page_no) as page:
                count, page_no = _node_header(page, _TYPE_LEAF)
                data = page.data
                start = _leaf_bisect(data, count, lo)
                stop = bisect_right(
                    range(_BODY, _BODY + count * _LEAF_ENTRY.size,
                          _LEAF_ENTRY.size),
                    hi, start, key=partial(_KEY.unpack_from, data))
                matches = [((k1, k2), value) for k1, k2, value in
                           _LEAF_ENTRY.iter_unpack(
                               data[_BODY + start * _LEAF_ENTRY.size:
                                    _BODY + stop * _LEAF_ENTRY.size])]
            yield from matches
            if stop < count:
                return

    def prefix(self, first: int) -> Iterator[Tuple[Key, int]]:
        """All entries whose first key component equals ``first`` — the
        duplicate-key lookup used for ``rsid`` scans."""
        yield from self.range((first, MIN_KEY[1]), (first, MAX_KEY[1]))

    def items(self) -> Iterator[Tuple[Key, int]]:
        yield from self.range()

    # -- insert ----------------------------------------------------------

    def insert(self, key: Key, value: int) -> None:
        """Insert ``key -> value``.

        In a unique tree, an existing key raises
        :class:`DuplicateKeyError`; in a non-unique tree the old value is
        overwritten (callers encode duplicates into the key).
        """
        with self._pool.pinned(self._leaf_page(key)) as page:
            count, next_leaf = _node_header(page, _TYPE_LEAF)
            data = page.data
            index, old = _leaf_lookup(data, count, key)
            offset = _BODY + index * _LEAF_ENTRY.size
            if old is not None:
                if self.unique:
                    raise DuplicateKeyError(f"key {key} already present")
                _LEAF_ENTRY.pack_into(data, offset, key[0], key[1], value)
                page.mark_dirty()
                return
            full = count == LEAF_MAX
            if not full:
                end = _BODY + count * _LEAF_ENTRY.size
                data[offset + _LEAF_ENTRY.size:end + _LEAF_ENTRY.size] = \
                    data[offset:end]
                _LEAF_ENTRY.pack_into(data, offset, key[0], key[1], value)
                _NODE_HEADER.pack_into(data, 0, _TYPE_LEAF, count + 1, next_leaf)
                page.mark_dirty()
        self._size += 1
        if full:
            leaf, path = self._descend_to_leaf(key)
            leaf.keys.insert(index, key)
            leaf.values.insert(index, value)
            self._split_leaf(leaf, path)
        self._write_meta()

    def _split_leaf(self, leaf: _Node, path: List[Tuple[_Node, int]]) -> None:
        mid = len(leaf.keys) // 2
        right = self._new_node(is_leaf=True)
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        right.next_leaf = leaf.next_leaf
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.next_leaf = right.page_no
        self._store(leaf)
        self._store(right)
        self._insert_into_parent(leaf, right.keys[0], right, path)

    def _insert_into_parent(self, left: _Node, separator: Key, right: _Node,
                            path: List[Tuple[_Node, int]]) -> None:
        if not path:
            root = self._new_node(is_leaf=False)
            root.keys = [separator]
            root.children = [left.page_no, right.page_no]
            self._store(root)
            self._root_page = root.page_no
            self._height += 1
            return
        parent, child_index = path[-1]
        parent.keys.insert(child_index, separator)
        parent.children.insert(child_index + 1, right.page_no)
        if len(parent.keys) <= INTERNAL_MAX:
            self._store(parent)
            return
        mid = len(parent.keys) // 2
        up_key = parent.keys[mid]
        new_right = self._new_node(is_leaf=False)
        new_right.keys = parent.keys[mid + 1:]
        new_right.children = parent.children[mid + 1:]
        parent.keys = parent.keys[:mid]
        parent.children = parent.children[:mid + 1]
        self._store(parent)
        self._store(new_right)
        self._insert_into_parent(parent, up_key, new_right, path[:-1])

    # -- delete ----------------------------------------------------------

    def delete(self, key: Key) -> bool:
        """Remove ``key``; returns True if it was present."""
        leaf, path = self._descend_to_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        del leaf.keys[index]
        del leaf.values[index]
        self._size -= 1
        self._store(leaf)
        if len(leaf.keys) < LEAF_MIN and path:
            self._rebalance(leaf, path)
        elif not path:
            pass  # root leaf may be arbitrarily small
        self._write_meta()
        return True

    def _rebalance(self, node: _Node, path: List[Tuple[_Node, int]]) -> None:
        parent, child_index = path[-1]
        min_keys = LEAF_MIN if node.is_leaf else INTERNAL_MIN
        if len(node.keys) >= min_keys:
            return

        # Try borrowing from the left sibling.
        if child_index > 0:
            left = self._load(parent.children[child_index - 1])
            if len(left.keys) > min_keys:
                self._borrow_from_left(node, left, parent, child_index)
                return
        # Try borrowing from the right sibling.
        if child_index < len(parent.children) - 1:
            right = self._load(parent.children[child_index + 1])
            if len(right.keys) > min_keys:
                self._borrow_from_right(node, right, parent, child_index)
                return
        # Merge with a sibling.
        if child_index > 0:
            left = self._load(parent.children[child_index - 1])
            self._merge(left, node, parent, child_index - 1)
        else:
            right = self._load(parent.children[child_index + 1])
            self._merge(node, right, parent, child_index)

        if len(path) > 1:
            self._rebalance(parent, path[:-1])
        elif not parent.keys:
            # Root has become empty: collapse one level and reclaim it.
            old_root = self._root_page
            self._root_page = parent.children[0]
            self._height -= 1
            self._pool.free_page(old_root)

    def _borrow_from_left(self, node: _Node, left: _Node, parent: _Node,
                          child_index: int) -> None:
        if node.is_leaf:
            node.keys.insert(0, left.keys.pop())
            node.values.insert(0, left.values.pop())
            parent.keys[child_index - 1] = node.keys[0]
        else:
            node.keys.insert(0, parent.keys[child_index - 1])
            parent.keys[child_index - 1] = left.keys.pop()
            node.children.insert(0, left.children.pop())
        self._store(left)
        self._store(node)
        self._store(parent)

    def _borrow_from_right(self, node: _Node, right: _Node, parent: _Node,
                           child_index: int) -> None:
        if node.is_leaf:
            node.keys.append(right.keys.pop(0))
            node.values.append(right.values.pop(0))
            parent.keys[child_index] = right.keys[0]
        else:
            node.keys.append(parent.keys[child_index])
            parent.keys[child_index] = right.keys.pop(0)
            node.children.append(right.children.pop(0))
        self._store(right)
        self._store(node)
        self._store(parent)

    def _merge(self, left: _Node, right: _Node, parent: _Node,
               separator_index: int) -> None:
        """Merge ``right`` into ``left``; both are children of ``parent``
        separated by ``parent.keys[separator_index]``."""
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[separator_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[separator_index]
        del parent.children[separator_index + 1]
        self._store(left)
        self._store(parent)
        # Reclaim the merged-away node's page for future allocations.
        self._pool.free_page(right.page_no)

    # -- maintenance ------------------------------------------------------

    def flush(self) -> None:
        self._write_meta()
        self._pool.flush_all()

    def check_invariants(self) -> None:
        """Validate structural invariants; raises :class:`BPlusTreeError`
        on violation.  Used by property-based tests."""
        count = self._check_node(self._root_page, MIN_KEY, MAX_KEY,
                                 depth=1, is_root=True)
        if count != self._size:
            raise BPlusTreeError(f"size mismatch: counted {count}, recorded {self._size}")
        # All leaves must be chained in key order.
        previous: Optional[Key] = None
        for key, _value in self.items():
            if previous is not None and key <= previous:
                raise BPlusTreeError(f"leaf chain out of order: {previous} !< {key}")
            previous = key

    def _check_node(self, page_no: int, lo: Key, hi: Key, depth: int,
                    is_root: bool) -> int:
        node = self._load(page_no)
        if node.is_leaf:
            if depth != self._height:
                raise BPlusTreeError(
                    f"leaf {page_no} at depth {depth}, expected {self._height}")
            if not is_root and len(node.keys) < LEAF_MIN:
                raise BPlusTreeError(f"leaf {page_no} underfull: {len(node.keys)}")
            for key in node.keys:
                if not lo <= key <= hi:
                    raise BPlusTreeError(f"leaf key {key} outside ({lo}, {hi})")
            if node.keys != sorted(node.keys):
                raise BPlusTreeError(f"leaf {page_no} keys unsorted")
            return len(node.keys)
        if not is_root and len(node.keys) < INTERNAL_MIN:
            raise BPlusTreeError(f"internal {page_no} underfull: {len(node.keys)}")
        if is_root and not node.keys:
            raise BPlusTreeError("internal root has no keys")
        if node.keys != sorted(node.keys):
            raise BPlusTreeError(f"internal {page_no} keys unsorted")
        total = 0
        bounds = [lo] + node.keys + [hi]
        for i, child in enumerate(node.children):
            total += self._check_node(child, bounds[i], bounds[i + 1],
                                      depth + 1, is_root=False)
        return total
