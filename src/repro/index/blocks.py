"""Block-compressed postings with skip metadata and lazy decoding.

The flat layout of :mod:`repro.index.postings` stores postings as raw
12-byte ``<TID, TF>`` entries and decodes the whole list on every fetch,
even when the temporal window or intersection galloping discards most of
it.  This module adds a versioned block format (format version 1):

* entries are grouped into fixed-size blocks (default 128);
* each block body is delta-encoded — unsigned varint tid deltas
  interleaved with varint term frequencies;
* a skip table ahead of the bodies carries one header per block with
  ``count``, ``min_tid``, ``max_tid``, ``max_tf`` and the body length,
  so readers can skip whole blocks (temporal clipping, galloping) and
  bound scores (per-block ``max_tf``) without decoding a single entry.

Byte layout::

    [magic 0xB7][version 0x01]
    uvarint total_count
    uvarint block_count
    block_count x ( uvarint count,
                    zigzag min_tid          -- first block; later blocks
                                               store min_tid - prev max_tid
                    uvarint max_tid - min_tid,
                    uvarint max_tf,
                    uvarint body_len )
    concatenated block bodies; each body is count x
                  ( uvarint tid delta from the previous tid
                    -- the running tid starts at the block's min_tid,
                    uvarint tf )

:func:`open_postings` dispatches on the leading version byte and falls
back to the legacy flat codec, so indexes built before this format
remain readable.  :class:`BlockPostingsReader` implements the sequence
protocol over the encoded bytes, decoding blocks on demand through an
optional shared :class:`BlockCache`.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from operator import itemgetter
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

from .. import columnar
from .postings import ENTRY_SIZE, Posting, decode_postings

MAGIC = 0xB7
FORMAT_VERSION = 1
DEFAULT_BLOCK_SIZE = 128
DEFAULT_BLOCK_CACHE_SIZE = 256

_TID = itemgetter(0)


class PostingsFormatError(ValueError):
    """A postings payload that cannot be parsed in any known format."""


# -- varint / zigzag primitives ---------------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"uvarint value must be >= 0: {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    length = len(data)
    while True:
        if pos >= length:
            raise PostingsFormatError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise PostingsFormatError("varint wider than 10 bytes")


def _zigzag_encode(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


def _zigzag_decode(value: int) -> int:
    return value // 2 if value % 2 == 0 else -(value // 2) - 1


# -- encoding ----------------------------------------------------------------


def encode_postings_blocks(postings: Sequence[Posting],
                           block_size: int = DEFAULT_BLOCK_SIZE) -> bytes:
    """Serialise a tid-sorted postings list in the block format."""
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1: {block_size}")
    total = len(postings)
    headers: List[Tuple[int, int, int, int, int]] = []
    bodies = bytearray()
    previous: Optional[int] = None
    for start in range(0, total, block_size):
        chunk = postings[start:start + block_size]
        body = bytearray()
        min_tid = chunk[0][0]
        running = min_tid
        max_tf = 0
        for tid, tf in chunk:
            if previous is not None and tid < previous:
                raise ValueError(f"postings not sorted: {tid} after {previous}")
            previous = tid
            if tf < 0:
                raise ValueError(f"negative term frequency: {tf}")
            _write_uvarint(body, tid - running)
            _write_uvarint(body, tf)
            running = tid
            if tf > max_tf:
                max_tf = tf
        headers.append((len(chunk), min_tid, running, max_tf, len(body)))
        bodies.extend(body)
    out = bytearray((MAGIC, FORMAT_VERSION))
    _write_uvarint(out, total)
    _write_uvarint(out, len(headers))
    prev_max: Optional[int] = None
    for count, min_tid, max_tid, max_tf, body_len in headers:
        _write_uvarint(out, count)
        if prev_max is None:
            _write_uvarint(out, _zigzag_encode(min_tid))
        else:
            _write_uvarint(out, min_tid - prev_max)
        _write_uvarint(out, max_tid - min_tid)
        _write_uvarint(out, max_tf)
        _write_uvarint(out, body_len)
        prev_max = max_tid
    out.extend(bodies)
    return bytes(out)


# -- parsed structure --------------------------------------------------------


class BlockHeader:
    """One skip-table entry: everything known about a block without
    decoding its body."""

    __slots__ = ("count", "min_tid", "max_tid", "max_tf", "body_offset",
                 "body_len")

    def __init__(self, count: int, min_tid: int, max_tid: int, max_tf: int,
                 body_offset: int, body_len: int) -> None:
        self.count = count
        self.min_tid = min_tid
        self.max_tid = max_tid
        self.max_tf = max_tf
        self.body_offset = body_offset
        self.body_len = body_len

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BlockHeader(count={self.count}, min_tid={self.min_tid}, "
                f"max_tid={self.max_tid}, max_tf={self.max_tf}, "
                f"body_len={self.body_len})")


class _ParsedBlocks:
    """Immutable parse result shared by every view over one payload."""

    __slots__ = ("data", "headers", "cum", "maxes", "mins", "total")

    def __init__(self, data: bytes, headers: List[BlockHeader],
                 total: int) -> None:
        self.data = data
        self.headers = headers
        self.total = total
        cum = [0]
        for header in headers:
            cum.append(cum[-1] + header.count)
        self.cum = cum
        self.maxes = [header.max_tid for header in headers]
        self.mins = [header.min_tid for header in headers]


def _parse_blocks(data: bytes) -> _ParsedBlocks:
    if len(data) < 2 or data[0] != MAGIC or data[1] != FORMAT_VERSION:
        raise PostingsFormatError("not a block-format postings payload")
    pos = 2
    total, pos = _read_uvarint(data, pos)
    block_count, pos = _read_uvarint(data, pos)
    if (block_count == 0) != (total == 0):
        raise PostingsFormatError(
            f"inconsistent counts: {total} entries in {block_count} blocks")
    headers: List[BlockHeader] = []
    prev_max: Optional[int] = None
    entries_seen = 0
    for _ in range(block_count):
        count, pos = _read_uvarint(data, pos)
        if count < 1:
            raise PostingsFormatError("empty block")
        raw_min, pos = _read_uvarint(data, pos)
        if prev_max is None:
            min_tid = _zigzag_decode(raw_min)
        else:
            min_tid = prev_max + raw_min
        span, pos = _read_uvarint(data, pos)
        max_tf, pos = _read_uvarint(data, pos)
        body_len, pos = _read_uvarint(data, pos)
        max_tid = min_tid + span
        headers.append(BlockHeader(count, min_tid, max_tid, max_tf, 0,
                                   body_len))
        prev_max = max_tid
        entries_seen += count
    if entries_seen != total:
        raise PostingsFormatError(
            f"block counts sum to {entries_seen}, header says {total}")
    offset = pos
    for header in headers:
        header.body_offset = offset
        offset += header.body_len
    if offset != len(data):
        raise PostingsFormatError(
            f"body section is {len(data) - pos} bytes, headers claim "
            f"{offset - pos}")
    return _ParsedBlocks(data, headers, total)


def _decode_block(data: bytes, header: BlockHeader) -> Tuple[Posting, ...]:
    pos = header.body_offset
    end = pos + header.body_len
    tid = header.min_tid
    entries: List[Posting] = []
    for _ in range(header.count):
        delta, pos = _read_uvarint(data, pos)
        tf, pos = _read_uvarint(data, pos)
        tid += delta
        entries.append((tid, tf))
    if pos != end:
        raise PostingsFormatError(
            f"block body decoded to {pos - header.body_offset} bytes, "
            f"header says {header.body_len}")
    if tid != header.max_tid:
        raise PostingsFormatError(
            f"block ends at tid {tid}, header says {header.max_tid}")
    return tuple(entries)


def _decode_block_columns(data: bytes,
                          header: BlockHeader) -> Tuple[array, array]:
    """Decode one block body straight into tid/tf ``array('q')`` columns
    — the same varint walk as :func:`_decode_block` without building a
    tuple per entry."""
    pos = header.body_offset
    end = pos + header.body_len
    tid = header.min_tid
    tids = array("q")
    tfs = array("q")
    append_tid = tids.append
    append_tf = tfs.append
    read = _read_uvarint
    for _ in range(header.count):
        delta, pos = read(data, pos)
        tf, pos = read(data, pos)
        tid += delta
        append_tid(tid)
        append_tf(tf)
    if pos != end:
        raise PostingsFormatError(
            f"block body decoded to {pos - header.body_offset} bytes, "
            f"header says {header.body_len}")
    if tid != header.max_tid:
        raise PostingsFormatError(
            f"block ends at tid {tid}, header says {header.max_tid}")
    return tids, tfs


# -- decoded-block cache -----------------------------------------------------


class BlockCache:
    """Size-bounded, thread-safe LRU cache of decoded blocks.

    Keys are ``(payload key, block number)``; values are immutable entry
    tuples, safe to share between readers and threads.  Hit/miss totals
    feed both the instance counters and the ``index.block_cache.*``
    metrics in :mod:`repro.obs.metrics`.
    """

    def __init__(self, capacity: int = DEFAULT_BLOCK_CACHE_SIZE) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0: {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[object, Tuple[Posting, ...]]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def get(self, key: object) -> Optional[Tuple[Posting, ...]]:
        with self._lock:
            entries = self._entries.get(key)
            if entries is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        return entries

    def put(self, key: object, entries: Tuple[Posting, ...]) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = entries
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0


# -- stats plumbing ----------------------------------------------------------


def _stat_add(stats: Optional[object], name: str, amount: int = 1) -> None:
    """Bump a counter attribute on an ``IndexStats``-shaped object, if
    one was supplied (duck-typed so this module stays import-cycle free)."""
    if stats is not None and amount:
        setattr(stats, name, getattr(stats, name) + amount)


# -- lazy reader -------------------------------------------------------------


class BlockPostingsReader:
    """Sequence view over a block-format payload, decoding lazily.

    Implements ``len``/indexing/iteration/equality so it drops into every
    consumer of a plain postings list, plus three skip-aware operations:

    * :meth:`seek` — the galloping-search primitive used by
      ``repro.index.postings._gallop``, skipping whole blocks through the
      skip table before binary-searching inside one;
    * :meth:`clip` — temporal-window restriction returning a narrowed
      view; interior blocks stay encoded until actually consumed;
    * :meth:`max_tf` — a per-view term-frequency bound straight from the
      block headers, never decoding a body.

    Views are immutable and cheap: narrowing shares the parsed skip table,
    the stats sink and the decoded-block cache with the parent.
    """

    __slots__ = ("_parsed", "_start", "_end", "_stats", "_cache",
                 "_cache_key", "_last_block", "_last_entries",
                 "_last_cols_block", "_last_cols")

    def __init__(self, parsed: _ParsedBlocks, start: int, end: int,
                 stats: Optional[object] = None,
                 cache: Optional[BlockCache] = None,
                 cache_key: Optional[object] = None) -> None:
        self._parsed = parsed
        self._start = start
        self._end = end
        self._stats = stats
        self._cache = cache
        self._cache_key = cache_key
        self._last_block: Optional[int] = None
        self._last_entries: Tuple[Posting, ...] = ()
        self._last_cols_block: Optional[Tuple[int, str]] = None
        self._last_cols: Optional[Tuple[Any, Any]] = None

    # -- block plumbing -----------------------------------------------------

    @property
    def block_count(self) -> int:
        return len(self._parsed.headers)

    def _block_of(self, global_index: int) -> int:
        cum = self._parsed.cum
        last = self._last_block
        if last is not None and cum[last] <= global_index < cum[last + 1]:
            return last
        return bisect_right(cum, global_index) - 1

    def _entries_for(self, block: int) -> Tuple[Posting, ...]:
        if block == self._last_block:
            return self._last_entries
        key = None
        entries: Optional[Tuple[Posting, ...]] = None
        if self._cache is not None and self._cache_key is not None:
            key = (self._cache_key, block)
            entries = self._cache.get(key)
            if entries is not None:
                _stat_add(self._stats, "block_cache_hits")
        if entries is None:
            if key is not None:
                _stat_add(self._stats, "block_cache_misses")
            header = self._parsed.headers[block]
            entries = _decode_block(self._parsed.data, header)
            _stat_add(self._stats, "blocks_decoded")
            _stat_add(self._stats, "bytes_decoded", header.body_len)
            if key is not None and self._cache is not None:
                self._cache.put(key, entries)
        self._last_block = block
        self._last_entries = entries
        return entries

    def _record_skipped(self, blocks: int) -> None:
        if blocks > 0:
            _stat_add(self._stats, "blocks_skipped", blocks)

    # -- sequence protocol --------------------------------------------------

    def __len__(self) -> int:
        return self._end - self._start

    def __bool__(self) -> bool:
        return self._end > self._start

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[Posting, List[Posting]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError(f"postings index out of range: {index}")
        global_index = self._start + index
        block = self._block_of(global_index)
        entries = self._entries_for(block)
        return entries[global_index - self._parsed.cum[block]]

    def __iter__(self) -> Iterator[Posting]:
        cum = self._parsed.cum
        position = self._start
        while position < self._end:
            block = self._block_of(position)
            entries = self._entries_for(block)
            block_start = cum[block]
            stop = min(cum[block + 1], self._end) - block_start
            for offset in range(position - block_start, stop):
                yield entries[offset]
            position = block_start + stop

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (BlockPostingsReader, list, tuple)):
            if len(self) != len(other):
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BlockPostingsReader(entries={len(self)}, "
                f"blocks={self.block_count})")

    # -- skip-aware operations ---------------------------------------------

    def seek(self, target: int, start: int) -> int:
        """Smallest view index >= ``start`` whose tid >= ``target`` (or
        ``len(self)``) — the ``_gallop`` contract, but block-skipping:
        blocks whose ``max_tid`` lies below the target are passed over via
        the skip table without decoding."""
        size = len(self)
        if start < 0:
            start = 0
        if start >= size:
            return start
        parsed = self._parsed
        global_index = self._start + start
        block = self._block_of(global_index)
        if parsed.maxes[block] < target:
            landing = bisect_left(parsed.maxes, target, block + 1)
            self._record_skipped(landing - block - 1)
            if landing >= len(parsed.headers):
                return size
            block = landing
            global_index = parsed.cum[block]
        header = parsed.headers[block]
        if target <= header.min_tid:
            result = max(parsed.cum[block], global_index)
        else:
            entries = self._entries_for(block)
            block_start = parsed.cum[block]
            offset = bisect_left(entries, target,
                                 global_index - block_start, key=_TID)
            result = block_start + offset
        if result >= self._end:
            return size
        return result - self._start

    def clip(self, start_tid: Optional[int],
             end_tid: Optional[int]) -> "BlockPostingsReader":
        """Narrowed view over entries with
        ``start_tid <= tid <= end_tid`` (``None`` = unbounded).

        Whole blocks outside the window are discarded via the skip table;
        only the (at most two) boundary blocks are decoded here, and the
        interior stays encoded until consumed.
        """
        if start_tid is None and end_tid is None:
            return self
        parsed = self._parsed
        cum = parsed.cum
        low = self._start
        high = self._end
        skipped = 0
        if start_tid is not None and low < high:
            first = self._block_of(low)
            landing = bisect_left(parsed.maxes, start_tid, first)
            skipped += landing - first
            if landing >= len(parsed.headers):
                low = high
            else:
                header = parsed.headers[landing]
                if start_tid <= header.min_tid:
                    low = max(cum[landing], low)
                else:
                    entries = self._entries_for(landing)
                    base = max(low - cum[landing], 0)
                    low = cum[landing] + bisect_left(entries, start_tid,
                                                     base, key=_TID)
        if end_tid is not None and low < high:
            top = self._block_of(high - 1)
            last = bisect_right(parsed.mins, end_tid) - 1
            if last < self._block_of(low):
                high = low
            else:
                if last < top:
                    skipped += top - last
                else:
                    last = top
                header = parsed.headers[last]
                if header.max_tid <= end_tid:
                    high = min(cum[last + 1], high)
                else:
                    entries = self._entries_for(last)
                    high = min(cum[last] + bisect_right(entries, end_tid,
                                                        key=_TID), high)
        self._record_skipped(skipped)
        if low > high:
            low = high
        view = BlockPostingsReader(parsed, low, high, self._stats,
                                   self._cache, self._cache_key)
        view._last_block = self._last_block
        view._last_entries = self._last_entries
        return view

    # -- columnar access ----------------------------------------------------

    def decode_block_arrays(self, block: int) -> Tuple[Any, Any]:
        """Whole-block ``(tids, tfs)`` columns, decoded straight from the
        varint body — no per-entry tuples.  Columns are numpy ``int64``
        arrays on the numpy backend and ``array('q')`` otherwise
        (:mod:`repro.columnar` decides).

        Decode accounting (``blocks_decoded``/``bytes_decoded``) matches
        the tuple path; the decoded-tuple :class:`BlockCache` is not
        consulted — column consumers stream a view once, so the reader
        keeps only a last-block memo, keyed by backend so a forced
        backend switch (tests) never serves the wrong representation.
        A block the view already holds as tuples (its last-block memo)
        is not decoded again.
        """
        if not 0 <= block < len(self._parsed.headers):
            raise IndexError(f"block index out of range: {block}")
        memo_key = (block, columnar.active_backend())
        if memo_key == self._last_cols_block and self._last_cols is not None:
            return self._last_cols
        header = self._parsed.headers[block]
        entries = self._last_entries
        # The tuple memo holds this block (e.g. a clip() boundary block)
        # when it starts at the block's min_tid, which no other block of
        # the payload shares; split it instead of decoding the body again.
        if entries and entries[0][0] == header.min_tid:
            tids = array("q", [tid for tid, _tf in entries])
            tfs = array("q", [tf for _tid, tf in entries])
        else:
            tids, tfs = _decode_block_columns(self._parsed.data, header)
            _stat_add(self._stats, "blocks_decoded")
            _stat_add(self._stats, "bytes_decoded", header.body_len)
        cols = (columnar.int_column(tids), columnar.int_column(tfs))
        self._last_cols_block = memo_key
        self._last_cols = cols
        return cols

    def column_view(self) -> Tuple[Any, Any]:
        """The whole view as ``(tids, tfs)`` columns.

        Full blocks contribute their decoded arrays as-is; the (at most
        two) boundary blocks are sliced.  Equivalent to
        ``zip(*self.materialize())`` but without per-entry tuples.
        """
        if self._start >= self._end:
            empty = columnar.int_column(())
            return empty, empty
        parsed = self._parsed
        cum = parsed.cum
        first = self._block_of(self._start)
        last = self._block_of(self._end - 1)
        tid_parts: List[Any] = []
        tf_parts: List[Any] = []
        for block in range(first, last + 1):
            tids, tfs = self.decode_block_arrays(block)
            lo = max(self._start - cum[block], 0)
            hi = min(self._end, cum[block + 1]) - cum[block]
            if lo != 0 or hi != len(tids):
                tids = tids[lo:hi]
                tfs = tfs[lo:hi]
            tid_parts.append(tids)
            tf_parts.append(tfs)
        if len(tid_parts) == 1:
            return tid_parts[0], tf_parts[0]
        np = columnar.numpy_module()
        if np is not None:
            return np.concatenate(tid_parts), np.concatenate(tf_parts)
        tids_out = array("q")
        tfs_out = array("q")
        for tids, tfs in zip(tid_parts, tf_parts):
            tids_out.extend(tids)
            tfs_out.extend(tfs)
        return tids_out, tfs_out

    def max_tf(self) -> int:
        """Largest per-block ``max_tf`` header over the view's blocks — an
        upper bound on any tf in the view, computed without decoding."""
        if self._start >= self._end:
            return 0
        first = self._block_of(self._start)
        last = self._block_of(self._end - 1)
        return max(header.max_tf
                   for header in self._parsed.headers[first:last + 1])

    def materialize(self) -> List[Posting]:
        """Decode the whole view into a plain list."""
        return list(self)


# -- version dispatch --------------------------------------------------------

PostingsView = Union[BlockPostingsReader, Tuple[Posting, ...]]


def open_postings(data: bytes, *, stats: Optional[object] = None,
                  cache: Optional[BlockCache] = None,
                  cache_key: Optional[object] = None) -> PostingsView:
    """Open a serialised postings payload in whichever format it uses.

    Block-format payloads (leading ``MAGIC``/version bytes) return a lazy
    :class:`BlockPostingsReader`; legacy flat payloads decode eagerly
    into an immutable tuple.  A payload matching neither format raises
    :class:`PostingsFormatError`.
    """
    if len(data) >= 2 and data[0] == MAGIC and data[1] == FORMAT_VERSION:
        try:
            parsed = _parse_blocks(data)
        except PostingsFormatError:
            # A legacy flat payload can open with the magic bytes by
            # coincidence (they would sit inside the first entry's tid);
            # only a clean 12-byte multiple falls back.
            if len(data) % ENTRY_SIZE == 0:
                return _open_flat(data, stats)
            raise
        return BlockPostingsReader(parsed, 0, parsed.total, stats, cache,
                                   cache_key)
    if len(data) % ENTRY_SIZE == 0:
        return _open_flat(data, stats)
    raise PostingsFormatError(
        f"unrecognised postings payload of {len(data)} bytes")


def _open_flat(data: bytes, stats: Optional[object]) -> Tuple[Posting, ...]:
    postings = tuple(decode_postings(data))
    _stat_add(stats, "bytes_decoded", len(data))
    return postings


def decode_any(data: bytes) -> List[Posting]:
    """Fully decode a payload in either format into a plain list."""
    view = open_postings(data)
    return list(view)


__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_BLOCK_CACHE_SIZE",
    "PostingsFormatError",
    "encode_postings_blocks",
    "BlockHeader",
    "BlockCache",
    "BlockPostingsReader",
    "open_postings",
    "decode_any",
]
