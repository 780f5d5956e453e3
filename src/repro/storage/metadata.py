"""The centralized tweet metadata database.

Section IV-A: "All tweets in our system form a relation with the schema of
(sid, uid, lat, lon, ruid, rsid) which is stored in a centralized metadata
database ... attribute 'sid' is the primary key for which we build a
B+-tree. Another B+-tree is built on attribute 'rsid'. These indexes are
used to accelerate the query processing phase."

:class:`MetadataDatabase` bundles a heap file with those two B+-trees and
exposes exactly the two query shapes the algorithms need:

* ``select all where rsid equals Id`` (Algorithm 1 line 7 — thread
  expansion), via a prefix scan of the ``(rsid, sid)`` tree;
* ``select userId where sid = ...`` (Algorithms 4/5 — user attribution),
  via the unique ``(sid, 0)`` tree.

We additionally maintain a ``(uid, sid)`` B+-tree the paper does not
mention: Definition 9 averages the distance score over *all* of a user's
posts (``P_u``), which needs an efficient user-to-posts lookup.  The
paper leaves the access path unstated; a secondary index is the natural
engineering choice and its cost is accounted like the others.

Query workers and the ingest writer share one database, and neither the
buffer pools nor the trees take a lock (a B+-tree search bisects page
bytes that an insert shifts in place).  :class:`MetadataDatabase` holds
one lock across every public read and write; iterators materialise
their results under it and yield after releasing it.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterable, Iterator, List, Optional

from .bptree import BPlusTree
from .heapfile import HeapFile
from .iostats import StatsRegistry
from .pager import BufferPool, FilePager, MemoryPager
from .records import NO_REF, TweetRecord, unpack_location, unpack_resolved


class MetadataError(RuntimeError):
    """Raised for metadata-database misuse (e.g. duplicate sid)."""


class MetadataDatabase:
    """Heap file + B+-tree(sid) + B+-tree(rsid) over pluggable pagers.

    Use :meth:`in_memory` for tests and small experiments, or
    :meth:`open_directory` to persist to disk.  The database also tracks
    ``t_m`` — "the maximum number of replied tweets a tweet can have in our
    database" — which Definition 11 needs for the global upper-bound
    popularity.
    """

    def __init__(self, heap_pool: BufferPool, sid_pool: BufferPool,
                 rsid_pool: BufferPool, uid_pool: BufferPool,
                 registry: StatsRegistry) -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self._heap = HeapFile(heap_pool)  # guarded-by: _lock
        self._sid_tree = BPlusTree(sid_pool, unique=True)  # guarded-by: _lock
        self._rsid_tree = BPlusTree(rsid_pool, unique=True)  # guarded-by: _lock
        self._uid_tree = BPlusTree(uid_pool, unique=True)  # guarded-by: _lock
        self._reply_counts: Dict[int, int] = {}  # guarded-by: _lock
        self._user_columns_cache: Dict[
            int, "tuple[List[float], List[float]]"] = {}  # guarded-by: _lock
        self._max_reply_fanout = 0  # guarded-by: _lock
        self._max_sid = 0  # guarded-by: _lock
        for (sid, _zero), _pointer in self._sid_tree.range(
                (int(-2**62), 0), (int(2**62), 0)):
            if sid > self._max_sid:
                self._max_sid = sid
        self._rebuild_fanout_cache_locked()

    # -- construction -------------------------------------------------------

    @classmethod
    def in_memory(cls, pool_size: int = 512) -> "MetadataDatabase":
        registry = StatsRegistry()
        return cls(
            heap_pool=BufferPool(MemoryPager(registry.get("heap")), pool_size),
            sid_pool=BufferPool(MemoryPager(registry.get("sid_index")), pool_size),
            rsid_pool=BufferPool(MemoryPager(registry.get("rsid_index")), pool_size),
            uid_pool=BufferPool(MemoryPager(registry.get("uid_index")), pool_size),
            registry=registry,
        )

    @classmethod
    def open_directory(cls, directory: str, pool_size: int = 512) -> "MetadataDatabase":
        os.makedirs(directory, exist_ok=True)
        registry = StatsRegistry()
        return cls(
            heap_pool=BufferPool(
                FilePager(os.path.join(directory, "tweets.heap"),
                          registry.get("heap")), pool_size),
            sid_pool=BufferPool(
                FilePager(os.path.join(directory, "sid.btree"),
                          registry.get("sid_index")), pool_size),
            rsid_pool=BufferPool(
                FilePager(os.path.join(directory, "rsid.btree"),
                          registry.get("rsid_index")), pool_size),
            uid_pool=BufferPool(
                FilePager(os.path.join(directory, "uid.btree"),
                          registry.get("uid_index")), pool_size),
            registry=registry,
        )

    def _rebuild_fanout_cache_locked(self) -> None:
        """Recompute reply-fanout counts from the rsid index (used when
        reopening a persisted database)."""
        self._reply_counts.clear()
        self._max_reply_fanout = 0
        current: Optional[int] = None
        count = 0
        for (rsid, _sid), _pointer in self._rsid_tree.items():
            if rsid != current:
                if current is not None:
                    self._reply_counts[current] = count
                    self._max_reply_fanout = max(self._max_reply_fanout, count)
                current = rsid
                count = 0
            count += 1
        if current is not None:
            self._reply_counts[current] = count
            self._max_reply_fanout = max(self._max_reply_fanout, count)

    # -- properties ---------------------------------------------------------

    @property
    def stats(self) -> StatsRegistry:
        return self._registry

    @property
    def size(self) -> int:
        with self._lock:
            return len(self._sid_tree)

    def __len__(self) -> int:
        return self.size

    @property
    def max_sid(self) -> int:
        """The newest tweet id (== timestamp) in the relation; the
        temporal extension's notion of "now"."""
        with self._lock:
            return self._max_sid

    @property
    def max_reply_fanout(self) -> int:
        """``t_m`` of Definition 11: the largest number of direct replies /
        forwards any single tweet has received."""
        with self._lock:
            return self._max_reply_fanout

    @property
    def heap(self) -> HeapFile:
        """The record heap — exposed for deep invariant validation."""
        with self._lock:
            return self._heap

    def indexes(self) -> Dict[str, BPlusTree]:
        """The named B+-trees — exposed for deep invariant validation."""
        with self._lock:
            return {"sid": self._sid_tree, "rsid": self._rsid_tree,
                    "uid": self._uid_tree}

    # -- writes ----------------------------------------------------------

    def insert(self, record: TweetRecord) -> None:
        """Insert one tweet record, maintaining both indexes and the
        fanout cache."""
        with self._lock:
            if self._sid_tree.get((record.sid, 0)) is not None:
                raise MetadataError(f"duplicate sid {record.sid}")
            pointer = self._heap.insert(record.pack())
            self._user_columns_cache.pop(record.uid, None)
            self._sid_tree.insert((record.sid, 0), pointer)
            if record.sid > self._max_sid:
                self._max_sid = record.sid
            self._uid_tree.insert((record.uid, record.sid), pointer)
            if record.rsid != NO_REF:
                self._rsid_tree.insert((record.rsid, record.sid), pointer)
                count = self._reply_counts.get(record.rsid, 0) + 1
                self._reply_counts[record.rsid] = count
                if count > self._max_reply_fanout:
                    self._max_reply_fanout = count

    def bulk_load(self, records: Iterable[TweetRecord]) -> int:
        """Insert many records; returns the number loaded."""
        loaded = 0
        for record in records:
            self.insert(record)
            loaded += 1
        return loaded

    # -- reads ----------------------------------------------------------

    def get(self, sid: int) -> Optional[TweetRecord]:
        """Point lookup by primary key."""
        with self._lock:
            return self._get_locked(sid)

    def _get_locked(self, sid: int) -> Optional[TweetRecord]:
        pointer = self._sid_tree.get((sid, 0))
        if pointer is None:
            return None
        return TweetRecord.unpack(self._heap.read(pointer))

    def _read_by_sid_locked(self, sids: Iterable[int]
                            ) -> "tuple[List[tuple[int, int]], List[bytes]]":
        """Sorted found sid keys and their heap records: one sorted index
        pass, then page-grouped heap reads."""
        pointers = self._sid_tree.get_many([(sid, 0) for sid in sids])
        keys = sorted(pointers)
        return keys, self._heap.read_many([pointers[key] for key in keys])

    def get_many(self, sids: Iterable[int]) -> Dict[int, TweetRecord]:
        """Batch point lookups: one sorted index pass, then page-grouped
        heap reads.  Absent sids are missing from the result."""
        with self._lock:
            keys, records = self._read_by_sid_locked(sids)
        return {key[0]: TweetRecord.unpack(data)
                for key, data in zip(keys, records)}

    def resolve_many(self, sids: Iterable[int]
                     ) -> Dict[int, "tuple[int, float, float]"]:
        """Batch ``sid -> (uid, lat, lon)`` projection — the candidate
        resolution of Algorithms 4/5 line 16 over a whole batch, without
        materialising :class:`TweetRecord` objects."""
        with self._lock:
            keys, records = self._read_by_sid_locked(sids)
        return {key[0]: unpack_resolved(data)
                for key, data in zip(keys, records)}

    def user_location_columns(self, uid: int
                              ) -> "tuple[List[float], List[float]]":
        """Latitude/longitude columns of ``P_u`` in sid order — the batch
        access path behind the vectorized Definition 9 kernel.  Heap
        pages are each pinned once and only the coordinates are
        unpacked.

        Columns are memoised per user (a user's ``P_u`` only changes
        when they post, which invalidates their entry in
        :meth:`insert`).  Callers must treat the returned lists as
        read-only.
        """
        with self._lock:
            cached = self._user_columns_cache.get(uid)
            if cached is not None:
                return cached
            pointers = [pointer for _key, pointer in self._uid_tree.prefix(uid)]
            lats: List[float] = []
            lons: List[float] = []
            for data in self._heap.read_many(pointers):
                lat, lon = unpack_location(data)
                lats.append(lat)
                lons.append(lon)
            self._user_columns_cache[uid] = (lats, lons)
            return lats, lons

    def user_of(self, sid: int) -> Optional[int]:
        """``select userId where sid = ...`` (Algorithm 4 line 20)."""
        with self._lock:
            record = self._get_locked(sid)
        return record.uid if record is not None else None

    def replies_to(self, sid: int) -> List[TweetRecord]:
        """``select all where rsid equals to Id`` (Algorithm 1 line 7)."""
        with self._lock:
            records = [self._heap.read(pointer)
                       for _key, pointer in self._rsid_tree.prefix(sid)]
        return [TweetRecord.unpack(data) for data in records]

    def reply_count(self, sid: int) -> int:
        """Number of direct replies/forwards to ``sid`` without fetching
        the records."""
        with self._lock:
            return self._reply_counts.get(sid, 0)

    def posts_of_user(self, uid: int) -> List[TweetRecord]:
        """All tweets by ``uid`` (``P_u``), in sid order — the access
        path behind Definition 9's user distance score."""
        with self._lock:
            records = [self._heap.read(pointer)
                       for _key, pointer in self._uid_tree.prefix(uid)]
        return [TweetRecord.unpack(data) for data in records]

    def post_count_of_user(self, uid: int) -> int:
        """``|P_u|`` without fetching heap records."""
        with self._lock:
            return sum(1 for _ in self._uid_tree.prefix(uid))

    def scan(self) -> Iterator[TweetRecord]:
        """Full relation scan in physical (ingestion) order."""
        with self._lock:
            records = [data for _record_id, data in self._heap.scan()]
        for data in records:
            yield TweetRecord.unpack(data)

    def sid_range(self, lo: int, hi: int) -> Iterator[TweetRecord]:
        """All tweets with ``lo <= sid <= hi`` in sid order (the temporal
        filtering hook the paper lists as future work)."""
        with self._lock:
            records = [self._heap.read(pointer) for _key, pointer
                       in self._sid_tree.range((lo, 0), (hi, 0))]
        for data in records:
            yield TweetRecord.unpack(data)

    # -- maintenance ------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            self._heap.flush()
            self._sid_tree.flush()
            self._rsid_tree.flush()
            self._uid_tree.flush()

    def check_invariants(self) -> None:
        with self._lock:
            self._sid_tree.check_invariants()
            self._rsid_tree.check_invariants()
            self._uid_tree.check_invariants()
