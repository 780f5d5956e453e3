"""Plan-keyed result cache with watermark-token invalidation.

A cache entry is keyed on the triple

``(PlanSpec, TkLUSQuery, version token)``

where the :class:`~repro.query.pipeline.planner.PlanSpec` is the
planner's memo key (so two queries that execute the same physical plan
shape share nothing unless their parameters also match — both are
frozen dataclasses and hash structurally), and the *version token* is
the ``(watermark LSN, generation epoch)`` pair from
:meth:`repro.ingest.live.LiveIndex.version_token`.

Correctness rests entirely on the token: every append advances the
memtable watermark and every flush/compaction advances the generation
epoch, so tokens never repeat and a stale entry can never be *looked
up* — its token no longer matches the live one.  Invalidation is
therefore purely a memory-bound concern: :meth:`purge_stale` drops
entries from superseded tokens, and an LRU bound caps the rest.  A hit
returns the exact object sequence the original execution produced —
byte-identical to re-running the query at the same watermark, which
``tests/test_serve_cache_properties.py`` checks as a property across
appends and flushes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Tuple

#: ``(watermark LSN, generation token)`` — see LiveIndex.version_token.
VersionToken = Tuple[int, int]

#: Full cache key: (plan spec, query, version token).
CacheKey = Tuple[Hashable, Hashable, VersionToken]

#: What a hit returns: the ranked users exactly as first computed.
CachedResult = List[Tuple[int, float]]


class ResultCache:
    """Bounded LRU over ``(PlanSpec, query, token) -> ranked users``.

    Thread-safe: workers hit it concurrently; all state is guarded by
    one lock (operations are dict moves, never query execution, so the
    critical sections are tiny).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, CachedResult]" = \
            OrderedDict()  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._invalidated = 0  # guarded-by: _lock
        self._evicted = 0  # guarded-by: _lock

    def lookup(self, spec: Hashable, query: Hashable,
               token: VersionToken) -> Optional[CachedResult]:
        """The cached ranking for this exact (plan, query, watermark),
        or ``None``.  A hit refreshes LRU recency."""
        key = (spec, query, token)
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return result

    def store(self, spec: Hashable, query: Hashable, token: VersionToken,
              users: CachedResult) -> None:
        """Insert (or refresh) one entry, evicting LRU past capacity."""
        key = (spec, query, token)
        with self._lock:
            self._entries[key] = users
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evicted += 1

    def purge_stale(self, current: VersionToken) -> int:
        """Drop every entry whose token is not ``current``; returns the
        number dropped.  Called when the server observes the token move
        (ingest landed) — stale entries could never be served again
        (their key no longer matches), this just returns the memory."""
        with self._lock:
            stale = [key for key in self._entries if key[2] != current]
            for key in stale:
                del self._entries[key]
            self._invalidated += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._invalidated += len(self._entries)
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            hits, misses = self._hits, self._misses
            lookups = hits + misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": hits,
                "misses": misses,
                "hit_rate": (hits / lookups) if lookups else 0.0,
                "invalidated": self._invalidated,
                "evicted": self._evicted,
            }
