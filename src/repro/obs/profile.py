"""Per-query execution profiles.

A :class:`QueryProfile` is attached to every
:class:`~repro.query.results.QueryResult` and reports, for one query,
the quantities the paper's experimental study plots: wall-clock time and
where it went, pages read and cache behaviour (Fig 8's I/O story), and
the pruning ledger behind Fig 12 — how many in-radius candidates were
retired by the global bound vs the pre-computed hot-keyword bounds
before paying for thread construction.

The accounting invariant (asserted in tests)::

    users_pruned_global + users_pruned_hot + users_scored == candidates_examined

where ``candidates_examined`` counts in-radius candidate *tweets*
examined by the scoring loop: every one is either pruned (by exactly one
bound kind) or scored.  ``candidate_users`` is the distinct-user view of
the same set — how many users had at least one examined candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class QueryProfile:
    """Execution profile of one TkLUS query."""

    method: str = ""
    semantics: str = ""
    keywords: int = 0
    k: int = 0
    radius_km: float = 0.0
    elapsed_seconds: float = 0.0

    # Candidate funnel (paper Figs 8/10/12).
    cells_covered: int = 0
    postings_lists_fetched: int = 0
    postings_entries_read: int = 0
    candidates: int = 0          # tweets after AND/OR formation
    candidates_examined: int = 0  # in-radius candidate tweets examined
    candidate_users: int = 0     # distinct users among examined candidates
    users_scored: int = 0        # candidates fully scored (thread built/reused)
    users_pruned_global: int = 0  # retired by the global t_m bound
    users_pruned_hot: int = 0     # retired by a hot-keyword specific bound
    bound_source: str = "none"   # "global" | "hot" | "none" (sum ranking)
    threads_built: int = 0

    # I/O (paper Figs 7/8's cost driver).
    pages_read: int = 0
    pages_written: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    index_bytes_read: int = 0
    io_by_component: Dict[str, Dict[str, int]] = field(default_factory=dict)

    # Block-postings decode work (the lazy-decoding story: how much of
    # the fetched postings data the query actually paid to decode).
    postings_bytes_decoded: int = 0
    blocks_decoded: int = 0
    blocks_skipped: int = 0
    block_cache_hits: int = 0
    block_cache_misses: int = 0

    # Read amplification (the compaction story: how many generations a
    # lookup had to consult, and how many non-empty postings sources it
    # actually merged).
    generations_probed: int = 0
    postings_sources_merged: int = 0

    @property
    def users_pruned(self) -> int:
        return self.users_pruned_global + self.users_pruned_hot

    @property
    def prune_rate(self) -> float:
        """Fraction of examined candidates whose thread construction was
        skipped (the Fig 12 effectiveness measure)."""
        if self.candidates_examined == 0:
            return 0.0
        return self.users_pruned / self.candidates_examined

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    @property
    def block_cache_hit_rate(self) -> float:
        total = self.block_cache_hits + self.block_cache_misses
        if total == 0:
            return 0.0
        return self.block_cache_hits / total

    def check(self) -> None:
        """Raise if the pruning ledger does not balance."""
        total = self.users_pruned_global + self.users_pruned_hot + self.users_scored
        if total != self.candidates_examined:
            raise AssertionError(
                f"profile ledger unbalanced: pruned_global="
                f"{self.users_pruned_global} + pruned_hot="
                f"{self.users_pruned_hot} + scored={self.users_scored} "
                f"!= candidates_examined={self.candidates_examined}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "semantics": self.semantics,
            "keywords": self.keywords,
            "k": self.k,
            "radius_km": self.radius_km,
            "elapsed_seconds": self.elapsed_seconds,
            "cells_covered": self.cells_covered,
            "postings_lists_fetched": self.postings_lists_fetched,
            "postings_entries_read": self.postings_entries_read,
            "candidates": self.candidates,
            "candidates_examined": self.candidates_examined,
            "candidate_users": self.candidate_users,
            "users_scored": self.users_scored,
            "users_pruned_global": self.users_pruned_global,
            "users_pruned_hot": self.users_pruned_hot,
            "bound_source": self.bound_source,
            "prune_rate": self.prune_rate,
            "threads_built": self.threads_built,
            "pages_read": self.pages_read,
            "pages_written": self.pages_written,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "index_bytes_read": self.index_bytes_read,
            "io_by_component": dict(self.io_by_component),
            "postings_bytes_decoded": self.postings_bytes_decoded,
            "blocks_decoded": self.blocks_decoded,
            "blocks_skipped": self.blocks_skipped,
            "block_cache_hits": self.block_cache_hits,
            "block_cache_misses": self.block_cache_misses,
            "block_cache_hit_rate": self.block_cache_hit_rate,
            "generations_probed": self.generations_probed,
            "postings_sources_merged": self.postings_sources_merged,
        }

    def describe(self) -> str:
        """Multi-line human-readable rendering (used by ``repro profile``)."""
        lines = [
            f"query: method={self.method} semantics={self.semantics} "
            f"keywords={self.keywords} k={self.k} radius={self.radius_km:g}km",
            f"elapsed: {self.elapsed_seconds * 1000:.2f} ms",
            f"funnel: cells={self.cells_covered} "
            f"postings_lists={self.postings_lists_fetched} "
            f"entries={self.postings_entries_read} "
            f"candidates={self.candidates} in_radius={self.candidates_examined} "
            f"users={self.candidate_users}",
            f"pruning: scored={self.users_scored} "
            f"pruned_global={self.users_pruned_global} "
            f"pruned_hot={self.users_pruned_hot} "
            f"(bound={self.bound_source}, rate={self.prune_rate:.1%})",
            f"threads built: {self.threads_built}",
            f"io: pages_read={self.pages_read} "
            f"cache_hit_rate={self.cache_hit_rate:.1%} "
            f"index_bytes_read={self.index_bytes_read}",
            f"decode: bytes={self.postings_bytes_decoded} "
            f"blocks={self.blocks_decoded} skipped={self.blocks_skipped} "
            f"block_cache_hit_rate={self.block_cache_hit_rate:.1%}",
            f"read amp: generations_probed={self.generations_probed} "
            f"sources_merged={self.postings_sources_merged}",
        ]
        return "\n".join(lines)
