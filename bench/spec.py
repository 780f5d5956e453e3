"""What the benchmark measures: names from ``BENCHMARK.json`` plus the
sizes of each workload.  Sizes are stated at ``--scale 1`` and, where
they grow with the run length, at the reference ``run_seconds``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("query_narrow", "query_broad", "ingest_stream", "serve_mixed")

#: ``run_seconds`` of BENCHMARK.json: op counts below are stated for a
#: run of this length and grow in proportion to ``--seconds``
REF_SECONDS = 15.0
#: untimed share at the head of every op sequence
WARMUP_SHARE = 0.05
#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: a served request is good when it is ok and no slower than this
LATENCY_LIMIT_S = 0.5
#: appends slower than this are stalls (flush / compaction in the foreground)
STALL_S = 0.020


@dataclass(frozen=True)
class QuerySizes:
    users: int
    roots: int
    pool_pages: int          # EngineConfig.pool_size (512 is the shipped default)
    ops: int                 # distinct queries
    passes: int              # times the sequence is replayed; an op's latency is its best
    verify_every: int = 10


@dataclass(frozen=True)
class IngestSizes:
    users: int               # the corpus grows with --seconds: every post is appended
    roots: int
    rounds: int = 2          # fresh services fed the same stream; an append's latency is its best
    verify_queries: int = 20


@dataclass(frozen=True)
class ServeSizes:
    users: int
    roots: int
    preload_posts: int
    workers: int = 2
    window: int = 2                  # phase A: tickets kept outstanding
    pool_queries: int = 240
    closed_ops: int = 300            # phase A
    open_arrivals: int = 240         # phase B, per round
    open_rate_qps: float = 40.0      # phase B reference rate (~30 % of capacity)
    open_rounds: int = 2             # phase B replays; a request's latency is its best
    writer_rate: float = 20.0        # appends/s alongside every phase
    ladder_qps: tuple = (90.0, 120.0, 180.0, 240.0, 360.0, 480.0, 720.0, 960.0)
    ladder_step_s: float = 2.0
    verify_queries: int = 20


SIZES: Dict[str, Any] = {
    # ~10k posts; heap 129 / sid ~120 / uid ~100 / rsid ~60 pages, all
    # inside the shipped 512-page pools.
    "query_narrow": QuerySizes(users=1000, roots=5000, pool_pages=512,
                               ops=600, passes=2),
    # Same corpus with 96-page pools, so the 129-page heap and the sid
    # tree evict (the shipped 512 pages would need ~45k posts, whose
    # 13 s build does not fit a run).
    "query_broad": QuerySizes(users=1000, roots=5000, pool_pages=96,
                              ops=217, passes=2),
    # ~14.8k posts: 14 flushes and 3 tier merges per round.
    "ingest_stream": IngestSizes(users=1500, roots=7500),
    # 3 flushed tier-0 generations (below the 4-generation merge
    # trigger) + a 428-post memtable that the writer grows, never
    # reaching the 1024-post flush threshold during phases A-B.
    "serve_mixed": ServeSizes(users=1000, roots=5000, preload_posts=3500),
}

#: per-layer metrics that are pure counts made by the program: on the
#: single-threaded workloads they must repeat exactly from run to run.
COUNTERS = frozenset({
    "query.funnel.cells_per_q", "query.funnel.lists_per_q",
    "query.funnel.candidates_per_q", "query.funnel.in_radius_per_q",
    "query.funnel.users_scored_per_q", "query.funnel.pruned_per_q",
    "query.funnel.rows_per_result",
    "index.postings.entries_per_q", "index.postings.bytes_decoded_per_q",
    "index.blocks.decoded_per_q", "index.blocks.skipped_per_q",
    "index.block_cache.hit_rate", "index.generations_probed_per_q",
    "index.forward_bytes", "index.inverted_bytes",
    "storage.pool.hits_per_q", "storage.pool.misses_per_q",
    "storage.pool.evictions_per_q",
    "core.thread.builds_per_q",
    "ingest.wal.fsyncs_per_op", "ingest.wal.bytes_per_post",
    "ingest.recovery.generations_loaded", "ingest.recovery.records_replayed",
    "ingest.generations_final", "ingest.disk.generation_bytes",
    "ingest.disk.wal_bytes",
    "compaction.committed", "compaction.posts_merged",
    "compaction.write_amp", "compaction.deferred_backpressure",
    "verify.checked", "verify.mismatches",
})
EXACT_WORKLOADS = ("query_narrow", "query_broad", "ingest_stream")


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_pins() -> Dict[str, Any]:
    with open(os.path.join(BENCH_DIR, "pins.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def metric_names(benchmark: Dict[str, Any], section: str) -> List[str]:
    return [metric["name"] for metric in benchmark[section]]
