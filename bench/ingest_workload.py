"""``ingest_stream``: one writer appending a corpus in sid order to a
fresh ``IngestService`` (shipped defaults: flush at 1024 posts, fsync
every append, tiered compaction), then a crash (the service is
abandoned without ``close()``) and a timed reopen.  The stream is fed
to ``rounds`` fresh services in turn; flushes and merges fall on the
same appends every round, so an append's best-of-rounds latency keeps
its stall and sheds the sandbox's noise.

The query pipeline is idle until the post-recovery verification.  The
traced pass replays the first third of the appends into a second fresh
service whose WAL append, metadata insert, flush and compaction step
are wrapped on the instance.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.ingest.service import IngestService

import inputs
import spec
from common import (Options, Outcome, best_of, peak_rss_mb, settle,
                    split_warmup, tree_bytes, work_dir)
from oracle import Oracle
from spans import Tracer, durations, patch, summarize
from stats import mean, median, ms, now, percentile, samples_beyond


def run(options: Options) -> Outcome:
    outcome = Outcome()
    with work_dir("ingest_stream") as directory:
        measure(spec.SIZES["ingest_stream"], options, directory, outcome)
    return outcome


def measure(sizes: spec.IngestSizes, options: Options, directory: str,
            outcome: Outcome) -> None:
    length = options.seconds / spec.REF_SECONDS
    generate_s, open_s = [], []
    for rep in range(spec.SETUP_REPS):
        start = now()
        corpus = inputs.corpus(round(sizes.users * length),
                               round(sizes.roots * length), options.scale)
        generated = now()
        IngestService(f"{directory}/empty-{rep}").close()
        generate_s.append(generated - start)
        open_s.append(now() - generated)
    posts = corpus.posts
    queries = inputs.QuerySampler(corpus, options.seed).broad(sizes.verify_queries)
    outcome.fingerprint = inputs.fingerprint(posts, queries)
    settle()

    warm, timed = split_warmup(posts)
    rounds: List[List[float]] = []
    service = None
    for number in range(sizes.rounds):
        if service is not None:
            service.close()
        live = f"{directory}/live-{number}"
        service = IngestService(live)
        for post in warm:
            service.append(post)
        taken: List[float] = []
        for post in timed:
            begin = now()
            service.append(post)
            taken.append(now() - begin)
        rounds.append(taken)
    latencies = best_of(rounds)
    rss = peak_rss_mb()

    status = service.status()
    wal = status["wal"]
    compaction = status["compaction"]
    disk = tree_bytes(live)
    generation_bytes = tree_bytes(live, "generations")
    wal_bytes = tree_bytes(live, "wal")

    # Crash: the abandoned service keeps its file handles open and is
    # never closed; only what it fsynced is on disk for the reopen.
    abandoned = service
    begin = now()
    service = IngestService(live)
    recovery = now() - begin

    mismatches = []
    if len(service.database) != len(posts):
        mismatches.append(f"{len(service.database)} posts after recovery, "
                          f"{len(posts)} were acknowledged")
    engine = service.build_query_engine()
    oracle = Oracle(posts)
    probed = []
    for index, (query, method) in enumerate(queries):
        result = engine.search(query, method)
        probed.append(result.profile.generations_probed)
        problem = oracle.mismatch(query, method, result.users)
        if problem:
            mismatches.append(f"post-recovery query {index} ({method}): {problem}")
    report = service.recovery
    service.close()
    abandoned.close()

    stalls = [latency for latency in latencies if latency > spec.STALL_S]
    outcome.attempted = len(timed)
    outcome.failed = outcome.mismatches = len(mismatches)
    outcome.warnings.extend(mismatches[:5])
    outcome.samples = {"op_p50_ms": len(latencies), "op_p95_ms": len(latencies),
                       "beyond_p95": samples_beyond(len(latencies), 0.95),
                       "beyond_p99": samples_beyond(len(latencies), 0.99),
                       "stalls": len(stalls), "rounds": sizes.rounds,
                       "setup_s": spec.SETUP_REPS}
    outcome.sizes = {"posts": len(posts), "users": len(corpus.users),
                     "warmup_ops": len(warm), "verify_queries": len(queries)}
    outcome.end_to_end = {
        "setup_s": median([g + o for g, o in zip(generate_s, open_s)]),
        "peak_rss_mb": rss,
        "op_p50_ms": ms(percentile(latencies, 0.50)),
        "op_p95_ms": ms(percentile(latencies, 0.95)),
        "ops_per_s": len(timed) / sum(latencies),
        "bytes_per_post": disk / len(posts),
    }
    flushed = status["last_flushed_lsn"]
    outcome.per_layer = {
        "ingest.append.p99_ms": ms(percentile(latencies, 0.99)),
        "ingest.append.stall_s": sum(stalls),
        "ingest.recovery.s": recovery,
        "ingest.recovery.ms_per_1k_posts": ms(recovery) / (len(posts) / 1000.0),
        "ingest.recovery.generations_loaded": report.generations_loaded,
        "ingest.recovery.records_replayed": report.records_replayed,
        "ingest.wal.fsyncs_per_op": wal["fsyncs"] / wal["appends"],
        "ingest.wal.bytes_per_post": wal["bytes_written"] / wal["appends"],
        "ingest.generations_final": len(status["generations"]),
        "ingest.disk.generation_bytes": generation_bytes,
        "ingest.disk.wal_bytes": wal_bytes,
        "compaction.committed": compaction["compactions_committed"],
        "compaction.posts_merged": compaction["posts_merged"],
        "compaction.write_amp": (flushed + compaction["posts_merged"]) / len(posts),
        "compaction.deferred_backpressure": compaction["deferred_backpressure"],
        "index.generations_probed_per_q": mean(probed),
        "setup.generate_s": median(generate_s),
        "setup.build_s": median(open_s),
        "verify.checked": len(queries) + 1,
        "verify.mismatches": len(mismatches),
    }
    if options.trace:
        traced_pass(f"{directory}/traced", warm, timed, rounds[-1], outcome)


def traced_pass(directory: str, warm: Sequence[Any], timed: Sequence[Any],
                latencies: Sequence[float], outcome: Outcome) -> None:
    tracer = Tracer()
    service = IngestService(directory)
    patch(service.wal, "append", tracer, "ingest.wal.append")
    patch(service.database, "insert", tracer, "storage.insert")
    patch(service, "flush", tracer, "ingest.flush")
    patch(service.compaction, "maybe_step", tracer, "compaction.step")
    for post in warm:
        service.append(post)
    tracer.spans.clear()
    replayed = timed[:max(1, len(timed) // 3)]
    for index, post in enumerate(replayed):
        tracer.request = index
        root = tracer.begin("ingest.append")
        service.append(post)
        tracer.end(root)
    service.close()

    count = len(replayed)
    totals = summarize(tracer.spans)
    flushes = durations(tracer.spans, "ingest.flush")

    def self_ms(name: str) -> float:
        return ms(totals[name][2]) / count

    layer = outcome.per_layer
    layer["ingest.wal.append.ms_per_op"] = self_ms("ingest.wal.append")
    layer["storage.insert.ms_per_op"] = self_ms("storage.insert")
    # What is left of an append once the WAL, the metadata insert, a
    # flush and the compaction step are taken out: the memtable add.
    layer["ingest.memtable.ms_per_op"] = self_ms("ingest.append")
    layer["ingest.flush.count"] = len(flushes)
    layer["ingest.flush.p50_ms"] = ms(percentile(flushes, 0.50))
    layer["ingest.flush.max_ms"] = ms(max(flushes, default=0.0))
    layer["ingest.flush.total_s"] = sum(flushes)
    layer["compaction.step.total_s"] = totals["compaction.step"][1]
    layer["trace.overhead_ratio"] = (
        mean(durations(tracer.spans, "ingest.append")) / mean(latencies[:count]))
    outcome.samples["traced_ops"] = count
    outcome.spans = tracer.spans
