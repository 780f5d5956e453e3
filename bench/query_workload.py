"""``query_narrow`` and ``query_broad``: one client calling
``engine.search`` on a static engine, closed loop.

The untraced pass times whole queries.  The traced pass replays the
first third of the same ops operator by operator over a
``QueryContext`` whose database, postings source and thread builder are
timing proxies, so each stage and each layer below it gets a span.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro import EngineConfig, TkLUSEngine
from repro.core.thread import ThreadBuilder
from repro.query.pipeline.context import QueryContext

import inputs
import spec
from common import (Options, Outcome, best_of, peak_rss_mb, settle,
                    split_warmup)
from oracle import Oracle
from spans import Proxy, Tracer, durations, patch, summarize
from stats import mean, median, ms, now, percentile, samples_beyond

#: operator name -> stage key; the scalar and the columnar operator
#: families land on the same keys.
STAGE_OF = {
    "Cover": "cover",
    "PostingsFetch": "fetch",
    "CandidateForm": "form", "BatchCandidateForm": "form",
    "TemporalClip": "form", "ColumnarTemporalClip": "form",
    "RadiusFilter": "filter",
    "BoundsPrune": "prune",
    "ThreadScore": "score", "FusedRadiusScore": "score",
    "Rank": "rank", "BatchRank": "rank",
    "TopK": "topk", "BatchTopK": "topk",
}
STAGES = ("cover", "fetch", "form", "filter", "prune", "score", "rank",
          "topk", "other")

DATABASE_SPANS = {
    "get": "storage.get", "get_many": "storage.get",
    "resolve_many": "storage.get",
    "posts_of_user": "storage.user_posts",
    "user_location_columns": "storage.user_posts",
    "replies_to": "storage.replies", "reply_count": "storage.replies",
}
SOURCE_SPANS = {"cover": "geo.cover", "postings_for_query": "index.postings"}


def run(name: str, options: Options) -> Outcome:
    sizes: spec.QuerySizes = spec.SIZES[name]
    outcome = Outcome()

    generate_s, build_s = [], []
    for _rep in range(spec.SETUP_REPS):
        engine = corpus = None  # drop the previous set-up before the next
        start = now()
        corpus = inputs.corpus(sizes.users, sizes.roots, options.scale)
        generated = now()
        engine = TkLUSEngine.from_posts(
            corpus.posts, EngineConfig(pool_size=sizes.pool_pages))
        generate_s.append(generated - start)
        build_s.append(now() - generated)
    sampler = inputs.QuerySampler(corpus, options.seed)
    count = options.count(sizes.ops)
    ops = sampler.narrow(count) if name == "query_narrow" else sampler.broad(count)
    outcome.fingerprint = inputs.fingerprint(corpus.posts, ops)
    settle()

    warm, timed = split_warmup(ops)
    passes: List[List[float]] = []
    results: List[Any] = []
    for _pass in range(sizes.passes):
        # Every pass starts as the first did: popularity cache cold,
        # then the warm-up ops.
        engine.threads.clear_cache()
        for query, method in warm:
            engine.search(query, method)
        taken: List[float] = []
        answers = []
        for query, method in timed:
            begin = now()
            result = engine.search(query, method)
            taken.append(now() - begin)
            answers.append(result)
        passes.append(taken)
        if not results:   # counters and answers are the first pass's
            results = answers
    latencies = best_of(passes)
    rss = peak_rss_mb()

    oracle = Oracle(corpus.posts)
    mismatches = []
    checked = range(0, len(timed), sizes.verify_every)
    for index in checked:
        query, method = timed[index]
        problem = oracle.mismatch(query, method, results[index].users)
        if problem:
            mismatches.append(f"op {index} ({method}): {problem}")

    report = engine.index_report()
    posts = len(corpus.posts)
    outcome.attempted = len(timed)
    outcome.failed = outcome.mismatches = len(mismatches)
    outcome.warnings.extend(mismatches[:5])
    outcome.samples = {"op_p50_ms": len(latencies), "op_p95_ms": len(latencies),
                       "beyond_p95": samples_beyond(len(latencies), 0.95),
                       "passes": sizes.passes, "setup_s": spec.SETUP_REPS}
    outcome.sizes = {"posts": posts, "users": len(corpus.users),
                     "pool_pages": sizes.pool_pages, "ops": len(ops),
                     "warmup_ops": len(warm)}
    outcome.end_to_end = {
        "setup_s": median([g + b for g, b in zip(generate_s, build_s)]),
        "peak_rss_mb": rss,
        "op_p50_ms": ms(percentile(latencies, 0.50)),
        "op_p95_ms": ms(percentile(latencies, 0.95)),
        "ops_per_s": len(timed) / sum(latencies),
        "bytes_per_post": (report["forward_bytes"] + report["inverted_bytes"]) / posts,
    }
    outcome.per_layer = counters(results)
    outcome.per_layer.update({
        "index.forward_bytes": report["forward_bytes"],
        "index.inverted_bytes": report["inverted_bytes"],
        "setup.generate_s": median(generate_s),
        "setup.build_s": median(build_s),
        "verify.checked": len(checked),
        "verify.mismatches": len(mismatches),
    })
    if options.trace:
        traced_pass(engine, warm, timed, results, latencies, sizes.passes, outcome)
    return outcome


def counters(results: Sequence[Any]) -> Dict[str, float]:
    """Work counts the program made itself, per query."""
    count = len(results)
    profiles = [result.profile for result in results]
    stats = [result.stats for result in results]

    def per_q(values: Sequence[int]) -> float:
        return sum(values) / count

    pool = {key: sum(component[key] for profile in profiles
                     for component in profile.io_by_component.values())
            for key in ("cache_hits", "cache_misses", "evictions")}
    block_hits = sum(p.block_cache_hits for p in profiles)
    block_lookups = block_hits + sum(p.block_cache_misses for p in profiles)
    in_radius = sum(s.candidates_in_radius for s in stats)
    returned = sum(len(result.users) for result in results)
    return {
        "query.funnel.cells_per_q": per_q([s.cells_covered for s in stats]),
        "query.funnel.lists_per_q": per_q([s.postings_lists_fetched for s in stats]),
        "query.funnel.candidates_per_q": per_q([s.candidates for s in stats]),
        "query.funnel.in_radius_per_q": in_radius / count,
        "query.funnel.users_scored_per_q": per_q([p.users_scored for p in profiles]),
        "query.funnel.pruned_per_q": per_q([p.users_pruned for p in profiles]),
        "query.funnel.rows_per_result": in_radius / returned if returned else 0.0,
        "index.postings.entries_per_q": per_q([p.postings_entries_read for p in profiles]),
        "index.postings.bytes_decoded_per_q": per_q([p.postings_bytes_decoded for p in profiles]),
        "index.blocks.decoded_per_q": per_q([p.blocks_decoded for p in profiles]),
        "index.blocks.skipped_per_q": per_q([p.blocks_skipped for p in profiles]),
        "index.block_cache.hit_rate": block_hits / block_lookups if block_lookups else 0.0,
        "index.generations_probed_per_q": per_q([p.generations_probed for p in profiles]),
        "storage.pool.hits_per_q": pool["cache_hits"] / count,
        "storage.pool.misses_per_q": pool["cache_misses"] / count,
        "storage.pool.evictions_per_q": pool["evictions"] / count,
        "core.thread.builds_per_q": per_q([s.threads_built for s in stats]),
    }


def traced_pass(engine: TkLUSEngine, warm: Sequence[inputs.Op],
                timed: Sequence[inputs.Op], results: Sequence[Any],
                latencies: Sequence[float], passes: int,
                outcome: Outcome) -> None:
    tracer = Tracer()
    database = Proxy(engine.database, tracer, DATABASE_SPANS)
    source = Proxy(engine.index, tracer, SOURCE_SPANS)
    threads = ThreadBuilder(database, depth=engine.threads.depth,
                            epsilon=engine.threads.epsilon,
                            cache=engine.config.thread_cache)
    patch(threads, "popularity", tracer, "core.thread")
    unmapped = set()

    def execute(query: Any, method: str) -> Any:
        root = tracer.begin("query")
        planning = tracer.begin("query.plan")
        processor = engine.processor(method)
        plan = processor.plan_for(query)
        context = QueryContext.for_database(
            query, config=processor.config, metric=processor.metric,
            source=source, database=database, threads=threads,
            bounds=getattr(processor, "bounds", None))
        tracer.end(planning)
        for operator in plan.operators:
            stage = STAGE_OF.get(operator.name)
            if stage is None:
                unmapped.add(operator.name)
                stage = "other"
            span = tracer.begin("query.stage." + stage)
            operator.run(context)
            tracer.end(span)
        tracer.end(root)
        return context.users

    replayed = timed[:max(1, len(timed) // 3)]
    count = len(replayed)
    traced: List[List[float]] = []
    for _pass in range(passes):
        threads.clear_cache()
        for query, method in warm:
            execute(query, method)
        tracer.spans.clear()   # the spans kept are the last pass's
        for index, (query, method) in enumerate(replayed):
            tracer.request = index
            if execute(query, method) != results[index].users:
                outcome.failed += 1
                outcome.mismatches += 1
                outcome.warnings.append(f"traced op {index} answered differently")
        traced.append(durations(tracer.spans, "query"))
    if unmapped:
        outcome.warnings.append(
            f"operators without a stage, counted as other: {sorted(unmapped)}")

    totals = summarize(tracer.spans)

    def inclusive(name: str) -> float:
        return totals[name][1]

    def calls(name: str) -> float:
        return totals[name][0] / count

    def self_ms(name: str) -> float:
        return ms(totals[name][2]) / count

    staged = inclusive("query.plan") + sum(
        inclusive("query.stage." + stage) for stage in STAGES)
    layer = outcome.per_layer
    layer["query.plan.ms_per_q"] = ms(inclusive("query.plan")) / count
    for stage in STAGES:
        layer[f"query.stage.{stage}.ms_per_q"] = ms(
            inclusive("query.stage." + stage)) / count
    layer["query.residual_share"] = 1.0 - staged / inclusive("query")
    layer["geo.cover.ms_per_q"] = self_ms("geo.cover")
    layer["index.postings.ms_per_q"] = self_ms("index.postings")
    for key in ("get", "user_posts", "replies"):
        layer[f"storage.{key}.calls_per_q"] = calls("storage." + key)
        layer[f"storage.{key}.ms_per_q"] = self_ms("storage." + key)
    layer["core.thread.calls_per_q"] = calls("core.thread")
    layer["core.thread.ms_per_q"] = self_ms("core.thread")
    # Best against best, over the same ops and the same number of tries.
    layer["trace.overhead_ratio"] = mean(best_of(traced)) / mean(latencies[:count])
    outcome.samples["traced_ops"] = count
    outcome.spans = tracer.spans
