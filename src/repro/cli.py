"""Command-line interface for the TkLUS reproduction.

Subcommands mirror the operational pipeline of the paper's Figure 3:

* ``generate``     — synthesise a geo-tagged corpus to JSON lines
                     (the "crawl" stage);
* ``build``        — run ETL + index construction and save the built
                     deployment to a directory;
* ``query``        — answer TkLUS queries against a saved deployment
                     (or build one on the fly from a corpus file);
* ``profile``      — run one query with tracing on and print the span
                     tree, the per-query profile, and the metrics dump;
* ``explain``      — print the physical operator plan of each query
                     execution path (no deployment needed — plans are
                     query-class level);
* ``stats``        — corpus statistics (Table II style);
* ``experiments``  — regenerate the paper's tables and figures;
* ``top``          — live terminal dashboard (throughput, tail latency,
                     funnel, SLO, health) over a mixed ingest+query
                     workload with the telemetry runtime installed;
* ``check``        — correctness tooling: project lint rules
                     (``--rules``) and deep structural invariant
                     validation of a built index (``--deep``); see
                     docs/STATIC_ANALYSIS.md.

``query``, ``profile`` and ``experiments`` accept ``--trace FILE`` to
write the collected spans as JSON lines (see docs/OBSERVABILITY.md).

Examples::

    python -m repro.cli generate -o corpus.jsonl --users 500 --roots 2000
    python -m repro.cli build corpus.jsonl -o deployment/
    python -m repro.cli query deployment/ --lat 43.65 --lon -79.38 \\
        --radius 10 --keywords hotel --k 5 --method max
    python -m repro.cli profile --synthetic --keywords hotel --radius 20
    python -m repro.cli experiments --small --trace spans.jsonl
    python -m repro.cli check --rules src tests
    python -m repro.cli check --deep --users 150 --roots 700
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.model import Semantics


def _cmd_generate(args: argparse.Namespace) -> int:
    from .data.etl import dump_posts
    from .data.generator import generate_corpus

    corpus = generate_corpus(num_users=args.users,
                             num_root_tweets=args.roots, seed=args.seed)
    with open(args.output, "w") as handle:
        count = dump_posts(corpus.posts, handle)
    print(f"wrote {count} posts to {args.output}")
    return 0


def _load_corpus(path: str):
    from .data.etl import load_posts

    with open(path) as handle:
        posts = load_posts(handle)
    if not posts:
        print(f"error: no geo-tagged posts in {path}", file=sys.stderr)
        raise SystemExit(2)
    return posts


def _cmd_build(args: argparse.Namespace) -> int:
    from .index.builder import IndexConfig
    from .query.engine import EngineConfig, TkLUSEngine
    from .query.persistence import save_engine

    posts = _load_corpus(args.corpus)
    config = EngineConfig(index=IndexConfig(geohash_length=args.geohash_length))
    engine = TkLUSEngine.from_posts(posts, config=config)
    save_engine(engine, args.output)
    report = engine.index_report()
    print(f"built index over {report['tweets']} tweets "
          f"(geohash length {report['geohash_length']}); "
          f"saved to {args.output}")
    return 0


def _write_trace(path: str, spans) -> None:
    from .obs import write_spans_jsonl

    with open(path, "w") as handle:
        count = write_spans_jsonl(spans, handle)
    print(f"wrote {count} spans to {path}", file=sys.stderr)


def _cmd_query(args: argparse.Namespace) -> int:
    from . import obs
    from .query.persistence import load_engine

    if args.corpus:
        from .query.engine import TkLUSEngine
        engine = TkLUSEngine.from_posts(_load_corpus(args.corpus))
    else:
        engine = load_engine(args.deployment)
    semantics = Semantics.AND if args.semantics == "and" else Semantics.OR
    query = engine.make_query((args.lat, args.lon), args.radius,
                              args.keywords, k=args.k, semantics=semantics)
    if args.trace:
        with obs.observed() as (tracer, _registry):
            result = engine.search(query, method=args.method)
        _write_trace(args.trace, tracer.roots())
    else:
        result = engine.search(query, method=args.method)
    if not result.users:
        print("no local users found")
        return 0
    for rank, (uid, score) in enumerate(result.users, start=1):
        print(f"#{rank}\tuser {uid}\tscore {score:.6f}")
    stats = result.stats
    print(f"({stats.candidates} candidates, {stats.threads_built} threads "
          f"built, {stats.threads_pruned} pruned, "
          f"{stats.elapsed_seconds * 1000:.1f} ms)", file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from . import obs
    from .query.engine import TkLUSEngine

    if args.synthetic:
        from .data.generator import generate_corpus
        from .data.queries import QueryWorkload

        corpus = generate_corpus(num_users=args.users,
                                 num_root_tweets=args.roots, seed=args.seed)
        engine = TkLUSEngine.from_posts(corpus.posts)
        location = (args.lat, args.lon)
        if args.lat is None or args.lon is None:
            location = QueryWorkload(corpus, seed=args.seed).sample_location()
    elif args.corpus:
        engine = TkLUSEngine.from_posts(_load_corpus(args.corpus))
        location = (args.lat, args.lon)
    else:
        from .query.persistence import load_engine
        engine = load_engine(args.deployment)
        location = (args.lat, args.lon)
    if location[0] is None or location[1] is None:
        print("error: --lat/--lon are required unless --synthetic",
              file=sys.stderr)
        return 2

    semantics = Semantics.AND if args.semantics == "and" else Semantics.OR
    query = engine.make_query(location, args.radius, args.keywords,
                              k=args.k, semantics=semantics)
    result, spans, registry = engine.profile_search(query, method=args.method)

    for rank, (uid, score) in enumerate(result.users, start=1):
        print(f"#{rank}\tuser {uid}\tscore {score:.6f}")
    if not result.users:
        print("no local users found")
    print()
    print("── span tree " + "─" * 47)
    print(obs.render_span_tree(spans))
    print()
    print("── query profile " + "─" * 43)
    print(result.profile.describe())
    print()
    print("── metrics " + "─" * 49)
    if args.prometheus:
        print(obs.to_prometheus_text(registry), end="")
    else:
        print(obs.render_metrics(registry))
    if args.trace:
        _write_trace(args.trace, spans)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .query.federation import federated_plan
    from .query.pipeline import Planner

    semantics = Semantics.AND if args.semantics == "and" else Semantics.OR
    planner = Planner()
    pruning = not args.no_pruning
    methods = (["sum", "max", "baseline", "distributed", "federated"]
               if args.method == "all" else [args.method])
    blocks = []
    for method in methods:
        if method == "baseline":
            text = planner.explain(args.aggregate, semantics,
                                   temporal=args.temporal, scan=True)
        elif method == "distributed":
            text = planner.explain(args.aggregate, semantics,
                                   temporal=args.temporal, distributed=True)
        elif method == "federated":
            text = federated_plan(args.aggregate).describe()
        else:
            text = planner.explain(method, semantics, pruning=pruning,
                                   temporal=args.temporal)
        blocks.append(text)
    print("\n\n".join(blocks))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from collections import Counter

    posts = _load_corpus(args.corpus)
    users = {post.uid for post in posts}
    replies = sum(1 for post in posts if post.rsid is not None)
    terms = Counter()
    for post in posts:
        terms.update(post.words)
    print(f"posts:   {len(posts)}")
    print(f"users:   {len(users)}")
    print(f"replies: {replies} ({replies / len(posts):.1%})")
    print("top keywords:")
    for rank, (term, count) in enumerate(terms.most_common(args.top), 1):
        print(f"  {rank:2d}. {term:15s} {count}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from . import obs
    from .eval.experiments import (
        ExperimentContext,
        fig5_index_construction_time,
        fig6_index_size,
        fig7_geohash_length,
        fig8_single_keyword,
        fig9_kendall_single,
        fig10_multi_keyword,
        fig11_kendall_multi,
        fig12_specific_bounds,
        fig13_user_study,
        table2_keyword_frequencies,
        table4_geohash_lengths,
    )
    from .eval.report import print_table

    if args.small:
        context = ExperimentContext.create(num_users=300,
                                           num_root_tweets=1500,
                                           queries_per_point=4)
    else:
        context = ExperimentContext.create()

    def run_all() -> None:
        print_table(table2_keyword_frequencies(context.corpus), "Table II")
        print_table(table4_geohash_lengths(), "Table IV")
        print_table(fig5_index_construction_time(context.corpus), "Fig 5")
        print_table(fig6_index_size(context.corpus), "Fig 6")
        print_table(fig7_geohash_length(context), "Fig 7")
        print_table(fig8_single_keyword(context), "Fig 8")
        print_table(fig9_kendall_single(context), "Fig 9")
        print_table(fig10_multi_keyword(context), "Fig 10")
        print_table(fig11_kendall_multi(context), "Fig 11")
        print_table(fig12_specific_bounds(context), "Fig 12")
        print_table(fig13_user_study(context), "Fig 13")

    if args.trace:
        with obs.observed() as (tracer, registry):
            run_all()
        _write_trace(args.trace, tracer.roots())
        print(obs.render_metrics(registry), file=sys.stderr)
    else:
        run_all()
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json

    from .ingest import IngestConfig, IngestService, load_posts_file

    if args.corpus:
        posts = load_posts_file(args.corpus)
    else:
        from .data.generator import generate_corpus
        corpus = generate_corpus(num_users=args.users,
                                 num_root_tweets=args.roots, seed=args.seed)
        posts = list(corpus.posts)
    if not posts:
        print("error: nothing to ingest", file=sys.stderr)
        return 2

    service = IngestService(
        args.directory,
        ingest_config=IngestConfig(flush_posts=args.flush_posts,
                                   sync_every=args.sync_every))
    for post in posts:
        service.append(post)
    if args.flush:
        service.flush()
    status = service.status()
    service.close()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        recovery = status["recovery"]
        print(f"ingested {len(posts)} posts into {args.directory}")
        print(f"  generations={len(status['generations'])} "
              f"memtable={status['memtable_posts']} posts "
              f"({status['memtable_bytes']} bytes)")
        print(f"  wal: {status['wal']['appends']} appends, "
              f"{status['wal']['fsyncs']} fsyncs, "
              f"next_lsn={status['next_lsn']}")
        if recovery["records_replayed"] or recovery["generations_loaded"]:
            print(f"  recovered on open: "
                  f"{recovery['generations_loaded']} generations, "
                  f"{recovery['records_replayed']} WAL records replayed")
    return 0


def _cmd_ingest_status(args: argparse.Namespace) -> int:
    import json

    from .ingest import inspect_ingest_dir

    report = inspect_ingest_dir(args.directory)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0 if report.exists else 2
    if not report.exists:
        print(f"error: {args.directory} is not an ingest directory",
              file=sys.stderr)
        return 2
    manifest = report.manifest
    generations = manifest.get("generations", [])
    flushed = sum(entry["post_count"] for entry in generations)
    print(f"ingest directory {args.directory}")
    print(f"  generations: {len(generations)} ({flushed} posts flushed)")
    tiers = {}
    for entry in generations:
        bucket = tiers.setdefault(int(entry.get("tier", 0)),
                                  {"generations": 0, "posts": 0, "bytes": 0})
        bucket["generations"] += 1
        bucket["posts"] += int(entry["post_count"])
        bucket["bytes"] += int(entry.get("size_bytes", 0))
    for tier in sorted(tiers):
        bucket = tiers[tier]
        print(f"  tier {tier}: {bucket['generations']} generation(s), "
              f"{bucket['posts']} posts, {bucket['bytes']} bytes")
    print(f"  last_flushed_lsn: {manifest.get('last_flushed_lsn', 0)}")
    print(f"  unflushed WAL records: {report.unflushed_records}"
          + (" (torn tail on final segment)" if report.torn_tail else ""))
    for segment in report.segments:
        flags = []
        if segment["flushed"]:
            flags.append("flushed")
        if segment["torn_tail"]:
            flags.append("torn")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        print(f"  {segment['name']}: {segment['records']} records{suffix}")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    import json

    from .compaction import CompactionConfig
    from .ingest import IngestError, IngestService

    try:
        service = IngestService(
            args.directory,
            compaction_config=CompactionConfig(
                mode=args.mode, min_inputs=args.min_inputs,
                max_inputs=args.max_inputs))
    except IngestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        if args.dry_run:
            plan = service.compaction_plan()
            payload = {
                "tiers": service.tier_breakdown(),
                "debt": service.compaction.debt(),
                "plan": plan.describe() if plan is not None else None,
            }
            if args.json:
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                print(f"ingest directory {args.directory}")
                for tier, bucket in payload["tiers"].items():
                    print(f"  tier {tier}: {bucket['generations']} "
                          f"generation(s), {bucket['posts']} posts, "
                          f"{bucket['bytes']} bytes")
                print(f"  compaction debt: {payload['debt']} generation(s)")
                print(f"  next plan: {payload['plan'] or 'nothing to do'}")
            return 0
        before = service.tier_breakdown()
        merges = service.compact(max_steps=args.max_steps)
        after = service.tier_breakdown()
        reclaimed = service.generations.drain()
        payload = {
            "merges_committed": merges,
            "generations_before": sum(b["generations"]
                                      for b in before.values()),
            "generations_after": sum(b["generations"] for b in after.values()),
            "reclaimed": reclaimed,
            "tiers": after,
        }
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"compacted {args.directory}: {merges} merge(s), "
                  f"{payload['generations_before']} -> "
                  f"{payload['generations_after']} generations")
            for tier, bucket in after.items():
                print(f"  tier {tier}: {bucket['generations']} "
                      f"generation(s), {bucket['posts']} posts, "
                      f"{bucket['bytes']} bytes")
        return 0
    finally:
        service.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Stand up the serving stack over a synthetic live deployment and
    drive demonstration traffic through it (there is no network front
    end — the subsystem under test is the pool/queue/cache)."""
    import tempfile
    import threading
    import time

    from .data.generator import generate_corpus
    from .data.queries import QueryWorkload
    from .ingest import IngestConfig, IngestService
    from .serve import (AdmissionConfig, QueryServer, ServeConfig,
                        run_closed_loop, run_open_loop)

    corpus = generate_corpus(num_users=args.users,
                             num_root_tweets=args.roots, seed=args.seed)
    posts = list(corpus.posts)
    workload = QueryWorkload(corpus, seed=args.seed)
    queries = workload.make_queries(2, args.radius, k=args.k,
                                    semantics=Semantics.OR, limit=16)

    with tempfile.TemporaryDirectory() as scratch:
        service = IngestService(
            f"{scratch}/serve",
            ingest_config=IngestConfig(flush_posts=args.flush_posts))
        preload = len(posts) // 2
        for post in posts[:preload]:
            service.append(post)
        service.flush()
        engine = service.build_query_engine()

        server = QueryServer(engine, live=service.live, config=ServeConfig(
            workers=args.workers,
            default_timeout_seconds=args.timeout,
            cache_enabled=not args.no_cache,
            admission=AdmissionConfig(
                max_queue_depth=args.queue_depth,
                queue_delay_budget_ms=args.delay_budget_ms)))

        stop = threading.Event()
        appended = 0

        def ingest_loop() -> None:
            nonlocal appended
            stream = iter(posts[preload:])
            while not stop.is_set():
                post = next(stream, None)
                if post is None:
                    return
                service.append(post)
                appended += 1
                time.sleep(1.0 / max(1.0, args.ingest_rate))

        ingester = None
        with server:
            if args.ingest_rate > 0:
                ingester = threading.Thread(target=ingest_loop, daemon=True)
                ingester.start()
            if args.rate > 0:
                result = run_open_loop(
                    server, lambda i: queries[i % len(queries)],
                    rate_qps=args.rate, duration_seconds=args.duration)
            else:
                result = run_closed_loop(
                    server, lambda i: queries[i % len(queries)],
                    clients=args.clients, duration_seconds=args.duration)
            stop.set()
            if ingester is not None:
                ingester.join(timeout=5.0)
            stats = server.stats()
        service.close()

    latency = result.latency_quantiles_ms()
    print(f"served {result.completed}/{result.issued} queries in "
          f"{result.duration_seconds:.1f}s "
          f"({result.throughput_qps():.1f} qps, {args.workers} workers)")
    print(f"  latency p50={latency['p50']:.2f}ms p95={latency['p95']:.2f}ms "
          f"p99={latency['p99']:.2f}ms p999={latency['p999']:.2f}ms")
    print(f"  shed {result.shed} ({result.shed_rate():.1%}), "
          f"timeouts {result.timeouts}, errors {result.errors}")
    cache = stats.get("cache")
    if cache:
        print(f"  cache: {cache['hits']} hits / "
              f"{cache['hits'] + cache['misses']} lookups "
              f"({cache['hit_rate']:.1%}), "
              f"{cache['invalidated']} invalidated")
    print(f"  ingest during run: {appended} appends, "
          f"worker utilization {stats['worker_utilization']:.0%}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import tempfile
    import threading
    import time

    from . import obs
    from .data.generator import generate_corpus
    from .data.queries import QueryWorkload
    from .ingest import IngestConfig, IngestService
    from .obs.top import render_top
    from .serve import QueryServer, ServeConfig, ShedError

    corpus = generate_corpus(num_users=args.users,
                             num_root_tweets=args.roots, seed=args.seed)
    posts = list(corpus.posts)
    workload = QueryWorkload(corpus, seed=args.seed)
    queries = workload.make_queries(2, args.radius, k=args.k,
                                    semantics=Semantics.OR, limit=16)

    runtime = obs.enable_runtime(obs.RuntimeConfig(
        window_seconds=1.0, num_windows=120,
        slow_query_ms=args.slow_query_ms))
    frames = args.frames or max(1, int(args.duration / args.interval))
    clear = sys.stdout.isatty() and not args.no_clear
    stop = threading.Event()

    with tempfile.TemporaryDirectory() as scratch:
        service = IngestService(
            f"{scratch}/ingest",
            ingest_config=IngestConfig(flush_posts=args.flush_posts))
        preload = len(posts) // 2
        for post in posts[:preload]:
            service.append(post)
        service.flush()
        engine = service.build_query_engine()
        server = QueryServer(engine, live=service.live,
                             config=ServeConfig(workers=args.serve_workers))

        def worker() -> None:
            # Mixed workload: drip the remaining posts in while cycling
            # the query set through the serving pool, so every dashboard
            # panel — serve included — has live data.
            stream = iter(posts[preload:])
            cursor = 0
            while not stop.is_set():
                for _ in range(4):
                    post = next(stream, None)
                    if post is not None:
                        service.append(post)
                try:
                    server.execute(queries[cursor % len(queries)], "max")
                except ShedError:
                    pass
                cursor += 1

        thread = threading.Thread(target=worker, daemon=True)
        with server:
            thread.start()
            try:
                for _frame in range(frames):
                    time.sleep(args.interval)
                    frame = render_top(runtime, health=service.health(),
                                       service_status=service.status(),
                                       serve_stats=server.stats(),
                                       recent_seconds=args.recent)
                    if clear:
                        print("\x1b[2J\x1b[H" + frame, flush=True)
                    else:
                        print(frame, flush=True)
            finally:
                stop.set()
                thread.join(timeout=5.0)
                obs.disable_runtime()
                service.close()
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json
    import os

    from . import lint

    if args.list_rules:
        for rule in lint.all_rules():
            print(f"{rule.rule_id}  {rule.summary}")
        return 0

    fmt = args.format or ("json" if args.json else "text")
    run_rules = args.rules or args.concurrency or not args.deep
    exit_code = 0
    payload = {}

    if run_rules:
        baseline = set()
        if not args.no_baseline and os.path.exists(args.baseline):
            baseline = lint.load_baseline(args.baseline)
        rules = None
        if args.concurrency:
            # The RL100 family: guarded-by discipline, lock ordering,
            # pin/lifecycle/commit protocols.
            rules = [rule for rule in lint.all_rules()
                     if rule.rule_id.startswith("RL10")]
        report = lint.lint_paths(args.paths, rules=rules, baseline=baseline)
        if args.write_baseline:
            lint.write_baseline(args.baseline, report.findings)
            print(f"wrote {len(report.findings)} baseline entries to "
                  f"{args.baseline}", file=sys.stderr)
            report.baselined.extend(report.findings)
            report.findings = []
        if fmt == "sarif":
            print(lint.render_sarif(report))
        elif fmt == "json":
            payload["rules"] = report.to_dict()
        else:
            print(lint.render_text(report, verbose=args.verbose))
        if not report.ok:
            exit_code = 1

    if args.concurrency:
        from .lint.sanitizer import run_sanitizer_smoke
        sanitizer_report = run_sanitizer_smoke()
        if fmt == "json":
            payload["sanitizer"] = sanitizer_report.to_dict()
        else:
            # stderr so --format sarif keeps stdout pure SARIF.
            stream = sys.stderr if fmt == "sarif" else sys.stdout
            for line in sanitizer_report.describe():
                print(line, file=stream)
            print(f"sanitizer: {sanitizer_report.acquisitions} sanitized "
                  f"acquisitions, {len(sanitizer_report.edges)} order "
                  f"edge(s), "
                  f"{'ok' if sanitizer_report.ok else 'NOT OK'}",
                  file=stream)
        if not sanitizer_report.ok:
            exit_code = 1

    if args.deep:
        deep_report = lint.run_deep_checks(users=args.users,
                                           roots=args.roots, seed=args.seed)
        if fmt == "json":
            payload["deep"] = deep_report.to_dict()
        else:
            print(deep_report.render_text())
        if not deep_report.ok:
            exit_code = 1

    if fmt == "json":
        print(json.dumps(payload, indent=2))
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TkLUS: top-k local user search (ICDE 2015 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate",
                                   help="synthesise a geo-tagged corpus")
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--users", type=int, default=800)
    generate.add_argument("--roots", type=int, default=4000)
    generate.add_argument("--seed", type=int, default=42)
    generate.set_defaults(func=_cmd_generate)

    build = commands.add_parser("build",
                                help="build and save a TkLUS deployment")
    build.add_argument("corpus", help="JSON-lines corpus file")
    build.add_argument("-o", "--output", required=True,
                       help="deployment directory")
    build.add_argument("--geohash-length", type=int, default=4)
    build.set_defaults(func=_cmd_build)

    query = commands.add_parser("query", help="run a TkLUS query")
    query.add_argument("deployment", nargs="?", default="",
                       help="saved deployment directory")
    query.add_argument("--corpus", default="",
                       help="build from this corpus file instead")
    query.add_argument("--lat", type=float, required=True)
    query.add_argument("--lon", type=float, required=True)
    query.add_argument("--radius", type=float, required=True,
                       help="radius in km")
    query.add_argument("--keywords", nargs="+", required=True)
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--method", choices=("sum", "max"), default="max")
    query.add_argument("--semantics", choices=("and", "or"), default="or")
    query.add_argument("--trace", default="", metavar="FILE",
                       help="write tracing spans to FILE as JSON lines")
    query.set_defaults(func=_cmd_query)

    profile = commands.add_parser(
        "profile",
        help="run one query with tracing on; print span tree + metrics")
    profile.add_argument("deployment", nargs="?", default="",
                         help="saved deployment directory")
    profile.add_argument("--corpus", default="",
                         help="build from this corpus file instead")
    profile.add_argument("--synthetic", action="store_true",
                         help="build from a generated mini-corpus")
    profile.add_argument("--users", type=int, default=200,
                         help="synthetic corpus users (with --synthetic)")
    profile.add_argument("--roots", type=int, default=1000,
                         help="synthetic corpus root tweets (with --synthetic)")
    profile.add_argument("--seed", type=int, default=42)
    profile.add_argument("--lat", type=float, default=None)
    profile.add_argument("--lon", type=float, default=None)
    profile.add_argument("--radius", type=float, default=20.0,
                         help="radius in km")
    profile.add_argument("--keywords", nargs="+", required=True)
    profile.add_argument("--k", type=int, default=10)
    profile.add_argument("--method", choices=("sum", "max"), default="max")
    profile.add_argument("--semantics", choices=("and", "or"), default="or")
    profile.add_argument("--prometheus", action="store_true",
                         help="dump metrics in Prometheus text format")
    profile.add_argument("--trace", default="", metavar="FILE",
                         help="also write the spans to FILE as JSON lines")
    profile.set_defaults(func=_cmd_profile)

    explain = commands.add_parser(
        "explain",
        help="print the physical operator plan for an execution path")
    explain.add_argument("--method",
                         choices=("sum", "max", "baseline", "distributed",
                                  "federated", "all"),
                         default="all",
                         help="which execution path to explain")
    explain.add_argument("--aggregate", choices=("sum", "max"), default="sum",
                         help="keyword aggregate for baseline/distributed/"
                              "federated paths")
    explain.add_argument("--semantics", choices=("and", "or"), default="or")
    explain.add_argument("--no-pruning", action="store_true",
                         help="show the max path without upper-bound pruning")
    explain.add_argument("--temporal", action="store_true",
                         help="include the temporal clipping stage")
    explain.set_defaults(func=_cmd_explain)

    stats = commands.add_parser("stats", help="corpus statistics")
    stats.add_argument("corpus")
    stats.add_argument("--top", type=int, default=10)
    stats.set_defaults(func=_cmd_stats)

    experiments = commands.add_parser(
        "experiments", help="regenerate the paper's tables and figures")
    experiments.add_argument("--small", action="store_true")
    experiments.add_argument("--trace", default="", metavar="FILE",
                             help="trace the full run; write spans to FILE "
                                  "as JSON lines (can be large)")
    experiments.set_defaults(func=_cmd_experiments)

    ingest = commands.add_parser(
        "ingest",
        help="stream posts through the real-time write path "
             "(WAL + memtable + flush)")
    ingest.add_argument("directory", help="ingest directory (created or "
                                          "recovered if it exists)")
    ingest.add_argument("--corpus", default="", metavar="FILE",
                        help="JSON-lines posts file; omitted = synthetic")
    ingest.add_argument("--users", type=int, default=200,
                        help="synthetic corpus users")
    ingest.add_argument("--roots", type=int, default=1000,
                        help="synthetic corpus root tweets")
    ingest.add_argument("--seed", type=int, default=42)
    ingest.add_argument("--flush-posts", type=int, default=1024,
                        help="memtable post count that triggers a flush")
    ingest.add_argument("--sync-every", type=int, default=1,
                        help="fsync once per N appends (group commit)")
    ingest.add_argument("--flush", action="store_true",
                        help="force a final flush before exiting")
    ingest.add_argument("--json", action="store_true",
                        help="emit the service status as JSON")
    ingest.set_defaults(func=_cmd_ingest)

    ingest_status = commands.add_parser(
        "ingest-status",
        help="inspect an ingest directory without opening it")
    ingest_status.add_argument("directory")
    ingest_status.add_argument("--json", action="store_true")
    ingest_status.set_defaults(func=_cmd_ingest_status)

    compact = commands.add_parser(
        "compact",
        help="drive background compaction of an ingest directory to "
             "quiescence")
    compact.add_argument("directory", help="ingest directory (opened, "
                                           "recovered if needed)")
    compact.add_argument("--dry-run", action="store_true",
                         help="show the tier shape, debt and next plan "
                              "without merging anything")
    compact.add_argument("--mode", choices=["tiered", "leveled"],
                         default="tiered")
    compact.add_argument("--min-inputs", type=int, default=4,
                         help="tier members that trigger a merge")
    compact.add_argument("--max-inputs", type=int, default=8,
                         help="most generations merged at once")
    compact.add_argument("--max-steps", type=int, default=10_000,
                         help="abort if quiescence takes more steps")
    compact.add_argument("--json", action="store_true")
    compact.set_defaults(func=_cmd_compact)

    serve = commands.add_parser(
        "serve",
        help="stand up the serving stack and drive demo traffic")
    serve.add_argument("--users", type=int, default=200,
                       help="synthetic corpus users")
    serve.add_argument("--roots", type=int, default=1000,
                       help="synthetic corpus root tweets")
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--radius", type=float, default=20.0)
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument("--flush-posts", type=int, default=400)
    serve.add_argument("--workers", type=int, default=4,
                       help="serving worker threads")
    serve.add_argument("--clients", type=int, default=8,
                       help="closed-loop clients (when --rate is 0)")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="open-loop arrival rate in qps "
                            "(0 = closed loop)")
    serve.add_argument("--duration", type=float, default=5.0,
                       help="traffic duration in seconds")
    serve.add_argument("--timeout", type=float, default=5.0,
                       help="per-query deadline in seconds")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admission queue bound")
    serve.add_argument("--delay-budget-ms", type=float, default=500.0,
                       help="estimated queue delay beyond which arrivals "
                            "are shed")
    serve.add_argument("--ingest-rate", type=float, default=50.0,
                       help="background appends per second (0 = none)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the plan-keyed result cache")
    serve.set_defaults(func=_cmd_serve)

    top = commands.add_parser(
        "top",
        help="live terminal dashboard over a mixed ingest+query workload")
    top.add_argument("--users", type=int, default=200,
                     help="synthetic corpus users")
    top.add_argument("--roots", type=int, default=1000,
                     help="synthetic corpus root tweets")
    top.add_argument("--seed", type=int, default=42)
    top.add_argument("--radius", type=float, default=20.0,
                     help="query radius (km)")
    top.add_argument("--k", type=int, default=10)
    top.add_argument("--flush-posts", type=int, default=400,
                     help="memtable post count that triggers a flush")
    top.add_argument("--frames", type=int, default=0,
                     help="render exactly N frames (0 = derive from "
                          "--duration / --interval)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between frames")
    top.add_argument("--duration", type=float, default=10.0,
                     help="total run time when --frames is 0")
    top.add_argument("--recent", type=float, default=30.0,
                     help="trailing window (seconds) for rates/quantiles")
    top.add_argument("--slow-query-ms", type=float, default=250.0,
                     help="slow-query capture threshold")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen")
    top.add_argument("--serve-workers", type=int, default=2,
                     help="serving pool size behind the dashboard's "
                          "query traffic")
    top.set_defaults(func=_cmd_top)

    check = commands.add_parser(
        "check",
        help="run project lint rules and/or deep invariant validation")
    check.add_argument("paths", nargs="*", default=["src", "tests"],
                       help="files or directories to lint "
                            "(default: src tests)")
    check.add_argument("--rules", action="store_true",
                       help="run the static lint rules (default when "
                            "--deep is not given)")
    check.add_argument("--deep", action="store_true",
                       help="build a synthetic index and validate its "
                            "structural invariants")
    check.add_argument("--concurrency", action="store_true",
                       help="run the RL100-family concurrency rules plus "
                            "the runtime lock sanitizer smoke workload")
    check.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of text "
                            "(alias for --format json)")
    check.add_argument("--format", choices=("text", "json", "sarif"),
                       default=None,
                       help="report format; sarif emits a SARIF 2.1.0 "
                            "log for CI annotation upload")
    check.add_argument("--baseline", default="lint-baseline.json",
                       metavar="FILE",
                       help="baseline of forgiven findings "
                            "(default: lint-baseline.json)")
    check.add_argument("--no-baseline", action="store_true",
                       help="ignore the baseline file")
    check.add_argument("--write-baseline", action="store_true",
                       help="rewrite the baseline to forgive all current "
                            "findings")
    check.add_argument("--list-rules", action="store_true",
                       help="list the registered rules and exit")
    check.add_argument("--verbose", action="store_true",
                       help="also show baselined findings")
    check.add_argument("--users", type=int, default=150,
                       help="synthetic corpus users (with --deep)")
    check.add_argument("--roots", type=int, default=700,
                       help="synthetic corpus root tweets (with --deep)")
    check.add_argument("--seed", type=int, default=42)
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "query" and not args.deployment and not args.corpus:
        parser.error("query needs a deployment directory or --corpus")
    if (args.command == "profile" and not args.deployment
            and not args.corpus and not args.synthetic):
        parser.error(
            "profile needs a deployment directory, --corpus or --synthetic")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
