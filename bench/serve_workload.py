"""``serve_mixed``: reads beside writes on one live index.

An ``IngestService`` is preloaded, a ``QueryServer`` with two workers
serves ``build_query_engine()``, and the benchmark runs exactly two
threads of its own: this query scheduler and one open-loop writer
appending at a fixed rate throughout (each append invalidates the
thread-popularity cache and the result cache).

* phase A — closed loop: a window of ``workers`` tickets kept
  outstanding; goodput = good requests / wall.
* phase B — open loop: seeded Poisson arrivals at a reference rate
  well under capacity; latency is timed from each request's *due* time.
  The arrival sequence is replayed and a request's latency is its best.
* phase C (traced runs only) — a ladder of fixed rates, stopping after
  the first step that fails; quantised, so reported and not gated.

A request is good when its outcome is ``ok`` and its latency is within
``spec.LATENCY_LIMIT_S``; shed, timed-out, errored and over-limit
requests are failures.  Layer times come from the ``Ticket``
timestamps, read from outside.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from typing import Any, Iterator, List, NamedTuple, Optional, Sequence

from repro.ingest.service import IngestService
from repro.serve import QueryServer, ServeConfig, ShedError

import inputs
import spec
from common import (Options, Outcome, best_of, peak_rss_mb, settle,
                    split_warmup, tree_bytes, work_dir)
from oracle import Oracle
from stats import median, ms, now, percentile, samples_beyond

#: how long the scheduler waits for a ticket after the last arrival
#: before giving it up as failed (the server's own deadline is 5 s)
DRAIN_S = 10.0


class Request(NamedTuple):
    due: float                 # when it was scheduled to be sent
    sent: float                # when it was actually submitted
    ticket: Optional[Any]      # None when admission refused it

    def latency(self) -> float:
        """From the due time; a failure counts as over the limit."""
        ticket = self.ticket
        if ticket is None or ticket.finished_at is None:
            return DRAIN_S
        elapsed = ticket.finished_at - self.due
        return elapsed if ticket.outcome == "ok" else max(spec.LATENCY_LIMIT_S, elapsed)

    def good(self) -> bool:
        ticket = self.ticket
        return (ticket is not None and ticket.outcome == "ok"
                and ticket.finished_at - self.due <= spec.LATENCY_LIMIT_S)


class Writer(threading.Thread):
    """Open-loop appender: post ``i`` is due ``i / rate`` seconds in."""

    def __init__(self, service: IngestService, posts: Sequence[Any],
                 rate: float) -> None:
        super().__init__(name="bench-writer")
        self.service = service
        self.posts = posts
        self.rate = rate
        self.acked: List[Any] = []
        self.latencies: List[float] = []
        self.late: List[float] = []
        self.error: Optional[BaseException] = None
        self._halt = threading.Event()

    def run(self) -> None:
        start = now()
        for index, post in enumerate(self.posts):
            delay = start + index / self.rate - now()
            if self._halt.wait(max(0.0, delay)):
                return
            begin = now()
            try:
                self.service.append(post)
            except Exception as error:  # noqa: BLE001 - reported by halt()
                self.error = error
                return
            self.latencies.append(now() - begin)
            self.late.append(begin - (start + index / self.rate))
            self.acked.append(post)

    def halt(self) -> None:
        self._halt.set()
        self.join(timeout=30.0)
        if self.is_alive():
            raise RuntimeError("the writer thread did not stop")
        if self.error is not None:
            raise RuntimeError("an append failed beside the queries") from self.error


def submit(server: QueryServer, op: inputs.Op, due: float) -> Request:
    sent = now()
    try:
        return Request(due, sent, server.submit(op[0], op[1]))
    except ShedError:
        return Request(due, sent, None)


def closed_loop(server: QueryServer, ops: Sequence[inputs.Op],
                window: int) -> List[Request]:
    """Keep ``window`` tickets outstanding until ``ops`` are spent."""
    requests: List[Request] = []
    pending: deque = deque()
    for op in ops:
        if len(pending) >= window:
            pending.popleft().wait(DRAIN_S)
        request = submit(server, op, now())
        if request.ticket is not None:
            pending.append(request.ticket)
        requests.append(request)
    for ticket in pending:
        ticket.wait(DRAIN_S)
    return requests


def open_loop(server: QueryServer, ops: Iterator[inputs.Op],
              offsets: Sequence[float]) -> List[Request]:
    """Submit one op at each due time, whatever has completed."""
    requests: List[Request] = []
    start = now()
    for offset in offsets:
        due = start + offset
        delay = due - now()
        if delay > 0:
            time.sleep(delay)
        requests.append(submit(server, next(ops), due))
    deadline = now() + DRAIN_S
    for request in requests:
        if request.ticket is not None:
            request.ticket.wait(max(0.0, deadline - now()))
    return requests


def run(options: Options) -> Outcome:
    outcome = Outcome()
    with work_dir("serve_mixed") as directory:
        measure(spec.SIZES["serve_mixed"], options, directory, outcome)
    return outcome


def measure(sizes: spec.ServeSizes, options: Options, directory: str,
            outcome: Outcome) -> None:
    preload_count = max(10, round(sizes.preload_posts * options.scale))
    generate_s, preload_s, build_s = [], [], []
    service = server = None
    for rep in range(spec.SETUP_REPS):
        if server is not None:
            server.stop()
            service.close()
        start = now()
        corpus = inputs.corpus(sizes.users, sizes.roots, options.scale)
        generated = now()
        service = IngestService(f"{directory}/live-{rep}")
        for post in corpus.posts[:preload_count]:
            service.append(post)
        preloaded = now()
        engine = service.build_query_engine()
        server = QueryServer(engine, config=ServeConfig(workers=sizes.workers),
                             clock=now).start()
        generate_s.append(generated - start)
        preload_s.append(preloaded - generated)
        build_s.append(now() - preloaded)
    live = f"{directory}/live-{spec.SETUP_REPS - 1}"
    pool = inputs.QuerySampler(corpus, options.seed).mixed(sizes.pool_queries)
    outcome.fingerprint = inputs.fingerprint(corpus.posts, pool)
    ops = itertools.cycle(pool)
    closed_ops = list(itertools.islice(ops, options.count(sizes.closed_ops)))
    open_ops = list(itertools.islice(ops, options.count(sizes.open_arrivals)))
    # One fixed Poisson realisation: with a few hundred arrivals, how
    # bursty a draw happens to be moves the median by 10 %, so the
    # arrival pattern is part of the workload and --seed draws the queries.
    rng = random.Random(inputs.CORPUS_SEED)
    offsets = list(itertools.accumulate(
        rng.expovariate(sizes.open_rate_qps) for _ in open_ops))
    settle()

    writer = Writer(service, corpus.posts[preload_count:], sizes.writer_rate)
    writer.start()
    try:
        warm, timed = split_warmup(closed_ops)
        closed_loop(server, warm, sizes.window)
        started = now()
        closed = closed_loop(server, timed, sizes.window)
        closed_wall = now() - started
        # The same arrivals, replayed: a request's latency is its best.
        rounds = [open_loop(server, iter(open_ops), offsets)
                  for _round in range(sizes.open_rounds)]
        rss = peak_rss_mb()
        served = server.stats()
        # Before the ladder lengthens the run: what is on disk for the
        # posts acknowledged so far (the writer is a post or so ahead).
        disk_per_post = tree_bytes(live) / (preload_count + len(writer.acked))
        ladder_ok, ladder_steps = 0.0, 0
        if options.trace:
            ladder_ok, ladder_steps = ladder(server, ops, sizes, options)
    finally:
        writer.halt()

    acked = corpus.posts[:preload_count] + writer.acked
    oracle = Oracle(acked)
    mismatches = []
    if len(service.database) != len(acked):
        mismatches.append(f"{len(service.database)} posts in the database, "
                          f"{len(acked)} were acknowledged")
    for index, (query, method) in enumerate(
            itertools.islice(ops, sizes.verify_queries)):
        problem = oracle.mismatch(query, method, server.execute(query, method))
        if problem:
            mismatches.append(f"served query {index} ({method}): {problem}")
    server.stop()
    service.close()

    opened = [request for requests in rounds for request in requests]
    measured = closed + opened
    bad = [request for request in measured if not request.good()]
    latencies = best_of([[request.latency() for request in requests]
                         for requests in rounds])
    done = [request.ticket for request in opened
            if request.ticket is not None and request.ticket.outcome == "ok"]
    queue_wait = [ticket.started_at - ticket.enqueued_at for ticket in done]
    service_time = [ticket.finished_at - ticket.started_at for ticket in done]

    def share(predicate) -> float:
        return sum(1 for request in measured if predicate(request)) / len(measured)

    outcome.attempted = len(measured)
    outcome.mismatches = len(mismatches)
    outcome.failed = len(bad) + len(mismatches)
    outcome.warnings.extend(mismatches[:5])
    outcome.samples = {"op_p50_ms": len(latencies), "op_p95_ms": len(latencies),
                       "beyond_p95": samples_beyond(len(latencies), 0.95),
                       "open_rounds": sizes.open_rounds,
                       "ops_per_s": len(closed), "setup_s": spec.SETUP_REPS}
    outcome.sizes = {"posts": len(corpus.posts), "preloaded": preload_count,
                     "appended": len(writer.acked), "workers": sizes.workers,
                     "pool_queries": len(pool), "closed_ops": len(closed),
                     "open_arrivals": len(open_ops),
                     "open_rate_qps": sizes.open_rate_qps}
    outcome.end_to_end = {
        "setup_s": median([g + p + b for g, p, b in
                           zip(generate_s, preload_s, build_s)]),
        "peak_rss_mb": rss,
        "op_p50_ms": ms(percentile(latencies, 0.50)),
        "op_p95_ms": ms(percentile(latencies, 0.95)),
        "ops_per_s": sum(1 for request in closed if request.good()) / closed_wall,
        "bytes_per_post": disk_per_post,
    }
    cache = served["cache"]
    outcome.per_layer = {
        "serve.queue_wait.p50_ms": ms(percentile(queue_wait, 0.50)),
        "serve.queue_wait.p95_ms": ms(percentile(queue_wait, 0.95)),
        "serve.service.p50_ms": ms(percentile(service_time, 0.50)),
        "serve.service.p95_ms": ms(percentile(service_time, 0.95)),
        "serve.cache.hit_rate": cache["hit_rate"],
        "serve.cache.invalidated": cache["invalidated"],
        "serve.shed_share": share(lambda r: r.ticket is None),
        "serve.timeout_share": share(
            lambda r: r.ticket is not None and r.ticket.outcome != "ok"),
        "serve.over_limit_share": share(
            lambda r: r.ticket is not None and r.ticket.outcome == "ok"
            and not r.good()),
        "serve.worker_utilization": served["worker_utilization"],
        "serve.generator.late_p95_ms": ms(percentile(
            [request.sent - request.due for request in opened], 0.95)),
        "serve.writer.appends": len(writer.acked),
        "serve.writer.append_p99_ms": ms(percentile(writer.latencies, 0.99)),
        "serve.writer.late_p95_ms": ms(percentile(writer.late, 0.95)),
        "serve.max_rate_ok_qps": ladder_ok,
        "serve.ladder.steps_run": ladder_steps,
        "setup.generate_s": median(generate_s),
        "setup.preload_s": median(preload_s),
        "setup.build_s": median(build_s),
        "verify.checked": sizes.verify_queries + 1,
        "verify.mismatches": len(mismatches),
    }
    if options.trace:
        outcome.spans = ticket_spans(rounds[-1])


def ladder(server: QueryServer, ops: Iterator[inputs.Op],
           sizes: spec.ServeSizes, options: Options) -> "tuple[float, int]":
    """Highest fixed rate that keeps 95 % of requests good with every
    ticket done within a second of the last arrival."""
    best, steps = 0.0, 0
    step_s = sizes.ladder_step_s * min(1.0, options.scale)
    for rate in sizes.ladder_qps:
        steps += 1
        count = max(5, round(rate * step_s))
        requests = open_loop(server, ops, [i / rate for i in range(count)])
        good = sum(1 for request in requests if request.good())
        last_due = requests[-1].due
        backlog = any(request.ticket is not None
                      and (request.ticket.finished_at is None
                           or request.ticket.finished_at > last_due + 1.0)
                      for request in requests)
        if good < 0.95 * count or backlog:
            break
        best = rate
    return best, steps


def ticket_spans(requests: Sequence[Request]) -> List[Any]:
    """One tree per open-loop request, from its due time to its end."""
    result: List[Any] = []
    for index, request in enumerate(requests):
        ticket = request.ticket
        if ticket is None or ticket.finished_at is None:
            continue
        root = len(result)
        result.append(["serve.request", request.due, ticket.finished_at, -1, index])
        result.append(["serve.generator.late", request.due, ticket.enqueued_at,
                       root, index])
        started = ticket.started_at if ticket.started_at is not None \
            else ticket.finished_at
        result.append(["serve.queue_wait", ticket.enqueued_at, started, root, index])
        result.append(["serve.service", started, ticket.finished_at, root, index])
    return result
