"""The metadata store under concurrent query workers and a writer.

A :class:`~repro.serve.QueryServer` runs queries on worker threads while
the ingest writer appends on another, and both go through one
:class:`~repro.storage.metadata.MetadataDatabase`.  Its buffer pools and
B+-trees take no lock of their own (the pool reorders its LRU frames on
every pin, and an insert shifts leaf bytes that a search bisects in
place), so the database's own lock is all that keeps them consistent.

The pools here hold 4 pages, so nearly every page visit evicts: without
the lock, queries raise from inside the pool (``OrderedDict mutated
during iteration``, ``KeyError``) or read a half-shifted leaf.
"""

import functools
import sys
import threading

import pytest

from repro.core.model import Semantics
from repro.data.generator import generate_corpus
from repro.data.queries import QueryWorkload
from repro.ingest import IngestConfig, IngestService
from repro.query.baseline import BruteForceProcessor
from repro.serve import QueryServer, ServeConfig
from repro.storage.metadata import MetadataDatabase

JOIN_TIMEOUT = 120.0
POOL_PAGES = 4
PRELOADED = 400


def rankings_equivalent(a, b, tolerance=1e-9):
    """Scores match pairwise; uids may differ only inside ties."""
    return len(a) == len(b) and all(
        abs(score_a - score_b) <= tolerance
        for (_uid_a, score_a), (_uid_b, score_b) in zip(a, b))


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(num_users=80, num_root_tweets=600, seed=7)


@pytest.fixture(scope="module")
def queries(corpus):
    workload = QueryWorkload(corpus, seed=3)
    return (workload.make_queries(1, 25.0, k=5, limit=6)
            + workload.make_queries(2, 25.0, k=5, semantics=Semantics.OR,
                                    limit=3))


@pytest.fixture()
def service(tmp_path, monkeypatch):
    monkeypatch.setattr(MetadataDatabase, "in_memory", functools.partial(
        MetadataDatabase.in_memory, pool_size=POOL_PAGES))
    service = IngestService(str(tmp_path / "svc"),
                            ingest_config=IngestConfig(flush_posts=200))
    yield service
    service.close()


def test_queries_race_a_writer_on_tiny_pools(service, corpus, queries):
    posts = corpus.posts
    assert len(posts) > 2 * PRELOADED
    for post in posts[:PRELOADED]:
        service.append(post)
    engine = service.build_query_engine()
    for index in service.database.indexes().values():
        assert index._pool.capacity == POOL_PAGES

    errors = []
    writer_done = threading.Event()

    def writer():
        try:
            for post in posts[PRELOADED:]:
                service.append(post)
        except BaseException as exc:  # pragma: no cover - the failure
            errors.append(exc)
        finally:
            writer_done.set()

    config = ServeConfig(workers=2, cache_enabled=False,
                         default_timeout_seconds=None)
    tickets = []
    thread = threading.Thread(target=writer)
    switch_interval = sys.getswitchinterval()
    # Switch threads ~500x more often than the default, so the workers
    # and the writer interleave inside storage calls.
    sys.setswitchinterval(1e-5)
    with QueryServer(engine, live=service.live, config=config) as server:
        thread.start()
        try:
            # Keep both workers busy for as long as the writer runs.
            while not writer_done.is_set():
                batch = [server.submit(query, method)
                         for query in queries for method in ("max", "sum")]
                for ticket in batch:
                    assert ticket.wait(JOIN_TIMEOUT)
                tickets.extend(batch)
        finally:
            thread.join(JOIN_TIMEOUT)
            sys.setswitchinterval(switch_interval)
        assert not thread.is_alive()
        assert errors == []
        failed = [(ticket.outcome, repr(ticket.error)) for ticket in tickets
                  if ticket.outcome != "ok"]
        assert failed == []
        assert len(tickets) >= 2 * len(queries)

        # Quiesced: every answer equals the brute-force reference over
        # everything the writer appended.
        assert service.database.size == len(posts)
        oracle = BruteForceProcessor(corpus.to_dataset())
        for query in queries:
            assert rankings_equivalent(server.execute(query, "max"),
                                       oracle.search_max(query).users)
            assert rankings_equivalent(server.execute(query, "sum"),
                                       oracle.search_sum(query).users)
