"""Pipeline acceptance tests.

Property-style parity: every plan shape (indexed, full scan,
scatter-gather) must return results identical to an *independent*
first-principles scorer (written inline here, deliberately not the
repo's refactored oracle) across random corpora x {sum, max} x
{AND, OR} x {pruning on/off} x boundary-radius and time-window queries
— including tie order — and the two columnar backends must agree bit
for bit.  Plus unit coverage of the planner, plan rendering, and the
PostingsSource protocol seam.
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import replace
from pathlib import Path

import pytest

from repro import columnar
from repro.core.model import Semantics
from repro.core.scoring import ScoringConfig, user_distance_score, user_score
from repro.core.temporal import TemporalSpec, TimeWindow
from repro.core.thread import DatasetThreadBuilder
from repro.data.generator import generate_corpus
from repro.data.queries import QueryWorkload
from repro.geo.distance import DEFAULT_METRIC
from repro.index.generations import GenerationalIndex
from repro.index.hybrid import HybridIndex
from repro.query.baseline import BruteForceProcessor
from repro.query.distributed import DistributedExecutor
from repro.query.engine import TkLUSEngine
from repro.query.pipeline import (
    PartitionedPostingsSource,
    PhysicalPlan,
    Planner,
    PlanSpec,
    PostingsSource,
    QueryContext,
    run_plan,
)
from repro.query.profiling import ProfileRecorder

SEEDS = (7, 4242)
BACKENDS = ["python"] + (["numpy"] if columnar.have_numpy() else [])


# -- an independent reference scorer (first principles, no repro.query) ------

def reference_ranking(dataset, threads, query, aggregate,
                      config=None, metric=DEFAULT_METRIC):
    """Definition 6/7/8/9/10 computed directly over the dataset."""
    config = config or ScoringConfig()
    parts = {}
    window = query.temporal.window
    for post in dataset.posts.values():
        if not window.contains(post.sid):
            continue
        bag = {}
        for word in post.words:
            bag[word] = bag.get(word, 0) + 1
        present = [kw for kw in query.keywords if bag.get(kw)]
        if not present:
            continue
        if query.semantics is Semantics.AND and len(present) != len(query.keywords):
            continue
        if metric(query.location, post.location) > query.radius_km:
            continue
        match_count = sum(bag[kw] for kw in present)
        relevance = (match_count / config.keyword_normalizer
                     ) * threads.popularity(post.sid)
        if aggregate == "sum":
            parts[post.uid] = parts.get(post.uid, 0.0) + relevance
        else:
            parts[post.uid] = max(parts.get(post.uid, 0.0), relevance)
    scored = []
    for uid, keyword_part in parts.items():
        locations = [p.location for p in dataset.posts_of(uid)]
        distance_part = user_distance_score(locations, query.location,
                                            query.radius_km, metric)
        scored.append((uid, user_score(keyword_part, distance_part, config)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:query.k]


def assert_rankings_match(actual, expected, context=""):
    """Pairwise score equality (tolerance for float-summation order) and
    exact uid agreement — tie groups are broken by ascending uid on both
    sides, so uid sequences must match outright."""
    assert len(actual) == len(expected), context
    for position, ((uid_a, score_a), (uid_e, score_e)) in enumerate(
            zip(actual, expected)):
        assert abs(score_a - score_e) <= 1e-9, \
            f"{context}: score diverged at rank {position}"
        if uid_a != uid_e:
            # Only acceptable inside an exact tie straddling the ranks.
            assert abs(score_a - score_e) <= 1e-9
            tied_actual = sorted(uid for uid, s in actual
                                 if abs(s - score_a) <= 1e-9)
            tied_expected = sorted(uid for uid, s in expected
                                   if abs(s - score_e) <= 1e-9)
            assert tied_actual == tied_expected, \
                f"{context}: tie group differs at rank {position}"


# -- fixtures: small random corpora ------------------------------------------

@pytest.fixture(scope="module", params=SEEDS)
def random_setup(request):
    corpus = generate_corpus(num_users=150, num_root_tweets=700,
                             seed=request.param)
    dataset = corpus.to_dataset()
    engine = TkLUSEngine.from_posts(corpus.posts)
    threads = DatasetThreadBuilder(dataset, depth=6,
                                   epsilon=ScoringConfig().epsilon)
    workload = QueryWorkload(corpus, seed=request.param)
    return engine, dataset, threads, workload


def sample_queries(workload, semantics, radius=20.0, k=5, limit=3):
    queries = []
    for num_keywords in (1, 2):
        for spec in workload.specs(num_keywords)[:limit]:
            queries.append(workload.bind(spec, radius_km=radius, k=k,
                                         semantics=semantics))
    return queries


def parity_queries(engine, workload):
    """1- and 2-keyword OR queries at r=15 km, AND at r=40 km, and one
    query clipped to the window ``[max_sid // 4, max_sid]``."""
    queries = []
    for num_keywords in (1, 2):
        for spec in workload.specs(num_keywords)[:4]:
            queries.append(workload.bind(spec, radius_km=15.0, k=5))
            queries.append(workload.bind(spec, radius_km=40.0, k=10,
                                         semantics=Semantics.AND))
    max_sid = engine.database.max_sid
    windowed = workload.bind(workload.specs(1)[0], radius_km=25.0, k=10)
    queries.append(replace(
        windowed,
        temporal=TemporalSpec(window=TimeWindow(max_sid // 4, max_sid))))
    return queries


def fingerprint(result):
    """Everything that must agree, with scores taken bitwise."""
    stats = result.stats
    profile = result.profile
    return {
        "users": [(uid, score.hex()) for uid, score in result.users],
        "candidates": stats.candidates,
        "candidates_in_radius": stats.candidates_in_radius,
        "threads_built": stats.threads_built,
        "threads_pruned": stats.threads_pruned,
        "distance_checks_skipped": stats.distance_checks_skipped,
        "ledger": None if profile is None else (
            profile.candidates_examined, profile.candidate_users,
            profile.users_scored, profile.users_pruned_global,
            profile.users_pruned_hot, profile.bound_source),
    }


# -- the parity matrix --------------------------------------------------------

class TestPipelineParity:
    @pytest.mark.parametrize("method", ["sum", "max"])
    @pytest.mark.parametrize("semantics", [Semantics.AND, Semantics.OR])
    def test_matches_independent_reference(self, random_setup, method,
                                           semantics):
        engine, dataset, threads, workload = random_setup
        for query in sample_queries(workload, semantics):
            result = engine.search(query, method=method)
            expected = reference_ranking(dataset, threads, query, method)
            assert_rankings_match(
                result.users, expected,
                f"{method}/{semantics.value}/{sorted(query.keywords)}")

    @pytest.mark.parametrize("semantics", [Semantics.AND, Semantics.OR])
    def test_pruning_ablation_is_exact(self, random_setup, semantics):
        engine, _dataset, _threads, workload = random_setup
        pruned = engine.processor("max", use_pruning=True)
        unpruned = engine.processor("max", use_pruning=False)
        for query in sample_queries(workload, semantics):
            engine.threads.clear_cache()
            with_pruning = pruned.search(query)
            engine.threads.clear_cache()
            without = unpruned.search(query)
            # Identical float operations on the surviving candidates:
            # exact equality, not just tolerance.
            assert with_pruning.users == without.users

    def test_cell_containment_shortcut_is_exact(self, random_setup):
        from repro.query.sum_ranking import SumScoreProcessor
        engine, _dataset, _threads, workload = random_setup
        with_shortcut = engine.processor("sum")
        without = SumScoreProcessor(engine.index, engine.database,
                                    engine.threads,
                                    engine.config.scoring, engine.metric,
                                    use_cell_containment=False)
        for query in sample_queries(workload, Semantics.OR):
            assert (with_shortcut.search(query).users
                    == without.search(query).users)

    @pytest.mark.parametrize("method", ["sum", "max"])
    def test_boundary_radius(self, random_setup, method):
        # Radius exactly equal to a post's distance: the post is *inside*
        # (the filter is strict >), and the pipeline must agree with the
        # reference on that boundary.
        engine, dataset, threads, workload = random_setup
        centre = workload.sample_location()
        posts = sorted(dataset.posts.values(), key=lambda p: p.sid)[:10]
        for post in posts:
            radius = DEFAULT_METRIC(centre, post.location)
            if radius == 0.0 or radius > 80.0:
                continue
            query = engine.make_query(centre, radius, list(post.words)[:1],
                                      k=5)
            if not query.keywords:
                continue
            result = engine.search(query, method=method)
            expected = reference_ranking(dataset, threads, query, method)
            assert_rankings_match(result.users, expected,
                                  f"boundary r={radius}")

    @pytest.mark.parametrize("method", ["sum", "max"])
    def test_parity_queries_match_reference(self, random_setup, method):
        engine, dataset, threads, workload = random_setup
        for query in parity_queries(engine, workload):
            result = engine.search(query, method=method)
            expected = reference_ranking(dataset, threads, query, method)
            assert_rankings_match(result.users, expected, repr(query))

    @pytest.mark.parametrize("method", ["sum", "max"])
    def test_backends_agree(self, random_setup, method):
        if len(BACKENDS) < 2:
            pytest.skip("only one columnar backend available")
        engine, _dataset, _threads, workload = random_setup
        processor = engine.processor(method)
        for query in parity_queries(engine, workload):
            # Warm the shared thread cache so ``threads_built`` reflects
            # the same cache state under both backends.
            processor.search(query)
            prints = {}
            for backend in BACKENDS:
                with columnar.force_backend(backend):
                    prints[backend] = fingerprint(processor.search(query))
            assert prints["python"] == prints["numpy"], query

    @pytest.mark.parametrize("method", ["sum", "max"])
    def test_scan_plan_matches_reference(self, random_setup, method):
        engine, dataset, threads, workload = random_setup
        scan = BruteForceProcessor(dataset)
        search = scan.search_sum if method == "sum" else scan.search_max
        for query in parity_queries(engine, workload):
            expected = reference_ranking(dataset, threads, query, method)
            assert_rankings_match(search(query).users, expected,
                                  f"scan/{method}")

    @pytest.mark.parametrize("method", ["sum", "max"])
    def test_distributed_plan_matches_reference(self, random_setup, method):
        engine, dataset, threads, workload = random_setup
        distributed = DistributedExecutor(engine.index, engine.database,
                                          engine.threads,
                                          engine.config.scoring, engine.metric)
        for query in parity_queries(engine, workload):
            expected = reference_ranking(dataset, threads, query, method)
            assert_rankings_match(distributed.search(query, method).users,
                                  expected, f"distributed/{method}")


# -- the PostingsSource seam --------------------------------------------------

class _DelegatingSource:
    """A black-box PostingsSource wrapper: proves the fetch operator
    depends only on the protocol, not on HybridIndex."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def geohash_length(self):
        return self._inner.geohash_length

    def cover(self, location, radius_km, metric=DEFAULT_METRIC):
        return self._inner.cover(location, radius_km, metric)

    def postings_for_query(self, cells, terms):
        return self._inner.postings_for_query(cells, terms)

    def postings_fetch_count(self):
        return self._inner.postings_fetch_count()


class TestPostingsSourceProtocol:
    def test_hybrid_index_satisfies_protocols(self, random_setup):
        engine, *_ = random_setup
        assert isinstance(engine.index, PostingsSource)
        assert isinstance(engine.index, PartitionedPostingsSource)

    def test_generational_index_satisfies_source(self):
        assert issubclass(GenerationalIndex, object)
        for name in ("cover", "postings_for_query", "postings_fetch_count",
                     "geohash_length"):
            assert hasattr(GenerationalIndex, name)

    def test_foreign_source_is_interchangeable(self, random_setup):
        engine, _dataset, _threads, workload = random_setup
        planner = Planner()
        query = sample_queries(workload, Semantics.OR, limit=1)[0]
        wrapped = _DelegatingSource(engine.index)
        assert isinstance(wrapped, PostingsSource)
        recorder = ProfileRecorder(engine.database, engine.index, query,
                                   "sum")
        ctx = QueryContext.for_database(
            query, config=engine.config.scoring, metric=engine.metric,
            source=wrapped, database=engine.database, threads=engine.threads,
            profile=recorder.profile)
        result = run_plan(planner.plan_for_query("sum", query), ctx,
                          method="sum", recorder=recorder)
        assert result.users == engine.search_sum(query).users


# -- planner and plan rendering -----------------------------------------------

class TestPlanner:
    def test_plans_are_memoised(self):
        planner = Planner()
        first = planner.plan("max", Semantics.OR)
        second = planner.plan("max", Semantics.OR)
        assert first is second
        assert planner.plan("max", Semantics.AND) is not first

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PlanSpec(method="median")
        with pytest.raises(ValueError):
            PlanSpec(distributed=True, scan=True)

    def test_indexed_shapes(self):
        planner = Planner()
        assert planner.plan("sum", Semantics.OR).operator_names() == [
            "Cover", "PostingsFetch", "CandidateForm", "FusedRadiusScore",
            "Rank", "TopK"]
        assert planner.plan("max", Semantics.OR).operator_names() == [
            "Cover", "PostingsFetch", "CandidateForm", "BoundsPrune",
            "FusedRadiusScore", "Rank", "TopK"]
        assert "BoundsPrune" not in planner.plan(
            "max", Semantics.OR, pruning=False).operator_names()
        assert "TemporalClip" in planner.plan(
            "sum", Semantics.OR, temporal=True).operator_names()

    def test_scan_and_distributed_shapes(self):
        planner = Planner()
        scan = planner.plan("sum", Semantics.OR, scan=True)
        assert scan.operator_names() == [
            "DatasetScan", "FusedRadiusScore", "Rank", "TopK"]
        distributed = planner.plan("sum", Semantics.OR, distributed=True)
        assert distributed.operator_names() == [
            "Cover", "PartitionRoute", "ScatterGather", "Rank", "TopK"]
        server_plan = distributed.operators[2].children()[0]
        assert server_plan.operator_names() == [
            "PostingsFetch", "CandidateForm", "FusedRadiusScore"]

    def test_plan_for_query_reads_query_shape(self, random_setup):
        engine, _dataset, _threads, workload = random_setup
        planner = Planner()
        query = sample_queries(workload, Semantics.AND, limit=1)[0]
        plan = planner.plan_for_query("max", query)
        assert plan.spec is not None
        assert plan.spec.semantics is Semantics.AND
        assert not plan.spec.temporal

    def test_describe_mentions_operators_and_paper_lines(self):
        planner = Planner()
        text = planner.explain("max", Semantics.AND, temporal=True)
        assert "plan[" in text
        for token in ("Cover", "PostingsFetch", "TemporalClip",
                      "CandidateForm", "BoundsPrune", "FusedRadiusScore",
                      "Rank", "TopK", "Alg 4/5 line 1", "fused line 16",
                      "Def 11"):
            assert token in text

    def test_operator_names_map_to_bench_stages(self):
        # bench/query_workload.py attributes traced time by operator
        # name; an unmapped name would land in its "other" stage.
        path = Path(__file__).resolve().parents[1] / "bench" / "query_workload.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stage_of = next(
            ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "STAGE_OF"
                    for target in node.targets))
        # The flavour-specific stages of the scan and scatter-gather
        # plans, which the benchmark's query workloads never run.
        flavour_only = {"DatasetScan", "PartitionRoute", "ScatterGather"}
        planner = Planner()
        for method, semantics, pruning, temporal in itertools.product(
                ("sum", "max"), Semantics, (True, False), (True, False)):
            indexed = planner.plan(method, semantics, pruning=pruning,
                                   temporal=temporal)
            assert set(indexed.operator_names()) <= set(stage_of), indexed.label
            for flavour in ({"scan": True}, {"distributed": True}):
                plan = planner.plan(method, semantics, temporal=temporal,
                                    **flavour)
                names = set(plan.operator_names())
                for operator in plan.operators:
                    for child in operator.children():
                        names |= set(child.operator_names())
                assert names <= set(stage_of) | flavour_only, plan.label

    def test_operators_declare_writes(self):
        # RL005: every operator declares what it writes into the context.
        planner = Planner()
        for flavour in ({}, {"scan": True}, {"distributed": True}):
            plan = planner.plan("max", Semantics.OR, temporal=True, **flavour)
            for operator in plan.operators:
                assert operator.writes, operator.name

    def test_distributed_describe_nests_server_plan(self):
        planner = Planner()
        text = planner.explain("sum", Semantics.OR, distributed=True)
        assert "ScatterGather" in text
        assert "plan[server," in text

    def test_plan_iteration(self):
        plan = Planner().plan("sum", Semantics.OR)
        assert isinstance(plan, PhysicalPlan)
        assert len(plan) == len(list(plan))


class TestEngineExplain:
    def test_engine_explain_plan(self, random_setup):
        engine, _dataset, _threads, workload = random_setup
        query = sample_queries(workload, Semantics.OR, limit=1)[0]
        text = engine.explain_plan(query, method="max")
        assert "BoundsPrune" in text
        ablation = engine.explain_plan(query, method="max",
                                       use_pruning=False)
        assert "BoundsPrune" not in ablation


class TestSharedConfigDefaults:
    def test_processor_configs_are_per_instance(self, random_setup):
        # Regression: the processors used to share one module-level
        # ScoringConfig default instance across every construction.
        from repro.query.baseline import BruteForceProcessor
        from repro.query.max_ranking import MaxScoreProcessor
        from repro.query.sum_ranking import SumScoreProcessor
        engine, dataset, *_ = random_setup
        a = SumScoreProcessor(engine.index, engine.database, engine.threads)
        b = SumScoreProcessor(engine.index, engine.database, engine.threads)
        assert a.config is not b.config
        c = MaxScoreProcessor(engine.index, engine.database, engine.threads,
                              engine.bounds)
        assert c.config is not a.config
        d = BruteForceProcessor(dataset)
        e = BruteForceProcessor(dataset)
        assert d.config is not e.config
        own = ScoringConfig(alpha=0.9)
        assert SumScoreProcessor(engine.index, engine.database,
                                 engine.threads, own).config is own
