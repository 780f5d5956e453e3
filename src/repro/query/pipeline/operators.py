"""Physical operators for TkLUS query plans.

Each operator implements one stage of the paper's Algorithms 4/5 (the
line references below follow the paper's numbering) plus the extensions
this reproduction has accumulated (temporal clipping, cell containment,
scatter-gather).  Operators are **stateless between queries**: every
per-query value lives in the :class:`~.context.QueryContext`, so one
operator instance — and therefore one cached plan — serves any number of
concurrent queries.

The pipeline shape shared by every execution path::

    Cover -> PostingsFetch -> [TemporalClip] -> CandidateForm
          -> [BoundsPrune] -> FusedRadiusScore -> Rank -> TopK

with ``DatasetScan`` replacing the retrieval stages for the index-free
brute-force plan and ``PartitionRoute``/``ScatterGather`` wrapping the
middle stages for distributed execution.

The stages compute over whole candidate batches — postings columns from
:meth:`BlockPostingsReader.column_view`, one metadata gather per batch
(``resolve_batch``), one vectorized haversine pass
(:func:`repro.geo.distance.haversine_km_batch`) — through
:mod:`repro.columnar`, which runs on numpy when it is importable and on
stdlib arrays otherwise.  Both backends give bitwise-identical answers:

* the batch haversine performs the scalar ``haversine_km``'s IEEE
  operations in the same order (the final ``asin`` stays scalar);
* reductions (Definition 9's average) run in the scalar left-to-right
  association order;
* the partial top-k select keeps all boundary ties before the exact
  ``(-score, uid)`` finalize.

When a context lacks the batch backends (``resolve_batch`` /
``user_location_columns`` — the dataset-backed brute-force plan, test
doubles) the operators fall back to the per-element callables, which is
the same arithmetic.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ... import columnar, obs
from ...core.scoring import user_distance_score, user_score
from ...geo.cover import classify_cells
from ...geo.distance import haversine_km, haversine_km_batch
from ..bounds import postings_match_bound
from ..results import ScatterStats
from ..semantics import Candidate, candidates_from_postings
from ..topk import TopKUserQueue
from .context import InRadiusCandidate, QueryContext


def batch_distances(ctx: QueryContext, lats: List[float],
                    lons: List[float]) -> List[float]:
    """Distances from the query point to every ``(lat, lon)`` pair.

    Haversine queries go through the vectorized kernel; any other metric
    falls back to the per-query closure element-wise.  Either way each
    value is bitwise-identical to ``ctx.metric(query.location, point)``.
    """
    if ctx.metric is haversine_km:
        column = haversine_km_batch(ctx.query.location, lats, lons)
        return columnar.column_tolist(column)
    distance_to = ctx.distance_to
    assert distance_to is not None
    return [distance_to((lat, lon)) for lat, lon in zip(lats, lons)]


def batched_user_distance_part(ctx: QueryContext, uid: int) -> float:
    """Definition 9's ``delta(u, q)`` via the columnar kernel.

    One coordinate-column gather per user, one vectorized distance pass,
    one vectorized per-post score select — then the scalar left-to-right
    sum, so the result is bitwise-equal to
    ``user_distance_score(user_locations(uid), ...)``.
    """
    columns = ctx.user_location_columns
    if columns is None or ctx.metric is not haversine_km:
        user_locations = ctx.user_locations
        assert user_locations is not None
        return user_distance_score(user_locations(uid), ctx.query.location,
                                   ctx.query.radius_km, ctx.metric)
    lats, lons = columns(uid)
    if not lats:
        return 0.0
    radius_km = ctx.query.radius_km
    distances = haversine_km_batch(ctx.query.location, lats, lons)
    np = columnar.numpy_module()
    if np is not None and isinstance(distances, np.ndarray):
        # (radius - d) / radius is evaluated on every lane; the mask
        # discards the out-of-radius lanes, whose values are finite
        # (radius > 0) and never observed — kept lanes are bitwise-equal
        # to the scalar distance_score.
        scores = np.where(distances > radius_km, 0.0,
                          (radius_km - distances) / radius_km)
        total = sum(scores.tolist())
    else:
        total = sum(0.0 if distance > radius_km
                    else (radius_km - distance) / radius_km
                    for distance in columnar.column_tolist(distances))
    return total / len(lats)


class PhysicalOperator:
    """Base class: a named, explainable pipeline stage."""

    #: stable operator name used in plan renderings
    name: str = "Op"
    #: which lines of the paper's Algorithms 4/5 this stage implements
    paper_lines: str = ""
    #: the :class:`QueryContext` fields this stage mutates.  Every
    #: concrete operator must declare its own (lint rule RL005): the
    #: planner composes stages on the assumption that context effects
    #: are exactly the declared ones.
    writes: Tuple[str, ...] = ()

    def run(self, ctx: QueryContext) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line summary of the configured behaviour."""
        return self.name

    def children(self) -> Sequence[object]:
        """Nested sub-plans (scatter-gather workers, platform fan-out)."""
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()!r}>"


class CoverOp(PhysicalOperator):
    """Line 1: the circle cover at the source's geohash length."""

    name = "Cover"
    paper_lines = "Alg 4/5 line 1"
    writes = ("cells",)

    def run(self, ctx: QueryContext) -> None:
        query = ctx.query
        assert ctx.source is not None, "CoverOp needs a postings source"
        with obs.trace("query.cover") as span:
            cells = ctx.source.cover(query.location, query.radius_km,
                                     ctx.metric)
            span.set(cells=len(cells))
        ctx.cells = cells
        ctx.stats.cells_covered = len(cells)

    def describe(self) -> str:
        return "Cover(GeoHashCircleQuery at index geohash length)"


class PostingsFetchOp(PhysicalOperator):
    """Lines 4-7: fetch postings per ``(cell, term)`` via PostingsSource."""

    name = "PostingsFetch"
    paper_lines = "Alg 4/5 lines 4-7"
    writes = ("per_cell",)

    def __init__(self, track_fetches: bool = True) -> None:
        # Fetch accounting reads a source-wide counter, which is only
        # meaningful single-threaded; scatter-gather workers disable it.
        self.track_fetches = track_fetches

    def run(self, ctx: QueryContext) -> None:
        source = ctx.source
        assert source is not None, "PostingsFetchOp needs a postings source"
        before = source.postings_fetch_count() if self.track_fetches else 0
        ctx.per_cell = source.postings_for_query(ctx.cells, ctx.terms)
        if self.track_fetches:
            ctx.stats.postings_lists_fetched = (
                source.postings_fetch_count() - before)

    def describe(self) -> str:
        return "PostingsFetch(source=PostingsSource, group by cell, term)"


class TemporalClipOp(PhysicalOperator):
    """Temporal TkLUS: clip postings to the window, resolve the recency
    reference.  Tweet ids are timestamps, so block views narrow through
    their skip table and plain lists are clipped with binary searches on
    the tid column; cells or terms left empty are dropped."""

    name = "TemporalClip"
    paper_lines = "Section VIII (temporal extension)"
    writes = ("per_cell", "recency_reference")

    def run(self, ctx: QueryContext) -> None:
        temporal = ctx.query.temporal
        window = temporal.window
        if ctx.per_cell is not None and not window.unbounded:
            clipped: Dict[str, Dict[str, object]] = {}
            for cell, per_term in ctx.per_cell.items():
                kept = {}
                for term, postings in per_term.items():
                    inside = self._clip(postings, window.start, window.end)
                    if inside:
                        kept[term] = inside
                if kept:
                    clipped[cell] = kept
            ctx.per_cell = clipped  # type: ignore[assignment]
        recency = temporal.recency
        if recency is not None:
            ctx.recency_reference = recency.resolve_reference(ctx.max_sid())

    @staticmethod
    def _clip(postings, start: Optional[int], end: Optional[int]):
        clip = getattr(postings, "clip", None)
        if clip is not None:
            return clip(start, end)
        if not postings:
            return list(postings)
        tids = columnar.int_column([tid for tid, _tf in postings])
        lo, hi = columnar.sorted_range(tids, start, end)
        return list(postings[lo:hi])

    def describe(self) -> str:
        return "TemporalClip(window clip + recency reference)"


class CandidateFormOp(PhysicalOperator):
    """Lines 8-14: AND intersection / OR union into the candidate list.

    Single-term queries never need a merge: per cell, every posting of
    the term *is* a candidate (AND and OR differ only in the
    matched-term count when ``tf == 0``, which indexed postings never
    store but the contract is preserved anyway).  Block views hand over
    their decoded tid/tf columns in one call (:meth:`column_view`),
    skipping per-element varint cursor hops.  Multi-term queries use the
    galloping k-way merge of :func:`candidates_from_postings`.
    """

    name = "CandidateForm"
    paper_lines = "Alg 4/5 lines 8-14"
    writes = ("candidates",)

    def __init__(self, semantics=None) -> None:
        # None = take the semantics from the query at run time.
        self.semantics = semantics

    def run(self, ctx: QueryContext) -> None:
        assert ctx.per_cell is not None, "CandidateFormOp needs postings"
        semantics = self.semantics or ctx.query.semantics
        if len(ctx.terms) == 1:
            ctx.candidates = self._single_term(ctx, semantics)
        else:
            ctx.candidates = candidates_from_postings(ctx.per_cell,
                                                      ctx.terms, semantics)
        ctx.stats.candidates = len(ctx.candidates)

    @staticmethod
    def _single_term(ctx: QueryContext, semantics) -> List[Candidate]:
        assert ctx.per_cell is not None
        count_matches = semantics.name != "AND"  # OR counts tf > 0 terms
        term = ctx.terms[0]
        candidates: List[Candidate] = []
        append = candidates.append
        for cell in sorted(ctx.per_cell):
            postings = ctx.per_cell[cell].get(term)
            if not postings:
                continue
            view = getattr(postings, "column_view", None)
            if view is not None:
                tid_column, tf_column = view()
                tids = columnar.column_tolist(tid_column)
                tfs = columnar.column_tolist(tf_column)
            else:
                tids = [tid for tid, _tf in postings]
                tfs = [tf for _tid, tf in postings]
            for tid, tf in zip(tids, tfs):
                matched = (1 if tf > 0 else 0) if count_matches else 1
                append(Candidate(tid, tf, matched, cell))
        return candidates

    def describe(self) -> str:
        which = self.semantics.value if self.semantics else "from query"
        return f"CandidateForm(semantics={which})"


class DatasetScanOp(PhysicalOperator):
    """Index-free candidate formation: full scan of the dataset (the
    Section II-B "definitely inefficient" comparison point).  Applies the
    time window, the keyword bag match and the AND/OR semantics; replaces
    Cover + PostingsFetch + TemporalClip's clipping + CandidateForm."""

    name = "DatasetScan"
    paper_lines = "Section II-B (unindexed baseline)"
    writes = ("candidates",)

    def run(self, ctx: QueryContext) -> None:
        query = ctx.query
        window = query.temporal.window
        keywords = query.keywords
        want_all = query.semantics.name == "AND"
        candidates: List[Candidate] = []
        for post in ctx.dataset.posts.values():
            if not window.contains(post.sid):
                continue
            bag: Dict[str, int] = {}
            for word in post.words:
                bag[word] = bag.get(word, 0) + 1
            present = [keyword for keyword in keywords if bag.get(keyword)]
            if not present:
                continue
            if want_all and len(present) != len(keywords):
                continue
            match_count = sum(bag[keyword] for keyword in present)
            candidates.append(Candidate(post.sid, match_count, len(present)))
        ctx.candidates = candidates
        ctx.stats.candidates = len(candidates)

    def describe(self) -> str:
        return "DatasetScan(full scan, window + bag match + semantics)"


class _QueryPruner:
    """Per-query pruning state installed by :class:`BoundsPruneOp`: the
    Definition 11 popularity bound resolved for this query's keywords,
    and the ledger attribution of every pruning decision."""

    __slots__ = ("source", "popularity_bound", "tighten_distance_bound",
                 "match_ceiling")

    def __init__(self, source: str, popularity_bound: float,
                 tighten_distance_bound: bool,
                 match_ceiling: Optional[int] = None) -> None:
        self.source = source
        self.popularity_bound = popularity_bound
        self.tighten_distance_bound = tighten_distance_bound
        # Query-wide cap on any candidate's match count, derived from the
        # fetched postings' per-block max_tf headers (None when the plan
        # has no postings stage, e.g. the dataset-scan baseline).
        self.match_ceiling = match_ceiling

    def upper_bound(self, ctx: QueryContext, match_count: int,
                    known_distance_part: float) -> float:
        """Line 18's ``UpperBound``: overestimate of any user score this
        candidate could produce."""
        config = ctx.config
        keyword_bound = (match_count / config.keyword_normalizer
                         ) * self.popularity_bound
        return (config.alpha * keyword_bound
                + (1.0 - config.alpha) * known_distance_part)

    def score_ceiling(self, ctx: QueryContext) -> Optional[float]:
        """Constant-per-query over-estimate of any remaining candidate's
        score: the postings-derived match ceiling pushed through Line
        18's ``UpperBound`` with the worst-case distance part.  Every
        per-candidate bound is <= this value, so once the top-k queue's
        threshold exceeds it, no candidate left in the loop can enter
        the queue."""
        if self.match_ceiling is None:
            return None
        return self.upper_bound(ctx, self.match_ceiling, 1.0)

    def count_pruned(self, ctx: QueryContext, count: int = 1) -> None:
        ctx.stats.threads_pruned += count
        profile = ctx.profile
        if profile is not None:
            if self.source == "hot":
                profile.users_pruned_hot += count
            else:
                profile.users_pruned_global += count


class BoundsPruneOp(PhysicalOperator):
    """Lines 18-19's pruning precondition: resolve which bound family
    (global ``t_m`` vs pre-computed hot-keyword, Section VI-B5's AND=min
    / OR=max combination) serves this query and install the pruning
    predicate that :class:`FusedRadiusScoreOp` consults per candidate.
    It reads only the fetched postings, so it runs before the radius
    filter.  Omit this operator for the no-pruning ablation."""

    name = "BoundsPrune"
    paper_lines = "Alg 5 lines 18-19; Def 11; Section VI-B5"
    writes = ("pruner",)

    def __init__(self, tighten_distance_bound: bool = True) -> None:
        # Sound refinement beyond the paper's bound: once a candidate
        # user's distance score delta(u, q) has been computed for this
        # query, later candidates of the same user can use it in place
        # of the maximum distance score 1 (delta(u, q) is per-user, not
        # per-tweet, so the substitution never under-estimates).
        self.tighten_distance_bound = tighten_distance_bound

    def run(self, ctx: QueryContext) -> None:
        bounds = ctx.bounds
        assert bounds is not None, "BoundsPruneOp needs a BoundsManager"
        query = ctx.query
        source = bounds.bound_source(query.keywords, query.semantics)
        match_ceiling: Optional[int] = None
        if ctx.per_cell is not None:
            # Tighten with what the fetched (window-clipped) postings say:
            # block views answer from per-block max_tf skip headers
            # without decoding anything.
            match_ceiling = postings_match_bound(ctx.per_cell, ctx.terms)
        ctx.pruner = _QueryPruner(
            source, bounds.bound_for_query(query.keywords, query.semantics),
            self.tighten_distance_bound, match_ceiling)
        if ctx.profile is not None:
            ctx.profile.bound_source = source

    def describe(self) -> str:
        tighten = "on" if self.tighten_distance_bound else "off"
        return (f"BoundsPrune(AND=min/OR=max bound, "
                f"tighten_distance_bound={tighten})")


class FusedRadiusScoreOp(PhysicalOperator):
    """Line 16's radius filter fused with lines 15-24's scoring.

    **Filter.** One batched metadata gather resolves every candidate's
    ``(uid, lat, lon)`` and one vectorized haversine pass computes every
    candidate distance.  A cover cell lying entirely inside the query
    circle cannot contain an out-of-radius tweet, so with the
    cell-containment shortcut its candidates skip the distance check
    (answer-preserving by construction); the cells are the ones
    :class:`CoverOp` already computed.

    **Score.** Per in-radius candidate: thread construction (Algorithm
    1), keyword relevance (Definition 6) and per-user aggregation, in
    one of two modes:

    * ``ranked=False`` — accumulate per-user keyword score parts
      (Definition 7 for ``aggregate="sum"``, Definition 8 for ``"max"``)
      into ``ctx.keyword_parts`` for a downstream :class:`RankOp`;
    * ``ranked=True`` — Algorithm 5's streaming form: maintain the
      bounded top-k user queue, compute each user's distance part lazily
      (once per user), and consult the installed pruner *before* paying
      for thread construction (the I/O bottleneck, Section V-B).
    """

    name = "FusedRadiusScore"
    paper_lines = "Alg 4 lines 15-24 / Alg 5 lines 15-33 (fused line 16)"
    writes = ("in_radius", "candidate_uids", "keyword_parts", "queue")

    def __init__(self, aggregate: str, ranked: bool = False,
                 use_cell_containment: bool = True) -> None:
        if aggregate not in ("sum", "max"):
            raise ValueError(f"aggregate must be 'sum' or 'max': {aggregate!r}")
        self.aggregate = aggregate
        self.ranked = ranked
        self.use_cell_containment = use_cell_containment

    def run(self, ctx: QueryContext) -> None:
        self._filter(ctx)
        threads_before = 0
        track = ctx.track_thread_builds
        counter = getattr(ctx.threads, "threads_built", None)
        if track and counter is not None:
            threads_before = counter
        calls = 0
        with obs.trace("query.score", candidates=ctx.stats.candidates,
                       in_radius=len(ctx.in_radius)):
            if self.ranked:
                calls = self._run_ranked(ctx)
            else:
                calls = self._run_accumulate(ctx)
        if track:
            if counter is not None:
                ctx.stats.threads_built = ctx.threads.threads_built - threads_before
            else:
                # Dataset-backed builders keep no counter; every
                # popularity call constructs one thread.
                ctx.stats.threads_built = calls

    # -- line 16 ----------------------------------------------------------

    def _resolve(self, ctx: QueryContext, tids: List[int]
                 ) -> List[Optional[Tuple[int, float, float]]]:
        lock = ctx.lock
        resolve_batch = ctx.resolve_batch
        if resolve_batch is not None:
            if lock is None:
                resolved_map = resolve_batch(tids)
            else:
                with lock:
                    resolved_map = resolve_batch(tids)
            return [resolved_map.get(tid) for tid in tids]
        resolve = ctx.resolve
        assert resolve is not None, "FusedRadiusScoreOp needs a resolver"
        if lock is None:
            return [resolve(tid) for tid in tids]
        with lock:
            return [resolve(tid) for tid in tids]

    def _filter(self, ctx: QueryContext) -> None:
        query = ctx.query
        stats = ctx.stats
        inside_cells = frozenset()
        if self.use_cell_containment:
            inside, _boundary = classify_cells(
                query.location, query.radius_km, ctx.cells, ctx.metric)
            inside_cells = frozenset(inside)
        candidates = ctx.candidates
        resolved = self._resolve(ctx, [candidate.tid for candidate in candidates])
        lats: List[float] = []
        lons: List[float] = []
        for entry in resolved:
            if entry is not None:
                lats.append(entry[1])
                lons.append(entry[2])
        distances = batch_distances(ctx, lats, lons)
        radius_km = query.radius_km
        in_radius: List[InRadiusCandidate] = []
        position = 0
        for candidate, entry in zip(candidates, resolved):
            if entry is None:
                continue  # ghost candidate: posting without metadata
            distance = distances[position]
            position += 1
            uid, lat, lon = entry
            if candidate.cell in inside_cells:
                stats.distance_checks_skipped += 1
            elif distance > radius_km:
                continue  # boundary cell false positive (line 16)
            stats.candidates_in_radius += 1
            ctx.candidate_uids.add(uid)
            in_radius.append((candidate, uid, lat, lon))
        ctx.in_radius = in_radius

    # -- lines 15-33 ------------------------------------------------------

    def _relevance(self, ctx: QueryContext, candidate: Candidate,
                   popularity: float) -> float:
        # candidate.match_count is |q.W ∩ p.W| under the bag model, so
        # Definition 6 reduces to (matches / N) * phi(p).
        relevance = (candidate.match_count
                     / ctx.config.keyword_normalizer) * popularity
        recency = ctx.query.temporal.recency
        # Recency weight <= 1, so the pruning bound (which omits it)
        # remains a sound over-estimate.
        if recency is not None:
            relevance *= recency.weight(candidate.tid, ctx.recency_reference)
        return relevance

    def _popularity(self, ctx: QueryContext, tid: int) -> float:
        if ctx.lock is None:
            return ctx.threads.popularity(tid)
        with ctx.lock:
            return ctx.threads.popularity(tid)

    def _run_accumulate(self, ctx: QueryContext) -> int:
        parts: Dict[int, float] = {}
        profile = ctx.profile
        is_sum = self.aggregate == "sum"
        calls = 0
        for candidate, uid, _lat, _lon in ctx.in_radius:
            popularity = self._popularity(ctx, candidate.tid)
            calls += 1
            relevance = self._relevance(ctx, candidate, popularity)
            if is_sum:
                parts[uid] = parts.get(uid, 0.0) + relevance
            else:
                parts[uid] = max(parts.get(uid, 0.0), relevance)
            if profile is not None:
                profile.users_scored += 1
        ctx.keyword_parts = parts
        return calls

    def _run_ranked(self, ctx: QueryContext) -> int:
        query = ctx.query
        profile = ctx.profile
        pruner: Optional[_QueryPruner] = ctx.pruner
        queue = TopKUserQueue(query.k)
        ctx.queue = queue
        distance_parts: Dict[int, float] = {}  # uid -> delta(u, q), once
        ceiling = pruner.score_ceiling(ctx) if pruner is not None else None
        calls = 0
        in_radius = ctx.in_radius
        for position, (candidate, uid, _lat, _lon) in enumerate(in_radius):
            # Query-wide cut: the ceiling dominates every per-candidate
            # bound below, so once the queue threshold passes it each
            # remaining candidate would be pruned individually anyway —
            # same results, without walking them one by one.
            if (ceiling is not None and pruner is not None and queue.full
                    and ceiling < queue.peek()):
                rest = len(in_radius) - position
                pruner.count_pruned(ctx, rest)
                obs.event("query.prune_rest", remaining=rest,
                          source=pruner.source)
                break
            # Lines 18-19: prune before paying for thread construction.
            if pruner is not None and queue.full:
                known = 1.0
                if pruner.tighten_distance_bound:
                    known = distance_parts.get(uid, 1.0)
                bound = pruner.upper_bound(ctx, candidate.match_count, known)
                if bound < queue.peek():
                    pruner.count_pruned(ctx)
                    obs.event("query.prune", tid=candidate.tid, uid=uid,
                              source=pruner.source)
                    continue
                # A user's own score can also make their remaining tweets
                # irrelevant, independent of the queue threshold.
                own = queue.score_of(uid)
                if own is not None and bound <= own:
                    pruner.count_pruned(ctx)
                    obs.event("query.prune", tid=candidate.tid, uid=uid,
                              source=pruner.source)
                    continue
            popularity = self._popularity(ctx, candidate.tid)
            calls += 1
            relevance = self._relevance(ctx, candidate, popularity)
            if uid not in distance_parts:
                distance_parts[uid] = batched_user_distance_part(ctx, uid)
            queue.offer(uid, user_score(relevance, distance_parts[uid],
                                        ctx.config))
            if profile is not None:
                profile.users_scored += 1
        return calls

    def describe(self) -> str:
        mode = "top-k queue" if self.ranked else "accumulate"
        shortcut = "on" if self.use_cell_containment else "off"
        return (f"FusedRadiusScore(aggregate={self.aggregate}, mode={mode}, "
                f"cell_containment={shortcut})")


class RankOp(PhysicalOperator):
    """Lines 25-27: combine each user's keyword aggregate with their
    distance score (Definitions 9-10, the columnar kernel), leaving the
    scored list unsorted for the partial select of :class:`TopKOp`.
    When an upstream ranked :class:`FusedRadiusScoreOp` already maintains
    the top-k queue, ranking is just draining it."""

    name = "Rank"
    paper_lines = "Alg 4 lines 25-27 / Alg 5 line 34"
    writes = ("scored",)

    def run(self, ctx: QueryContext) -> None:
        if ctx.queue is not None:
            ctx.scored = ctx.queue.ranked()
            return
        parts = ctx.keyword_parts if ctx.keyword_parts is not None else {}
        with obs.trace("query.rank", users=len(parts)):
            scored: List[Tuple[int, float]] = []
            for uid, keyword_part in parts.items():
                distance_part = batched_user_distance_part(ctx, uid)
                scored.append((uid, user_score(keyword_part, distance_part,
                                               ctx.config)))
        ctx.scored = scored

    def describe(self) -> str:
        return "Rank(blend delta(u,q), ordering deferred to TopK)"


class TopKOp(PhysicalOperator):
    """Lines 28-29: the final top-k cut — partial-select the k-th score
    boundary, then the exact ``(-score, uid)`` finalize."""

    name = "TopK"
    paper_lines = "Alg 4/5 lines 28-29"
    writes = ("users",)

    def run(self, ctx: QueryContext) -> None:
        if ctx.queue is not None:
            # Upstream ranked queue already produced a k-sorted list.
            ctx.users = ctx.scored[:ctx.query.k]
            return
        selected = columnar.select_top_k(ctx.scored, ctx.query.k)
        ctx.users = [(uid, score) for _position, uid, score in selected]

    def describe(self) -> str:
        return "TopK(k from query, partial select + exact (-score, uid) order)"


class PartitionRouteOp(PhysicalOperator):
    """Scatter routing: group cover cells by the partition (part file /
    "query server") owning their postings — the Section IV-B1 locality
    story.  Cells with no indexed postings for any query term are dropped
    here, before any server is involved."""

    name = "PartitionRoute"
    paper_lines = "Section IV-B1 (layout/locality)"
    writes = ("cells_by_server",)

    def run(self, ctx: QueryContext) -> None:
        source = ctx.source
        assert source is not None and hasattr(source, "owner_of"), \
            "PartitionRouteOp needs a PartitionedPostingsSource"
        by_server: Dict[str, List[str]] = {}
        for cell in ctx.cells:
            owner: Optional[str] = None
            for term in ctx.terms:
                owner = source.owner_of(cell, term)
                if owner is not None:
                    break
            if owner is not None:
                by_server.setdefault(owner, []).append(cell)
        ctx.cells_by_server = by_server
        if isinstance(ctx.stats, ScatterStats):
            ctx.stats.servers_involved = len(by_server)

    def describe(self) -> str:
        return "PartitionRoute(cells by owning partition)"


class ScatterGatherOp(PhysicalOperator):
    """Scatter-gather execution: run the server sub-plan per involved
    partition (a worker thread per server, simulating per-node
    execution), then merge per-server partial keyword aggregates (sum
    scores add across servers; max scores take the maximum)."""

    name = "ScatterGather"
    paper_lines = "Section IV-B1 (distributed retrieval)"
    writes = ("keyword_parts", "candidate_uids")

    def __init__(self, aggregate: str, server_plan, max_workers: int = 4) -> None:
        if aggregate not in ("sum", "max"):
            raise ValueError(f"aggregate must be 'sum' or 'max': {aggregate!r}")
        self.aggregate = aggregate
        self.server_plan = server_plan
        self.max_workers = max_workers

    def run(self, ctx: QueryContext) -> None:
        by_server = ctx.cells_by_server
        stats = ctx.stats
        if not by_server:
            ctx.keyword_parts = {}
            return

        def server_task(item: Tuple[str, List[str]]) -> QueryContext:
            child = ctx.child(item[1])
            self.server_plan.execute(child)
            return child

        with ThreadPoolExecutor(
                max_workers=min(self.max_workers, len(by_server))) as pool:
            children = list(pool.map(server_task, sorted(by_server.items())))
        if isinstance(stats, ScatterStats):
            stats.partial_results = len(children)

        # Gather: merge per-user keyword parts across servers.
        is_sum = self.aggregate == "sum"
        merged: Dict[int, float] = {}
        for child in children:
            stats.candidates += child.stats.candidates
            stats.candidates_in_radius += child.stats.candidates_in_radius
            ctx.candidate_uids |= child.candidate_uids
            for uid, part in (child.keyword_parts or {}).items():
                if is_sum:
                    merged[uid] = merged.get(uid, 0.0) + part
                else:
                    merged[uid] = max(merged.get(uid, 0.0), part)
        ctx.keyword_parts = merged

    def children(self) -> Sequence[object]:
        return (self.server_plan,)

    def describe(self) -> str:
        return (f"ScatterGather(aggregate={self.aggregate}, "
                f"max_workers={self.max_workers})")
