"""Algorithm 5: query processing for maximum-score based user ranking
with upper-bound pruning.

Identical candidate retrieval to Algorithm 4 (the plans share their
``Cover -> PostingsFetch -> CandidateForm`` prefix); the fused
radius-filter-and-score stage instead runs in ranked mode — it maintains a top-k
priority queue and, before constructing a candidate's tweet thread (the
I/O bottleneck, Section V-B), checks whether even an *overestimated*
user score — Definition 11's popularity bound combined with the maximum
distance score of 1 — could beat the current k-th best.  If not, thread
construction is skipped (lines 18-19).

The popularity bound comes from a
:class:`~repro.query.bounds.BoundsManager`: the global ``t_m`` bound, or
the tighter pre-computed per-keyword bound when every relevant query
keyword is hot (Section VI-B5's AND=min / OR=max combination).  The
``BoundsPrune`` operator resolves the bound per query; omitting it
(``use_pruning=False``) gives the exhaustive ablation run, which must
agree with the pruned run.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.model import TkLUSQuery
from ..core.scoring import ScoringConfig
from ..core.thread import ThreadBuilder
from ..geo.distance import DEFAULT_METRIC, Metric
from ..index.hybrid import HybridIndex
from ..storage.metadata import MetadataDatabase
from .bounds import BoundsManager
from .pipeline import Planner, QueryContext, run_plan
from .profiling import ProfileRecorder
from .results import QueryResult


class MaxScoreProcessor:
    """Executes TkLUS queries under maximum-score ranking with pruning.

    ``use_pruning=False`` disables the upper-bound check (for the
    ablation benchmark); the ranking is then computed exhaustively and
    must agree with the pruned run.
    """

    def __init__(self, index: HybridIndex, database: MetadataDatabase,
                 thread_builder: ThreadBuilder, bounds: BoundsManager,
                 config: Optional[ScoringConfig] = None,
                 metric: Metric = DEFAULT_METRIC,
                 use_pruning: bool = True,
                 tighten_distance_bound: bool = True,
                 use_cell_containment: bool = True) -> None:
        self.index = index
        self.database = database
        self.threads = thread_builder
        self.bounds = bounds
        self.config = config if config is not None else ScoringConfig()
        self.metric = metric
        self.use_pruning = use_pruning
        # Sound refinement beyond the paper's bound: once a candidate
        # user's distance score delta(u, q) has been computed for this
        # query, later candidates of the same user can use it in place of
        # the maximum distance score 1 (delta(u, q) is per-user, not
        # per-tweet, so the substitution never under-estimates).
        self.tighten_distance_bound = tighten_distance_bound
        # See SumScoreProcessor: fully-inside cover cells skip the
        # per-tweet distance check (answer-preserving).
        self.use_cell_containment = use_cell_containment
        self._planner = Planner(
            use_cell_containment=use_cell_containment,
            tighten_distance_bound=tighten_distance_bound)

    def plan_for(self, query: TkLUSQuery):
        """The physical plan this processor would run for ``query``."""
        return self._planner.plan_for_query("max", query,
                                            pruning=self.use_pruning)

    def search(self, query: TkLUSQuery, *, source: Any = None,
               cancel: Any = None) -> QueryResult:
        """``source`` overrides the postings source for this one query
        (the serve layer passes a pinned ``LiveSnapshot``); ``cancel``
        is a cooperative cancel token checked at operator boundaries."""
        active = source if source is not None else self.index
        recorder = ProfileRecorder(self.database, active, query, "max")
        ctx = QueryContext.for_database(
            query, config=self.config, metric=self.metric, source=active,
            database=self.database, threads=self.threads, bounds=self.bounds,
            profile=recorder.profile, cancel=cancel)
        return run_plan(self.plan_for(query), ctx, method="max",
                        recorder=recorder)
