"""Algorithm 4: query processing for sum-score based user ranking.

Plan shape (line numbers refer to the paper's Algorithm 4):

1.  circle cover at the index's geohash length (line 1) — ``Cover``;
2.  fetch postings for every (cell, keyword) pair (lines 4-7) —
    ``PostingsFetch``;
3.  AND/OR candidate formation (lines 8-14) — ``CandidateForm``;
4.  for each candidate within the radius (line 16): build its tweet
    thread (Algorithm 1), compute its keyword relevance contribution
    (Definition 6), and accumulate per user (Definition 7) — lines
    15-24, ``FusedRadiusScore``;
5.  combine each user's keyword score with their distance score
    (Definitions 9-10) and return the top k (lines 25-29) — ``Rank`` +
    ``TopK``.

The operators live in :mod:`repro.query.pipeline`; this processor is a
thin shell that plans the query and binds it to the storage backends.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.model import TkLUSQuery
from ..core.scoring import ScoringConfig
from ..core.thread import ThreadBuilder
from ..geo.distance import DEFAULT_METRIC, Metric
from ..index.hybrid import HybridIndex
from ..storage.metadata import MetadataDatabase
from .pipeline import Planner, QueryContext, run_plan
from .profiling import ProfileRecorder
from .results import QueryResult


class SumScoreProcessor:
    """Executes TkLUS queries under sum-score ranking."""

    def __init__(self, index: HybridIndex, database: MetadataDatabase,
                 thread_builder: ThreadBuilder,
                 config: Optional[ScoringConfig] = None,
                 metric: Metric = DEFAULT_METRIC,
                 use_cell_containment: bool = True) -> None:
        self.index = index
        self.database = database
        self.threads = thread_builder
        self.config = config if config is not None else ScoringConfig()
        self.metric = metric
        # Optimization beyond the paper's Algorithm 4: a cover cell that
        # lies entirely inside the query circle cannot contain an
        # out-of-radius tweet, so its candidates skip the per-tweet
        # distance check of line 16.  Answer-preserving by construction.
        self.use_cell_containment = use_cell_containment
        self._planner = Planner(use_cell_containment=use_cell_containment)

    def plan_for(self, query: TkLUSQuery):
        """The physical plan this processor would run for ``query``."""
        return self._planner.plan_for_query("sum", query)

    def search(self, query: TkLUSQuery, *, source: Any = None,
               cancel: Any = None) -> QueryResult:
        """``source`` overrides the postings source for this one query
        (the serve layer passes a pinned ``LiveSnapshot``); ``cancel``
        is a cooperative cancel token checked at operator boundaries."""
        active = source if source is not None else self.index
        recorder = ProfileRecorder(self.database, active, query, "sum")
        ctx = QueryContext.for_database(
            query, config=self.config, metric=self.metric, source=active,
            database=self.database, threads=self.threads,
            profile=recorder.profile, cancel=cancel)
        return run_plan(self.plan_for(query), ctx, method="sum",
                        recorder=recorder)
