"""repro.query.pipeline — the composable physical-operator framework.

The paper's Algorithms 4 and 5 share their candidate-retrieval prefix
(lines 1-14) verbatim; this package factors the whole query path into
explicit physical operators over a shared :class:`QueryContext`, with a
:class:`Planner` that assembles (and memoises) plans from
``(method, semantics, pruning, temporal, distributed?)`` and renders
them for ``repro explain``.  All five execution paths — sum ranking,
max ranking (pruned and ablation), the brute-force oracle, scatter-
gather distribution and cross-platform federation — are compositions of
these operators; adding caching or new backends means adding or
swapping one operator, not editing five processors.

Backends plug in behind the :class:`PostingsSource` protocol
(:class:`~repro.index.hybrid.HybridIndex` satisfies it natively).
"""

from .context import (
    BatchCandidateResolver,
    CandidateResolver,
    InRadiusCandidate,
    QueryContext,
    UserLocationColumnsProvider,
    UserLocationsProvider,
)
from .executor import run_plan
from .operators import (
    BoundsPruneOp,
    CandidateFormOp,
    CoverOp,
    DatasetScanOp,
    FusedRadiusScoreOp,
    PartitionRouteOp,
    PhysicalOperator,
    PostingsFetchOp,
    RankOp,
    ScatterGatherOp,
    TemporalClipOp,
    TopKOp,
)
from .planner import PhysicalPlan, Planner, PlanSpec
from .source import GroupedPostings, PartitionedPostingsSource, PostingsSource

__all__ = [
    "BatchCandidateResolver",
    "BoundsPruneOp",
    "CandidateFormOp",
    "CandidateResolver",
    "CoverOp",
    "FusedRadiusScoreOp",
    "DatasetScanOp",
    "GroupedPostings",
    "InRadiusCandidate",
    "PartitionRouteOp",
    "PartitionedPostingsSource",
    "PhysicalOperator",
    "PhysicalPlan",
    "PlanSpec",
    "Planner",
    "PostingsFetchOp",
    "PostingsSource",
    "QueryContext",
    "RankOp",
    "ScatterGatherOp",
    "TemporalClipOp",
    "TopKOp",
    "UserLocationColumnsProvider",
    "UserLocationsProvider",
    "run_plan",
]
