"""The shared execution shell around a physical plan.

Every query path — sum, max, brute force, scatter-gather — runs through
:func:`run_plan`: open the ``query.search`` span (when the path is
traced), execute the operators, stamp the elapsed time and I/O deltas,
fold the funnel counters into the per-query profile, and wrap the result.
The five former processors each re-implemented this shell inline; it
lives here exactly once.
"""

from __future__ import annotations

import time
from typing import Optional

from ... import obs
from ..profiling import ProfileRecorder
from ..results import QueryResult
from .context import QueryContext
from .planner import PhysicalPlan


def run_plan(plan: PhysicalPlan, ctx: QueryContext, *,
             method: Optional[str] = None,
             recorder: Optional[ProfileRecorder] = None) -> QueryResult:
    """Execute ``plan`` over ``ctx`` and assemble the query result.

    ``method`` names the traced execution paths ("sum"/"max"): when set,
    the whole run is wrapped in a ``query.search`` span.  ``recorder``
    (when given) supplies the I/O snapshot-diff and finishes the
    per-query profile.
    """
    query = ctx.query
    stats = ctx.stats
    start = time.perf_counter()
    if method is not None:
        scope = obs.trace("query.search", method=method,
                          semantics=query.semantics.value, k=query.k,
                          radius_km=query.radius_km)
    else:
        scope = obs.NULL_SPAN_CONTEXT
    with scope as span:
        ctx.span = span
        plan.execute(ctx)
        stats.elapsed_seconds = time.perf_counter() - start
        if recorder is not None:
            stats.io_delta = recorder.io_delta_pages()

    profile = ctx.profile
    if profile is not None:
        profile.cells_covered = stats.cells_covered
        profile.candidates = stats.candidates
        profile.candidates_examined = stats.candidates_in_radius
        profile.candidate_users = len(ctx.candidate_uids)
        profile.threads_built = stats.threads_built
    if recorder is not None:
        recorder.finish(stats.elapsed_seconds)
    runtime = obs.get_runtime()
    if runtime is not None and recorder is not None:
        # Engine-boundary telemetry hook: SLO accounting plus slow-query
        # capture (plan + profile funnel + span tree when one was built).
        captured_span = span if span is not obs.NULL_SPAN else None
        runtime.record_query(plan, profile, stats.elapsed_seconds,
                             captured_span)
    return QueryResult(users=ctx.users, stats=stats, profile=profile)
