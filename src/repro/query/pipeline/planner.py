"""The planner: from ``(method, semantics, pruning, temporal,
distributed?)`` to a physical operator plan.

Plans are immutable compositions of the stateless operators in
:mod:`.operators`; the planner memoises them per specification, so the
per-query cost of planning is a dictionary lookup.  ``PhysicalPlan``
also knows how to render itself for ``repro explain`` — each line names
the operator, its configuration, and the paper algorithm lines it
implements.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ...core.model import Semantics, TkLUSQuery
from .context import QueryContext
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


@dataclass(frozen=True)
class PlanSpec:
    """Everything that determines a physical plan's shape."""

    method: str = "max"            # "sum" | "max" (the keyword aggregate)
    semantics: Semantics = Semantics.OR
    pruning: bool = True           # upper-bound pruning (max only)
    temporal: bool = False         # window clip / recency weighting
    distributed: bool = False      # scatter-gather over partitions
    scan: bool = False             # index-free full scan (brute force)

    def __post_init__(self) -> None:
        if self.method not in ("sum", "max"):
            raise ValueError(f"unknown ranking method {self.method!r} "
                             "(expected 'sum' or 'max')")
        if self.distributed and self.scan:
            raise ValueError("a plan is either distributed or a full scan")

    def label(self) -> str:
        flavour = "scan" if self.scan else (
            "distributed" if self.distributed else "indexed")
        bits = [f"method={self.method}", f"semantics={self.semantics.value}",
                f"flavour={flavour}"]
        if self.method == "max" and not self.distributed and not self.scan:
            bits.append(f"pruning={'on' if self.pruning else 'off'}")
        bits.append(f"temporal={'on' if self.temporal else 'off'}")
        return ", ".join(bits)


@dataclass(frozen=True)
class PhysicalPlan:
    """An ordered operator composition, executable and explainable."""

    label: str
    operators: Tuple[PhysicalOperator, ...]
    spec: Optional[PlanSpec] = field(default=None, compare=False)

    def execute(self, ctx: QueryContext) -> QueryContext:
        cancel = ctx.cancel
        if cancel is None:
            for operator in self.operators:
                operator.run(ctx)
        else:
            # Cooperative cancellation: a deadline or server-side cancel
            # stops the query *between* operators — never inside one, so
            # every operator either ran completely or not at all and a
            # cancelled execution is a clean prefix of the full one.
            for operator in self.operators:
                cancel.check()
                operator.run(ctx)
            cancel.check()
        return ctx

    def operator_names(self) -> List[str]:
        return [operator.name for operator in self.operators]

    def describe(self, indent: str = "") -> str:
        """Multi-line rendering: one numbered line per operator, nested
        sub-plans (scatter workers) indented beneath their parent."""
        lines = [f"{indent}plan[{self.label}]"]
        for position, operator in enumerate(self.operators, start=1):
            annotation = f"  [{operator.paper_lines}]" if operator.paper_lines else ""
            lines.append(f"{indent}  {position}. {operator.describe()}{annotation}")
            for child in operator.children():
                lines.append(child.describe(indent + "      "))
        return "\n".join(lines)

    def __iter__(self):
        return iter(self.operators)

    def __len__(self) -> int:
        return len(self.operators)


class Planner:
    """Assembles (and memoises) physical plans.

    The constructor freezes execution-site choices that are properties
    of the deployment rather than of any one query: whether the
    cell-containment shortcut is active, whether the pruning bound is
    tightened with known per-user distance scores, and the scatter
    width.
    """

    def __init__(self, *, use_cell_containment: bool = True,
                 tighten_distance_bound: bool = True,
                 max_workers: int = 4) -> None:
        self.use_cell_containment = use_cell_containment
        self.tighten_distance_bound = tighten_distance_bound
        self.max_workers = max_workers
        self._memo_lock = threading.Lock()
        self._plans: Dict[PlanSpec, PhysicalPlan] = {}  # guarded-by: _memo_lock

    # -- public API --------------------------------------------------------

    def plan(self, method: str = "max",
             semantics: Semantics = Semantics.OR, *,
             pruning: bool = True, temporal: bool = False,
             distributed: bool = False,
             scan: bool = False) -> PhysicalPlan:
        """The physical plan for a query class."""
        spec = PlanSpec(method=method, semantics=semantics, pruning=pruning,
                        temporal=temporal, distributed=distributed, scan=scan)
        # Serve workers plan concurrently, so the memo is double-checked:
        # the unlocked dict.get is GIL-atomic and hits for every spec
        # after its first planning; losers of the build race discard
        # their plan and return the published one, so a given spec always
        # memoises exactly one PhysicalPlan object.
        # repro-lint: disable=RL004,RL100 reason=double-checked locking; GIL-atomic dict.get fast path
        cached = self._plans.get(spec)
        if cached is None:
            built = self._build(spec)
            with self._memo_lock:
                cached = self._plans.get(spec)
                if cached is None:
                    cached = built
                    self._plans[spec] = cached
        return cached

    def plan_for_query(self, method: str, query: TkLUSQuery, *,
                       pruning: bool = True, distributed: bool = False,
                       scan: bool = False) -> PhysicalPlan:
        """The plan for one concrete query: semantics and temporal shape
        are read off the query itself."""
        temporal = (not query.temporal.window.unbounded
                    or query.temporal.recency is not None)
        return self.plan(method, query.semantics, pruning=pruning,
                         temporal=temporal, distributed=distributed,
                         scan=scan)

    def explain(self, method: str = "max",
                semantics: Semantics = Semantics.OR, *,
                pruning: bool = True, temporal: bool = False,
                distributed: bool = False, scan: bool = False) -> str:
        """Rendered plan text (what ``repro explain`` prints)."""
        return self.plan(method, semantics, pruning=pruning,
                         temporal=temporal, distributed=distributed,
                         scan=scan).describe()

    # -- construction ------------------------------------------------------

    def _build(self, spec: PlanSpec) -> PhysicalPlan:
        if spec.scan:
            operators = self._scan_operators(spec)
        elif spec.distributed:
            operators = self._distributed_operators(spec)
        else:
            operators = self._indexed_operators(spec)
        return PhysicalPlan(spec.label(), tuple(operators), spec)

    def _retrieval_operators(self, spec: PlanSpec,
                             track_fetches: bool = True,
                             include_cover: bool = True
                             ) -> List[PhysicalOperator]:
        """Lines 1-14 shared verbatim by Algorithms 4 and 5.

        ``include_cover=False`` for scatter-gather server sub-plans,
        whose cells are assigned by the coordinator's partition routing
        rather than computed locally."""
        operators: List[PhysicalOperator] = []
        if include_cover:
            operators.append(CoverOp())
        operators.append(PostingsFetchOp(track_fetches=track_fetches))
        if spec.temporal:
            operators.append(TemporalClipOp())
        operators.append(CandidateFormOp(spec.semantics))
        return operators

    def _indexed_operators(self, spec: PlanSpec) -> List[PhysicalOperator]:
        """Radius filtering and scoring are one fused stage, so the
        bounds pruner (which only reads the fetched postings) installs
        before it."""
        operators = self._retrieval_operators(spec)
        ranked = spec.method == "max"
        if ranked and spec.pruning:
            operators.append(BoundsPruneOp(self.tighten_distance_bound))
        operators.extend((
            FusedRadiusScoreOp(spec.method, ranked=ranked,
                               use_cell_containment=self.use_cell_containment),
            RankOp(),
            TopKOp(),
        ))
        return operators

    def _scan_operators(self, spec: PlanSpec) -> List[PhysicalOperator]:
        operators: List[PhysicalOperator] = []
        if spec.temporal:
            operators.append(TemporalClipOp())  # recency reference only
        operators.extend((
            DatasetScanOp(),
            FusedRadiusScoreOp(spec.method, use_cell_containment=False),
            RankOp(),
            TopKOp(),
        ))
        return operators

    def _distributed_operators(self, spec: PlanSpec) -> List[PhysicalOperator]:
        server_spec = replace(spec, distributed=False)
        server_operators: List[PhysicalOperator] = self._retrieval_operators(
            server_spec, track_fetches=False, include_cover=False)
        server_operators.append(
            FusedRadiusScoreOp(spec.method, use_cell_containment=False))
        server_plan = PhysicalPlan(
            f"server, {server_spec.label()}", tuple(server_operators))
        return [
            CoverOp(),
            PartitionRouteOp(),
            ScatterGatherOp(spec.method, server_plan, self.max_workers),
            RankOp(),
            TopKOp(),
        ]
