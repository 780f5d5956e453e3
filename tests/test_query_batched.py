"""Shape of the columnar (batched) query plan.

The indexed plan scores candidates with the fused operators: one
``FusedRadiusScore`` pass does the radius filter and the score
aggregation over the whole candidate batch, so no separate per-post
radius filter remains in the plan.
"""

from repro.query.pipeline import (
    CandidateFormOp,
    FusedRadiusScoreOp,
    Planner,
    RankOp,
    TopKOp,
)


class TestBatchedPlanShape:
    def test_batched_plan_uses_fused_operators(self):
        plan = Planner().plan("max")
        kinds = [type(op) for op in plan.operators]
        assert FusedRadiusScoreOp in kinds
        assert CandidateFormOp in kinds
        assert RankOp in kinds and TopKOp in kinds
        assert kinds.index(CandidateFormOp) < kinds.index(FusedRadiusScoreOp)
        assert kinds.index(FusedRadiusScoreOp) < kinds.index(RankOp)
        assert kinds.index(RankOp) < kinds.index(TopKOp)
        names = plan.operator_names()
        assert "RadiusFilter" not in names   # fused away
        assert "FusedRadiusScore(aggregate=max" in plan.describe()
