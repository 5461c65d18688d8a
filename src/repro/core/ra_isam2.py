"""RA-ISAM2: the resource-aware incremental SLAM solver (Section 4.1).

Each step:

1. charge the budget with the mandatory work (incorporating the new pose
   and factors),
2. rank existing variables by relevance score (``‖delta_j‖∞``),
3. greedily select variables whose Algorithm-1 cost estimate fits in the
   remaining budget (ordering and admission delegated to the configured
   :class:`~repro.policy.selection.SelectionPolicy` — the paper's
   most-relevant-first greedy by default),
4. run the incremental engine with exactly that relinearization set.

An optional :class:`~repro.policy.controller.BudgetController`
(``budget_controller="slambooster"``) modulates the per-step target
from observed error/latency trends; the default ``fixed`` controller
keeps the historical constant-target behavior bit for bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

from repro.core.budget import StepBudget
from repro.core.relevance import RelinCostEstimator, relevance_scores
from repro.factorgraph.factors import Factor
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values
from repro.hardware.power import PowerModel
from repro.instrumentation import StepContext
from repro.policy import (
    BudgetController,
    SelectionContext,
    SelectionPolicy,
    make_budget_controller,
    make_selection_policy,
)
from repro.runtime.cost_model import NodeCostModel
from repro.solvers.base import SelectionPlan, StepReport
from repro.solvers.isam2 import IncrementalEngine


class RAISAM2:
    """Resource-aware incremental smoothing and mapping.

    Parameters
    ----------
    cost_model:
        Runtime cost model for the platform this solver budgets against.
    target_seconds:
        Per-step latency target (paper: 33.3 ms).
    score_floor:
        Variables below this relevance score are never candidates
        (they would not have been relinearized by ISAM2 either).
    safety:
        Budget headroom for cost-model error (see :class:`StepBudget`).
    energy_budget_joules / power_model:
        Optional per-step energy cap (Section 7 extension).
    selection_policy:
        Registered :class:`~repro.policy.selection.SelectionPolicy`
        name (``relevance`` / ``fifo`` / ``random`` / ``good_graph`` /
        any custom registration) or a policy instance.  Default is the
        paper's greedy most-relevant-first ranking.
    selection_seed:
        Seed handed to the policy (only ``random`` consumes it).
    budget_controller:
        Registered :class:`~repro.policy.controller.BudgetController`
        name (``fixed`` / ``slambooster`` / custom) or instance;
        ``fixed`` (default) pins the historical constant target.
    ordering / reorder_interval:
        Engine elimination-ordering mode (``"chronological"`` or
        ``"constrained_colamd"``) and re-ordering cadence; see
        :class:`~repro.solvers.isam2.IncrementalEngine`.
    """

    def __init__(self, cost_model: NodeCostModel,
                 target_seconds: float = 1.0 / 30.0,
                 score_floor: float = 0.01,
                 safety: float = 0.85,
                 wildfire_tol: float = 1e-5,
                 max_supernode_vars: int = 8,
                 damping: float = 0.0,
                 energy_budget_joules: Optional[float] = None,
                 power_model: Optional[PowerModel] = None,
                 selection_policy=("relevance"),
                 selection_seed: int = 0,
                 budget_controller="fixed",
                 ordering: str = "chronological",
                 reorder_interval: int = 25,
                 workers: Optional[int] = None):
        self.cost_model = cost_model
        self.target_seconds = float(target_seconds)
        self.score_floor = float(score_floor)
        self.safety = float(safety)
        self.selection_policy: SelectionPolicy = make_selection_policy(
            selection_policy, seed=selection_seed)
        self.budget_controller: BudgetController = make_budget_controller(
            budget_controller)
        self.energy_budget_joules = energy_budget_joules
        self.power_model = power_model or PowerModel()
        self.engine = IncrementalEngine(
            max_supernode_vars=max_supernode_vars,
            wildfire_tol=wildfire_tol, damping=damping,
            ordering=ordering, reorder_interval=reorder_interval,
            workers=workers)
        self._step = -1
        self._last_target_scale = 1.0

    def _estimate_energy(self, seconds: float) -> float:
        """Coarse energy estimate: average power x time."""
        return self.power_model.peak_watts * 0.7 * seconds

    def plan_selection(self, new_factors: Sequence[Factor],
                       budget_scale: float = 1.0) -> SelectionPlan:
        """Budgeted greedy relinearization selection for one step.

        ``budget_scale`` is the fleet admission controller's degradation
        factor: below 1.0 the optional budget is shrunk *after* the
        mandatory charge (mandatory work and the solve are untouchable)
        and a shadow nominal budget runs the identical charge sequence
        at full size so every shed variable — admitted nominally,
        rejected scaled — is counted.  At ``budget_scale >= 1`` the
        shadow is skipped and the pass is the historical solo path,
        charge for charge.

        The budget controller's target scale applies first; it is
        capped at 1.0 while the fleet is degrading so an adaptive
        controller never inflates a budget the fleet is shedding.
        """
        ctrl_scale = self.budget_controller.target_scale()
        if budget_scale < 1.0:
            ctrl_scale = min(ctrl_scale, 1.0)
        self._last_target_scale = ctrl_scale
        target = self.target_seconds if ctrl_scale == 1.0 \
            else self.target_seconds * ctrl_scale
        budget = StepBudget(target, self.safety,
                            self.energy_budget_joules)
        estimator = RelinCostEstimator(
            self.engine, self.cost_model,
            numeric_speedup=self.cost_model.step_speedup())

        # Mandatory work: new factors must be incorporated this step.
        touched: Set[Key] = set()
        for factor in new_factors:
            touched.update(k for k in factor.keys
                           if k in self.engine.pos_of)
        mandatory = estimator.mandatory_cost(touched)
        mandatory += self.cost_model.relin_seconds(len(new_factors))
        mandatory_joules = self._estimate_energy(mandatory)
        budget.charge_mandatory(mandatory, mandatory_joules)
        nominal: Optional[StepBudget] = None
        if budget_scale < 1.0:
            nominal = StepBudget(target, self.safety,
                                 self.energy_budget_joules)
            nominal.charge_mandatory(mandatory, mandatory_joules)
            budget.scale_optional(budget_scale)

        # Greedy selection, ranked and admitted by the configured policy.
        candidates = relevance_scores(self.engine, self.score_floor)
        outcome = self.selection_policy.select(SelectionContext(
            engine=self.engine, candidates=candidates,
            estimator=estimator, budget=budget, nominal=nominal,
            energy_of=self._estimate_energy, charged=mandatory))
        return SelectionPlan(outcome.selected, outcome.deferred,
                             outcome.shed, outcome.charged,
                             estimator.visits)

    def observe_report(self, report: StepReport) -> None:
        """Feed the budget controller one completed step's signals.

        Called by :meth:`end_step`, so controller state advances
        identically whether ``update`` or the serving fleet drives the
        step.
        """
        norms = self.engine.delta_norm_array()
        extras = dict(report.extras)
        extras.setdefault("budget_target_seconds", self.target_seconds)
        extras.setdefault("max_delta_norm",
                          float(norms.max()) if norms.size else 0.0)
        self.budget_controller.observe(extras)

    def begin_step(self, new_factors: Sequence[Factor],
                   budget_scale: float = 1.0) -> SelectionPlan:
        """Advance the step counter; run :meth:`plan_selection`."""
        self._step += 1
        return self.plan_selection(new_factors, budget_scale=budget_scale)

    def end_step(self, ctx: StepContext, info: Dict[str, object],
                 plan: SelectionPlan) -> StepReport:
        """Build the step's report from the engine's ``info``, with the
        budget extras, and feed it to :meth:`observe_report`."""
        ctx.extras["estimated_seconds"] = plan.charged
        if self._last_target_scale != 1.0:
            ctx.extras["budget_target_scale"] = self._last_target_scale
        report = ctx.build_report(
            self._step,
            node_parents=self.engine.node_parents(info["fresh_sids"]),
            selection_visits=plan.visits,
            deferred_variables=plan.deferred,
        )
        self.observe_report(report)
        return report

    def update(self, new_values: Dict[Key, object],
               new_factors: Sequence[Factor],
               context: Optional[StepContext] = None) -> StepReport:
        """One resource-aware backend step."""
        ctx = context if context is not None else StepContext()
        plan = self.begin_step(new_factors)
        info = self.engine.update(new_values, new_factors, plan.selected,
                                  context=ctx)
        return self.end_step(ctx, info, plan)

    def estimate(self) -> Values:
        return self.engine.estimate()
