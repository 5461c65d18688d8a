"""Unified policy layer: selection policies and budget controllers.

Everything that used to name a selection/budget behavior by a
hard-coded string (RA-ISAM2's if/elif dispatch, the fleet's top-k
degradation cut, the CLI flags, the ablation harness) now goes through
the registries here:

* :mod:`repro.policy.selection` — :class:`SelectionPolicy` registry
  (``relevance`` / ``fifo`` / ``random`` bit-identical to the legacy
  dispatch, plus Good-Graph information-gain selection),
* :mod:`repro.policy.controller` — :class:`BudgetController` registry
  (``fixed`` no-op default, plus the SLAMBooster-style adaptive
  budget controller).

Register custom behaviors with :func:`register_selection_policy` /
:func:`register_budget_controller`; see docs/architecture.md.
"""

from repro.policy.controller import (
    BUDGET_CONTROLLERS,
    BudgetController,
    FixedBudgetController,
    SlamBoosterController,
    controller_names,
    make_budget_controller,
    register_budget_controller,
)
from repro.policy.selection import (
    SELECTION_POLICIES,
    Candidate,
    FifoSelection,
    GoodGraphSelection,
    RandomSelection,
    RelevanceSelection,
    SelectionContext,
    SelectionPlan,
    SelectionPolicy,
    make_selection_policy,
    register_selection_policy,
    registered_selection_order,
    selection_names,
)

__all__ = [
    "BUDGET_CONTROLLERS",
    "BudgetController",
    "Candidate",
    "FifoSelection",
    "FixedBudgetController",
    "GoodGraphSelection",
    "RandomSelection",
    "RelevanceSelection",
    "SELECTION_POLICIES",
    "SelectionContext",
    "SelectionPlan",
    "SelectionPolicy",
    "SlamBoosterController",
    "controller_names",
    "make_budget_controller",
    "make_selection_policy",
    "register_budget_controller",
    "register_selection_policy",
    "registered_selection_order",
    "selection_names",
    "describe_policies",
]


def describe_policies(solver) -> dict:
    """Policy metadata of a solver, for run labeling (pipeline layer).

    Returns ``{"selection": name, "budget_controller": name}`` with
    ``None`` entries for solvers that have no such knob (plain batch
    solvers, fixed-lag, ...).
    """
    selection = getattr(solver, "selection_policy", None)
    controller = getattr(solver, "budget_controller", None)
    return {
        "selection": getattr(selection, "name", None),
        "budget_controller": getattr(controller, "name", None),
    }
