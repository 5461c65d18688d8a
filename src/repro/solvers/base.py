"""Shared solver types.

Every online solver exposes ``update(step) -> StepReport``; the report
carries the work counters and the numeric operation trace that the
latency experiments feed into the hardware simulator.  The incremental
solvers split ``update`` into ``begin_step`` (returns the step's
:class:`SelectionPlan`) and ``end_step`` (returns its report), so the
serving fleet drives the same selection and report code as a solo
``update``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from repro.factorgraph.keys import Key
from repro.linalg.trace import OpTrace

ParentMap = Dict[int, Optional[int]]


class SelectionPlan(NamedTuple):
    """Outcome of one step's relinearization-selection pass.

    ``shed`` counts variables the *nominal* (unscaled) selection would
    have relinearized but the overload-scaled one did not — the fleet's
    graceful-degradation metric, zero whenever ``budget_scale >= 1``.
    ``deferred``, ``charged`` and ``visits`` are the RA-ISAM2 budget's
    bookkeeping (zero for plain ISAM2).
    """

    selected: List[Key]
    deferred: int = 0
    shed: int = 0
    charged: float = 0.0
    visits: int = 0


@dataclass
class StepReport:
    """What one backend iteration did (for latency/accuracy accounting).

    Attributes
    ----------
    step:
        Index of the processed timestep.
    relinearized_variables / relinearized_factors:
        Fluid-relinearization work (non-numeric, runs on CPU).
    affected_columns:
        Columns whose symbolic structure was recomputed.
    refactored_nodes:
        Supernodes numerically refactorized this step.
    trace:
        Numeric operation trace (None for solvers without one).
    selection_visits:
        Node visits performed by the RA-ISAM2 selection pass
        (paper: "at most two visits per node").
    deferred_variables:
        Relinearization candidates skipped to respect the budget
        (RA-ISAM2 only).
    """

    step: int
    relinearized_variables: int = 0
    relinearized_factors: int = 0
    affected_columns: int = 0
    refactored_nodes: int = 0
    trace: Optional[OpTrace] = None
    selection_visits: int = 0
    deferred_variables: int = 0
    node_parents: Optional[ParentMap] = None
    extras: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric view: the fixed counters plus *every* extras key.

        Extras are merged last and verbatim — a key written into
        ``StepContext.extras`` by any layer (solver phases, the serving
        fleet's ``session_id``/``shed_relin_count``/``fleet_plan_hits``
        attribution) is never silently dropped, the regression class of
        the PR 8 ``StepLatency.utilization`` bug.
        """
        out: Dict[str, float] = {
            "step": float(self.step),
            "relinearized_variables": float(self.relinearized_variables),
            "relinearized_factors": float(self.relinearized_factors),
            "affected_columns": float(self.affected_columns),
            "refactored_nodes": float(self.refactored_nodes),
            "selection_visits": float(self.selection_visits),
            "deferred_variables": float(self.deferred_variables),
        }
        for key, value in self.extras.items():
            out[key] = float(value)
        return out
