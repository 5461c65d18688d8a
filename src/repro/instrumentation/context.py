"""The one per-step record, shared by all backend solvers: its counters
carry the names :class:`~repro.solvers.base.StepReport` publishes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.linalg.parallel import LevelStats, wall_speedup
from repro.linalg.trace import NodeTrace, OpTrace

if TYPE_CHECKING:  # solvers.base imports stay lazy: solvers import us
    from repro.policy.selection import SelectionPlan
    from repro.solvers.base import ParentMap, StepReport

#: Counters published to the report's extras under their own names.
_EXTRAS_COUNTERS = ("backsub_nodes", "lin_seconds", "lin_batched_factors",
                    "lin_fallback_factors", "plan_hits", "plan_misses",
                    "plan_compiles", "refactor_seconds", "parallel_nodes",
                    "parallel_levels")


class StepContext:
    """Everything measured while one backend step executes.

    Created once per step (by :class:`~repro.pipeline.BackendPipeline`,
    the serving fleet, or a caller passing ``context=StepContext(trace)``
    to a solver's ``update``; a solver called without one creates an
    untraced context) and threaded through every phase.  When ``trace``
    is None the context still exists — the counters are plain int adds
    and :meth:`node` returns None, so the disabled path stays null-cost.

    Counters
    --------
    ``relinearized_variables`` / ``relinearized_factors``
        Fluid-relinearization work (non-numeric, runs on CPU).
    ``affected_columns``
        Columns whose symbolic structure was recomputed.
    ``refactored_nodes``
        Supernodes numerically refactorized.
    ``node_parents``
        Parent links among the refactorized supernodes (the scheduler's
        dependency tree), set when the engine's step finishes.
    ``backsub_nodes``
        Supernodes visited by the wildfire back-substitution.
    ``lin_seconds`` / ``lin_batched_factors`` / ``lin_fallback_factors``
        Wall time spent linearizing factors this step and how many
        factors took the batched vs. the per-factor scalar path.
    ``plan_hits`` / ``plan_misses`` / ``plan_compiles``
        Step-plan cache traffic (see :mod:`repro.linalg.plan`): how many
        supernode refactorizations reused a compiled plan vs. missed and
        recompiled one.
    ``refactor_seconds``
        Wall time spent in the plan/execute refactorize phase.
    ``parallel_nodes`` / ``parallel_levels``
        Supernode fronts dispatched to the shared thread pool this step
        and the number of multi-node dependency levels they spanned
        (zero with one worker, where every level runs inline; see
        :mod:`repro.linalg.parallel`).
    ``parallel_task_seconds`` / ``parallel_wall_seconds``
        Summed per-task wall time vs. elapsed time of the dispatched
        levels; their ratio is the achieved concurrency reported as the
        ``wall_speedup`` extra.
    """

    __slots__ = ("trace", "step", "is_last", "relinearized_variables",
                 "relinearized_factors", "affected_columns",
                 "refactored_nodes", "node_parents", "backsub_nodes",
                 "lin_seconds", "lin_batched_factors",
                 "lin_fallback_factors", "plan_hits", "plan_misses",
                 "plan_compiles", "refactor_seconds", "parallel_nodes",
                 "parallel_levels", "parallel_task_seconds",
                 "parallel_wall_seconds", "extras")

    def __init__(self, trace: Optional[OpTrace] = None, step: int = 0,
                 is_last: bool = False):
        self.trace = trace
        self.step = int(step)
        self.is_last = bool(is_last)
        self.relinearized_variables = 0
        self.relinearized_factors = 0
        self.affected_columns = 0
        self.refactored_nodes = 0
        self.node_parents: Optional["ParentMap"] = None
        self.backsub_nodes = 0
        self.lin_seconds = 0.0
        self.lin_batched_factors = 0
        self.lin_fallback_factors = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_compiles = 0
        self.refactor_seconds = 0.0
        self.parallel_nodes = 0
        self.parallel_levels = 0
        self.parallel_task_seconds = 0.0
        self.parallel_wall_seconds = 0.0
        self.extras: Dict[str, float] = {}

    @property
    def enabled(self) -> bool:
        """Whether op tracing is active for this step."""
        return self.trace is not None

    def add_level_stats(self, stats: LevelStats) -> None:
        """Fold one phase's pool-dispatch statistics into the step."""
        self.parallel_nodes += stats.nodes
        self.parallel_levels += stats.levels
        self.parallel_task_seconds += stats.task_seconds
        self.parallel_wall_seconds += stats.wall_seconds

    def node(self, node_id: int, cols: int = 0,
             rows_below: int = 0) -> Optional[NodeTrace]:
        """The per-supernode trace, or None when tracing is disabled."""
        if self.trace is None:
            return None
        return self.trace.node(node_id, cols=cols, rows_below=rows_below)

    def build_report(self, step: int,
                     plan: Optional["SelectionPlan"] = None,
                     ) -> "StepReport":
        """Assemble the uniform :class:`StepReport` for this step;
        ``plan`` supplies the selection visit and deferral counts."""
        from repro.solvers.base import StepReport

        extras = dict(self.extras)
        for name in _EXTRAS_COUNTERS:
            extras.setdefault(name, float(getattr(self, name)))
        extras.setdefault("wall_speedup", float(wall_speedup(
            self.parallel_task_seconds, self.parallel_wall_seconds)))
        return StepReport(
            step=step,
            relinearized_variables=self.relinearized_variables,
            relinearized_factors=self.relinearized_factors,
            affected_columns=self.affected_columns,
            refactored_nodes=self.refactored_nodes,
            trace=self.trace,
            selection_visits=plan.visits if plan is not None else 0,
            deferred_variables=plan.deferred if plan is not None else 0,
            node_parents=self.node_parents,
            extras=extras,
        )
