"""Per-step instrumentation context shared by all backend solvers."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.linalg.trace import NodeTrace, OpTrace

if TYPE_CHECKING:  # solvers.base imports stay lazy: solvers import us
    from repro.linalg.parallel import LevelStats
    from repro.solvers.base import ParentMap, StepReport


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
    ``relin_variables`` / ``relin_factors``
        Fluid-relinearization work (non-numeric, runs on CPU).
    ``symbolic``
        Columns whose symbolic structure was recomputed.
    ``numeric``
        Supernodes numerically refactorized.
    ``backsub``
        Supernodes visited by the wildfire back-substitution.
    ``lin_seconds`` / ``lin_batched`` / ``lin_fallback``
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

    __slots__ = ("trace", "step", "is_last", "relin_variables",
                 "relin_factors", "symbolic", "numeric", "backsub",
                 "lin_seconds", "lin_batched", "lin_fallback",
                 "plan_hits", "plan_misses", "plan_compiles",
                 "refactor_seconds", "parallel_nodes", "parallel_levels",
                 "parallel_task_seconds", "parallel_wall_seconds",
                 "extras")

    def __init__(self, trace: Optional[OpTrace] = None, step: int = 0,
                 is_last: bool = False):
        self.trace = trace
        self.step = int(step)
        self.is_last = bool(is_last)
        self.relin_variables = 0
        self.relin_factors = 0
        self.symbolic = 0
        self.numeric = 0
        self.backsub = 0
        self.lin_seconds = 0.0
        self.lin_batched = 0
        self.lin_fallback = 0
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

    def add_level_stats(self, stats: "LevelStats") -> None:
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
                     node_parents: Optional["ParentMap"] = None,
                     selection_visits: int = 0,
                     deferred_variables: int = 0) -> "StepReport":
        """Assemble the uniform :class:`StepReport` for this step."""
        from repro.solvers.base import StepReport

        extras = dict(self.extras)
        extras.setdefault("backsub_nodes", float(self.backsub))
        extras.setdefault("lin_seconds", float(self.lin_seconds))
        extras.setdefault("lin_batched_factors", float(self.lin_batched))
        extras.setdefault("lin_fallback_factors", float(self.lin_fallback))
        extras.setdefault("plan_hits", float(self.plan_hits))
        extras.setdefault("plan_misses", float(self.plan_misses))
        extras.setdefault("plan_compiles", float(self.plan_compiles))
        extras.setdefault("refactor_seconds", float(self.refactor_seconds))
        extras.setdefault("parallel_nodes", float(self.parallel_nodes))
        extras.setdefault("parallel_levels", float(self.parallel_levels))
        extras.setdefault(
            "wall_speedup",
            float(self.parallel_task_seconds / self.parallel_wall_seconds)
            if self.parallel_wall_seconds > 0.0 else 1.0)
        return StepReport(
            step=step,
            relinearized_variables=self.relin_variables,
            relinearized_factors=self.relin_factors,
            affected_columns=self.symbolic,
            refactored_nodes=self.numeric,
            trace=self.trace,
            selection_visits=selection_visits,
            deferred_variables=deferred_variables,
            node_parents=node_parents,
            extras=extras,
        )
