"""Single-sourced step loop: solve -> trace -> price-on-SoC -> errors.

Every latency and accuracy figure streams a dataset through a solver and
records something per step.  The loop used to be copy-pasted across the
streaming harness, the experiment caches and several examples; it now
lives here once, with the per-step observations expressed as pluggable
:class:`PipelineStage` hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.hardware.platforms import SoCConfig
from repro.instrumentation import StepContext
from repro.linalg.trace import OpTrace
from repro.metrics.ape import irmse, translation_errors
from repro.policy import describe_policies
from repro.runtime.executor import StepLatency, execute_step
from repro.runtime.scheduler import RuntimeFeatures
from repro.solvers.base import StepReport
from repro.validate import current_auditor

if TYPE_CHECKING:
    from repro.datasets.pose_graph import PoseGraphDataset


@dataclass
class OnlineRun:
    """Everything recorded while streaming a dataset through a solver."""

    dataset: str
    solver: str
    #: Policy metadata of the solver that produced the run
    #: (``{"selection": ..., "budget_controller": ...}``; ``None``
    #: entries for solvers without the knob).  Labels ablation rows
    #: and keeps saved runs self-describing.
    policies: dict = field(default_factory=dict)
    reports: List[StepReport] = field(default_factory=list)
    latencies: List[StepLatency] = field(default_factory=list)
    step_max_error: List[float] = field(default_factory=list)
    step_rmse: List[float] = field(default_factory=list)

    @property
    def final_max_error(self) -> float:
        return self.step_max_error[-1] if self.step_max_error else 0.0

    @property
    def irmse(self) -> float:
        return irmse(self.step_rmse)

    @property
    def max_over_steps(self) -> float:
        """MAX metric: worst per-step maximum error (Table 4 upper rows)."""
        return max(self.step_max_error) if self.step_max_error else 0.0

    def latency_seconds(self) -> List[float]:
        return [lat.total for lat in self.latencies]


class PipelineStage:
    """Per-step observation hook.

    ``on_step`` runs after the solver processed the step; ``finish`` runs
    once after the last step.  Stages read the solver/dataset through the
    pipeline and append whatever they measure to the run (or to their own
    state, like :class:`SnapshotStage`).
    """

    def on_step(self, pipeline: "BackendPipeline", ctx: StepContext,
                report: StepReport, run: OnlineRun) -> None:
        raise NotImplementedError

    def finish(self, pipeline: "BackendPipeline", run: OnlineRun) -> None:
        """Optional end-of-run hook (batched/async stages flush here)."""


class PricingStage(PipelineStage):
    """Price each step's op trace on a platform (paper Figs. 8/10/11)."""

    def __init__(self, soc: SoCConfig,
                 features: RuntimeFeatures = RuntimeFeatures.all()):
        self.soc = soc
        self.features = features

    def price(self, report: StepReport) -> StepLatency:
        return execute_step(report, self.soc, report.node_parents,
                            self.features)

    def on_step(self, pipeline, ctx, report, run) -> None:
        run.latencies.append(self.price(report))


class ErrorSamplingStage(PipelineStage):
    """Per-step trajectory error against a reference (paper Section 5.3).

    Evaluates every ``every`` steps plus the final step; uses the given
    per-step ``reference`` estimates when provided, else the dataset's
    ground truth.
    """

    def __init__(self, every: int = 1, reference: Optional[List] = None):
        self.every = max(1, int(every))
        self.reference = reference

    def on_step(self, pipeline, ctx, report, run) -> None:
        if ctx.step % self.every and not ctx.is_last:
            return
        estimate = pipeline.solver.estimate()
        target = (self.reference[ctx.step] if self.reference is not None
                  else pipeline.dataset.ground_truth)
        keys = [k for k in estimate.keys() if k in target]
        errors = translation_errors(estimate, target, keys)
        if errors.size:
            run.step_max_error.append(float(errors.max()))
            run.step_rmse.append(float(np.sqrt(np.mean(errors ** 2))))


class SnapshotStage(PipelineStage):
    """Capture the solver's full estimate after every step (reference
    trajectories, offline analysis)."""

    def __init__(self):
        self.snapshots: List = []

    def on_step(self, pipeline, ctx, report, run) -> None:
        self.snapshots.append(pipeline.solver.estimate())


class BackendPipeline:
    """Owns the online step loop for one solver.

    Parameters
    ----------
    solver:
        Any object with ``update(new_values, new_factors, context=...)``
        and ``estimate()``; the step's op trace travels on the
        :class:`~repro.instrumentation.StepContext`.
    stages:
        :class:`PipelineStage` hooks run in order after each step.
    collect_traces:
        Attach an :class:`OpTrace` to every step's context (required by
        any pricing stage; costs trace-recording time when enabled).
    """

    def __init__(self, solver, stages: Sequence[PipelineStage] = (),
                 collect_traces: bool = False):
        self.solver = solver
        self.stages = list(stages)
        self.collect_traces = bool(collect_traces)
        self.dataset: Optional["PoseGraphDataset"] = None

    def run(self, dataset: "PoseGraphDataset",
            max_steps: Optional[int] = None) -> OnlineRun:
        """Stream the dataset through the solver step by step.

        ``max_steps=None`` runs the whole dataset; ``max_steps=0`` runs
        nothing (it used to be truthiness-tested and silently ran
        everything); negative values are rejected.
        """
        if max_steps is not None and max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps}")
        self.dataset = dataset
        run = OnlineRun(dataset=dataset.name,
                        solver=type(self.solver).__name__,
                        policies=describe_policies(self.solver))
        steps = dataset.steps if max_steps is None \
            else dataset.steps[:max_steps]
        last = len(steps) - 1
        for index, step in enumerate(steps):
            ctx = StepContext(
                OpTrace() if self.collect_traces else None,
                step=index, is_last=index == last)
            report = self.solver.update({step.key: step.guess},
                                        step.factors, context=ctx)
            run.reports.append(report)
            for stage in self.stages:
                stage.on_step(self, ctx, report, run)
        for stage in self.stages:
            stage.finish(self, run)
        aud = current_auditor()
        if aud is not None:
            self._audit_run(aud, run, len(steps))
        return run

    def _audit_run(self, aud, run: OnlineRun, num_steps: int) -> None:
        """Per-run accounting invariants (audit mode only)."""
        aud.record("pipeline-run", dataset=run.dataset,
                   solver=run.solver, steps=num_steps)
        aud.check(len(run.reports) == num_steps, "pipeline-reports",
                  "one report per processed step",
                  reports=len(run.reports), steps=num_steps)
        step_ids = [r.step for r in run.reports]
        aud.check(step_ids == sorted(set(step_ids)), "pipeline-reports",
                  "report step ids must be strictly increasing",
                  steps=step_ids[:16])
        for report in run.reports:
            hits = report.extras.get("plan_hits", 0.0)
            misses = report.extras.get("plan_misses", 0.0)
            compiles = report.extras.get("plan_compiles", 0.0)
            aud.check(hits >= 0.0 and misses >= 0.0 and compiles >= 0.0,
                      "plan-counters",
                      "plan-cache counters must be non-negative",
                      step=report.step, hits=hits, misses=misses,
                      compiles=compiles)
            aud.check(compiles == misses, "plan-counters",
                      "every plan-cache miss compiles exactly one plan",
                      step=report.step, misses=misses, compiles=compiles)
        if any(isinstance(s, PricingStage) for s in self.stages):
            aud.check(len(run.latencies) == num_steps,
                      "pipeline-latencies",
                      "one priced latency per processed step",
                      latencies=len(run.latencies), steps=num_steps)
            bad = [lat.total for lat in run.latencies
                   if not lat.total >= 0.0]
            aud.check(not bad, "pipeline-latencies",
                      "negative per-step latency", bad=bad[:8])


def reprice_run(run: OnlineRun, soc: SoCConfig,
                features: RuntimeFeatures = RuntimeFeatures.all(),
                ) -> List[StepLatency]:
    """Re-price an existing run's traces on a different platform."""
    stage = PricingStage(soc, features)
    return [stage.price(report) for report in run.reports]
