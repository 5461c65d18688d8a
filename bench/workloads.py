"""The benchmark's workloads: seeded inputs, one timed episode, checks.

Each workload is a closed loop in one process: the next step (or fleet
round, or autotune sweep) starts when the previous one returns.  An
*episode* is one fixed unit of work -- a fresh solver streamed through
one dataset, a fresh fleet through every round, or one full design
sweep.  A run repeats whole *cycles* of the workload's ``distinct``
episodes (one per seeded input), so every run pools the same mix of
samples however many cycles it fits.  The first cycle's results are
the ones checked.

Inputs keep a fixed structure per workload -- trajectory, loop-closure
graph and ground truth come from the dataset generator's default seed
-- and take fresh measurement noise from ``--seed`` (:func:`renoise`).
The CAB and M3500 generators draw their random walks from the same
seed as their noise, and a different walk changes the step costs and
the achievable accuracy far more than noise does; pinning the walk
keeps runs with different seeds comparable.

Simulated latency and accuracy do not depend on the host, but they do
depend on the noise draw (by 1-11% between seeds).  They are computed
by :meth:`Workload.accuracy` on the inputs of :data:`REFERENCE_SEED`,
so they read the same in every run of one commit and any change in
them is a change in the code.

Ops are timed from outside, around the public call the user makes
(``solver.update``, ``SessionFleet.step``, ``autotune``); nothing under
``src/`` is modified.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

import repro.hardware.autotune as tuning
from repro.core import RAISAM2
from repro.datasets import (
    cab1_dataset,
    cab2_dataset,
    kidnapped_robot_dataset,
    manhattan_dataset,
    run_online,
    sphere_dataset,
)
from repro.datasets.pose_graph import PoseGraphDataset, TimeStep
from repro.factorgraph import FactorGraph
from repro.factorgraph.factors import BetweenFactorSE2, BetweenFactorSE3
from repro.hardware.registry import make_platform
from repro.hardware.spec import realize
from repro.metrics.ape import ape_statistics
from repro.runtime import NodeCostModel, execute_step
from repro.serving import (
    FleetConfig,
    SessionFleet,
    compare_snapshots,
    default_solver_factory,
    run_isolated,
    snapshot_estimate,
)
from repro.solvers import GaussNewton, ISAM2

#: The paper's per-step deadline: 30 FPS (Fig. 10).
TARGET_SECONDS = 1.0 / 30.0
#: Platform every step is priced on, as ``repro simulate`` does by default.
PLATFORM = "SuperNoVA2S"
#: Seed of the inputs the simulated-latency and accuracy metrics use.
REFERENCE_SEED = 0

_BETWEEN = (BetweenFactorSE2, BetweenFactorSE3)
#: StepReport counters summed per episode for the per-layer metrics.
_REPORT_FIELDS = ("affected_columns", "selection_visits",
                  "deferred_variables", "relinearized_variables")
_EXTRA_FIELDS = ("lin_batched_factors", "lin_fallback_factors",
                 "plan_hits", "plan_misses")

Check = Tuple[str, bool, str]


@dataclass
class Episode:
    """What one episode measured."""

    latencies: List[float]     # host seconds of each op, successes only
    ops: int                   # ops attempted (steps, rounds, sweeps)
    work: int                  # throughput units (steps, session-steps,
                               # configs) attempted
    failed: int                # work units that raised or were dropped
    counts: Dict[str, float] = field(default_factory=dict)
    kept: Any = None           # state for checks/accuracy (first cycle)


class OpTimer:
    """Times each op from outside; under a tracer also opens its root span."""

    def __init__(self, tracer=None):
        self.latencies: List[float] = []
        self.tracer = tracer

    def __call__(self, fn: Callable, *args, **kwargs):
        span = contextlib.nullcontext()
        if self.tracer is not None:
            self.tracer.op += 1
            span = self.tracer.span("bench.op")
        with span:
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.latencies.append(time.perf_counter() - start)
        return out


def renoise(data: PoseGraphDataset, seed: int) -> PoseGraphDataset:
    """``data``'s structure and ground truth with fresh odometry and
    loop-closure noise, and initial guesses dead-reckoned from it.

    Every between-factor is re-measured from ground truth with its own
    noise model's sigmas; priors and non-odometry guesses are kept.
    """
    rng = np.random.default_rng(seed)
    truth = data.ground_truth
    guesses: Dict = {}
    steps = []
    for step in data.steps:
        factors = []
        for factor in step.factors:
            if isinstance(factor, _BETWEEN):
                a, b = factor.keys
                sigmas = factor.noise.sigmas
                measured = truth[a].between(truth[b]).retract(
                    rng.normal(size=sigmas.size) * sigmas)
                factor = type(factor)(a, b, measured, factor.noise)
            factors.append(factor)
        odometry = factors[0] if factors else None
        if (isinstance(odometry, _BETWEEN)
                and odometry.keys == (step.key - 1, step.key)):
            guess = guesses[step.key - 1].compose(odometry.measured)
        else:
            guess = step.guess
        guesses[step.key] = guess
        steps.append(TimeStep(step.key, guess, factors))
    return PoseGraphDataset(data.name, steps, truth, data.is_3d)


def report_counts(reports: Sequence) -> Dict[str, float]:
    """Per-layer counters summed over a sequence of StepReports."""
    counts = {name: 0.0 for name in _REPORT_FIELDS + _EXTRA_FIELDS}
    for report in reports:
        for name in _REPORT_FIELDS:
            counts[name] += getattr(report, name)
        for name in _EXTRA_FIELDS:
            counts[name] += report.extras.get(name, 0.0)
    return counts


def ape_ratio(estimate, data: PoseGraphDataset) -> float:
    """Final translation APE RMSE over that of the batch optimum.

    The optimum is Gauss-Newton on the whole graph, started from the
    estimate.  Dividing by it cancels how hard the noise draw made the
    problem, which moves APE itself by tens of percent between seeds.
    """
    graph = FactorGraph()
    for step in data.steps:
        for factor in step.factors:
            graph.add(factor)
    optimum = GaussNewton(max_iterations=20).optimize(graph, estimate)
    keys = list(data.ground_truth)
    return (ape_statistics(estimate, data.ground_truth, keys)["rmse"]
            / ape_statistics(optimum.values, data.ground_truth,
                             keys)["rmse"])


def _estimate_checks(label: str, solver) -> List[Check]:
    """The engine's own invariants hold and every estimate is finite."""
    checks: List[Check] = []
    try:
        solver.engine.check_invariants()
        checks.append((f"{label}: engine invariants", True, ""))
    except AssertionError as exc:
        checks.append((f"{label}: engine invariants", False, str(exc)))
    estimate = solver.estimate()
    bad = [key for key in estimate.keys()
           if not np.isfinite(estimate.at(key).matrix()).all()]
    checks.append((f"{label}: finite estimates", not bad,
                   f"non-finite keys {bad[:5]}" if bad else ""))
    return checks


def _print_failure() -> None:
    """An op raised: report it and keep measuring the rest of the run."""
    traceback.print_exc(file=sys.stderr)


class Workload:
    """Interface every workload implements."""

    name = ""
    why = ""
    op = ""          # what one latency sample is
    distinct = 1     # episodes per cycle, one per seeded input
    #: Host seconds within which one op is on time.
    deadline = TARGET_SECONDS
    #: Whether op times follow the interpreter's speed, and so are
    #: divided by the host slowness (README.md, "Host speed").
    interpreter_bound = True

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def episode(self, inputs: Any, index: int, tracer=None) -> Episode:
        raise NotImplementedError

    def accuracy(self, inputs: Any) -> Tuple[List[float], float]:
        """Simulated cycles per step and the APE ratio, from one untimed
        pass over ``inputs``."""
        raise NotImplementedError

    def checks(self, inputs: Any, kept: List[Any]) -> List[Check]:
        raise NotImplementedError


@dataclass
class _SoloInputs:
    soc: Any
    datasets: List[PoseGraphDataset]


class SoloWorkload(Workload):
    """RA-ISAM2 streamed through a dataset, priced per step on the SoC.

    The loop is ``repro simulate``'s: :func:`run_online` with the
    platform attached, so every step records its op trace and is priced
    by ``execute_step``; the harness times each ``solver.update``.
    """

    op = "step"

    def __init__(self, name: str, why: str, factory: Callable,
                 ordering: str, distinct: int,
                 interpreter_bound: bool = True):
        self.name = name
        self.why = why
        self.factory = factory
        self.ordering = ordering
        self.distinct = distinct
        self.interpreter_bound = interpreter_bound

    def setup(self, seed: int) -> _SoloInputs:
        base = self.factory()
        return _SoloInputs(
            make_platform(PLATFORM),
            [renoise(base, seed * self.distinct + i)
             for i in range(self.distinct)])

    def _solver(self, inputs: _SoloInputs) -> RAISAM2:
        return RAISAM2(NodeCostModel(inputs.soc),
                       target_seconds=TARGET_SECONDS,
                       ordering=self.ordering)

    def episode(self, inputs: _SoloInputs, index: int,
                tracer=None) -> Episode:
        data = inputs.datasets[index % self.distinct]
        solver = self._solver(inputs)
        timer = OpTimer(tracer)
        solver.update = functools.partial(timer, solver.update)
        steps = len(data.steps)
        try:
            run = run_online(solver, data, soc=inputs.soc,
                             collect_errors=False)
        except Exception:
            _print_failure()
            return Episode(timer.latencies, steps, steps,
                           steps - len(timer.latencies))
        return Episode(timer.latencies, steps, steps, 0,
                       report_counts(run.reports),
                       solver if index < self.distinct else None)

    def accuracy(self, inputs):
        cycles: List[float] = []
        ratios = []
        for data in inputs.datasets:
            solver = self._solver(inputs)
            run = run_online(solver, data, soc=inputs.soc,
                             collect_errors=False)
            cycles.extend(seconds * inputs.soc.frequency_hz
                          for seconds in run.latency_seconds())
            ratios.append(ape_ratio(solver.estimate(), data))
        return cycles, float(np.mean(ratios))

    def checks(self, inputs, kept):
        checks: List[Check] = []
        for i, solver in enumerate(kept):
            checks.extend(_estimate_checks(f"dataset {i}", solver))
        return checks


@dataclass
class _FleetInputs:
    soc: Any
    datasets: List[PoseGraphDataset]
    rounds: List[Dict]
    sampled: List[int]


class FleetWorkload(Workload):
    """Plain-ISAM2 sessions served in lockstep rounds by a SessionFleet.

    Driven as ``repro serve-bench --no-degrade`` drives it; the harness
    times each ``SessionFleet.step`` round.  The kidnapped-robot
    generator's structure does not depend on its seed, so each session
    simply takes its own seed.
    """

    name = "fleet32"
    why = ("32 ISAM2 sessions with synchronized kidnapped-robot bursts: "
           "fused linearization, shared plan cache, merged levels; "
           "no selection or pricing")
    op = "round"
    distinct = 1

    def __init__(self, sessions: int, rounds: int):
        self.sessions = sessions
        self.rounds = rounds

    def setup(self, seed: int) -> _FleetInputs:
        datasets = [
            kidnapped_robot_dataset(scale=self.rounds / 400.0,
                                    seed=seed * self.sessions + s)
            .truncated(self.rounds)
            for s in range(self.sessions)]
        rounds = [{str(s): ({d.steps[t].key: d.steps[t].guess},
                            d.steps[t].factors)
                   for s, d in enumerate(datasets)}
                  for t in range(self.rounds)]
        rng = np.random.default_rng(seed)
        sampled = sorted(int(s) for s in rng.choice(
            self.sessions, size=min(2, self.sessions), replace=False))
        return _FleetInputs(make_platform(PLATFORM), datasets, rounds,
                            sampled)

    def _fleet(self, collect_traces: bool = False) -> SessionFleet:
        fleet = SessionFleet(FleetConfig(degrade=False,
                                         collect_traces=collect_traces))
        factory = default_solver_factory()
        for s in range(self.sessions):
            fleet.add_session(str(s), factory())
        return fleet

    def episode(self, inputs: _FleetInputs, index: int,
                tracer=None) -> Episode:
        fleet = self._fleet()
        timer = OpTimer(tracer)
        counts: Dict[str, float] = {}
        failed = 0
        for session_inputs in inputs.rounds:
            try:
                reports = timer(fleet.step, session_inputs)
            except Exception:
                _print_failure()
                reports = {}
            failed += len(session_inputs) - len(reports)
            for name, value in report_counts(
                    list(reports.values())).items():
                counts[name] = counts.get(name, 0.0) + value
        aggregates = fleet.aggregates()
        for name in ("fleet_plan_hits", "fleet_plan_misses",
                     "sessions_dead"):
            counts[name] = aggregates[name]
        return Episode(timer.latencies, self.rounds,
                       self.sessions * self.rounds, failed, counts,
                       fleet if index < self.distinct else None)

    def accuracy(self, inputs):
        """Every session's steps priced on the SoC, from a fleet pass
        that records op traces."""
        fleet = self._fleet(collect_traces=True)
        for session_inputs in inputs.rounds:
            fleet.step(session_inputs)
        sim = [execute_step(report, inputs.soc, report.node_parents).total
               * inputs.soc.frequency_hz
               for handle in fleet.sessions.values()
               for report in handle.reports]
        ratio = float(np.mean([
            ape_ratio(fleet.sessions[str(s)].solver.estimate(), data)
            for s, data in enumerate(inputs.datasets)]))
        return sim, ratio

    def checks(self, inputs, kept):
        fleet = kept[0]
        dead = [h.session_id for h in fleet.dead_sessions]
        checks: List[Check] = [("every session alive", not dead,
                                f"dead sessions {dead}" if dead else "")]
        isolated = run_isolated(
            [inputs.datasets[s].steps for s in inputs.sampled],
            default_solver_factory())
        served = {i: snapshot_estimate(fleet.sessions[str(s)].solver)
                  for i, s in enumerate(inputs.sampled)}
        label = f"sessions {inputs.sampled} bit-identical to isolated"
        try:
            compare_snapshots(isolated.snapshots, served, atol=0.0)
            checks.append((label, True, ""))
        except AssertionError as exc:
            checks.append((label, False, str(exc)))
        return checks


@dataclass
class _AutotuneInputs:
    recorded: Any
    grid: List
    estimate: Any
    data: PoseGraphDataset
    sampled: List[int]


class AutotuneWorkload(Workload):
    """Design-space sweeps replayed over a trace recorded in set-up.

    Set-up records an ISAM2 run on ``SuperNoVA2S`` (what ``repro
    autotune`` replays); each op is one ``autotune()`` sweep over the
    1024-point default grid, so only pricing and scheduling run.
    """

    name = "autotune"
    why = ("1024-config design sweeps over a recorded CAB2 trace: "
           "simulate_tree and the lane-pricing memo only, no solver work")
    op = "sweep"
    distinct = 1

    def __init__(self, scale: float):
        self.scale = scale
        # A sweep is on time when it prices its configs at one per frame.
        self.deadline = TARGET_SECONDS * len(tuning.default_grid())

    def setup(self, seed: int) -> _AutotuneInputs:
        data = renoise(cab2_dataset(scale=self.scale), seed)
        solver = ISAM2(relin_threshold=0.05)
        run = run_online(solver, data, soc=make_platform(PLATFORM),
                         collect_errors=False)
        grid = tuning.default_grid()
        rng = np.random.default_rng(seed)
        sampled = sorted(int(i) for i in rng.choice(len(grid), size=3,
                                                    replace=False))
        return _AutotuneInputs(tuning.RecordedWorkload.from_run(run), grid,
                               solver.estimate(), data, sampled)

    def episode(self, inputs: _AutotuneInputs, index: int,
                tracer=None) -> Episode:
        timer = OpTimer(tracer)
        configs = len(inputs.grid)
        try:
            # Looked up on the module so a tracer's wrapper is seen.
            result = timer(tuning.autotune, inputs.recorded, inputs.grid)
        except Exception:
            _print_failure()
            return Episode(timer.latencies, 1, configs, configs)
        counts = {"distinct_schedules": float(result.distinct_schedules),
                  "distinct_pricings": float(result.distinct_pricings)}
        return Episode(timer.latencies, 1, configs, 0, counts,
                       result if index < self.distinct else None)

    def accuracy(self, inputs):
        """Each design's simulated latency per recorded step (what the
        sweep computes), and the recorded run's APE ratio."""
        result = tuning.autotune(inputs.recorded, inputs.grid)
        steps = len(inputs.recorded.steps)
        return ([total / steps * point.spec().frequency_hz
                 for total, point in zip(result.total_seconds, inputs.grid)],
                ape_ratio(inputs.estimate, inputs.data))

    def checks(self, inputs, kept):
        """Sampled configs match direct ``execute_step`` pricing.

        The numeric part is summed in the same order on both sides and
        must match bit for bit; totals add the host terms in another
        order, so they match to a relative 1e-12.
        """
        result = kept[0]
        checks: List[Check] = []
        for i in inputs.sampled:
            point = inputs.grid[i]
            soc = realize(point.spec())
            latencies = [execute_step(r, soc, r.node_parents)
                         for r in inputs.recorded.steps]
            numeric = 0.0
            for latency in latencies:
                numeric += latency.numeric
            total = sum(latency.total for latency in latencies)
            ok = bool(result.numeric_seconds[i] == numeric
                      and abs(result.total_seconds[i] - total)
                      <= 1e-12 * abs(total))
            checks.append((
                f"config {point.label} priced as execute_step", ok,
                "" if ok else
                f"numeric {result.numeric_seconds[i]!r} vs {numeric!r}, "
                f"total {result.total_seconds[i]!r} vs {total!r}"))
        return checks


def make_workloads(tiny: bool = False) -> Dict[str, Workload]:
    """The benchmark's workloads by name (``tiny``: smoke-test sizes)."""
    cab1, sphere, m3500 = (0.03, 0.02, 0.02) if tiny else (0.5, 0.0725, 0.06)
    ring = 10 if tiny else 50
    workloads = [
        SoloWorkload(
            "cab1",
            "RA-ISAM2 on CAB1 AR covisibility closures: largest "
            "linearization and selection share, mid-size fronts",
            functools.partial(cab1_dataset, scale=cab1), "chronological",
            1 if tiny else 2),
        SoloWorkload(
            "sphere",
            "RA-ISAM2 on SE(3) Sphere rings: large dense fronts, "
            "factorize_node dominates; where dense-kernel and BLAS "
            "changes show",
            functools.partial(sphere_dataset, scale=sphere,
                              poses_per_ring=ring),
            "chronological", 1, interpreter_bound=False),
        SoloWorkload(
            "m3500",
            "RA-ISAM2 on M3500 with constrained_colamd: many tiny fronts, "
            "periodic re-ordering, pricing-heavy; bypasses dense kernels",
            functools.partial(manhattan_dataset, scale=m3500),
            "constrained_colamd", 1 if tiny else 3),
        FleetWorkload(sessions=3, rounds=20) if tiny
        else FleetWorkload(sessions=32, rounds=150),
        AutotuneWorkload(scale=0.005 if tiny else 0.015),
    ]
    return {w.name: w for w in workloads}
