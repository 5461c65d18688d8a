"""Serving-layer tests: fleet bit-identity, shedding, fault isolation.

The multi-tenant fleet is an execution-strategy change only: with
degradation off, its cross-session sharing (fused linearization, shared
plan cache, merged level scheduling) must leave each session's
estimates bit-identical (atol 0) to a plain per-session ``update()``
loop, and each session's step reports equal to the solo ones.
Degradation sheds relinearization breadth only — the solve of every
admitted step still runs.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import RAISAM2
from repro.core.budget import StepBudget
from repro.factorgraph.factors import BetweenFactorSE2, PriorFactorSE2
from repro.factorgraph.noise import IsotropicNoise
from repro.geometry.se2 import SE2
from repro.hardware import make_platform
from repro.linalg.parallel import ParallelStepExecutor
from repro.runtime.cost_model import NodeCostModel
from repro.serving import (
    FleetConfig,
    OverloadController,
    SessionFleet,
    compare_snapshots,
    default_solver_factory,
    fleet_workload,
    named_fleet_workload,
    run_fleet,
    run_isolated,
    snapshot_estimate,
)
from repro.solvers.base import StepReport
from repro.solvers.isam2 import ISAM2

NOISE2 = IsotropicNoise(3, 0.1)


class _PoisonFactor(BetweenFactorSE2):
    """Raises during linearization.  A subclass fails the batch path's
    exact-type test, so it exercises the scalar fallback — and because
    it raises there, the whole fused call fails and the fleet must
    retry per session to isolate the fault."""

    def error_vector(self, values):
        raise RuntimeError("poisoned factor")


def _raisam2_factory():
    return RAISAM2(NodeCostModel(make_platform("SuperNoVA1S")),
                   target_seconds=1.0 / 30.0)


# -- bit-identity ------------------------------------------------------

def test_fleet_bit_identical_isam2():
    workloads = fleet_workload(5, 16)
    factory = default_solver_factory()
    iso = run_isolated(workloads, factory)
    flt, fleet = run_fleet(workloads, factory,
                           FleetConfig(degrade=False))
    compare_snapshots(iso.snapshots, flt.snapshots, atol=0.0)
    assert not fleet.dead_sessions
    assert flt.steps_completed == iso.steps_completed


def test_fleet_bit_identical_raisam2():
    workloads = fleet_workload(4, 14)
    iso = run_isolated(workloads, _raisam2_factory)
    flt, fleet = run_fleet(workloads, _raisam2_factory,
                           FleetConfig(degrade=False))
    compare_snapshots(iso.snapshots, flt.snapshots, atol=0.0)
    # RA-ISAM2 reports keep their selection counters under the fleet.
    report = flt.reports[2][-1]
    assert report.selection_visits >= 0
    assert "estimated_seconds" in report.extras


def _slambooster_factory():
    return RAISAM2(NodeCostModel(make_platform("SuperNoVA1S")),
                   target_seconds=1.0 / 300.0,
                   budget_controller="slambooster")


#: Extras only the fleet writes.
_FLEET_EXTRAS = {"session_id", "shed_relin_count", "fleet_plan_hits"}
#: Extras that depend on the run, not on the step: wall-clock seconds,
#: plan-cache traffic (the fleet's cache is shared across sessions) and
#: pool-dispatch statistics (the fleet merges levels across sessions).
_RUN_EXTRAS = {"lin_seconds", "refactor_seconds", "plan_hits",
               "plan_misses", "plan_compiles", "parallel_nodes",
               "parallel_levels", "wall_speedup"}


@pytest.mark.parametrize("factory", [
    _slambooster_factory, default_solver_factory()],
    ids=["raisam2", "isam2"])
def test_fleet_reports_equal_solo_reports(factory):
    """Under the fleet each session's step reports what a solo
    ``update()`` reports — the same counters, and the same extras plus
    the fleet's attribution — because both drivers call the solver's
    own ``begin_step``/``end_step``.  The SLAMBooster controller at a
    tight target moves the budget scale off 1.0 on part of the
    kidnapped-robot steps, so ``budget_target_scale`` is exercised."""
    workloads = named_fleet_workload("kidnapped", 3, 40)
    iso = run_isolated(workloads, factory)
    flt, _ = run_fleet(workloads, factory, FleetConfig(degrade=False))
    compare_snapshots(iso.snapshots, flt.snapshots, atol=0.0)
    counters = [f.name for f in dataclasses.fields(StepReport)
                if f.name != "extras"]
    for sid, solo_reports in iso.reports.items():
        assert len(flt.reports[sid]) == len(solo_reports)
        for solo, served in zip(solo_reports, flt.reports[sid]):
            where = f"session {sid} step {solo.step}"
            for name in counters:
                assert getattr(served, name) == getattr(solo, name), \
                    f"{where}: {name}"
            assert set(served.extras) == set(solo.extras) | _FLEET_EXTRAS, \
                where
            for key in set(solo.extras) - _RUN_EXTRAS:
                assert served.extras[key] == solo.extras[key], \
                    f"{where}: {key}"
    scaled = sum("budget_target_scale" in report.extras
                 for reports in iso.reports.values() for report in reports)
    assert (scaled > 0) == (factory is _slambooster_factory)


# -- shared plan cache -------------------------------------------------

def test_shared_cache_cross_session_hits_are_hash_only():
    """Identical-topology sessions hit each other's plans, and the
    production hit path never deep-compares signatures — lookup cost is
    O(1) in the factor count behind the signature."""
    workloads = fleet_workload(6, 15)
    _, fleet = run_fleet(workloads, default_solver_factory(),
                         FleetConfig(degrade=False))
    hits, misses, compiles, deep = fleet.plan_cache.snapshot()
    assert hits > 0
    assert compiles == misses
    # Cross-session sharing: far fewer compiles than one-per-session.
    assert compiles * 2 <= hits + misses
    assert deep == 0, \
        "production lookups must use the precomputed signature hash"


def test_per_session_plan_attribution_under_shared_cache():
    """Each session's report attributes exactly its own cache deltas:
    per report, compiles == misses, and fleet totals equal the sums."""
    workloads = fleet_workload(4, 10)
    flt, fleet = run_fleet(workloads, default_solver_factory(),
                           FleetConfig(degrade=False))
    total_hits = total_misses = 0
    for reports in flt.reports.values():
        for report in reports:
            assert report.extras["plan_compiles"] == \
                report.extras["plan_misses"]
            total_hits += report.extras["plan_hits"]
            total_misses += report.extras["plan_misses"]
    hits, misses, _, _ = fleet.plan_cache.snapshot()
    assert total_hits == hits
    assert total_misses == misses


# -- graceful degradation ----------------------------------------------

def test_plan_selection_shadow_counts_shed():
    """At budget_scale < 1 the shadow nominal budget counts exactly the
    variables the unscaled pass would have admitted; the scaled
    selection is a subset of the nominal one."""
    solver = _raisam2_factory()
    rng = np.random.default_rng(7)
    for i in range(12):
        guess = SE2(i + float(rng.normal(0, 0.3)),
                    float(rng.normal(0, 0.3)), 0.0)
        factors = ([BetweenFactorSE2(i - 1, i, SE2(1, 0, 0), NOISE2)]
                   if i else [PriorFactorSE2(0, SE2(), NOISE2)])
        solver.update({i: guess}, factors)
    new = [BetweenFactorSE2(11, 12, SE2(1, 0, 0), NOISE2),
           BetweenFactorSE2(0, 12, SE2(12, 0, 0), NOISE2)]
    nominal = solver.plan_selection(new)
    assert nominal.shed == 0
    scaled = solver.plan_selection(new, budget_scale=0.05)
    assert set(scaled.selected) <= set(nominal.selected)
    assert scaled.shed == len(nominal.selected) - len(scaled.selected)


def _drifting_workload(session_seed: int, num_steps: int):
    """A chain with *noisy* odometry measurements and exact global loop
    closures back to pose 0: each closure contradicts the accumulated
    drift and displaces many poses at once — a large relinearization
    frontier to shed from.  (Noise-free measurements would be mutually
    consistent, leaving nothing for closures to correct.)"""
    from repro.datasets.pose_graph import TimeStep
    rng = np.random.default_rng(900 + session_seed)
    steps = [TimeStep(key=0, guess=SE2(),
                      factors=[PriorFactorSE2(0, SE2(), NOISE2)])]
    for i in range(1, num_steps):
        guess = SE2(i + float(rng.normal(0, 0.2)),
                    float(rng.normal(0, 0.2)),
                    float(rng.normal(0, 0.1)))
        odom = SE2(1.0 + float(rng.normal(0, 0.15)),
                   float(rng.normal(0, 0.15)),
                   float(rng.normal(0, 0.08)))
        factors = [BetweenFactorSE2(i - 1, i, odom, NOISE2)]
        if i >= 6 and i % 6 == 0:
            factors.append(BetweenFactorSE2(
                0, i, SE2(float(i), 0.0, 0.0), NOISE2))
        steps.append(TimeStep(key=i, guess=guess, factors=factors))
    return steps


def test_shedding_never_sheds_the_solve():
    """Force heavy overload: steps still complete, still refactorize,
    and the shed counts land in the per-session reports."""
    workloads = [_drifting_workload(s, 20) for s in range(4)]
    config = FleetConfig(degrade=True, target_seconds=1e-12)
    factory = default_solver_factory(relin_threshold=1e-4)
    flt, fleet = run_fleet(workloads, factory, config)
    assert fleet.controller.relin_scale < 1.0
    assert fleet.controller.overloaded_rounds > 0
    shed_seen = refactored_seen = 0
    for reports in flt.reports.values():
        for report in reports:
            shed_seen += report.extras["shed_relin_count"]
            refactored_seen += report.refactored_nodes
            # Shedding trims relinearization breadth only: the step
            # still refactorized whatever its admitted work touched.
            assert report.refactored_nodes > 0
    assert shed_seen > 0
    assert fleet.aggregates()["shed_relin_total"] == shed_seen
    # Every session completed every round despite the overload.
    assert flt.steps_completed == sum(len(w) for w in workloads)
    # Degraded estimates still exist for every session and key.
    for sid, handle in fleet.sessions.items():
        assert len(snapshot_estimate(handle.solver)) == \
            len(workloads[int(sid)])


def test_scale_optional_never_touches_mandatory():
    budget = StepBudget(1.0, 1.0)
    budget.charge_mandatory(0.4)  # mandatory spend stays spent
    budget.scale_optional(0.5)
    assert budget.remaining == pytest.approx(0.3)
    # Exhausted budgets (mandatory overrun) are not revived by scaling.
    drained = StepBudget(1.0, 1.0)
    drained.charge_mandatory(2.0)
    remaining = drained.remaining
    drained.scale_optional(0.5)
    assert drained.remaining == remaining
    # Scales above 1.0 clamp: scaling never grows a budget.
    before = budget.remaining
    budget.scale_optional(1.5)
    assert budget.remaining == before
    with pytest.raises(ValueError):
        budget.scale_optional(-0.1)


# -- overload controller ------------------------------------------------

def test_overload_controller_backoff_and_recovery():
    ctl = OverloadController(0.01, alpha=1.0, backoff=0.5, recover=2.0,
                             min_scale=0.1)
    assert ctl.observe(0.1) == pytest.approx(0.5)
    assert ctl.observe(0.1) == pytest.approx(0.25)
    for _ in range(10):
        ctl.observe(0.1)
    assert ctl.relin_scale == pytest.approx(0.1)  # floor holds
    ctl.observe(0.001)
    assert ctl.relin_scale == pytest.approx(0.2)  # geometric recovery
    for _ in range(10):
        ctl.observe(0.001)
    assert ctl.relin_scale == 1.0  # capped


def test_overload_controller_validation_and_budget():
    with pytest.raises(ValueError):
        OverloadController(0.0)
    with pytest.raises(ValueError):
        OverloadController(0.01, alpha=0.0)
    with pytest.raises(ValueError):
        OverloadController(0.01, backoff=1.0)
    with pytest.raises(ValueError):
        OverloadController(0.01, recover=1.0)
    with pytest.raises(ValueError):
        OverloadController(0.01, min_scale=0.0)
    ctl = OverloadController(0.01, alpha=1.0, backoff=0.5, recover=2.0)
    assert ctl.relin_scale == 1.0
    assert ctl.observe(1.0) == 0.5  # overload halves the scale
    assert ctl.relin_scale == 0.5


# -- fault isolation ----------------------------------------------------

def test_dead_session_does_not_poison_the_fleet():
    workloads = fleet_workload(4, 12)
    factory = default_solver_factory()
    fleet = SessionFleet(FleetConfig(degrade=False))
    for sid in range(len(workloads)):
        fleet.add_session(str(sid), factory())
    for t in range(len(workloads[0])):
        inputs = {}
        for sid, steps in enumerate(workloads):
            step = steps[t]
            factors = list(step.factors)
            if sid == 2 and t == 6:
                factors.append(_PoisonFactor(0, 1, SE2(1, 0, 0), NOISE2))
            inputs[str(sid)] = ({step.key: step.guess}, factors)
        reports = fleet.step(inputs)
        if t >= 6:
            assert "2" not in reports
            assert set(reports) == {"0", "1", "3"}
    dead = fleet.sessions["2"]
    assert not dead.alive
    assert isinstance(dead.error, RuntimeError)
    assert len(fleet.dead_sessions) == 1
    # Survivors match isolated sessions bit for bit despite the death.
    iso = run_isolated([workloads[s] for s in (0, 1, 3)], factory)
    survivors = {i: snapshot_estimate(fleet.sessions[str(s)].solver)
                 for i, s in enumerate((0, 1, 3))}
    compare_snapshots(iso.snapshots, survivors, atol=0.0)


def test_add_session_rejects_duplicates_and_bad_solvers():
    fleet = SessionFleet()
    fleet.add_session("a", ISAM2())
    with pytest.raises(ValueError):
        fleet.add_session("a", ISAM2())
    with pytest.raises(TypeError):
        fleet.add_session("b", object())


# -- report plumbing ----------------------------------------------------

def test_as_dict_preserves_every_extras_key():
    report = StepReport(step=3, refactored_nodes=2,
                        extras={"session_id": 7.0,
                                "shed_relin_count": 4.0,
                                "fleet_plan_hits": 11.0,
                                "custom_probe": 1.5})
    flat = report.as_dict()
    assert flat["step"] == 3.0
    assert flat["refactored_nodes"] == 2.0
    for key, value in report.extras.items():
        assert flat[key] == value


@pytest.mark.parametrize("workers", [1, 2])
def test_aggregates_report_merged_level_dispatches(workers):
    """The merged refactorization levels' pool statistics reach the
    fleet aggregates (no session report carries them).  One worker runs
    every level inline: nothing dispatched, speedup 1.0."""
    _, fleet = run_fleet(fleet_workload(6, 30), default_solver_factory(),
                         FleetConfig(workers=workers, degrade=False))
    agg = fleet.aggregates()
    if workers == 1:
        assert agg["parallel_nodes"] == agg["parallel_levels"] == 0.0
        assert agg["wall_speedup"] == 1.0
    else:
        # Six identical-topology sessions: every merged level holds at
        # least one front per session.
        assert agg["parallel_levels"] > 0.0
        assert agg["parallel_nodes"] >= 6 * agg["parallel_levels"]
        assert agg["wall_speedup"] > 0.0


def test_fleet_reports_carry_serving_extras():
    workloads = fleet_workload(3, 8)
    flt, _ = run_fleet(workloads, default_solver_factory(),
                       FleetConfig(degrade=False))
    for sid, reports in flt.reports.items():
        for report in reports:
            assert report.extras["session_id"] == float(sid)
            assert report.extras["shed_relin_count"] == 0.0
            assert report.extras["fleet_plan_hits"] >= 0.0
            assert set(report.extras) <= set(report.as_dict())


# -- level-scheduler priorities ----------------------------------------

def test_run_level_priorities_keep_task_order():
    """Priorities reorder only the submit order: results always come
    back in task order, bit-identical with or without priorities."""
    executor = ParallelStepExecutor(2)
    tasks = [lambda i=i: i * 10 for i in range(8)]
    priorities = [float(i % 3) for i in range(8)]
    plain = executor.run_level(tasks)
    ranked = executor.run_level(tasks, priorities=priorities)
    assert plain == ranked == [i * 10 for i in range(8)]
