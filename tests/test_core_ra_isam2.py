"""Tests for relevance scoring, Algorithm 1, budgets, and RA-ISAM2."""

import numpy as np
import pytest

from repro.core import RAISAM2, RelinCostEstimator, StepBudget, \
    relevance_scores
from repro.factorgraph import BetweenFactorSE2, IsotropicNoise, \
    PriorFactorSE2
from repro.geometry import SE2
from repro.hardware import make_platform
from repro.instrumentation import StepContext
from repro.linalg.trace import OpTrace
from repro.runtime import NodeCostModel, execute_step
from repro.solvers import ISAM2, IncrementalEngine

NOISE = IsotropicNoise(3, 0.1)


def build_engine(n=12, closure=None, noise_scale=0.3, seed=0):
    rng = np.random.default_rng(seed)
    engine = IncrementalEngine(wildfire_tol=0.0)
    engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
    for i in range(1, n):
        guess = SE2(i + rng.normal(0, noise_scale),
                    rng.normal(0, noise_scale), rng.normal(0, 0.1))
        factors = [BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0), NOISE)]
        if closure == i:
            factors.append(BetweenFactorSE2(
                0, i, SE2(float(i), 0.0, 0.0), NOISE))
        engine.update({i: guess}, factors)
    return engine


class TestRelevanceScores:
    def test_sorted_descending(self):
        engine = build_engine()
        scores = relevance_scores(engine)
        values = [s for s, _ in scores]
        assert values == sorted(values, reverse=True)

    def test_floor_filters(self):
        engine = build_engine()
        all_scores = relevance_scores(engine, floor=0.0)
        some = relevance_scores(engine, floor=0.05)
        assert len(some) <= len(all_scores)
        assert all(s > 0.05 for s, _ in some)

    def test_scores_are_delta_norms(self):
        engine = build_engine()
        norms = engine.delta_norms()
        for score, key in relevance_scores(engine):
            assert score == pytest.approx(norms[key])


class TestRelinCostEstimator:
    def make(self, engine, sets=1):
        model = NodeCostModel(make_platform(f"SuperNoVA{sets}S"))
        return RelinCostEstimator(engine, model)

    def test_cost_positive(self):
        engine = build_engine()
        estimator = self.make(engine)
        assert estimator.relin_cost(5) > 0

    def test_deep_variable_costs_more(self):
        # Variable 1 is deep in the tree (long path to root); variable 10
        # is near the root.  Fresh estimators avoid cache interference.
        engine = build_engine()
        deep = self.make(engine).relin_cost(1)
        shallow = self.make(engine).relin_cost(10)
        assert deep > shallow

    def test_caching_bounds_visits(self):
        engine = build_engine()
        estimator = self.make(engine)
        for key in range(12):
            estimator.relin_cost(key)
        # At most two visits per supernode (paper Section 4.1).
        assert estimator.visits <= 2 * len(engine.nodes)

    def test_repeat_query_adds_no_visits(self):
        engine = build_engine()
        estimator = self.make(engine)
        estimator.relin_cost(5)
        before = estimator.visits
        estimator.relin_cost(5)
        assert estimator.visits == before

    def test_path_cost_includes_ancestors(self):
        engine = build_engine(n=10)
        estimator = self.make(engine)
        # Root-most node's path cost is just its own cost; deeper nodes
        # accumulate.
        sids = sorted(engine.nodes.keys(),
                      key=lambda s: engine.nodes[s].positions[0])
        deep_cost = estimator.path_cost(sids[0])
        root_cost = estimator.path_cost(sids[-1])
        assert deep_cost >= root_cost

    def test_mandatory_cost_of_new_factor_keys(self):
        engine = build_engine()
        estimator = self.make(engine)
        assert estimator.mandatory_cost({0, 11}) > 0
        assert estimator.mandatory_cost(set()) == 0.0


class TestStepBudget:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            StepBudget(0.0)
        with pytest.raises(ValueError):
            StepBudget(1.0, safety=0.0)

    def test_charge_until_exhausted(self):
        budget = StepBudget(1.0, safety=1.0)
        assert budget.charge(0.6)
        assert not budget.charge(0.6)
        assert budget.charge(0.4)

    def test_mandatory_can_go_negative(self):
        budget = StepBudget(1.0, safety=1.0)
        budget.charge_mandatory(2.0)
        assert budget.remaining < 0
        assert not budget.charge(0.001)

    def test_energy_budget(self):
        budget = StepBudget(1.0, safety=1.0, energy_budget_joules=1e-3)
        assert budget.charge(0.1, joules=5e-4)
        assert not budget.charge(0.1, joules=9e-4)  # energy exhausted
        assert budget.charge(0.1, joules=4e-4)

    def test_safety_scales_budget(self):
        assert StepBudget(1.0, safety=0.5).remaining == pytest.approx(0.5)

    def test_zero_cost_rejected_once_exactly_exhausted(self):
        # Regression: ``seconds > remaining`` alone admitted cost-0 work
        # forever once remaining hit exactly 0.0.
        budget = StepBudget(1.0, safety=1.0)
        budget.charge_mandatory(budget.remaining)
        assert budget.remaining == 0.0
        assert budget.exhausted
        assert not budget.charge(0.0)

    def test_zero_cost_rejected_after_overrun(self):
        budget = StepBudget(1.0, safety=1.0)
        budget.charge_mandatory(2.0)
        assert not budget.charge(0.0)

    def test_zero_cost_rejected_after_energy_exhaustion(self):
        budget = StepBudget(1.0, safety=1.0, energy_budget_joules=1e-3)
        budget.charge_mandatory(0.1, joules=1e-3)
        assert budget.exhausted
        assert not budget.charge(0.0, joules=0.0)


class TestRAISAM2:
    def drive(self, solver, n=20, closure_at=15, noise_scale=0.3, seed=1):
        rng = np.random.default_rng(seed)
        reports = [solver.update({0: SE2()},
                                 [PriorFactorSE2(0, SE2(), NOISE)])]
        for i in range(1, n):
            guess = SE2(i + rng.normal(0, noise_scale),
                        rng.normal(0, noise_scale), rng.normal(0, 0.1))
            factors = [BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0),
                                        NOISE)]
            if i == closure_at:
                factors.append(BetweenFactorSE2(
                    0, i, SE2(float(i), 0.0, 0.0), NOISE))
            reports.append(solver.update({i: guess}, factors))
        return reports

    def make_solver(self, target=1.0 / 30.0, sets=2, **kwargs):
        model = NodeCostModel(make_platform(f"SuperNoVA{sets}S"))
        return RAISAM2(model, target_seconds=target, **kwargs)

    def test_reports_have_selection_stats(self):
        solver = self.make_solver()
        reports = self.drive(solver)
        assert any(r.selection_visits > 0 for r in reports)

    def test_tight_budget_defers_variables(self):
        tight = self.make_solver(target=2e-5)
        reports = self.drive(tight)
        assert sum(r.deferred_variables for r in reports) > 0

    def test_loose_budget_defers_nothing(self):
        loose = self.make_solver(target=10.0)
        reports = self.drive(loose)
        assert sum(r.deferred_variables for r in reports) == 0

    def test_fifo_orders_by_insertion_not_key(self):
        # Regression: "fifo" sorted candidates by Key, which interleaves
        # namespaces (offset landmark keys sorted between pose keys
        # regardless of age).  Oldest-first means insertion order.
        solver = self.make_solver(target=1e-9,
                                  selection_policy="fifo",
                                  score_floor=1e-12)
        solver.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        # Interleave "landmark" keys (offset 100) with pose keys so
        # insertion order is 100, 1, 101 but Key order is 1, 100, 101.
        solver.update({100: SE2(0.9, 0.2, 0.0)},
                      [BetweenFactorSE2(0, 100, SE2(1.0, 0.0, 0.0),
                                        NOISE)])
        solver.update({1: SE2(1.8, -0.3, 0.0)},
                      [BetweenFactorSE2(100, 1, SE2(1.0, 0.0, 0.0),
                                        NOISE)])
        solver.update({101: SE2(2.7, 0.25, 0.0)},
                      [BetweenFactorSE2(1, 101, SE2(1.0, 0.0, 0.0),
                                        NOISE)])
        # The starved budget above deferred every relinearization; a
        # loose final step admits all pending candidates in fifo order.
        captured = {}
        engine_update = solver.engine.update

        def spy(new_values, new_factors, selected, context=None):
            captured["selected"] = list(selected)
            return engine_update(new_values, new_factors, selected,
                                 context=context)

        solver.engine.update = spy
        solver.target_seconds = 10.0
        solver.update({2: SE2(3.6, -0.2, 0.0)},
                      [BetweenFactorSE2(101, 2, SE2(1.0, 0.0, 0.0),
                                        NOISE)])
        assert captured["selected"] == [100, 1, 101]

    def test_loose_budget_matches_isam2_accuracy(self):
        # With an unconstrained budget RA-ISAM2 degenerates to ISAM2
        # (the idealized incremental baseline).
        ra = self.make_solver(target=10.0, score_floor=0.01)
        self.drive(ra)
        isam = ISAM2(relin_threshold=0.01)
        self.drive(isam)
        ra_est = ra.estimate()
        isam_est = isam.estimate()
        for key in range(20):
            assert ra_est.at(key).is_close(isam_est.at(key), tol=1e-3)

    def test_budget_amortizes_loop_closure(self):
        # Under a tight budget, relinearization work after the closure is
        # spread over several steps instead of spiking once.
        tight = self.make_solver(target=1e-3)
        reports = self.drive(tight, n=30, closure_at=20)
        after = [r.relinearized_variables for r in reports[21:]]
        assert sum(after) > 0  # deferred work is caught up later

    def test_latency_meets_target(self):
        # Realized simulated latency stays under the target.
        soc = make_platform("SuperNoVA2S")
        model = NodeCostModel(soc)
        solver = RAISAM2(model, target_seconds=1.0 / 30.0)
        rng = np.random.default_rng(2)
        misses = 0
        solver.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        for i in range(1, 40):
            guess = SE2(i + rng.normal(0, 0.3), rng.normal(0, 0.3),
                        rng.normal(0, 0.1))
            factors = [BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0),
                                        NOISE)]
            if i in (20, 30):
                factors.append(BetweenFactorSE2(
                    0, i, SE2(float(i), 0.0, 0.0), NOISE))
            trace = OpTrace()
            report = solver.update({i: guess}, factors,
                                   context=StepContext(trace))
            latency = execute_step(report, soc, report.node_parents)
            if latency.total > 1.0 / 30.0:
                misses += 1
        assert misses == 0

    def test_energy_budget_limits_selection(self):
        unconstrained = self.make_solver(target=10.0)
        self.drive(unconstrained)
        constrained = self.make_solver(target=10.0,
                                       energy_budget_joules=1e-7)
        reports = self.drive(constrained)
        assert sum(r.deferred_variables for r in reports) > 0

    def test_estimate_returns_all_keys(self):
        solver = self.make_solver()
        self.drive(solver, n=10)
        estimate = solver.estimate()
        assert sorted(estimate.keys()) == list(range(10))
