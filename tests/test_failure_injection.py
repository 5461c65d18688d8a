"""Failure injection: how the solvers behave on degenerate problems."""

import numpy as np
import pytest

from repro.factorgraph import (
    BetweenFactorSE2,
    FactorGraph,
    IsotropicNoise,
    PriorFactorSE2,
    Values,
)
from repro.datasets import manhattan_dataset
from repro.geometry import SE2
from repro.linalg.frontal import SingularHessianError
from repro.solvers import (
    GaussNewton,
    ISAM2,
    IncrementalEngine,
    LevenbergMarquardt,
)

NOISE = IsotropicNoise(3, 0.1)


def unanchored_chain(n=4):
    """Odometry chain with no prior: gauge freedom -> singular H."""
    graph = FactorGraph()
    initial = Values()
    initial.insert(0, SE2())
    for i in range(1, n):
        graph.add(BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0), NOISE))
        initial.insert(i, SE2(float(i), 0.0, 0.0))
    return graph, initial


class TestSingularProblems:
    def test_gauss_newton_raises_without_anchor(self):
        graph, initial = unanchored_chain()
        with pytest.raises(SingularHessianError):
            GaussNewton().optimize(graph, initial)

    def test_damping_rescues_gauge_freedom(self):
        graph, initial = unanchored_chain()
        result = GaussNewton(damping=1e-3).optimize(graph, initial)
        assert np.isfinite(result.final_error)

    def test_levenberg_escalates_lambda(self):
        graph, initial = unanchored_chain()
        result = LevenbergMarquardt(initial_lambda=1e-8).optimize(
            graph, initial)
        assert np.isfinite(result.final_error)
        assert result.final_error <= result.initial_error

    def test_engine_raises_without_anchor(self):
        engine = IncrementalEngine()
        with pytest.raises(SingularHessianError):
            engine.update(
                {0: SE2(), 1: SE2(1.0, 0.0, 0.0)},
                [BetweenFactorSE2(0, 1, SE2(1.0, 0.0, 0.0), NOISE)])

    def test_engine_with_damping_survives(self):
        engine = IncrementalEngine(damping=1e-3)
        engine.update(
            {0: SE2(), 1: SE2(1.0, 0.0, 0.0)},
            [BetweenFactorSE2(0, 1, SE2(1.0, 0.0, 0.0), NOISE)])
        assert all(np.all(np.isfinite(d)) for d in engine.delta)

    def test_disconnected_components_each_need_anchor(self):
        # Two islands; only one anchored -> still singular.
        graph = FactorGraph()
        initial = Values()
        graph.add(PriorFactorSE2(0, SE2(), NOISE))
        graph.add(BetweenFactorSE2(0, 1, SE2(1.0, 0.0, 0.0), NOISE))
        graph.add(BetweenFactorSE2(2, 3, SE2(1.0, 0.0, 0.0), NOISE))
        for i in range(4):
            initial.insert(i, SE2(float(i), 0.0, 0.0))
        with pytest.raises(SingularHessianError):
            GaussNewton().optimize(graph, initial)


class TestExtremeMeasurements:
    def test_huge_residual_still_finite(self):
        graph = FactorGraph()
        initial = Values()
        graph.add(PriorFactorSE2(0, SE2(), NOISE))
        graph.add(BetweenFactorSE2(0, 1, SE2(1e4, 0.0, 0.0), NOISE))
        initial.insert(0, SE2())
        initial.insert(1, SE2(1.0, 0.0, 0.0))
        result = GaussNewton(max_iterations=5).optimize(graph, initial)
        assert np.isfinite(result.final_error)
        assert abs(result.values.at(1).x - 1e4) < 1.0

    def test_tiny_noise_is_stiff_but_solvable(self):
        stiff = IsotropicNoise(3, 1e-6)
        graph = FactorGraph()
        initial = Values()
        graph.add(PriorFactorSE2(0, SE2(), stiff))
        graph.add(BetweenFactorSE2(0, 1, SE2(1.0, 0.0, 0.0), stiff))
        initial.insert(0, SE2(0.1, 0.1, 0.01))
        initial.insert(1, SE2(0.9, -0.1, 0.0))
        result = GaussNewton(max_iterations=10).optimize(graph, initial)
        assert result.values.at(1).is_close(SE2(1.0, 0.0, 0.0), tol=1e-4)

    def test_conflicting_anchors_split_difference(self):
        graph = FactorGraph()
        initial = Values()
        graph.add(PriorFactorSE2(0, SE2(0.0, 0.0, 0.0), NOISE))
        graph.add(PriorFactorSE2(0, SE2(1.0, 0.0, 0.0), NOISE))
        initial.insert(0, SE2(0.3, 0.0, 0.0))
        result = GaussNewton(max_iterations=10).optimize(graph, initial)
        assert result.values.at(0).x == pytest.approx(0.5, abs=1e-6)


class TestEngineStressSequences:
    def test_many_closures_to_same_pose(self):
        # A "kidnapped robot relocalizes" burst: 10 closures into pose 0.
        engine = IncrementalEngine(wildfire_tol=0.0)
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        for i in range(1, 12):
            engine.update(
                {i: SE2(float(i), 0.0, 0.0)},
                [BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0), NOISE)])
        closures = [BetweenFactorSE2(0, j, SE2(float(j), 0.0, 0.0), NOISE)
                    for j in range(2, 12)]
        engine.update({}, closures)
        engine.check_invariants()

    def test_interleaved_relin_and_closures(self):
        rng = np.random.default_rng(5)
        engine = IncrementalEngine(wildfire_tol=0.0)
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        for i in range(1, 20):
            guess = SE2(i + rng.normal(0, 0.3), rng.normal(0, 0.3), 0.0)
            factors = [BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0),
                                        NOISE)]
            if i % 5 == 0:
                factors.append(BetweenFactorSE2(
                    max(0, i - 7), i, SE2(7.0, 0.0, 0.0), NOISE))
            relin = [k for k, s in engine.delta_norms().items()
                     if s > 0.05]
            engine.update({i: guess}, factors, relin_keys=relin)
            engine.check_invariants()


class TestNonFiniteState:
    def run_manhattan(self, poison_step=None, steps=20):
        """ISAM2 over a Manhattan prefix; ``poison_step``'s odometry
        measurement is replaced by NaN."""
        data = manhattan_dataset(scale=0.01)
        solver = ISAM2()
        for i, step in enumerate(data.steps[:steps]):
            factors = list(step.factors)
            if i == poison_step:
                odometry = factors[0]
                assert odometry.keys == (step.key - 1, step.key)
                factors[0] = BetweenFactorSE2(
                    *odometry.keys, SE2(float("nan"), 0.0, 0.0),
                    odometry.noise)
            solver.update({step.key: step.guess}, factors)
        return solver

    def test_clean_run_passes(self):
        self.run_manhattan().engine.check_invariants()

    def test_nan_measurement_fails_invariants(self):
        # The NaN spreads through the solve into most of the poses;
        # check_invariants must notice instead of passing.
        solver = self.run_manhattan(poison_step=10)
        estimate = solver.estimate()
        poisoned = [key for key in estimate.keys()
                    if not np.isfinite(estimate.at(key).matrix()).all()]
        assert len(poisoned) > 1
        with pytest.raises(AssertionError, match="non-finite delta"):
            solver.engine.check_invariants()

    def test_nan_linearization_point_fails_invariants(self):
        engine = IncrementalEngine()
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        engine.update({1: SE2(1.0, 0.0, 0.0)},
                      [BetweenFactorSE2(0, 1, SE2(1.0, 0.0, 0.0), NOISE)])
        engine.check_invariants()
        engine.theta.update(1, SE2(1.0, float("inf"), 0.0))
        with pytest.raises(AssertionError,
                           match="non-finite linearization point"):
            engine.check_invariants()
