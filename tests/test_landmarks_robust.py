"""Tests for landmark variables, bearing-range factors, robust noise,
Levenberg-Marquardt, marginal covariances and constrained ordering."""

import math

import numpy as np
import pytest

from repro.factorgraph import (
    BearingRangeFactor2D,
    BetweenFactorSE2,
    CauchyNoise,
    FactorGraph,
    HuberNoise,
    IsotropicNoise,
    PriorFactorPoint2,
    PriorFactorSE2,
    Values,
    robustify,
)
from repro.factorgraph.factors import numerical_jacobians
from repro.geometry import SE2, Point2, Point3
from repro.linalg import (
    MultifrontalCholesky,
    SymbolicFactorization,
    marginal_covariance,
)
from repro.linalg.cholesky import FactorContribution
from repro.solvers import GaussNewton, LevenbergMarquardt

NOISE2 = IsotropicNoise(2, 0.1)
NOISE3 = IsotropicNoise(3, 0.1)


class TestPoints:
    def test_retract_local_roundtrip(self):
        p = Point2(1.0, 2.0)
        delta = np.array([0.3, -0.4])
        np.testing.assert_allclose(p.local(p.retract(delta)), delta)

    def test_point3(self):
        p = Point3(1.0, 2.0, 3.0)
        assert p.dim == 3
        np.testing.assert_allclose(p.t, [1.0, 2.0, 3.0])

    def test_from_array(self):
        p = Point2(np.array([1.0, 2.0]))
        assert p.x == 1.0 and p.y == 2.0

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError):
            Point2(1.0, 2.0, 3.0)

    def test_is_close(self):
        assert Point2(1, 2).is_close(Point2(1, 2))
        assert not Point2(1, 2).is_close(Point2(1, 2.1))


class TestBearingRange:
    def make_values(self):
        values = Values()
        values.insert(0, SE2(1.0, 0.5, 0.3))
        values.insert(1, Point2(4.0, 3.0))
        return values

    def test_zero_residual_at_truth(self):
        values = self.make_values()
        pose, point = values.at(0), values.at(1)
        d = pose.rot.inverse().matrix() @ (point.v - pose.t)
        factor = BearingRangeFactor2D(
            0, 1, math.atan2(d[1], d[0]), float(np.linalg.norm(d)), NOISE2)
        np.testing.assert_allclose(factor.error_vector(values),
                                   np.zeros(2), atol=1e-12)

    def test_jacobians_match_numeric(self):
        values = self.make_values()
        factor = BearingRangeFactor2D(0, 1, 0.5, 3.0, NOISE2)
        analytic = factor.jacobians(values)
        numeric = numerical_jacobians(factor, values)
        for a, n in zip(analytic, numeric):
            np.testing.assert_allclose(a, n, atol=1e-5)

    def test_nonpositive_range_rejected(self):
        with pytest.raises(ValueError):
            BearingRangeFactor2D(0, 1, 0.0, 0.0, NOISE2)

    def test_coincident_landmark_raises(self):
        values = Values()
        values.insert(0, SE2(1.0, 1.0, 0.0))
        values.insert(1, Point2(1.0, 1.0))
        factor = BearingRangeFactor2D(0, 1, 0.0, 1.0, NOISE2)
        with pytest.raises(ValueError):
            factor.jacobians(values)

    def test_prior_point_jacobian(self):
        values = Values()
        values.insert(0, Point2(2.0, -1.0))
        factor = PriorFactorPoint2(0, Point2(1.0, 1.0), NOISE2)
        np.testing.assert_allclose(factor.error_vector(values),
                                   [1.0, -2.0])
        numeric = numerical_jacobians(factor, values)
        np.testing.assert_allclose(factor.jacobians(values)[0],
                                   numeric[0], atol=1e-6)


def landmark_slam_problem(noise_scale=0.05, seed=0, outlier=False):
    """Poses 0..4 along x, landmarks 10/11 observed with bearing-range."""
    rng = np.random.default_rng(seed)
    truth = Values()
    for i in range(5):
        truth.insert(i, SE2(float(i), 0.0, 0.0))
    truth.insert(10, Point2(2.0, 2.0))
    truth.insert(11, Point2(3.0, -1.5))

    graph = FactorGraph()
    graph.add(PriorFactorSE2(0, SE2(), NOISE3))
    for i in range(1, 5):
        graph.add(BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0), NOISE3))
    for i in range(5):
        pose = truth.at(i)
        for lm in (10, 11):
            point = truth.at(lm)
            d = pose.rot.inverse().matrix() @ (point.v - pose.t)
            bearing = math.atan2(d[1], d[0]) + rng.normal(0, 0.01)
            rng_range = float(np.linalg.norm(d)) + rng.normal(0, 0.02)
            graph.add(BearingRangeFactor2D(i, lm, bearing, rng_range,
                                           IsotropicNoise(2, 0.05)))
    if outlier:
        # A grossly wrong odometry edge (bad loop closure analog).
        graph.add(BetweenFactorSE2(0, 4, SE2(1.0, 3.0, 1.0), NOISE3))

    initial = Values()
    for key in truth.keys():
        element = truth.at(key)
        initial.insert(key, element.retract(
            rng.normal(scale=noise_scale, size=element.dim)))
    return graph, initial, truth


class TestLandmarkSlam:
    def test_gauss_newton_solves_mixed_graph(self):
        graph, initial, truth = landmark_slam_problem()
        result = GaussNewton(max_iterations=30).optimize(graph, initial)
        assert result.converged
        assert result.values.at(10).is_close(truth.at(10), tol=0.1)
        assert result.values.at(4).is_close(truth.at(4), tol=0.1)

    def test_levenberg_solves_mixed_graph(self):
        graph, initial, truth = landmark_slam_problem(noise_scale=0.3)
        result = LevenbergMarquardt().optimize(graph, initial)
        assert result.final_error < result.initial_error
        assert result.values.at(11).is_close(truth.at(11), tol=0.2)


class TestRobustNoise:
    def test_huber_weight_regions(self):
        huber = HuberNoise(IsotropicNoise(2, 1.0), k=1.0)
        assert huber.weight(np.array([0.5, 0.0])) == 1.0
        assert huber.weight(np.array([2.0, 0.0])) == pytest.approx(0.5)

    def test_huber_loss_continuous_at_k(self):
        huber = HuberNoise(IsotropicNoise(1, 1.0), k=1.0)
        below = huber.loss(np.array([1.0 - 1e-9]))
        above = huber.loss(np.array([1.0 + 1e-9]))
        assert below == pytest.approx(above, abs=1e-6)

    def test_cauchy_weight_decreasing(self):
        cauchy = CauchyNoise(IsotropicNoise(1, 1.0), k=1.0)
        w1 = cauchy.weight(np.array([1.0]))
        w2 = cauchy.weight(np.array([3.0]))
        assert w2 < w1 < 1.0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            HuberNoise(IsotropicNoise(1, 1.0), k=0.0)
        with pytest.raises(ValueError):
            robustify(PriorFactorSE2(0, SE2(), NOISE3), kind="tukey")

    def test_linearize_applies_weight(self):
        values = Values()
        values.insert(0, SE2(5.0, 0.0, 0.0))  # far from the prior
        factor = PriorFactorSE2(0, SE2(), IsotropicNoise(3, 0.1))
        plain_blocks, plain_rhs = factor.linearize(values)
        robustify(factor, k=1.0)
        robust_blocks, robust_rhs = factor.linearize(values)
        # Big residual -> weight < 1 -> scaled-down system.
        assert np.linalg.norm(robust_rhs) < np.linalg.norm(plain_rhs)
        assert (np.linalg.norm(robust_blocks[0])
                < np.linalg.norm(plain_blocks[0]))

    def test_outlier_rejection_improves_estimate(self):
        graph, initial, truth = landmark_slam_problem(outlier=True)
        plain = LevenbergMarquardt().optimize(graph, initial)

        graph_r, initial_r, _ = landmark_slam_problem(outlier=True)
        for index in graph_r.factor_indices():
            factor = graph_r.factor(index)
            if isinstance(factor, BetweenFactorSE2):
                robustify(factor, k=1.0)
        robust = LevenbergMarquardt().optimize(graph_r, initial_r)

        def err(values):
            return sum(np.linalg.norm(values.at(i).t - truth.at(i).t)
                       for i in range(5))

        assert err(robust.values) < err(plain.values)


class TestMarginals:
    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(3)
        dims = [3, 3, 3]
        factors = [(0,), (0, 1), (1, 2)]
        contribs = []
        for positions in factors:
            total = sum(dims[p] for p in positions)
            a = rng.normal(size=(total + 1, total))
            contribs.append(FactorContribution(
                list(positions), a.T @ a, a.T @ rng.normal(size=total + 1),
                total + 1))
        symbolic = SymbolicFactorization(dims, factors)
        solver = MultifrontalCholesky(symbolic)
        solver.factorize(contribs)

        h_full = np.zeros((9, 9))
        for contrib in contribs:
            idx = np.concatenate([np.arange(3 * p, 3 * p + 3)
                                  for p in contrib.positions])
            h_full[np.ix_(idx, idx)] += contrib.hessian
        h_inv = np.linalg.inv(h_full)
        for p in range(3):
            cov = marginal_covariance(solver, p)
            np.testing.assert_allclose(
                cov, h_inv[3 * p:3 * p + 3, 3 * p:3 * p + 3], atol=1e-8)

    def test_uncertainty_grows_along_chain(self):
        # Prior on pose 0 only: marginal covariance grows with distance.
        graph, initial, _ = landmark_slam_problem()
        # Rebuild a pure chain without landmarks for monotonicity.
        chain = FactorGraph()
        chain.add(PriorFactorSE2(0, SE2(), NOISE3))
        values = Values()
        values.insert(0, SE2())
        for i in range(1, 5):
            chain.add(BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0),
                                       NOISE3))
            values.insert(i, SE2(float(i), 0.0, 0.0))
        from repro.solvers.linearize import linearize_graph
        position_of = {k: k for k in range(5)}
        contribs = linearize_graph(chain.factors(), values, position_of)
        symbolic = SymbolicFactorization([3] * 5,
                                         [c.positions for c in contribs])
        solver = MultifrontalCholesky(symbolic)
        solver.factorize(contribs)
        traces = [np.trace(marginal_covariance(solver, p))
                  for p in range(5)]
        assert all(a < b for a, b in zip(traces, traces[1:]))


class TestConstrainedOrdering:
    def test_constrained_fill_between_extremes(self):
        from repro.linalg import SymbolicFactorization, \
            constrained_colamd_order
        factors = [(i, i + 1) for i in range(19)] + \
            [(0, 19), (5, 15), (3, 12)]

        def fill(order):
            pos = {k: i for i, k in enumerate(order)}
            return SymbolicFactorization(
                [3] * 20,
                [sorted(pos[k] for k in f) for f in factors]).fill_nnz()

        order = constrained_colamd_order(range(20), factors,
                                         last_keys=[18, 19])
        assert sorted(order[-2:]) == [18, 19]
        assert fill(order) <= fill(list(range(20)))


class TestNestedDissection:
    def grid(self, n):
        keys = list(range(n * n))
        factors = []
        for i in range(n):
            for j in range(n):
                k = i * n + j
                if i + 1 < n:
                    factors.append((k, k + n))
                if j + 1 < n:
                    factors.append((k, k + 1))
        return keys, factors

    def test_is_permutation(self):
        from repro.linalg.ordering import nested_dissection_order
        keys, factors = self.grid(8)
        order = nested_dissection_order(keys, factors, leaf_size=8)
        assert sorted(order) == keys

    def test_beats_natural_order_on_grid(self):
        from repro.linalg.ordering import nested_dissection_order
        keys, factors = self.grid(10)
        nd = nested_dissection_order(keys, factors, leaf_size=8)

        def fill(order):
            pos = {k: i for i, k in enumerate(order)}
            return SymbolicFactorization(
                [1] * len(keys),
                [sorted((pos[a], pos[b])) for a, b in factors]).fill_nnz()

        assert fill(nd) < fill(keys)

    def test_separator_gives_branching_tree(self):
        # Nested dissection produces a bushier elimination tree than the
        # natural order (more roots-of-subtrees near the top).
        from repro.linalg.ordering import nested_dissection_order
        keys, factors = self.grid(8)
        nd = nested_dissection_order(keys, factors, leaf_size=8)
        pos = {k: i for i, k in enumerate(nd)}
        symbolic = SymbolicFactorization(
            [1] * len(keys),
            [sorted((pos[a], pos[b])) for a, b in factors])
        natural = SymbolicFactorization(
            [1] * len(keys), [sorted(f) for f in factors])
        assert (symbolic.tree_stats()["height"]
                < natural.tree_stats()["height"])

    def test_disconnected_graph(self):
        from repro.linalg.ordering import nested_dissection_order
        factors = [(0, 1), (2, 3)]
        order = nested_dissection_order(range(4), factors, leaf_size=1)
        assert sorted(order) == [0, 1, 2, 3]
