"""Tests for marginal covariance queries on the live incremental engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.factorgraph import BetweenFactorSE2, IsotropicNoise, \
    PriorFactorSE2
from repro.geometry import SE2
from repro.solvers import IncrementalEngine

NOISE = IsotropicNoise(3, 0.1)


def build_engine(n=8, closure=None, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    engine = IncrementalEngine(wildfire_tol=0.0, **kwargs)
    engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
    for i in range(1, n):
        guess = SE2(i + rng.normal(0, 0.1), rng.normal(0, 0.1), 0.0)
        factors = [BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0), NOISE)]
        if closure == i:
            factors.append(BetweenFactorSE2(
                0, i, SE2(float(i), 0.0, 0.0), NOISE))
        engine.update({i: guess}, factors)
    return engine


def dense_h(engine):
    dims = engine.dims
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    total = int(offsets[-1])
    h_full = np.zeros((total, total))
    for contrib in engine._lin.values():
        idx = np.concatenate([
            np.arange(offsets[p], offsets[p] + dims[p])
            for p in contrib.positions])
        h_full[np.ix_(idx, idx)] += contrib.hessian
    return h_full, offsets


class TestSolveWithRhs:
    def test_matches_dense_solve(self):
        engine = build_engine(closure=6)
        h_full, offsets = dense_h(engine)
        rng = np.random.default_rng(1)
        rhs_flat = rng.normal(size=h_full.shape[0])
        rhs = [rhs_flat[offsets[p]:offsets[p + 1]]
               for p in range(engine.num_positions)]
        x = engine.solve_with_rhs(rhs)
        expected = np.linalg.solve(h_full, rhs_flat)
        np.testing.assert_allclose(np.concatenate(x), expected,
                                   atol=1e-8)

    def test_does_not_mutate_state(self):
        engine = build_engine()
        before = [d.copy() for d in engine.delta]
        carry_before = [c.copy() for c in engine._carry]
        engine.solve_with_rhs([np.ones(d) for d in engine.dims])
        for a, b in zip(before, engine.delta):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(carry_before, engine._carry):
            np.testing.assert_array_equal(a, b)

    def test_rejects_extra_block(self):
        engine = build_engine(n=4)
        rhs = [np.ones(d) for d in engine.dims] + [np.ones(3)]
        with pytest.raises(ValueError, match="extra block at position 4"):
            engine.solve_with_rhs(rhs)

    def test_rejects_misplaced_block_sizes(self):
        # Right total (3 + 3), wrong split: must not be silently
        # re-cut at the wrong offsets.
        engine = build_engine(n=2)
        with pytest.raises(ValueError, match="position 0 has shape"):
            engine.solve_with_rhs([np.ones(2), np.ones(4)])

    def test_rejects_missing_block(self):
        engine = build_engine(n=4)
        rhs = [np.ones(d) for d in engine.dims][:3]
        with pytest.raises(ValueError, match="missing the block at "
                                             "position 3"):
            engine.solve_with_rhs(rhs)


class TestMarginalCovariance:
    def test_matches_dense_inverse(self):
        engine = build_engine(closure=5)
        h_full, offsets = dense_h(engine)
        h_inv = np.linalg.inv(h_full)
        for key in (0, 3, 7):
            pos = engine.pos_of[key]
            sl = slice(offsets[pos], offsets[pos + 1])
            np.testing.assert_allclose(engine.marginal_covariance(key),
                                       h_inv[sl, sl], atol=1e-8)

    def test_uncertainty_grows_without_closures(self):
        engine = build_engine(n=8)
        traces = [np.trace(engine.marginal_covariance(k))
                  for k in range(8)]
        assert all(a < b for a, b in zip(traces, traces[1:]))

    def test_closure_reduces_uncertainty(self):
        open_chain = build_engine(n=8)
        closed = build_engine(n=8, closure=7)
        assert (np.trace(closed.marginal_covariance(7))
                < np.trace(open_chain.marginal_covariance(7)))

    @given(st.integers(0, 2 ** 12), st.sampled_from([1, 4, 8]))
    @settings(max_examples=10, deadline=None)
    def test_covariance_positive_definite(self, seed, max_vars):
        engine = build_engine(n=6, closure=4, seed=seed,
                              max_supernode_vars=max_vars)
        for key in range(6):
            cov = engine.marginal_covariance(key)
            eigenvalues = np.linalg.eigvalsh(cov)
            assert np.all(eigenvalues > 0)


class TestMarginalAfterStructureChange:
    """Regression: marginal queries route through the plan-based solve
    path and must be correct immediately after the cache recompiles."""

    def _check_all_marginals(self, engine):
        h_full, offsets = dense_h(engine)
        h_inv = np.linalg.inv(h_full)
        for key in sorted(engine.pos_of):
            pos = engine.pos_of[key]
            sl = slice(offsets[pos], offsets[pos + 1])
            np.testing.assert_allclose(engine.marginal_covariance(key),
                                       h_inv[sl, sl], atol=1e-8,
                                       err_msg=f"key {key}")

    def test_correct_after_loop_closure_update(self):
        engine = build_engine(n=10)
        engine.update(
            {}, [BetweenFactorSE2(0, 9, SE2(9.0, 0.0, 0.0), NOISE)])
        self._check_all_marginals(engine)

    def test_correct_after_cache_hit_relin(self):
        from repro.instrumentation import StepContext
        engine = build_engine(n=10, closure=6)
        ctx = StepContext()
        engine.update({}, [], relin_keys=[3, 4], context=ctx)
        assert ctx.plan_hits > 0 and ctx.plan_misses == 0
        self._check_all_marginals(engine)
