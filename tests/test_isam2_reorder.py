"""Tests for the incremental engine's constrained-COLAMD re-ordering.

The re-ordering permutes suffix columns only; the estimate, the marginal
covariances and every internal invariant must be preserved, while the
elimination tree becomes measurably bushier than the chronological
chain.
"""

import numpy as np

from repro.factorgraph import (
    BetweenFactorSE2,
    IsotropicNoise,
    PriorFactorSE2,
)
from repro.geometry import SE2
from repro.solvers.isam2 import ISAM2, IncrementalEngine

NOISE = IsotropicNoise(3, 0.1)


def scenario(n, closure_every=6, closure_span=5):
    """Noisy chain with regular loop closures, one pose per step."""
    rng = np.random.default_rng(17)
    truth = [SE2(0.0, 0.0, 0.0)]
    for _ in range(n - 1):
        motion = SE2(1.0, 0.1 * rng.standard_normal(),
                     0.2 * rng.standard_normal())
        truth.append(truth[-1].compose(motion))

    steps = []
    for i in range(n):
        guess = truth[i].retract(0.05 * rng.standard_normal(3))
        factors = []
        if i == 0:
            factors.append(PriorFactorSE2(0, truth[0], NOISE))
        else:
            factors.append(BetweenFactorSE2(
                i - 1, i, truth[i - 1].inverse().compose(truth[i]),
                NOISE))
        if i > 0 and i % closure_every == 0:
            j = max(0, i - closure_span - i // 3)
            factors.append(BetweenFactorSE2(
                j, i, truth[j].inverse().compose(truth[i]), NOISE))
        steps.append((i, guess, factors))
    return steps


def run_engine(ordering, n=40, reorder_interval=5, relin_every=4,
               check=False):
    engine = IncrementalEngine(wildfire_tol=0.0, ordering=ordering,
                               reorder_interval=reorder_interval)
    for i, guess, factors in scenario(n):
        relin = list(engine.pos_of) if i % relin_every == 0 else []
        engine.update({i: guess}, factors, relin)
        if check:
            engine.check_invariants()
    return engine


class TestDualRunEquivalence:
    def test_estimates_match_chronological(self):
        chrono = run_engine("chronological")
        ccolamd = run_engine("constrained_colamd", check=True)
        assert ccolamd.reorders > 0
        ca = chrono.estimate()
        cb = ccolamd.estimate()
        for key in ca.keys():
            np.testing.assert_allclose(
                ca.at(key).local(cb.at(key)), np.zeros(3), atol=1e-9)

    def test_marginal_covariances_match(self):
        chrono = run_engine("chronological", n=30)
        ccolamd = run_engine("constrained_colamd", n=30)
        assert ccolamd.reorders > 0
        for key in (0, 7, 15, 29):
            np.testing.assert_allclose(
                chrono.marginal_covariance(key),
                ccolamd.marginal_covariance(key), atol=1e-8)

    def test_isam2_wrapper_dual_run(self):
        solvers = {
            name: ISAM2(relin_threshold=0.01, wildfire_tol=0.0,
                        ordering=name, reorder_interval=6)
            for name in IncrementalEngine.ORDERINGS
        }
        for name, solver in solvers.items():
            for i, guess, factors in scenario(35):
                solver.update({i: guess}, factors)
        ca = solvers["chronological"].estimate()
        cb = solvers["constrained_colamd"].estimate()
        assert solvers["constrained_colamd"].engine.reorders > 0
        for key in ca.keys():
            np.testing.assert_allclose(
                ca.at(key).local(cb.at(key)), np.zeros(3), atol=1e-9)


class TestTreeShape:
    def test_reordered_tree_is_bushier(self):
        chrono = run_engine("chronological", n=60)
        ccolamd = run_engine("constrained_colamd", n=60)
        a = chrono.tree_shape()
        b = ccolamd.tree_shape()
        assert b["height"] < a["height"]
        assert b["max_width"] > 1
        assert b["branch_nodes"] >= 1
        assert b["fill_nnz"] <= a["fill_nnz"]

    def test_tree_shape_reported_per_step(self):
        solver = ISAM2(relin_threshold=0.05,
                       ordering="constrained_colamd", reorder_interval=5)
        report = None
        for i, guess, factors in scenario(20):
            report = solver.update({i: guess}, factors)
        assert report is not None
        assert report.extras["tree_height"] >= 1.0
        assert report.extras["tree_max_width"] >= 1.0
        assert report.extras["tree_fill_nnz"] > 0.0


def _shape(engine):
    shape = engine.tree_shape()
    return {k: shape[k] for k in ("height", "max_width", "branch_nodes",
                                  "roots")}


class TestTreeShapeValues:
    """tree_shape() on hand-built trees, one supernode per variable."""

    def test_chain(self):
        engine = IncrementalEngine(max_supernode_vars=1)
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        for i in range(1, 6):
            engine.update({i: SE2(float(i), 0.0, 0.0)},
                          [BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0),
                                            NOISE)])
        assert _shape(engine) == {"height": 5.0, "max_width": 1.0,
                                  "branch_nodes": 0.0, "roots": 1.0}
        assert engine.tree_shape()["supernodes"] == 6.0

    def test_star(self):
        # Four prior-anchored leaves first, the hub last: every leaf's
        # parent is the hub.
        engine = IncrementalEngine(max_supernode_vars=1)
        engine.update({i: SE2(float(i), 1.0, 0.0) for i in range(4)},
                      [PriorFactorSE2(i, SE2(float(i), 1.0, 0.0), NOISE)
                       for i in range(4)])
        ctx = engine.update(
            {4: SE2()},
            [BetweenFactorSE2(i, 4, SE2(-float(i), -1.0, 0.0), NOISE)
             for i in range(4)])
        assert _shape(engine) == {"height": 1.0, "max_width": 4.0,
                                  "branch_nodes": 1.0, "roots": 1.0}
        assert ctx.refactored_nodes == 5

    def test_forest_and_step_extras(self):
        # Two unconnected chains (keys 0-2 and 10-12) are two roots; the
        # per-step extras read the same shape off the wildfire levels.
        solver = ISAM2(max_supernode_vars=1)
        report = None
        for i in range(3):
            if i == 0:
                factors = [PriorFactorSE2(k, SE2(), NOISE) for k in (0, 10)]
            else:
                factors = [BetweenFactorSE2(k - 1, k, SE2(1.0, 0.0, 0.0),
                                            NOISE) for k in (i, 10 + i)]
            report = solver.update({i: SE2(float(i), 0.0, 0.0),
                                    10 + i: SE2(float(i), 5.0, 0.0)},
                                   factors)
        assert _shape(solver.engine) == {"height": 2.0, "max_width": 2.0,
                                         "branch_nodes": 0.0, "roots": 2.0}
        assert report.extras["tree_height"] == 2.0
        assert report.extras["tree_max_width"] == 2.0

    def test_empty(self):
        assert IncrementalEngine().tree_shape() == {
            "supernodes": 0.0, "height": 0.0, "max_width": 0.0,
            "branch_nodes": 0.0, "roots": 0.0, "fill_nnz": 0.0}


class TestPlanCacheAfterReorder:
    def test_structure_unchanged_steps_hit_cache(self):
        # After a reorder the cache is cleared; structurally identical
        # follow-up steps must recompile once and then reuse.
        engine = IncrementalEngine(wildfire_tol=0.0,
                                   ordering="constrained_colamd",
                                   reorder_interval=8)
        seen_reorders = 0
        hits_at_last_reorder = 0
        for i, guess, factors in scenario(45):
            relin = list(engine.pos_of) if i % 4 == 0 else []
            engine.update({i: guess}, factors, relin)
            if engine.reorders > seen_reorders:
                seen_reorders = engine.reorders
                hits_at_last_reorder = engine.plan_cache.hits
        assert seen_reorders > 0
        # Plan reuse resumed after the cache was cleared by reordering.
        assert engine.plan_cache.hits > hits_at_last_reorder

    def test_no_reorder_below_min_suffix(self):
        engine = IncrementalEngine(ordering="constrained_colamd",
                                   reorder_interval=1,
                                   reorder_min_suffix=500)
        for i, guess, factors in scenario(25):
            engine.update({i: guess}, factors, [])
        assert engine.reorders == 0

    def test_chronological_never_reorders(self):
        engine = run_engine("chronological", reorder_interval=1)
        assert engine.reorders == 0
