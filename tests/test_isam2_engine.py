"""Incremental engine vs from-scratch reference solves.

The oracle: at any point in an incremental run, the engine's cached
factorization must solve exactly the same linear system as a dense solve
over its own linearization cache — regardless of how the updates were
sliced into steps, which loop closures arrived, or what was relinearized.
"""

import numpy as np
import pytest

from repro.factorgraph import (
    BetweenFactorSE2,
    FactorGraph,
    IsotropicNoise,
    PriorFactorSE2,
    Values,
)
from repro.geometry import SE2
from repro.instrumentation import StepContext
from repro.linalg.trace import OpTrace
from repro.solvers import GaussNewton, ISAM2, IncrementalEngine

NOISE = IsotropicNoise(3, 0.1)


def dense_solution(engine):
    """Solve H delta = g densely from the engine's linearization cache."""
    dims = engine.dims
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    total = int(offsets[-1])
    h_full = engine.damping * np.eye(total)
    g_full = np.zeros(total)
    for contrib in engine._lin.values():
        idx = np.concatenate([
            np.arange(offsets[p], offsets[p] + dims[p])
            for p in contrib.positions])
        h_full[np.ix_(idx, idx)] += contrib.hessian
        g_full[idx] += contrib.gradient
    expected = np.linalg.solve(h_full, g_full)
    return [expected[offsets[p]:offsets[p + 1]]
            for p in range(len(dims))]


def assert_delta_matches_dense(engine, atol=1e-7):
    expected = dense_solution(engine)
    for p in range(engine.num_positions):
        np.testing.assert_allclose(engine.delta[p], expected[p], atol=atol)


def odometry_step(i, motion=SE2(1.0, 0.0, 0.05)):
    """(new_values, new_factors) attaching pose i to pose i-1."""
    guess = SE2(float(i), 0.1 * i, 0.0)
    return {i: guess}, [BetweenFactorSE2(i - 1, i, motion, NOISE)]


class TestEngineBasics:
    def make_engine(self, **kwargs):
        kwargs.setdefault("wildfire_tol", 0.0)
        engine = IncrementalEngine(**kwargs)
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        return engine

    def test_single_variable(self):
        engine = self.make_engine()
        assert engine.num_positions == 1
        assert_delta_matches_dense(engine)

    def test_duplicate_variable_rejected(self):
        engine = self.make_engine()
        with pytest.raises(KeyError):
            engine.update({0: SE2()}, [])

    def test_chain_growth(self):
        engine = self.make_engine()
        for i in range(1, 8):
            engine.update(*odometry_step(i))
            engine.check_invariants()
            assert_delta_matches_dense(engine)

    def test_estimate_composes_theta_and_delta(self):
        engine = self.make_engine()
        engine.update(*odometry_step(1))
        estimate = engine.estimate()
        pose = engine.theta.at(1).retract(engine.delta[1])
        assert estimate.at(1).is_close(pose)

    def test_delta_norms_keys(self):
        engine = self.make_engine()
        engine.update(*odometry_step(1))
        norms = engine.delta_norms()
        assert set(norms.keys()) == {0, 1}
        assert all(v >= 0.0 for v in norms.values())

    def test_update_returns_filled_context(self):
        # Called without a context, update still hands back the step's
        # record: its counters and the refactorized nodes' parent links.
        engine = self.make_engine()
        for i in range(1, 6):
            engine.update(*odometry_step(i))
        values, factors = odometry_step(6)
        factors.append(BetweenFactorSE2(1, 6, SE2(5.0, 0.5, 0.3), NOISE))
        ctx = engine.update(values, factors, relin_keys=[3])
        assert isinstance(ctx, StepContext)
        assert ctx.relinearized_variables == 1
        assert ctx.relinearized_factors == 2
        assert ctx.affected_columns >= 6
        assert ctx.refactored_nodes == len(ctx.node_parents) > 0
        assert ctx.backsub_nodes >= ctx.refactored_nodes
        assert set(ctx.node_parents) <= set(engine.nodes)
        roots = [sid for sid, parent in ctx.node_parents.items()
                 if parent is None]
        assert roots == [engine.node_of[engine.num_positions - 1]]


class TestLoopClosures:
    def run_with_loops(self, n, loops, step_relin=(), **kwargs):
        kwargs.setdefault("wildfire_tol", 0.0)
        engine = IncrementalEngine(**kwargs)
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        for i in range(1, n):
            values, factors = odometry_step(i)
            for (a, b) in loops:
                if b == i:
                    factors.append(BetweenFactorSE2(
                        a, b, SE2(float(b - a), 0.0, 0.0), NOISE))
            relin = [k for k in step_relin if k < i]
            engine.update(values, factors, relin_keys=relin)
            engine.check_invariants()
            assert_delta_matches_dense(engine)
        return engine

    def test_short_loop(self):
        self.run_with_loops(6, [(2, 5)])

    def test_long_loop_to_origin(self):
        self.run_with_loops(10, [(0, 9)])

    def test_multiple_overlapping_loops(self):
        self.run_with_loops(12, [(0, 7), (3, 9), (1, 11), (5, 11)])

    def test_loops_with_relinearization(self):
        self.run_with_loops(10, [(0, 8)], step_relin=[0, 1, 2, 3])

    def test_small_supernodes(self):
        self.run_with_loops(10, [(2, 8)], max_supernode_vars=1)

    def test_large_supernodes(self):
        self.run_with_loops(10, [(2, 8)], max_supernode_vars=32,
                            relax_fill=4)


class TestRelinearization:
    def test_relinearize_moves_lp_and_zeroes_delta(self):
        engine = IncrementalEngine(wildfire_tol=0.0)
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        # Bad initial guess creates a large delta on pose 1.
        engine.update({1: SE2(3.0, 1.0, 0.4)},
                      [BetweenFactorSE2(0, 1, SE2(1.0, 0.0, 0.0), NOISE)])
        before = engine.theta.at(1)
        engine.update({}, [], relin_keys=[1])
        after = engine.theta.at(1)
        assert not before.is_close(after)
        assert_delta_matches_dense(engine)

    def test_repeated_relin_converges_to_batch(self):
        rng = np.random.default_rng(0)
        engine = IncrementalEngine(wildfire_tol=0.0)
        graph = FactorGraph()
        initial = Values()

        prior = PriorFactorSE2(0, SE2(), NOISE)
        graph.add(prior)
        initial.insert(0, SE2())
        engine.update({0: SE2()}, [prior])
        for i in range(1, 9):
            guess = SE2(i + rng.normal(0, 0.3), rng.normal(0, 0.3),
                        rng.normal(0, 0.1))
            factor = BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0), NOISE)
            graph.add(factor)
            initial.insert(i, guess)
            engine.update({i: guess}, [factor])
        closure = BetweenFactorSE2(0, 8, SE2(8.0, 0.0, 0.0), NOISE)
        graph.add(closure)
        engine.update({}, [closure])

        # Drive the engine to convergence by relinearizing everything.
        for _ in range(10):
            engine.update({}, [], relin_keys=list(engine.pos_of.keys()))

        batch = GaussNewton(max_iterations=20).optimize(graph, initial)
        estimate = engine.estimate()
        for key in batch.values.keys():
            assert estimate.at(key).is_close(batch.values.at(key), tol=1e-5)


class TestWildfire:
    def test_wildfire_skips_clean_subtrees(self):
        # With a huge tolerance, far-away deltas must not be recomputed.
        # A loop closure (2, 9) creates a cycle: the exact solution for
        # poses 0-1 changes, but only positions >= 2 are structurally
        # affected, so the old deltas stay frozen under the tolerance.
        engine = IncrementalEngine(wildfire_tol=1e9, max_supernode_vars=1)
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        for i in range(1, 10):
            guess = SE2(float(i) + 0.4 * (-1) ** i, 0.3 * i, 0.1)
            factors = [BetweenFactorSE2(i - 1, i,
                                        SE2(1.0, 0.0, 0.05), NOISE)]
            if i == 9:
                # A second anchor: without it, the cycle's energy is
                # invariant to rigid shifts and poses 0-1 would provably
                # never move.
                factors.append(
                    PriorFactorSE2(9, SE2(8.5, 1.8, 0.5), NOISE))
            engine.update({i: guess}, factors)
        ctx = engine.update(
            {}, [BetweenFactorSE2(2, 9, SE2(7.0, 1.5, 0.3), NOISE)])
        fresh_positions = {p for sid in ctx.node_parents
                           for p in engine.nodes[sid].positions}
        assert fresh_positions.isdisjoint({0, 1})
        exact = dense_solution(engine)
        frozen = any(
            not np.allclose(engine.delta[p], exact[p], atol=1e-12)
            for p in range(2))
        assert frozen

    def test_zero_tolerance_matches_dense(self):
        engine = IncrementalEngine(wildfire_tol=0.0)
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        for i in range(1, 10):
            engine.update(*odometry_step(i))
        assert_delta_matches_dense(engine)

    def test_small_tolerance_close_to_dense(self):
        engine = IncrementalEngine(wildfire_tol=1e-4)
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        for i in range(1, 12):
            engine.update(*odometry_step(i))
        exact = dense_solution(engine)
        for p in range(engine.num_positions):
            np.testing.assert_allclose(engine.delta[p], exact[p], atol=5e-3)


class TestTraceSideChannel:
    def test_update_emits_trace(self):
        engine = IncrementalEngine(wildfire_tol=0.0)
        trace = OpTrace()
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)],
                      context=StepContext(trace))
        assert len(trace.nodes) == 1
        assert trace.flops > 0

    def test_odometry_touches_few_nodes(self):
        engine = IncrementalEngine(wildfire_tol=0.0, max_supernode_vars=1)
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        for i in range(1, 30):
            engine.update(*odometry_step(i))
        trace = OpTrace()
        ctx = engine.update(*odometry_step(30), context=StepContext(trace))
        # An odometry step refactors only the root region of the tree.
        assert ctx.refactored_nodes <= 3
        from repro.linalg.trace import OpKind
        refactored = [t for t in trace.nodes.values()
                      if any(op.kind is OpKind.POTRF for op in t.ops)]
        assert len(refactored) == ctx.refactored_nodes

    def test_loop_closure_touches_many_nodes(self):
        engine = IncrementalEngine(wildfire_tol=0.0, max_supernode_vars=1)
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        for i in range(1, 30):
            engine.update(*odometry_step(i))
        values, factors = odometry_step(30)
        factors.append(BetweenFactorSE2(0, 30, SE2(30.0, 0.0, 0.0), NOISE))
        ctx = engine.update(values, factors)
        # The closure reaches position 0: the whole path refactors.
        assert ctx.refactored_nodes >= 25
        assert_delta_matches_dense(engine)


class TestISAM2Solver:
    def test_step_reports(self):
        solver = ISAM2(relin_threshold=0.05)
        report = solver.update({0: SE2()},
                               [PriorFactorSE2(0, SE2(), NOISE)])
        assert report.step == 0
        report = solver.update(*odometry_step(1))
        assert report.step == 1
        assert report.refactored_nodes >= 1

    def test_tracks_trajectory(self):
        solver = ISAM2(relin_threshold=0.01)
        solver.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        truth = SE2()
        motion = SE2(1.0, 0.0, 0.1)
        for i in range(1, 15):
            truth = truth.compose(motion)
            # Initial guesses have bounded noise around the truth.
            guess = truth.retract(np.array([0.05, -0.05, 0.02]))
            solver.update({i: guess},
                          [BetweenFactorSE2(i - 1, i, motion, NOISE)])
        estimate = solver.estimate()
        assert estimate.at(14).is_close(truth, tol=1e-2)

    def test_relin_threshold_controls_work(self):
        def run(threshold):
            solver = ISAM2(relin_threshold=threshold)
            solver.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
            total = 0
            for i in range(1, 20):
                report = solver.update(*odometry_step(i))
                total += report.relinearized_variables
            return total

        assert run(1e-6) > run(1e3)
