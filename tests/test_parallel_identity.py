"""Level-scheduled execution must be bit-identical at every worker count.

The level scheduler (:mod:`repro.linalg.parallel`) is the only numeric
driver; one worker runs each level inline, more fan it out onto a
thread pool.  It promises atol-0 equality across worker counts for
every solver mode: deltas, factors, solutions, op traces (content *and*
insertion order) and plan counters.  These tests pin that contract
across orderings and worker counts, check that one worker never asks
for the pool, and cover the level scheduler itself and the
thread-safety of the lane-pricing memo it leans on.
"""

import os
import threading

import numpy as np
import pytest

from repro.core import RAISAM2
from repro.datasets import manhattan_dataset
from repro.factorgraph import FactorGraph, Values
from repro.hardware import make_platform
from repro.instrumentation import StepContext
from repro.linalg import MultifrontalCholesky, SymbolicFactorization
from repro.linalg.parallel import (
    levels_from_parents,
    resolve_workers,
)
from repro.linalg.plan import tree_solve
from repro.linalg.trace import OpTrace
from repro.runtime import NodeCostModel, node_cycles
from repro.runtime.cost_model import synthesize_node_ops
from repro.runtime.scheduler import LANE_CACHE_STATS, LaneCacheStats
from repro.serving import (
    FleetConfig,
    default_solver_factory,
    fleet_workload,
    run_fleet,
)
from repro.solvers import GaussNewton, ISAM2, LevenbergMarquardt
from repro.solvers.fixed_lag import FixedLagSmoother
from repro.solvers.linearize import linearize_graph

ORDERINGS = ("chronological", "minimum_degree", "constrained_colamd",
             "nested_dissection")
WORKER_COUNTS = (2, 4, resolve_workers(0))


def assert_traces_identical(ta: OpTrace, tb: OpTrace) -> None:
    """Byte-level trace equality: node insertion order, op kinds, dims,
    and front geometry all must match (sequential_cycles float-sums in
    insertion order, so order is part of the contract)."""
    assert list(ta.nodes.keys()) == list(tb.nodes.keys())
    for sid in ta.nodes:
        na, nb = ta.nodes[sid], tb.nodes[sid]
        assert na.kind_codes().tobytes() == nb.kind_codes().tobytes(), sid
        assert na.dims_matrix().tobytes() == nb.dims_matrix().tobytes(), sid
        assert (na.cols, na.rows_below) == (nb.cols, nb.rows_below), sid
    assert ta.loose.kind_codes().tobytes() == tb.loose.kind_codes().tobytes()
    assert ta.loose.dims_matrix().tobytes() == tb.loose.dims_matrix().tobytes()


def batch_problem(scale=0.05, seed=3):
    data = manhattan_dataset(scale=scale, seed=seed)
    graph = FactorGraph()
    values = Values()
    for step in data.steps:
        values.insert(step.key, step.guess)
        for factor in step.factors:
            graph.add(factor)
    return data, graph, values


class TestLevelsFromParents:
    def test_chain_is_one_node_per_level(self):
        levels = levels_from_parents([0, 1, 2, 3],
                                     {0: 1, 1: 2, 2: 3, 3: None})
        assert levels == [[0], [1], [2], [3]]

    def test_star_is_two_levels(self):
        levels = levels_from_parents([0, 1, 2, 3],
                                     {0: 3, 1: 3, 2: 3, 3: None})
        assert levels == [[0, 1, 2], [3]]

    def test_forest_roots_share_level_zero(self):
        levels = levels_from_parents([0, 1], {0: None, 1: None})
        assert levels == [[0, 1]]

    def test_parent_outside_set_is_root(self):
        # Wildfire/back-substitution level sets may exclude an ancestor.
        levels = levels_from_parents([0, 1], {0: 1, 1: 99})
        assert levels == [[0], [1]]

    def test_preserves_input_order_within_level(self):
        levels = levels_from_parents([5, 3, 8, 2],
                                     {5: 2, 3: 2, 8: 2, 2: None})
        assert levels == [[5, 3, 8], [2]]

    def test_unbalanced_tree(self):
        #   0 -> 1 -> 4(root) <- 2, 3 -> 4
        levels = levels_from_parents([0, 1, 2, 3, 4],
                                     {0: 1, 1: 4, 2: 4, 3: 4, 4: None})
        assert levels == [[0, 2, 3], [1], [4]]

    def test_empty(self):
        assert levels_from_parents([], {}) == []


class TestResolveWorkers:
    def test_explicit(self):
        assert resolve_workers(3) == 3

    def test_nonpositive_means_cpu_count(self):
        assert resolve_workers(0) == max(1, os.cpu_count() or 1)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) == 1


class TestBatchIdentity:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_gauss_newton_bit_identical(self, ordering):
        _, graph, values = batch_problem()
        serial = GaussNewton(max_iterations=4, ordering=ordering,
                             workers=1).optimize(graph, values)
        for workers in WORKER_COUNTS:
            par = GaussNewton(max_iterations=4, ordering=ordering,
                              workers=workers).optimize(graph, values)
            assert par.error_history == serial.error_history
            for key in serial.values.keys():
                a = np.asarray(serial.values.at(key).matrix())
                b = np.asarray(par.values.at(key).matrix())
                assert a.tobytes() == b.tobytes(), (ordering, workers, key)

    def test_levenberg_bit_identical(self):
        _, graph, values = batch_problem()
        serial = LevenbergMarquardt(max_iterations=4,
                                    workers=1).optimize(graph, values)
        par = LevenbergMarquardt(max_iterations=4,
                                 workers=4).optimize(graph, values)
        assert par.error_history == serial.error_history
        assert par.final_lambda == serial.final_lambda

    def test_cholesky_factors_traces_and_counters(self):
        _, graph, values = batch_problem()
        policy = GaussNewton(ordering="constrained_colamd").ordering_policy
        order = policy.order(list(values.keys()),
                             [f.keys for f in graph.factors()])
        position_of = {k: i for i, k in enumerate(order)}
        symbolic = SymbolicFactorization.from_ordering(
            order, {k: values.at(k).dim for k in order},
            [f.keys for f in graph.factors()])
        contributions = linearize_graph(graph.factors(), values,
                                        position_of)

        results = {}
        for workers in (1, 4):
            solver = MultifrontalCholesky(symbolic, workers=workers)
            trace = OpTrace()
            solver.factorize(contributions, trace=trace)
            solution = solver.solve(trace=trace)
            results[workers] = (solver, trace, solution)

        s1, t1, x1 = results[1]
        s4, t4, x4 = results[4]
        for sid in range(len(symbolic.supernodes)):
            assert s1._l_a[sid].tobytes() == s4._l_a[sid].tobytes(), sid
            assert s1._l_b[sid].tobytes() == s4._l_b[sid].tobytes(), sid
        for a, b in zip(x1, x4):
            assert a.tobytes() == b.tobytes()
        assert_traces_identical(t1, t4)
        # Plan-cache traffic is part of the contract: plans resolve on
        # the main thread in node order at every worker count.
        assert s1.plan_counters == s4.plan_counters
        assert s4.level_stats.nodes > 0  # it really dispatched

    def test_tree_solve_direct(self):
        _, graph, values = batch_problem()
        policy = GaussNewton(ordering="minimum_degree").ordering_policy
        order = policy.order(list(values.keys()),
                             [f.keys for f in graph.factors()])
        position_of = {k: i for i, k in enumerate(order)}
        symbolic = SymbolicFactorization.from_ordering(
            order, {k: values.at(k).dim for k in order},
            [f.keys for f in graph.factors()])
        solver = MultifrontalCholesky(symbolic)
        solver.factorize(linearize_graph(graph.factors(), values,
                                         position_of))
        entries = [
            (sid, solver._l_a[sid], solver._l_b[sid],
             solver._own_idx[sid],
             solver._row_idx[sid]
             if symbolic.supernodes[sid].row_pattern else None)
            for sid in symbolic.node_order()]
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal(solver._total)
        untraced = tree_solve(entries, rhs, solver._total)
        traced = tree_solve(entries, rhs, solver._total, OpTrace())
        assert untraced.tobytes() == traced.tobytes()

    def test_fixed_lag_bit_identical(self):
        data, _, _ = batch_problem()

        def run(workers):
            smoother = FixedLagSmoother(window=8, workers=workers)
            traces = []
            for step in data.steps[:30]:
                trace = OpTrace()
                smoother.update({step.key: step.guess}, step.factors,
                                context=StepContext(trace))
                traces.append(trace)
            return smoother, traces

        s1, t1 = run(1)
        s4, t4 = run(4)
        e1, e4 = s1.estimate(), s4.estimate()
        for key in e1.keys():
            a = np.asarray(e1.at(key).matrix())
            b = np.asarray(e4.at(key).matrix())
            assert a.tobytes() == b.tobytes(), key
        for ta, tb in zip(t1, t4):
            assert_traces_identical(ta, tb)


class TestEngineIdentity:
    @pytest.mark.parametrize("ordering",
                             ("chronological", "constrained_colamd"))
    def test_incremental_dual_run(self, ordering):
        data = manhattan_dataset(scale=0.05, seed=3)

        def run(workers):
            solver = ISAM2(ordering=ordering, reorder_interval=10,
                           workers=workers)
            deltas, traces, reports = [], [], []
            for step in data.steps[:60]:
                trace = OpTrace()
                report = solver.update({step.key: step.guess},
                                       step.factors,
                                       context=StepContext(trace))
                deltas.append(solver.engine.delta.data.copy())
                traces.append(trace)
                reports.append(report)
            return solver, deltas, traces, reports

        s1, d1, t1, r1 = run(1)
        for workers in WORKER_COUNTS:
            sw, dw, tw, rw = run(workers)
            for i, (a, b) in enumerate(zip(d1, dw)):
                assert a.tobytes() == b.tobytes(), (ordering, workers, i)
            for ta, tb in zip(t1, tw):
                assert_traces_identical(ta, tb)
            for ra, rb in zip(r1, rw):
                for key in ("plan_hits", "plan_misses", "plan_compiles",
                            "backsub_nodes"):
                    assert ra.extras[key] == rb.extras[key], \
                        (ordering, workers, key)
                assert ra.node_parents == rb.node_parents
            # Marginals solve over the level-built factors.
            key = sorted(s1.engine.pos_of)[len(s1.engine.pos_of) // 2]
            m1 = s1.engine.marginal_covariance(key)
            mw = sw.engine.marginal_covariance(key)
            assert m1.tobytes() == mw.tobytes()
            sw.engine.check_invariants()
        if ordering == "constrained_colamd":
            assert s1.engine.reorders > 0  # re-ordering actually ran

    def test_parallel_counters_reported(self):
        data = manhattan_dataset(scale=0.05, seed=3)
        solver = ISAM2(ordering="constrained_colamd", reorder_interval=10,
                       workers=4)
        reports = []
        for step in data.steps[:60]:
            reports.append(solver.update({step.key: step.guess},
                                         step.factors))
        dispatched = sum(r.extras["parallel_nodes"] for r in reports)
        assert dispatched > 0
        for report in reports:
            assert report.extras["wall_speedup"] >= 0.0
            if report.extras["parallel_nodes"] == 0:
                assert report.extras["wall_speedup"] == 1.0

    def test_serial_run_reports_no_parallelism(self):
        data = manhattan_dataset(scale=0.05, seed=3)
        solver = ISAM2(workers=1)
        step = data.steps[0]
        report = solver.update({step.key: step.guess}, step.factors)
        assert report.extras["parallel_nodes"] == 0.0
        assert report.extras["wall_speedup"] == 1.0


class TestInlineDispatch:
    """With one worker every level runs inline: no solver mode may ask
    for the thread pool."""

    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        def refuse(workers):
            raise AssertionError(f"thread pool requested ({workers})")

        monkeypatch.setattr("repro.linalg.parallel.shared_pool", refuse)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)

    def test_pool_guard_is_live(self):
        data = manhattan_dataset(scale=0.05, seed=3)
        solver = ISAM2(ordering="constrained_colamd", workers=2)
        with pytest.raises(AssertionError, match="thread pool requested"):
            for step in data.steps[:60]:
                solver.update({step.key: step.guess}, step.factors)

    def test_isam2_with_reorders(self):
        data = manhattan_dataset(scale=0.05, seed=3)
        solver = ISAM2(ordering="constrained_colamd", reorder_interval=10,
                       workers=1)
        for step in data.steps[:60]:
            report = solver.update({step.key: step.guess}, step.factors,
                                   context=StepContext(OpTrace()))
            assert report.extras["parallel_nodes"] == 0.0
        assert solver.engine.reorders > 0
        key = sorted(solver.engine.pos_of)[0]
        solver.engine.marginal_covariance(key)

    def test_raisam2(self):
        data = manhattan_dataset(scale=0.05, seed=3)
        solver = RAISAM2(NodeCostModel(make_platform("SuperNoVA1S")),
                         target_seconds=1.0 / 30.0, workers=1)
        for step in data.steps[:40]:
            solver.update({step.key: step.guess}, step.factors)

    def test_gauss_newton(self):
        _, graph, values = batch_problem()
        GaussNewton(max_iterations=3, ordering="constrained_colamd",
                    workers=1).optimize(graph, values)

    def test_fleet(self):
        result, fleet = run_fleet(fleet_workload(3, 16),
                                  default_solver_factory(),
                                  FleetConfig(workers=1, degrade=False))
        assert not fleet.dead_sessions
        assert result.steps_completed == 3 * 16


class TestConcurrentPricing:
    def test_same_trace_priced_once(self):
        # Regression: the lane-memo lookup/compute/store in node_cycles
        # and the LANE_CACHE_STATS increments used to be unsynchronized;
        # concurrent pricing of one trace double-counted misses (and
        # could tear the global counters), breaking the autotuner's
        # exact collapse accounting.
        soc = make_platform("SuperNoVA2S")
        n_threads = 8
        for round_ in range(5):
            trace = synthesize_node_ops(12, 12, 2)
            LANE_CACHE_STATS.reset()
            barrier = threading.Barrier(n_threads)
            outputs = [None] * n_threads

            def price(slot):
                barrier.wait()
                outputs[slot] = node_cycles(trace, soc)

            threads = [threading.Thread(target=price, args=(i,))
                       for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert LANE_CACHE_STATS.misses == 1, round_
            assert LANE_CACHE_STATS.hits == n_threads - 1, round_
            assert all(out == outputs[0] for out in outputs)

    def test_counters_exact_under_hammering(self):
        stats = LaneCacheStats()
        n_threads, per_thread = 8, 500
        barrier = threading.Barrier(n_threads)

        def hammer():
            barrier.wait()
            for _ in range(per_thread):
                stats.record_hit()
                stats.record_miss()

        threads = [threading.Thread(target=hammer)
                   for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.hits == n_threads * per_thread
        assert stats.misses == n_threads * per_thread
