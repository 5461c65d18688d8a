"""Fixed-lag equivalence: the shared-executor path must reproduce the
pre-refactor solver.

``tests/_seed_fixed_lag.py`` is a verbatim snapshot of the fixed-lag
solve path before the plan/execute refactor: a fresh
``MultifrontalCholesky`` per Gauss-Newton iteration with per-factor
``gather_indices``/``scatter_add_block`` assembly loops.  These tests
dual-run it against the live :class:`repro.solvers.FixedLagSmoother`
(one hoisted solver per step, plan-cache reuse across iterations,
assembly through the shared ``StepExecutor``) on scaled real datasets
and require identical per-step estimates and op traces to ``atol=1e-9``.
"""

import numpy as np

from repro.datasets import cab1_dataset, manhattan_dataset
from repro.instrumentation import StepContext
from repro.linalg.trace import OpTrace
from repro.solvers.fixed_lag import FixedLagSmoother

from tests._seed_fixed_lag import SeedFixedLagSmoother

ATOL = 1e-9


def _trace_signature(trace):
    """(sid -> [(kind, dims)...]) plus loose ops, order-preserving."""
    nodes = {sid: [(op.kind, op.dims) for op in node.ops]
             for sid, node in trace.nodes.items()}
    loose = [(op.kind, op.dims) for op in trace.loose.ops]
    return nodes, loose


def _dual_run(data, window=8, iterations=2):
    seed = SeedFixedLagSmoother(window=window, iterations=iterations)
    current = FixedLagSmoother(window=window, iterations=iterations)
    for index, step in enumerate(data.steps):
        seed_trace = OpTrace()
        cur_trace = OpTrace()
        seed_report = seed.update({step.key: step.guess}, step.factors,
                                  trace=seed_trace)
        cur_report = current.update({step.key: step.guess}, step.factors,
                                    context=StepContext(cur_trace))

        assert (cur_report.extras["dropped_factors"]
                == seed_report.extras["dropped_factors"]), f"step {index}"

        # Identical op streams, node by node, in recording order.
        seed_nodes, seed_loose = _trace_signature(seed_trace)
        cur_nodes, cur_loose = _trace_signature(cur_trace)
        assert cur_nodes == seed_nodes, f"step {index}"
        assert cur_loose == seed_loose, f"step {index}"

        # Iteration 2+ of every step runs on reused plans.
        if iterations > 1:
            assert cur_report.extras["plan_hits"] > 0, f"step {index}"

        # Identical estimates, key by key (history + live window).
        seed_est = seed.estimate()
        cur_est = current.estimate()
        seed_keys = sorted(seed_est.keys())
        assert sorted(cur_est.keys()) == seed_keys, f"step {index}"
        for key in seed_keys:
            np.testing.assert_allclose(
                cur_est.at(key).local(seed_est.at(key)), 0.0,
                atol=ATOL, err_msg=f"step {index}, key {key}")


class TestFixedLagEquivalence:
    def test_cab1_scaled(self):
        # Loop-closure-rich: exercises dropped factors and the
        # marginal-prior (LinearizedGaussianFactor) fallback path.
        _dual_run(cab1_dataset(scale=0.1))

    def test_m3500_scaled(self):
        _dual_run(manhattan_dataset(scale=0.02), window=6)

    def test_single_iteration(self):
        # iterations=1 never revisits a plan within a step: every
        # factorize is all-compiles and must still be bit-identical.
        _dual_run(cab1_dataset(scale=0.06), window=5, iterations=1)


class TestSeedSnapshotIntegrity:
    def test_seed_fixed_lag_is_importable_and_runs(self):
        data = manhattan_dataset(scale=0.01)
        solver = SeedFixedLagSmoother(window=5)
        for step in data.steps:
            solver.update({step.key: step.guess}, step.factors)
        assert len(list(solver.estimate().keys())) == len(data.steps)
