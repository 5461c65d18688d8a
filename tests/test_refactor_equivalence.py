"""Refactor-equivalence: the ported engine must reproduce the seed.

``tests/_seed_engine.py`` is a verbatim snapshot of the pre-refactor
incremental engine (list-of-arrays state, trace threading).  These tests
dual-run it against the current :class:`repro.solvers.ISAM2` on scaled
real datasets and require identical per-step delta trajectories and op
traces to ``atol=1e-9`` — the contiguous block-state port must not move
a single float operation.
"""

import numpy as np

from repro.datasets import cab1_dataset, manhattan_dataset
from repro.instrumentation import StepContext
from repro.linalg.trace import OpTrace
from repro.solvers import ISAM2

from tests._seed_engine import SeedISAM2

ATOL = 1e-9


def _trace_signature(trace):
    """(sid -> [(kind, dims)...]) plus loose ops, order-preserving."""
    nodes = {sid: [(op.kind, op.dims) for op in node.ops]
             for sid, node in trace.nodes.items()}
    loose = [(op.kind, op.dims) for op in trace.loose.ops]
    return nodes, loose


def _dual_run(data, relin_threshold=0.05, wildfire_tol=1e-5):
    seed = SeedISAM2(relin_threshold=relin_threshold,
                     wildfire_tol=wildfire_tol)
    current = ISAM2(relin_threshold=relin_threshold,
                    wildfire_tol=wildfire_tol)
    for index, step in enumerate(data.steps):
        seed_trace = OpTrace()
        cur_trace = OpTrace()
        seed_report = seed.update({step.key: step.guess}, step.factors,
                                  trace=seed_trace)
        cur_report = current.update({step.key: step.guess}, step.factors,
                                    context=StepContext(cur_trace))

        # Work counters: both sides decided the same relinearization set
        # and refactored the same part of the tree.
        assert (cur_report.relinearized_variables
                == seed_report.relinearized_variables), f"step {index}"
        assert (cur_report.refactored_nodes
                == seed_report.refactored_nodes), f"step {index}"
        assert (cur_report.affected_columns
                == seed_report.affected_columns), f"step {index}"
        assert cur_report.node_parents == seed_report.node_parents

        # Identical op streams, node by node, in recording order.
        seed_nodes, seed_loose = _trace_signature(seed_trace)
        cur_nodes, cur_loose = _trace_signature(cur_trace)
        assert cur_nodes == seed_nodes, f"step {index}"
        assert cur_loose == seed_loose, f"step {index}"

        # Identical delta trajectory, position by position.
        seed_delta = seed.engine.delta
        cur_delta = current.engine.delta
        assert len(cur_delta) == len(seed_delta)
        for p in range(len(seed_delta)):
            np.testing.assert_allclose(
                cur_delta[p], seed_delta[p], atol=ATOL, rtol=0.0,
                err_msg=f"step {index}, position {p}")

    # Final estimates coincide too (retraction of identical deltas).
    seed_est = seed.estimate()
    cur_est = current.estimate()
    for key in seed_est.keys():
        np.testing.assert_allclose(
            cur_est.at(key).local(seed_est.at(key)),
            0.0, atol=ATOL)


class TestRefactorEquivalence:
    def test_m3500_scaled(self):
        self._check(manhattan_dataset(scale=0.02))

    def test_cab1_scaled(self):
        self._check(cab1_dataset(scale=0.1))

    def test_m3500_zero_wildfire(self):
        # wildfire_tol=0 forces full back-substitution every step,
        # exercising the vectorized dirty check's always-dirty path.
        data = manhattan_dataset(scale=0.012)
        _dual_run(data, relin_threshold=1e-3, wildfire_tol=0.0)

    @staticmethod
    def _check(data):
        _dual_run(data)


class TestSeedSnapshotIntegrity:
    def test_seed_engine_is_importable_and_runs(self):
        data = manhattan_dataset(scale=0.01)
        solver = SeedISAM2(relin_threshold=0.05)
        for step in data.steps:
            solver.update({step.key: step.guess}, step.factors)
        assert len(list(solver.estimate().keys())) == len(data.steps)
