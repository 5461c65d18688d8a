"""Cost-model fidelity: synthesized op sequences vs real engine traces.

The RA-ISAM2 budget rests on ``synthesize_node_ops`` predicting what
``IncrementalEngine._refactorize`` actually does.  These tests compare
the two op streams on real supernodes.
"""

from repro.factorgraph import BetweenFactorSE2, IsotropicNoise, \
    PriorFactorSE2
from repro.geometry import SE2
from repro.hardware import supernova_soc
from repro.instrumentation import StepContext
from repro.linalg.trace import OpKind, OpTrace
from repro.runtime.cost_model import synthesize_node_ops
from repro.runtime.scheduler import node_cycles
from repro.solvers import IncrementalEngine

NOISE = IsotropicNoise(3, 0.1)


def traced_engine_step(n=20, closure=True):
    """Run a chain + closure and capture the closure step's trace."""
    engine = IncrementalEngine(wildfire_tol=0.0)
    engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
    for i in range(1, n):
        engine.update({i: SE2(float(i), 0.05 * i, 0.0)},
                      [BetweenFactorSE2(i - 1, i, SE2(1.0, 0.05, 0.0),
                                        NOISE)])
    trace = OpTrace()
    factors = [BetweenFactorSE2(n - 1, n, SE2(1.0, 0.0, 0.0), NOISE)]
    if closure:
        factors.append(BetweenFactorSE2(0, n, SE2(float(n), 0.0, 0.0),
                                        NOISE))
    engine.update({n: SE2(float(n), 0.0, 0.0)}, factors,
                  context=StepContext(trace))
    return engine, trace


class TestSynthesizedOpsMatchReality:
    def test_same_op_kinds(self):
        engine, trace = traced_engine_step()
        synthesized_kinds = {op.kind for op in
                             synthesize_node_ops(12, 12, 3).ops}
        for node_trace in trace.nodes.values():
            real_kinds = {op.kind for op in node_trace.ops}
            # Every real kind is one the estimator knows to price.
            assert real_kinds <= synthesized_kinds

    def test_cycle_estimate_within_bounds(self):
        engine, trace = traced_engine_step()
        soc = supernova_soc(1)
        for sid, node_trace in trace.nodes.items():
            if not any(op.kind is OpKind.POTRF for op in node_trace.ops):
                continue  # solve-only touches from back-substitution
            node = engine.nodes.get(sid)
            if node is None:
                continue
            m = sum(engine.dims[p] for p in node.positions)
            n_below = sum(engine.dims[p] for p in node.pattern)
            num_factors = sum(
                len(engine._factors_at.get(p, ()))
                for p in node.positions)
            synth = synthesize_node_ops(m, n_below, num_factors)
            real = sum(node_cycles(node_trace, soc))
            estimate = sum(node_cycles(synth, soc))
            # Within 4x either way on real supernodes (the estimate
            # approximates child merges with a single scatter).
            assert 0.25 < estimate / real < 4.0, (sid, estimate, real)

    def test_flop_estimate_tracks_reality(self):
        engine, trace = traced_engine_step()
        total_real = sum(t.flops for t in trace.nodes.values())
        total_est = 0
        for sid in trace.nodes:
            node = engine.nodes.get(sid)
            if node is None:
                continue
            m = sum(engine.dims[p] for p in node.positions)
            n_below = sum(engine.dims[p] for p in node.pattern)
            num_factors = sum(len(engine._factors_at.get(p, ()))
                              for p in node.positions)
            total_est += synthesize_node_ops(m, n_below,
                                             num_factors).flops
        assert 0.3 < total_est / total_real < 3.0

    def test_workspace_matches_front_dims(self):
        engine, trace = traced_engine_step()
        for sid, node_trace in trace.nodes.items():
            node = engine.nodes.get(sid)
            if node is None or node_trace.cols == 0:
                continue
            m = sum(engine.dims[p] for p in node.positions)
            n_below = sum(engine.dims[p] for p in node.pattern)
            assert node_trace.cols == m
            assert node_trace.rows_below == n_below
