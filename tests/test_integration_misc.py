"""Integration and edge-case tests across modules."""

import numpy as np
import pytest

from repro.core import RAISAM2
from repro.datasets import (
    FrontendModel,
    OnlineRun,
    euroc_like_dataset,
    run_online,
)
from repro.factorgraph import (
    BetweenFactorSE2,
    IsotropicNoise,
    PriorFactorSE2,
)
from repro.geometry import SE2
from repro.hardware import make_platform
from repro.instrumentation import StepContext
from repro.linalg.trace import Op, OpKind, OpTrace
from repro.runtime import (
    NodeCostModel,
    RuntimeFeatures,
    execute_step,
)
from repro.solvers import ISAM2, IncrementalEngine
from repro.solvers.base import StepReport

NOISE = IsotropicNoise(3, 0.1)


class TestEurocLikeDataset:
    def test_counts_scale(self):
        small = euroc_like_dataset(scale=0.1)
        assert small.num_steps == 60
        assert small.is_3d

    def test_has_loop_closures(self):
        data = euroc_like_dataset(scale=0.5)
        long_edges = [f for step in data.steps for f in step.closures
                      if f.keys[1] - f.keys[0] > 60]
        assert len(long_edges) > 0

    def test_trajectory_stays_in_volume(self):
        data = euroc_like_dataset(scale=0.2, extent=4.0)
        for pose in data.ground_truth.values():
            assert np.all(np.abs(pose.t[:2]) <= 4.0 + 1e-9)

    def test_solvable(self):
        data = euroc_like_dataset(scale=0.1)
        solver = ISAM2(relin_threshold=0.05)
        run = run_online(solver, data, error_every=10)
        assert run.step_rmse[-1] < 0.2

    def test_frontend_model_near_constant(self):
        frontend = FrontendModel(base_ms=3.5, jitter_ms=0.4)
        seq = frontend.sequence_seconds(200)
        mean = np.mean(seq)
        assert abs(mean - 3.5e-3) < 3e-4
        assert np.std(seq) < 0.2 * mean


class TestExecutorEdgeCases:
    def test_empty_report(self):
        report = StepReport(step=0)
        latency = execute_step(report, make_platform("BOOM"))
        assert latency.total == 0.0

    def test_features_affect_numeric_only(self):
        engine = IncrementalEngine()
        trace = OpTrace()
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)],
                      context=StepContext(trace))
        for i in range(1, 12):
            trace = OpTrace()
            engine.update(
                {i: SE2(float(i), 0.0, 0.0)},
                [BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0), NOISE)],
                context=StepContext(trace))
        report = StepReport(step=11, relinearized_factors=3,
                            affected_columns=4, trace=trace,
                            node_parents={})
        soc = make_platform("SuperNoVA2S")
        fast = execute_step(report, soc, {}, RuntimeFeatures.all())
        slow = execute_step(report, soc, {}, RuntimeFeatures.none())
        assert fast.relinearization == slow.relinearization
        assert fast.symbolic == slow.symbolic
        assert fast.numeric <= slow.numeric

    def test_cpu_tiles_parallelize_relin(self):
        report = StepReport(step=0, relinearized_factors=100)
        one = execute_step(report, make_platform("SuperNoVA1S"))
        four = execute_step(report, make_platform("SuperNoVA4S"))
        assert four.relinearization == pytest.approx(
            one.relinearization / 4.0)


class TestOnlineRunProperties:
    def test_empty_run(self):
        run = OnlineRun(dataset="x", solver="y")
        assert run.irmse == 0.0
        assert run.max_over_steps == 0.0
        assert run.final_max_error == 0.0
        assert run.latency_seconds() == []

    def test_max_over_steps(self):
        run = OnlineRun(dataset="x", solver="y",
                        step_max_error=[0.1, 0.5, 0.2])
        assert run.max_over_steps == 0.5
        assert run.final_max_error == 0.2


class TestRaIsam2Validation:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            RAISAM2(NodeCostModel(make_platform("SuperNoVA1S")),
                    selection_policy="greedy-by-size")

    def test_policies_run(self):
        for policy in ("relevance", "fifo", "random"):
            solver = RAISAM2(NodeCostModel(make_platform("SuperNoVA1S")),
                             target_seconds=1e-4,
                             selection_policy=policy)
            solver.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
            report = solver.update(
                {1: SE2(1.1, 0.1, 0.0)},
                [BetweenFactorSE2(0, 1, SE2(1.0, 0.0, 0.0), NOISE)])
            assert report.step == 1


class TestTraceAccounting:
    def test_ops_by_kind_counts(self):
        trace = OpTrace()
        node = trace.node(0, cols=4, rows_below=4)
        node.record(OpKind.GEMM, 4, 4, 4)
        node.record(OpKind.GEMM, 8, 8, 8)
        node.record(OpKind.MEMSET, 256)
        counts = trace.ops_by_kind()
        assert counts[OpKind.GEMM] == 2
        assert counts[OpKind.MEMSET] == 1

    def test_node_reuse_updates_dims(self):
        trace = OpTrace()
        trace.node(3, cols=4, rows_below=2)
        node = trace.node(3, cols=8, rows_below=1)
        assert node.cols == 8
        assert node.rows_below == 2
        assert len(trace) == 1

    def test_loose_ops_counted(self):
        trace = OpTrace()
        trace.loose.record(OpKind.TRSV, 12)
        assert trace.flops == Op(OpKind.TRSV, (12,)).flops


class TestEngineEdgeCases:
    def test_empty_update_is_noop(self):
        engine = IncrementalEngine()
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        before = [d.copy() for d in engine.delta]
        ctx = engine.update({}, [])
        assert ctx.refactored_nodes == 0
        for b, a in zip(before, engine.delta):
            np.testing.assert_array_equal(b, a)

    def test_relin_of_unmoved_variable(self):
        engine = IncrementalEngine(wildfire_tol=0.0)
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        engine.update({1: SE2(1.0, 0.0, 0.0)},
                      [BetweenFactorSE2(0, 1, SE2(1.0, 0.0, 0.0), NOISE)])
        # Perfect guess -> delta ~ 0; relinearizing is harmless.
        ctx = engine.update({}, [], relin_keys=[1])
        assert ctx.relinearized_variables == 1
        engine.check_invariants()

    def test_multiple_new_variables_one_step(self):
        engine = IncrementalEngine(wildfire_tol=0.0)
        factors = [PriorFactorSE2(0, SE2(), NOISE)]
        factors += [BetweenFactorSE2(i, i + 1, SE2(1.0, 0.0, 0.0), NOISE)
                    for i in range(4)]
        values = {i: SE2(float(i), 0.0, 0.0) for i in range(5)}
        engine.update(values, factors)
        engine.check_invariants()
        assert engine.num_positions == 5

    def test_node_parents_of_roots(self):
        engine = IncrementalEngine()
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
        sids = list(engine.nodes.keys())
        parents = engine.node_parents(sids)
        assert parents[sids[0]] is None


class TestExperimentScaling:
    def test_dataset_scale_env(self, monkeypatch):
        from repro.experiments import common
        monkeypatch.setenv("REPRO_FULL", "1")
        assert common.dataset_scale("M3500") == 1.0
        monkeypatch.delenv("REPRO_FULL")
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert common.dataset_scale("M3500") == pytest.approx(0.05)

    def test_target_scales_with_dataset(self, monkeypatch):
        from repro.experiments import common
        monkeypatch.setenv("REPRO_FULL", "1")
        assert common.target_for("CAB2") == pytest.approx(1.0 / 30.0)
