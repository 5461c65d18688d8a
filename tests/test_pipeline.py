"""Unit tests for the BackendPipeline step loop and its stages."""

import numpy as np
import pytest

from repro.datasets import manhattan_dataset, run_online
from repro.hardware import make_platform
from repro.pipeline import (
    BackendPipeline,
    ErrorSamplingStage,
    PipelineStage,
    PricingStage,
    SnapshotStage,
    reprice_run,
)
from repro.solvers import ISAM2


def tiny_dataset():
    return manhattan_dataset(scale=0.01)


class TestBackendPipeline:
    def test_plain_run_collects_reports(self):
        data = tiny_dataset()
        run = BackendPipeline(ISAM2()).run(data)
        assert len(run.reports) == len(data.steps)
        assert run.dataset == data.name
        assert run.solver == "ISAM2"
        # Traces are off by default: null-cost instrumentation.
        assert all(r.trace is None for r in run.reports)

    def test_collect_traces_attaches_one_trace_per_step(self):
        data = tiny_dataset()
        run = BackendPipeline(ISAM2(), collect_traces=True).run(data)
        assert all(r.trace is not None for r in run.reports)
        assert any(len(r.trace) > 0 for r in run.reports)

    def test_max_steps_truncates(self):
        run = BackendPipeline(ISAM2()).run(tiny_dataset(), max_steps=5)
        assert len(run.reports) == 5

    def test_max_steps_zero_runs_nothing(self):
        # Regression: ``if max_steps:`` treated 0 as "run everything".
        run = BackendPipeline(ISAM2()).run(tiny_dataset(), max_steps=0)
        assert run.reports == []

    def test_max_steps_negative_raises(self):
        with pytest.raises(ValueError):
            BackendPipeline(ISAM2()).run(tiny_dataset(), max_steps=-1)
        with pytest.raises(ValueError):
            run_online(ISAM2(), tiny_dataset(), max_steps=-1)

    def test_run_online_max_steps_zero_runs_nothing(self):
        run = run_online(ISAM2(), tiny_dataset(), max_steps=0)
        assert run.reports == []

    def test_stage_hooks_fire_in_order(self):
        events = []

        class Probe(PipelineStage):
            def on_step(self, pipeline, ctx, report, run):
                events.append(("step", ctx.step, ctx.is_last))

            def finish(self, pipeline, run):
                events.append(("finish",))

        data = tiny_dataset()
        BackendPipeline(ISAM2(), stages=[Probe()]).run(data)
        assert events[-1] == ("finish",)
        steps = [e for e in events if e[0] == "step"]
        assert [e[1] for e in steps] == list(range(len(data.steps)))
        assert [e[2] for e in steps].count(True) == 1
        assert steps[-1][2] is True

    def test_snapshot_stage_captures_every_step(self):
        data = tiny_dataset()
        snap = SnapshotStage()
        BackendPipeline(ISAM2(), stages=[snap]).run(data)
        assert len(snap.snapshots) == len(data.steps)
        assert len(list(snap.snapshots[0].keys())) == 1
        assert len(list(snap.snapshots[-1].keys())) == len(data.steps)

    def test_pricing_stage_needs_traces(self):
        data = tiny_dataset()
        stage = PricingStage(make_platform("SuperNoVA2S"))
        run = BackendPipeline(ISAM2(), stages=[stage],
                              collect_traces=True).run(data)
        assert len(run.latencies) == len(data.steps)
        assert all(lat.total >= 0.0 for lat in run.latencies)

    def test_error_sampling_stride_plus_final(self):
        data = tiny_dataset()
        stage = ErrorSamplingStage(every=8)
        run = BackendPipeline(ISAM2(), stages=[stage]).run(data)
        expected = len(range(0, len(data.steps), 8))
        if (len(data.steps) - 1) % 8:
            expected += 1   # the final step is always sampled
        assert len(run.step_rmse) == expected
        assert run.irmse >= 0.0


class TestThinWrappers:
    def test_run_online_delegates_to_pipeline(self):
        data = tiny_dataset()
        run = run_online(ISAM2(), data, soc=make_platform("SuperNoVA2S"),
                         collect_errors=False)
        assert len(run.reports) == len(data.steps)
        assert len(run.latencies) == len(data.steps)
        assert run.step_rmse == []

    def test_reprice_run_matches_inline_pricing(self):
        data = tiny_dataset()
        soc = make_platform("SuperNoVA2S")
        run = run_online(ISAM2(), data, soc=soc, collect_errors=False)
        repriced = reprice_run(run, soc)
        np.testing.assert_allclose(
            [lat.total for lat in repriced],
            [lat.total for lat in run.latencies])
