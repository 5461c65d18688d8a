"""Tests for the trace-replay design-space autotuner."""

import numpy as np
import pytest

from repro.hardware.autotune import (
    DEFAULT_DRAM_BYTES_PER_CYCLE,
    DEFAULT_LLC_BYTES,
    AutotuneResult,
    DesignPoint,
    RecordedWorkload,
    autotune,
    default_grid,
    pareto_mask,
)
from repro.hardware.registry import make_platform
from repro.hardware.spec import apply_overrides
from repro.linalg.trace import OpKind, OpTrace
from repro.runtime.executor import execute_step
from repro.runtime.scheduler import LANE_CACHE_STATS
from repro.solvers.base import StepReport


def synthetic_workload(num_steps: int = 6,
                       nodes_per_step: int = 5) -> RecordedWorkload:
    """A deterministic workload shaped like a real incremental run:
    per-node compute + memory ops on an elimination chain, plus loose
    host-side solve ops."""
    steps = []
    for step in range(num_steps):
        trace = OpTrace()
        parents = {}
        for node in range(nodes_per_step):
            cols = 6 + (node + step) % 4
            rows = 12 + 2 * node
            nt = trace.node(node, cols=cols, rows_below=rows)
            nt.record(OpKind.MEMSET, 8 * cols * (cols + rows))
            nt.record(OpKind.GEMM, rows, cols, cols)
            nt.record(OpKind.SYRK, rows, cols)
            nt.record(OpKind.POTRF, cols)
            nt.record(OpKind.TRSM, rows, cols)
            nt.record(OpKind.SCATTER_ADD, rows, cols)
            nt.record(OpKind.MEMCPY, 8 * rows * cols)
            parents[node] = node - 1 if node else None
        trace.loose.record(OpKind.TRSV, 24)
        trace.loose.record(OpKind.GEMV, 24, 12)
        steps.append(StepReport(
            step=step,
            relinearized_factors=10 + 3 * step,
            affected_columns=20 + step,
            refactored_nodes=nodes_per_step,
            trace=trace,
            selection_visits=2 * nodes_per_step,
            node_parents=parents,
        ))
    return RecordedWorkload(name="synthetic", steps=steps)


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload()


class TestParetoMask:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        obj = rng.random((300, 3))
        fast = pareto_mask(obj, chunk=64)
        slow = np.ones(len(obj), dtype=bool)
        for i in range(len(obj)):
            for j in range(len(obj)):
                if (obj[j] <= obj[i]).all() and (obj[j] < obj[i]).any():
                    slow[i] = False
                    break
        assert (fast == slow).all()

    def test_duplicate_rows_do_not_dominate_each_other(self):
        obj = np.array([[1.0, 2.0], [1.0, 2.0], [0.5, 3.0], [2.0, 2.0]])
        assert pareto_mask(obj).tolist() == [True, True, True, False]

    def test_single_point_kept(self):
        assert pareto_mask(np.array([[3.0, 4.0]])).tolist() == [True]

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            pareto_mask(np.array([1.0, 2.0]))


class TestOverrides:
    def test_comp_shortcut_routes_into_comp_spec(self):
        soc = make_platform("SuperNoVA2S", systolic_dim=8)
        assert soc.comp.systolic_dim == 8
        assert soc.accel_sets == 2

    def test_unknown_key_raises(self):
        with pytest.raises(TypeError, match="unknown platform override"):
            make_platform("SuperNoVA2S", systolic=8)

    def test_comp_override_on_cpu_platform_raises(self):
        with pytest.raises(TypeError, match="no COMP accelerator"):
            make_platform("ServerCPU", systolic_dim=8)

    def test_no_overrides_returns_same_spec(self):
        soc = make_platform("SuperNoVA2S")
        assert apply_overrides(soc) is soc


class TestGridCollapse:
    def test_distinct_pricings_and_schedules(self, workload):
        grid = default_grid(systolic_dims=(4, 8), set_counts=(1, 2),
                            tile_counts=(1, 2),
                            llc_sizes=(DEFAULT_LLC_BYTES,),
                            dram_bandwidths=(32.0, 64.0))
        result = autotune(workload, grid=grid)
        assert result.num_configs == 16
        # tiles never forces a new schedule; llc/dram/sets never force a
        # new pricing.
        assert result.distinct_schedules == 8
        assert result.distinct_pricings == 2

    def test_lane_cache_prices_once_per_dim(self):
        # A fresh workload carries cold per-trace lane caches, so the
        # counters measure exactly this sweep.
        fresh = synthetic_workload()
        grid = default_grid(systolic_dims=(2, 4), set_counts=(1, 2),
                            tile_counts=(1, 4),
                            llc_sizes=(DEFAULT_LLC_BYTES,),
                            dram_bandwidths=(64.0,))
        LANE_CACHE_STATS.reset()
        autotune(fresh, grid=grid)
        # One pricing per node per distinct systolic dim...
        assert LANE_CACHE_STATS.misses == fresh.num_nodes * 2
        # ...shared by the 4 distinct (dim, sets) schedule replays.
        assert LANE_CACHE_STATS.hits == fresh.num_nodes * 2


class TestAgainstExecuteStep:
    def test_totals_match_direct_pricing(self, workload):
        points = [
            DesignPoint(4, 2, 2),
            DesignPoint(8, 1, 3, llc_bytes=512 * 1024,
                        dram_bytes_per_cycle=16.0),
            DesignPoint(2, 4, 1, llc_bytes=1024 * 1024,
                        dram_bytes_per_cycle=8.0),
        ]
        result = autotune(workload, grid=points)
        for i, point in enumerate(points):
            soc = point.spec()
            expected = sum(
                execute_step(r, soc, r.node_parents).total
                for r in workload.steps)
            assert result.total_seconds[i] == pytest.approx(
                expected, rel=1e-12)

    def test_empty_grid_rejected(self, workload):
        with pytest.raises(ValueError):
            autotune(workload, grid=[])


class TestResultQueries:
    @pytest.fixture(scope="class")
    def result(self, workload) -> AutotuneResult:
        grid = default_grid(systolic_dims=(2, 4, 8), set_counts=(1, 2),
                            tile_counts=(1, 2),
                            llc_sizes=(DEFAULT_LLC_BYTES,),
                            dram_bandwidths=(
                                DEFAULT_DRAM_BYTES_PER_CYCLE,))
        return autotune(workload, grid=grid)

    def test_front_is_nonempty_and_consistent(self, result):
        front = result.front()
        assert front
        indices = result.front_indices()
        assert [result.points[i] for i in indices] == front

    def test_best_under_area_budget(self, result):
        small = result.area_um2.min()
        best = result.best_under(max_area_um2=small)
        assert best is not None
        assert result.area_um2[best] == small

    def test_best_under_infeasible_budget(self, result):
        assert result.best_under(max_area_um2=1.0) is None
        assert result.best_under(max_power_watts=1e-9) is None

    def test_best_unconstrained_is_global_fastest(self, result):
        best = result.best_under()
        assert result.total_seconds[best] == result.total_seconds.min()

    def test_power_scales_with_sets(self, result):
        one = result.index_of(DesignPoint(4, 1, 1))
        two = result.index_of(DesignPoint(4, 2, 1))
        assert result.peak_power_watts[two] == pytest.approx(
            2.0 * result.peak_power_watts[one])

    def test_more_tiles_never_slower(self, result):
        one = result.index_of(DesignPoint(4, 2, 1))
        two = result.index_of(DesignPoint(4, 2, 2))
        assert result.total_seconds[two] < result.total_seconds[one]
        # but the schedule (numeric part) is identical
        assert result.numeric_seconds[two] == result.numeric_seconds[one]


class TestRecordedWorkload:
    def test_counts(self, workload):
        assert workload.num_steps == 6
        assert workload.num_nodes == 30

    def test_from_run_duck_typing(self):
        class FakeRun:
            dataset = "FAKE"
            reports = synthetic_workload(2, 2).steps

        wrapped = RecordedWorkload.from_run(FakeRun())
        assert wrapped.name == "FAKE"
        assert wrapped.num_steps == 2
