"""Design-space exploration bench (paper Section 4.2's configurability).

Two tiers:

* the legacy 9-point sweep over (systolic dim, accelerator sets) — kept
  as the byte-reproducible ``design_space.txt`` artifact, and
* the full trace-replay autotuner over all five axes (dim, sets, CPU
  tiles, LLC, DRAM bandwidth): >= 1000 configurations with a gated
  per-configuration throughput floor against building + pricing each
  configuration independently, and the requirement that the old Pareto
  front survives inside the new one.
"""

import time

from repro.experiments.autotune_report import (
    autotune_report,
    front_contains,
    recorded_workload,
)
from repro.experiments.common import isam2_run
from repro.experiments.design_space import (
    design_space_sweep,
    design_space_table,
    pareto_points,
)
from repro.hardware.autotune import DesignPoint, autotune, default_grid
from repro.hardware.registry import make_platform
from repro.pipeline import reprice_run

#: Autotuned configs must price at least this much faster than the
#: naive build-and-price-per-config loop.
MIN_PER_CONFIG_SPEEDUP = 10.0


def test_design_space_sweep(once, save_result):
    results = once(design_space_sweep)
    save_result("design_space",
                "Design-space sweep — CAB2 numeric latency vs area\n"
                + design_space_table(results))

    # Bigger arrays and more sets are each individually faster.
    for sets in (1, 2, 4):
        assert results[(8, sets)]["numeric_seconds"] < \
            results[(2, sets)]["numeric_seconds"]
    for dim in (2, 4, 8):
        assert results[(dim, 4)]["numeric_seconds"] < \
            results[(dim, 1)]["numeric_seconds"]
    # Area grows with both axes.
    assert results[(8, 1)]["area_um2"] > results[(2, 1)]["area_um2"]
    assert results[(4, 4)]["area_um2"] > results[(4, 1)]["area_um2"]

    # The Pareto front has at least the two extreme points.
    front = pareto_points(results)
    assert len(front) >= 2
    assert (2, 1) in front  # smallest area is never dominated


def _naive_seconds_per_config(run, samples: int = 3) -> float:
    """Build + price one configuration from scratch.

    An epsilon-perturbed ``rocc_overhead`` gives every sample a fresh
    ``pricing_key``, so the per-trace lane caches are cold — exactly the
    cost the old sweep paid per configuration.
    """
    total = 0.0
    for sample in range(samples):
        start = time.perf_counter()
        soc = make_platform("SuperNoVA2S",
                            rocc_overhead=40.0 + 1e-9 * (sample + 1))
        reprice_run(run, soc)
        total += time.perf_counter() - start
    return total / samples


def test_autotune_sweep(once, save_result):
    workload = recorded_workload("CAB2")
    grid = default_grid()
    assert len(grid) >= 1000

    def measure():
        start = time.perf_counter()
        result = autotune(workload, grid=grid)
        tuned_seconds = time.perf_counter() - start
        naive_seconds = _naive_seconds_per_config(isam2_run("CAB2"))
        return result, tuned_seconds, naive_seconds

    result, tuned_seconds, naive_seconds = once(measure)
    per_config = tuned_seconds / result.num_configs
    speedup = naive_seconds / per_config

    # The replay collapse is what makes the sweep tractable: pricing
    # only per distinct array dim, scheduling only per (dim, sets, llc,
    # dram) — tiles expand analytically.
    assert result.num_configs >= 1000
    assert result.distinct_pricings <= 4
    assert result.distinct_schedules * 4 <= result.num_configs

    # The legacy 9-point front must survive inside the new front (its
    # points sit at the grid's LLC/DRAM corner with tiles = sets).
    legacy = design_space_sweep()
    legacy_front = pareto_points(legacy)
    assert front_contains(result, legacy_front), (
        f"legacy front {legacy_front} not contained in autotuned front")

    # And the corner configs reproduce the legacy numeric latencies
    # exactly — same realized models, same schedules.
    for (dim, sets), entry in legacy.items():
        index = result.index_of(
            DesignPoint(systolic_dim=dim, accel_sets=sets,
                        cpu_tiles=sets))
        assert result.numeric_seconds[index] == entry["numeric_seconds"]

    lines = [
        autotune_report(result, top=16),
        "",
        f"throughput: {1e3 * per_config:.2f} ms/config autotuned vs "
        f"{1e3 * naive_seconds:.2f} ms/config naive "
        f"({speedup:.1f}x, floor {MIN_PER_CONFIG_SPEEDUP:.0f}x)",
        f"legacy 9-point front {legacy_front} contained: yes",
    ]
    save_result("autotune", "\n".join(lines))
    assert speedup >= MIN_PER_CONFIG_SPEEDUP, (
        f"autotuner only {speedup:.1f}x faster per config")
