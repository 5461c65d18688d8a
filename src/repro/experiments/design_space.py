"""Design-space exploration of the SuperNoVA SoC.

Paper Section 4.2: "SoC components, including the accelerator
configuration and the number of accelerators and CPU tiles, are all
configurable at design time."  This harness sweeps the two headline axes
(systolic array dimension, accelerator sets) against one workload's
traces and reports the latency/area trade-off.

The platforms come from the declarative registry
(:func:`repro.hardware.registry.make_platform` with a ``systolic_dim``
override), area from the parametric Table 5 model
(:func:`repro.hardware.area.platform_area`), and the dominance check
from the vectorized kernel shared with the full autotuner
(:func:`repro.hardware.autotune.pareto_mask`).  The thousand-point sweep
over all five axes lives in :mod:`repro.hardware.autotune`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.experiments.common import format_table, isam2_run, price_run
from repro.hardware.area import AREA_TABLE, platform_area
from repro.hardware.autotune import pareto_mask
from repro.hardware.platforms import SoCConfig
from repro.hardware.registry import make_platform


def _soc(systolic_dim: int, accel_sets: int) -> SoCConfig:
    return make_platform(f"SuperNoVA{accel_sets}S",
                         systolic_dim=systolic_dim)


def _area_estimate(systolic_dim: int, accel_sets: int) -> float:
    """Area in um^2 of the design (mesh scales quadratically with dim)."""
    return platform_area(_soc(systolic_dim, accel_sets))


def design_space_sweep(
    dataset_name: str = "CAB2",
    systolic_dims: Sequence[int] = (2, 4, 8),
    set_counts: Sequence[int] = (1, 2, 4),
) -> Dict[Tuple[int, int], Dict[str, float]]:
    """Numeric latency and area per (systolic_dim, accel_sets) point."""
    run = isam2_run(dataset_name)
    results: Dict[Tuple[int, int], Dict[str, float]] = {}
    for dim in systolic_dims:
        for sets in set_counts:
            soc = _soc(dim, sets)
            latencies = price_run(run, soc)
            results[(dim, sets)] = {
                "numeric_seconds": sum(lat.numeric for lat in latencies),
                "total_seconds": sum(lat.total for lat in latencies),
                "area_um2": _area_estimate(dim, sets),
            }
    return results


def pareto_points(results: Dict[Tuple[int, int], Dict[str, float]],
                  ) -> List[Tuple[int, int]]:
    """Configurations not dominated in (numeric latency, area)."""
    configs = sorted(results)
    objectives = np.array([[results[c]["numeric_seconds"],
                            results[c]["area_um2"]] for c in configs])
    keep = pareto_mask(objectives)
    return [config for config, kept in zip(configs, keep) if kept]


def design_space_table(results: Dict[Tuple[int, int], Dict[str, float]],
                       ) -> str:
    pareto = set(pareto_points(results))
    headers = ["Config", "numeric (ms)", "area (um^2)",
               "% of BOOM area", "Pareto"]
    rows = []
    boom = AREA_TABLE["boom_baseline"]
    for (dim, sets), entry in sorted(results.items()):
        rows.append([
            f"{dim}x{dim}, {sets} sets",
            f"{1e3 * entry['numeric_seconds']:.2f}",
            f"{entry['area_um2']:.0f}",
            f"{100.0 * entry['area_um2'] / boom:.0f}%",
            "*" if (dim, sets) in pareto else "",
        ])
    return format_table(headers, rows)
