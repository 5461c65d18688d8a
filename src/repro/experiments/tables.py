"""Table 2 (solver-class properties), Table 5 (area), and the Section 6.5
power analysis."""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import (
    format_table,
    isam2_run,
    ra_run,
)
from repro.experiments.accuracy import local_run, local_global_run
from repro.hardware import PowerModel, area_summary
from repro.hardware.area import AREA_TABLE
from repro.hardware.registry import make_platform
from repro.pipeline import reprice_run
from repro.hardware.power import (
    EMBEDDED_GPU_RANGE_W,
    FPGA_RANGE_W,
    SUPERNOVA_PEAK_W,
)


def table2(name: str = "Sphere") -> Dict[str, Dict[str, bool]]:
    """Measure the solver-class properties of paper Table 2.

    * global consistency / loop closure: the final trajectory error must
      recover after closures (Local cannot),
    * bounded latency: the worst per-step latency must stay within the
      real-time target on one SuperNoVA accelerator set,
    * resource-aware: the algorithm must do more work when more hardware
      is available.

    Sphere is used because its frequent large closures make the
    class differences sharpest (CAB's per-session relocalization priors
    partially anchor even the Local solver).
    """
    from repro.experiments.common import target_for

    local = local_run(name)
    local_glob = local_global_run(name)
    incremental = isam2_run(name)
    ra2 = ra_run(name, 1)
    target = target_for(name)

    def consistent(run) -> bool:
        # Error at the end must have recovered to near the incremental
        # optimum (within 3x plus a 1 m slack on the ~25 m-radius world);
        # a drifting local solver ends an order of magnitude beyond.
        floor = max(incremental.step_rmse[-1], 1e-6)
        return run.step_rmse[-1] < 3.0 * floor + 1.0

    inc_latencies = reprice_run(incremental, make_platform("SuperNoVA1S"))

    def bounded(latencies) -> bool:
        return max(lat.total for lat in latencies) <= target

    ra1 = ra_run(name, 1)
    ra4 = ra_run(name, 4)
    ra_adapts = (sum(r.relinearized_variables for r in ra4.reports)
                 > sum(r.relinearized_variables for r in ra1.reports))

    return {
        "Local": {
            "global_consistency": consistent(local),
            "bounded_latency": True,   # window size fixes the work
            "loop_closure": False,     # closures outside window dropped
            "resource_aware": False,
        },
        "Local+Global": {
            "global_consistency": consistent(local_glob),
            "bounded_latency": True,   # local path bounded; LC async
            "loop_closure": True,
            "resource_aware": False,
        },
        "Incremental": {
            "global_consistency": consistent(incremental),
            "bounded_latency": bounded(inc_latencies),
            "loop_closure": True,
            "resource_aware": False,
        },
        "RA-ISAM2": {
            "global_consistency": consistent(ra2),
            "bounded_latency": bounded(ra2.latencies),
            "loop_closure": True,
            "resource_aware": ra_adapts,
        },
    }


def table2_table(results: Dict[str, Dict[str, bool]]) -> str:
    props = ["global_consistency", "bounded_latency", "loop_closure",
             "resource_aware"]
    headers = ["Property"] + list(results.keys())
    rows = []
    for prop in props:
        rows.append([prop] + ["yes" if results[s][prop] else "no"
                              for s in results])
    return format_table(headers, rows)


def table5_rows() -> List[List[str]]:
    """Paper Table 5 with derived percentages."""
    comp = AREA_TABLE["comp_tile"]
    mem = AREA_TABLE["mem_tile"]
    rows = [
        ["Rocket CPU tile", f"{AREA_TABLE['rocket_cpu_tile']:.0f}", "100%"],
        ["COMP tile", f"{comp:.0f}", "100%"],
        ["  ReRoCC Manager", f"{AREA_TABLE['comp_rerocc_manager']:.0f}",
         f"{100 * AREA_TABLE['comp_rerocc_manager'] / comp:.1f}%"],
        ["  Accelerator", f"{AREA_TABLE['comp_accelerator']:.0f}",
         f"{100 * AREA_TABLE['comp_accelerator'] / comp:.1f}%"],
        ["  Mesh", f"{AREA_TABLE['comp_mesh']:.0f}",
         f"{100 * AREA_TABLE['comp_mesh'] / comp:.1f}%"],
        ["  Scratchpad+Accumulator",
         f"{AREA_TABLE['comp_scratchpad_accumulator']:.0f}",
         f"{100 * AREA_TABLE['comp_scratchpad_accumulator'] / comp:.1f}%"],
        ["  Sparse Index Unit",
         f"{AREA_TABLE['comp_sparse_index_unit']:.0f}",
         f"{100 * AREA_TABLE['comp_sparse_index_unit'] / comp:.1f}%"],
        ["MEM tile", f"{mem:.0f}", "100%"],
        ["  ReRoCC Manager", f"{AREA_TABLE['mem_rerocc_manager']:.0f}",
         f"{100 * AREA_TABLE['mem_rerocc_manager'] / mem:.1f}%"],
        ["  Accelerator", f"{AREA_TABLE['mem_accelerator']:.0f}",
         f"{100 * AREA_TABLE['mem_accelerator'] / mem:.1f}%"],
    ]
    summary = area_summary(accel_sets=1, cpu_tiles=1)
    rows.append(["Total (CPU+COMP+MEM)", f"{summary['total_um2']:.0f}",
                 f"{100 * summary['fraction_of_boom']:.0f}% of BOOM"])
    rows.append(["BOOM baseline", f"{AREA_TABLE['boom_baseline']:.0f}",
                 "100%"])
    return rows


def power_analysis(name: str = "CAB1") -> Dict[str, float]:
    """Section 6.5: peak power and per-run energy of SuperNoVA.

    Per-op energy runs through the vectorized pricing path: COMP and MEM
    ``price_ops`` both return 0.0 on the rows they do not execute, so
    their sum prices every op exactly once (ops neither tile supports —
    impossible on SuperNoVA — contribute nothing, matching the scalar
    loop's ``continue``).
    """
    model = PowerModel()
    soc = make_platform("SuperNoVA2S")
    run = isam2_run(name)
    energy = 0.0
    for report in run.reports:
        if report.trace is None:
            continue
        for node in report.trace.nodes.values():
            cycles = soc.comp.price_ops(node) + soc.mem.price_ops(node)
            energy += model.columnar_energy(node, cycles)
    return {
        "peak_watts": SUPERNOVA_PEAK_W,
        "peak_op": model.peak_op_kind().value,
        "gpu_range_watts": EMBEDDED_GPU_RANGE_W,
        "fpga_range_watts": FPGA_RANGE_W,
        "run_energy_joules": energy,
        "gpu_power_ratio": EMBEDDED_GPU_RANGE_W[0] / SUPERNOVA_PEAK_W,
    }
