"""Price one SLAM workload on every modeled platform (Fig. 8 style).

Runs the incremental solver once on a scaled M3500, then re-prices the
identical operation traces on BOOM, mobile CPU/DSP, server CPU, embedded
GPU, Spatula, and SuperNoVA — demonstrating the trace/price separation
of the hardware layer.

Run:  python examples/platform_comparison.py [--dataset M3500]
"""

import argparse

from repro.datasets import (
    cab1_dataset,
    cab2_dataset,
    manhattan_dataset,
    run_online,
    sphere_dataset,
)
from repro.hardware import make_platform
from repro.runtime import execute_step
from repro.solvers import ISAM2

FACTORIES = {
    "M3500": lambda s: manhattan_dataset(scale=s),
    "Sphere": lambda s: sphere_dataset(scale=s),
    "CAB1": lambda s: cab1_dataset(scale=s),
    "CAB2": lambda s: cab2_dataset(scale=s),
}

PLATFORMS = [make_platform(name) for name in (
    "BOOM", "MobileCPU", "MobileDSP", "ServerCPU", "EmbeddedGPU",
    "Spatula2S", "SuperNoVA2S")]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="M3500",
                        choices=sorted(FACTORIES))
    parser.add_argument("--scale", type=float, default=0.08)
    args = parser.parse_args()

    data = FACTORIES[args.dataset](args.scale)
    print(f"solving {data.describe()} once, pricing on "
          f"{len(PLATFORMS)} platforms\n")

    solver = ISAM2(relin_threshold=0.05)
    run = run_online(solver, data, soc=make_platform("SuperNoVA2S"),
                     collect_errors=False)

    rows = []
    for soc in PLATFORMS:
        latencies = [execute_step(r, soc, r.node_parents)
                     for r in run.reports]
        total = sum(lat.total for lat in latencies)
        numeric = sum(lat.numeric for lat in latencies)
        rows.append((soc.name, total, numeric))

    base = rows[0][1]
    print(f"{'platform':<14}{'total (ms)':>12}{'numeric (ms)':>14}"
          f"{'vs BOOM':>10}")
    for name, total, numeric in rows:
        print(f"{name:<14}{1e3 * total:>12.2f}{1e3 * numeric:>14.2f}"
              f"{total / base:>10.3f}")


if __name__ == "__main__":
    main()
