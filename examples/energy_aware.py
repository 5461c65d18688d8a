"""Energy-aware SLAM (paper Section 7, future work).

The SuperNoVA algorithm extended with an energy cost model: RA-ISAM2
accepts a per-step energy budget alongside the latency target, and the
selection pass charges both.  This example sweeps the energy cap on
Sphere and reports the accuracy/energy trade-off.

Run:  python examples/energy_aware.py
"""

from repro.core import RAISAM2
from repro.datasets import run_online, sphere_dataset
from repro.hardware import PowerModel, make_platform
from repro.runtime import NodeCostModel


def main():
    data = sphere_dataset(scale=0.06)
    soc = make_platform("SuperNoVA2S")
    power = PowerModel()
    print(f"{data.describe()}  |  {soc.name}, "
          f"peak power {1e3 * power.peak_watts:.0f} mW\n")

    print(f"{'energy cap/step':>16}{'iRMSE (m)':>12}{'deferred':>10}")
    for cap_uj in (None, 50.0, 10.0, 2.0):
        solver = RAISAM2(
            NodeCostModel(soc),
            target_seconds=1.0 / 30.0,
            energy_budget_joules=None if cap_uj is None else cap_uj * 1e-6,
            power_model=power,
        )
        run = run_online(solver, data, error_every=8)
        deferred = sum(r.deferred_variables for r in run.reports)
        label = "unlimited" if cap_uj is None else f"{cap_uj:.0f} uJ"
        print(f"{label:>16}{run.irmse:>12.4f}{deferred:>10}")

    print("\nTighter energy caps defer more relinearization work, "
          "trading accuracy for battery life.")


if __name__ == "__main__":
    main()
