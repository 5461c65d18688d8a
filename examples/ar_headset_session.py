"""AR headset session: the paper's motivating scenario, end to end.

Streams a CAB-style AR capture (indoor corridors, covisibility loop
closures) through the full SuperNoVA stack — RA-ISAM2 budgeting against
the 30 FPS deadline, the runtime scheduling supernodes onto simulated
COMP/MEM accelerator sets — and compares it with the unbounded
incremental baseline.

Run:  python examples/ar_headset_session.py [--steps N] [--sets K]
"""

import argparse

from repro.core import RAISAM2
from repro.datasets import cab1_dataset, run_online
from repro.hardware import make_platform
from repro.metrics import latency_stats
from repro.runtime import NodeCostModel
from repro.solvers import ISAM2


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=300,
                        help="session length (full CAB1 is 464)")
    parser.add_argument("--sets", type=int, default=2,
                        help="SuperNoVA accelerator sets (1/2/4)")
    parser.add_argument("--target-ms", type=float, default=1.0,
                        help="per-frame latency target (33.3 at full scale)")
    args = parser.parse_args()

    data = cab1_dataset(scale=args.steps / 464.0)
    soc = make_platform(f"SuperNoVA{args.sets}S")
    target = args.target_ms * 1e-3
    print(f"{data.describe()}  |  {soc.name}, target {args.target_ms} ms")

    print("\n-- incremental baseline (ISAM2, fixed threshold) --")
    baseline = ISAM2(relin_threshold=0.05)
    base_run = run_online(baseline, data, soc=soc, error_every=8)
    stats = latency_stats(base_run.latency_seconds(), target)
    print(f"latency: median {1e3 * stats.median:.2f} ms, "
          f"max {1e3 * stats.maximum:.2f} ms, "
          f"deadline misses {100 * stats.miss_rate:.1f}%")
    print(f"accuracy: iRMSE {base_run.irmse:.4f} m "
          f"(vs ground truth)")

    print(f"\n-- SuperNoVA (RA-ISAM2 on {args.sets} accelerator sets) --")
    ra = RAISAM2(NodeCostModel(soc), target_seconds=target)
    ra_run = run_online(ra, data, soc=soc, error_every=8)
    stats = latency_stats(ra_run.latency_seconds(), target)
    deferred = sum(r.deferred_variables for r in ra_run.reports)
    print(f"latency: median {1e3 * stats.median:.2f} ms, "
          f"max {1e3 * stats.maximum:.2f} ms, "
          f"deadline misses {100 * stats.miss_rate:.1f}%")
    print(f"accuracy: iRMSE {ra_run.irmse:.4f} m (vs ground truth)")
    print(f"relinearizations deferred to stay on budget: {deferred}")

    if stats.meets_target():
        print("\nRA-ISAM2 met the deadline on every frame.")
    else:
        print("\nwarning: deadline missed — try more accelerator sets")


if __name__ == "__main__":
    main()
