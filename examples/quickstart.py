"""Quickstart: build a pose graph, solve it batch and incrementally.

Creates a small square-loop trajectory with noisy odometry and one loop
closure, then solves it three ways:

1. batch Gauss-Newton (the reference global solver),
2. ISAM2 (incremental, one step per pose),
3. RA-ISAM2 (resource-aware, budgeted against a latency target on the
   simulated SuperNoVA SoC).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import RAISAM2
from repro.datasets import run_online
from repro.datasets.pose_graph import PoseGraphDataset, TimeStep
from repro.factorgraph import (
    BetweenFactorSE2,
    FactorGraph,
    IsotropicNoise,
    PriorFactorSE2,
    Values,
)
from repro.geometry import SE2
from repro.hardware import make_platform
from repro.metrics import ape_statistics
from repro.runtime import NodeCostModel
from repro.solvers import GaussNewton, ISAM2


def build_square_loop(side=6, noise_scale=0.1, seed=0):
    """A square trajectory with a closing constraint back to the start."""
    rng = np.random.default_rng(seed)
    noise = IsotropicNoise(3, 0.1)
    truth = [SE2()]
    steps = [TimeStep(key=0, guess=SE2(),
                      factors=[PriorFactorSE2(0, SE2(), noise)])]
    for i in range(1, 4 * side + 1):
        turn = np.pi / 2.0 if i % side == 0 else 0.0
        motion = SE2(1.0, 0.0, turn)
        truth.append(truth[-1].compose(motion))
        measured = motion.retract(rng.normal(scale=noise_scale, size=3))
        guess = truth[i].retract(rng.normal(scale=noise_scale, size=3))
        factors = [BetweenFactorSE2(i - 1, i, measured, noise)]
        if i == 4 * side:  # back at the start: loop closure
            factors.append(BetweenFactorSE2(
                0, i, truth[0].between(truth[i]), noise))
        steps.append(TimeStep(key=i, guess=guess, factors=factors))
    return PoseGraphDataset("square", steps,
                            {i: p for i, p in enumerate(truth)},
                            is_3d=False)


def main():
    data = build_square_loop()
    keys = sorted(data.ground_truth.keys())
    print(data.describe())

    # 1. Batch Gauss-Newton over the full graph.
    graph = FactorGraph()
    initial = Values()
    for step in data.steps:
        initial.insert(step.key, step.guess)
        for factor in step.factors:
            graph.add(factor)
    batch = GaussNewton(max_iterations=20).optimize(graph, initial)
    stats = ape_statistics(batch.values, data.ground_truth, keys)
    print(f"batch GN:  {batch.iterations} iters, "
          f"RMSE {stats['rmse']:.4f} m, MAX {stats['max']:.4f} m")

    # 2. ISAM2, one update per pose (plus a few refinement iterations
    # after the loop closure, as an online system would keep running).
    isam = ISAM2(relin_threshold=0.01)
    run_online(isam, data, collect_errors=False)
    for _ in range(3):
        isam.update({}, [])
    stats = ape_statistics(isam.estimate(), data.ground_truth, keys)
    print(f"ISAM2:     RMSE {stats['rmse']:.4f} m, "
          f"MAX {stats['max']:.4f} m")

    # 3. RA-ISAM2 budgeted against 33.3 ms on a 2-set SuperNoVA SoC.
    soc = make_platform("SuperNoVA2S")
    ra = RAISAM2(NodeCostModel(soc), target_seconds=1.0 / 30.0)
    run = run_online(ra, data, soc=soc, collect_errors=False)
    stats = ape_statistics(ra.estimate(), data.ground_truth, keys)
    worst = max(lat.total_ms for lat in run.latencies)
    print(f"RA-ISAM2:  RMSE {stats['rmse']:.4f} m, "
          f"MAX {stats['max']:.4f} m, "
          f"worst step {worst:.3f} ms (target 33.3 ms)")


if __name__ == "__main__":
    main()
