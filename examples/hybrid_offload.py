"""Hybrid offload (paper Section 7, future work).

When the history grows too large, RA-ISAM2 must defer deep
relinearization work to stay on budget, so its estimate lags the
fully-optimized reference.  The paper's proposed fix: a background
loop-closure module (base station / background process) absorbs the deep
historical updates while RA-ISAM2 keeps the real-time loop on-device.

This example runs RA-ISAM2 under a deliberately tight budget on CAB2,
measures the per-step error against a converged reference (the paper's
accuracy protocol), and shows the background module cutting the lag.

Run:  python examples/hybrid_offload.py
"""

import numpy as np

from repro.core import RAISAM2
from repro.datasets import cab2_dataset
from repro.factorgraph import FactorGraph
from repro.hardware import make_platform
from repro.metrics import irmse, translation_errors
from repro.pipeline import BackendPipeline, SnapshotStage
from repro.runtime import NodeCostModel
from repro.solvers import GaussNewton, ISAM2


def reference_snapshots(data):
    """Per-step converged estimates (the accuracy reference)."""
    solver = ISAM2(relin_threshold=1e-3, wildfire_tol=0.0)
    snapshot = SnapshotStage()
    BackendPipeline(solver, stages=[snapshot]).run(data)
    return snapshot.snapshots


def run_session(data, reference, offload_every):
    """Budgeted RA-ISAM2, optionally with the background LC module."""
    soc = make_platform("SuperNoVA1S")
    solver = RAISAM2(NodeCostModel(soc), target_seconds=2.5e-4,
                     score_floor=0.02)
    graph = FactorGraph()
    per_step_rmse = []

    for index, step in enumerate(data.steps):
        solver.update({step.key: step.guess}, step.factors)
        for factor in step.factors:
            graph.add(factor)

        if offload_every and index and index % offload_every == 0:
            # Background solve over the full history, seeded from the
            # device estimate; results come back as fresh linearization
            # points, incorporated through the normal engine path.
            refined = GaussNewton(max_iterations=3, damping=1e-6) \
                .optimize(graph, solver.estimate())
            engine = solver.engine
            stale = [key for key, score in engine.delta_norms().items()
                     if score > 0.02]
            for key in stale:
                pos = engine.pos_of[key]
                engine.theta.update(key, refined.values.at(key))
                engine.delta[pos] = np.zeros(engine.dims[pos])
            if stale:
                engine.update({}, [], relin_keys=stale)

        if index % 5 == 0 or index == len(data.steps) - 1:
            estimate = solver.estimate()
            ref = reference[index]
            keys = [k for k in estimate.keys() if k in ref]
            errors = translation_errors(estimate, ref, keys)
            per_step_rmse.append(
                float(np.sqrt(np.mean(errors ** 2))))
    deferred = None
    return per_step_rmse


def main():
    data = cab2_dataset(scale=0.05)
    print(f"{data.describe()}  |  tight budget on 1 accelerator set\n")
    reference = reference_snapshots(data)

    solo = run_session(data, reference, offload_every=None)
    print("on-device only:")
    print(f"  iRMSE vs converged reference: {irmse(solo):.4f} m "
          f"(peak {max(solo):.4f} m)")

    hybrid = run_session(data, reference, offload_every=30)
    print("with background LC module (every 30 frames):")
    print(f"  iRMSE vs converged reference: {irmse(hybrid):.4f} m "
          f"(peak {max(hybrid):.4f} m)")

    if irmse(hybrid) < irmse(solo):
        gain = 100.0 * (1.0 - irmse(hybrid) / irmse(solo))
        print(f"\nhybrid offload cut the estimation lag by {gain:.1f}%")
    else:
        print("\nno improvement — lower target_seconds to raise pressure")


if __name__ == "__main__":
    main()
