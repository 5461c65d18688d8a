"""Shared experiment infrastructure: datasets, scales, cached runs.

Scaling: paper-size datasets take hours in pure Python, so benchmarks
default to prefix-scaled workloads that preserve each dataset's structure
(loop-closure density, supernode sizes).  Control via environment:

* ``REPRO_SCALE=<float>`` — multiply the default per-dataset scales,
* ``REPRO_FULL=1`` — run the full published sizes.

Runs are memoized per (dataset, solver-config) so the many benchmarks
that share a run (e.g. the ISAM2 traces priced on seven platforms) pay
for it once per pytest session.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.core import RAISAM2
from repro.datasets import GENERATORS, OnlineRun, run_online
from repro.datasets.pose_graph import PoseGraphDataset
from repro.hardware.registry import make_platform
from repro.pipeline import BackendPipeline, SnapshotStage
from repro.runtime import NodeCostModel
from repro.solvers import ISAM2

TARGET_SECONDS = 1.0 / 30.0      # 30 FPS -> 33.3 ms (paper Section 5.3)
RELIN_THRESHOLD = 0.05           # incremental baseline's fixed beta
ERROR_EVERY = 4                  # per-step error sampling stride

DATASETS = ("Sphere", "M3500", "CAB1", "CAB2")

#: Adversarial policy-stress workloads (repro.datasets.adversarial);
#: not part of the paper's benchmark set, used by the policy ablations.
ADVERSARIAL_DATASETS = ("Kidnapped", "Revisit", "Rendezvous")

# Default scaled sizes chosen so the whole benchmark suite runs in
# minutes while keeping every dataset's structural regime.
_DEFAULT_SCALES = {
    "M3500": 0.10,
    "Sphere": 0.09,
    "CAB1": 0.50,
    "CAB2": 0.07,
    "Kidnapped": 0.30,
    "Revisit": 0.25,
    "Rendezvous": 0.25,
}


def dataset_scale(name: str) -> float:
    if os.environ.get("REPRO_FULL") == "1":
        return 1.0
    multiplier = float(os.environ.get("REPRO_SCALE", "1.0"))
    return min(1.0, _DEFAULT_SCALES[name] * multiplier)


def target_for(name: str) -> float:
    """Per-step latency target, scaled with the dataset.

    Loop-closure work grows with trajectory length, so a prefix-scaled
    dataset needs a proportionally scaled deadline to recreate the
    paper's pressure regime; full-size runs use the true 33.3 ms.
    """
    return TARGET_SECONDS * dataset_scale(name)


@lru_cache(maxsize=None)
def dataset(name: str) -> PoseGraphDataset:
    """Build (and cache) a dataset at its configured scale."""
    return GENERATORS[name](scale=dataset_scale(name))


@lru_cache(maxsize=None)
def reference_trajectory(name: str):
    """Per-step reference estimates (paper Section 5.3).

    The paper re-optimizes the trajectory to convergence at every step;
    we run a near-exact incremental solver (tiny relinearization
    threshold, exact back-substitution) and snapshot its estimate after
    each step.
    """
    solver = ISAM2(relin_threshold=1e-3, wildfire_tol=0.0)
    snapshot = SnapshotStage()
    BackendPipeline(solver, stages=[snapshot]).run(dataset(name))
    return snapshot.snapshots


@lru_cache(maxsize=None)
def isam2_run(name: str, collect_errors: bool = True,
              ordering: str = "chronological") -> OnlineRun:
    """The incremental baseline's run, with traces attached to reports.

    ``ordering`` selects the engine's elimination-ordering policy
    (``"chronological"`` or ``"constrained_colamd"``); runs are cached
    per policy so ordering-attribution experiments pay once.
    """
    solver = ISAM2(relin_threshold=RELIN_THRESHOLD, ordering=ordering)
    # Traces are collected by passing any SoC; latencies priced later.
    return run_online(solver, dataset(name), soc=make_platform("SuperNoVA2S"),
                      collect_errors=collect_errors,
                      error_every=ERROR_EVERY,
                      reference=reference_trajectory(name))


@lru_cache(maxsize=None)
def ra_run(name: str, sets: int,
           platform: str = "supernova") -> OnlineRun:
    """RA-ISAM2 run on a platform config ('supernova' or 'cpu')."""
    if platform == "cpu":
        soc = make_platform("ServerCPU")
    else:
        soc = make_platform(f"SuperNoVA{sets}S")
    solver = RAISAM2(NodeCostModel(soc), target_seconds=target_for(name))
    return run_online(solver, dataset(name), soc=soc,
                      collect_errors=True, error_every=ERROR_EVERY,
                      reference=reference_trajectory(name))


def sparkline(values: List[float], width: int = 60,
              log_scale: bool = True,
              bounds: Optional[Tuple[float, float]] = None) -> str:
    """Render a series as a one-line ASCII sparkline.

    Buckets the series to ``width`` columns (max within each bucket) and
    maps magnitudes to nine glyph levels; log scaling suits error series
    spanning orders of magnitude.  Pass shared ``bounds`` (in the
    original value domain) to make several sparklines comparable.
    """
    if not values:
        return "(empty)"
    glyphs = " .:-=+*#%"
    buckets: List[float] = []
    per = max(1.0, len(values) / width)
    i = 0.0
    while int(i) < len(values):
        chunk = values[int(i):max(int(i) + 1, int(i + per))]
        buckets.append(max(chunk))
        i += per
    floor = 1e-12

    def transform(v: float) -> float:
        return math.log10(max(v, floor)) if log_scale else v

    scaled = [transform(v) for v in buckets]
    if bounds is not None:
        lo, hi = transform(bounds[0]), transform(bounds[1])
    else:
        lo, hi = min(scaled), max(scaled)
    span = (hi - lo) or 1.0
    return "".join(
        glyphs[int(min(1.0, max(0.0, (v - lo) / span))
                   * (len(glyphs) - 1))]
        for v in scaled)


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Plain ASCII table for benchmark output."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
