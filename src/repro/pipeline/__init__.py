"""The unified backend measurement pipeline.

One step loop for every experiment: :class:`BackendPipeline` drives a
solver through a dataset and runs pluggable per-step stages —
platform pricing (:class:`PricingStage`), reference/ground-truth error
sampling (:class:`ErrorSamplingStage`), estimate snapshots
(:class:`SnapshotStage`).  ``run_online`` and the cached experiment
runs are thin wrappers over this module, so scaling changes (batching,
async pricing, multi-backend) land in exactly one place.
"""

from repro.pipeline.pipeline import (
    BackendPipeline,
    ErrorSamplingStage,
    OnlineRun,
    PipelineStage,
    PricingStage,
    SnapshotStage,
    reprice_run,
)

__all__ = [
    "BackendPipeline",
    "ErrorSamplingStage",
    "OnlineRun",
    "PipelineStage",
    "PricingStage",
    "SnapshotStage",
    "reprice_run",
]
