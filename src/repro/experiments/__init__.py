"""Experiment harnesses that regenerate the paper's tables and figures.

Each module produces the rows/series of one evaluation artifact; the
``benchmarks/`` directory wraps them in pytest-benchmark entry points.
Dataset sizes default to scaled-down versions (see
:mod:`repro.experiments.common`); set ``REPRO_FULL=1`` for paper-scale
runs.
"""

from repro.experiments.common import (
    DATASETS,
    TARGET_SECONDS,
    dataset,
    dataset_scale,
    isam2_run,
    ra_run,
)

__all__ = [
    "DATASETS",
    "TARGET_SECONDS",
    "dataset",
    "dataset_scale",
    "isam2_run",
    "ra_run",
]
