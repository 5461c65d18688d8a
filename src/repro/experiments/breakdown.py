"""Figure 2 and Figure 3 harnesses: motivation breakdowns."""

from __future__ import annotations

from typing import Dict

from functools import lru_cache

import numpy as np

from repro.datasets import FrontendModel, euroc_like_dataset, run_online
from repro.experiments.common import dataset_scale, format_table, \
    isam2_run
from repro.hardware.registry import make_platform
from repro.linalg.trace import KINDS, OpKind
from repro.pipeline import reprice_run
from repro.runtime.executor import host_terms
from repro.solvers import ISAM2


@lru_cache(maxsize=None)
def _euroc_run():
    """Incremental run over the EuRoC substitute (cached per session)."""
    scale = dataset_scale("CAB2") * 4.0  # EuRoC is much smaller than CAB2
    data = euroc_like_dataset(scale=min(1.0, scale))
    solver = ISAM2(relin_threshold=0.05)
    return run_online(solver, data, soc=make_platform("SuperNoVA2S"),
                      collect_errors=False)


def figure2() -> Dict[str, object]:
    """Frontend vs backend per-iteration latency variability.

    The paper's Fig. 2 runs a Kimera-style system on EuRoC on a server
    CPU; we substitute a synthetic EuRoC-like visual-inertial stream
    (see :mod:`repro.datasets.euroc_like`), model the frontend as a
    near-constant per-frame cost, and price the backend on the server
    CPU model.
    """
    run = _euroc_run()
    latencies = reprice_run(run, make_platform("ServerCPU"))
    backend = [lat.total for lat in latencies]
    frontend = FrontendModel().sequence_seconds(len(backend))
    mean = sum(backend) / len(backend)
    variance = sum((b - mean) ** 2 for b in backend) / len(backend)
    f_mean = sum(frontend) / len(frontend)
    f_var = sum((f - f_mean) ** 2 for f in frontend) / len(frontend)
    return {
        "frontend_ms": [1e3 * f for f in frontend],
        "backend_ms": [1e3 * b for b in backend],
        "backend_mean_ms": 1e3 * mean,
        "backend_std_ms": 1e3 * variance ** 0.5,
        "backend_peak_ms": 1e3 * max(backend),
        "frontend_mean_ms": 1e3 * f_mean,
        "frontend_std_ms": 1e3 * f_var ** 0.5,
    }


_KIND_GROUPS = {
    OpKind.GEMM: "gemm",
    OpKind.SYRK: "gemm",
    OpKind.TRSM: "gemm",
    OpKind.POTRF: "potrf",
    OpKind.TRSV: "solve",
    OpKind.GEMV: "solve",
    OpKind.SCATTER_ADD: "scatter",
    OpKind.MEMSET: "memory",
    OpKind.MEMCPY: "memory",
}

_GROUP_NAMES = ("gemm", "potrf", "solve", "scatter", "memory")
# Columnar twin of _KIND_GROUPS, indexed by the trace layer's kind codes.
_GROUP_INDEX = np.array([_GROUP_NAMES.index(_KIND_GROUPS[kind])
                         for kind in KINDS])


def figure3(name: str = "CAB2") -> Dict[str, float]:
    """Backend time breakdown on an OoO CPU (paper Fig. 3).

    Returns the fraction of total backend time per category; the headline
    claim to reproduce: numeric work (GEMM-dominated) dominates the
    non-numeric (relinearization + symbolic) part.  Numeric time is
    aggregated through the vectorized ``price_ops`` path: one bincount
    over each node's kind codes instead of a per-op Python loop.
    """
    run = isam2_run(name)
    soc = make_platform("BOOM")
    host = soc.host
    buckets: Dict[str, float] = {}
    group_cycles = np.zeros(len(_GROUP_NAMES))
    for report in run.reports:
        terms = host_terms(soc, report.relinearized_factors,
                           report.affected_columns)
        buckets["relinearization"] = buckets.get("relinearization", 0.0) \
            + terms.relinearization
        buckets["symbolic"] = buckets.get("symbolic", 0.0) \
            + terms.symbolic
        if report.trace is None:
            continue
        for node in report.trace.nodes.values():
            group_cycles += np.bincount(
                _GROUP_INDEX[node.kind_codes()],
                weights=host.price_ops(node),
                minlength=len(_GROUP_NAMES))
    for group, cycles in zip(_GROUP_NAMES, group_cycles):
        if cycles > 0.0:
            buckets[group] = host.seconds(float(cycles))
    total = sum(buckets.values())
    return {k: v / total for k, v in buckets.items()}


def figure3_table(fractions: Dict[str, float]) -> str:
    headers = ["Category", "% of backend time"]
    rows = [[k, f"{100.0 * v:.1f}%"]
            for k, v in sorted(fractions.items(), key=lambda kv: -kv[1])]
    return format_table(headers, rows)


def numeric_fraction(fractions: Dict[str, float]) -> float:
    """Fraction of time in numeric ops (everything but relin+symbolic)."""
    non_numeric = fractions.get("relinearization", 0.0) \
        + fractions.get("symbolic", 0.0)
    return 1.0 - non_numeric
