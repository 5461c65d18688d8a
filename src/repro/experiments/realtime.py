"""Figure 10 and Figure 11 harnesses: real-time analysis of RA-ISAM2."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import (
    DATASETS,
    format_table,
    isam2_run,
    ra_run,
    target_for,
)
from repro.hardware.registry import make_platform
from repro.metrics import LatencyStats, breakdown_means, latency_stats
from repro.pipeline import reprice_run


def figure10(datasets: Sequence[str] = DATASETS,
             set_counts: Sequence[int] = (1, 2, 4),
             ) -> Dict[str, Dict[str, LatencyStats]]:
    """Latency distributions and miss rates, ISAM2 vs RA-ISAM2.

    Both algorithms run on the same SuperNoVA hardware + runtime with
    1/2/4 accelerator sets; the percentage reported per box is the target
    miss rate.
    """
    results: Dict[str, Dict[str, LatencyStats]] = {}
    for name in datasets:
        incremental = isam2_run(name)
        entry: Dict[str, LatencyStats] = {}
        target = target_for(name)
        for sets in set_counts:
            latencies = reprice_run(incremental,
                                  make_platform(f"SuperNoVA{sets}S"))
            entry[f"In{sets}S"] = latency_stats(
                [lat.total for lat in latencies], target)
            ra = ra_run(name, sets)
            entry[f"RA{sets}S"] = latency_stats(
                ra.latency_seconds(), target)
        results[name] = entry
    return results


def figure10_table(results: Dict[str, Dict[str, LatencyStats]]) -> str:
    headers = ["Dataset", "Config", "median(ms)", "p95(ms)", "max(ms)",
               "miss rate"]
    rows: List[List[str]] = []
    for name, entry in results.items():
        for config, stats in entry.items():
            rows.append([
                name, config,
                f"{1e3 * stats.median:.2f}",
                f"{1e3 * stats.p95:.2f}",
                f"{1e3 * stats.maximum:.2f}",
                f"{100.0 * stats.miss_rate:.1f}%",
            ])
    return format_table(headers, rows)


def figure11(datasets: Sequence[str] = ("CAB2", "M3500"),
             set_counts: Sequence[int] = (2, 4),
             ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Mean per-step latency breakdown (relin/symbolic/numeric/overhead)."""
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in datasets:
        entry: Dict[str, Dict[str, float]] = {}
        incremental = isam2_run(name)
        for sets in set_counts:
            latencies = reprice_run(incremental,
                                  make_platform(f"SuperNoVA{sets}S"))
            entry[f"In{sets}S"] = breakdown_means(
                lat.as_dict() for lat in latencies)
            ra = ra_run(name, sets)
            entry[f"RA{sets}S"] = breakdown_means(
                lat.as_dict() for lat in ra.latencies)
        results[name] = entry
    return results


def figure11_table(results: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    headers = ["Dataset", "Config", "relin(ms)", "symbolic(ms)",
               "numeric(ms)", "overhead(ms)", "total(ms)"]
    rows: List[List[str]] = []
    for name, entry in results.items():
        for config, means in entry.items():
            rows.append([
                name, config,
                f"{1e3 * means['relinearization']:.3f}",
                f"{1e3 * means['symbolic']:.3f}",
                f"{1e3 * means['numeric']:.3f}",
                f"{1e3 * means['overhead']:.3f}",
                f"{1e3 * means['total']:.3f}",
            ])
    return format_table(headers, rows)


def selection_overhead_percent(datasets: Sequence[str] = ("M3500", "CAB2"),
                               sets: int = 2) -> Dict[str, float]:
    """RA-ISAM2 selection overhead as % of total (paper: 0.1%/0.9%)."""
    out: Dict[str, float] = {}
    for name in datasets:
        ra = ra_run(name, sets)
        total = sum(lat.total for lat in ra.latencies)
        overhead = sum(lat.overhead for lat in ra.latencies)
        out[name] = 100.0 * overhead / total if total else 0.0
    return out
