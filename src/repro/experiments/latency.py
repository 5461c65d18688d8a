"""Figure 8 and Figure 9 harnesses: platform latency comparison and the
runtime parallelism ablation."""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.common import (
    DATASETS,
    format_table,
    isam2_run,
)
from repro.hardware.registry import make_platform
from repro.pipeline import reprice_run
from repro.runtime import RuntimeFeatures

#: (figure label, registry platform name) — realized via make_platform,
#: so repeated pricings share one model instance per platform.
FIG8_PLATFORMS = (
    ("BOOM", "BOOM"),
    ("MobileCPU", "MobileCPU"),
    ("MobileDSP", "MobileDSP"),
    ("ServerCPU", "ServerCPU"),
    ("EmbeddedGPU", "EmbeddedGPU"),
    ("Spatula", "Spatula2S"),
    ("SuperNoVA", "SuperNoVA2S"),
)


def figure8(datasets: Sequence[str] = DATASETS,
            ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Total and numeric backend latency per platform per dataset.

    Runs the incremental baseline (ISAM2) once per dataset and prices the
    identical operation traces on all seven platforms — exactly the
    paper's setup ("comparing its processing latency with the existing
    hardware platforms when processing the same incremental baseline").
    """
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in datasets:
        run = isam2_run(name)
        per_platform: Dict[str, Dict[str, float]] = {}
        for label, platform in FIG8_PLATFORMS:
            latencies = reprice_run(run, make_platform(platform))
            per_platform[label] = {
                "total": sum(lat.total for lat in latencies),
                "numeric": sum(lat.numeric for lat in latencies),
            }
        results[name] = per_platform
    return results


def normalize_to(results: Dict[str, Dict[str, Dict[str, float]]],
                 reference: str = "BOOM",
                 ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Normalize every platform's latency by the reference (Fig. 8 Y-axis)."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name, platforms in results.items():
        base = platforms[reference]
        out[name] = {
            label: {metric: (value / base[metric] if base[metric] else 0.0)
                    for metric, value in entry.items()}
            for label, entry in platforms.items()
        }
    return out


def latency_reduction(results: Dict[str, Dict[str, Dict[str, float]]],
                      ours: str, baseline: str,
                      metric: str = "total") -> Dict[str, float]:
    """Percent latency reduction of ``ours`` vs ``baseline`` per dataset."""
    out = {}
    for name, platforms in results.items():
        base = platforms[baseline][metric]
        val = platforms[ours][metric]
        out[name] = 100.0 * (1.0 - val / base) if base else 0.0
    return out


def figure8_table(results: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    normalized = normalize_to(results)
    headers = ["Platform"] + [f"{d} ({m})" for d in results
                              for m in ("total", "numeric")]
    rows: List[List[str]] = []
    for label, _ in FIG8_PLATFORMS:
        row = [label]
        for name in results:
            entry = normalized[name][label]
            row.append(f"{entry['total']:.3f}")
            row.append(f"{entry['numeric']:.3f}")
        rows.append(row)
    return format_table(headers, rows)


FIG9_CONFIGS = (
    ("no parallelism", RuntimeFeatures(False, False, False)),
    ("+hetero overlap", RuntimeFeatures(True, False, False)),
    ("+inter-node", RuntimeFeatures(True, True, False)),
    ("+intra-node", RuntimeFeatures(True, True, True)),
)


def figure9(datasets: Sequence[str] = ("Sphere", "CAB2"),
            accel_sets: int = 2) -> Dict[str, Dict[str, float]]:
    """Numeric latency as runtime optimizations are enabled cumulatively."""
    soc = make_platform(f"SuperNoVA{accel_sets}S")
    results: Dict[str, Dict[str, float]] = {}
    for name in datasets:
        run = isam2_run(name)
        per_config: Dict[str, float] = {}
        for label, features in FIG9_CONFIGS:
            latencies = reprice_run(run, soc, features)
            per_config[label] = sum(lat.numeric for lat in latencies)
        results[name] = per_config
    return results


def figure9_table(results: Dict[str, Dict[str, float]]) -> str:
    headers = ["Config"] + [f"{d} numeric (norm)" for d in results]
    rows = []
    for label, _ in FIG9_CONFIGS:
        row = [label]
        for name in results:
            base = results[name][FIG9_CONFIGS[0][0]]
            row.append(f"{results[name][label] / base:.3f}")
        rows.append(row)
    return format_table(headers, rows)


FIG9_ORDERINGS = ("chronological", "constrained_colamd")


def figure9_ordering(datasets: Sequence[str] = ("Sphere", "CAB2"),
                     accel_sets: int = 2,
                     ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Inter-node parallelism attribution per elimination ordering.

    Fig. 9's "+inter-node" row measures how much latency scheduling
    independent elimination-tree nodes concurrently recovers; that gain
    is bounded by the tree's shape.  Re-running the incremental baseline
    under constrained COLAMD (bushier tree) isolates how much of the
    attribution comes from the ordering rather than the scheduler.
    """
    soc = make_platform(f"SuperNoVA{accel_sets}S")
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in datasets:
        per_ordering: Dict[str, Dict[str, float]] = {}
        for ordering in FIG9_ORDERINGS:
            run = isam2_run(name, ordering=ordering)
            sequential = sum(
                lat.numeric for lat in reprice_run(
                    run, soc, RuntimeFeatures(True, False, False)))
            inter = sum(
                lat.numeric for lat in reprice_run(
                    run, soc, RuntimeFeatures(True, True, False)))
            per_ordering[ordering] = {
                "sequential": sequential,
                "inter_node": inter,
                "gain_pct": 100.0 * (1.0 - inter / sequential)
                if sequential else 0.0,
            }
        results[name] = per_ordering
    return results


def figure9_ordering_table(
        results: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    headers = ["Dataset", "Ordering", "inter-node gain %"]
    rows = []
    for name, per_ordering in results.items():
        for ordering, entry in per_ordering.items():
            rows.append([name, ordering, f"{entry['gain_pct']:.1f}"])
    return format_table(headers, rows)
