"""Layer boundaries the traced run wraps, and the per-layer metrics.

Spans are named ``<layer>.<function>`` after the ``repro`` package the
callable lives in.  Every per-layer metric is normalized per op (solver
step, fleet round or autotune sweep), because a run measures for a
fixed time and so does more ops on a faster commit: ``_s`` metrics are
self seconds per op, count metrics are per op unless noted.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import repro.hardware.autotune as tuning
import repro.pipeline.pipeline as pipeline
import repro.runtime.executor as executor
import repro.serving.fleet as fleet
import repro.solvers.isam2 as isam2
from repro.core import RAISAM2
from repro.linalg.parallel import ParallelStepExecutor
from repro.linalg.plan import StepExecutor
from repro.serving import SessionFleet

from bench.trace import Target, Tracer


def _front_size(args: tuple, kwargs: dict) -> float:
    return float(args[1].front_size)   # (executor, plan, ...)


#: Every callable the traced run wraps (the defining class, or the
#: module whose global name its caller resolves).
TARGETS = [
    Target(RAISAM2, "plan_selection", "policy.plan_selection"),
    Target(isam2.IncrementalEngine, "update_begin", "solvers.update_begin"),
    Target(isam2.PendingStep, "ingest_request", "solvers.ingest_request"),
    Target(isam2.PendingStep, "apply_ingest", "solvers.apply_ingest"),
    Target(isam2.PendingStep, "relin_request", "solvers.relin_request"),
    Target(isam2.PendingStep, "apply_relin", "solvers.apply_relin"),
    Target(isam2.PendingStep, "prepare_solve", "linalg.prepare_solve"),
    Target(isam2.PendingStep, "refactorize", "linalg.refactorize"),
    Target(isam2.PendingStep, "refactorize_begin",
           "linalg.refactorize_begin"),
    Target(isam2.PendingStep, "finish", "linalg.backsub"),
    Target(isam2.PreparedRefactorize, "finish", "linalg.refactorize_finish"),
    Target(StepExecutor, "factorize_node", "linalg.factorize_node",
           _front_size),
    Target(StepExecutor, "forward_update", "linalg.forward_update"),
    Target(StepExecutor, "backsolve_node", "linalg.backsolve_node"),
    Target(ParallelStepExecutor, "run_level", "serving.run_level"),
    Target(SessionFleet, "step", "serving.round"),
    Target(isam2, "linearize_many", "solvers.linearize_many"),
    Target(isam2, "compile_node_plan", "linalg.compile_node_plan"),
    Target(fleet, "linearize_fused", "solvers.linearize_fused"),
    Target(fleet, "linearize_many", "solvers.linearize_many"),
    Target(pipeline, "execute_step", "runtime.execute_step"),
    Target(executor, "simulate_tree", "runtime.simulate_tree"),
    Target(tuning, "simulate_tree", "runtime.simulate_tree"),
    Target(tuning, "autotune", "hardware.autotune"),
]

#: Per-layer self time: metric -> the spans whose self time it sums.
SELF_TIMES = {
    "linalg.factorize_node_s": ["linalg.factorize_node"],
    "linalg.refactorize_s": ["linalg.refactorize", "linalg.refactorize_begin",
                             "linalg.refactorize_finish",
                             "linalg.forward_update"],
    "linalg.compile_node_plan_s": ["linalg.compile_node_plan"],
    "linalg.backsub_s": ["linalg.backsub", "linalg.backsolve_node"],
    "linalg.prepare_solve_s": ["linalg.prepare_solve"],
    "policy.plan_selection_s": ["policy.plan_selection"],
    "solvers.update_begin_s": ["solvers.update_begin"],
    "solvers.linearize_s": ["solvers.linearize_many",
                            "solvers.linearize_fused",
                            "solvers.ingest_request", "solvers.apply_ingest",
                            "solvers.apply_relin"],
    "solvers.relin_request_s": ["solvers.relin_request"],
    "runtime.execute_step_s": ["runtime.execute_step"],
    "runtime.simulate_tree_s": ["runtime.simulate_tree"],
    "serving.round_s": ["serving.round"],
    "serving.run_level_s": ["serving.run_level"],
    "hardware.autotune_s": ["hardware.autotune"],
    "trace.unattributed_s": ["bench.op"],
}

#: Per-op span counts: metric -> span name.
CALLS = {
    "linalg.factorize_node_calls": "linalg.factorize_node",
    "linalg.backsolve_node_calls": "linalg.backsolve_node",
    "runtime.simulate_tree_calls": "runtime.simulate_tree",
    "serving.run_level_calls": "serving.run_level",
}

#: Per-op StepReport counters: metric -> summed episode counters.
REPORTED = {
    "linalg.affected_columns": ["affected_columns"],
    "policy.selection_visits": ["selection_visits"],
    "policy.deferred_variables": ["deferred_variables"],
    "solvers.linearized_factors": ["lin_batched_factors",
                                   "lin_fallback_factors"],
    "solvers.relinearized_variables": ["relinearized_variables"],
}


_RATIOS = ("linalg.plan_hit_ratio", "solvers.batched_ratio",
           "runtime.lane_cache_hit_ratio", "serving.plan_hit_ratio",
           "trace.overhead_ratio")

#: Unit of every per-layer metric.
UNITS = {
    **{metric: "s/op" for metric in SELF_TIMES},
    "trace.op_s": "s/op",
    **{metric: "1/op" for metric in list(CALLS) + list(REPORTED)},
    "linalg.front_size_p50": "rows",
    **{metric: "ratio" for metric in _RATIOS},
    "serving.sessions_dead": "count",
    "hardware.distinct_schedules": "count",
    "hardware.distinct_pricings": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counts: Dict[str, float], ops: int,
                  lane_hits: int, lane_misses: int, episodes: int,
                  overhead_ratio: float,
                  slowness: float) -> Dict[str, float]:
    """Per-layer metric values of one traced phase of ``ops`` ops.

    ``counts`` sums the episodes' counters; fleet aggregates and the
    autotuner's collapse counts are per episode, so they are averaged
    over ``episodes``.  Times are divided by the phase's host
    ``slowness``, like the end-to-end host times.
    """
    per_op = 1.0 / max(ops, 1)
    per_op_s = per_op / slowness
    out: Dict[str, float] = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = per_op_s * sum(tracer.self_seconds.get(n, 0.0)
                                     for n in names)
    for metric, name in CALLS.items():
        out[metric] = per_op * tracer.calls.get(name, 0)
    for metric, names in REPORTED.items():
        out[metric] = per_op * sum(counts.get(n, 0.0) for n in names)
    fronts: List[float] = tracer.values.get("linalg.factorize_node", [])
    out["linalg.front_size_p50"] = float(np.median(fronts)) if fronts else 0.0
    out["linalg.plan_hit_ratio"] = _ratio(
        counts.get("plan_hits", 0.0),
        counts.get("plan_hits", 0.0) + counts.get("plan_misses", 0.0))
    batched = counts.get("lin_batched_factors", 0.0)
    out["solvers.batched_ratio"] = _ratio(
        batched, batched + counts.get("lin_fallback_factors", 0.0))
    out["runtime.lane_cache_hit_ratio"] = _ratio(lane_hits,
                                                 lane_hits + lane_misses)
    fleet_hits = counts.get("fleet_plan_hits", 0.0)
    out["serving.plan_hit_ratio"] = _ratio(
        fleet_hits, fleet_hits + counts.get("fleet_plan_misses", 0.0))
    per_episode = 1.0 / max(episodes, 1)
    out["serving.sessions_dead"] = per_episode * counts.get(
        "sessions_dead", 0.0)
    out["hardware.distinct_schedules"] = per_episode * counts.get(
        "distinct_schedules", 0.0)
    out["hardware.distinct_pricings"] = per_episode * counts.get(
        "distinct_pricings", 0.0)
    out["trace.op_s"] = per_op_s * tracer.total_seconds.get("bench.op", 0.0)
    out["trace.overhead_ratio"] = overhead_ratio
    return out
