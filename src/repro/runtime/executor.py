"""Full backend step latency on a simulated platform.

Combines the non-numeric host work (relinearization, symbolic, selection
overhead — paper Section 3.3) with the scheduled numeric factorization to
produce the per-step latency the paper's Figures 8, 10 and 11 report.

:func:`host_terms` is the one formula for the host-side terms, so
RA-ISAM2's cost model predicts exactly what a step is charged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

from repro.hardware.platforms import SoCConfig
from repro.linalg.trace import OpTrace
from repro.runtime.scheduler import (
    RuntimeFeatures,
    SimResult,
    sequential_cycles,
    simulate_tree,
)
from repro.solvers.base import StepReport

#: Cycles per candidate visited by the RA-ISAM2 selection pass.
SELECTION_CYCLES_PER_VISIT = 60.0


@dataclass
class StepLatency:
    """Latency breakdown of one backend step, in seconds."""

    relinearization: float
    symbolic: float
    numeric: float
    overhead: float            # RA-ISAM2 selection pass
    utilization: float = 0.0

    @property
    def total(self) -> float:
        return (self.relinearization + self.symbolic + self.numeric
                + self.overhead)

    @property
    def total_ms(self) -> float:
        return 1e3 * self.total

    def as_dict(self) -> Dict[str, float]:
        # Every dataclass field plus the derived total: utilization used
        # to be silently dropped here, losing it for every CLI/JSON
        # consumer of the breakdown.
        return {
            "relinearization": self.relinearization,
            "symbolic": self.symbolic,
            "numeric": self.numeric,
            "overhead": self.overhead,
            "utilization": self.utilization,
            "total": self.total,
        }


class HostTerms(NamedTuple):
    """Host-side seconds of one step, plus its loose-op cycles (which
    serialize with the numeric schedule)."""

    relinearization: float
    symbolic: float
    overhead: float
    loose_cycles: float


def host_terms(soc: SoCConfig, relinearized_factors: int = 0,
               affected_columns: int = 0, selection_visits: int = 0,
               trace: Optional[OpTrace] = None) -> HostTerms:
    """Price a step's host-side work on ``soc``'s host tile."""
    host = soc.host
    # Relinearization is trivially parallel (paper Section 3.3) and is
    # split across the SoC's CPU tiles; symbolic factorization follows
    # tree dependencies and stays serial.
    relin = host.seconds(host.relin_cycles(relinearized_factors)
                         / max(1, soc.cpu_tiles))
    symbolic = host.seconds(host.symbolic_cycles(affected_columns))
    overhead = host.seconds(selection_visits * SELECTION_CYCLES_PER_VISIT)
    loose = trace.loose if trace is not None else None
    loose_cycles = (float(sum(host.price_ops(loose).tolist(), 0.0))
                    if loose is not None and loose.num_ops else 0.0)
    return HostTerms(relin, symbolic, overhead, loose_cycles)


def execute_step(
    report: StepReport,
    soc: SoCConfig,
    parents: Optional[Dict[int, Optional[int]]] = None,
    features: RuntimeFeatures = RuntimeFeatures.all(),
) -> StepLatency:
    """Price one solver step on a platform.

    Parameters
    ----------
    report:
        The solver's :class:`StepReport` (with its trace attached).
    soc:
        The evaluated platform.
    parents:
        Dependency tree among traced supernodes (required for parallel
        scheduling on accelerator platforms; CPU/GPU platforms run the
        trace sequentially).  When omitted it is derived from
        ``report.node_parents``; a multi-node trace reaching an
        accelerator platform with no dependency info at all used to be
        silently scheduled as a forest of independent roots —
        overstating parallelism — and now raises a
        :class:`RuntimeWarning` instead (pass ``parents={}`` explicitly
        to assert the nodes really are independent).
    """
    terms = host_terms(soc, report.relinearized_factors,
                       report.affected_columns, report.selection_visits,
                       report.trace)
    utilization = 0.0
    if report.trace is None or not report.trace.nodes:
        numeric = 0.0
    elif soc.has_accelerators:
        if parents is None:
            parents = report.node_parents
        if parents is None:
            if len(report.trace.nodes) > 1:
                warnings.warn(
                    "execute_step: multi-node trace on an accelerator "
                    "platform with no dependency info (parents=None and "
                    "report.node_parents unset); scheduling every "
                    "supernode as an independent root overstates "
                    "parallelism.  Pass the elimination-tree parents, "
                    "or parents={} to assert independence.",
                    RuntimeWarning, stacklevel=2)
            parents = {}
        result: SimResult = simulate_tree(
            report.trace.nodes, parents, soc, features)
        # Loose ops (solve sweeps outside any supernode) run on the host
        # tile and serialize with the schedule.  They used to be priced
        # only on the no-accelerator branch and silently dropped here;
        # see EXPERIMENTS.md ("loose-op pricing fix") for the delta.
        cycles = result.makespan_cycles + terms.loose_cycles
        numeric = soc.seconds(cycles)
        utilization = result.utilization
    else:
        cycles = sequential_cycles(list(report.trace.nodes.values()), soc)
        cycles += terms.loose_cycles
        numeric = soc.host.seconds(cycles)

    return StepLatency(
        relinearization=terms.relinearization,
        symbolic=terms.symbolic,
        numeric=numeric,
        overhead=terms.overhead,
        utilization=utilization,
    )
