"""Per-supernode latency estimation (paper Section 4.3.3).

The resource-aware algorithm budgets relinearization work using this
model: it predicts the processing time of a supernode from its dimensions
without running the numeric factorization, by synthesizing the op
sequence the node *would* execute and pricing it on the platform models.
Its host-side predictions come from
:func:`~repro.runtime.executor.host_terms`, the formula steps are
charged with, so they are exact.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.hardware.platforms import SoCConfig
from repro.linalg.plan import record_node_ops
from repro.linalg.trace import NodeTrace, OpKind
from repro.runtime.executor import host_terms
from repro.runtime.scheduler import RuntimeFeatures, node_cycles, \
    node_duration
from repro.validate import current_auditor


def synthesize_node_ops(m: int, n_below: int, num_factors: int,
                        factor_dim: int = 6,
                        residual_dim: int = 3) -> NodeTrace:
    """Build the op sequence of a supernode with the given dimensions.

    The ops one refactorized supernode records: its assembly and partial
    factorization from :func:`~repro.linalg.plan.record_node_ops`
    (``num_factors`` factors of one typical shape, one child merge of
    the typical update-matrix size when the node has rows below), then
    the solve sweep — forward TRSV, GEMV when the node has rows below,
    and the back-substitution TRSV.
    """
    trace = NodeTrace(node_id=-1, cols=m, rows_below=n_below)
    record_node_ops(trace, m, m + n_below,
                    ((residual_dim, factor_dim),) * max(0, num_factors),
                    (n_below,) if n_below else ())
    trace.record(OpKind.TRSV, m)
    if n_below:
        trace.record(OpKind.GEMV, n_below, m)
    trace.record(OpKind.TRSV, m)
    return trace


class NodeCostModel:
    """Estimates node and step costs on a platform configuration.

    Parameters
    ----------
    soc:
        The platform (typically a SuperNoVA SoC configuration).
    features:
        Runtime optimizations assumed active.
    parallel_efficiency:
        Fraction of ideal multi-set speedup the scheduler is assumed to
        achieve across the whole step (used when budgeting, since the
        selection pass cannot run the full schedule).
    """

    def __init__(self, soc: SoCConfig,
                 features: RuntimeFeatures = RuntimeFeatures.all(),
                 parallel_efficiency: float = 0.7):
        self.soc = soc
        self.features = features
        self.parallel_efficiency = float(parallel_efficiency)
        # (m, n_below, num_factors) -> seconds.  The RA-ISAM2 selection
        # pass estimates hundreds of candidate nodes per step and node
        # dimensions repeat heavily across steps; synthesizing + pricing
        # the op sequence once per distinct shape makes the selection
        # pass O(lookup) on the common path.
        self._node_seconds: Dict[Tuple[int, int, int], float] = {}

    def node_seconds(self, m: int, n_below: int,
                     num_factors: int) -> float:
        """Wall time for one supernode on one accelerator set."""
        key = (int(m), int(n_below), int(num_factors))
        cached = self._node_seconds.get(key)
        aud = current_auditor()
        if cached is not None and aud is None:
            return cached
        trace = synthesize_node_ops(m, n_below, num_factors)
        comp, mem, host = node_cycles(trace, self.soc, self.features)
        cycles = node_duration(comp, mem, host, 1, self.features)
        seconds = self.soc.seconds(cycles)
        if aud is not None:
            # RA-ISAM2's budget decisions are only as honest as this
            # memo: a stale/corrupt entry silently re-prices every
            # selection pass that hits it.
            aud.check(comp >= 0.0 and mem >= 0.0 and host >= 0.0
                      and seconds >= 0.0, "cost-nonneg",
                      "negative node cost", key=key, comp=comp,
                      mem=mem, host=host, seconds=seconds)
            if cached is not None:
                aud.check_close(cached, seconds, "cost-memo-consistent",
                                "memoized node cost diverged from a "
                                "fresh pricing", key=key)
                return cached
        self._node_seconds[key] = seconds
        return seconds

    def step_speedup(self) -> float:
        """Assumed speedup of the scheduled step over serial node time."""
        if not self.soc.has_accelerators or self.soc.accel_sets <= 1:
            return 1.0
        if not (self.features.inter_node or self.features.intra_node):
            return 1.0
        return max(1.0, self.soc.accel_sets * self.parallel_efficiency)

    def relin_seconds(self, num_factors: int) -> float:
        return host_terms(self.soc,
                          relinearized_factors=num_factors).relinearization

    def symbolic_seconds(self, num_columns: int) -> float:
        return host_terms(self.soc, affected_columns=num_columns).symbolic

    def selection_seconds(self, num_visits: int) -> float:
        """Cost of the RA-ISAM2 selection pass itself (<= 2 visits/node)."""
        return host_terms(self.soc, selection_visits=num_visits).overhead
