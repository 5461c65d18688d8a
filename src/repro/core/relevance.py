"""Relevance scores and Algorithm 1: relinearization cost estimation.

The relevance score of variable j is ``‖delta_j‖∞`` — how far the optimal
update has drifted from the linearization point.  The cost of
relinearizing a variable is the summed path cost (node costs from the
variable's supernode up to the root) over every variable sharing a factor
with it.  Node and path costs are memoized so the whole selection pass
does at most two visits per node.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.factorgraph.keys import Key
from repro.runtime.cost_model import NodeCostModel
from repro.solvers.isam2 import IncrementalEngine


def relevance_scores(engine: IncrementalEngine,
                     floor: float = 0.0) -> List[Tuple[float, Key]]:
    """(score, key) pairs above ``floor``, most relevant first."""
    norms = engine.delta_norm_array()
    scored = [(float(norms[p]), engine.order[p])
              for p in np.flatnonzero(norms > floor)]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return scored


class RelinCostEstimator:
    """Algorithm 1 over the engine's current elimination tree.

    Parameters
    ----------
    engine:
        The incremental engine whose tree is being costed.
    cost_model:
        Runtime node cost model (Section 4.3.3).
    numeric_speedup:
        Divisor applied to node (numeric) costs to account for the
        multi-accelerator schedule the runtime will actually achieve.
    """

    def __init__(self, engine: IncrementalEngine,
                 cost_model: NodeCostModel,
                 numeric_speedup: float = 1.0):
        self.engine = engine
        self.cost_model = cost_model
        self.numeric_speedup = max(1.0, float(numeric_speedup))
        self._node_cost: Dict[int, float] = {}
        self._path_cost: Dict[int, float] = {}
        self.visits = 0

    # -- node-level helpers -------------------------------------------

    def _compute_node_cost(self, sid: int) -> float:
        """Numeric + non-numeric (symbolic) latency of one supernode."""
        engine = self.engine
        node = engine.nodes[sid]
        dims = engine.dims
        m = sum(dims[p] for p in node.positions)
        n_below = sum(dims[p] for p in node.pattern)
        num_factors = sum(len(engine._factors_at.get(p, ()))
                          for p in node.positions)
        numeric = self.cost_model.node_seconds(m, n_below, num_factors)
        symbolic = self.cost_model.symbolic_seconds(len(node.positions))
        return numeric / self.numeric_speedup + symbolic

    def path_cost(self, sid: int) -> float:
        """ComputePathCost: climb to a visited node/root, then sum down."""
        chain: List[int] = []
        cursor: Optional[int] = sid
        while cursor is not None and cursor not in self._node_cost:
            self.visits += 1
            self._node_cost[cursor] = self._compute_node_cost(cursor)
            chain.append(cursor)
            cursor = self.engine.parent_sid(self.engine.nodes[cursor])
        base = self._path_cost.get(cursor, 0.0) if cursor is not None \
            else 0.0
        for node_sid in reversed(chain):
            self.visits += 1
            base = self._node_cost[node_sid] + base
            self._path_cost[node_sid] = base
        return self._path_cost[sid]

    # -- variable-level API (Algorithm 1) ------------------------------

    def relin_cost(self, key: Key) -> float:
        """ComputeRelinCost: summed path costs of all affected variables,
        plus the CPU-side relinearization of the shared factors."""
        engine = self.engine
        affected: Set[Key] = {key} | engine.graph.neighbors(key)
        total = 0.0
        for var in affected:
            pos = engine.pos_of[var]
            sid = engine.node_of[pos]
            if sid == -1:
                continue
            total += self.path_cost(sid)
        num_factors = len(engine.graph.factors_of(key))
        total += self.cost_model.relin_seconds(num_factors)
        return total

    def mandatory_cost(self, keys: Set[Key]) -> float:
        """Path cost of incorporating new factors touching these keys."""
        total = 0.0
        for key in keys:
            pos = self.engine.pos_of.get(key)
            if pos is None:
                continue
            sid = self.engine.node_of[pos]
            if sid != -1:
                total += self.path_cost(sid)
        return total
