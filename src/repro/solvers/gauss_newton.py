"""Batch Gauss-Newton solver over the multifrontal Cholesky substrate.

This is the reference global solver: it relinearizes everything each
iteration and solves the full normal equations (paper Eq. 2).  Used for
reference trajectories, the Local+Global baseline's LC solver, and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values
from repro.linalg.cholesky import MultifrontalCholesky
from repro.linalg.ordering import OrderingSpec, make_ordering_policy
from repro.linalg.symbolic import SymbolicFactorization
from repro.solvers.linearize import linearize_graph
from repro.state import BlockVector


@dataclass
class GaussNewtonResult:
    """Converged estimate plus iteration diagnostics."""

    values: Values
    iterations: int
    converged: bool
    initial_error: float
    final_error: float
    error_history: List[float] = field(default_factory=list)


class GaussNewton:
    """Iterated Gauss-Newton with optional diagonal damping.

    Parameters
    ----------
    max_iterations / tolerance:
        Stop after ``max_iterations`` or when the max-norm of the update
        drops below ``tolerance``.
    damping:
        Levenberg-style diagonal added to H; 0 for pure Gauss-Newton.
    ordering:
        An :class:`~repro.linalg.ordering.OrderingPolicy` name
        (``"chronological"``, ``"minimum_degree"``,
        ``"constrained_colamd"``, ``"nested_dissection"``) or instance.
    workers:
        Thread-pool size for the level-scheduled factorization
        (bit-identical at every count, ``1`` runs levels inline;
        ``None`` reads ``REPRO_WORKERS``).
    """

    def __init__(self, max_iterations: int = 20, tolerance: float = 1e-6,
                 damping: float = 0.0,
                 ordering: OrderingSpec = "chronological",
                 max_supernode_vars: int = 8,
                 workers: Optional[int] = None):
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self.damping = float(damping)
        self.ordering_policy = make_ordering_policy(ordering)
        self.ordering = self.ordering_policy.name
        self.max_supernode_vars = int(max_supernode_vars)
        self.workers = workers

    def _order(self, graph: FactorGraph, keys) -> List[Key]:
        return self.ordering_policy.order(
            keys, [f.keys for f in graph.factors()])

    def optimize(self, graph: FactorGraph,
                 initial: Values) -> GaussNewtonResult:
        """Minimize the graph objective starting from ``initial``."""
        values = initial.copy()
        order = self._order(graph, list(values.keys()))
        position_of: Dict[Key, int] = {k: i for i, k in enumerate(order)}
        symbolic = SymbolicFactorization.from_ordering(
            order, {k: values.at(k).dim for k in order},
            [f.keys for f in graph.factors()],
            max_supernode_vars=self.max_supernode_vars)

        initial_error = graph.error(values)
        history = [initial_error]
        converged = False
        iterations = 0
        # One solver for all iterations: the structure never changes, so
        # every iteration past the first reuses the compiled step-plans.
        solver = MultifrontalCholesky(symbolic, damping=self.damping,
                                      workers=self.workers)
        for iterations in range(1, self.max_iterations + 1):
            contributions = linearize_graph(
                graph.factors(), values, position_of)
            solver.factorize(contributions)
            delta = BlockVector.from_blocks(solver.solve())
            step = {order[p]: delta[p] for p in range(len(order))}
            values.retract_in_place(step)
            history.append(graph.error(values))
            if delta.abs_max() < self.tolerance:
                converged = True
                break
        return GaussNewtonResult(
            values=values,
            iterations=iterations,
            converged=converged,
            initial_error=initial_error,
            final_error=history[-1],
            error_history=history,
        )
