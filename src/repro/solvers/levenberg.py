"""Levenberg-Marquardt batch solver.

Gauss-Newton with an adaptively damped Hessian: steps that reduce the
objective shrink lambda toward pure GN; rejected steps grow it toward
gradient descent.  More robust than plain GN on poorly initialized or
robustified problems (outlier closures, bearing-range landmarks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values
from repro.linalg.cholesky import MultifrontalCholesky
from repro.linalg.frontal import SingularHessianError
from repro.linalg.plan import PlanCache
from repro.linalg.ordering import OrderingSpec, make_ordering_policy
from repro.linalg.symbolic import SymbolicFactorization
from repro.solvers.linearize import linearize_graph


@dataclass
class LevenbergResult:
    """Converged estimate plus iteration diagnostics."""

    values: Values
    iterations: int
    converged: bool
    initial_error: float
    final_error: float
    final_lambda: float
    error_history: List[float] = field(default_factory=list)


class LevenbergMarquardt:
    """Batch LM over the multifrontal substrate.

    Parameters
    ----------
    initial_lambda / lambda_factor:
        Starting damping and its multiplicative adaptation factor.
    max_iterations / tolerance:
        Outer-iteration cap and relative error-decrease stop criterion.
    ordering:
        An :class:`~repro.linalg.ordering.OrderingPolicy` name or
        instance.
    workers:
        Thread-pool size for the level-scheduled factorization
        (bit-identical at every count, ``1`` runs levels inline;
        ``None`` reads ``REPRO_WORKERS``).
    """

    def __init__(self, max_iterations: int = 30, tolerance: float = 1e-9,
                 initial_lambda: float = 1e-4, lambda_factor: float = 10.0,
                 max_lambda: float = 1e8,
                 ordering: OrderingSpec = "chronological",
                 workers: Optional[int] = None):
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self.initial_lambda = float(initial_lambda)
        self.lambda_factor = float(lambda_factor)
        self.max_lambda = float(max_lambda)
        self.ordering_policy = make_ordering_policy(ordering)
        self.ordering = self.ordering_policy.name
        self.workers = workers

    def optimize(self, graph: FactorGraph,
                 initial: Values) -> LevenbergResult:
        values = initial.copy()
        keys = list(values.keys())
        order = self.ordering_policy.order(
            keys, [f.keys for f in graph.factors()])
        position_of: Dict[Key, int] = {k: i for i, k in enumerate(order)}
        symbolic = SymbolicFactorization.from_ordering(
            order, {k: values.at(k).dim for k in order},
            [f.keys for f in graph.factors()])

        # Damping varies per attempt but the structure never does, so
        # every per-lambda solver shares one step-plan cache (damping is
        # a numeric input to the executor, not part of any plan).
        plan_cache = PlanCache()
        lam = self.initial_lambda
        error = graph.error(values)
        initial_error = error
        history = [error]
        converged = False
        iterations = 0
        while iterations < self.max_iterations:
            iterations += 1
            contributions = linearize_graph(
                graph.factors(), values, position_of)
            stepped = False
            while lam <= self.max_lambda:
                solver = MultifrontalCholesky(symbolic, damping=lam,
                                              plan_cache=plan_cache,
                                              workers=self.workers)
                try:
                    solver.factorize(contributions)
                except SingularHessianError:
                    lam *= self.lambda_factor
                    continue
                delta = solver.solve()
                candidate = values.retract(
                    {order[p]: delta[p] for p in range(len(order))})
                candidate_error = graph.error(candidate)
                if candidate_error < error:
                    values = candidate
                    improvement = error - candidate_error
                    error = candidate_error
                    lam = max(lam / self.lambda_factor, 1e-12)
                    history.append(error)
                    stepped = True
                    if improvement < self.tolerance * (error + 1e-12):
                        converged = True
                    break
                lam *= self.lambda_factor
            if not stepped:
                break  # no acceptable step even at max damping
            if converged:
                break
        return LevenbergResult(
            values=values,
            iterations=iterations,
            converged=converged,
            initial_error=initial_error,
            final_error=error,
            final_lambda=lam,
            error_history=history,
        )
