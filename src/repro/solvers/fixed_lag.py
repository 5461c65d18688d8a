"""Fixed-lag smoother: the "Local" baseline (paper Section 5.5).

A VIO-style sliding-window solver: only the most recent ``window`` poses
are optimized; the oldest pose is marginalized out via a Schur complement,
leaving a dense Gaussian prior on its separator.  Latency is bounded, but
loop closures outside the window are ignored, so drift accumulates —
exactly the failure mode Table 4 and Fig. 12 show.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.factorgraph.factors import Factor
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.noise import IsotropicNoise
from repro.factorgraph.values import Values
from repro.instrumentation import StepContext
from repro.linalg.cholesky import MultifrontalCholesky
from repro.linalg.ordering import OrderingSpec, make_ordering_policy
from repro.linalg.symbolic import SymbolicFactorization
from repro.solvers.base import StepReport
from repro.solvers.batch_linearize import linearize_many
from repro.state import BlockVector


class LinearizedGaussianFactor(Factor):
    """A dense Gaussian factor anchored at fixed linearization values.

    Encodes ``‖A @ xi - b‖²`` where ``xi`` stacks the tangent offsets of
    the current values from the stored linearization point.  Produced by
    marginalization; the Jacobian is held constant (standard fixed-lag
    practice).
    """

    def __init__(self, keys: Sequence[Key], lin_points: Dict[Key, object],
                 a_matrix: np.ndarray, b: np.ndarray):
        super().__init__(keys, IsotropicNoise(len(b), 1.0))
        self.lin_points = dict(lin_points)
        self.a_matrix = np.asarray(a_matrix, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self._key_slices = []
        cursor = 0
        for key in self.keys:
            dim = self.lin_points[key].dim
            self._key_slices.append(slice(cursor, cursor + dim))
            cursor += dim
        if cursor != self.a_matrix.shape[1]:
            raise ValueError("A matrix width does not match key dims")

    def _offsets(self, values) -> np.ndarray:
        return np.concatenate([
            self.lin_points[key].local(values.at(key)) for key in self.keys
        ])

    def error_vector(self, values) -> np.ndarray:
        return self.a_matrix @ self._offsets(values) - self.b

    def jacobians(self, values) -> List[np.ndarray]:
        return [self.a_matrix[:, sl] for sl in self._key_slices]


def marginalize_variable(
    key: Key,
    factors: Sequence[Factor],
    values,
) -> Optional[LinearizedGaussianFactor]:
    """Schur-complement ``key`` out of the given factors.

    Linearizes the factors at ``values``, eliminates the block of ``key``
    and returns a dense Gaussian prior on the separator variables (or None
    when the separator is empty).
    """
    separator: List[Key] = []
    for factor in factors:
        for other in factor.keys:
            if other != key and other not in separator:
                separator.append(other)
    ordered = [key] + sorted(separator)
    position_of = {k: i for i, k in enumerate(ordered)}
    dims = [values.at(k).dim for k in ordered]
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    total = int(offsets[-1])

    h_full = np.zeros((total, total))
    g_full = np.zeros(total)
    for factor in factors:
        blocks, rhs = factor.linearize(values)
        keys_sorted = sorted(blocks.keys(), key=lambda k: position_of[k])
        stacked = np.hstack([blocks[k] for k in keys_sorted])
        idx = np.concatenate([
            np.arange(offsets[position_of[k]],
                      offsets[position_of[k]] + values.at(k).dim)
            for k in keys_sorted])
        h_full[np.ix_(idx, idx)] += stacked.T @ stacked
        g_full[idx] += stacked.T @ rhs

    m = dims[0]
    if total == m:
        return None
    h_mm = h_full[:m, :m] + 1e-9 * np.eye(m)
    h_sm = h_full[m:, :m]
    h_ss = h_full[m:, m:]
    g_m = g_full[:m]
    g_s = g_full[m:]
    gain = h_sm @ np.linalg.inv(h_mm)
    h_prior = h_ss - gain @ h_sm.T
    g_prior = g_s - gain @ g_m
    # Sqrt form: A = L^T with L L^T = H', b = L^-1 g'.
    jitter = 1e-9 * np.eye(total - m)
    l_factor = np.linalg.cholesky(h_prior + jitter)
    a_matrix = l_factor.T
    b = np.linalg.solve(l_factor, g_prior)
    sep_keys = sorted(separator)
    lin_points = {k: values.at(k) for k in sep_keys}
    return LinearizedGaussianFactor(sep_keys, lin_points, a_matrix, b)


class FixedLagSmoother:
    """Sliding-window smoother with marginalization ("Local" baseline).

    Parameters
    ----------
    window:
        Number of most-recent poses kept in the active window (paper: 20).
    iterations:
        Gauss-Newton iterations per step on the window problem.
    ordering:
        An :class:`~repro.linalg.ordering.OrderingPolicy` name or
        instance for the per-step window solve (default chronological).
    workers:
        Thread-pool size for the level-scheduled factorization
        (bit-identical at every count, ``1`` runs levels inline;
        ``None`` reads ``REPRO_WORKERS``).
    """

    def __init__(self, window: int = 20, iterations: int = 2,
                 damping: float = 1e-6,
                 ordering: "OrderingSpec" = "chronological",
                 workers: Optional[int] = None):
        self.window = int(window)
        self.iterations = int(iterations)
        self.damping = float(damping)
        self.workers = workers
        self.ordering_policy = make_ordering_policy(ordering)
        self.ordering = self.ordering_policy.name
        self.graph = FactorGraph()
        self.values = Values()          # active window estimates
        self.history: Dict[Key, object] = {}  # frozen marginalized poses
        self._active: List[Key] = []
        self._step = -1

    def update(self, new_values: Dict[Key, object],
               new_factors: Sequence[Factor],
               context: Optional[StepContext] = None) -> StepReport:
        """Process one timestep: insert, optimize window, marginalize."""
        self._step += 1
        ctx = context if context is not None else StepContext()
        for key in sorted(new_values.keys()):
            self.values.insert(key, new_values[key])
            self._active.append(key)
        dropped_factors = 0
        for factor in new_factors:
            # Factors touching already-marginalized poses are discarded
            # (the defining limitation of a local method).
            if all(key in self.values for key in factor.keys):
                self.graph.add(factor)
            else:
                dropped_factors += 1

        self._optimize(ctx)
        while len(self._active) > self.window:
            self._marginalize_oldest()
        ctx.relinearized_variables += len(self._active)
        ctx.refactored_nodes += len(self._active)
        ctx.extras["dropped_factors"] = float(dropped_factors)
        return ctx.build_report(self._step)

    def _optimize(self, ctx: StepContext) -> None:
        keys = self.ordering_policy.order(
            list(self.values.keys()),
            [f.keys for f in self.graph.factors()])
        position_of = {k: i for i, k in enumerate(keys)}
        symbolic = SymbolicFactorization.from_ordering(
            keys, {k: self.values.at(k).dim for k in keys},
            [f.keys for f in self.graph.factors()])
        # One solver per step: the structure is fixed across Gauss-Newton
        # iterations, so iteration 2+ reuses every step-plan compiled by
        # iteration 1 through the shared executor (factorize fully
        # overwrites L and the gradient, so reuse is exact).
        solver = MultifrontalCholesky(symbolic, damping=self.damping,
                                      workers=self.workers)
        for iteration in range(self.iterations):
            start = time.perf_counter()
            contributions, n_batched, n_fallback = linearize_many(
                self.graph.factors(), self.values, position_of)
            ctx.lin_seconds += time.perf_counter() - start
            ctx.lin_batched_factors += n_batched
            ctx.lin_fallback_factors += n_fallback
            last = iteration == self.iterations - 1
            trace = ctx.trace if last else None
            start = time.perf_counter()
            solver.factorize(contributions, trace=trace)
            ctx.refactor_seconds += time.perf_counter() - start
            delta = BlockVector.from_blocks(solver.solve(trace=trace))
            self.values.retract_in_place(
                {keys[p]: delta[p] for p in range(len(keys))})
        hits, misses, compiles = solver.plan_counters
        ctx.plan_hits += hits
        ctx.plan_misses += misses
        ctx.plan_compiles += compiles
        ctx.add_level_stats(solver.level_stats)  # fresh solver: step-local

    def _marginalize_oldest(self) -> None:
        key = self._active.pop(0)
        factor_ids = sorted(self.graph.factors_of(key))
        factors = [self.graph.factor(i) for i in factor_ids]
        prior = marginalize_variable(key, factors, self.values)
        for index in factor_ids:
            self.graph.remove(index)
        if prior is not None:
            self.graph.add(prior)
        self.history[key] = self.values.at(key)
        # Rebuild values without the marginalized key.
        remaining = Values()
        for k in self.values.keys():
            if k != key:
                remaining.insert(k, self.values.at(k))
        self.values = remaining

    def estimate(self) -> Values:
        """Full trajectory: frozen history plus the live window."""
        out = Values()
        for key, pose in self.history.items():
            out.insert(key, pose)
        for key in self.values.keys():
            out.insert(key, self.values.at(key))
        return out

    def correct(self, corrected: Values, anchor: Key) -> None:
        """Apply a global correction (used by the Local+Global baseline).

        Replaces frozen history with the globally optimized poses,
        rigidly shifts the active window by the anchor pose's correction,
        and transports the marginal priors' linearization points with it
        (their local offsets are exactly invariant under the left
        composition, so the window does not snap back on the next solve).
        """
        if anchor in self.values:
            local_anchor = self.values.at(anchor)
        else:
            local_anchor = self.history[anchor]
        correction = corrected.at(anchor).compose(local_anchor.inverse())
        for key in list(self.history.keys()):
            if key in corrected:
                self.history[key] = corrected.at(key)
        for key in self.values.keys():
            self.values.update(
                key, correction.compose(self.values.at(key)))
        for factor in self.graph.factors():
            if isinstance(factor, LinearizedGaussianFactor):
                for key, point in factor.lin_points.items():
                    factor.lin_points[key] = correction.compose(point)
