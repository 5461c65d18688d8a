"""Verbatim snapshot of the pre-plan/execute fixed-lag solve path.

Kept as the reference implementation for the fixed-lag equivalence
tests: after the plan/execute refactor (`repro.linalg.plan`), the live
``FixedLagSmoother`` routes its per-iteration factorize/solve through
the shared ``StepExecutor`` and reuses cached ``NodePlan``s across
Gauss-Newton iterations.  This file pins the old behavior — a fresh
``MultifrontalCholesky`` per iteration, per-factor ``gather_indices`` +
``scatter_add_block`` assembly loops — so the refactored path can be
dual-run against it (estimates and traces to 1e-9, see
``tests/test_fixed_lag_equivalence.py``).  Do not modernize this file.

Marginalization (``marginalize_variable`` / ``LinearizedGaussianFactor``)
is imported from the live module: it is untouched by the refactor and
importing it keeps this snapshot focused on the solve path.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.linalg

from repro.factorgraph.factors import Factor
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values
from repro.instrumentation import StepContext
from repro.linalg.cholesky import FactorContribution
from repro.linalg.frontal import (
    factorize_front,
    front_offsets,
    gather_indices,
    scatter_add_block,
)
from repro.linalg.symbolic import SymbolicFactorization
from repro.linalg.trace import OpKind, OpTrace
from repro.solvers.base import StepReport
from repro.solvers.batch_linearize import linearize_many
from repro.solvers.fixed_lag import marginalize_variable
from repro.state import BlockVector


def _seed_factorize_front(front, m, trace=None):
    """Seed-era ``factorize_front``: the live numerics plus the four ops
    the seed kernel recorded, frozen here so this engine's op records
    never come from live code."""
    l_a, l_b, c_update = factorize_front(front, m)
    if trace is not None:
        n_below = front.shape[0] - m
        trace.record(OpKind.POTRF, m)
        if n_below:
            trace.record(OpKind.TRSM, n_below, m)
            trace.record(OpKind.SYRK, n_below, m)
        trace.record(OpKind.MEMCPY, 4 * (m + n_below) * m)
    return l_a, l_b, c_update


class SeedMultifrontalCholesky:
    """Pre-refactor multifrontal solver (per-factor assembly loops)."""

    def __init__(self, symbolic: SymbolicFactorization, damping: float = 0.0):
        self.symbolic = symbolic
        self.damping = float(damping)
        dims = symbolic.dims
        self._l_a: List[Optional[np.ndarray]] = [None] * len(
            symbolic.supernodes)
        self._l_b: List[Optional[np.ndarray]] = [None] * len(
            symbolic.supernodes)
        self._offsets: List[Dict[int, int]] = []
        self._m: List[int] = []
        self._front: List[int] = []
        self._scalar_off = np.concatenate(
            [[0], np.cumsum(dims)]).astype(np.intp)
        self._total = int(self._scalar_off[-1])
        self._own_idx: List[np.ndarray] = []
        self._row_idx: List[np.ndarray] = []
        for node in symbolic.supernodes:
            offsets, m, front = front_offsets(
                node.positions, node.row_pattern, dims)
            self._offsets.append(offsets)
            self._m.append(m)
            self._front.append(front)
            self._own_idx.append(self._flat_indices(node.positions))
            self._row_idx.append(self._flat_indices(node.row_pattern))
        self._gradient = np.zeros(self._total)

    def _flat_indices(self, positions: Sequence[int]) -> np.ndarray:
        if not len(positions):
            return np.empty(0, dtype=np.intp)
        return np.concatenate([
            np.arange(self._scalar_off[p], self._scalar_off[p + 1],
                      dtype=np.intp)
            for p in positions])

    def factorize(
        self,
        contributions: Sequence[FactorContribution],
        trace: Optional[OpTrace] = None,
    ) -> None:
        symbolic = self.symbolic
        dims = symbolic.dims
        node_factors: Dict[int, List[FactorContribution]] = {}
        for contrib in contributions:
            sid = symbolic.node_of[contrib.positions[0]]
            node_factors.setdefault(sid, []).append(contrib)

        self._gradient[:] = 0.0
        for contrib in contributions:
            np.add.at(self._gradient,
                      self._flat_indices(contrib.positions),
                      contrib.gradient)

        updates: Dict[int, np.ndarray] = {}
        for sid in symbolic.node_order():
            node = symbolic.supernodes[sid]
            offsets = self._offsets[sid]
            m = self._m[sid]
            front_size = self._front[sid]
            front = np.zeros((front_size, front_size))
            node_trace = (trace.node(sid, cols=m, rows_below=front_size - m)
                          if trace is not None else None)
            if node_trace is not None:
                node_trace.record(OpKind.MEMSET, 4 * front_size * front_size)

            for contrib in node_factors.get(sid, ()):
                idx = gather_indices(contrib.positions, dims, offsets)
                scatter_add_block(front, idx, contrib.hessian)
                if node_trace is not None:
                    df = contrib.hessian.shape[0]
                    node_trace.record(
                        OpKind.MEMCPY,
                        4 * contrib.residual_dim * (df + 1))
                    node_trace.record(OpKind.GEMM, df, df,
                                      contrib.residual_dim)
                    node_trace.record(OpKind.SCATTER_ADD, df, df)

            for child in node.children:
                child_node = symbolic.supernodes[child]
                child_update = updates.pop(child)
                idx = gather_indices(child_node.row_pattern, dims, offsets)
                scatter_add_block(front, idx, child_update)
                if node_trace is not None:
                    nc = child_update.shape[0]
                    node_trace.record(OpKind.SCATTER_ADD, nc, nc)

            if self.damping:
                front[np.arange(m), np.arange(m)] += self.damping

            l_a, l_b, c_update = _seed_factorize_front(front, m, node_trace)
            self._l_a[sid] = l_a
            self._l_b[sid] = l_b
            if node.parent != -1:
                updates[sid] = c_update

    def solve(self, trace: Optional[OpTrace] = None) -> List[np.ndarray]:
        return self._solve_flat(self._gradient, trace)

    def solve_vector(self, rhs_blocks: Sequence[np.ndarray],
                     trace: Optional[OpTrace] = None) -> List[np.ndarray]:
        flat = (np.concatenate([np.asarray(r, dtype=float)
                                for r in rhs_blocks])
                if len(rhs_blocks) else np.zeros(0))
        return self._solve_flat(flat, trace)

    def _solve_flat(self, rhs_flat: np.ndarray,
                    trace: Optional[OpTrace] = None) -> List[np.ndarray]:
        symbolic = self.symbolic
        off = self._scalar_off
        carry = np.zeros(self._total)
        y_store: List[Optional[np.ndarray]] = [None] * len(
            symbolic.supernodes)

        for sid in symbolic.node_order():
            node = symbolic.supernodes[sid]
            m = self._m[sid]
            own = self._own_idx[sid]
            rhs = rhs_flat[own] - carry[own]
            y = scipy.linalg.solve_triangular(
                self._l_a[sid], rhs, lower=True, check_finite=False)
            y_store[sid] = y
            node_trace = (trace.node(sid) if trace is not None else None)
            if node_trace is not None:
                node_trace.record(OpKind.TRSV, m)
            if node.row_pattern:
                spread = self._l_b[sid] @ y
                carry[self._row_idx[sid]] += spread
                if node_trace is not None:
                    node_trace.record(OpKind.GEMV, len(spread), m)

        x_flat = np.zeros(self._total)
        for sid in reversed(symbolic.node_order()):
            node = symbolic.supernodes[sid]
            m = self._m[sid]
            rhs = y_store[sid]
            if node.row_pattern:
                above = x_flat[self._row_idx[sid]]
                rhs = rhs - self._l_b[sid].T @ above
                if trace is not None:
                    trace.node(sid).record(OpKind.GEMV, m, len(above))
            x = scipy.linalg.solve_triangular(
                self._l_a[sid], rhs, lower=True, trans="T",
                check_finite=False)
            if trace is not None:
                trace.node(sid).record(OpKind.TRSV, m)
            x_flat[self._own_idx[sid]] = x
        return [x_flat[off[p]:off[p + 1]] for p in range(symbolic.n)]


class SeedFixedLagSmoother:
    """Pre-refactor fixed-lag smoother (new solver per GN iteration)."""

    def __init__(self, window: int = 20, iterations: int = 2,
                 damping: float = 1e-6):
        self.window = int(window)
        self.iterations = int(iterations)
        self.damping = float(damping)
        self.graph = FactorGraph()
        self.values = Values()
        self.history: Dict[Key, object] = {}
        self._active: List[Key] = []
        self._step = -1

    def update(self, new_values: Dict[Key, object],
               new_factors: Sequence[Factor],
               trace: Optional[OpTrace] = None,
               context: Optional[StepContext] = None) -> StepReport:
        self._step += 1
        ctx = context if context is not None else StepContext(trace)
        for key in sorted(new_values.keys()):
            self.values.insert(key, new_values[key])
            self._active.append(key)
        dropped_factors = 0
        for factor in new_factors:
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
        keys = sorted(self.values.keys())
        position_of = {k: i for i, k in enumerate(keys)}
        dims = [self.values.at(k).dim for k in keys]
        factor_positions = [
            sorted(position_of[k] for k in f.keys)
            for f in self.graph.factors()]
        symbolic = SymbolicFactorization(dims, factor_positions)
        for iteration in range(self.iterations):
            start = time.perf_counter()
            contributions, n_batched, n_fallback = linearize_many(
                self.graph.factors(), self.values, position_of)
            ctx.lin_seconds += time.perf_counter() - start
            ctx.lin_batched_factors += n_batched
            ctx.lin_fallback_factors += n_fallback
            solver = SeedMultifrontalCholesky(symbolic, damping=self.damping)
            last = iteration == self.iterations - 1
            trace = ctx.trace if last else None
            solver.factorize(contributions, trace=trace)
            delta = BlockVector.from_blocks(solver.solve(trace=trace))
            self.values.retract_in_place(
                {keys[p]: delta[p] for p in range(len(keys))})

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
        remaining = Values()
        for k in self.values.keys():
            if k != key:
                remaining.insert(k, self.values.at(k))
        self.values = remaining

    def estimate(self) -> Values:
        out = Values()
        for key, pose in self.history.items():
            out.insert(key, pose)
        for key in self.values.keys():
            out.insert(key, self.values.at(key))
        return out
