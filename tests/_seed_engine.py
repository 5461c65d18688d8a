"""Verbatim snapshot of the seed (pre-BlockVector) incremental engine.

Kept as the reference implementation for the refactor-equivalence tests:
the ported engine must reproduce this engine's per-step delta
trajectories and op traces to 1e-9.  Do not modernize this file.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.linalg

from repro.factorgraph.factors import Factor
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values
from repro.linalg.cholesky import FactorContribution
from repro.linalg.frontal import (
    factorize_front,
    front_offsets,
    gather_indices,
    scatter_add_block,
)
from repro.linalg.trace import OpKind, OpTrace
from repro.solvers.base import StepReport
from repro.solvers.linearize import linearize_factor


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


class _Node:
    """A live supernode with its cached numeric state."""

    __slots__ = ("sid", "positions", "pattern", "l_a", "l_b", "c_update",
                 "y", "v")

    def __init__(self, sid: int, positions: List[int], pattern: List[int]):
        self.sid = sid
        self.positions = positions
        self.pattern = pattern
        self.l_a: Optional[np.ndarray] = None
        self.l_b: Optional[np.ndarray] = None
        self.c_update: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None


class SeedIncrementalEngine:
    """Incrementally maintained supernodal factorization of a factor graph.

    Parameters
    ----------
    max_supernode_vars / relax_fill:
        Supernode amalgamation controls (see :mod:`repro.linalg.symbolic`).
    wildfire_tol:
        Back-substitution only descends into clean subtrees whose incoming
        delta changed by more than this threshold.
    damping:
        Diagonal damping added to every supernode's diagonal block.
    """

    def __init__(self, max_supernode_vars: int = 8, relax_fill: int = 1,
                 wildfire_tol: float = 1e-5, damping: float = 0.0):
        self.max_supernode_vars = int(max_supernode_vars)
        self.relax_fill = int(relax_fill)
        self.wildfire_tol = float(wildfire_tol)
        self.damping = float(damping)

        self.order: List[Key] = []
        self.pos_of: Dict[Key, int] = {}
        self.dims: List[int] = []
        self.theta = Values()
        self.delta: List[np.ndarray] = []
        self.graph = FactorGraph()

        self._lin: Dict[int, FactorContribution] = {}
        self._a_struct: List[Set[int]] = []
        self._col_struct: List[List[int]] = []
        self._parent: List[int] = []
        self._children_pos: Dict[int, List[int]] = {}
        self._factors_at: Dict[int, List[int]] = {}
        self._gradient: List[np.ndarray] = []
        self._carry: List[np.ndarray] = []

        self.nodes: Dict[int, _Node] = {}
        self.node_of: List[int] = []
        self._next_sid = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def num_positions(self) -> int:
        return len(self.order)

    def estimate(self) -> Values:
        """Current state estimate X = Theta ⊕ Delta."""
        out = Values()
        for p, key in enumerate(self.order):
            out.insert(key, self.theta.at(key).retract(self.delta[p]))
        return out

    def estimate_of(self, key: Key):
        p = self.pos_of[key]
        return self.theta.at(key).retract(self.delta[p])

    def node_parents(self, sids) -> Dict[int, Optional[int]]:
        """Parent links among the given supernodes (for the scheduler)."""
        sid_set = set(sids)
        out: Dict[int, Optional[int]] = {}
        for sid in sids:
            node = self.nodes[sid]
            if node.pattern:
                parent_sid = self.node_of[node.pattern[0]]
                out[sid] = parent_sid if parent_sid in sid_set else None
            else:
                out[sid] = None
        return out

    def delta_norms(self) -> Dict[Key, float]:
        """Max-norm of the pending update per variable (relevance scores)."""
        return {key: float(np.max(np.abs(self.delta[p]))) if
                self.delta[p].size else 0.0
                for p, key in enumerate(self.order)}

    def update(
        self,
        new_values: Dict[Key, object],
        new_factors: Sequence[Factor],
        relin_keys: Iterable[Key] = (),
        trace: OpTrace = None,
    ) -> Dict[str, object]:
        """One incremental step.

        Adds variables and factors, relinearizes ``relin_keys`` (moving
        their linearization point to the current estimate), refactorizes
        the affected part of the tree and re-solves.  Returns work counters
        plus the set of refactored supernode ids.
        """
        affected: Set[int] = set()
        affected |= self._add_variables(new_values)
        affected |= self._add_factors(new_factors)
        relin_factors, relin_touched = self._relinearize(relin_keys)
        affected |= relin_touched

        sym_affected = self._resolve_structure(affected)
        fresh = self._rebuild_supernodes(sym_affected)
        self._refactorize(fresh, trace)
        self._back_substitute(fresh, trace)

        return {
            "relinearized_variables": len(set(relin_keys)),
            "relinearized_factors": relin_factors,
            "affected_columns": len(sym_affected),
            "refactored_nodes": len(fresh),
            "fresh_sids": fresh,
        }

    # ------------------------------------------------------------------
    # phase A/B/C: variables, factors, relinearization
    # ------------------------------------------------------------------

    def _add_variables(self, new_values: Dict[Key, object]) -> Set[int]:
        affected: Set[int] = set()
        for key in sorted(new_values.keys()):
            if key in self.pos_of:
                raise KeyError(f"variable {key} already in the engine")
            value = new_values[key]
            pos = len(self.order)
            self.order.append(key)
            self.pos_of[key] = pos
            self.dims.append(value.dim)
            self.theta.insert(key, value)
            self.delta.append(np.zeros(value.dim))
            self._a_struct.append(set())
            self._col_struct.append([])
            self._parent.append(-1)
            self._gradient.append(np.zeros(value.dim))
            self._carry.append(np.zeros(value.dim))
            self.node_of.append(-1)
            affected.add(pos)
        return affected

    def _add_factors(self, new_factors: Sequence[Factor]) -> Set[int]:
        affected: Set[int] = set()
        for factor in new_factors:
            index = self.graph.add(factor)
            positions = sorted(self.pos_of[k] for k in factor.keys)
            if len(positions) > 1:
                self._a_struct[positions[0]].update(positions[1:])
            self._factors_at.setdefault(positions[0], []).append(index)
            contrib = linearize_factor(factor, self.theta, self.pos_of)
            self._lin[index] = contrib
            self._apply_gradient(contrib, sign=1.0)
            affected.update(positions)
        return affected

    def _relinearize(self,
                     relin_keys: Iterable[Key]) -> Tuple[int, Set[int]]:
        touched: Set[int] = set()
        factor_set: Set[int] = set()
        for key in set(relin_keys):
            pos = self.pos_of[key]
            self.theta.update(key, self.theta.at(key).retract(
                self.delta[pos]))
            self.delta[pos] = np.zeros(self.dims[pos])
            touched.add(pos)
            factor_set.update(self.graph.factors_of(key))
        for index in factor_set:
            old = self._lin[index]
            self._apply_gradient(old, sign=-1.0)
            new = linearize_factor(self.graph.factor(index), self.theta,
                                   self.pos_of)
            self._lin[index] = new
            self._apply_gradient(new, sign=1.0)
            touched.update(new.positions)
        return len(factor_set), touched

    def _apply_gradient(self, contrib: FactorContribution,
                        sign: float) -> None:
        cursor = 0
        for p in contrib.positions:
            d = self.dims[p]
            self._gradient[p] += sign * contrib.gradient[cursor:cursor + d]
            cursor += d

    # ------------------------------------------------------------------
    # phase D: incremental symbolic factorization
    # ------------------------------------------------------------------

    def _resolve_structure(self, seeds: Set[int]) -> Set[int]:
        """Recompute column structures for the ancestor closure of seeds."""
        heap = list(seeds)
        heapq.heapify(heap)
        resolved: Set[int] = set()
        while heap:
            j = heapq.heappop(heap)
            if j in resolved:
                continue
            resolved.add(j)
            struct = set(self._a_struct[j])
            for child in self._children_pos.get(j, ()):
                struct.update(self._col_struct[child])
            struct.discard(j)
            self._col_struct[j] = sorted(struct)
            if struct:
                new_parent = self._col_struct[j][0]
                if self._parent[j] == -1:
                    self._parent[j] = new_parent
                    self._children_pos.setdefault(new_parent, []).append(j)
                elif self._parent[j] != new_parent:
                    # Monotone growth guarantees this never happens.
                    raise AssertionError(
                        "elimination parent changed under pure additions")
                heapq.heappush(heap, self._parent[j])
        return resolved

    # ------------------------------------------------------------------
    # phase E/F: supernode rebuild over the affected region
    # ------------------------------------------------------------------

    def _rebuild_supernodes(self, sym_affected: Set[int]) -> List[int]:
        # Expand to whole supernodes: any node containing an affected
        # position is torn down (its L factors live in one dense block).
        full: Set[int] = set(sym_affected)
        dead_sids = {self.node_of[j] for j in sym_affected
                     if self.node_of[j] != -1}
        for sid in dead_sids:
            node = self.nodes.pop(sid)
            full.update(node.positions)
            if node.v is not None:
                self._spread(node.pattern, node.v, sign=-1.0)
            for p in node.positions:
                self.node_of[p] = -1

        fresh: List[int] = []
        current: Optional[_Node] = None
        for j in sorted(full):
            merge = False
            if (current is not None and current.positions[-1] == j - 1
                    and self._parent[j - 1] == j
                    and len(current.positions) < self.max_supernode_vars):
                carried = set(current.pattern)
                carried.discard(j)
                fill = len(set(self._col_struct[j]) - carried)
                if fill <= self.relax_fill:
                    merge = True
            if merge:
                current.positions.append(j)
                current.pattern = list(self._col_struct[j])
            else:
                current = _Node(self._next_sid, [j],
                                list(self._col_struct[j]))
                self._next_sid += 1
                self.nodes[current.sid] = current
                fresh.append(current.sid)
            self.node_of[j] = current.sid
        return fresh

    def _spread(self, pattern: Sequence[int], vec: np.ndarray,
                sign: float) -> None:
        cursor = 0
        for p in pattern:
            d = self.dims[p]
            self._carry[p] += sign * vec[cursor:cursor + d]
            cursor += d

    # ------------------------------------------------------------------
    # phase G: numeric refactorization (bottom-up)
    # ------------------------------------------------------------------

    def _children_nodes(self, node: _Node) -> List[_Node]:
        seen: Set[int] = set()
        out: List[_Node] = []
        for p in node.positions:
            for child_pos in self._children_pos.get(p, ()):
                sid = self.node_of[child_pos]
                if sid != node.sid and sid not in seen:
                    seen.add(sid)
                    out.append(self.nodes[sid])
        return out

    def _refactorize(self, fresh: List[int], trace: OpTrace) -> None:
        dims = self.dims
        fresh_nodes = sorted((self.nodes[sid] for sid in fresh),
                             key=lambda n: n.positions[0])
        for node in fresh_nodes:
            offsets, m, front_size = front_offsets(
                node.positions, node.pattern, dims)
            front = np.zeros((front_size, front_size))
            node_trace = (trace.node(node.sid, cols=m,
                                     rows_below=front_size - m)
                          if trace is not None else None)
            if node_trace is not None:
                node_trace.record(OpKind.MEMSET, 4 * front_size * front_size)

            for p in node.positions:
                for index in self._factors_at.get(p, ()):
                    contrib = self._lin[index]
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

            for child in self._children_nodes(node):
                idx = gather_indices(child.pattern, dims, offsets)
                scatter_add_block(front, idx, child.c_update)
                if node_trace is not None:
                    nc = child.c_update.shape[0]
                    node_trace.record(OpKind.SCATTER_ADD, nc, nc)

            if self.damping:
                front[np.arange(m), np.arange(m)] += self.damping

            l_a, l_b, c_update = _seed_factorize_front(front, m, node_trace)
            node.l_a, node.l_b, node.c_update = l_a, l_b, c_update

            rhs = np.concatenate(
                [self._gradient[p] - self._carry[p]
                 for p in node.positions])
            node.y = scipy.linalg.solve_triangular(
                l_a, rhs, lower=True, check_finite=False)
            if node_trace is not None:
                node_trace.record(OpKind.TRSV, m)
            if node.pattern:
                node.v = l_b @ node.y
                self._spread(node.pattern, node.v, sign=1.0)
                if node_trace is not None:
                    node_trace.record(OpKind.GEMV, node.v.size, m)
            else:
                node.v = None

    # ------------------------------------------------------------------
    # phase H: wildfire back-substitution (top-down)
    # ------------------------------------------------------------------

    def _back_substitute(self, fresh: List[int], trace: OpTrace) -> None:
        fresh_set = set(fresh)
        changed = np.zeros(self.num_positions)
        # Visit each node once, root side first: a node is processed when
        # the scan reaches its last position.
        for p in range(self.num_positions - 1, -1, -1):
            sid = self.node_of[p]
            node = self.nodes[sid]
            if node.positions[-1] != p:
                continue
            dirty = sid in fresh_set
            if not dirty and node.pattern:
                dirty = any(changed[q] > self.wildfire_tol
                            for q in node.pattern)
            if not dirty:
                continue
            rhs = node.y.copy()
            if node.pattern:
                above = np.concatenate(
                    [self.delta[q] for q in node.pattern])
                rhs -= node.l_b.T @ above
                if trace is not None:
                    trace.node(sid).record(OpKind.GEMV, rhs.size,
                                           above.size)
            x = scipy.linalg.solve_triangular(
                node.l_a, rhs, lower=True, trans="T", check_finite=False)
            if trace is not None:
                trace.node(sid).record(OpKind.TRSV, rhs.size)
            cursor = 0
            for q in node.positions:
                d = self.dims[q]
                new_delta = x[cursor:cursor + d]
                diff = float(np.max(np.abs(new_delta - self.delta[q])))
                changed[q] = diff
                self.delta[q] = new_delta
                cursor += d

    # ------------------------------------------------------------------
    # marginals
    # ------------------------------------------------------------------

    def solve_with_rhs(self, rhs: List[np.ndarray]) -> List[np.ndarray]:
        """Solve ``H x = rhs`` using the live cached factorization.

        Does not touch the engine's state (deltas, carries); used for
        marginal covariance queries between updates.
        """
        dims = self.dims
        carry = [np.zeros(d) for d in dims]
        y_store: Dict[int, np.ndarray] = {}
        ordered = sorted(self.nodes.values(), key=lambda n: n.positions[0])
        for node in ordered:
            local = np.concatenate(
                [rhs[p] - carry[p] for p in node.positions])
            y = scipy.linalg.solve_triangular(
                node.l_a, local, lower=True, check_finite=False)
            y_store[node.sid] = y
            if node.pattern:
                spread = node.l_b @ y
                cursor = 0
                for p in node.pattern:
                    carry[p] += spread[cursor:cursor + dims[p]]
                    cursor += dims[p]
        x: List[Optional[np.ndarray]] = [None] * self.num_positions
        for node in reversed(ordered):
            local = y_store[node.sid].copy()
            if node.pattern:
                above = np.concatenate([x[p] for p in node.pattern])
                local -= node.l_b.T @ above
            sol = scipy.linalg.solve_triangular(
                node.l_a, local, lower=True, trans="T",
                check_finite=False)
            cursor = 0
            for p in node.positions:
                x[p] = sol[cursor:cursor + dims[p]]
                cursor += dims[p]
        return x

    def marginal_covariance(self, key: Key) -> np.ndarray:
        """Marginal covariance block of one variable (H^-1 diagonal
        block), from the current incremental factorization."""
        pos = self.pos_of[key]
        dim = self.dims[pos]
        cov = np.zeros((dim, dim))
        for axis in range(dim):
            rhs = [np.zeros(d) for d in self.dims]
            rhs[pos][axis] = 1.0
            column = self.solve_with_rhs(rhs)
            cov[:, axis] = column[pos]
        return 0.5 * (cov + cov.T)

    # ------------------------------------------------------------------
    # diagnostics (used by tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert internal bookkeeping consistency (O(graph) — tests only)."""
        gradient = [np.zeros(d) for d in self.dims]
        for contrib in self._lin.values():
            cursor = 0
            for p in contrib.positions:
                d = self.dims[p]
                gradient[p] += contrib.gradient[cursor:cursor + d]
                cursor += d
        for p in range(self.num_positions):
            np.testing.assert_allclose(gradient[p], self._gradient[p],
                                       atol=1e-9)
        carry = [np.zeros(d) for d in self.dims]
        for node in self.nodes.values():
            if node.v is None:
                continue
            cursor = 0
            for p in node.pattern:
                d = self.dims[p]
                carry[p] += node.v[cursor:cursor + d]
                cursor += d
        for p in range(self.num_positions):
            np.testing.assert_allclose(carry[p], self._carry[p], atol=1e-9)
        seen: Set[int] = set()
        for node in self.nodes.values():
            assert node.positions == sorted(node.positions)
            for p in node.positions:
                assert p not in seen
                seen.add(p)
                assert self.node_of[p] == node.sid
        assert seen == set(range(self.num_positions))


class SeedISAM2:
    """The "Incremental" baseline: ISAM2 with a fixed relinearization
    threshold and one Gauss-Newton step per backend iteration.

    Parameters
    ----------
    relin_threshold:
        Fluid relinearization threshold beta: variables with
        ``‖delta_j‖∞ > beta`` move their linearization point this step.
    """

    def __init__(self, relin_threshold: float = 0.1,
                 wildfire_tol: float = 1e-5, damping: float = 0.0,
                 max_supernode_vars: int = 8):
        self.relin_threshold = float(relin_threshold)
        self.engine = SeedIncrementalEngine(
            max_supernode_vars=max_supernode_vars,
            wildfire_tol=wildfire_tol, damping=damping)
        self._step = -1

    def update(self, new_values: Dict[Key, object],
               new_factors: Sequence[Factor],
               trace: OpTrace = None) -> StepReport:
        """Process one timestep of the online SLAM problem."""
        self._step += 1
        relin = [key for key, score in self.engine.delta_norms().items()
                 if score > self.relin_threshold]
        info = self.engine.update(new_values, new_factors, relin,
                                  trace=trace)
        return StepReport(
            step=self._step,
            relinearized_variables=info["relinearized_variables"],
            relinearized_factors=info["relinearized_factors"],
            affected_columns=info["affected_columns"],
            refactored_nodes=info["refactored_nodes"],
            trace=trace,
            node_parents=self.engine.node_parents(info["fresh_sids"]),
        )

    def estimate(self) -> Values:
        return self.engine.estimate()
