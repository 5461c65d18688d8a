"""Batch supernodal multifrontal Cholesky solver.

Solves the normal equations ``H delta = g`` for one Gauss-Newton step,
where H is assembled supernode-by-supernode from per-factor Hessian
contributions (paper Fig. 5 top) and factorized bottom-up over the
elimination tree.  Emits an :class:`~repro.linalg.trace.OpTrace` mirroring
every numeric and memory operation for the hardware simulator.

Assembly and the triangular sweeps run through the shared plan/execute
layer (:mod:`repro.linalg.plan`): each supernode's step is compiled once
into a :class:`~repro.linalg.plan.NodePlan` (lazily, at the first
``factorize`` that sees its factor assignment) and cached, so repeated
factorizations over the same structure — e.g. successive Gauss-Newton
iterations — skip the symbolic work entirely.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.linalg.frontal import gather_indices
from repro.linalg.parallel import (
    LevelStats,
    ParallelStepExecutor,
    levels_from_parents,
)
from repro.linalg.plan import (
    PlanCache,
    compile_node_plan,
    flatten_rhs,
    node_signature,
    record_node_ops,
    tree_solve,
)
from repro.linalg.symbolic import SymbolicFactorization
from repro.linalg.trace import OpTrace
from repro.validate import current_auditor


class FactorContribution:
    """Dense Hessian contribution of one linearized factor.

    ``positions`` are the elimination positions of the factor's variables
    (ascending), ``hessian``/``gradient`` are J^T J and J^T b over those
    variables, and ``residual_dim`` is kept for trace bookkeeping.
    """

    __slots__ = ("positions", "hessian", "gradient", "residual_dim")

    def __init__(self, positions: Sequence[int], hessian: np.ndarray,
                 gradient: np.ndarray, residual_dim: int):
        self.positions = list(positions)
        self.hessian = hessian
        self.gradient = gradient
        self.residual_dim = int(residual_dim)


def contribution_from_blocks(
    position_of: Dict, blocks: Dict, rhs: np.ndarray,
) -> FactorContribution:
    """Build a :class:`FactorContribution` from ``Factor.linearize`` output."""
    ordered = sorted(blocks.keys(), key=lambda key: position_of[key])
    if len(ordered) == 1:
        # Single-variable factors need no hstack copy.
        block = blocks[ordered[0]]
        return FactorContribution(
            [position_of[ordered[0]]], block.T @ block, block.T @ rhs,
            residual_dim=len(rhs))
    stacked = np.hstack([blocks[key] for key in ordered])
    hessian = stacked.T @ stacked
    gradient = stacked.T @ rhs
    return FactorContribution(
        [position_of[key] for key in ordered], hessian, gradient,
        residual_dim=len(rhs))


class MultifrontalCholesky:
    """Factorize and solve over a fixed symbolic structure.

    Parameters
    ----------
    symbolic:
        The symbolic analysis (structure, supernodes, tree).
    damping:
        Optional Levenberg-style diagonal damping added to H.
    workers:
        Thread-pool size for the level-scheduled factorize (see
        :mod:`repro.linalg.parallel`); results are bit-identical at
        every count.  ``1`` runs each level inline; ``None`` reads
        ``REPRO_WORKERS`` (default 1).
    """

    def __init__(self, symbolic: SymbolicFactorization, damping: float = 0.0,
                 plan_cache: Optional[PlanCache] = None,
                 workers: Optional[int] = None):
        self.symbolic = symbolic
        self.damping = float(damping)
        dims = symbolic.dims
        self._l_a: List[Optional[np.ndarray]] = [None] * len(
            symbolic.supernodes)
        self._l_b: List[Optional[np.ndarray]] = [None] * len(
            symbolic.supernodes)
        # Contiguous block-state layout: one flat buffer per vector with
        # per-node scalar-index caches (see repro.state.BlockVector).
        self._scalar_off = np.concatenate(
            [[0], np.cumsum(dims)]).astype(np.intp)
        self._total = int(self._scalar_off[-1])
        self._own_idx: List[np.ndarray] = []
        self._row_idx: List[np.ndarray] = []
        # Structural signature parts are fixed by the symbolic analysis;
        # only the per-call factor assignment varies (see factorize).
        self._struct_sig: List[tuple] = []
        for node in symbolic.supernodes:
            self._own_idx.append(self._flat_indices(node.positions))
            self._row_idx.append(self._flat_indices(node.row_pattern))
            child_sig = tuple(
                (tuple(symbolic.supernodes[c].positions),
                 tuple(symbolic.supernodes[c].row_pattern))
                for c in node.children)
            self._struct_sig.append(
                (tuple(node.positions), tuple(node.row_pattern), child_sig))
        self._gradient = np.zeros(self._total)
        # Plans compile lazily at the first factorize; sharing a cache
        # across solver instances (same symbolic) shares the compiles.
        self._plans = plan_cache if plan_cache is not None else PlanCache()
        self._executor = ParallelStepExecutor(workers)
        self._levels = levels_from_parents(
            symbolic.node_order(),
            {sid: (node.parent if node.parent != -1 else None)
             for sid, node in enumerate(symbolic.supernodes)})
        #: Pool-dispatch statistics accumulated across factorizations
        #: (see :class:`repro.linalg.parallel.LevelStats`).
        self.level_stats = LevelStats()

    @property
    def plan_cache(self) -> PlanCache:
        """The solver's step-plan cache (counters for instrumentation)."""
        return self._plans

    @property
    def plan_counters(self) -> Tuple[int, int, int]:
        """(hits, misses, compiles) of the step-plan cache."""
        return self._plans.counters()

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
        """Assemble and factorize all supernodes bottom-up.

        Plan resolution runs on the main thread in supernode order, so
        plan-cache traffic is the same at every worker count.  Each
        dependency level's ``factorize_node`` calls — their child
        updates gathered in the node's child order — then go through one
        :meth:`~repro.linalg.parallel.ParallelStepExecutor.run_level`.
        After the last level barrier the nodes' ops are recorded on the
        main thread, in supernode order.
        """
        symbolic = self.symbolic
        node_factors: Dict[int, List[int]] = {}
        for ci, contrib in enumerate(contributions):
            sid = symbolic.node_of[contrib.positions[0]]
            node_factors.setdefault(sid, []).append(ci)

        self._gradient[:] = 0.0
        for contrib in contributions:
            np.add.at(self._gradient,
                      self._flat_indices(contrib.positions),
                      contrib.gradient)

        aud = current_auditor()
        executor = self._executor
        plans = [self._plan_for(sid, node, node_factors.get(sid, ()),
                                contributions, aud)
                 for sid, node in enumerate(symbolic.supernodes)]
        updates: Dict[int, np.ndarray] = {}
        for level in self._levels:
            tasks = []
            priorities = []
            for sid in level:
                plan = plans[sid]
                hessians = [contributions[ci].hessian
                            for ci in node_factors.get(sid, ())]
                children = symbolic.supernodes[sid].children
                child_updates = [updates.pop(child) for child in children]
                tasks.append(
                    lambda p=plan, h=hessians, c=child_updates:
                    executor.factorize_node(p, h, c, self.damping))
                # Largest front first: the level's straggler starts
                # earliest (m * front^2 ~ the partial-factorize flops).
                priorities.append(
                    float(plan.m) * plan.front_size * plan.front_size)
            results = executor.run_level(tasks, self.level_stats,
                                         priorities)
            for sid, (l_a, l_b, c_update) in zip(level, results):
                self._l_a[sid] = l_a
                self._l_b[sid] = l_b
                if symbolic.supernodes[sid].parent != -1:
                    updates[sid] = c_update
        if trace is not None:
            for sid, plan in enumerate(plans):
                record_node_ops(
                    trace.node(sid, cols=plan.m,
                               rows_below=plan.front_size - plan.m),
                    plan.m, plan.front_size, plan.factor_trace,
                    plan.child_sizes)

    def _plan_for(self, sid: int, node, assigned: Sequence[int],
                  contributions: Sequence[FactorContribution], aud):
        """Resolve the supernode's compiled step: cache hit or recompile.

        Keys are supernode ids (stable for a fixed symbolic analysis);
        the factor part of the signature pins each assigned
        contribution's index, positions and residual dim so a changed
        factor set recompiles.
        """
        pos_sig, pattern_sig, child_sig = self._struct_sig[sid]
        factor_sig = tuple(
            (ci, tuple(contributions[ci].positions),
             contributions[ci].residual_dim)
            for ci in assigned)
        signature = node_signature(pos_sig, pattern_sig, factor_sig,
                                   child_sig)
        return self._plans.resolve(
            sid, signature,
            lambda: self._compile_plan(node, assigned, contributions,
                                       signature),
            aud, sid=sid)

    def _compile_plan(self, node, assigned: Sequence[int],
                      contributions: Sequence[FactorContribution],
                      signature):
        symbolic = self.symbolic
        return compile_node_plan(
            node.positions, node.row_pattern, symbolic.dims,
            self._scalar_off,
            [(ci, contributions[ci].positions,
              contributions[ci].residual_dim) for ci in assigned],
            [symbolic.supernodes[c].row_pattern for c in node.children],
            signature)

    def solve(self, trace: Optional[OpTrace] = None) -> List[np.ndarray]:
        """Solve ``H delta = g`` for the assembled gradient."""
        return self._solve_flat(self._gradient, trace)

    def solve_vector(self, rhs_blocks: Sequence[np.ndarray],
                     trace: Optional[OpTrace] = None) -> List[np.ndarray]:
        """Two triangular solves (Ly = b, L^T x = y) over the tree.

        ``rhs_blocks`` holds one vector per elimination position; returns
        the solution in the same layout.  Requires a prior
        :meth:`factorize`.  Raises ``ValueError`` when a block is
        missing, extra or of the wrong size.
        """
        return self._solve_flat(
            flatten_rhs(rhs_blocks, self.symbolic.dims), trace)

    def _solve_flat(self, rhs_flat: np.ndarray,
                    trace: Optional[OpTrace] = None) -> List[np.ndarray]:
        symbolic = self.symbolic
        off = self._scalar_off
        entries = [
            (sid, self._l_a[sid], self._l_b[sid], self._own_idx[sid],
             self._row_idx[sid]
             if symbolic.supernodes[sid].row_pattern else None)
            for sid in symbolic.node_order()]
        x_flat = tree_solve(entries, rhs_flat, self._total, trace)
        return [x_flat[off[p]:off[p + 1]] for p in range(symbolic.n)]

    def dense_l(self) -> np.ndarray:
        """Reconstruct the full dense Cholesky factor (tests only)."""
        dims = self.symbolic.dims
        scalar_offset = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        total = int(scalar_offset[-1])
        full = np.zeros((total, total))
        for sid, node in enumerate(self.symbolic.supernodes):
            own_idx = gather_indices(
                node.positions, dims,
                {p: scalar_offset[p] for p in node.positions})
            full[np.ix_(own_idx, own_idx)] = self._l_a[sid]
            if node.row_pattern:
                row_idx = gather_indices(
                    node.row_pattern, dims,
                    {p: scalar_offset[p] for p in node.row_pattern})
                full[np.ix_(row_idx, own_idx)] = self._l_b[sid]
        return full
