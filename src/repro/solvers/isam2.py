"""Incremental smoothing and mapping (ISAM2) over the elimination tree.

The engine maintains a supernodal Cholesky factorization of the Hessian
that is *partially* updated at each step (paper Section 3.4):

* New poses take the highest elimination positions (chronological
  ordering), so odometry updates only touch nodes near the root while a
  loop closure reaches a node deep in the tree.
* Each supernode caches its update matrix C and its forward-solve rhs
  spread, so refactorizing an affected node can consume unaffected
  children without recomputing them (the ISAM2 "cached factor" trick).
* Back-substitution is *wildfire*: it only descends into unaffected
  subtrees whose incoming delta changed more than a threshold.

Because factors are only ever added (no removal in ISAM2), the block
structure grows monotonically: elimination-tree parents never change once
assigned, which keeps incremental symbolic factorization simple and exact.

Ordering policy: the default ``chronological`` mode is exactly the above.
``constrained_colamd`` additionally performs *periodic incremental
re-ordering* (paper / ISAM2's recent-variables-last idiom): every
``reorder_interval`` steps, when a batch-affected region is rebuilt, the
position suffix from the first affected column upward is re-ordered with
constrained AMD — affected variables forced last, the rest minimum-degree
— and the engine's state is remapped through the permutation (BlockVector
block offsets, cached linearizations, per-node index arrays; plan-cache
entries are invalidated wholesale).  Columns *below* the first affected
position keep their fill structure as variable sets (the elimination
graph of a suffix only depends on the prefix through its column
structures), so only suffix labels move and structure-unchanged steps
still reuse every cached plan.

State layout: ``delta``, ``_gradient`` and ``_carry`` live in contiguous
:class:`~repro.state.BlockVector` storage (one flat buffer + offset
index), so the per-step bookkeeping — relevance scores, rhs assembly,
carry spreading, the wildfire dirty check — runs as vectorized array
operations over cached per-node index arrays instead of per-variable
Python loops.

Plan/execute split: the symbolic output of phases D-F is compiled into
per-supernode :class:`~repro.linalg.plan.NodePlan` objects cached across
steps (keyed by the node's stable head position, validated by a full
structural signature), and phases G/H plus the marginal solves execute
those plans through the shared
:class:`~repro.linalg.plan.StepExecutor` — a structure-unchanged
rebuild reuses every plan wholesale instead of re-deriving
``front_offsets``/``gather_indices`` per factor.
"""

from __future__ import annotations

import heapq
import time
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.factorgraph.factors import Factor
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values
from repro.instrumentation.context import StepContext
from repro.linalg.cholesky import FactorContribution
from repro.linalg.ordering import amd_order_positions
from repro.linalg.parallel import (
    LevelStats,
    ParallelStepExecutor,
    levels_from_parents,
)
from repro.linalg.plan import (
    NodePlan,
    PlanCache,
    Signature,
    compile_node_plan,
    flatten_rhs,
    fold_hash,
    plans_equal,
    reindexed_plan,
    tree_solve,
)
from repro.linalg.trace import NodeTrace
from repro.policy.selection import SelectionContext, make_selection_policy
from repro.solvers.base import SelectionPlan, StepReport
from repro.solvers.batch_linearize import (
    LinearizeRequest,
    LinearizeResult,
    linearize_many,
)
from repro.state import BlockVector
from repro.validate import current_auditor


class _Node:
    """A live supernode with its cached numeric state.

    ``plan`` is the node's compiled elimination step (see
    :mod:`repro.linalg.plan`), attached when the node is refactorized.
    ``pos_idx`` / ``pattern_idx`` / the wildfire arrays are views of the
    plan's flat scalar indices into the engine's block state (block
    offsets are append-only, hence stable); they make every
    gather/scatter over the node a single fancy-index operation.
    """

    __slots__ = ("sid", "positions", "pattern", "l_a", "l_b", "c_update",
                 "y", "v", "plan", "pos_idx", "pattern_idx", "pattern_arr",
                 "positions_arr", "pos_starts", "struct_hash")

    def __init__(self, sid: int, positions: List[int], pattern: List[int]):
        self.sid = sid
        self.positions = positions
        self.pattern = pattern
        # Lazily computed hash of (positions, pattern) — the node's
        # contribution to its parent's signature; reset to None whenever
        # either list changes after first use (see _permute_node_pattern).
        self.struct_hash: Optional[int] = None
        self.l_a: Optional[np.ndarray] = None
        self.l_b: Optional[np.ndarray] = None
        self.c_update: Optional[np.ndarray] = None
        self.y: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None
        self.plan: Optional[NodePlan] = None
        self.pos_idx: Optional[np.ndarray] = None
        self.pattern_idx: Optional[np.ndarray] = None
        self.pattern_arr: Optional[np.ndarray] = None
        self.positions_arr: Optional[np.ndarray] = None
        self.pos_starts: Optional[np.ndarray] = None


def _level_extent(levels: List[List[_Node]]) -> Tuple[float, float]:
    """(height, max width) of a tree's depth levels; zeros when empty."""
    if not levels:
        return 0.0, 0.0
    return float(len(levels) - 1), float(max(map(len, levels)))


class IncrementalEngine:
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
    ordering:
        ``"chronological"`` (default; append-only positions, bit-identical
        to the historical engine) or ``"constrained_colamd"`` (periodic
        incremental re-ordering of the affected suffix, affected-last).
    reorder_interval / reorder_min_suffix:
        Under ``constrained_colamd``: attempt a re-ordering at most every
        ``reorder_interval`` steps, and only when the affected suffix
        spans at least ``reorder_min_suffix`` positions.
    workers:
        Thread-pool size for the level-scheduled refactorize and
        back-substitution phases (see :mod:`repro.linalg.parallel`);
        results are bit-identical at every count.  ``1`` runs each
        level inline; ``None`` reads ``REPRO_WORKERS`` (default 1).
    """

    #: Engine-supported ordering modes (batch policies don't apply online).
    ORDERINGS = ("chronological", "constrained_colamd")

    def __init__(self, max_supernode_vars: int = 8, relax_fill: int = 1,
                 wildfire_tol: float = 1e-5, damping: float = 0.0,
                 ordering: str = "chronological",
                 reorder_interval: int = 25, reorder_min_suffix: int = 8,
                 workers: Optional[int] = None):
        self.max_supernode_vars = int(max_supernode_vars)
        self.relax_fill = int(relax_fill)
        self.wildfire_tol = float(wildfire_tol)
        self.damping = float(damping)
        if ordering not in self.ORDERINGS:
            raise ValueError(
                f"unknown engine ordering {ordering!r}; expected one of "
                f"{list(self.ORDERINGS)}")
        self.ordering = ordering
        self.reorder_interval = int(reorder_interval)
        self.reorder_min_suffix = int(reorder_min_suffix)
        self.reorders = 0
        self._steps_since_reorder = 0

        self.order: List[Key] = []
        self.pos_of: Dict[Key, int] = {}
        self.dims: List[int] = []
        self.theta = Values()
        self.delta = BlockVector()
        self.graph = FactorGraph()

        self._lin: Dict[int, FactorContribution] = {}
        self._a_struct: List[Set[int]] = []
        self._col_struct: List[List[int]] = []
        self._col_fill: List[int] = []
        self._fill_total = 0
        self._parent: List[int] = []
        self._children_pos: Dict[int, List[int]] = {}
        self._factors_at: Dict[int, List[int]] = {}
        # Per head position: running fold of the assembled factors'
        # (index, positions, residual_dim) hashes, maintained at
        # registration time so signature construction never walks a
        # node's factor list (O(1) in factor count on the hit path).
        self._fsig_at: Dict[int, int] = {}
        self._gradient = BlockVector()
        self._carry = BlockVector()

        self.nodes: Dict[int, _Node] = {}
        self.node_of: List[int] = []
        self._next_sid = 0

        self._plans = PlanCache()
        self._executor = ParallelStepExecutor(workers)

    @property
    def plan_cache(self) -> PlanCache:
        """The engine's step-plan cache (counters used by tests/benchmarks)."""
        return self._plans

    def set_plan_cache(self, cache: PlanCache) -> None:
        """Swap in an external (possibly shared) plan cache.

        Safe at any step boundary: plans already attached to live nodes
        stay valid (a node owns its plan outright), and every lookup is
        signature-validated, so foreign entries can never execute against
        the wrong structure.
        """
        self._plans = cache

    def set_executor(self, executor: ParallelStepExecutor) -> None:
        """Swap in an external (possibly shared) step executor."""
        self._executor = executor

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

    def delta_norm_array(self) -> np.ndarray:
        """Per-position ``‖Δ_j‖∞`` (the RA-ISAM2 relevance scores), as
        one vectorized reduction over the contiguous delta buffer."""
        return self.delta.block_abs_max()

    def delta_norms(self) -> Dict[Key, float]:
        """Max-norm of the pending update per variable (relevance scores)."""
        norms = self.delta_norm_array()
        return {key: float(norms[p]) for p, key in enumerate(self.order)}

    def update(
        self,
        new_values: Dict[Key, object],
        new_factors: Sequence[Factor],
        relin_keys: Iterable[Key] = (),
        context: Optional[StepContext] = None,
    ) -> Dict[str, object]:
        """One incremental step.

        Adds variables and factors, relinearizes ``relin_keys`` (moving
        their linearization point to the current estimate), refactorizes
        the affected part of the tree and re-solves.  Returns work counters
        plus the set of refactored supernode ids.  Phase counters and the
        op trace (``context.trace``) accumulate on ``context``; without
        one the step runs untraced.

        Written over the split-phase :class:`PendingStep` protocol (the
        serving fleet drives the same phases with its linearization and
        level scheduling fused across sessions), executing each phase
        immediately — bit-identical to the historical inline loop.
        """
        ctx = context if context is not None else StepContext()
        pending = self.update_begin(new_values, new_factors, ctx)
        request = pending.ingest_request()
        if request is not None:
            start = time.perf_counter()
            result = LinearizeResult(*linearize_many(
                request.factors, request.values, request.position_of))
            pending.apply_ingest(result, time.perf_counter() - start)
        request = pending.relin_request(relin_keys)
        if request is not None:
            start = time.perf_counter()
            result = LinearizeResult(*linearize_many(
                request.factors, request.values, request.position_of))
            pending.apply_relin(result, time.perf_counter() - start)
        pending.prepare_solve()
        pending.refactorize()
        return pending.finish()

    def update_begin(self, new_values: Dict[Key, object],
                     new_factors: Sequence[Factor],
                     context: Optional[StepContext] = None,
                     ) -> "PendingStep":
        """Open a split-phase step: add variables, register factors.

        Returns the :class:`PendingStep` whose remaining phases the
        caller must drive in protocol order (see its docstring).
        """
        ctx = context if context is not None else StepContext()
        pending = PendingStep(self, ctx)
        pending.affected |= self._add_variables(new_values)
        registered, indices = self._register_factors(new_factors)
        pending.affected |= registered
        pending.new_factors = list(new_factors)
        pending.new_indices = indices
        return pending

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
            self.delta.append_block(value.dim)
            self._a_struct.append(set())
            self._col_struct.append([])
            self._col_fill.append(value.dim * (value.dim + 1) // 2)
            self._fill_total += self._col_fill[-1]
            self._parent.append(-1)
            self._gradient.append_block(value.dim)
            self._carry.append_block(value.dim)
            self.node_of.append(-1)
            affected.add(pos)
        return affected

    def _register_factors(
            self, new_factors: Sequence[Factor],
    ) -> Tuple[Set[int], List[int]]:
        """Add factors to the graph/structure (no numerics yet)."""
        affected: Set[int] = set()
        indices: List[int] = []
        for factor in new_factors:
            index = self.graph.add(factor)
            positions = sorted(self.pos_of[k] for k in factor.keys)
            if len(positions) > 1:
                self._a_struct[positions[0]].update(positions[1:])
            self._factors_at.setdefault(positions[0], []).append(index)
            affected.update(positions)
            indices.append(index)
        return affected, indices

    def _apply_new_contributions(
            self, indices: Sequence[int],
            contributions: Sequence[FactorContribution]) -> None:
        for index, contrib in zip(indices, contributions):
            self._lin[index] = contrib
            self._apply_gradient(contrib, sign=1.0)
            head = contrib.positions[0]
            self._fsig_at[head] = fold_hash(
                self._fsig_at.get(head, 0),
                hash((index, tuple(contrib.positions),
                      contrib.residual_dim)))

    def _retract_keys(
            self, keys: Set[Key]) -> Tuple[Set[int], List[int]]:
        """Move linearization points of ``keys`` to the current estimate;
        returns the touched positions and the affected factor indices."""
        touched: Set[int] = set()
        factor_set: Set[int] = set()
        for key in keys:
            pos = self.pos_of[key]
            self.theta.update(key, self.theta.at(key).retract(
                self.delta[pos]))
            self.delta.zero_block(pos)
            touched.add(pos)
            factor_set.update(self.graph.factors_of(key))
        return touched, list(factor_set)

    def _apply_relin_contributions(
            self, indices: Sequence[int],
            contributions: Sequence[FactorContribution]) -> Set[int]:
        # The gradient updates stay interleaved per factor (-old, +new, in
        # factor order) so the float accumulation order — and thus every
        # bit of the gradient — matches the per-factor path.  Positions
        # and residual dims are unchanged by relinearization, so the
        # per-position signature fragments stay valid.
        touched: Set[int] = set()
        for index, new in zip(indices, contributions):
            old = self._lin[index]
            self._apply_gradient(old, sign=-1.0)
            self._lin[index] = new
            self._apply_gradient(new, sign=1.0)
            touched.update(new.positions)
        return touched

    def _apply_gradient(self, contrib: FactorContribution,
                        sign: float) -> None:
        self._gradient.scatter_add(
            self._gradient.indices(contrib.positions), contrib.gradient,
            sign)

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
            dj = self.dims[j]
            fill = dj * (dj + 1) // 2 + dj * sum(
                self.dims[q] for q in struct)
            self._fill_total += fill - self._col_fill[j]
            self._col_fill[j] = fill
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
    # incremental re-ordering (constrained_colamd only)
    # ------------------------------------------------------------------

    def _reorder_suffix(self, affected: Set[int]) -> Set[int]:
        """Re-order positions ``min(affected)..n-1`` with constrained AMD.

        The affected region is about to be rebuilt anyway, so this is the
        one moment a permutation costs nothing extra numerically.  Only a
        *suffix* of the position space may be permuted: by the fill-path
        theorem, a column below the suffix keeps its factor structure as
        a variable set (every fill path from it runs through lower,
        untouched positions), so prefix columns — and the cached plans of
        steps that never touch the suffix — survive with labels intact.

        The suffix's elimination graph is reconstructed exactly: factor
        cliques living entirely in the suffix, plus one clique per prefix
        column over its suffix reach (its column pattern restricted to
        the suffix — the clique its elimination induces there).  This
        step's affected positions form the constrained "last" group.
        Returns the new affected set (the whole suffix, plus prefix
        positions freed from straddling supernodes).
        """
        n = self.num_positions
        start = min(affected)
        m = n - start
        cliques: List[List[int]] = []
        for index in sorted(self._lin):
            positions = self._lin[index].positions
            if len(positions) > 1 and positions[0] >= start:
                cliques.append([p - start for p in positions])
        for j in range(start):
            reach = [q - start for q in self._col_struct[j] if q >= start]
            if len(reach) > 1:
                cliques.append(reach)
        groups = [0] * m
        for p in affected:
            groups[p - start] = 1
        local = amd_order_positions(m, cliques, groups)
        self.reorders += 1
        if local == list(range(m)):
            return affected  # already optimal; nothing to remap
        perm = np.arange(n, dtype=np.intp)
        for new_local, old_local in enumerate(local):
            perm[start + old_local] = start + new_local
        extra = self._apply_order_permutation(perm, start)
        return set(range(start, n)) | extra

    def _apply_order_permutation(self, perm: np.ndarray,
                                 start: int) -> Set[int]:
        """Remap all engine state through ``perm`` (identity below
        ``start``); returns prefix positions freed from straddling nodes.
        """
        n = self.num_positions
        old_dims = self.dims
        # (1) Tear down every node owning a suffix position while the old
        # labels/offsets are still live (the carry subtraction needs the
        # node's old pattern_idx).  A straddling node also frees prefix
        # positions, which must then be rebuilt too.
        extra: Set[int] = set()
        dead = sorted({self.node_of[p] for p in range(start, n)
                       if self.node_of[p] != -1})
        for sid in dead:
            node = self.nodes.pop(sid)
            if node.v is not None:
                self._carry.scatter_add(node.pattern_idx, node.v, -1.0)
            for p in node.positions:
                self.node_of[p] = -1
                if p < start:
                    extra.add(p)
        # (2) Permute the position-indexed state.
        inv = np.empty(n, dtype=np.intp)
        inv[perm] = np.arange(n, dtype=np.intp)
        self.order = [self.order[inv[p]] for p in range(n)]
        self.pos_of = {key: p for p, key in enumerate(self.order)}
        self.dims = [old_dims[inv[p]] for p in range(n)]
        self.delta.permute_blocks(inv)
        self._gradient.permute_blocks(inv)
        self._carry.permute_blocks(inv)
        # (3) Remap every cached linearization; factor order inside a
        # contribution may flip, which block-permutes its Hessian.
        for contrib in self._lin.values():
            self._permute_contribution(contrib, perm, old_dims)
        # (4) Rebuild factor seeding wholesale (ascending graph index, so
        # assembly order — and float accumulation — is deterministic).
        # The per-position signature fragments are refolded in the same
        # order, against the permuted factor positions.
        self._a_struct = [set() for _ in range(n)]
        self._factors_at = {}
        self._fsig_at = {}
        for index in sorted(self._lin):
            contrib = self._lin[index]
            positions = contrib.positions
            head = positions[0]
            if len(positions) > 1:
                self._a_struct[head].update(positions[1:])
            self._factors_at.setdefault(head, []).append(index)
            self._fsig_at[head] = fold_hash(
                self._fsig_at.get(head, 0),
                hash((index, tuple(positions), contrib.residual_dim)))
        # (5) Prefix column structures survive as variable sets — only
        # suffix labels move; suffix columns are recomputed from scratch
        # by _resolve_structure (their parents reset to -1 keeps the
        # monotone-growth invariant silent).  Per-column fill rides the
        # permutation (a relabeling preserves each column's dims).
        old_struct = self._col_struct
        old_fill = self._col_fill
        new_fill = [0] * n
        for p in range(n):
            new_fill[int(perm[p])] = old_fill[p]
        self._col_fill = new_fill
        new_struct: List[List[int]] = [[] for _ in range(n)]
        for j in range(start):
            new_struct[j] = sorted(int(perm[q]) for q in old_struct[j])
        self._col_struct = new_struct
        self._parent = [-1] * n
        self._children_pos = {}
        for j in range(start):
            struct = new_struct[j]
            if struct:
                self._parent[j] = struct[0]
                self._children_pos.setdefault(struct[0], []).append(j)
        # (6) Permute node ownership.
        old_node_of = self.node_of
        new_node_of = [-1] * n
        for p in range(n):
            new_node_of[int(perm[p])] = old_node_of[p]
        self.node_of = new_node_of
        # (7) Survivor nodes whose pattern reaches into the suffix keep
        # their numeric factors but need relabeled, re-sorted patterns
        # (permuting the cached L_B rows / C columns with them) and fresh
        # state indices over the moved offsets.
        for node in self.nodes.values():
            self._permute_node_pattern(node, perm, old_dims, start)
        # (8) Cached plans may hold frontal indices compiled against the
        # old labels under signatures that could collide with post-reorder
        # structures; drop them all — the next touch recompiles.
        self._plans.clear()
        return extra

    def _permute_contribution(self, contrib: FactorContribution,
                              perm: np.ndarray,
                              old_dims: Sequence[int]) -> None:
        new_positions = [int(perm[p]) for p in contrib.positions]
        if all(a < b for a, b in zip(new_positions, new_positions[1:])):
            contrib.positions = new_positions
            return
        order = sorted(range(len(new_positions)),
                       key=new_positions.__getitem__)
        bdims = [old_dims[p] for p in contrib.positions]
        starts = np.concatenate([[0], np.cumsum(bdims)]).astype(np.intp)
        scalar = np.concatenate([
            np.arange(starts[i], starts[i + 1], dtype=np.intp)
            for i in order])
        contrib.hessian = contrib.hessian[np.ix_(scalar, scalar)]
        contrib.gradient = contrib.gradient[scalar]
        contrib.positions = sorted(new_positions)

    def _permute_node_pattern(self, node: _Node, perm: np.ndarray,
                              old_dims: Sequence[int], start: int) -> None:
        if not node.pattern or node.pattern[-1] < start:
            return  # prefix-only pattern: labels and offsets both stable
        new_labels = [int(perm[q]) for q in node.pattern]
        order = sorted(range(len(new_labels)), key=new_labels.__getitem__)
        if order != list(range(len(order))):
            bdims = [old_dims[q] for q in node.pattern]
            starts = np.concatenate([[0], np.cumsum(bdims)]).astype(np.intp)
            scalar = np.concatenate([
                np.arange(starts[i], starts[i + 1], dtype=np.intp)
                for i in order])
            node.l_b = node.l_b[scalar, :]
            node.c_update = node.c_update[np.ix_(scalar, scalar)]
            if node.v is not None:
                node.v = node.v[scalar]
        node.pattern = sorted(new_labels)
        node.struct_hash = None
        node.pattern_idx = self.delta.indices(node.pattern)
        node.pattern_arr = np.asarray(node.pattern, dtype=np.intp)
        node.plan = reindexed_plan(node.plan, node.pattern_idx,
                                   node.pattern_arr)

    def tree_shape(self) -> Dict[str, float]:
        """Shape of the live supernodal tree (cheap, O(#nodes) + O(1)
        fill readout): height, max per-depth width, branch nodes, roots,
        and scalar fill nnz of L."""
        levels = self._depth_levels()
        height, max_width = _level_extent(levels)
        children: Dict[int, int] = {}
        for node in self.nodes.values():
            if node.pattern:
                parent_sid = self.node_of[node.pattern[0]]
                children[parent_sid] = children.get(parent_sid, 0) + 1
        return {
            "supernodes": float(len(self.nodes)),
            "height": height,
            "max_width": max_width,
            "branch_nodes": float(sum(1 for c in children.values() if c > 1)),
            "roots": float(len(levels[0])) if levels else 0.0,
            "fill_nnz": float(self._fill_total),
        }

    def _depth_levels(self) -> List[List[_Node]]:
        """Live supernodes bucketed by tree depth, roots first.

        Nodes are visited in descending last position — the wildfire
        sweep's order, kept within each level.  A parent's head lies
        above its child's last position, so every parent is visited
        (and has its depth) before its children.
        """
        depth: Dict[int, int] = {}
        levels: List[List[_Node]] = []
        for node in sorted(self.nodes.values(),
                           key=lambda nd: -nd.positions[-1]):
            d = (depth[self.node_of[node.pattern[0]]] + 1
                 if node.pattern else 0)
            depth[node.sid] = d
            if len(levels) <= d:
                levels.append([])
            levels[d].append(node)
        return levels

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
                self._carry.scatter_add(node.pattern_idx, node.v, -1.0)
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

    # ------------------------------------------------------------------
    # phase G: numeric refactorization (bottom-up, plan/execute)
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

    def _struct_hash(self, child: _Node) -> int:
        h = child.struct_hash
        if h is None:
            h = hash((tuple(child.positions), tuple(child.pattern)))
            child.struct_hash = h
        return h

    def _factor_ids_of(self, node: _Node) -> tuple:
        return tuple(index for p in node.positions
                     for index in self._factors_at.get(p, ()))

    def _signature_parts(self, node: _Node, children: List[_Node]) -> tuple:
        """Full structural tuple (audit payload; never on the hot path)."""
        lin = self._lin
        return (tuple(node.positions), tuple(node.pattern),
                tuple((index, tuple(lin[index].positions),
                       lin[index].residual_dim)
                      for index in self._factor_ids_of(node)),
                tuple((tuple(c.positions), tuple(c.pattern))
                      for c in children))

    def _plan_for(self, node: _Node, children: List[_Node],
                  aud) -> NodePlan:
        """Resolve the node's compiled step: cache hit or recompile.

        The cache key is the node's head position (stable across
        teardown/rebuild); the signature covers everything the plan's
        indices depend on — factor set (with per-factor positions and
        residual dims, so cross-engine sharing is sound), pattern, child
        partition — so any structural change misses and recompiles.

        The probe signature is built from *precomputed fragments*: the
        per-head-position factor folds (``_fsig_at``, maintained at
        contribution-apply time) and each child's lazily cached
        ``struct_hash``.  It never walks a factor list, so the hit path
        is O(positions + children), independent of factor count; the
        full structural tuple is only materialized under the auditor
        (hash value is identical either way).
        """
        key = node.positions[0]
        sig_hash = fold_hash(
            0, hash((tuple(node.positions), tuple(node.pattern))))
        for p in node.positions:
            sig_hash = fold_hash(sig_hash, self._fsig_at.get(p, 0))
        for child in children:
            sig_hash = fold_hash(sig_hash, self._struct_hash(child))
        parts = (self._signature_parts(node, children)
                 if aud is not None else None)
        signature = Signature(sig_hash, parts)
        plan = self._plans.lookup(key, signature)
        if plan is None:
            plan = self._compile_plan(node, self._factor_ids_of(node),
                                      children, signature)
            self._plans.store(key, plan)
        elif aud is not None:
            fresh_plan = self._compile_plan(
                node, self._factor_ids_of(node), children, signature)
            aud.check(plans_equal(plan, fresh_plan), "plan-consistency",
                      "cached step-plan must equal a fresh recompile",
                      sid=node.sid, head=key)
        return plan

    def _compile_plan(self, node: _Node, factor_ids: tuple,
                      children: List[_Node], signature) -> NodePlan:
        lin = self._lin
        return compile_node_plan(
            node.positions, node.pattern, self.dims, self.delta.offsets,
            [(index, lin[index].positions, lin[index].residual_dim)
             for index in factor_ids],
            [c.pattern for c in children], signature)

    def refactorize_begin(self, fresh: List[int],
                          ctx: StepContext) -> "PreparedRefactorize":
        """Resolve plans for the fresh nodes; external level scheduling.

        The serving fleet merges the returned levels across sessions
        into shared :meth:`~repro.linalg.parallel.ParallelStepExecutor.
        run_level` calls (fair-share: every session's level-k fronts
        ride one dispatch); :meth:`PreparedRefactorize.run` is the
        single-session driver.
        """
        return PreparedRefactorize(self, fresh, ctx)

    def _refactorize(self, fresh: List[int], ctx: StepContext) -> None:
        prep = self.refactorize_begin(fresh, ctx)
        prep.run(self._executor)
        prep.finish()

    # ------------------------------------------------------------------
    # phase H: wildfire back-substitution (top-down)
    # ------------------------------------------------------------------

    def _back_substitute(self, fresh: List[int],
                         ctx: StepContext) -> List[List[_Node]]:
        """Wildfire back-substitution, one depth level at a time.

        The top-down solve is exact under level scheduling: a node reads
        ``delta``/``changed`` only at its pattern positions (owned by
        strict ancestors, finished in earlier levels) and writes only its
        own positions (disjoint within a level), with no cross-node float
        accumulation anywhere.  The wildfire dirty test runs on the main
        thread at each level boundary; a level with no dirty node
        dispatches nothing.

        Trace fidelity: backsolve ops are recorded into detached
        :class:`NodeTrace` objects and adopted at the end in descending
        last-position order — the order of a top-down position scan,
        which level-major order does *not* preserve (a deeper node in
        one subtree can sit above a shallower node in another).

        Returns the depth levels it swept, from which the step's
        tree-shape extras are read.
        """
        fresh_set = set(fresh)
        changed = np.zeros(self.num_positions)
        delta_data = self.delta.data
        executor = self._executor
        tracing = ctx.trace is not None
        levels = self._depth_levels()
        processed: List[Tuple[_Node, Optional[NodeTrace]]] = []
        stats = LevelStats()
        for level in levels:
            tasks = []
            for node in level:
                dirty = node.sid in fresh_set
                if not dirty and node.pattern:
                    dirty = bool(np.any(changed[node.pattern_arr]
                                        > self.wildfire_tol))
                if not dirty:
                    continue
                ctx.backsub += 1
                node_trace = NodeTrace(node.sid) if tracing else None
                processed.append((node, node_trace))
                tasks.append(lambda nd=node, nt=node_trace:
                             self._backsolve_task(nd, nt, changed,
                                                  delta_data))
            if tasks:
                executor.run_level(tasks, stats)
        if tracing:
            processed.sort(key=lambda item: -item[0].positions[-1])
            for _, node_trace in processed:
                ctx.trace.adopt(node_trace)
        ctx.add_level_stats(stats)
        return levels

    def _backsolve_task(self, node: _Node,
                        node_trace: Optional[NodeTrace],
                        changed: np.ndarray,
                        delta_data: np.ndarray) -> None:
        above = delta_data[node.pattern_idx] if node.pattern else None
        x = self._executor.backsolve_node(
            node.l_a, node.l_b, node.y, above, node_trace)
        if x.size:
            diffs = np.abs(x - delta_data[node.pos_idx])
            changed[node.positions_arr] = np.maximum.reduceat(
                diffs, node.pos_starts)
            delta_data[node.pos_idx] = x

    # ------------------------------------------------------------------
    # marginals
    # ------------------------------------------------------------------

    def solve_with_rhs(self, rhs: List[np.ndarray]) -> List[np.ndarray]:
        """Solve ``H x = rhs`` using the live cached factorization.

        ``rhs`` holds one vector per elimination position; raises
        ``ValueError`` when a block is missing, extra or of the wrong
        size.  Does not touch the engine's state (deltas, carries); used
        for marginal covariance queries between updates.
        """
        offsets = self.delta.offsets
        flat = flatten_rhs(rhs, self.dims)
        ordered = sorted(self.nodes.values(), key=lambda n: n.positions[0])
        entries = [(node.sid, node.l_a, node.l_b, node.pos_idx,
                    node.pattern_idx if node.pattern else None)
                   for node in ordered]
        x = tree_solve(entries, flat, self.delta.total_dim)
        return [x[offsets[p]:offsets[p + 1]]
                for p in range(self.num_positions)]

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
        fill = 0
        for j in range(self.num_positions):
            dj = self.dims[j]
            below = sum(self.dims[q] for q in self._col_struct[j])
            fill += dj * (dj + 1) // 2 + below * dj
        assert fill == self._fill_total
        for head, indices in self._factors_at.items():
            expect = 0
            for index in indices:
                if index not in self._lin:
                    continue  # registered but never linearized (dead step)
                contrib = self._lin[index]
                expect = fold_hash(
                    expect, hash((index, tuple(contrib.positions),
                                  contrib.residual_dim)))
            assert self._fsig_at.get(head, 0) == expect, (
                f"stale signature fragment at head {head}")
        seen: Set[int] = set()
        for node in self.nodes.values():
            assert node.positions == sorted(node.positions)
            assert node.plan is not None
            assert node.pos_idx is node.plan.pos_idx
            np.testing.assert_array_equal(
                node.pos_idx, self.delta.indices(node.positions))
            np.testing.assert_array_equal(
                node.pattern_idx, self.delta.indices(node.pattern))
            for p in node.positions:
                assert p not in seen
                seen.add(p)
                assert self.node_of[p] == node.sid
        assert seen == set(range(self.num_positions))


class PendingStep:
    """One engine step split into externally drivable phases.

    The serving fleet opens a ``PendingStep`` per session, then drives
    every session's phases in lockstep so the expensive middles can be
    *fused across sessions*: linearization requests are batched through
    one cross-session SoA kernel call, and refactorization levels are
    merged into shared ``run_level`` dispatches.  :meth:`IncrementalEngine
    .update` drives the identical protocol inline.  Under both drivers
    the session solver's ``begin_step`` picks the relinearization keys
    before the step opens and its ``end_step`` builds the report after
    :meth:`finish`, so solo and fleet execution share every line of
    selection, phase and report code — bit-identity between them is by
    construction, not by parallel maintenance.

    Protocol order (a phase must not be skipped, only its request may be
    None):

    1. ``ingest_request()`` -> optional :class:`LinearizeRequest` for the
       step's new factors; feed the :class:`LinearizeResult` to
       ``apply_ingest``.
    2. ``relin_request(keys)`` -> optional request for the relinearized
       factors (also performs the retractions); ``apply_relin``.
    3. ``prepare_solve()`` — reorder decision, incremental symbolic
       resolve, supernode rebuild.
    4. ``refactorize()`` (single-session: ``refactorize_begin``,
       ``PreparedRefactorize.run``, ``finish``) *or*
       ``refactorize_begin()`` plus external level scheduling and
       ``PreparedRefactorize.finish`` (fleet).
    5. ``finish()`` — wildfire back-substitution, step counters; returns
       the engine's info dict.
    """

    __slots__ = ("engine", "ctx", "affected", "new_factors", "new_indices",
                 "relin_key_count", "relin_indices", "sym_affected",
                 "fresh")

    def __init__(self, engine: IncrementalEngine, ctx: StepContext):
        self.engine = engine
        self.ctx = ctx
        self.affected: Set[int] = set()
        self.new_factors: List[Factor] = []
        self.new_indices: List[int] = []
        self.relin_key_count = 0
        self.relin_indices: List[int] = []
        self.sym_affected: Set[int] = set()
        self.fresh: List[int] = []

    def ingest_request(self) -> Optional[LinearizeRequest]:
        if not self.new_indices:
            return None
        engine = self.engine
        return LinearizeRequest(self.new_factors, engine.theta,
                                engine.pos_of)

    def apply_ingest(self, result: LinearizeResult,
                     seconds: float = 0.0) -> None:
        ctx = self.ctx
        ctx.lin_seconds += seconds
        ctx.lin_batched += result.n_batched
        ctx.lin_fallback += result.n_fallback
        self.engine._apply_new_contributions(self.new_indices,
                                             result.contributions)

    def relin_request(self, relin_keys: Iterable[Key],
                      ) -> Optional[LinearizeRequest]:
        engine = self.engine
        keys = set(relin_keys)
        self.relin_key_count = len(keys)
        touched, indices = engine._retract_keys(keys)
        self.affected |= touched
        self.relin_indices = indices
        if not indices:
            return None
        return LinearizeRequest(
            [engine.graph.factor(i) for i in indices], engine.theta,
            engine.pos_of)

    def apply_relin(self, result: LinearizeResult,
                    seconds: float = 0.0) -> None:
        ctx = self.ctx
        ctx.lin_seconds += seconds
        ctx.lin_batched += result.n_batched
        ctx.lin_fallback += result.n_fallback
        self.affected |= self.engine._apply_relin_contributions(
            self.relin_indices, result.contributions)

    def prepare_solve(self) -> None:
        engine = self.engine
        engine._steps_since_reorder += 1
        affected = self.affected
        if (engine.ordering == "constrained_colamd" and affected
                and engine._steps_since_reorder >= engine.reorder_interval
                and engine.num_positions - min(affected)
                >= engine.reorder_min_suffix):
            affected = engine._reorder_suffix(affected)
            engine._steps_since_reorder = 0
        self.sym_affected = engine._resolve_structure(affected)
        self.fresh = engine._rebuild_supernodes(self.sym_affected)

    def refactorize(self) -> None:
        self.engine._refactorize(self.fresh, self.ctx)

    def refactorize_begin(self) -> "PreparedRefactorize":
        return self.engine.refactorize_begin(self.fresh, self.ctx)

    def finish(self) -> Dict[str, object]:
        engine = self.engine
        ctx = self.ctx
        levels = engine._back_substitute(self.fresh, ctx)
        ctx.relin_variables += self.relin_key_count
        ctx.relin_factors += len(self.relin_indices)
        ctx.symbolic += len(self.sym_affected)
        ctx.numeric += len(self.fresh)
        height, max_width = _level_extent(levels)
        ctx.extras["tree_height"] = height
        ctx.extras["tree_max_width"] = max_width
        ctx.extras["tree_fill_nnz"] = float(engine._fill_total)
        return {
            "relinearized_variables": self.relin_key_count,
            "relinearized_factors": len(self.relin_indices),
            "affected_columns": len(self.sym_affected),
            "refactored_nodes": len(self.fresh),
            "fresh_sids": self.fresh,
        }


class PreparedRefactorize:
    """Plan-resolved refactorization, dispatched one level at a time.

    This is the engine's only refactorize path, at every worker count.
    Construction runs on the main thread: plan resolution, index
    attachment and trace-node creation in head order, so plan-cache
    traffic, auditor recompiles and trace insertion order never depend
    on how the levels are dispatched.  The numeric bulk is then exposed
    as dependency levels whose tasks a caller dispatches through any
    :meth:`~repro.linalg.parallel.ParallelStepExecutor.run_level` —
    the engine's own driver is :meth:`run`; the serving fleet instead
    merges every session's level-k tasks into one shared dispatch.
    :meth:`finish` performs the forward sweep and carry scatter on the
    main thread (cross-subtree float accumulations that must stay in
    head order).

    Plan-cache counter deltas are attributed *inside construction*: in
    a fleet, many sessions interleave lookups against one shared cache
    between begin and finish, so finish-time deltas would misattribute.
    """

    __slots__ = ("engine", "ctx", "fresh_nodes", "children_of", "traces",
                 "levels", "stats")

    def __init__(self, engine: IncrementalEngine, fresh: List[int],
                 ctx: StepContext):
        start = time.perf_counter()
        self.engine = engine
        self.ctx = ctx
        cache = engine._plans
        hits0, misses0, compiles0 = cache.counters()
        aud = current_auditor()
        self.fresh_nodes = sorted((engine.nodes[sid] for sid in fresh),
                                  key=lambda n: n.positions[0])
        self.children_of: Dict[int, List[_Node]] = {}
        self.traces: Dict[int, Optional[NodeTrace]] = {}
        for node in self.fresh_nodes:
            children = engine._children_nodes(node)
            self.children_of[node.sid] = children
            plan = engine._plan_for(node, children, aud)
            node.plan = plan
            node.pos_idx = plan.pos_idx
            node.pattern_idx = plan.pattern_idx
            node.pattern_arr = plan.pattern_arr
            node.positions_arr = plan.positions_arr
            node.pos_starts = plan.pos_starts
            self.traces[node.sid] = ctx.node(
                node.sid, cols=plan.m,
                rows_below=plan.front_size - plan.m)
        parents = {
            node.sid: (engine.node_of[node.pattern[0]] if node.pattern
                       else None)
            for node in self.fresh_nodes}
        self.levels = levels_from_parents(
            [n.sid for n in self.fresh_nodes], parents)
        self.stats = LevelStats()
        ctx.plan_hits += cache.hits - hits0
        ctx.plan_misses += cache.misses - misses0
        ctx.plan_compiles += cache.compiles - compiles0
        ctx.refactor_seconds += time.perf_counter() - start

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level_tasks(self, k: int) -> List[Tuple[Callable, float]]:
        """``(task, priority)`` pairs for dependency level ``k``.

        Inputs (factor Hessians, children's ``C_update``) are gathered
        here, on the caller's thread, in plan assembly order — never in
        completion order.  Priority is the front's factorization cost
        proxy ``m * front_size^2`` (largest front first).
        """
        engine = self.engine
        executor = engine._executor
        lin = engine._lin
        damping = engine.damping
        out: List[Tuple[Callable, float]] = []
        for sid in self.levels[k]:
            node = engine.nodes[sid]
            plan = node.plan
            hessians = [lin[index].hessian for index in plan.factor_ids]
            child_updates = [child.c_update
                             for child in self.children_of[sid]]
            out.append((
                lambda p=plan, h=hessians, c=child_updates,
                t=self.traces[sid]:
                executor.factorize_node(p, h, c, damping, t),
                float(plan.m) * plan.front_size * plan.front_size))
        return out

    def apply_level(self, k: int, results: Sequence[Tuple]) -> None:
        for sid, (l_a, l_b, c_update) in zip(self.levels[k], results):
            node = self.engine.nodes[sid]
            node.l_a = l_a
            node.l_b = l_b
            node.c_update = c_update

    def run(self, executor: ParallelStepExecutor) -> None:
        """Single-session driver: dispatch each level, then barrier."""
        start = time.perf_counter()
        for k in range(len(self.levels)):
            pairs = self.level_tasks(k)
            results = executor.run_level(
                [task for task, _ in pairs], self.stats,
                [priority for _, priority in pairs])
            self.apply_level(k, results)
        self.ctx.refactor_seconds += time.perf_counter() - start

    def finish(self) -> None:
        """Forward sweep + carry scatter on the main thread, in head
        order."""
        start = time.perf_counter()
        engine = self.engine
        executor = engine._executor
        for node in self.fresh_nodes:
            plan = node.plan
            rhs = (engine._gradient.gather(plan.pos_idx)
                   - engine._carry.gather(plan.pos_idx))
            node.y, node.v = executor.forward_update(
                plan, node.l_a, node.l_b, rhs, self.traces[node.sid])
            if node.v is not None:
                engine._carry.scatter_add(plan.pattern_idx, node.v, 1.0)
        self.ctx.add_level_stats(self.stats)
        self.ctx.refactor_seconds += time.perf_counter() - start


class ISAM2:
    """The "Incremental" baseline: ISAM2 with a fixed relinearization
    threshold and one Gauss-Newton step per backend iteration.

    Parameters
    ----------
    relin_threshold:
        Fluid relinearization threshold beta: variables with
        ``‖delta_j‖∞ > beta`` move their linearization point this step.
    selection_policy / selection_seed:
        Registered :class:`~repro.policy.selection.SelectionPolicy`
        name or instance.  Plain ISAM2 is unbudgeted, so the policy
        never changes a full-scale step — :meth:`begin_step` consults
        it (rank-only) to pick *which* flagged variables a degraded
        step keeps when overload shedding (``budget_scale < 1``) cuts
        the candidate list.
    ordering / reorder_interval:
        Engine ordering mode (``chronological`` or
        ``constrained_colamd``) and re-ordering cadence; see
        :class:`IncrementalEngine`.
    """

    def __init__(self, relin_threshold: float = 0.1,
                 wildfire_tol: float = 1e-5, damping: float = 0.0,
                 max_supernode_vars: int = 8,
                 selection_policy="relevance",
                 selection_seed: int = 0,
                 ordering: str = "chronological",
                 reorder_interval: int = 25,
                 workers: Optional[int] = None):
        self.relin_threshold = float(relin_threshold)
        self.selection_policy = make_selection_policy(
            selection_policy, seed=selection_seed)
        self.engine = IncrementalEngine(
            max_supernode_vars=max_supernode_vars,
            wildfire_tol=wildfire_tol, damping=damping,
            ordering=ordering, reorder_interval=reorder_interval,
            workers=workers)
        self._step = -1

    def begin_step(self, new_factors: Sequence[Factor],
                   budget_scale: float = 1.0) -> SelectionPlan:
        """Advance the step counter; pick the relinearization set.

        Every variable with ``‖delta_j‖∞ > relin_threshold`` is
        selected.  Below ``budget_scale`` 1 (the serving fleet's
        overload shedding) only the top ``ceil(scale * k)`` of the
        ``k`` flagged variables stay, in the selection policy's rank
        order over the relevance-ordered candidates, re-sorted to
        position order so the retraction and gradient float
        accumulation run in the unscaled order; the rest are shed.
        """
        self._step += 1
        engine = self.engine
        norms = engine.delta_norm_array()
        order = engine.order
        flagged = np.flatnonzero(norms > self.relin_threshold)
        if budget_scale >= 1.0 or not flagged.size:
            return SelectionPlan([order[p] for p in flagged])
        keep = int(np.ceil(budget_scale * flagged.size))
        ranked = sorted((int(p) for p in flagged),
                        key=lambda p: (-norms[p], p))
        kept = self.selection_policy.rank(SelectionContext(
            engine=engine,
            candidates=[(float(norms[p]), order[p]) for p in ranked]))
        positions = sorted(engine.pos_of[key] for _, key in kept[:keep])
        return SelectionPlan([order[p] for p in positions],
                             shed=int(flagged.size) - keep)

    def end_step(self, ctx: StepContext, info: Dict[str, object],
                 plan: SelectionPlan) -> StepReport:
        """Build the step's report from the engine's ``info``."""
        return ctx.build_report(
            self._step,
            node_parents=self.engine.node_parents(info["fresh_sids"]),
            selection_visits=plan.visits,
            deferred_variables=plan.deferred)

    def update(self, new_values: Dict[Key, object],
               new_factors: Sequence[Factor],
               context: Optional[StepContext] = None) -> StepReport:
        """Process one timestep of the online SLAM problem."""
        ctx = context if context is not None else StepContext()
        plan = self.begin_step(new_factors)
        info = self.engine.update(new_values, new_factors, plan.selected,
                                  context=ctx)
        return self.end_step(ctx, info, plan)

    def estimate(self) -> Values:
        return self.engine.estimate()
