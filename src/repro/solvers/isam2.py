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
The engine keeps one :class:`~repro.linalg.symbolic.ColumnStructure` and
resolves, amalgamates and summarizes it with the batch analysis's code.

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

:meth:`IncrementalEngine.update` returns the step's
:class:`~repro.instrumentation.StepContext`, its one record, and
:class:`IncrementalSolver` is the one solver shell over the engine.
"""

from __future__ import annotations

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
    record_node_ops,
    reindexed_plan,
    tree_solve,
)
from repro.linalg.symbolic import ColumnStructure, depth_levels, tree_shape
from repro.linalg.trace import OpKind
from repro.policy.selection import (
    SelectionContext,
    SelectionPlan,
    make_selection_policy,
)
from repro.solvers.base import StepReport
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
        self.structure = ColumnStructure()
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

    def parent_sid(self, node: _Node) -> Optional[int]:
        """Elimination-tree parent of ``node``: the supernode owning its
        first pattern position, or None for a root."""
        return self.node_of[node.pattern[0]] if node.pattern else None

    def node_parents(self, sids) -> Dict[int, Optional[int]]:
        """Parent links among the given supernodes (for the scheduler)."""
        sid_set = set(sids)
        out: Dict[int, Optional[int]] = {}
        for sid in sids:
            parent = self.parent_sid(self.nodes[sid])
            out[sid] = parent if parent in sid_set else None
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
    ) -> StepContext:
        """One incremental step.

        Adds variables and factors, relinearizes ``relin_keys`` (moving
        their linearization point to the current estimate), refactorizes
        the affected part of the tree and re-solves.  Phase counters,
        the refactorized nodes' parent links and the op trace
        (``context.trace``) accumulate on ``context``, which is
        returned; without one the step runs untraced on a fresh context.

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
            self.structure.add_column(value.dim)
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
            self.structure.add_clique(positions)
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
            reach = [q - start for q in self.structure.col_struct[j]
                     if q >= start]
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
        # (4) Relabel the column structure, then re-seed every clique
        # wholesale (ascending graph index, so assembly order — and
        # float accumulation — is deterministic).  The per-position
        # signature fragments are refolded in the same order, against
        # the permuted factor positions.
        self.structure.relabel(perm, start)
        self._factors_at = {}
        self._fsig_at = {}
        for index in sorted(self._lin):
            contrib = self._lin[index]
            positions = contrib.positions
            head = positions[0]
            self.structure.add_clique(positions)
            self._factors_at.setdefault(head, []).append(index)
            self._fsig_at[head] = fold_hash(
                self._fsig_at.get(head, 0),
                hash((index, tuple(positions), contrib.residual_dim)))
        # (5) Permute node ownership.
        old_node_of = self.node_of
        new_node_of = [-1] * n
        for p in range(n):
            new_node_of[int(perm[p])] = old_node_of[p]
        self.node_of = new_node_of
        # (6) Survivor nodes whose pattern reaches into the suffix keep
        # their numeric factors but need relabeled, re-sorted patterns
        # (permuting the cached L_B rows / C columns with them) and fresh
        # state indices over the moved offsets.
        for node in self.nodes.values():
            self._permute_node_pattern(node, perm, old_dims, start)
        # (7) Cached plans may hold frontal indices compiled against the
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
        """:func:`~repro.linalg.symbolic.tree_shape` of the live
        supernodal tree (O(#nodes); fill is kept up to date)."""
        return tree_shape(self._depth_levels(), self.parent_sid,
                          self.structure.fill_nnz)

    def _depth_levels(self) -> List[List[_Node]]:
        """Live supernodes bucketed by tree depth, roots first.

        Nodes are visited in descending last position — the wildfire
        sweep's order, kept within each level.  A parent's head lies
        above its child's last position, so every parent is visited
        (and has its depth) before its children.
        """
        return depth_levels(sorted(self.nodes.values(),
                                   key=lambda nd: -nd.positions[-1]),
                            self.parent_sid)

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
        for cols, pattern in self.structure.amalgamate(
                sorted(full), self.max_supernode_vars, self.relax_fill):
            node = _Node(self._next_sid, cols, pattern)
            self._next_sid += 1
            self.nodes[node.sid] = node
            fresh.append(node.sid)
            for p in cols:
                self.node_of[p] = node.sid
        return fresh

    # ------------------------------------------------------------------
    # phase G: numeric refactorization (bottom-up, plan/execute)
    # ------------------------------------------------------------------

    def _children_nodes(self, node: _Node) -> List[_Node]:
        seen: Set[int] = set()
        out: List[_Node] = []
        for p in node.positions:
            for child_pos in self.structure.children.get(p, ()):
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
        return self._plans.resolve(
            key, signature,
            lambda: self._compile_plan(node, self._factor_ids_of(node),
                                       children, signature),
            aud, sid=node.sid, head=key)

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

        Trace fidelity: after the sweep, each processed node's GEMV/TRSV
        are recorded on the main thread in descending last-position
        order — the order of a top-down position scan, which level-major
        order does *not* preserve (a deeper node in one subtree can sit
        above a shallower node in another).

        Returns the depth levels it swept, from which the step's
        tree-shape extras are read.
        """
        fresh_set = set(fresh)
        changed = np.zeros(self.num_positions)
        delta_data = self.delta.data
        executor = self._executor
        levels = self._depth_levels()
        processed: List[_Node] = []
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
                ctx.backsub_nodes += 1
                processed.append(node)
                tasks.append(lambda nd=node:
                             self._backsolve_task(nd, changed, delta_data))
            if tasks:
                executor.run_level(tasks, stats)
        if ctx.trace is not None:
            processed.sort(key=lambda nd: -nd.positions[-1])
            for node in processed:
                node_trace = ctx.trace.node(node.sid)
                if node.pattern:
                    node_trace.record(OpKind.GEMV, node.y.size,
                                      node.pattern_idx.size)
                node_trace.record(OpKind.TRSV, node.y.size)
        ctx.add_level_stats(stats)
        return levels

    def _backsolve_task(self, node: _Node, changed: np.ndarray,
                        delta_data: np.ndarray) -> None:
        above = delta_data[node.pattern_idx] if node.pattern else None
        x = self._executor.backsolve_node(
            node.l_a, node.l_b, node.y, above)
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
        assert np.isfinite(self.delta.data).all(), "non-finite delta entry"
        for key, value in self.theta.items():
            # Poses expose their homogeneous matrix, landmarks a vector.
            coords = value.matrix() if hasattr(value, "matrix") else value.v
            assert np.isfinite(coords).all(), (
                f"non-finite linearization point of variable {key}")
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
            below = sum(self.dims[q] for q in self.structure.col_struct[j])
            fill += dj * (dj + 1) // 2 + below * dj
        assert fill == self.structure.fill_nnz
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
    5. ``finish()`` — wildfire back-substitution, step counters and the
       refactorized nodes' parent links; returns the step's context.
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
        ctx.lin_batched_factors += result.n_batched
        ctx.lin_fallback_factors += result.n_fallback
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
        ctx.lin_batched_factors += result.n_batched
        ctx.lin_fallback_factors += result.n_fallback
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
        self.sym_affected = engine.structure.resolve(affected, engine.dims)
        self.fresh = engine._rebuild_supernodes(self.sym_affected)

    def refactorize(self) -> None:
        self.engine._refactorize(self.fresh, self.ctx)

    def refactorize_begin(self) -> "PreparedRefactorize":
        return self.engine.refactorize_begin(self.fresh, self.ctx)

    def finish(self) -> StepContext:
        engine = self.engine
        ctx = self.ctx
        levels = engine._back_substitute(self.fresh, ctx)
        ctx.relinearized_variables += self.relin_key_count
        ctx.relinearized_factors += len(self.relin_indices)
        ctx.affected_columns += len(self.sym_affected)
        ctx.refactored_nodes += len(self.fresh)
        ctx.node_parents = engine.node_parents(self.fresh)
        shape = tree_shape(levels, engine.parent_sid,
                           engine.structure.fill_nnz)
        for key in ("height", "max_width", "fill_nnz"):
            ctx.extras[f"tree_{key}"] = shape[key]
        return ctx


class PreparedRefactorize:
    """Plan-resolved refactorization, dispatched one level at a time.

    This is the engine's only refactorize path, at every worker count.
    Construction runs on the main thread: plan resolution and index
    attachment in head order, so plan-cache traffic and auditor
    recompiles never depend on how the levels are dispatched.  The
    numeric bulk is then exposed as dependency levels whose tasks a
    caller dispatches through any
    :meth:`~repro.linalg.parallel.ParallelStepExecutor.run_level` —
    the engine's own driver is :meth:`run`; the serving fleet instead
    merges every session's level-k tasks into one shared dispatch.
    :meth:`finish` records each node's ops and performs the forward
    sweep and carry scatter on the main thread, in head order (the
    carry scatter is a cross-subtree float accumulation, and trace
    insertion order is part of the bit-identity contract).

    Plan-cache counter deltas are attributed *inside construction*: in
    a fleet, many sessions interleave lookups against one shared cache
    between begin and finish, so finish-time deltas would misattribute.
    """

    __slots__ = ("engine", "ctx", "fresh_nodes", "children_of", "levels",
                 "stats")

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
        parents = {node.sid: engine.parent_sid(node)
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
                lambda p=plan, h=hessians, c=child_updates:
                executor.factorize_node(p, h, c, damping),
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
        """Op recording, forward sweep and carry scatter on the main
        thread, in head order."""
        start = time.perf_counter()
        engine = self.engine
        executor = engine._executor
        for node in self.fresh_nodes:
            plan = node.plan
            rhs = (engine._gradient.gather(plan.pos_idx)
                   - engine._carry.gather(plan.pos_idx))
            node.y, node.v = executor.forward_update(
                plan, node.l_a, node.l_b, rhs)
            node_trace = self.ctx.node(node.sid, cols=plan.m,
                                       rows_below=plan.front_size - plan.m)
            if node_trace is not None:
                record_node_ops(node_trace, plan.m, plan.front_size,
                                plan.factor_trace, plan.child_sizes)
                node_trace.record(OpKind.TRSV, plan.m)
                if node.v is not None:
                    node_trace.record(OpKind.GEMV, node.v.size, plan.m)
            if node.v is not None:
                engine._carry.scatter_add(plan.pattern_idx, node.v, 1.0)
        self.ctx.add_level_stats(self.stats)
        self.ctx.refactor_seconds += time.perf_counter() - start


class IncrementalSolver:
    """The step shell of ISAM2 and RA-ISAM2 over an
    :class:`IncrementalEngine`.

    ``update`` is :meth:`begin_step`, ``engine.update``, then
    :meth:`end_step`; the serving fleet calls the same two methods
    around its fused engine phases.  Subclasses supply
    ``plan_selection(new_factors, budget_scale)``, the step's
    relinearization set, and may extend :meth:`end_step`.
    """

    def __init__(self, wildfire_tol: float, damping: float,
                 max_supernode_vars: int, ordering: str,
                 reorder_interval: int, workers: Optional[int]):
        self.engine = IncrementalEngine(
            max_supernode_vars=max_supernode_vars,
            wildfire_tol=wildfire_tol, damping=damping,
            ordering=ordering, reorder_interval=reorder_interval,
            workers=workers)
        self._step = -1

    def begin_step(self, new_factors: Sequence[Factor],
                   budget_scale: float = 1.0) -> SelectionPlan:
        """Advance the step counter; run :meth:`plan_selection`."""
        self._step += 1
        return self.plan_selection(new_factors, budget_scale=budget_scale)

    def end_step(self, ctx: StepContext,
                 plan: SelectionPlan) -> StepReport:
        """Build the step's report from its context and selection."""
        return ctx.build_report(self._step, plan)

    def update(self, new_values: Dict[Key, object],
               new_factors: Sequence[Factor],
               context: Optional[StepContext] = None) -> StepReport:
        """Process one timestep of the online SLAM problem."""
        ctx = context if context is not None else StepContext()
        plan = self.begin_step(new_factors)
        self.engine.update(new_values, new_factors, plan.selected,
                           context=ctx)
        return self.end_step(ctx, plan)

    def estimate(self) -> Values:
        return self.engine.estimate()


class ISAM2(IncrementalSolver):
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
        never changes a full-scale step — :meth:`plan_selection`
        consults it (rank-only) to pick *which* flagged variables a
        degraded step keeps when overload shedding (``budget_scale <
        1``) cuts the candidate list.
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
        super().__init__(wildfire_tol, damping, max_supernode_vars,
                         ordering, reorder_interval, workers)

    def plan_selection(self, new_factors: Sequence[Factor],
                       budget_scale: float = 1.0) -> SelectionPlan:
        """Pick the relinearization set.

        Every variable with ``‖delta_j‖∞ > relin_threshold`` is
        selected.  Below ``budget_scale`` 1 (the serving fleet's
        overload shedding) only the top ``ceil(scale * k)`` of the
        ``k`` flagged variables stay, in the selection policy's rank
        order over the relevance-ordered candidates, re-sorted to
        position order so the retraction and gradient float
        accumulation run in the unscaled order; the rest are shed.
        """
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
