"""Compiled elimination step-plans and their shared numeric executor.

The paper splits every backend step into a *symbolic* phase (decide the
elimination structure) and a *numeric* phase (dense kernels over frontal
matrices).  Before this module the engine re-derived the symbolic part
on every refactorization: ``front_offsets`` + per-factor
``gather_indices`` Python loops, even when the structure was unchanged —
the overwhelmingly common case online.  Here that symbolic output is
*compiled once* into an immutable :class:`NodePlan` per supernode and
cached across steps (:class:`PlanCache`); a shared, stateless
:class:`StepExecutor` then consumes plans with a handful of vectorized
fancy-indexed operations.  Decide structure rarely, execute cheaply and
often — the same precompiled-configuration idea as runtime-reconfigurable
localization accelerators.

Bit-identity contract
---------------------
Executing a plan reproduces the legacy per-factor loop *exactly*:

* Each factor/child scatter uses duplicate-free frontal indices, so one
  ``np.add.at`` over the concatenated flattened indices performs the
  same single float add per cell, in the same factor-then-child order,
  as the sequential ``scatter_add_block`` calls it replaces.
* Trace-op metadata (the per-factor MEMCPY/GEMM/SCATTER_ADD dims, the
  per-child SCATTER_ADD dims) is frozen into the plan, and
  :func:`record_node_ops` — the one writer of a node's assembly and
  partial-factorization ops — turns it into the recorded op stream on
  the main thread, record for record.  The executor's kernels do
  numerics only and never touch a trace.

Cache correctness
-----------------
Plans are keyed by the node's stable head position (engine) or supernode
id (batch solver) and validated against a structural *signature* —
positions, row pattern, assembled factors, and the (positions, pattern)
of every child.  Any structural change misses and recompiles; a stale
plan can never execute.  A :class:`Signature` carries a precomputed
64-bit hash so a cache hit costs one integer compare — O(1) in the
node's factor count — while the full structural tuple (``parts``) is
optional payload: when both sides carry parts they are deep-compared
after the hash matches (counted in ``PlanCache.deep_compares``), and the
engine's production path deliberately omits parts, trusting the hash.
Under an installed :func:`repro.validate.current_auditor`, every cache
hit is additionally re-verified against a fresh recompile (the
``plan-consistency`` invariant), which bounds the exposure of the
hash-only fast path to a hash collision between audits.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.linalg.frontal import factorize_front, front_offsets, \
    solve_lower_triangular
from repro.linalg.trace import NodeTrace, OpKind, OpTrace


class Signature:
    """Structural identity of one supernode's elimination step.

    ``hash`` is the precomputed identity actually compared on the cache
    hot path; ``parts`` is the optional full structural tuple
    ``(positions, pattern, factor part, child part)`` — opaque to this
    module beyond equality; callers decide how to identify factors (the
    engine uses ``(graph index, positions, residual_dim)`` triples, the
    batch solver ``(assembly index, positions, residual_dim)``).  A
    ``hash`` of None (the stale marker) never matches anything with a
    real hash.
    """

    __slots__ = ("hash", "parts")

    def __init__(self, hash_: Optional[int],
                 parts: Optional[tuple] = None):
        self.hash = hash_
        self.parts = parts

    @classmethod
    def of(cls, parts: tuple) -> "Signature":
        parts = tuple(parts)
        return cls(hash(parts), parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        if self.hash is None or other.hash is None:
            # Stale marker: only equal to another stale marker with the
            # same parts.
            return (self.hash is None and other.hash is None
                    and self.parts == other.parts)
        if self.hash != other.hash:
            return False
        if self.parts is not None and other.parts is not None:
            return self.parts == other.parts
        return True

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __repr__(self) -> str:
        return (f"Signature(hash={self.hash!r}, "
                f"parts={'...' if self.parts is not None else None})")


_HASH_MASK = (1 << 64) - 1
_HASH_PRIME = 0x100000001B3


def fold_hash(seed: int, value: int) -> int:
    """Order-dependent 64-bit hash chaining (an FNV-style fold).

    Used to maintain signature hashes *incrementally* (the engine folds
    per-factor fragments into per-position running hashes at
    registration time) so building a node's signature never walks its
    factor list.  Deterministic across processes for integer payloads —
    a requirement for cross-session plan sharing, where two engines must
    derive the same hash for the same structure.
    """
    return ((seed ^ (value & _HASH_MASK)) * _HASH_PRIME) & _HASH_MASK


def node_signature(positions: Sequence[int], pattern: Sequence[int],
                   factor_sig: Sequence, child_sig: Sequence) -> Signature:
    """Structural identity of one supernode's elimination step (with its
    hash precomputed once, at build time)."""
    return Signature.of((tuple(positions), tuple(pattern),
                         tuple(factor_sig), tuple(child_sig)))


class NodePlan:
    """Immutable compiled symbolic step for one supernode.

    Everything the numeric executor needs that does not depend on factor
    *values*: the front shape, concatenated flattened scatter indices
    for factor assembly and child extend-add, flat RHS gather indices
    into the global block state, and the trace-op dims the cost model
    prices.
    """

    __slots__ = ("signature", "m", "front_size",
                 "factor_ids", "factor_flat_idx", "factor_trace",
                 "child_flat_idx", "child_sizes", "diag_idx",
                 "pos_idx", "pattern_idx", "pattern_arr",
                 "positions_arr", "pos_starts")

    def __init__(self, signature: Signature, m: int, front_size: int,
                 factor_ids: tuple, factor_flat_idx: np.ndarray,
                 factor_trace: tuple, child_flat_idx: np.ndarray,
                 child_sizes: tuple, diag_idx: np.ndarray,
                 pos_idx: np.ndarray, pattern_idx: np.ndarray,
                 pattern_arr: np.ndarray, positions_arr: np.ndarray,
                 pos_starts: np.ndarray):
        self.signature = signature
        self.m = m
        self.front_size = front_size
        self.factor_ids = factor_ids
        self.factor_flat_idx = factor_flat_idx
        self.factor_trace = factor_trace
        self.child_flat_idx = child_flat_idx
        self.child_sizes = child_sizes
        self.diag_idx = diag_idx
        self.pos_idx = pos_idx
        self.pattern_idx = pattern_idx
        self.pattern_arr = pattern_arr
        self.positions_arr = positions_arr
        self.pos_starts = pos_starts


def _frontal_flat(positions: Sequence[int], dims: Sequence[int],
                  offsets: Dict[int, int], front_size: int) -> np.ndarray:
    """Flattened front indices of the dense block over ``positions``.

    Row-major raveled equivalent of ``front[idx[:, None], idx]`` for
    ``idx = gather_indices(positions, dims, offsets)``.
    """
    scalars: List[int] = []
    extend = scalars.extend
    for p in positions:
        base = offsets[p]
        extend(range(base, base + dims[p]))
    idx = np.asarray(scalars, dtype=np.intp)
    return (idx[:, None] * front_size + idx).ravel()


def _state_indices(positions: Sequence[int],
                   flat_offsets: np.ndarray) -> np.ndarray:
    """Flat scalar indices of ``positions`` in the global block state
    (same formula as :meth:`repro.state.BlockVector.indices`)."""
    if not len(positions):
        return np.empty(0, dtype=np.intp)
    return np.concatenate([
        np.arange(flat_offsets[p], flat_offsets[p + 1], dtype=np.intp)
        for p in positions])


def compile_node_plan(
    positions: Sequence[int],
    pattern: Sequence[int],
    dims: Sequence[int],
    flat_offsets: np.ndarray,
    factors: Sequence[Tuple[object, Sequence[int], int]],
    child_patterns: Sequence[Sequence[int]],
    signature: Signature,
) -> NodePlan:
    """Compile one supernode's elimination step.

    Parameters
    ----------
    positions / pattern:
        The node's own elimination positions and sub-diagonal row
        pattern (ascending).
    dims:
        Per-position block dimensions of the whole problem.
    flat_offsets:
        Cumulative scalar offsets of the global block state
        (``BlockVector.offsets`` or the batch solver's scalar offsets).
    factors:
        ``(factor_id, factor_positions, residual_dim)`` per factor
        assembled at this node, in assembly order.
    child_patterns:
        The row pattern of each child whose update matrix is
        extend-added, in extend-add order.
    """
    offsets, m, front_size = front_offsets(positions, pattern, dims)

    factor_ids = []
    factor_flat: List[np.ndarray] = []
    factor_trace = []
    for fid, f_positions, residual_dim in factors:
        factor_ids.append(fid)
        factor_flat.append(
            _frontal_flat(f_positions, dims, offsets, front_size))
        df = int(sum(dims[p] for p in f_positions))
        factor_trace.append((int(residual_dim), df))

    child_flat: List[np.ndarray] = []
    child_sizes = []
    for c_pattern in child_patterns:
        flat = _frontal_flat(c_pattern, dims, offsets, front_size)
        child_flat.append(flat)
        child_sizes.append(int(sum(dims[p] for p in c_pattern)))

    empty = np.empty(0, dtype=np.intp)
    own_dims = [dims[p] for p in positions]
    return NodePlan(
        signature=signature,
        m=m,
        front_size=front_size,
        factor_ids=tuple(factor_ids),
        factor_flat_idx=(np.concatenate(factor_flat)
                         if factor_flat else empty),
        factor_trace=tuple(factor_trace),
        child_flat_idx=(np.concatenate(child_flat)
                        if child_flat else empty),
        child_sizes=tuple(child_sizes),
        diag_idx=np.arange(m, dtype=np.intp) * (front_size + 1),
        pos_idx=_state_indices(positions, flat_offsets),
        pattern_idx=_state_indices(pattern, flat_offsets),
        pattern_arr=np.asarray(pattern, dtype=np.intp),
        positions_arr=np.asarray(positions, dtype=np.intp),
        pos_starts=np.concatenate(
            [[0], np.cumsum(own_dims[:-1])]).astype(np.intp),
    )


#: Signature that can never equal a real one (its hash is None, which
#: no built signature carries): marks plans whose frontal scatter
#: indices went stale after a state permutation.
STALE_SIGNATURE: Signature = Signature(None, (("__reordered__",),) * 4)


def reindexed_plan(plan: NodePlan, pattern_idx: np.ndarray,
                   pattern_arr: np.ndarray) -> NodePlan:
    """Clone a plan after a block-state permutation moved its pattern.

    Survivor supernodes outside a re-ordered region keep their numeric
    factors, but their sub-diagonal rows may have been relabeled and
    their state offsets moved, so ``pattern_idx`` / ``pattern_arr`` are
    replaced.  The frontal assembly indices (``factor_flat_idx``,
    ``child_flat_idx``) are *not* remapped — they are only reachable
    through a cache lookup, and the clone carries ``STALE_SIGNATURE``,
    which never matches, so the next refactorization of the node always
    recompiles.  ``pos_idx`` is shared by identity (the engine's
    invariant ties ``node.pos_idx`` to its plan's).
    """
    return NodePlan(
        signature=STALE_SIGNATURE,
        m=plan.m,
        front_size=plan.front_size,
        factor_ids=plan.factor_ids,
        factor_flat_idx=plan.factor_flat_idx,
        factor_trace=plan.factor_trace,
        child_flat_idx=plan.child_flat_idx,
        child_sizes=plan.child_sizes,
        diag_idx=plan.diag_idx,
        pos_idx=plan.pos_idx,
        pattern_idx=pattern_idx,
        pattern_arr=pattern_arr,
        positions_arr=plan.positions_arr,
        pos_starts=plan.pos_starts,
    )


def plans_equal(a: NodePlan, b: NodePlan) -> bool:
    """Structural equality of two compiled plans (audit helper)."""
    return (a.signature == b.signature
            and a.m == b.m
            and a.front_size == b.front_size
            and a.factor_ids == b.factor_ids
            and a.factor_trace == b.factor_trace
            and a.child_sizes == b.child_sizes
            and np.array_equal(a.factor_flat_idx, b.factor_flat_idx)
            and np.array_equal(a.child_flat_idx, b.child_flat_idx)
            and np.array_equal(a.diag_idx, b.diag_idx)
            and np.array_equal(a.pos_idx, b.pos_idx)
            and np.array_equal(a.pattern_idx, b.pattern_idx)
            and np.array_equal(a.pattern_arr, b.pattern_arr)
            and np.array_equal(a.positions_arr, b.positions_arr)
            and np.array_equal(a.pos_starts, b.pos_starts))


class PlanCache:
    """Signature-validated cache of compiled :class:`NodePlan`s.

    Keys are caller-chosen stable node identities (the engine uses the
    head elimination position, which survives supernode teardown and
    rebuild; the batch solver uses the supernode id).  A lookup only
    hits when the cached plan's signature matches, so entries made
    stale by ``_rebuild_supernodes`` are recompiled rather than ever
    being executed — no explicit invalidation pass is needed, and the
    cache stays bounded by the number of node identities.

    The hit path compares precomputed signature hashes — one integer
    compare, O(1) in the node's factor count.  ``deep_compares`` counts
    the lookups that additionally walked the full structural tuples
    (only when *both* the probe and the cached plan carry parts — e.g.
    under the auditor); the engine's production probes are hash-only,
    so the counter staying at zero is the fast path's regression guard.

    A cache may be shared across engine instances (the serving fleet
    shares one per fleet): signatures cover per-factor geometry
    ``(index, positions, residual_dim)``, not just factor identity, so
    a hit from another session is structurally interchangeable.
    """

    __slots__ = ("_plans", "hits", "misses", "compiles", "deep_compares")

    def __init__(self):
        self._plans: Dict[object, NodePlan] = {}
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.deep_compares = 0

    def __len__(self) -> int:
        return len(self._plans)

    def lookup(self, key, signature: Signature) -> Optional[NodePlan]:
        plan = self._plans.get(key)
        if plan is not None:
            cached = plan.signature
            if cached.hash is not None and cached.hash == signature.hash:
                if (cached.parts is not None
                        and signature.parts is not None):
                    self.deep_compares += 1
                    if cached.parts != signature.parts:
                        self.misses += 1
                        return None
                self.hits += 1
                return plan
        self.misses += 1
        return None

    def store(self, key, plan: NodePlan) -> None:
        self.compiles += 1
        self._plans[key] = plan

    def resolve(self, key, signature: Signature,
                compile_plan: Callable[[], NodePlan], aud,
                **where) -> NodePlan:
        """A cache hit, or ``compile_plan()`` stored on a miss; under
        the auditor a hit must equal a fresh recompile."""
        plan = self.lookup(key, signature)
        if plan is None:
            plan = compile_plan()
            self.store(key, plan)
        elif aud is not None:
            aud.check(plans_equal(plan, compile_plan()), "plan-consistency",
                      "cached step-plan must equal a fresh recompile",
                      **where)
        return plan

    def peek(self, key) -> Optional[NodePlan]:
        """The cached plan for ``key`` regardless of signature (tests)."""
        return self._plans.get(key)

    def clear(self) -> None:
        self._plans.clear()

    def counters(self) -> Tuple[int, int, int]:
        return self.hits, self.misses, self.compiles

    def snapshot(self) -> Tuple[int, int, int, int]:
        """All four counters (per-session attribution in the fleet)."""
        return self.hits, self.misses, self.compiles, self.deep_compares


def record_node_ops(trace: NodeTrace, m: int, front_size: int,
                    factor_trace: Sequence[Tuple[int, int]],
                    child_sizes: Sequence[int]) -> None:
    """Record one supernode's assembly and partial-factorization ops.

    The one place that writes this op sequence (paper Fig. 5): workspace
    memset, per-factor Hessian construction (prefetch + small GEMM +
    scatter), child extend-add scatters, POTRF, TRSM and SYRK when the
    node has rows below, and the copy-out.  ``factor_trace`` holds
    ``(residual_dim, factor_dim)`` per assembled factor and
    ``child_sizes`` the update-matrix size of each extend-added child,
    as a :class:`NodePlan` stores them.  The refactorizing solvers call
    it after the level barrier, and the cost model's synthetic node is
    built from it.
    """
    record = trace.record
    record(OpKind.MEMSET, 4 * front_size * front_size)
    for residual_dim, df in factor_trace:
        record(OpKind.MEMCPY, 4 * residual_dim * (df + 1))
        record(OpKind.GEMM, df, df, residual_dim)
        record(OpKind.SCATTER_ADD, df, df)
    for nc in child_sizes:
        record(OpKind.SCATTER_ADD, nc, nc)
    record(OpKind.POTRF, m)
    n_below = front_size - m
    if n_below:
        record(OpKind.TRSM, n_below, m)
        record(OpKind.SYRK, n_below, m)
    record(OpKind.MEMCPY, 4 * front_size * m)


class StepExecutor:
    """Stateless numeric executor over compiled :class:`NodePlan`s.

    Shared by the incremental engine (refactorize, wildfire
    back-substitution, marginal solves) and the batch multifrontal
    solver — one implementation of the frontal assembly, partial
    factorization and triangular-solve arithmetic, bit-identical to the
    per-factor loops it replaced (see the module docstring).  Its
    kernels do numerics only; callers record the matching ops on the
    main thread.
    """

    __slots__ = ()

    def factorize_node(
        self,
        plan: NodePlan,
        hessians: Sequence[np.ndarray],
        child_updates: Sequence[np.ndarray],
        damping: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Assemble and partially factorize one frontal matrix.

        ``hessians`` / ``child_updates`` are the factor Hessian blocks
        and child update matrices in the plan's assembly order.  Returns
        ``(L_A, L_B, C_update)``.
        """
        front = np.zeros((plan.front_size, plan.front_size))
        flat = front.ravel()
        if hessians:
            np.add.at(flat, plan.factor_flat_idx,
                      np.concatenate([h.ravel() for h in hessians]))
        if child_updates:
            np.add.at(flat, plan.child_flat_idx,
                      np.concatenate([c.ravel() for c in child_updates]))
        if damping:
            flat[plan.diag_idx] += damping
        return factorize_front(front, plan.m)

    def forward_update(
        self,
        plan: NodePlan,
        l_a: np.ndarray,
        l_b: np.ndarray,
        rhs: np.ndarray,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Forward solve ``L_A y = rhs`` and spread ``v = L_B y``.

        Returns ``(y, v)`` with ``v`` None for root nodes (empty
        pattern).
        """
        y = solve_lower_triangular(l_a, rhs)
        if plan.pattern_arr.size:
            return y, l_b @ y
        return y, None

    def backsolve_node(
        self,
        l_a: np.ndarray,
        l_b: np.ndarray,
        y: np.ndarray,
        above: Optional[np.ndarray],
    ) -> np.ndarray:
        """Back-substitute one node: ``L_A^T x = y - L_B^T x_above``."""
        rhs = y.copy()
        if above is not None:
            rhs -= l_b.T @ above
        return solve_lower_triangular(l_a, rhs, trans=1)


def flatten_rhs(blocks: Sequence[np.ndarray],
                dims: Sequence[int]) -> np.ndarray:
    """Concatenate one right-hand-side block per elimination position.

    Raises ``ValueError`` naming the first position whose block is
    missing, extra, or not a vector of that position's dimension.
    """
    for p in range(max(len(blocks), len(dims))):
        if p >= len(dims):
            raise ValueError(f"rhs has an extra block at position {p}: "
                             f"the problem has {len(dims)} positions")
        if p >= len(blocks):
            raise ValueError(f"rhs is missing the block at position {p}: "
                             f"the problem has {len(dims)} positions")
        shape = np.shape(blocks[p])
        if shape != (dims[p],):
            raise ValueError(f"rhs block at position {p} has shape "
                             f"{shape}, expected ({dims[p]},)")
    if not dims:
        return np.zeros(0)
    return np.concatenate([np.asarray(b, dtype=float) for b in blocks])


def tree_solve(
    entries: Sequence[Tuple[int, np.ndarray, np.ndarray,
                            np.ndarray, Optional[np.ndarray]]],
    rhs_flat: np.ndarray,
    total: int,
    trace: Optional[OpTrace] = None,
) -> np.ndarray:
    """Two triangular sweeps (``L y = b``, ``L^T x = y``) over a tree.

    ``entries`` lists ``(sid, l_a, l_b, own_idx, row_idx)`` bottom-up
    (children before parents); ``row_idx`` is None for root nodes.  The
    one shared implementation behind ``IncrementalEngine.solve_with_rhs``
    and ``MultifrontalCholesky.solve``/``solve_vector``.

    The sweeps stay serial.  The forward ``carry`` must add spreads in
    entry order, so a level-scheduled sweep has to rebuild it from every
    finished spread before each level — work that grows with tree
    height times node count and outweighs what the threads save.
    """
    carry = np.zeros(total)
    ys: List[np.ndarray] = []
    for sid, l_a, l_b, own_idx, row_idx in entries:
        local = rhs_flat[own_idx] - carry[own_idx]
        y = solve_lower_triangular(l_a, local)
        ys.append(y)
        node_trace = trace.node(sid) if trace is not None else None
        if node_trace is not None:
            node_trace.record(OpKind.TRSV, y.size)
        if row_idx is not None:
            spread = l_b @ y
            carry[row_idx] += spread
            if node_trace is not None:
                node_trace.record(OpKind.GEMV, spread.size, y.size)

    x_flat = np.zeros(total)
    for (sid, l_a, l_b, own_idx, row_idx), y in zip(reversed(entries),
                                                    reversed(ys)):
        local = y
        if row_idx is not None:
            above = x_flat[row_idx]
            local = local - l_b.T @ above
            if trace is not None:
                trace.node(sid).record(OpKind.GEMV, y.size, above.size)
        x = solve_lower_triangular(l_a, local, trans=1)
        if trace is not None:
            trace.node(sid).record(OpKind.TRSV, y.size)
        x_flat[own_idx] = x
    return x_flat
