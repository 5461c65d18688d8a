"""Block symbolic Cholesky factorization and supernode formation.

Variables are block columns (one per pose).  The symbolic phase computes,
per column, the block-row sparsity pattern of the Cholesky factor L and the
elimination tree (paper Fig. 4), then amalgamates columns with compatible
patterns into supernodes that are factorized with dense kernels.

The batch :class:`SymbolicFactorization` resolves every column of a
:class:`ColumnStructure` at once; the incremental engine
(:class:`~repro.solvers.isam2.IncrementalEngine`) keeps one across steps
and resolves the columns each step touched.  Both amalgamate with it and
summarize their trees with :func:`depth_levels` and :func:`tree_shape`.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple)


class Supernode:
    """A set of consecutive columns of L sharing a row pattern.

    ``positions`` are elimination-order indices owned by the node;
    ``row_pattern`` are the positions of the sub-diagonal rows (the B/C part
    of the frontal matrix).  ``parent`` / ``children`` give the assembly
    tree used by the multifrontal factorization and the runtime scheduler.
    """

    __slots__ = ("sid", "positions", "row_pattern", "parent", "children")

    def __init__(self, sid: int, positions: List[int],
                 row_pattern: List[int]):
        self.sid = sid
        self.positions = positions
        self.row_pattern = row_pattern
        self.parent: int = -1
        self.children: List[int] = []

    def col_dim(self, dims: Sequence[int]) -> int:
        """m: scalar columns owned by the node."""
        return sum(dims[p] for p in self.positions)

    def row_dim(self, dims: Sequence[int]) -> int:
        """n: scalar rows below the diagonal block."""
        return sum(dims[p] for p in self.row_pattern)

    def front_dim(self, dims: Sequence[int]) -> int:
        return self.col_dim(dims) + self.row_dim(dims)

    def __repr__(self) -> str:
        return (f"Supernode({self.sid}, cols={self.positions}, "
                f"rows={len(self.row_pattern)}, parent={self.parent})")


class ColumnStructure:
    """Block column structures of L, the elimination tree and the fill.

    ``a_struct[j]`` holds the rows that factor cliques seed in column
    ``j``: a clique adds its other positions to its lowest one.  The
    elimination recurrence ``struct[j] ⊇ struct[c] \\{j}`` for children
    c fills in the remaining clique pairs (the standard A^T A trick).
    ``col_struct[j]`` lists the positions of the nonzero block rows
    strictly below the diagonal, sorted; ``parent[j]`` is the column's
    elimination-tree parent (-1 for roots) and ``children`` the reverse
    map; ``col_fill[j]`` counts the column's scalar nonzeros in L
    (diagonal block counted densely) and ``fill_nnz`` their sum.
    """

    __slots__ = ("a_struct", "col_struct", "parent", "children",
                 "col_fill", "fill_nnz")

    def __init__(self, dims: Sequence[int] = ()):
        self.a_struct: List[Set[int]] = []
        self.col_struct: List[List[int]] = []
        self.parent: List[int] = []
        self.children: Dict[int, List[int]] = {}
        self.col_fill: List[int] = []
        self.fill_nnz = 0
        for dim in dims:
            self.add_column(dim)

    def add_column(self, dim: int) -> None:
        """Append an unconnected column of ``dim`` scalar columns."""
        self.a_struct.append(set())
        self.col_struct.append([])
        self.parent.append(-1)
        fill = dim * (dim + 1) // 2
        self.col_fill.append(fill)
        self.fill_nnz += fill

    def add_clique(self, positions: Sequence[int]) -> None:
        """Seed one factor's clique; ``positions`` ascend."""
        if len(positions) > 1:
            self.a_struct[positions[0]].update(positions[1:])

    def resolve(self, seeds: Iterable[int],
                dims: Sequence[int]) -> Set[int]:
        """Recompute the columns of ``seeds`` and all their ancestors.

        Columns resolve in ascending order, so each one's children are
        final before it.  A parent, once set, never changes: factors
        are only ever added, so the structure only grows.  Returns the
        resolved positions.
        """
        heap = list(seeds)
        heapq.heapify(heap)
        resolved: Set[int] = set()
        while heap:
            j = heapq.heappop(heap)
            if j in resolved:
                continue
            resolved.add(j)
            struct = set(self.a_struct[j])
            for child in self.children.get(j, ()):
                struct.update(self.col_struct[child])
            struct.discard(j)
            ordered = sorted(struct)
            self.col_struct[j] = ordered
            dj = dims[j]
            fill = dj * (dj + 1) // 2 + dj * sum(dims[q] for q in ordered)
            self.fill_nnz += fill - self.col_fill[j]
            self.col_fill[j] = fill
            if ordered:
                if self.parent[j] == -1:
                    self.parent[j] = ordered[0]
                    self.children.setdefault(ordered[0], []).append(j)
                elif self.parent[j] != ordered[0]:
                    raise AssertionError(
                        "elimination parent changed under pure additions")
                heapq.heappush(heap, self.parent[j])
        return resolved

    def relabel(self, perm: Sequence[int], start: int) -> None:
        """Relabel every column through ``perm``, which fixes the
        positions below ``start``.

        A column below ``start`` keeps its structure as a variable set,
        under the new labels; the columns from ``start`` up are left
        empty and parentless for the next :meth:`resolve`.  The clique
        seeds are cleared, so the caller re-adds every clique at its
        new positions.  Each column's fill moves with it (a relabeling
        keeps the column's dims).
        """
        n = len(self.col_struct)
        col_fill = [0] * n
        for p in range(n):
            col_fill[int(perm[p])] = self.col_fill[p]
        self.col_fill = col_fill
        self.a_struct = [set() for _ in range(n)]
        self.col_struct = [
            sorted(int(perm[q]) for q in self.col_struct[j])
            if j < start else [] for j in range(n)]
        self.parent = [-1] * n
        self.children = {}
        for j in range(start):
            struct = self.col_struct[j]
            if struct:
                self.parent[j] = struct[0]
                self.children.setdefault(struct[0], []).append(j)

    def amalgamate(self, positions: Iterable[int], max_supernode_vars: int,
                   relax_fill: int) -> Iterator[Tuple[List[int], List[int]]]:
        """Group ascending ``positions`` into (relaxed) supernode runs.

        Yields each run's ``(positions, row_pattern)``.  Column j joins
        the run of j-1 when both are in ``positions``, j is j-1's
        elimination parent, and the merge introduces at most
        ``relax_fill`` extra zero block rows per column (relaxed
        amalgamation — strictly fundamental supernodes with
        ``relax_fill=0``).  ``max_supernode_vars`` caps a run so
        frontal matrices stay bounded (paper: variable-sized
        supernodes sized to the hardware).
        """
        cols: List[int] = []
        pattern: List[int] = []
        for j in positions:
            if (cols and cols[-1] == j - 1 and self.parent[j - 1] == j
                    and len(cols) < max_supernode_vars):
                # Rows the merge adds to the earlier columns of the run.
                carried = set(pattern)
                carried.discard(j)
                if len(set(self.col_struct[j]) - carried) <= relax_fill:
                    cols.append(j)
                    pattern = list(self.col_struct[j])
                    continue
            if cols:
                yield cols, pattern
            cols, pattern = [j], list(self.col_struct[j])
        if cols:
            yield cols, pattern


def depth_levels(nodes: Iterable,
                 parent_of: Callable[..., Optional[int]]) -> List[list]:
    """Supernodes bucketed by tree depth, roots first.

    ``nodes`` lists every node after its parent, and each level keeps
    that order; ``parent_of(node)`` is the parent's ``sid``, or None
    for a root.
    """
    depth: Dict[int, int] = {}
    levels: List[list] = []
    for node in nodes:
        parent = parent_of(node)
        d = depth[parent] + 1 if parent is not None else 0
        depth[node.sid] = d
        if len(levels) <= d:
            levels.append([])
        levels[d].append(node)
    return levels


def tree_shape(levels: Sequence[list],
               parent_of: Callable[..., Optional[int]],
               fill_nnz: int) -> Dict[str, float]:
    """Shape summary of a supernodal tree from its :func:`depth_levels`.

    ``height`` — longest root-to-leaf edge count; ``max_width`` —
    most supernodes at any single depth (the branch-level
    concurrency an ordering exposes); ``branch_nodes`` — supernodes
    with more than one child (where root paths fork); ``roots`` —
    tree count; ``fill_nnz`` — scalar nonzeros of L.  A path-shaped
    (chronological) tree has ``max_width == 1`` and zero branch
    nodes; fill-reducing orderings trade height for width.
    """
    fanout = Counter(parent_of(node) for level in levels[1:]
                     for node in level)
    return {
        "supernodes": float(sum(map(len, levels))),
        "height": float(max(len(levels) - 1, 0)),
        "max_width": float(max(map(len, levels), default=0)),
        "branch_nodes": float(sum(1 for c in fanout.values() if c > 1)),
        "roots": float(len(levels[0])) if levels else 0.0,
        "fill_nnz": float(fill_nnz),
    }


class SymbolicFactorization:
    """Full symbolic analysis of a factor graph's Hessian.

    Parameters
    ----------
    dims:
        Tangent dimension per elimination position.
    factor_positions:
        Per factor, the positions of its variables.
    max_supernode_vars:
        Amalgamation cap (see :meth:`ColumnStructure.amalgamate`).
    keys:
        Optional variable key per elimination position — the explicit
        position<->key permutation for non-chronological orderings.
        When omitted the permutation is assumed identity-like and
        ``key_at`` / ``position_of`` are unavailable.
    """

    def __init__(self, dims: Sequence[int],
                 factor_positions: Sequence[Sequence[int]],
                 max_supernode_vars: int = 8,
                 relax_fill: int = 1,
                 keys: Optional[Sequence] = None):
        self.dims = list(dims)
        self.n = len(self.dims)
        self.keys = list(keys) if keys is not None else None
        if self.keys is not None and len(self.keys) != self.n:
            raise ValueError("keys must match dims length")
        self._position_of = (
            {key: p for p, key in enumerate(self.keys)}
            if self.keys is not None else None)
        self.structure = ColumnStructure(self.dims)
        for positions in factor_positions:
            self.structure.add_clique(sorted(positions))
        self.structure.resolve(range(self.n), self.dims)
        self.supernodes: List[Supernode] = []
        self.node_of = [-1] * self.n
        for cols, pattern in self.structure.amalgamate(
                range(self.n), max_supernode_vars, relax_fill):
            node = Supernode(len(self.supernodes), cols, pattern)
            for p in cols:
                self.node_of[p] = node.sid
            self.supernodes.append(node)
        for node in self.supernodes:
            if node.row_pattern:
                node.parent = self.node_of[node.row_pattern[0]]
                self.supernodes[node.parent].children.append(node.sid)

    @classmethod
    def from_ordering(cls, order: Sequence, dims_of: Mapping,
                      factor_keys: Sequence[Sequence],
                      max_supernode_vars: int = 8,
                      relax_fill: int = 1) -> "SymbolicFactorization":
        """Build from an elimination order over keys.

        ``order`` is the key sequence (position p eliminates
        ``order[p]``), ``dims_of`` maps key -> tangent dimension, and
        ``factor_keys`` holds each factor's keys.  The resulting object
        carries the position<->key permutation explicitly.
        """
        position_of = {key: p for p, key in enumerate(order)}
        dims = [dims_of[key] for key in order]
        factor_positions = [sorted(position_of[k] for k in fk)
                            for fk in factor_keys]
        return cls(dims, factor_positions,
                   max_supernode_vars=max_supernode_vars,
                   relax_fill=relax_fill, keys=order)

    def key_at(self, position: int):
        """Key eliminated at ``position`` (requires ``keys``)."""
        if self.keys is None:
            raise ValueError("symbolic factorization carries no keys")
        return self.keys[position]

    def position_of(self, key) -> int:
        """Elimination position of ``key`` (requires ``keys``)."""
        if self._position_of is None:
            raise ValueError("symbolic factorization carries no keys")
        return self._position_of[key]

    def fill_nnz(self) -> int:
        """Scalar nonzeros in L (diagonal blocks counted densely)."""
        return self.structure.fill_nnz

    def roots(self) -> List[int]:
        return [node.sid for node in self.supernodes if node.parent == -1]

    def node_order(self) -> List[int]:
        """Bottom-up processing order (children before parents).

        Supernodes own consecutive position ranges and a parent always
        starts after its children end, so sid order is already topological.
        """
        return list(range(len(self.supernodes)))

    def tree_stats(self) -> Dict[str, float]:
        """:func:`tree_shape` of the supernodal elimination tree."""
        levels = depth_levels(reversed(self.supernodes), _parent_sid)
        return tree_shape(levels, _parent_sid, self.structure.fill_nnz)

    def __repr__(self) -> str:
        return (f"SymbolicFactorization(n={self.n}, "
                f"supernodes={len(self.supernodes)}, "
                f"nnz={self.fill_nnz()})")


def _parent_sid(node: Supernode) -> Optional[int]:
    return node.parent if node.parent != -1 else None


def ancestors_of(parent: Sequence[int], position: int) -> List[int]:
    """Positions on the path from ``position`` (exclusive) to its root."""
    out = []
    p = parent[position]
    while p != -1:
        out.append(p)
        p = parent[p]
    return out
