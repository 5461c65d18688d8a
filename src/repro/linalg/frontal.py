"""Frontal-matrix helpers shared by the batch and incremental solvers.

A supernode's frontal matrix F is the dense (m+n) x (m+n) workspace of
paper Fig. 4: the first m columns belong to the node (A and B blocks), the
trailing n x n block accumulates the update matrix C that is extend-added
into the parent.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dtrtrs

try:
    # np.linalg.cholesky's underlying gufunc: same code, same bits,
    # without the wrapper's per-call type-resolution/errstate overhead.
    from numpy.linalg import _umath_linalg as _umath

    _cholesky_lo = _umath.cholesky_lo
except (ImportError, AttributeError):  # pragma: no cover
    _cholesky_lo = None


class SingularHessianError(RuntimeError):
    """The Hessian was not positive definite at a supernode.

    Usually means the graph is under-constrained (no prior) — add a prior
    factor or pass ``damping > 0``.
    """


def front_offsets(positions: Sequence[int], row_pattern: Sequence[int],
                  dims: Sequence[int]) -> Tuple[Dict[int, int], int, int]:
    """Map each position in the frontal matrix to its scalar row offset.

    Returns ``(offset_of_position, m, front_size)`` where the node's own
    ``positions`` come first, then the sub-diagonal ``row_pattern``.
    """
    offsets: Dict[int, int] = {}
    cursor = 0
    for p in positions:
        offsets[p] = cursor
        cursor += dims[p]
    m = cursor
    for p in row_pattern:
        offsets[p] = cursor
        cursor += dims[p]
    return offsets, m, cursor


def gather_indices(positions: Sequence[int], dims: Sequence[int],
                   offsets: Dict[int, int]) -> np.ndarray:
    """Scalar frontal indices covering ``positions`` (for fancy scatter)."""
    idx: List[int] = []
    extend = idx.extend
    for p in positions:
        base = offsets[p]
        extend(range(base, base + dims[p]))
    return np.asarray(idx, dtype=np.intp)


def scatter_add_block(front: np.ndarray, idx: np.ndarray,
                      block: np.ndarray) -> None:
    """front[idx, idx] += block (dense block scatter-addition)."""
    front[idx[:, None], idx] += block


def solve_lower_triangular(l_a: np.ndarray, b: np.ndarray,
                           trans: int = 0) -> np.ndarray:
    """``L x = b`` (or ``L^T x = b`` with ``trans=1``) via LAPACK trtrs.

    Bit-identical to ``scipy.linalg.solve_triangular(..., lower=True)``
    but without its per-call validation overhead — the executor's solves
    are small and frequent, so the Python wrapper dominated.  Mirrors
    scipy's contiguity dispatch (a C-contiguous L is passed as its
    F-contiguous transpose with ``lower``/``trans`` flipped) so both
    entry points run the exact same LAPACK code path.
    """
    if l_a.flags.f_contiguous:
        x, info = dtrtrs(l_a, b, lower=1, trans=trans)
    else:
        x, info = dtrtrs(l_a.T, b, lower=0, trans=1 - trans)
    if info != 0:
        raise SingularHessianError(
            f"triangular solve failed (LAPACK info={info})")
    return x


def factorize_front(
    front: np.ndarray,
    m: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial factorization of a frontal matrix (paper Fig. 5 bottom).

    Returns ``(L_A, L_B, C_update)`` where ``C_update`` is the Schur
    complement to extend-add into the parent.  Numerics only: the
    POTRF/TRSM/SYRK/copy-out ops are recorded by
    :func:`repro.linalg.plan.record_node_ops`.
    """
    n_below = front.shape[0] - m
    a_block = front[:m, :m]
    # POTRF must stay on numpy's cholesky (numpy's and scipy's LAPACK
    # builds differ in the last ulp on real fronts, so scipy's dpotrf
    # would break the bit-identity contract).  The gufunc fills the
    # whole factor with NaN on a non-PD block, so one diagonal probe
    # replaces the wrapper's LinAlgError callback.
    if _cholesky_lo is not None:
        with np.errstate(invalid="ignore"):
            l_a = _cholesky_lo(a_block)
        singular = m > 0 and l_a[0, 0] != l_a[0, 0]
    else:  # pragma: no cover
        try:
            l_a = np.linalg.cholesky(a_block)
            singular = False
        except np.linalg.LinAlgError:
            singular = True
    if singular:
        raise SingularHessianError(
            f"supernode diagonal block ({m}x{m}) not positive definite; "
            "the graph may lack a prior — add one or use damping")
    if n_below:
        b_block = front[m:, :m]
        # L_B = B L_A^-T, computed as (L_A^-1 B^T)^T.
        l_b = solve_lower_triangular(l_a, b_block.T).T
        c_update = front[m:, m:] - l_b @ l_b.T
    else:
        l_b = np.zeros((0, m))
        c_update = np.zeros((0, 0))
    return l_a, l_b, c_update
