"""Operation traces emitted by the numeric factorization.

Every numeric/memory operation the solver performs is recorded with its
exact dimensions.  The hardware layer (:mod:`repro.hardware`) maps ops to
cycle counts on a given platform, and the runtime (:mod:`repro.runtime`)
schedules node traces across accelerator sets.  This is the substitution
for the paper's FireSim RTL simulation: identical work, modeled timing.

Storage is columnar (structure-of-arrays): a :class:`NodeTrace` keeps one
``int8`` kind-code array plus an ``(n_ops, 3)`` dims matrix, and lazily
materializes derived numpy columns (``flops_array``, ``bytes_array``,
``memory_mask``, ``inner_dims``) the vectorized platform pricing consumes
(``price_ops`` in :mod:`repro.hardware.platforms`).  The row-wise view —
``record()``, ``workspace_bytes``, iterating ``.ops`` as
:class:`Op` values — is unchanged from the list-of-dataclasses layout, so
solvers and tests are agnostic to the layout; :class:`Op` doubles as the
scalar pricing reference the dual-path equivalence tests pin against.
"""

from __future__ import annotations

import enum
import threading as _threading
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

_FP32_BYTES = 4

#: Guards lazy creation of per-trace price locks (double-checked).
_PRICE_LOCK_INIT = _threading.Lock()


class OpKind(enum.Enum):
    """The operation vocabulary of the SLAM backend (paper Fig. 3/5)."""

    GEMM = "gemm"              # dense C += A @ B           dims = (m, n, k)
    SYRK = "syrk"              # C -= B @ B^T               dims = (n, k)
    TRSM = "trsm"              # B <- B @ L^-T              dims = (n, m)
    POTRF = "potrf"            # dense Cholesky             dims = (m,)
    TRSV = "trsv"              # triangular solve, 1 rhs    dims = (m,)
    GEMV = "gemv"              # y += A @ x                 dims = (m, n)
    SCATTER_ADD = "scatter"    # block scatter-addition     dims = (rows, cols)
    MEMSET = "memset"          # clear workspace            dims = (bytes,)
    MEMCPY = "memcpy"          # copy / prefetch            dims = (bytes,)


# -- columnar encoding --------------------------------------------------

KINDS: Tuple[OpKind, ...] = tuple(OpKind)
KIND_CODE: Dict[OpKind, int] = {kind: i for i, kind in enumerate(KINDS)}

#: Number of meaningful dims per kind; trailing dims-matrix columns
#: beyond a kind's arity hold :data:`DIMS_PAD`.
KIND_ARITY: Dict[OpKind, int] = {
    OpKind.GEMM: 3,
    OpKind.SYRK: 2,
    OpKind.TRSM: 2,
    OpKind.POTRF: 1,
    OpKind.TRSV: 1,
    OpKind.GEMV: 2,
    OpKind.SCATTER_ADD: 2,
    OpKind.MEMSET: 1,
    OpKind.MEMCPY: 1,
}

#: Padding for unused dims-matrix cells.  Large so that a row-wise
#: ``min`` over the matrix equals the minimum over the *real* dims
#: (the "inner dimension" the CPU throughput ramp needs).
DIMS_PAD = 1 << 62

GEMM_CODE = KIND_CODE[OpKind.GEMM]
SYRK_CODE = KIND_CODE[OpKind.SYRK]
TRSM_CODE = KIND_CODE[OpKind.TRSM]
POTRF_CODE = KIND_CODE[OpKind.POTRF]
TRSV_CODE = KIND_CODE[OpKind.TRSV]
GEMV_CODE = KIND_CODE[OpKind.GEMV]
SCATTER_CODE = KIND_CODE[OpKind.SCATTER_ADD]
MEMSET_CODE = KIND_CODE[OpKind.MEMSET]
MEMCPY_CODE = KIND_CODE[OpKind.MEMCPY]

_ARITY_BY_CODE = tuple(KIND_ARITY[kind] for kind in KINDS)


@dataclass(frozen=True)
class Op:
    """One traced operation with its shape, flop count and byte traffic.

    The row-wise (scalar) view of a trace entry; the per-op properties
    below are the reference the vectorized columns must reproduce.
    """

    kind: OpKind
    dims: Tuple[int, ...]

    @property
    def flops(self) -> int:
        kind, dims = self.kind, self.dims
        if kind is OpKind.GEMM:
            m, n, k = dims
            return 2 * m * n * k
        if kind is OpKind.SYRK:
            n, k = dims
            return n * (n + 1) * k
        if kind is OpKind.TRSM:
            n, m = dims
            return n * m * m
        if kind is OpKind.POTRF:
            (m,) = dims
            return max(1, m * m * m // 3)
        if kind is OpKind.TRSV:
            (m,) = dims
            return m * m
        if kind is OpKind.GEMV:
            m, n = dims
            return 2 * m * n
        if kind is OpKind.SCATTER_ADD:
            rows, cols = dims
            return rows * cols
        return 0

    @property
    def bytes_moved(self) -> int:
        kind, dims = self.kind, self.dims
        if kind in (OpKind.MEMSET, OpKind.MEMCPY):
            return dims[0]
        if kind is OpKind.GEMM:
            m, n, k = dims
            return _FP32_BYTES * (m * k + k * n + m * n)
        if kind is OpKind.SYRK:
            n, k = dims
            return _FP32_BYTES * (n * k + n * n)
        if kind is OpKind.TRSM:
            n, m = dims
            return _FP32_BYTES * (n * m + m * m)
        if kind is OpKind.POTRF:
            (m,) = dims
            return _FP32_BYTES * m * m
        if kind is OpKind.TRSV:
            (m,) = dims
            return _FP32_BYTES * (m * m // 2 + 2 * m)
        if kind is OpKind.GEMV:
            m, n = dims
            return _FP32_BYTES * (m * n + m + n)
        if kind is OpKind.SCATTER_ADD:
            rows, cols = dims
            return 3 * _FP32_BYTES * rows * cols
        return 0

    @property
    def is_memory_op(self) -> bool:
        """Ops offloadable to the MEM accelerator."""
        return self.kind in (OpKind.MEMSET, OpKind.MEMCPY)


class _OpsView(Sequence):
    """Row-wise view of a :class:`NodeTrace`: iterates/indexes as
    :class:`Op` values, mutates through ``append``/``extend`` so the
    pre-columnar ``trace.ops`` call sites keep working."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "NodeTrace"):
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.num_ops

    def __iter__(self) -> Iterator[Op]:
        trace = self._trace
        for i in range(trace.num_ops):
            yield trace.op_at(i)

    def __getitem__(self, index):
        trace = self._trace
        if isinstance(index, slice):
            return [trace.op_at(i)
                    for i in range(*index.indices(trace.num_ops))]
        n = trace.num_ops
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("op index out of range")
        return trace.op_at(index)

    def append(self, op: Op) -> None:
        self._trace.record(op.kind, *op.dims)

    def extend(self, ops) -> None:
        for op in ops:
            self._trace.record(op.kind, *op.dims)


class NodeTrace:
    """All operations performed while processing one supernode.

    Columnar storage: ``record()`` appends one kind code and a padded
    dims row; numpy columns are materialized lazily (and cached until
    the next mutation).  ``.ops`` is the row-wise :class:`Op` view.
    """

    __slots__ = ("node_id", "cols", "rows_below", "_codes", "_dims",
                 "_version", "_columns", "_columns_version",
                 "_lane_cache", "_price_lock")

    def __init__(self, node_id: int, cols: int = 0, rows_below: int = 0,
                 ops: Optional[Sequence[Op]] = None):
        self.node_id = node_id
        self.cols = cols
        self.rows_below = rows_below
        self._codes = array("b")
        self._dims = array("q")
        self._version = 0
        self._columns: Dict[str, np.ndarray] = {}
        self._columns_version = -1
        # (soc.pricing_key, hetero_overlap) -> (comp, mem, host); see
        # repro.runtime.scheduler.node_cycles.
        self._lane_cache: Dict[tuple, Tuple[float, float, float]] = {}
        # Serializes concurrent pricing of this trace: the lane-memo
        # read-compute-write in node_cycles must be atomic per trace so
        # LANE_CACHE_STATS stays exact under the worker pool (see
        # repro.linalg.parallel).  Lazily created — traces are built on
        # solver hot paths and most are never priced concurrently.
        self._price_lock: Optional[_threading.Lock] = None
        if ops:
            for op in ops:
                self.record(op.kind, *op.dims)

    @property
    def price_lock(self) -> "_threading.Lock":
        """Per-trace lock guarding the lane memo (see node_cycles)."""
        lock = self._price_lock
        if lock is None:
            with _PRICE_LOCK_INIT:
                lock = self._price_lock
                if lock is None:
                    lock = _threading.Lock()
                    self._price_lock = lock
        return lock

    # -- recording (solver hot path) -----------------------------------

    def record(self, kind: OpKind, *dims: int) -> None:
        self._codes.append(KIND_CODE[kind])
        row = [DIMS_PAD] * 3
        for i, d in enumerate(dims):
            row[i] = int(d)
        self._dims.extend(row)
        self._version += 1

    @property
    def num_ops(self) -> int:
        return len(self._codes)

    def op_at(self, index: int) -> Op:
        """Materialize row ``index`` as a scalar :class:`Op`."""
        code = self._codes[index]
        arity = _ARITY_BY_CODE[code]
        base = 3 * index
        return Op(KINDS[code], tuple(self._dims[base:base + arity]))

    @property
    def ops(self) -> _OpsView:
        return _OpsView(self)

    # -- columnar views -------------------------------------------------

    def _fresh(self) -> Dict[str, np.ndarray]:
        if self._columns_version != self._version:
            self._columns = {}
            self._lane_cache.clear()
            self._columns_version = self._version
        return self._columns

    def kind_codes(self) -> np.ndarray:
        """``int8`` kind code per op (see :data:`KIND_CODE`)."""
        cols = self._fresh()
        out = cols.get("codes")
        if out is None:
            if self._codes:
                out = np.frombuffer(self._codes, dtype=np.int8).copy()
            else:
                out = np.empty(0, dtype=np.int8)
            cols["codes"] = out
        return out

    def dims_matrix(self) -> np.ndarray:
        """``(num_ops, 3)`` int64 dims; unused cells are ``DIMS_PAD``."""
        cols = self._fresh()
        out = cols.get("dims")
        if out is None:
            if self._dims:
                out = np.frombuffer(
                    self._dims, dtype=np.int64).copy().reshape(-1, 3)
            else:
                out = np.empty((0, 3), dtype=np.int64)
            cols["dims"] = out
        return out

    def memory_mask(self) -> np.ndarray:
        """Boolean column: ops offloadable to the MEM accelerator."""
        cols = self._fresh()
        out = cols.get("memory")
        if out is None:
            codes = self.kind_codes()
            out = (codes == MEMSET_CODE) | (codes == MEMCPY_CODE)
            cols["memory"] = out
        return out

    def compute_mask(self) -> np.ndarray:
        """Boolean column: non-memory ops (``~memory_mask``), cached.

        Callers must treat the returned array as read-only; it is shared
        across calls.
        """
        cols = self._fresh()
        out = cols.get("compute")
        if out is None:
            out = ~self.memory_mask()
            cols["compute"] = out
        return out

    def inner_dims(self) -> np.ndarray:
        """Per-op ``min(dims)`` (the CPU throughput-ramp inner dim)."""
        cols = self._fresh()
        out = cols.get("inner")
        if out is None:
            out = self.dims_matrix().min(axis=1)
            cols["inner"] = out
        return out

    def _int_flops_bytes(self) -> Tuple[np.ndarray, np.ndarray]:
        cols = self._fresh()
        flops = cols.get("flops_i")
        if flops is None:
            codes = self.kind_codes()
            dims = self.dims_matrix()
            d0, d1, d2 = dims[:, 0], dims[:, 1], dims[:, 2]
            flops = np.zeros(len(codes), dtype=np.int64)
            bytes_ = np.zeros(len(codes), dtype=np.int64)
            for code, flop_of, bytes_of in _COLUMN_FORMULAS:
                mask = codes == code
                if not mask.any():
                    continue
                a, b = d0[mask], d1[mask]
                c = d2[mask] if code == GEMM_CODE else None
                flops[mask] = flop_of(a, b, c)
                bytes_[mask] = bytes_of(a, b, c)
            cols["flops_i"] = flops
            cols["bytes_i"] = bytes_
        return cols["flops_i"], cols["bytes_i"]

    def flops_array(self) -> np.ndarray:
        """Float64 flop count per op (matches ``Op.flops`` exactly)."""
        cols = self._fresh()
        out = cols.get("flops_f")
        if out is None:
            out = self._int_flops_bytes()[0].astype(np.float64)
            cols["flops_f"] = out
        return out

    def bytes_array(self) -> np.ndarray:
        """Float64 byte traffic per op (matches ``Op.bytes_moved``)."""
        cols = self._fresh()
        out = cols.get("bytes_f")
        if out is None:
            out = self._int_flops_bytes()[1].astype(np.float64)
            cols["bytes_f"] = out
        return out

    # -- lane-total cache (see runtime.scheduler.node_cycles) -----------

    def lane_cache_get(self, key: tuple
                       ) -> Optional[Tuple[float, float, float]]:
        self._fresh()
        return self._lane_cache.get(key)

    def lane_cache_put(self, key: tuple,
                       lanes: Tuple[float, float, float]) -> None:
        self._fresh()
        self._lane_cache[key] = lanes

    # -- aggregate / row-wise API (unchanged contract) -------------------

    @property
    def flops(self) -> int:
        return int(self._int_flops_bytes()[0].sum())

    @property
    def bytes_moved(self) -> int:
        return int(self._int_flops_bytes()[1].sum())

    @property
    def workspace_bytes(self) -> int:
        """Frontal workspace footprint (paper Algorithm 2's calc_space)."""
        front = self.cols + self.rows_below
        return _FP32_BYTES * front * front


def concat_node_traces(traces: Sequence[NodeTrace]) -> NodeTrace:
    """One trace whose rows are the given traces' ops, in order.

    The raw columnar buffers are concatenated directly (a C-level copy),
    so pricing N small traces on one platform costs one vectorized pass
    instead of N — :func:`repro.runtime.scheduler.sequential_cycles`
    uses this for the CPU/GPU baselines.  ``cols``/``rows_below`` (and
    hence ``workspace_bytes``) are meaningless on the result.
    """
    merged = NodeTrace(node_id=-1)
    for trace in traces:
        merged._codes.extend(trace._codes)
        merged._dims.extend(trace._dims)
    return merged


def _gemm_flops(m, n, k):
    return 2 * m * n * k


def _gemm_bytes(m, n, k):
    return _FP32_BYTES * (m * k + k * n + m * n)


_COLUMN_FORMULAS = (
    (GEMM_CODE, _gemm_flops, _gemm_bytes),
    (SYRK_CODE,
     lambda n, k, _: n * (n + 1) * k,
     lambda n, k, _: _FP32_BYTES * (n * k + n * n)),
    (TRSM_CODE,
     lambda n, m, _: n * m * m,
     lambda n, m, _: _FP32_BYTES * (n * m + m * m)),
    (POTRF_CODE,
     lambda m, _, __: np.maximum(1, m * m * m // 3),
     lambda m, _, __: _FP32_BYTES * m * m),
    (TRSV_CODE,
     lambda m, _, __: m * m,
     lambda m, _, __: _FP32_BYTES * (m * m // 2 + 2 * m)),
    (GEMV_CODE,
     lambda m, n, _: 2 * m * n,
     lambda m, n, _: _FP32_BYTES * (m * n + m + n)),
    (SCATTER_CODE,
     lambda r, c, _: r * c,
     lambda r, c, _: 3 * _FP32_BYTES * r * c),
    (MEMSET_CODE,
     lambda b, _, __: np.zeros_like(b),
     lambda b, _, __: b),
    (MEMCPY_CODE,
     lambda b, _, __: np.zeros_like(b),
     lambda b, _, __: b),
)


class OpTrace:
    """A per-step trace: one :class:`NodeTrace` per processed supernode,
    plus loose operations not tied to any node (e.g. solve sweeps)."""

    def __init__(self):
        self.nodes: Dict[int, NodeTrace] = {}
        self.loose: NodeTrace = NodeTrace(node_id=-1)

    def node(self, node_id: int, cols: int = 0,
             rows_below: int = 0) -> NodeTrace:
        trace = self.nodes.get(node_id)
        if trace is None:
            trace = NodeTrace(node_id=node_id, cols=cols,
                              rows_below=rows_below)
            self.nodes[node_id] = trace
        else:
            trace.cols = max(trace.cols, cols)
            trace.rows_below = max(trace.rows_below, rows_below)
        return trace

    def _all_traces(self) -> List[NodeTrace]:
        return list(self.nodes.values()) + [self.loose]

    @property
    def flops(self) -> int:
        return sum(t.flops for t in self._all_traces())

    @property
    def bytes_moved(self) -> int:
        return sum(t.bytes_moved for t in self._all_traces())

    def ops_by_kind(self) -> Dict[OpKind, int]:
        """Number of recorded ops per op kind (occurrence counts).

        For the flops+bytes weight each kind contributes (the Fig. 3
        breakdown's notion of size), use :meth:`weight_by_kind`.
        """
        counts = np.zeros(len(KINDS), dtype=np.int64)
        for trace in self._all_traces():
            codes = trace.kind_codes()
            if codes.size:
                counts += np.bincount(codes, minlength=len(KINDS))
        return {KINDS[i]: int(counts[i])
                for i in range(len(KINDS)) if counts[i]}

    def weight_by_kind(self) -> Dict[OpKind, int]:
        """Total flops+bytes weight per op kind (breakdown figures)."""
        weights = np.zeros(len(KINDS), dtype=np.int64)
        for trace in self._all_traces():
            codes = trace.kind_codes()
            if not codes.size:
                continue
            flops_i, bytes_i = trace._int_flops_bytes()
            weights += np.bincount(codes, weights=flops_i + bytes_i,
                                   minlength=len(KINDS)).astype(np.int64)
        return {KINDS[i]: int(weights[i])
                for i in range(len(KINDS)) if weights[i]}

    def __len__(self) -> int:
        return len(self.nodes)
