"""Platform cycle models: the one definition of a platform.

Every model is a frozen dataclass whose fields are its parameters; the
named platforms of the paper's evaluation are declared once, as model
values, in :mod:`repro.hardware.registry`.  Construction validates the
parameters (``ValueError`` naming the field), and the frozen type keeps
them fixed afterwards, so the one shared instance
:func:`~repro.hardware.registry.make_platform` hands out cannot be
re-priced by any caller.

All models implement two equivalent pricing paths over the trace
vocabulary of :class:`repro.linalg.trace.OpKind`:

* ``op_cycles(op) -> float`` — the scalar per-op reference, and
* ``price_ops(trace) -> np.ndarray`` — the vectorized path over a
  columnar :class:`~repro.linalg.trace.NodeTrace`, one cycle count per
  recorded op, bit-identical to calling ``op_cycles`` row by row
  (``tests/test_pricing_equivalence.py`` pins the two together).

Accelerators price only the ops they support; ``price_ops`` returns 0.0
on unsupported rows and ``supports_mask(trace)`` says which rows those
are (the scalar ``op_cycles`` raises instead).  ``pricing_key``
summarizes every parameter that affects pricing, so per-node lane totals
can be memoized across repeated repricings of the same trace
(:func:`repro.runtime.scheduler.node_cycles`).

Parameters are stated per model; `EXPERIMENTS.md` records how the
resulting latency ratios line up with the paper's Figure 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.linalg.trace import (
    GEMM_CODE,
    SCATTER_CODE,
    SYRK_CODE,
    KIND_CODE,
    KINDS,
    NodeTrace,
    Op,
    OpKind,
)


def _check(model, positive: Tuple[str, ...] = (),
           non_negative: Tuple[str, ...] = ()) -> None:
    """Raise ``ValueError`` naming the first field out of range (NaN is
    out of every range)."""
    for name in positive + non_negative:
        value = getattr(model, name)
        strict = name in positive
        if not (value > 0 if strict else value >= 0):
            raise ValueError(
                f"{type(model).__name__}.{name} must be "
                f"{'positive' if strict else 'non-negative'}, "
                f"got {value!r}")


@dataclass(frozen=True)
class CpuModel:
    """A general-purpose core executing every op in software.

    Parameters
    ----------
    name / frequency_hz:
        Identification and clock.
    flops_per_cycle:
        Sustained dense floating-point throughput (FMA counted as 2).
    mem_bytes_per_cycle:
        Streaming copy/set bandwidth from this core.
    call_overhead:
        Cycles of dispatch overhead per (BLAS-like) operation call.
    scatter_elems_per_cycle:
        Indexed scatter-add throughput (irregular accesses are slow).
    relin_cycles_per_factor / symbolic_cycles_per_column:
        Non-numeric work rates (Section 3.3 runs on the CPU everywhere).
    small_matrix_penalty:
        Degrades throughput when an op's inner dimension is tiny
        (pipeline startup; pronounced on in-order cores).
    """

    name: str
    frequency_hz: float
    flops_per_cycle: float
    mem_bytes_per_cycle: float
    call_overhead: float
    scatter_elems_per_cycle: float
    relin_cycles_per_factor: float
    symbolic_cycles_per_column: float
    small_matrix_penalty: float = 8.0

    def __post_init__(self) -> None:
        _check(self,
               positive=("frequency_hz", "flops_per_cycle",
                         "mem_bytes_per_cycle", "scatter_elems_per_cycle",
                         "relin_cycles_per_factor",
                         "symbolic_cycles_per_column"),
               non_negative=("call_overhead", "small_matrix_penalty"))

    def _throughput(self, op: Op) -> float:
        """Effective flops/cycle accounting for small-op startup."""
        inner = min(op.dims) if op.dims else 1
        # Ramp: tiny ops run near 1/penalty of peak, large ops at peak.
        ramp = inner / (inner + self.small_matrix_penalty)
        return max(self.flops_per_cycle * ramp, 0.25)

    def op_cycles(self, op: Op) -> float:
        if op.kind in (OpKind.MEMSET, OpKind.MEMCPY):
            return self.call_overhead + op.bytes_moved / \
                self.mem_bytes_per_cycle
        if op.kind is OpKind.SCATTER_ADD:
            rows, cols = op.dims
            return self.call_overhead + rows * cols / \
                self.scatter_elems_per_cycle
        return self.call_overhead + op.flops / self._throughput(op)

    def _throughput_array(self, trace: NodeTrace) -> np.ndarray:
        """Vectorized :meth:`_throughput` (one value per op)."""
        inner = trace.inner_dims()
        ramp = inner / (inner + self.small_matrix_penalty)
        return np.maximum(self.flops_per_cycle * ramp, 0.25)

    def price_ops(self, trace: NodeTrace) -> np.ndarray:
        """Per-op cycles for a whole trace (vectorized ``op_cycles``)."""
        cycles = self.call_overhead \
            + trace.flops_array() / self._throughput_array(trace)
        codes = trace.kind_codes()
        dims = trace.dims_matrix()
        scatter = codes == SCATTER_CODE
        if scatter.any():
            cycles[scatter] = self.call_overhead \
                + dims[scatter, 0] * dims[scatter, 1] \
                / self.scatter_elems_per_cycle
        memory = trace.memory_mask()
        if memory.any():
            cycles[memory] = self.call_overhead \
                + trace.bytes_array()[memory] / self.mem_bytes_per_cycle
        return cycles

    def _build_pricing_key(self) -> Tuple:
        return (type(self).__name__, self.name, self.flops_per_cycle,
                self.mem_bytes_per_cycle, self.call_overhead,
                self.scatter_elems_per_cycle, self.small_matrix_penalty)

    @cached_property
    def pricing_key(self) -> Tuple:
        """Hashable summary of every parameter ``price_ops`` reads
        (built once; the model is frozen)."""
        return self._build_pricing_key()

    def relin_cycles(self, num_factors: int) -> float:
        return self.relin_cycles_per_factor * num_factors

    def symbolic_cycles(self, num_columns: int) -> float:
        return self.symbolic_cycles_per_column * num_columns

    def seconds(self, cycles: float) -> float:
        return cycles / self.frequency_hz


@dataclass(frozen=True)
class GpuModel(CpuModel):
    """An embedded GPU: huge peak throughput, large per-kernel launch cost.

    ``call_overhead`` is the kernel launch cost per op, the defining
    effect: on small frontal matrices (CAB1) the GPU is no better than a
    mobile CPU (paper Section 6.1).  ``occupancy_saturation`` is the
    work-item count at which an op reaches peak throughput.
    """

    occupancy_saturation: float = 2048.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check(self, positive=("occupancy_saturation",))

    def _throughput(self, op: Op) -> float:
        if op.kind in (OpKind.GEMM, OpKind.SYRK):
            work_items = op.dims[0] * (op.dims[1] if len(op.dims) > 1 else 1)
        else:
            work_items = op.dims[0]
        occupancy = min(1.0, work_items / self.occupancy_saturation)
        return max(self.flops_per_cycle * occupancy, 1.0)

    def _throughput_array(self, trace: NodeTrace) -> np.ndarray:
        codes = trace.kind_codes()
        dims = trace.dims_matrix()
        work_items = dims[:, 0].astype(np.float64)
        planar = (codes == GEMM_CODE) | (codes == SYRK_CODE)
        if planar.any():
            work_items[planar] = dims[planar, 0] * dims[planar, 1]
        occupancy = np.minimum(1.0, work_items / self.occupancy_saturation)
        return np.maximum(self.flops_per_cycle * occupancy, 1.0)

    def _build_pricing_key(self) -> Tuple:
        return super()._build_pricing_key() + (self.occupancy_saturation,)


@dataclass(frozen=True)
class ComputeAccelerator:
    """COMP: systolic GEMM engine + transposer + Sparse Index Unroller.

    ``systolic_dim`` x ``systolic_dim`` fp32 MACs; double-buffered
    scratchpad hides loads behind compute for all but the smallest tiles.
    Triangular kernels (POTRF/TRSM) map to panel sequences with lower
    efficiency; the SIU packs block scatter-adds into single instructions.

    Two cycle models are provided: the default analytic model
    (``op_cycles``, per-kind efficiency over peak) used throughout the
    evaluation, and an explicit tiled Gemmini-style model
    (``op_cycles_detailed``) that walks output tiles and applies a
    scratchpad-capacity reload penalty — useful when studying tile-size
    or scratchpad trade-offs.

    ``kind_efficiency`` holds ``(OpKind.value, efficiency)`` pairs, in
    the hashable form ``pricing_key`` embeds.
    """

    systolic_dim: int = 4
    rocc_overhead: float = 40.0       # ReRoCC per-instruction dispatch
    pipeline_depth: float = 16.0      # array fill/drain latency
    scratchpad_bytes: int = 32 * 1024
    has_siu: bool = True
    siu_elems_per_cycle: float = 8.0  # packed scatter throughput
    kind_efficiency: Tuple[Tuple[str, float], ...] = (
        (OpKind.GEMM.value, 0.90),
        (OpKind.GEMV.value, 0.50),
        (OpKind.POTRF.value, 0.30),
        (OpKind.SYRK.value, 0.80),
        (OpKind.TRSM.value, 0.55),
        (OpKind.TRSV.value, 0.40),
    )

    def __post_init__(self) -> None:
        _check(self,
               positive=("systolic_dim", "scratchpad_bytes",
                         "siu_elems_per_cycle"),
               non_negative=("rocc_overhead", "pipeline_depth"))
        for kind, eff in self.kind_efficiency:
            if not eff > 0:
                raise ValueError(
                    f"ComputeAccelerator.kind_efficiency[{kind!r}] must "
                    f"be positive, got {eff!r}")

    @cached_property
    def _efficiency(self) -> Dict[OpKind, float]:
        """``kind_efficiency`` keyed by :class:`OpKind` (scalar path)."""
        return {OpKind(kind): eff for kind, eff in self.kind_efficiency}

    @property
    def macs_per_cycle(self) -> float:
        return float(self.systolic_dim * self.systolic_dim)

    def op_cycles(self, op: Op) -> float:
        if op.kind is OpKind.SCATTER_ADD:
            rows, cols = op.dims
            if self.has_siu:
                # One packed instruction per block row group.
                packed_calls = max(1.0, rows / self.systolic_dim)
                return (self.rocc_overhead
                        + packed_calls
                        + rows * cols / self.siu_elems_per_cycle)
            raise ValueError("COMP without SIU cannot scatter")
        if op.kind in (OpKind.MEMSET, OpKind.MEMCPY):
            raise ValueError("COMP does not execute memory ops")
        eff = self._efficiency[op.kind]
        # flops at 2 per MAC; pipeline fill per tile pass.
        tiles = max(1.0, op.dims[0] / self.systolic_dim)
        return (self.rocc_overhead
                + op.flops / (2.0 * self.macs_per_cycle * eff)
                + self.pipeline_depth * tiles)

    def supports(self, op: Op) -> bool:
        if op.kind is OpKind.SCATTER_ADD:
            return self.has_siu
        return not op.is_memory_op

    def supports_mask(self, trace: NodeTrace) -> np.ndarray:
        """Boolean column: ops this COMP tile can execute (read-only:
        the SIU case shares the trace's cached compute mask)."""
        supported = trace.compute_mask()
        if not self.has_siu:
            supported = supported & (trace.kind_codes() != SCATTER_CODE)
        return supported

    @cached_property
    def _denominators(self) -> np.ndarray:
        """``2 * macs_per_cycle * efficiency`` per kind code (NaN where
        the kind has no efficiency entry, so a missing kind prices to NaN
        — as loudly wrong as the scalar path's ``KeyError``)."""
        eff = np.full(len(KINDS), np.nan)
        for kind, value in self._efficiency.items():
            eff[KIND_CODE[kind]] = value
        return (2.0 * self.macs_per_cycle) * eff

    def price_ops(self, trace: NodeTrace) -> np.ndarray:
        """Per-op cycles, 0.0 on rows :meth:`supports_mask` excludes."""
        codes = trace.kind_codes()
        dims = trace.dims_matrix()
        tiles = np.maximum(1.0, dims[:, 0] / self.systolic_dim)
        # NaN denominators propagate silently (finite / NaN -> NaN): no
        # errstate guard needed.
        cycles = (self.rocc_overhead
                  + trace.flops_array() / self._denominators[codes]
                  + self.pipeline_depth * tiles)
        scatter = codes == SCATTER_CODE
        if scatter.any():
            if self.has_siu:
                sd = dims[scatter]
                rows, cols = sd[:, 0], sd[:, 1]
                packed_calls = np.maximum(1.0, rows / self.systolic_dim)
                cycles[scatter] = (self.rocc_overhead
                                   + packed_calls
                                   + rows * cols / self.siu_elems_per_cycle)
            else:
                cycles[scatter] = 0.0
        cycles[trace.memory_mask()] = 0.0
        return cycles

    @cached_property
    def pricing_key(self) -> Tuple:
        return ("COMP", self.systolic_dim, self.rocc_overhead,
                self.pipeline_depth, self.has_siu, self.siu_elems_per_cycle,
                self.kind_efficiency)

    # -- explicit tiled model ------------------------------------------

    def _tiled_gemm_cycles(self, m: int, n: int, k: int) -> float:
        """Weight-stationary tiled GEMM: one k-deep pass per output tile.

        Double buffering hides operand loads except the first fill; when
        a pass's working set exceeds the scratchpad, operands spill to
        the LLC, stretching every pass.
        """
        tile = self.systolic_dim
        passes = math.ceil(max(1, m) / tile) * math.ceil(max(1, n) / tile)
        working = 4 * (2 * tile * max(1, k) + tile * tile)
        reload = max(1.0, working / self.scratchpad_bytes)
        fill = float(tile)  # first weight load (not hidden)
        return (self.rocc_overhead + fill
                + passes * (max(1, k) + self.pipeline_depth) * reload)

    def op_cycles_detailed(self, op: Op) -> float:
        """Tile-walking cycle model (see class docstring)."""
        kind, dims = op.kind, op.dims
        tile = self.systolic_dim
        if kind is OpKind.GEMM:
            m, n, k = dims
            return self._tiled_gemm_cycles(m, n, k)
        if kind is OpKind.SYRK:
            n, k = dims
            # Only the lower-triangular output tiles are computed.
            nt = math.ceil(max(1, n) / tile)
            full = self._tiled_gemm_cycles(n, n, k)
            tri_fraction = (nt + 1) / (2 * nt)
            return self.rocc_overhead \
                + (full - self.rocc_overhead) * tri_fraction
        if kind is OpKind.TRSM:
            n, m = dims
            # Panel loop: per diagonal tile a sequential triangular
            # solve, then a GEMM update of the remaining panel columns.
            mt = math.ceil(max(1, m) / tile)
            cycles = self.rocc_overhead
            for panel in range(mt):
                cycles += tile * tile
                if m - (panel + 1) * tile > 0:
                    cycles += self._tiled_gemm_cycles(n, tile, tile) \
                        - self.rocc_overhead
            cycles += n * m / (2.0 * self.macs_per_cycle)
            return cycles
        if kind is OpKind.POTRF:
            (m,) = dims
            mt = math.ceil(max(1, m) / tile)
            cycles = self.rocc_overhead
            for panel in range(mt):
                cycles += 2.0 * tile * tile  # diagonal factorization
                trailing = m - (panel + 1) * tile
                if trailing > 0:
                    # Panel TRSM plus (half) trailing SYRK update.
                    cycles += self._tiled_gemm_cycles(
                        trailing, tile, tile) - self.rocc_overhead
                    cycles += (self._tiled_gemm_cycles(
                        trailing, trailing, tile)
                        - self.rocc_overhead) / 2.0
            return cycles
        if kind in (OpKind.TRSV, OpKind.GEMV):
            # Vector kernels run on the array edge: bandwidth bound.
            return self.rocc_overhead + op.flops / (2.0 * tile)
        return self.op_cycles(op)


@dataclass(frozen=True)
class MemoryAccelerator:
    """MEM: DMA engine for memcpy/memset."""

    bytes_per_cycle: float = 32.0
    setup_overhead: float = 20.0      # VC configuration + request issue

    def __post_init__(self) -> None:
        _check(self, positive=("bytes_per_cycle",),
               non_negative=("setup_overhead",))

    def op_cycles(self, op: Op) -> float:
        if not op.is_memory_op:
            raise ValueError("MEM only executes memory ops")
        return self.setup_overhead + op.bytes_moved / self.bytes_per_cycle

    def supports(self, op: Op) -> bool:
        return op.is_memory_op

    def supports_mask(self, trace: NodeTrace) -> np.ndarray:
        return trace.memory_mask()

    def price_ops(self, trace: NodeTrace) -> np.ndarray:
        """Per-op cycles, 0.0 on non-memory rows."""
        memory = trace.memory_mask()
        cycles = np.zeros(len(memory), dtype=np.float64)
        cycles[memory] = self.setup_overhead \
            + trace.bytes_array()[memory] / self.bytes_per_cycle
        return cycles

    @cached_property
    def pricing_key(self) -> Tuple:
        return ("MEM", self.bytes_per_cycle, self.setup_overhead)


@dataclass(frozen=True)
class SoCConfig:
    """A complete evaluated platform (paper Table 3 for SuperNoVA).

    ``accel_sets`` pairs of (COMP, MEM) share the LLC with ``host`` CPU
    tiles.  Baseline CPU/GPU platforms use ``accel_sets=0`` and run every
    op on the host.
    """

    name: str
    host: CpuModel
    accel_sets: int = 0
    cpu_tiles: int = 1
    comp: Optional[ComputeAccelerator] = None
    mem: Optional[MemoryAccelerator] = None
    llc_bytes: int = 4 * 1024 * 1024
    dram_bytes_per_cycle: float = 64.0
    frequency_hz: float = 1.0e9

    def __post_init__(self) -> None:
        _check(self,
               positive=("cpu_tiles", "llc_bytes", "dram_bytes_per_cycle",
                         "frequency_hz"),
               non_negative=("accel_sets",))

    @property
    def has_accelerators(self) -> bool:
        return self.accel_sets > 0 and self.comp is not None

    @property
    def offloads_memory_ops(self) -> bool:
        return self.has_accelerators and self.mem is not None

    @cached_property
    def pricing_key(self) -> Tuple:
        """Everything that determines how this SoC prices a single op.

        Two SoCs with equal keys produce identical per-node lane totals,
        so :func:`repro.runtime.scheduler.node_cycles` reuses cached
        totals across every platform that prices alike — the SuperNoVA
        family members differ only in set counts, and autotuner designs
        in LLC size, DRAM bandwidth or CPU tiles.  Those affect
        scheduling, not per-op pricing, and are deliberately excluded.
        """
        return (self.host.pricing_key,
                self.has_accelerators,
                self.comp.pricing_key if self.has_accelerators else None,
                self.mem.pricing_key if self.offloads_memory_ops else None)

    def seconds(self, cycles: float) -> float:
        return cycles / self.frequency_hz
