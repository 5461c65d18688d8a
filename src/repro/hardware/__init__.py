"""Cycle-level hardware models (the substitution for FireSim RTL sim).

Every platform maps a traced operation (:class:`repro.linalg.trace.Op`) to
a cycle count.  The models capture the first-order effects the paper's
evaluation hinges on:

* COMP: a 4x4 fp32 weight-stationary systolic array with double-buffered
  scratchpad and a Sparse Index Unroller for block scatter (Section 4.2.1),
* MEM: a DMA engine for memcpy/memset (4.2.2),
* CPUs: scalar/SIMD cores with per-call overheads (BOOM, Rocket host,
  mobile A72, Neon DSP, server Xeon),
* GPU: an embedded Maxwell-class part with kernel-launch overhead that
  dominates small problems,
* Spatula: a GEMM-only accelerator whose scatter and memory management
  stay on the host CPU (Section 5.4 baseline 6).

The models are frozen dataclasses and the only platform definition;
each named platform is declared once in :mod:`repro.hardware.registry`
and obtained with :func:`make_platform`.
"""

from repro.hardware.platforms import (
    ComputeAccelerator,
    CpuModel,
    GpuModel,
    MemoryAccelerator,
    SoCConfig,
)
from repro.hardware.area import (
    AREA_TABLE,
    area_summary,
    comp_tile_area,
    platform_area,
)
from repro.hardware.power import PowerModel, peak_watts
from repro.hardware.spec import realize
from repro.hardware.registry import (
    make_platform,
    platform_names,
    register_platform,
)

__all__ = [
    "ComputeAccelerator",
    "MemoryAccelerator",
    "CpuModel",
    "GpuModel",
    "SoCConfig",
    "AREA_TABLE",
    "area_summary",
    "comp_tile_area",
    "platform_area",
    "PowerModel",
    "peak_watts",
    "realize",
    "make_platform",
    "platform_names",
    "register_platform",
]
