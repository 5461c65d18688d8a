"""Named platform registry: every evaluated platform, declared once.

Each platform of the paper's evaluation (Sections 5.1/5.4) is one frozen
:class:`~repro.hardware.platforms.SoCConfig` value below; nothing else
in the package restates its parameters.  ``tests/fixtures/platforms.json``
pins every named platform's ``pricing_key``, wiring and priced lane
totals.

Usage::

    from repro.hardware.registry import make_platform

    soc  = make_platform("SuperNoVA2S")                  # named
    big  = make_platform("SuperNoVA8S")                  # parametric family
    wide = make_platform("SuperNoVA2S", systolic_dim=8)  # overridden

Overrides accept every :class:`SoCConfig` field plus the COMP fields
(``systolic_dim``, ``scratchpad_bytes``, ``has_siu``, ...); see
:func:`repro.hardware.spec.apply_overrides`.  Equal requests return one
shared instance (:func:`repro.hardware.spec.realize`).  Registering a
new platform is one :func:`register_platform` call with a
:class:`SoCConfig` (docs/architecture.md shows a full example).
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List

from repro.hardware.platforms import (
    ComputeAccelerator,
    CpuModel,
    GpuModel,
    MemoryAccelerator,
    SoCConfig,
)
from repro.hardware.spec import apply_overrides, realize

#: In-order Rocket host tile of the SuperNoVA and Spatula SoCs.
ROCKET_HOST = CpuModel(
    "Rocket", 1.0e9, flops_per_cycle=1.0, mem_bytes_per_cycle=8.0,
    call_overhead=20.0, scatter_elems_per_cycle=0.5,
    relin_cycles_per_factor=2200.0, symbolic_cycles_per_column=350.0,
    small_matrix_penalty=6.0)


def _supernova(accel_sets: int) -> SoCConfig:
    """The SuperNoVA SoC (paper Table 3): COMP+MEM sets + Rocket hosts."""
    return SoCConfig(
        f"SuperNoVA{accel_sets}S", host=ROCKET_HOST, accel_sets=accel_sets,
        cpu_tiles=accel_sets, comp=ComputeAccelerator(has_siu=True),
        mem=MemoryAccelerator())


def _spatula(accel_sets: int) -> SoCConfig:
    """Spatula baseline: GEMM-only accelerators, no SIU, no MEM tile.

    Scatter and memory management fall back on the Rocket host and
    serialize with compute (paper Section 6.1's co-design comparison).
    """
    return SoCConfig(
        f"Spatula{accel_sets}S", host=ROCKET_HOST, accel_sets=accel_sets,
        cpu_tiles=accel_sets, comp=ComputeAccelerator(has_siu=False))


def _host_only(host: CpuModel) -> SoCConfig:
    """A baseline platform running every op on its host at its clock."""
    return SoCConfig(host.name, host=host, frequency_hz=host.frequency_hz)


_NAMED: Dict[str, SoCConfig] = {soc.name: soc for soc in (
    # Out-of-order RISC-V core, Cortex-A72-class, 1 GHz (baseline 1).
    _host_only(CpuModel(
        "BOOM", 1.0e9, flops_per_cycle=2.0, mem_bytes_per_cycle=8.0,
        call_overhead=25.0, scatter_elems_per_cycle=1.0,
        relin_cycles_per_factor=2500.0, symbolic_cycles_per_column=500.0,
        small_matrix_penalty=4.0)),
    # ARM Cortex-A72 at 1.5 GHz on a Raspberry Pi 4 (baseline 2).
    _host_only(CpuModel(
        "MobileCPU", 1.5e9, flops_per_cycle=2.0, mem_bytes_per_cycle=8.0,
        call_overhead=30.0, scatter_elems_per_cycle=1.0,
        relin_cycles_per_factor=2600.0, symbolic_cycles_per_column=520.0,
        small_matrix_penalty=4.0)),
    # Neon SIMD on the mobile CPU (baseline 3): 4-wide fp32 FMA.
    _host_only(CpuModel(
        "MobileDSP", 1.5e9, flops_per_cycle=8.0, mem_bytes_per_cycle=16.0,
        call_overhead=40.0, scatter_elems_per_cycle=2.0,
        relin_cycles_per_factor=2200.0, symbolic_cycles_per_column=520.0,
        small_matrix_penalty=10.0)),
    # Intel Xeon E5-2643 at 3.5 GHz (baseline 4): wide AVX, deep OoO.
    _host_only(CpuModel(
        "ServerCPU", 3.5e9, flops_per_cycle=7.0, mem_bytes_per_cycle=24.0,
        call_overhead=60.0, scatter_elems_per_cycle=2.5,
        relin_cycles_per_factor=1100.0, symbolic_cycles_per_column=300.0,
        small_matrix_penalty=18.0)),
    # Jetson Nano Maxwell GPU (baseline 5), cuSolver-style: the A57 host
    # handles non-numeric work and every numeric op pays a kernel launch,
    # amortized over batched/streamed kernels rather than a full
    # synchronous launch each time.
    _host_only(GpuModel(
        "EmbeddedGPU", 0.92e9, flops_per_cycle=256.0,
        mem_bytes_per_cycle=28.0, call_overhead=400.0,
        scatter_elems_per_cycle=8.0, relin_cycles_per_factor=2400.0,
        symbolic_cycles_per_column=600.0, occupancy_saturation=2048.0)),
)}

#: Parametric families: ``SuperNoVA{n}S`` / ``Spatula{n}S`` resolve for
#: any set count, so the registry covers the whole configurable axis the
#: paper claims, not just the three evaluated points.
_FAMILIES: Dict[str, Callable[[int], SoCConfig]] = {
    "SuperNoVA": _supernova,
    "Spatula": _spatula,
}
_FAMILY_RE = re.compile(r"^(?P<family>[A-Za-z]+)(?P<sets>\d+)S$")


def register_platform(soc: SoCConfig) -> None:
    """Add (or replace) a named platform in the registry."""
    _NAMED[soc.name] = soc


def platform_names() -> List[str]:
    """Registered names plus the evaluated family members (sorted)."""
    names = set(_NAMED)
    names.update(f"{family}{n}S" for family in _FAMILIES
                 for n in (1, 2, 4))
    return sorted(names)


def make_platform(name: str, **overrides) -> SoCConfig:
    """The named (or family-parametric) platform with ``overrides``
    applied; equal requests return one shared instance."""
    soc = _NAMED.get(name)
    if soc is None:
        match = _FAMILY_RE.match(name)
        if match and match.group("family") in _FAMILIES:
            soc = _FAMILIES[match.group("family")](int(match.group("sets")))
    if soc is None:
        raise KeyError(
            f"unknown platform {name!r}; known: {platform_names()}")
    return realize(apply_overrides(soc, **overrides))
