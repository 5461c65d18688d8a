"""Area model: the paper's Table 5 (16 nm synthesis results).

These are design-time constants from the paper's physical design run
(Cadence Genus, commercial 16 nm).  The derived claim reproduced by the
area bench: one Rocket CPU tile + one COMP tile + one MEM tile occupy 40%
of a BOOM core, so 2 accelerator sets + 2 CPUs ~= 80% of one BOOM.

On top of the Table 5 constants sits the *parametric* model the
design-space autotuner prices configurations with: the MAC mesh scales
quadratically with the systolic array dimension, the scratchpad +
accumulator SRAM scales linearly with its capacity, and the Sparse Index
Unit is present only when the platform enables it.  At the published design
point (4x4 array, 32 KiB scratchpad, SIU on) the parametric COMP tile
equals Table 5's exactly.  The scope is the tile complex (CPU tiles +
accelerator sets); the shared uncore (LLC, DRAM controller) is common to
every configuration and excluded, as in Table 5.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:
    from repro.hardware.platforms import SoCConfig

# Component -> area in um^2 (paper Table 5).
AREA_TABLE: Dict[str, float] = {
    "rocket_cpu_tile": 151_000.0,
    "comp_tile": 301_000.0,
    "comp_rerocc_manager": 20_000.0,
    "comp_accelerator": 281_000.0,
    "comp_mesh": 92_000.0,
    "comp_scratchpad_accumulator": 86_000.0,
    "comp_sparse_index_unit": 9_000.0,
    "mem_tile": 51_000.0,
    "mem_rerocc_manager": 20_000.0,
    "mem_accelerator": 31_000.0,
    "boom_baseline": 1_262_000.0,
}


def accelerator_set_area() -> float:
    """One COMP tile + one MEM tile."""
    return AREA_TABLE["comp_tile"] + AREA_TABLE["mem_tile"]


def supernova_area(accel_sets: int = 1, cpu_tiles: int = 1) -> float:
    """Total area of a SuperNoVA configuration."""
    return (cpu_tiles * AREA_TABLE["rocket_cpu_tile"]
            + accel_sets * accelerator_set_area())


def area_summary(accel_sets: int = 1, cpu_tiles: int = 1) -> Dict[str, float]:
    """Area of the configuration and its fraction of a BOOM core."""
    total = supernova_area(accel_sets, cpu_tiles)
    return {
        "total_um2": total,
        "boom_um2": AREA_TABLE["boom_baseline"],
        "fraction_of_boom": total / AREA_TABLE["boom_baseline"],
    }


# ----------------------------------------------------------------------
# Parametric model (design-space pricing)
# ----------------------------------------------------------------------

#: The synthesized design point the Table 5 numbers describe.
_BASE_SYSTOLIC_DIM = 4
_BASE_SCRATCHPAD_BYTES = 32 * 1024


def comp_tile_area(systolic_dim: int = _BASE_SYSTOLIC_DIM,
                   scratchpad_bytes: int = _BASE_SCRATCHPAD_BYTES,
                   has_siu: bool = True) -> float:
    """COMP tile area as a function of its parameters.

    The mesh (MAC array) grows quadratically with the array dimension,
    the scratchpad/accumulator SRAM linearly with capacity; control
    (ReRoCC manager, sequencers) stays constant.  Defaults reproduce
    Table 5's 301,000 um^2 exactly.
    """
    area = AREA_TABLE["comp_tile"]
    mesh = AREA_TABLE["comp_mesh"]
    area += mesh * (systolic_dim / _BASE_SYSTOLIC_DIM) ** 2 - mesh
    spad = AREA_TABLE["comp_scratchpad_accumulator"]
    area += spad * (scratchpad_bytes / _BASE_SCRATCHPAD_BYTES) - spad
    if not has_siu:
        area -= AREA_TABLE["comp_sparse_index_unit"]
    return area


def platform_area(soc: "SoCConfig") -> float:
    """Tile-complex area (um^2) of a platform.

    ``cpu_tiles`` Rocket tiles plus ``accel_sets`` accelerator sets
    (parametric COMP + MEM each).  For platforms without accelerators
    the host is not a Rocket tile and Table 5 has no entry for it; only
    the BOOM baseline is tabulated, so that is the one CPU-only area we
    can report.
    """
    if not soc.has_accelerators:
        if soc.name == "BOOM":
            return AREA_TABLE["boom_baseline"]
        raise ValueError(
            f"no Table 5 area for CPU/GPU platform {soc.name!r}")
    comp = soc.comp
    per_set = comp_tile_area(comp.systolic_dim, comp.scratchpad_bytes,
                             comp.has_siu)
    if soc.mem is not None:
        per_set += AREA_TABLE["mem_tile"]
    return (soc.cpu_tiles * AREA_TABLE["rocket_cpu_tile"]
            + soc.accel_sets * per_set)
