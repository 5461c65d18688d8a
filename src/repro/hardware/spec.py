"""Platform overrides and interning (paper Section 4.2).

The paper's configurability claim — "SoC components, including the
accelerator configuration and the number of accelerators and CPU tiles,
are all configurable at design time" — is expressed as data: a platform
is one frozen :class:`~repro.hardware.platforms.SoCConfig` value, and a
design variant is that value with some fields replaced
(:func:`apply_overrides`).

:func:`realize` interns platforms: equal configurations share one
instance, so its cached ``pricing_key`` is built once and the per-trace
lane memoization in :func:`repro.runtime.scheduler.node_cycles` hits
across every call site that asks for the same platform.  The named
platforms live in :mod:`repro.hardware.registry`.
"""

from __future__ import annotations

from dataclasses import fields, replace
from functools import lru_cache

from repro.hardware.platforms import ComputeAccelerator, SoCConfig

_SOC_FIELDS = frozenset(f.name for f in fields(SoCConfig))
_COMP_FIELDS = frozenset(f.name for f in fields(ComputeAccelerator))


def apply_overrides(soc: SoCConfig, **overrides) -> SoCConfig:
    """Return ``soc`` with override fields replaced.

    :class:`SoCConfig` field names replace directly (``accel_sets=4``,
    ``llc_bytes=1 << 20``, ``host=CpuModel(...)``);
    :class:`ComputeAccelerator` field names (``systolic_dim``,
    ``scratchpad_bytes``, ``has_siu``, ...) are routed into the COMP
    model, which must exist.  Unknown keys raise ``TypeError``; values
    out of range raise ``ValueError`` from the models' checks.
    """
    top = {k: v for k, v in overrides.items() if k in _SOC_FIELDS}
    comp = {k: v for k, v in overrides.items() if k in _COMP_FIELDS}
    unknown = set(overrides) - set(top) - set(comp)
    if unknown:
        raise TypeError(
            f"unknown platform override(s) {sorted(unknown)}; valid keys "
            f"are {sorted(_SOC_FIELDS | _COMP_FIELDS)}")
    if comp:
        base_comp = top.get("comp", soc.comp)
        if base_comp is None:
            raise TypeError(
                f"overrides {sorted(comp)} target the COMP model, but "
                f"platform {soc.name!r} has no COMP accelerator")
        top["comp"] = replace(base_comp, **comp)
    return replace(soc, **top) if top else soc


@lru_cache(maxsize=None)
def realize(soc: SoCConfig) -> SoCConfig:
    """The one shared instance equal to ``soc`` (interning)."""
    return soc
