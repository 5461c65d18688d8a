"""Trace-replay design-space autotuner over the platform registry.

``benchmarks/test_design_space.py`` used to explore 9 hand-picked
configurations; this module sweeps thousands.  The enabling observation
is that the design axes *factor* through the pricing/scheduling split of
the runtime:

* per-op pricing depends only on the accelerator models
  (``SoCConfig.pricing_key``) — on the systolic array dimension here;
  accelerator sets, LLC size, DRAM bandwidth and CPU tiles never touch
  it.  Per-node lane totals are memoized on the traces themselves
  (:func:`repro.runtime.scheduler.node_cycles`), so a 1024-point grid
  with four distinct array dims prices the workload four times, not
  1024 times.
* the event-driven schedule (:func:`repro.runtime.scheduler
  .simulate_tree`) depends on ``(dim, sets, llc, dram)`` only — the
  grid collapses to one replay per distinct combination.
* ``cpu_tiles`` only divides the embarrassingly-parallel
  relinearization (see :func:`repro.runtime.executor.execute_step`), so
  that axis is expanded in closed form per configuration.

The latency/area/energy Pareto front is computed with the vectorized
dominance kernel :func:`pareto_mask` (which also replaced the old
O(n^2) Python loop in ``experiments/design_space.py``), and
:meth:`AutotuneResult.best_under` answers the co-design question the
paper poses: the fastest configuration within an area/power budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.area import platform_area
from repro.hardware.power import PowerModel, peak_watts
from repro.hardware.platforms import SoCConfig
from repro.hardware.registry import make_platform
from repro.linalg.trace import NodeTrace, concat_node_traces
from repro.runtime.executor import host_terms
from repro.runtime.scheduler import RuntimeFeatures, simulate_tree

#: Table 3 values of the non-accelerator axes; grids place these at the
#: top of their ranges so the published design point is always swept.
DEFAULT_LLC_BYTES = 4 * 1024 * 1024
DEFAULT_DRAM_BYTES_PER_CYCLE = 64.0


@dataclass(frozen=True)
class DesignPoint:
    """One configuration of the constrained design grid."""

    systolic_dim: int = 4
    accel_sets: int = 2
    cpu_tiles: int = 2
    llc_bytes: int = DEFAULT_LLC_BYTES
    dram_bytes_per_cycle: float = DEFAULT_DRAM_BYTES_PER_CYCLE

    def spec(self) -> SoCConfig:
        """The SuperNoVA-family platform of this configuration."""
        return make_platform(
            f"SuperNoVA{self.accel_sets}S",
            systolic_dim=self.systolic_dim,
            cpu_tiles=self.cpu_tiles,
            llc_bytes=self.llc_bytes,
            dram_bytes_per_cycle=self.dram_bytes_per_cycle)

    @property
    def schedule_key(self) -> Tuple[int, int, int, float]:
        """The axes the numeric schedule actually depends on."""
        return (self.systolic_dim, self.accel_sets, self.llc_bytes,
                self.dram_bytes_per_cycle)

    @property
    def label(self) -> str:
        return (f"{self.systolic_dim}x{self.systolic_dim} "
                f"{self.accel_sets}S {self.cpu_tiles}T "
                f"{self.llc_bytes // 1024}K "
                f"{self.dram_bytes_per_cycle:g}B/c")


def default_grid(
    systolic_dims: Sequence[int] = (2, 4, 8, 16),
    set_counts: Sequence[int] = (1, 2, 3, 4),
    tile_counts: Sequence[int] = (1, 2, 3, 4),
    llc_sizes: Sequence[int] = (512 * 1024, 1024 * 1024,
                                2 * 1024 * 1024, DEFAULT_LLC_BYTES),
    dram_bandwidths: Sequence[float] = (8.0, 16.0, 32.0,
                                        DEFAULT_DRAM_BYTES_PER_CYCLE),
) -> List[DesignPoint]:
    """The constrained 4^5 = 1024-point grid (paper Section 4.2 axes).

    Defaults keep Table 3's LLC size and DRAM bandwidth as the maxima of
    their axes, so every legacy 9-point configuration appears in the
    grid at the (llc, dram) corner.
    """
    return [
        DesignPoint(dim, sets, tiles, llc, dram)
        for dim in systolic_dims
        for sets in set_counts
        for tiles in tile_counts
        for llc in llc_sizes
        for dram in dram_bandwidths
    ]


@dataclass
class RecordedWorkload:
    """The replayable part of an online run.

    Holds the per-step :class:`~repro.solvers.base.StepReport` objects
    (traces, dependency trees, relinearization/symbolic counts); the
    solver never re-runs during a sweep — only pricing and scheduling
    do.
    """

    name: str
    steps: List  # StepReport, duck-typed to avoid a solvers dependency

    @classmethod
    def from_run(cls, run) -> "RecordedWorkload":
        """Wrap an :class:`~repro.pipeline.OnlineRun`'s reports."""
        return cls(name=getattr(run, "dataset", "run"),
                   steps=list(run.reports))

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def num_nodes(self) -> int:
        return sum(len(r.trace.nodes) for r in self.steps
                   if r.trace is not None)


def pareto_mask(objectives: np.ndarray, chunk: int = 128) -> np.ndarray:
    """Boolean mask of non-dominated rows (every column minimized).

    Vectorized dominance: for each chunk of candidate rows the whole
    point set is broadcast against it and
    ``dominated[i] = any_j((obj_j <= obj_i).all() & (obj_j < obj_i).any())``.
    Equal rows never dominate each other (no strict coordinate), the
    same tie semantics as the O(n^2) Python loop this replaces.
    """
    obj = np.ascontiguousarray(np.asarray(objectives, dtype=np.float64))
    if obj.ndim != 2:
        raise ValueError("objectives must be a 2-D (points, metrics) array")
    n = obj.shape[0]
    keep = np.ones(n, dtype=bool)
    for start in range(0, n, chunk):
        block = obj[start:start + chunk]                    # (b, m)
        le = (obj[None, :, :] <= block[:, None, :]).all(axis=2)
        lt = (obj[None, :, :] < block[:, None, :]).any(axis=2)
        keep[start:start + chunk] = ~(le & lt).any(axis=1)
    return keep


@dataclass
class AutotuneResult:
    """Outcome of one grid sweep: metrics per point + the Pareto front."""

    workload: str
    points: List[DesignPoint]
    total_seconds: np.ndarray
    numeric_seconds: np.ndarray
    area_um2: np.ndarray
    energy_joules: np.ndarray
    peak_power_watts: np.ndarray
    pareto: np.ndarray
    distinct_pricings: int
    distinct_schedules: int

    @property
    def num_configs(self) -> int:
        return len(self.points)

    def front(self) -> List[DesignPoint]:
        """Non-dominated points in (total latency, area, energy)."""
        return [p for p, keep in zip(self.points, self.pareto) if keep]

    def front_indices(self) -> List[int]:
        return [int(i) for i in np.flatnonzero(self.pareto)]

    def index_of(self, point: DesignPoint) -> int:
        return self.points.index(point)

    def best_under(self, max_area_um2: Optional[float] = None,
                   max_power_watts: Optional[float] = None,
                   ) -> Optional[int]:
        """Index of the fastest configuration within the given budgets.

        ``None`` when no configuration satisfies them.  Power is the
        worst-case draw: every accelerator set at its SYRK peak
        (:func:`repro.hardware.power.peak_watts`).
        """
        ok = np.ones(self.num_configs, dtype=bool)
        if max_area_um2 is not None:
            ok &= self.area_um2 <= max_area_um2
        if max_power_watts is not None:
            ok &= self.peak_power_watts <= max_power_watts
        if not ok.any():
            return None
        candidates = np.flatnonzero(ok)
        return int(candidates[np.argmin(self.total_seconds[candidates])])


def autotune(workload: RecordedWorkload,
             grid: Optional[Sequence[DesignPoint]] = None,
             features: Optional[RuntimeFeatures] = None,
             log: Optional[Callable[[str], None]] = None,
             ) -> AutotuneResult:
    """Sweep ``grid`` (default: :func:`default_grid`) over the workload.

    Per configuration the latency is what
    :func:`repro.runtime.executor.execute_step` would report — the
    scheduled numeric factorization plus the host-side terms of
    :func:`~repro.runtime.executor.host_terms`, the formula the
    executor itself prices them with — but computed with the
    collapses described in the module docstring, so thousands of
    configurations cost a handful of pricings plus one schedule replay
    per distinct ``(dim, sets, llc, dram)``.
    """
    points = list(grid) if grid is not None else default_grid()
    if not points:
        raise ValueError("empty design grid")
    features = features if features is not None else RuntimeFeatures.all()
    reports = workload.steps

    # Every SuperNoVA-family config shares the Rocket host, so the
    # host-side terms are priced once; only relinearization depends on
    # a configuration, through its CPU tile count.
    base = points[0].spec()
    terms = [host_terms(base, affected_columns=r.affected_columns,
                        selection_visits=r.selection_visits, trace=r.trace)
             for r in reports]
    fixed_seconds = sum(t.symbolic + t.overhead for t in terms)

    relin_by_tiles: Dict[int, float] = {}

    def relin_seconds(point: DesignPoint) -> float:
        val = relin_by_tiles.get(point.cpu_tiles)
        if val is None:
            soc = point.spec()
            val = sum(host_terms(soc, r.relinearized_factors).relinearization
                      for r in reports)
            relin_by_tiles[point.cpu_tiles] = val
        return val

    merged: Optional[NodeTrace] = None

    def merged_trace() -> NodeTrace:
        nonlocal merged
        if merged is None:
            traces = [t for r in reports if r.trace is not None
                      for t in r.trace.nodes.values() if t.num_ops]
            merged = concat_node_traces(traces) if traces \
                else NodeTrace(node_id=-1)
        return merged

    # -- schedule collapse: one replay per distinct (dim, sets, llc,
    # dram); pricing collapses further inside node_cycles' lane memo.
    numeric_by_key: Dict[Tuple, float] = {}
    energy_by_dim: Dict[int, float] = {}
    pricing_keys = set()
    for point in points:
        key = point.schedule_key
        if key in numeric_by_key:
            continue
        soc = replace(point, cpu_tiles=1).spec()
        pricing_keys.add(soc.pricing_key)
        seconds = 0.0
        for report, term in zip(reports, terms):
            if report.trace is None or not report.trace.nodes:
                makespan = 0.0
            else:
                makespan = simulate_tree(
                    report.trace.nodes, report.node_parents or {},
                    soc, features).makespan_cycles
            seconds += soc.seconds(makespan + term.loose_cycles)
        numeric_by_key[key] = seconds
        dim = point.systolic_dim
        if dim not in energy_by_dim:
            trace = merged_trace()
            if trace.num_ops == 0:
                energy_by_dim[dim] = 0.0
            else:
                cycles = (soc.comp.price_ops(trace)
                          + soc.mem.price_ops(trace))
                model = PowerModel(peak_watts(dim),
                                   frequency_hz=soc.frequency_hz)
                energy_by_dim[dim] = model.columnar_energy(trace, cycles)
        if log is not None:
            log(f"scheduled {len(numeric_by_key)} distinct "
                f"(dim, sets, llc, dram) keys")

    area_by_key: Dict[Tuple[int, int, int], float] = {}

    def area(point: DesignPoint) -> float:
        key = (point.systolic_dim, point.accel_sets, point.cpu_tiles)
        val = area_by_key.get(key)
        if val is None:
            val = area_by_key[key] = platform_area(point.spec())
        return val

    numerics = np.array([numeric_by_key[p.schedule_key] for p in points])
    totals = np.array([
        numeric_by_key[p.schedule_key] + relin_seconds(p)
        + fixed_seconds for p in points])
    areas = np.array([area(p) for p in points])
    energies = np.array([energy_by_dim[p.systolic_dim] for p in points])
    powers = np.array([peak_watts(p.systolic_dim) * p.accel_sets
                       for p in points])

    keep = pareto_mask(np.stack([totals, areas, energies], axis=1))
    return AutotuneResult(
        workload=workload.name,
        points=points,
        total_seconds=totals,
        numeric_seconds=numerics,
        area_um2=areas,
        energy_joules=energies,
        peak_power_watts=powers,
        pareto=keep,
        distinct_pricings=len(pricing_keys),
        distinct_schedules=len(numeric_by_key),
    )
