"""Event-driven simulation of the SuperNoVA runtime (Algorithm 2).

Given the node traces of one backend step and the dependency tree among
them, the simulation schedules supernodes onto accelerator sets:

* a node becomes *ready* when all its (refactorized) children merged,
* a ready node is admitted only if its frontal workspace fits in the
  remaining shared LLC (cache-thrashing guard, Alg. 2 lines 14-17),
* idle accelerator sets join the running node with the most remaining
  compute (intra-node parallelism) when nothing else is admissible,
* within a node, MEM's memory operations overlap COMP's compute
  (heterogeneous orchestration, Section 4.3.2).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hardware.platforms import SoCConfig
from repro.linalg.trace import NodeTrace, concat_node_traces
from repro.runtime.virtualization import AcceleratorPool
from repro.validate import current_auditor


@dataclass(frozen=True)
class RuntimeFeatures:
    """Which runtime optimizations are enabled (paper Fig. 9 ablation)."""

    hetero_overlap: bool = True
    inter_node: bool = True
    intra_node: bool = True

    @staticmethod
    def none() -> "RuntimeFeatures":
        return RuntimeFeatures(False, False, False)

    @staticmethod
    def all() -> "RuntimeFeatures":
        return RuntimeFeatures(True, True, True)


@dataclass
class SimResult:
    """Outcome of one scheduled step.

    ``llc_rejections`` counts *blocked nodes per admission event*: each
    time the admission scan stalls on the cache-thrashing guard, every
    distinct ready node whose workspace did not fit the free LLC counts
    once.  (It used to count failed scans — one pass over three blocked
    nodes counted 1.)
    """

    makespan_cycles: float
    busy_cycles_per_set: List[float]
    nodes_processed: int
    llc_rejections: int = 0

    @property
    def utilization(self) -> float:
        if not self.busy_cycles_per_set or self.makespan_cycles <= 0:
            return 0.0
        return (sum(self.busy_cycles_per_set)
                / (len(self.busy_cycles_per_set) * self.makespan_cycles))


def _intra_node_rate(sets: int) -> float:
    """Effective speedup from splitting one node over ``sets`` sets.

    Partitioning the panel operations of a frontal matrix has sync and
    load-imbalance overheads: each extra set contributes 75%.
    """
    return 1.0 + 0.75 * (sets - 1)


class LaneCacheStats:
    """Process-global hit/miss counters of the per-trace lane memo.

    The design-space autotuner's pricing collapse (price once per
    distinct ``pricing_key``, not once per configuration) is observable
    here: ``reset()`` before a sweep, then ``misses`` counts actual
    vectorized pricings and ``hits`` counts reused lane totals.

    Increments go through :meth:`record_hit`/:meth:`record_miss` under a
    lock: a bare ``+= 1`` is a load/add/store triple that loses counts
    when pricing runs on the worker pool, and the autotuner's collapse
    assertions need these exact.  Reads stay plain attribute access.
    """

    __slots__ = ("hits", "misses", "_lock")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0

    def record_hit(self) -> None:
        with self._lock:
            self.hits += 1

    def record_miss(self) -> None:
        with self._lock:
            self.misses += 1


LANE_CACHE_STATS = LaneCacheStats()


def _ordered_sum(cycles, mask) -> float:
    """Sum ``cycles[mask]`` in trace order with left-to-right float
    accumulation — bit-identical to the scalar per-op ``+=`` loop the
    vectorized pricing replaced (so cached and fresh totals agree
    exactly, and RA-ISAM2 budget decisions are unchanged)."""
    return sum(cycles[mask].tolist(), 0.0)


def node_cycles(trace: NodeTrace, soc: SoCConfig,
                features: RuntimeFeatures = RuntimeFeatures.all(),
                ) -> Tuple[float, float, float]:
    """(compute, memory, host) cycles of one node on one accelerator set.

    ``compute`` runs on COMP, ``memory`` on MEM (or folded into ``host``
    when the SoC has no MEM tile, e.g. Spatula), ``host`` cycles serialize
    with compute (CPU-side scatter on Spatula).  When
    ``features.hetero_overlap`` is off, MEM-tile work still runs at the
    MEM tile's rate but serializes with compute, so it is reported in
    the ``host`` lane instead of the overlappable ``memory`` lane.

    Ops are priced through the platforms' vectorized ``price_ops`` over
    the trace's columnar layout, and the three lane totals are memoized
    on the trace per ``(soc.pricing_key, hetero_overlap)`` — repricing
    the same step on seven platforms or re-running the Fig. 9 feature
    ablation prices each node once per distinct platform.
    """
    key = (soc.pricing_key, features.hetero_overlap)
    # The whole lookup-compute-store is atomic per trace: two threads
    # pricing the same trace concurrently would otherwise both miss
    # (torn memo writes, inexact collapse counters).  Distinct traces
    # price concurrently — only same-trace callers serialize.
    with trace.price_lock:
        lanes = trace.lane_cache_get(key)
        if lanes is not None:
            LANE_CACHE_STATS.record_hit()
            return lanes
        LANE_CACHE_STATS.record_miss()
        if trace.num_ops == 0:
            lanes = (0.0, 0.0, 0.0)
            trace.lane_cache_put(key, lanes)
            return lanes

        memory = trace.memory_mask()
        if soc.has_accelerators:
            on_comp = soc.comp.supports_mask(trace)
        else:
            on_comp = np.zeros(trace.num_ops, dtype=bool)
        on_mem = memory & ~on_comp if soc.offloads_memory_ops \
            else np.zeros(trace.num_ops, dtype=bool)
        on_host = ~(on_comp | on_mem)

        comp_cycles = _ordered_sum(soc.comp.price_ops(trace), on_comp) \
            if on_comp.any() else 0.0
        mem_cycles = 0.0
        host_cycles = _ordered_sum(soc.host.price_ops(trace), on_host) \
            if on_host.any() else 0.0
        if on_mem.any():
            mem_tile_cycles = _ordered_sum(soc.mem.price_ops(trace),
                                           on_mem)
            if features.hetero_overlap:
                mem_cycles = mem_tile_cycles
            else:
                host_cycles += mem_tile_cycles

        lanes = (comp_cycles, mem_cycles, host_cycles)
        trace.lane_cache_put(key, lanes)
        return lanes


def node_duration(comp: float, mem: float, host: float, sets: int,
                  features: RuntimeFeatures) -> float:
    """Wall-clock cycles of one node given its three lane totals."""
    scaled = comp / _intra_node_rate(sets if features.intra_node else 1)
    if features.hetero_overlap:
        return max(scaled, mem) + host
    return scaled + mem + host


def sequential_cycles(traces: List[NodeTrace], soc: SoCConfig) -> float:
    """Numeric cycles with no accelerators/parallelism: every op on host.

    All traces are priced in one vectorized pass over their concatenated
    columns; the left-to-right sum runs in global op order, so the total
    is bit-identical to pricing trace by trace, op by op.
    """
    live = [trace for trace in traces if trace.num_ops]
    if not live:
        return 0.0
    merged = live[0] if len(live) == 1 else concat_node_traces(live)
    return sum(soc.host.price_ops(merged).tolist(), 0.0)


class _Running:
    """In-flight node: compute scales with sets, memory runs in parallel
    on MEM (hetero overlap), host-side work serializes at the end."""

    __slots__ = ("sid", "comp_left", "mem_left", "host_left", "sets",
                 "last_update")

    def __init__(self, sid, comp, mem, host, sets, now):
        self.sid = sid
        self.comp_left = comp
        self.mem_left = mem
        self.host_left = host
        self.sets = sets
        self.last_update = now


def simulate_tree(
    traces: Dict[int, NodeTrace],
    parents: Dict[int, Optional[int]],
    soc: SoCConfig,
    features: RuntimeFeatures = RuntimeFeatures.all(),
) -> SimResult:
    """Schedule one step's refactorized supernodes onto the SoC.

    Parameters
    ----------
    traces:
        Per-supernode operation traces (the nodes refactorized this step).
    parents:
        sid -> parent sid among the traced nodes (None for subtree roots).
    soc:
        Platform; must have accelerators for parallel scheduling (CPU/GPU
        baselines use :func:`sequential_cycles` via the executor instead).
    """
    if not traces:
        return SimResult(0.0, [0.0] * max(1, soc.accel_sets), 0)
    if not soc.has_accelerators:
        total = sequential_cycles(list(traces.values()), soc)
        return SimResult(total, [total], len(traces))

    pending: Dict[int, int] = {sid: 0 for sid in traces}
    for sid, parent in parents.items():
        if parent is not None and parent in pending:
            pending[parent] += 1
    # FIFO in elimination order: smaller sid was created earlier.
    ready: List[int] = sorted(s for s, n in pending.items() if n == 0)

    total_sets = soc.accel_sets
    pool = AcceleratorPool(total_sets)
    llc_free = float(soc.llc_bytes)
    now = 0.0
    running: Dict[int, _Running] = {}
    tie = itertools.count()
    llc_rejections = 0

    # Conservation auditing (repro.validate): fetched once per call; a
    # plain None means every audit block below is a single skipped test.
    aud = current_auditor()
    llc_capacity = float(soc.llc_bytes)
    priced: Dict[int, List[float]] = {}   # sid -> [comp, mem, host+binds]
    completed = 0

    def dram_factor() -> float:
        """Memory slowdown when concurrent MEM tiles exceed DRAM supply.

        Each active MEM tile demands its full bandwidth; when the sum
        exceeds the SoC's DRAM bandwidth (Table 3: 64 GB/s), memory
        phases stretch proportionally.
        """
        if soc.mem is None:
            return 1.0
        active = sum(1 for j in running.values() if j.mem_left > 0)
        if active == 0:
            return 1.0
        demand = active * soc.mem.bytes_per_cycle
        return max(1.0, demand / soc.dram_bytes_per_cycle)

    def projected_finish(job: _Running, mem_rate: float) -> float:
        rate = _intra_node_rate(job.sets if features.intra_node else 1)
        return (job.last_update
                + max(job.comp_left / rate, job.mem_left * mem_rate)
                + job.host_left)

    def advance(job: _Running, to_time: float, mem_rate: float) -> None:
        """Consume work between job.last_update and to_time."""
        rate = _intra_node_rate(job.sets if features.intra_node else 1)
        span = to_time - job.last_update
        parallel = min(span, max(job.comp_left / rate,
                                 job.mem_left * mem_rate))
        job.comp_left = max(0.0, job.comp_left - parallel * rate)
        job.mem_left = max(0.0, job.mem_left - parallel / mem_rate)
        job.host_left = max(0.0, job.host_left - (span - parallel))
        job.last_update = to_time

    while ready or running:
        # Admit ready nodes while sets and LLC space allow.
        progressed = True
        while progressed and pool.available() > 0 and ready:
            if running and not features.inter_node:
                break
            progressed = False
            for i, sid in enumerate(ready):
                workspace = traces[sid].workspace_bytes
                if workspace <= llc_free or not running:
                    ready.pop(i)
                    comp, mem, host = node_cycles(traces[sid], soc,
                                                  features)
                    _, bind = pool.acquire(1, sid, now)
                    job = _Running(sid, comp, mem, host + bind, 1, now)
                    running[sid] = job
                    llc_free -= workspace
                    progressed = True
                    if aud is not None:
                        priced[sid] = [comp, mem, host + bind]
                        aud.record("admit", sid=sid, now=now,
                                   workspace=workspace, llc_free=llc_free)
                        aud.check(llc_free <= llc_capacity,
                                  "llc-capacity",
                                  "free LLC exceeds capacity after admit",
                                  sid=sid, llc_free=llc_free,
                                  capacity=llc_capacity)
                    break
            else:
                # The scan stalled: with a set free, every ready node is
                # blocked by the LLC guard.  Count each blocked node once
                # per admission event (not once per scan).
                llc_rejections += len(ready)
                if aud is not None:
                    aud.record("llc-blocked", now=now, blocked=len(ready),
                               llc_free=llc_free)

        # Idle sets join the running node with the most remaining compute.
        if (features.intra_node and pool.available() > 0 and running
                and not ready):
            target = max(running.values(), key=lambda j: j.comp_left)
            if target.comp_left > 0:
                advance(target, now, dram_factor())
                granted, bind = pool.acquire(pool.available(),
                                             target.sid, now)
                target.sets += len(granted)
                target.host_left += bind
                if aud is not None:
                    priced[target.sid][2] += bind
                    aud.record("join", sid=target.sid, now=now,
                               granted=len(granted), sets=target.sets)
                    aud.check_nonneg(target.comp_left, "lane-nonneg",
                                     "negative compute remainder at join",
                                     sid=target.sid, lane="comp")

        if not running:
            break
        # Next completion under the current DRAM contention (the factor
        # is frozen per event window — a fluid approximation).
        mem_rate = dram_factor()
        finish, _, sid = min(
            (projected_finish(job, mem_rate), next(tie), job.sid)
            for job in running.values())
        for other in running.values():
            advance(other, finish, mem_rate)
        now = finish
        if aud is not None:
            # Every lane remainder was clamped at zero by ``advance``; a
            # negative means a lost clamp, not rounding (exact check).
            for other in running.values():
                aud.check_nonneg(other.comp_left, "lane-nonneg",
                                 "negative compute remainder",
                                 sid=other.sid, lane="comp")
                aud.check_nonneg(other.mem_left, "lane-nonneg",
                                 "negative memory remainder",
                                 sid=other.sid, lane="mem")
                aud.check_nonneg(other.host_left, "lane-nonneg",
                                 "negative host remainder",
                                 sid=other.sid, lane="host")
            # The completing node must have consumed exactly what pricing
            # charged it: zero remainder in every lane, up to the float
            # rounding of the completion-time solve.
            done = running[sid]
            comp0, mem0, host0 = priced[sid]
            aud.record("complete", sid=sid, now=now,
                       priced_comp=comp0, priced_mem=mem0,
                       priced_host=host0)
            aud.check_close(comp0 - done.comp_left, comp0,
                            "lane-conservation",
                            "consumed compute != priced compute",
                            sid=sid, lane="comp")
            aud.check_close(mem0 - done.mem_left, mem0,
                            "lane-conservation",
                            "consumed memory != priced memory",
                            sid=sid, lane="mem")
            aud.check_close(host0 - done.host_left, host0,
                            "lane-conservation",
                            "consumed host != priced host",
                            sid=sid, lane="host")
            completed += 1
        del running[sid]
        pool.release_owned_by(sid, now)
        llc_free += traces[sid].workspace_bytes
        if aud is not None:
            aud.record("release", sid=sid, now=now, llc_free=llc_free)
            aud.check(llc_free <= llc_capacity, "llc-capacity",
                      "free LLC exceeds capacity after restore",
                      sid=sid, llc_free=llc_free, capacity=llc_capacity)
        parent = parents.get(sid)
        if parent is not None and parent in pending:
            pending[parent] -= 1
            if pending[parent] == 0:
                ready.append(parent)

    if aud is not None:
        aud.check(completed == len(traces), "all-nodes-processed",
                  "scheduler ended with unprocessed nodes",
                  completed=completed, total=len(traces))
        aud.check(not ready, "all-nodes-processed",
                  "scheduler ended with nodes still ready",
                  ready=list(ready))
        stuck = {s: n for s, n in pending.items() if n != 0}
        aud.check(not stuck, "pending-children-zero",
                  "pending-children counts did not drain to zero",
                  stuck=stuck)
        aud.check(llc_free == llc_capacity, "llc-restored",
                  "free LLC not exactly restored at drain",
                  llc_free=llc_free, capacity=llc_capacity)
        aud.check(pool.available() == total_sets, "sets-released",
                  "accelerator sets still bound at drain",
                  available=pool.available(), total=total_sets)
    pool.drain(now)
    busy = pool.busy_cycles()
    if aud is not None:
        pool.audit_verify(aud, makespan=now)

    return SimResult(
        makespan_cycles=now,
        busy_cycles_per_set=busy,
        nodes_processed=len(traces),
        llc_rejections=llc_rejections,
    )
