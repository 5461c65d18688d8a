"""Multi-tenant session fleet: many SLAM sessions, one shared scheduler.

A :class:`SessionFleet` multiplexes independent ISAM2 / RA-ISAM2
sessions through one process.  Each round it opens every session's step
with the solver's own ``begin_step`` (step counter and relinearization
selection), drives every session's :class:`~repro.solvers.isam2.
PendingStep` phases in lockstep, and closes each step with the solver's
own ``end_step`` (report and budget-controller feedback) — the code a
solo ``update`` runs.  The expensive middles fuse across sessions:

* **Cross-session batch fusion** — every session's per-round
  linearization request (new factors, then relinearized factors) joins
  one :func:`~repro.solvers.batch_linearize.linearize_fused` call: the
  SoA kernels don't care which session a ``BetweenFactorSE2`` row came
  from, and results scatter back per session bit-identically (each
  kernel row depends only on its own factor's operands).
* **Shared plan cache** — all sessions share one
  :class:`~repro.linalg.plan.PlanCache`; fleet workloads replay the
  same trajectory topologies, so sessions hit each other's compiled
  plans (signatures cover per-factor geometry, making foreign hits
  structurally sound).  Hit/miss deltas are attributed per session
  inside each session's serial plan-resolution phase.
* **Shared worker pool, fair-share levels** — refactorization levels
  merge across sessions: every session's level-``k`` fronts ride one
  :meth:`~repro.linalg.parallel.ParallelStepExecutor.run_level`
  dispatch (largest front first), instead of each session draining its
  own levels back to back.
* **Graceful overload shedding** — an :class:`~repro.serving.admission.
  OverloadController` turns observed round latency into a
  ``relin_scale`` handed to each session's ``begin_step``, which
  shrinks only the *optional* relinearization budget: strictly after
  the mandatory charge (RA-ISAM2) or as a top-k cut of the relin
  candidate list (ISAM2).  Every admitted step still refactorizes and
  back-substitutes at full fidelity.

Fault isolation: any session whose phase raises is marked dead and
skipped for the rest of the fleet's life; the round continues for the
survivors.  A failed *fused* linearization falls back to per-session
kernel calls (bit-identical), so one poisoned factor kills exactly its
own session.  Merged level dispatches wrap each task in a guard, so a
numeric failure surfaces on the owning session only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.instrumentation import StepContext
from repro.linalg.parallel import (
    LevelStats,
    ParallelStepExecutor,
    wall_speedup,
)
from repro.linalg.plan import PlanCache
from repro.linalg.trace import OpTrace
from repro.policy.selection import SelectionPlan
from repro.serving.admission import OverloadController
from repro.solvers.base import StepReport
from repro.solvers.batch_linearize import (
    LinearizeRequest,
    LinearizeResult,
    linearize_fused,
    linearize_many,
)
from repro.validate import current_auditor


@dataclass
class FleetConfig:
    """Pool size and budgets of one fleet.

    Linearization fusion, the shared plan cache and merged level
    dispatch are always on: each is bit-identical to isolated
    per-session ``update()`` loops, so none needs a switch.
    """

    #: Shared thread-pool size (``None`` reads ``REPRO_WORKERS``).
    workers: Optional[int] = None
    #: Per-session step-latency budget fed to the admission controller.
    target_seconds: float = 1.0 / 30.0
    #: Disable to pin ``relin_scale`` at 1.0 (bit-identity harnesses).
    degrade: bool = True
    collect_traces: bool = False


class SessionHandle:
    """One tenant: its solver plus fleet bookkeeping."""

    __slots__ = ("session_id", "index", "solver", "engine", "alive",
                 "error", "reports", "shed_total", "steps_completed")

    def __init__(self, session_id: str, index: int, solver):
        self.session_id = session_id
        self.index = index
        self.solver = solver
        self.engine = solver.engine
        self.alive = True
        self.error: Optional[BaseException] = None
        self.reports: List[StepReport] = []
        self.shed_total = 0
        self.steps_completed = 0


class _Slot:
    """Per-round working state of one live session."""

    __slots__ = ("handle", "ctx", "plan", "pending", "prep")

    def __init__(self, handle: SessionHandle, ctx: StepContext):
        self.handle = handle
        self.ctx = ctx
        self.plan: Optional[SelectionPlan] = None
        self.pending = None
        self.prep = None


class SessionFleet:
    """Lockstep multiplexer of many incremental SLAM sessions."""

    def __init__(self, config: Optional[FleetConfig] = None):
        self.config = config if config is not None else FleetConfig()
        self.plan_cache = PlanCache()
        self.executor = ParallelStepExecutor(self.config.workers)
        self.controller = OverloadController(self.config.target_seconds)
        self.sessions: Dict[str, SessionHandle] = {}
        self.rounds = 0
        self.level_stats = LevelStats()

    # -- registry ------------------------------------------------------

    def add_session(self, session_id: str, solver) -> SessionHandle:
        """Register a solver (ISAM2 or RA-ISAM2) as a fleet tenant.

        Wires the shared plan cache and the shared executor into its
        engine; safe because the session has not stepped under the
        fleet yet and every cache lookup is signature-validated.
        """
        if session_id in self.sessions:
            raise ValueError(f"session {session_id!r} already registered")
        if not hasattr(solver, "engine"):
            raise TypeError("solver must expose an .engine")
        handle = SessionHandle(session_id, len(self.sessions), solver)
        solver.engine.set_plan_cache(self.plan_cache)
        solver.engine.set_executor(self.executor)
        self.sessions[session_id] = handle
        return handle

    @property
    def alive_sessions(self) -> List[SessionHandle]:
        return [h for h in self.sessions.values() if h.alive]

    @property
    def dead_sessions(self) -> List[SessionHandle]:
        return [h for h in self.sessions.values() if not h.alive]

    def _kill(self, handle: SessionHandle, error: BaseException) -> None:
        handle.alive = False
        handle.error = error

    # -- the lockstep round --------------------------------------------

    def step(self, inputs: Dict[str, Tuple[Dict, Sequence]],
             ) -> Dict[str, StepReport]:
        """One fleet round: each named live session takes one step.

        ``inputs`` maps session id -> ``(new_values, new_factors)``.
        Returns the per-session step reports of the sessions that
        completed; sessions whose phase raised are marked dead (their
        error is on the handle) and excluded — the fleet keeps serving
        everyone else.  Raises ``KeyError`` naming every unknown session
        id before any session's step opens.
        """
        unknown = [sid for sid in inputs if sid not in self.sessions]
        if unknown:
            raise KeyError(f"unknown session ids: {unknown}")
        round_start = time.perf_counter()
        scale = (self.controller.relin_scale if self.config.degrade
                 else 1.0)
        slots: List[_Slot] = []
        for session_id, (new_values, new_factors) in inputs.items():
            handle = self.sessions[session_id]
            if not handle.alive:
                continue
            ctx = StepContext(
                OpTrace() if self.config.collect_traces else None,
                step=handle.steps_completed)
            slot = _Slot(handle, ctx)
            try:
                slot.plan = handle.solver.begin_step(new_factors, scale)
                slot.pending = handle.engine.update_begin(
                    new_values, new_factors, ctx)
            except BaseException as exc:
                self._kill(handle, exc)
                continue
            slots.append(slot)

        # Phase 1/2: linearization, fused across sessions.
        slots = self._linearize_phase(
            slots, lambda slot: slot.pending.ingest_request(),
            lambda slot, result, sec: slot.pending.apply_ingest(
                result, sec))
        slots = self._linearize_phase(
            slots, lambda slot: slot.pending.relin_request(
                slot.plan.selected),
            lambda slot, result, sec: slot.pending.apply_relin(
                result, sec))

        # Phase 3: symbolic resolve + supernode rebuild (serial, cheap).
        survivors: List[_Slot] = []
        for slot in slots:
            try:
                slot.pending.prepare_solve()
            except BaseException as exc:
                self._kill(slot.handle, exc)
                continue
            survivors.append(slot)
        slots = survivors

        # Phase 4: refactorize — levels merged across sessions.
        slots = self._refactorize_phase(slots)

        # Phase 5: back-substitution + reports (serial per session).
        reports: Dict[str, StepReport] = {}
        for slot in slots:
            handle = slot.handle
            try:
                slot.pending.finish()
                report = self._end_step(slot)
            except BaseException as exc:
                self._kill(handle, exc)
                continue
            handle.reports.append(report)
            handle.steps_completed += 1
            handle.shed_total += slot.plan.shed
            reports[handle.session_id] = report
        self.rounds += 1
        elapsed = time.perf_counter() - round_start
        if self.config.degrade and slots:
            self.controller.observe(elapsed / len(slots))
        return reports

    # -- phase helpers --------------------------------------------------

    def _linearize_phase(self, slots: List[_Slot], request_of,
                         apply_result) -> List[_Slot]:
        """Collect one linearization request per session; run fused.

        The fused call is all-or-nothing, so on any failure it is
        re-run request by request (bit-identical results — fusion only
        amortizes fixed cost) and only the raising session dies.
        """
        participating: List[Tuple[_Slot, LinearizeRequest]] = []
        survivors: List[_Slot] = []
        for slot in slots:
            try:
                request = request_of(slot)
            except BaseException as exc:
                self._kill(slot.handle, exc)
                continue
            survivors.append(slot)
            if request is not None:
                participating.append((slot, request))
        if not participating:
            return survivors
        killed: set = set()
        fused_ok = False
        if len(participating) > 1:
            start = time.perf_counter()
            try:
                results = linearize_fused(
                    [request for _, request in participating])
            except BaseException:
                results = None  # isolate the failure per session below
            if results is not None:
                fused_ok = True
                elapsed = time.perf_counter() - start
                total = sum(len(request.factors)
                            for _, request in participating) or 1
                for (slot, request), result in zip(participating,
                                                   results):
                    share = elapsed * len(request.factors) / total
                    try:
                        apply_result(slot, result, share)
                    except BaseException as exc:
                        self._kill(slot.handle, exc)
                        killed.add(id(slot))
        if not fused_ok:
            # Per-session path: a single request, or fault isolation
            # after a failed fused call (bit-identical — fusion only
            # amortizes fixed cost).
            for slot, request in participating:
                start = time.perf_counter()
                try:
                    result = LinearizeResult(*linearize_many(
                        request.factors, request.values,
                        request.position_of))
                    apply_result(slot, result,
                                 time.perf_counter() - start)
                except BaseException as exc:
                    self._kill(slot.handle, exc)
                    killed.add(id(slot))
        if killed:
            survivors = [s for s in survivors if id(s) not in killed]
        return survivors

    def _refactorize_phase(self, slots: List[_Slot]) -> List[_Slot]:
        survivors = []
        for slot in slots:
            try:
                slot.prep = slot.pending.refactorize_begin()
            except BaseException as exc:
                self._kill(slot.handle, exc)
                continue
            survivors.append(slot)
        slots = survivors
        max_levels = max((slot.prep.num_levels for slot in slots),
                         default=0)
        for k in range(max_levels):
            tasks, priorities = [], []
            spans: List[Tuple[_Slot, int, int]] = []
            for slot in slots:
                if slot.prep is None or k >= slot.prep.num_levels:
                    continue
                pairs = slot.prep.level_tasks(k)
                spans.append((slot, len(tasks), len(pairs)))
                for task, priority in pairs:
                    tasks.append(_guarded(task))
                    priorities.append(priority)
            if not tasks:
                continue
            results = self.executor.run_level(tasks, self.level_stats,
                                              priorities)
            for slot, offset, count in spans:
                chunk = results[offset:offset + count]
                errors = [payload for ok, payload in chunk if not ok]
                if errors:
                    self._kill(slot.handle, errors[0])
                    slot.prep = None
                    continue
                slot.prep.apply_level(k, [payload
                                          for _, payload in chunk])
        survivors = []
        for slot in slots:
            if slot.prep is None:
                continue
            try:
                slot.prep.finish()
            except BaseException as exc:
                self._kill(slot.handle, exc)
                continue
            survivors.append(slot)
        return survivors

    def _end_step(self, slot: _Slot) -> StepReport:
        """Fleet attribution extras, then the solver's own report."""
        handle = slot.handle
        shed = slot.plan.shed
        slot.ctx.extras["session_id"] = float(handle.index)
        slot.ctx.extras["shed_relin_count"] = float(shed)
        slot.ctx.extras["fleet_plan_hits"] = float(self.plan_cache.hits)
        report = handle.solver.end_step(slot.ctx, slot.plan)
        aud = current_auditor()
        if aud is not None:
            aud.check_nonneg(shed, "fleet-shed-count",
                             "shed count cannot be negative",
                             session=handle.session_id)
            aud.check(shed == 0
                      or self.controller.relin_scale < 1.0
                      or not self.config.degrade,
                      "fleet-shed-only-under-degradation",
                      "variables were shed at full relin scale",
                      session=handle.session_id, shed=shed)
            aud.check(report.extras.get("plan_compiles", 0.0)
                      == report.extras.get("plan_misses", 0.0),
                      "fleet-plan-attribution",
                      "per-session cache deltas must balance "
                      "(compiles == misses) under the shared cache",
                      session=handle.session_id)
        return report

    # -- aggregates -----------------------------------------------------

    def aggregates(self) -> Dict[str, float]:
        """Fleet-level counters for the CLI summary / benchmarks.

        The ``parallel_*``/``wall_speedup`` pool statistics cover the
        merged refactorization dispatches, which no session owns.
        """
        hits, misses, compiles, deep = self.plan_cache.snapshot()
        stats = self.level_stats
        return {
            "rounds": float(self.rounds),
            "sessions": float(len(self.sessions)),
            "sessions_alive": float(len(self.alive_sessions)),
            "sessions_dead": float(len(self.dead_sessions)),
            "steps_completed": float(sum(
                h.steps_completed for h in self.sessions.values())),
            "shed_relin_total": float(sum(
                h.shed_total for h in self.sessions.values())),
            "fleet_plan_hits": float(hits),
            "fleet_plan_misses": float(misses),
            "fleet_plan_compiles": float(compiles),
            "fleet_plan_deep_compares": float(deep),
            "relin_scale": float(self.controller.relin_scale),
            "parallel_nodes": float(stats.nodes),
            "parallel_levels": float(stats.levels),
            "wall_speedup": wall_speedup(stats.task_seconds,
                                         stats.wall_seconds),
        }


def _guarded(task):
    """Wrap a level task so a raising session cannot poison the merged
    dispatch: the exception becomes a per-task payload."""
    def call():
        try:
            return True, task()
        except BaseException as exc:
            return False, exc
    return call
