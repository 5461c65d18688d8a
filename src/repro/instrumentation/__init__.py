"""Uniform per-step instrumentation for every backend solver.

A :class:`StepContext` is the one record of a step and the one way a
step's trace reaches a solver: it always exists for a step (null-cost
when tracing is disabled), carries the
:class:`~repro.linalg.trace.OpTrace`, the per-phase work counters, the
refactorized nodes' parent links and solver extras, and builds the
:class:`~repro.solvers.base.StepReport` the same way for ISAM2,
RA-ISAM2, FixedLagSmoother and LocalGlobal.
"""

from repro.instrumentation.context import StepContext

__all__ = ["StepContext"]
