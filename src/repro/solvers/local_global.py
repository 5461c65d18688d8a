"""Local + Global baseline: a multi-level SLAM system (paper Section 5.5).

A fixed-lag local solver runs every step; a global loop-closure solver
runs "in the background" whenever a loop closure arrives, taking several
frames to finish (modeling its long latency).  Its correction is applied
only when it completes, so the pose error spikes at the closure and is
corrected late — the lag the paper's Fig. 12 highlights.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.factorgraph.factors import Factor
from repro.factorgraph.graph import FactorGraph
from repro.factorgraph.keys import Key
from repro.factorgraph.values import Values
from repro.instrumentation import StepContext
from repro.solvers.base import StepReport
from repro.solvers.fixed_lag import FixedLagSmoother
from repro.solvers.gauss_newton import GaussNewton


def default_delay_model(num_poses: int) -> int:
    """Frames a background global solve takes, as a function of size.

    Roughly linear in the trajectory length: a full batch solve over n
    poses costs on the order of n supernode factorizations, and the host
    can afford a bounded amount per frame.
    """
    return max(2, num_poses // 50)


class LocalGlobal:
    """Fixed-lag local solver + asynchronous global LC solver.

    Parameters
    ----------
    window:
        Local sliding-window size.
    lc_gap:
        A factor between poses further apart than this is treated as a
        loop closure and triggers the global solver.
    delay_model:
        Maps trajectory length to the number of frames the global solve
        takes before its correction is applied.
    """

    def __init__(self, window: int = 20, lc_gap: int = 30,
                 delay_model=default_delay_model,
                 global_iterations: int = 3):
        self.local = FixedLagSmoother(window=window)
        self.lc_gap = int(lc_gap)
        self.delay_model = delay_model
        self.global_iterations = int(global_iterations)
        self.full_graph = FactorGraph()
        self._initials: Dict[Key, object] = {}
        self._odometry: Dict[Key, object] = {}   # key -> measured motion
        self._global_values: Dict[Key, object] = {}
        self._step = -1
        self._pending: Optional[Tuple[int, int]] = None  # (done_step, size)
        self._lc_events: List[int] = []

    def _is_loop_closure(self, factor: Factor) -> bool:
        keys = [k for k in factor.keys]
        return (len(keys) == 2
                and abs(int(keys[1]) - int(keys[0])) > self.lc_gap)

    def update(self, new_values: Dict[Key, object],
               new_factors: Sequence[Factor],
               context: Optional[StepContext] = None) -> StepReport:
        self._step += 1
        ctx = context if context is not None else StepContext()
        for key, value in new_values.items():
            self._initials[key] = value
        closures = 0
        for factor in new_factors:
            self.full_graph.add(factor)
            if self._is_loop_closure(factor):
                closures += 1
            elif (len(factor.keys) == 2
                  and factor.keys[1] - factor.keys[0] == 1
                  and hasattr(factor, "measured")):
                self._odometry[factor.keys[1]] = factor.measured
        report = self.local.update(new_values, new_factors, context=ctx)
        report.step = self._step

        if closures and self._pending is None:
            size = len(self._initials)
            done = self._step + self.delay_model(size)
            self._pending = (done, size)
            self._lc_events.append(self._step)
        if self._pending is not None and self._step >= self._pending[0]:
            self._apply_global_correction()
            self._pending = None
        report.extras["global_running"] = float(self._pending is not None)
        report.extras["lc_events"] = float(closures)
        return report

    def _apply_global_correction(self) -> None:
        # Warm-start from the previous global solution (the persistent
        # map); poses added since then are chained from it by odometry.
        # Cold-starting from the drifted local estimate makes Gauss-
        # Newton diverge on rotation-heavy graphs.
        initial = Values()
        for key in sorted(self._initials.keys()):
            seed = self._global_values.get(key)
            if seed is None:
                motion = self._odometry.get(key)
                prev = key - 1
                if motion is not None and prev in initial:
                    seed = initial.at(prev).compose(motion)
                else:
                    seed = self._initials[key]
            initial.insert(key, seed)
        solver = GaussNewton(max_iterations=self.global_iterations,
                             damping=1e-6)
        result = solver.optimize(self.full_graph, initial)
        self._global_values = {key: result.values.at(key)
                               for key in result.values.keys()}
        anchor = max(self.local.values.keys())
        self.local.correct(result.values, anchor)

    def estimate(self) -> Values:
        return self.local.estimate()

    @property
    def loop_closure_steps(self) -> List[int]:
        return list(self._lc_events)
