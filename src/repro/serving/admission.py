"""Fleet admission control: graceful overload shedding.

The fleet's degradation policy is RA-ISAM2's budget logic lifted to
fleet scope (the SLAMBooster idea of an application-aware controller
modulating approximation under load): when observed per-session step
latency overruns the per-session budget, shrink every session's
*optional* relinearization budget multiplicatively — mandatory work and
the solve are never shed — and recover just as geometrically once load
subsides.  The controller only ever produces a ``relin_scale`` in
``[min_scale, 1]`` that sessions apply through
:meth:`repro.core.budget.StepBudget.scale_optional` (RA-ISAM2) or a
top-k-by-relevance cut (plain ISAM2), so by construction the solve of
every admitted step still runs at full fidelity.
"""

from __future__ import annotations

from typing import Optional


class OverloadController:
    """EWMA latency tracker that maps overload into a relin scale.

    Parameters
    ----------
    target_seconds:
        Per-session step-latency budget the fleet promises (the same
        quantity RA-ISAM2 budgets a solo step against).
    alpha:
        EWMA smoothing weight of the newest observation.
    backoff / recover:
        Multiplicative decrease of ``relin_scale`` per overloaded
        round, and increase per underloaded round (classic AIMD-style
        asymmetry: shed fast, recover gently).
    min_scale:
        Degradation floor — even a drowning fleet keeps a sliver of
        relinearization so accuracy degrades, never collapses.
    """

    __slots__ = ("target_seconds", "alpha", "backoff", "recover",
                 "min_scale", "ewma_seconds", "relin_scale",
                 "overloaded_rounds", "rounds")

    def __init__(self, target_seconds: float, alpha: float = 0.3,
                 backoff: float = 0.7, recover: float = 1.25,
                 min_scale: float = 0.05):
        if target_seconds <= 0:
            raise ValueError("target_seconds must be positive")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < backoff < 1.0:
            raise ValueError("backoff must be in (0, 1)")
        if recover <= 1.0:
            raise ValueError("recover must exceed 1")
        if not 0.0 < min_scale <= 1.0:
            raise ValueError("min_scale must be in (0, 1]")
        self.target_seconds = float(target_seconds)
        self.alpha = float(alpha)
        self.backoff = float(backoff)
        self.recover = float(recover)
        self.min_scale = float(min_scale)
        self.ewma_seconds: Optional[float] = None
        self.relin_scale = 1.0
        self.overloaded_rounds = 0
        self.rounds = 0

    def observe(self, step_seconds: float) -> float:
        """Fold one round's mean per-session latency; returns the new
        ``relin_scale`` that the *next* round's admission uses."""
        step_seconds = float(step_seconds)
        if self.ewma_seconds is None:
            self.ewma_seconds = step_seconds
        else:
            self.ewma_seconds = (self.alpha * step_seconds
                                 + (1.0 - self.alpha) * self.ewma_seconds)
        self.rounds += 1
        if self.ewma_seconds > self.target_seconds:
            self.overloaded_rounds += 1
            self.relin_scale = max(self.min_scale,
                                   self.relin_scale * self.backoff)
        else:
            self.relin_scale = min(1.0, self.relin_scale * self.recover)
        return self.relin_scale
