"""Budgeted relinearization-selection policies.

RA-ISAM2's per-step selection pass used to be an if/elif dispatch on a
policy string inside :meth:`repro.core.ra_isam2.RAISAM2.plan_selection`.
It is now a registry of :class:`SelectionPolicy` strategies (the same
shape as :mod:`repro.linalg.ordering`'s ``OrderingPolicy`` registry):

* ``relevance`` — the paper's greedy most-relevant-first ranking
  (candidates arrive sorted by ``‖delta_j‖∞`` already),
* ``fifo`` — oldest variable (engine insertion order) first,
* ``random`` — seeded uniform shuffle (ablation baseline),
* ``good_graph`` — Good-Graph-style information-gain ranking (Zhao et
  al., "Good Graph to Optimize"): greedy log-det gain per unit
  Algorithm-1 cost, computed from the engine's cached per-factor
  Hessian contributions and the memoized
  :meth:`~repro.core.relevance.RelinCostEstimator.path_cost`.

The three historical policies are **bit-identical** to the pre-registry
dispatch: they produce the same candidate order, issue the same
``estimator.relin_cost`` / ``budget.charge`` call sequence, and
accumulate the charged total in the same float-addition order (gated by
``tests/test_policy_registry.py`` at atol 0).

A policy does two things:

* :meth:`SelectionPolicy.rank` orders the ``(score, key)`` candidate
  pairs (no budget interaction — also used by the serving fleet to pick
  which flagged variables a degraded plain-ISAM2 session keeps), and
* :meth:`SelectionPolicy.select` runs the shared greedy admission loop
  over that order, charging the :class:`~repro.core.budget.StepBudget`
  (and the shadow nominal budget, when the fleet is degrading) exactly
  as the historical loop did.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, \
    Tuple, Type, TYPE_CHECKING, Union

import numpy as np

from repro.factorgraph.keys import Key

if TYPE_CHECKING:  # annotation-only: repro.core imports this package
    from repro.core.budget import StepBudget
    from repro.core.relevance import RelinCostEstimator

#: Ranked candidate: (relevance score, variable key).
Candidate = Tuple[float, Key]


class SelectionContext(NamedTuple):
    """Everything one selection pass may consult.

    ``candidates`` arrive sorted most-relevant-first (the output of
    :func:`~repro.core.relevance.relevance_scores`).  ``estimator`` /
    ``budget`` / ``energy_of`` are ``None`` when only a ranking is
    requested (the fleet's top-k degradation cut for plain ISAM2);
    policies must tolerate that.  ``nominal`` is the fleet's shadow
    full-size budget used to count shed variables, ``None`` outside
    degraded rounds.  ``charged`` seeds the running charge accumulator
    (the mandatory spend) so the charged total is accumulated in the
    exact float-addition order of the historical loop.
    """

    engine: object
    candidates: Sequence[Candidate]
    estimator: Optional[RelinCostEstimator] = None
    budget: Optional[StepBudget] = None
    nominal: Optional[StepBudget] = None
    energy_of: Optional[Callable[[float], float]] = None
    charged: float = 0.0


class SelectionPlan(NamedTuple):
    """Outcome of one step's relinearization-selection pass.

    ``shed`` counts variables the *nominal* (unscaled) selection would
    have relinearized but the overload-scaled one did not — the fleet's
    graceful-degradation metric, zero whenever ``budget_scale >= 1``.
    ``deferred``, ``charged`` and ``visits`` are the RA-ISAM2 budget's
    bookkeeping (zero for plain ISAM2).
    """

    selected: List[Key]
    deferred: int = 0
    shed: int = 0
    charged: float = 0.0
    visits: int = 0


class SelectionPolicy:
    """Strategy that orders and budget-admits relinearization candidates.

    Subclasses normally override :meth:`rank` only; the greedy admission
    loop in :meth:`select` is shared (and kept bit-identical to the
    historical RA-ISAM2 dispatch).  Policies needing a different
    admission rule may override :meth:`select` wholesale.
    """

    name: str = "?"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def rank(self, ctx: SelectionContext) -> List[Candidate]:
        """Order the candidates; most attractive first."""
        raise NotImplementedError

    def select(self, ctx: SelectionContext) -> SelectionPlan:
        """Greedy admission over :meth:`rank`'s order.

        Charge for charge the historical loop: one ``relin_cost`` /
        ``energy_of`` / ``budget.charge`` call per candidate in rank
        order, shadow ``nominal`` charges interleaved identically, and
        the charged accumulator seeded with the mandatory spend.
        """
        budget = ctx.budget
        nominal = ctx.nominal
        estimator = ctx.estimator
        energy_of = ctx.energy_of
        selected: List[Key] = []
        deferred = 0
        shed = 0
        charged = ctx.charged
        for score, key in self.rank(ctx):
            cost = estimator.relin_cost(key)
            joules = energy_of(cost)
            admitted = budget.charge(cost, joules)
            if nominal is not None and nominal.charge(cost, joules) \
                    and not admitted:
                shed += 1
            if admitted:
                selected.append(key)
                charged += cost
            else:
                deferred += 1
        return SelectionPlan(selected, deferred, shed, charged)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RelevanceSelection(SelectionPolicy):
    """The paper's greedy most-relevant-first order (candidates arrive
    sorted by descending ``‖delta_j‖∞`` already)."""

    name = "relevance"

    def rank(self, ctx):
        return list(ctx.candidates)


class FifoSelection(SelectionPolicy):
    """Oldest variable first.

    Oldest means engine *insertion order*.  Sorting by the Key itself
    interleaved namespaces instead (e.g. offset landmark keys sort
    between poses regardless of age).
    """

    name = "fifo"

    def rank(self, ctx):
        return sorted(ctx.candidates,
                      key=lambda pair: ctx.engine.pos_of[pair[1]])


class RandomSelection(SelectionPolicy):
    """Seeded uniform shuffle — the selection ablation's floor."""

    name = "random"

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._rng = random.Random(seed)

    def rank(self, ctx):
        out = list(ctx.candidates)
        self._rng.shuffle(out)
        return out

    def __repr__(self) -> str:
        return f"RandomSelection(seed={self.seed})"


class GoodGraphSelection(SelectionPolicy):
    """Good-Graph-style information-gain selection (Zhao et al. 2020).

    "Good Graph to Optimize" picks the best-conditioned subgraph that
    fits the budget by maximizing the information (log-det) of the
    selected subproblem.  The full objective is jointly submodular;
    this policy uses the standard budgeted-greedy surrogate: rank
    candidates by marginal information gain per unit relinearization
    cost, then admit greedily under the budget.

    The gain of relinearizing variable ``j`` is the drift-weighted
    D-optimal information of its own factors,

    ``gain_j = logdet(I + s_j * H_jj)``,

    where ``s_j = ‖delta_j‖∞`` is the relevance score and ``H_jj`` is
    the sum of the variable's diagonal Hessian blocks over the engine's
    *cached* per-factor contributions (no re-linearization: the blocks
    are exactly what the last linearization pass assembled).  Costs come
    from :meth:`RelinCostEstimator.relin_cost`, which memoizes
    Algorithm-1 ``path_cost`` climbs, so ranking the whole candidate
    set stays near-linear in the tree size.  Block-diagonal gain is a
    deliberate approximation of the collective log-det (no cross-term
    re-evaluation between picks) — see EXPERIMENTS.md for the deviation
    note.
    """

    name = "good_graph"

    #: Gains below this are treated as zero (numerical noise floor).
    GAIN_FLOOR = 1e-12

    def _diag_hessian(self, engine, key: Key) -> Optional[np.ndarray]:
        """Summed cached diagonal Hessian block of the variable."""
        pos = engine.pos_of.get(key)
        if pos is None:
            return None
        dim = engine.dims[pos]
        total: Optional[np.ndarray] = None
        for index in sorted(engine.graph.factors_of(key)):
            contrib = engine._lin.get(index)
            if contrib is None:
                continue
            offset = 0
            for p in contrib.positions:
                d = engine.dims[p]
                if p == pos:
                    block = contrib.hessian[offset:offset + d,
                                            offset:offset + d]
                    total = block.copy() if total is None \
                        else total + block
                    break
                offset += d
        return total

    def information_gain(self, engine, key: Key, score: float) -> float:
        """Drift-weighted log-det information of the variable's factors."""
        hessian = self._diag_hessian(engine, key)
        if hessian is None or not hessian.size:
            return 0.0
        dim = hessian.shape[0]
        sign, logdet = np.linalg.slogdet(
            np.eye(dim) + float(score) * hessian)
        if sign <= 0.0:          # numerically indefinite: no information
            return 0.0
        return float(logdet)

    def rank(self, ctx):
        engine = ctx.engine
        estimator = ctx.estimator
        ranked = []
        for index, (score, key) in enumerate(ctx.candidates):
            gain = self.information_gain(engine, key, score)
            if estimator is not None:
                cost = estimator.relin_cost(key)
                utility = gain / max(cost, self.GAIN_FLOOR)
            else:
                # Rank-only mode (fleet top-k cut): no cost model around.
                utility = gain
            # Tie-break on the relevance order so equal-utility
            # candidates keep the paper's most-relevant-first behavior.
            ranked.append((-utility, index, score, key))
        ranked.sort(key=lambda item: (item[0], item[1]))
        return [(score, key) for _, _, score, key in ranked]


SELECTION_POLICIES: Dict[str, Type[SelectionPolicy]] = {
    RelevanceSelection.name: RelevanceSelection,
    FifoSelection.name: FifoSelection,
    RandomSelection.name: RandomSelection,
    GoodGraphSelection.name: GoodGraphSelection,
}

SelectionSpec = Union[str, SelectionPolicy]


def register_selection_policy(cls: Type[SelectionPolicy],
                              replace: bool = False) -> Type[SelectionPolicy]:
    """Register a custom policy class under ``cls.name``.

    Usable as a decorator; ``replace=False`` guards accidental
    shadowing of a built-in name.
    """
    name = getattr(cls, "name", None)
    if not name or name == SelectionPolicy.name:
        raise ValueError(
            f"{cls.__name__} must define a non-empty class attribute "
            f"'name' to be registered")
    if not replace and name in SELECTION_POLICIES:
        raise ValueError(
            f"selection policy {name!r} is already registered; pass "
            f"replace=True to override")
    SELECTION_POLICIES[name] = cls
    return cls


def selection_names() -> List[str]:
    """Registered policy names, sorted (CLI choices, error messages)."""
    return sorted(SELECTION_POLICIES)


def registered_selection_order() -> List[str]:
    """Registration (insertion) order — ablation tables keep the
    paper's relevance-first row ordering this way."""
    return list(SELECTION_POLICIES)


def make_selection_policy(spec: SelectionSpec,
                          seed: int = 0) -> SelectionPolicy:
    """Resolve a policy name or pass an instance through.

    Raises ``ValueError`` listing every registered name on unknown
    specs, so solver configs fail fast (same pattern as
    :func:`repro.linalg.ordering.make_ordering_policy`).
    """
    if isinstance(spec, SelectionPolicy):
        return spec
    try:
        factory = SELECTION_POLICIES[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown selection policy {spec!r}; expected one of "
            f"{selection_names()} or a SelectionPolicy instance") \
            from None
    return factory(seed=seed)
