"""Audited randomized sweep over the multi-tenant serving fleet.

Each configuration multiplexes a random mix of ISAM2 / RA-ISAM2
sessions — random trajectory lengths, worker counts and degradation
targets — through one :class:`SessionFleet`, with sessions
joining rounds on random *interleavings* (a session may sit rounds out
while others step).  The conservation auditor is installed end to end,
so every budget charge, plan-cache signature and refactorization runs
invariant-checked; after the sweep every surviving engine must still
pass ``check_invariants``.  A second sweep poisons one session's
linearization mid-stream and requires the rest of the fleet to keep
serving unharmed.
"""

import os

from repro.core import RAISAM2
from repro.factorgraph.factors import BetweenFactorSE2
from repro.geometry.se2 import SE2
from repro.hardware import make_platform
from repro.runtime.cost_model import NodeCostModel
from repro.serving import FleetConfig, SessionFleet
from repro.solvers.isam2 import ISAM2
from repro.validate import audited

from .generators import NOISE2, random_chain_dataset, rng_of

SE2_ONE = SE2(1.0, 0.0, 0.0)

FLEET_CONFIGS = max(3, int(os.environ.get("REPRO_STRESS_CONFIGS",
                                          "400")) // 40)


class _PoisonFactor(BetweenFactorSE2):
    def error_vector(self, values):
        raise RuntimeError("poisoned factor")


def _random_fleet(rng, degrade_floor: float = 1e-12):
    """A random fleet plus per-session random workloads."""
    num_sessions = int(rng.integers(2, 6))
    # The three draws of the removed sharing switches: kept so every
    # seed still generates the fleet and workloads it always did.
    rng.integers(0, 2, size=3)
    config = FleetConfig(
        degrade=bool(rng.integers(0, 2)),
        target_seconds=float(rng.choice([degrade_floor, 1e-4, 1.0])),
        workers=int(rng.integers(1, 3)),
    )
    fleet = SessionFleet(config)
    workloads = {}
    for sid in range(num_sessions):
        if rng.random() < 0.4:
            solver = RAISAM2(
                NodeCostModel(make_platform("SuperNoVA1S")),
                target_seconds=float(rng.choice([1e-4, 1.0 / 30.0, 1.0])))
        else:
            solver = ISAM2(relin_threshold=float(
                rng.choice([1e-4, 0.1])))
        fleet.add_session(str(sid), solver)
        workloads[str(sid)] = random_chain_dataset(
            rng, max_steps=int(rng.integers(6, 14))).steps
    return fleet, workloads


def _drive(fleet, workloads, rng, poison_at=None):
    """Random interleaving: each round a random subset of the sessions
    that still have steps left takes one.  Returns rounds driven."""
    cursor = {sid: 0 for sid in workloads}
    rounds = 0
    while any(cursor[sid] < len(workloads[sid]) for sid in workloads):
        ready = [sid for sid in workloads
                 if cursor[sid] < len(workloads[sid])
                 and fleet.sessions[sid].alive]
        if not ready:
            break
        chosen = [sid for sid in ready
                  if len(ready) == 1 or rng.random() < 0.7]
        if not chosen:
            chosen = [ready[int(rng.integers(0, len(ready)))]]
        inputs = {}
        for sid in chosen:
            step = workloads[sid][cursor[sid]]
            factors = list(step.factors)
            if poison_at is not None and \
                    poison_at == (sid, cursor[sid]):
                factors.append(_PoisonFactor(0, step.key, SE2_ONE,
                                             NOISE2))
            inputs[sid] = ({step.key: step.guess}, factors)
            cursor[sid] += 1
        fleet.step(inputs)
        rounds += 1
    return rounds


def test_fleet_audited_random_interleavings():
    for seed in range(FLEET_CONFIGS):
        rng = rng_of(10_000 + seed)
        fleet, workloads = _random_fleet(rng)
        with audited() as aud:
            rounds = _drive(fleet, workloads, rng)
            for handle in fleet.alive_sessions:
                handle.engine.check_invariants()
        assert rounds > 0, f"seed {seed}"
        assert not fleet.dead_sessions, \
            f"seed {seed}: {[h.error for h in fleet.dead_sessions]}"
        assert aud.checks > 0, f"seed {seed}: auditor never consulted"
        # Every session completed its whole trajectory.
        for sid, handle in fleet.sessions.items():
            assert handle.steps_completed == len(workloads[sid]), \
                f"seed {seed} session {sid}"
            assert len(handle.solver.estimate()) > 0


def test_fleet_session_death_mid_step_audited():
    """A session dying mid-step must not poison the survivors: they
    keep stepping to completion and their engines stay consistent."""
    for seed in range(FLEET_CONFIGS):
        rng = rng_of(77_000 + seed)
        fleet, workloads = _random_fleet(rng)
        victim = str(int(rng.integers(0, len(fleet.sessions))))
        kill_step = int(rng.integers(1, len(workloads[victim])))
        with audited() as aud:
            _drive(fleet, workloads, rng,
                   poison_at=(victim, kill_step))
            for handle in fleet.alive_sessions:
                handle.engine.check_invariants()
        assert aud.checks > 0, f"seed {seed}"
        dead = fleet.sessions[victim]
        assert not dead.alive, f"seed {seed}: victim survived"
        assert isinstance(dead.error, RuntimeError), f"seed {seed}"
        assert dead.steps_completed == kill_step, f"seed {seed}"
        for sid, handle in fleet.sessions.items():
            if sid == victim:
                continue
            assert handle.alive, \
                f"seed {seed}: bystander {sid} died: {handle.error}"
            assert handle.steps_completed == len(workloads[sid]), \
                f"seed {seed} session {sid}"
