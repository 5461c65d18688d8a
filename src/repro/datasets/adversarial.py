"""Adversarial online SLAM workloads for the policy layer.

Three stress generators that break the steady-state assumptions the
selection/budget policies are tuned for (and that the benign M3500 /
Sphere / CAB generators never violate):

* :func:`kidnapped_robot_dataset` — relocalization bursts: odometry
  confidence collapses at each "kidnap" (the robot is teleported with
  only a very noisy motion estimate), then a burst of tight
  relocalization closures lands over the next few steps.  Right after a
  kidnap nearly *every* variable clears the relevance floor at once, so
  the budgeted selection pass faces a candidate spike orders of
  magnitude above steady state.
* :func:`long_term_revisit_dataset` — a multi-lap circuit with seasonal
  landmark churn: each lap re-observes the same places, but only the
  cells whose "landmark" persisted across the season change produce
  closures.  Old mid-trajectory variables keep reactivating lap after
  lap, defeating any policy that assumes relevance decays with age.
* :func:`multi_robot_rendezvous_dataset` — two odometry chains in
  disjoint key namespaces (each anchored by its own prior) that merge
  through inter-robot closures at a rendezvous: the instant the
  components connect, the correction wavefront spans both robots'
  entire histories.

All three are ordinary :class:`~repro.datasets.pose_graph.
PoseGraphDataset` instances (one new key per step, SE(2)), so they run
through every solver, the serving benchmark (``repro serve-bench
--workload ...``) and the ablation harness unchanged.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.datasets.pose_graph import PoseGraphDataset, TimeStep
from repro.factorgraph.factors import BetweenFactorSE2, PriorFactorSE2
from repro.factorgraph.noise import DiagonalNoise
from repro.geometry.se2 import SE2

_PRIOR_NOISE = DiagonalNoise([1e-3, 1e-3, 1e-4])

#: Key-namespace offset of the second robot in the rendezvous workload.
RENDEZVOUS_OFFSET = 100_000


def _odometry(truth: List[SE2], i: int, rng, sigmas) -> SE2:
    """Noisy measurement of the true motion ``truth[i-1] -> truth[i]``."""
    motion = truth[i - 1].between(truth[i])
    return motion.retract(rng.normal(size=3) * sigmas)


def _circuit_pose(index: int, length: int, radius: float) -> SE2:
    """Pose ``index`` of a closed circular circuit of ``length`` steps."""
    angle = 2.0 * math.pi * (index % length) / length
    heading = angle + math.pi / 2.0
    return SE2(radius * math.cos(angle), radius * math.sin(angle),
               math.atan2(math.sin(heading), math.cos(heading)))


def kidnapped_robot_dataset(scale: float = 1.0, seed: int = 11,
                            kidnap_every: int = 60,
                            burst_steps: int = 5,
                            burst_closures: int = 3,
                            trans_sigma: float = 0.05,
                            rot_sigma: float = 0.02,
                            kidnap_sigma: float = 2.0,
                            ) -> PoseGraphDataset:
    """Relocalization-burst workload (the kidnapped-robot problem).

    The robot drives a circuit; every ``kidnap_every`` steps it is
    "kidnapped" — teleported half a circuit ahead while its odometry
    for that step degrades to ``kidnap_sigma`` (consistent but nearly
    uninformative).  During the following ``burst_steps`` steps, up to
    ``burst_closures`` tight closures per step reconnect it to poses
    near its true location, as a relocalization module would.
    """
    num_steps = max(2 * kidnap_every, int(round(400 * scale)))
    circuit = max(20, kidnap_every)
    radius = circuit / (2.0 * math.pi)
    rng = np.random.default_rng(seed)
    sigmas = np.array([trans_sigma, trans_sigma, rot_sigma])
    noise = DiagonalNoise(list(sigmas))
    kidnap_noise = DiagonalNoise([kidnap_sigma, kidnap_sigma,
                                  0.25 * kidnap_sigma])
    tight = DiagonalNoise([0.02, 0.02, 0.01])

    truth: List[SE2] = []
    circuit_index = 0
    kinds: List[str] = []          # "start" / "odom" / "kidnap"
    for i in range(num_steps):
        if i == 0:
            kinds.append("start")
        elif i % kidnap_every == 0:
            circuit_index += circuit // 2   # teleport half a lap ahead
            kinds.append("kidnap")
        else:
            circuit_index += 1
            kinds.append("odom")
        truth.append(_circuit_pose(circuit_index, circuit, radius))

    steps: List[TimeStep] = [TimeStep(
        key=0, guess=truth[0],
        factors=[PriorFactorSE2(0, truth[0], _PRIOR_NOISE)])]
    guess = truth[0]
    kidnapped_at = -10 * burst_steps
    for i in range(1, num_steps):
        if kinds[i] == "kidnap":
            kidnapped_at = i
            measured = _odometry(
                truth, i, rng,
                np.array([kidnap_sigma, kidnap_sigma,
                          0.25 * kidnap_sigma]))
            factors = [BetweenFactorSE2(i - 1, i, measured, kidnap_noise)]
        else:
            measured = _odometry(truth, i, rng, sigmas)
            factors = [BetweenFactorSE2(i - 1, i, measured, noise)]
        guess = guess.compose(measured)
        if 0 < i - kidnapped_at <= burst_steps:
            # Relocalization burst: tight closures to the nearest old
            # poses (at least one circuit lap old, so they reach deep).
            dists = sorted(
                (math.hypot(truth[j].x - truth[i].x,
                            truth[j].y - truth[i].y), j)
                for j in range(0, i - circuit))
            for _, j in dists[:burst_closures]:
                rel = truth[j].between(truth[i])
                meas = rel.retract(rng.normal(size=3) * [0.02, 0.02, 0.01])
                factors.append(BetweenFactorSE2(j, i, meas, tight))
        steps.append(TimeStep(key=i, guess=guess, factors=factors))

    return PoseGraphDataset(
        name="KidnappedRobot", steps=steps,
        ground_truth={i: truth[i] for i in range(num_steps)},
        is_3d=False)


def long_term_revisit_dataset(scale: float = 1.0, seed: int = 23,
                              laps: int = 6,
                              persistence: float = 0.6,
                              trans_sigma: float = 0.05,
                              rot_sigma: float = 0.02,
                              ) -> PoseGraphDataset:
    """Long-term multi-lap session with seasonal landmark churn.

    The robot repeats one circuit for ``laps`` laps.  Each lap draws a
    fresh per-cell persistence mask (a cell's "landmark" survives the
    season with probability ``persistence``); a revisited cell only
    yields a closure to the *most recent* earlier lap in which its
    landmark also existed.  Closures therefore reach back one, two or
    many laps unpredictably, keeping the whole history relevant.
    """
    num_steps = max(2 * laps, int(round(300 * scale)))
    circuit = max(10, num_steps // laps)
    radius = circuit / (2.0 * math.pi)
    rng = np.random.default_rng(seed)
    sigmas = np.array([trans_sigma, trans_sigma, rot_sigma])
    noise = DiagonalNoise(list(sigmas))
    closure_noise = DiagonalNoise([0.03, 0.03, 0.015])

    truth = [_circuit_pose(i, circuit, radius) for i in range(num_steps)]
    # alive[lap][cell]: did the cell's landmark survive this season?
    alive = [rng.random(circuit) < persistence
             for _ in range(num_steps // circuit + 1)]

    steps: List[TimeStep] = [TimeStep(
        key=0, guess=truth[0],
        factors=[PriorFactorSE2(0, truth[0], _PRIOR_NOISE)])]
    guess = truth[0]
    for i in range(1, num_steps):
        measured = _odometry(truth, i, rng, sigmas)
        guess = guess.compose(measured)
        factors = [BetweenFactorSE2(i - 1, i, measured, noise)]
        lap, cell = divmod(i, circuit)
        if lap > 0 and alive[lap][cell]:
            for back in range(lap - 1, -1, -1):
                if not alive[back][cell]:
                    continue          # landmark churned away that season
                j = back * circuit + cell
                rel = truth[j].between(truth[i])
                meas = rel.retract(
                    rng.normal(size=3) * [0.03, 0.03, 0.015])
                factors.append(BetweenFactorSE2(j, i, meas, closure_noise))
                break
        steps.append(TimeStep(key=i, guess=guess, factors=factors))

    return PoseGraphDataset(
        name="LongTermRevisit", steps=steps,
        ground_truth={i: truth[i] for i in range(num_steps)},
        is_3d=False)


def multi_robot_rendezvous_dataset(scale: float = 1.0, seed: int = 31,
                                   trans_sigma: float = 0.05,
                                   rot_sigma: float = 0.02,
                                   closure_every: int = 4,
                                   ) -> PoseGraphDataset:
    """Two factor graphs merging at a rendezvous.

    Robot A (keys ``0..n-1``) drives east along ``y = 0``; robot B
    (keys ``RENDEZVOUS_OFFSET..``) drives west along ``y = 1`` toward
    it.  Their steps interleave (A, B, A, B, ...), each chain anchored
    by its own prior — two disconnected components in the factor graph.
    From the halfway point on, the robots are within sensor range and
    an inter-robot closure lands every ``closure_every`` B-steps,
    merging the components and back-propagating corrections through
    both full histories at once.
    """
    per_robot = max(10, int(round(150 * scale)))
    rng = np.random.default_rng(seed)
    sigmas = np.array([trans_sigma, trans_sigma, rot_sigma])
    noise = DiagonalNoise(list(sigmas))
    closure_noise = DiagonalNoise([0.03, 0.03, 0.015])
    span = float(per_robot)

    truth_a = [SE2(float(i), 0.0, 0.0) for i in range(per_robot)]
    truth_b = [SE2(span - float(i), 1.0, math.pi)
               for i in range(per_robot)]
    truth: Dict[int, SE2] = {}
    rendezvous = per_robot // 2

    steps: List[TimeStep] = []
    guess_a = truth_a[0]
    guess_b = truth_b[0]
    for i in range(per_robot):
        key_a = i
        truth[key_a] = truth_a[i]
        if i == 0:
            factors_a = [PriorFactorSE2(key_a, truth_a[0], _PRIOR_NOISE)]
        else:
            motion = truth_a[i - 1].between(truth_a[i])
            measured = motion.retract(rng.normal(size=3) * sigmas)
            guess_a = guess_a.compose(measured)
            factors_a = [BetweenFactorSE2(key_a - 1, key_a, measured,
                                          noise)]
        steps.append(TimeStep(key=key_a, guess=guess_a,
                              factors=factors_a))

        key_b = RENDEZVOUS_OFFSET + i
        truth[key_b] = truth_b[i]
        if i == 0:
            factors_b = [PriorFactorSE2(key_b, truth_b[0], _PRIOR_NOISE)]
        else:
            motion = truth_b[i - 1].between(truth_b[i])
            measured = motion.retract(rng.normal(size=3) * sigmas)
            guess_b = guess_b.compose(measured)
            factors_b = [BetweenFactorSE2(key_b - 1, key_b, measured,
                                          noise)]
        if i >= rendezvous and (i - rendezvous) % closure_every == 0:
            # Mutual observation: robot B spots robot A's current pose.
            rel = truth_a[i].between(truth_b[i])
            meas = rel.retract(rng.normal(size=3) * [0.03, 0.03, 0.015])
            factors_b.append(BetweenFactorSE2(i, key_b, meas,
                                              closure_noise))
        steps.append(TimeStep(key=key_b, guess=guess_b,
                              factors=factors_b))

    return PoseGraphDataset(
        name="MultiRobotRendezvous", steps=steps,
        ground_truth=truth, is_3d=False)
