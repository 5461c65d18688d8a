"""Adversarial workload generators: structure and solver round-trips."""

import numpy as np
import pytest

from repro.core import RAISAM2
from repro.datasets import (
    GENERATORS,
    kidnapped_robot_dataset,
    long_term_revisit_dataset,
    multi_robot_rendezvous_dataset,
)
from repro.datasets.adversarial import RENDEZVOUS_OFFSET
from repro.hardware.registry import make_platform
from repro.metrics.ape import translation_errors
from repro.runtime import NodeCostModel
from repro.serving.bench import WORKLOADS, named_fleet_workload
from repro.solvers import ISAM2


def test_kidnapped_robot_structure():
    data = kidnapped_robot_dataset(scale=0.3, kidnap_every=40,
                                   burst_steps=4, burst_closures=2)
    assert data.num_steps == 120
    # Kidnap steps carry the inflated-noise odometry; the bursts after
    # each kidnap carry tight relocalization closures.
    kidnaps = [i for i in (40, 80)]
    for k in kidnaps:
        burst_closures = sum(len(data.steps[k + d].closures)
                             for d in range(1, 5))
        assert burst_closures > 0, f"no relocalization after kidnap {k}"
    # One new key per step, in order (the online protocol).
    assert [s.key for s in data.steps] == list(range(120))


def test_long_term_revisit_reaches_back_laps():
    data = long_term_revisit_dataset(scale=0.2, laps=4)
    circuit = data.num_steps // 4
    spans = [abs(f.keys[1] - f.keys[0])
             for step in data.steps for f in step.closures]
    assert spans, "churn killed every closure"
    assert max(spans) >= 2 * circuit, \
        "no closure survived more than one season"
    assert all(span % circuit == 0 for span in spans), \
        "closures must connect matching circuit cells"


def test_rendezvous_merges_two_anchored_components():
    data = multi_robot_rendezvous_dataset(scale=0.2)
    priors = [f for step in data.steps for f in step.factors
              if len(f.keys) == 1]
    assert len(priors) == 2            # one anchor per robot
    inter = [f for step in data.steps for f in step.factors
             if len(f.keys) == 2
             and (f.keys[0] < RENDEZVOUS_OFFSET)
             != (f.keys[1] < RENDEZVOUS_OFFSET)]
    assert inter, "the components never merge"
    first_inter_step = min(
        i for i, step in enumerate(data.steps)
        for f in step.factors
        if len(f.keys) == 2
        and (f.keys[0] < RENDEZVOUS_OFFSET)
        != (f.keys[1] < RENDEZVOUS_OFFSET))
    # Both chains are already well-established before the rendezvous.
    assert first_inter_step > data.num_steps // 3


@pytest.mark.parametrize("name", ["Kidnapped", "Rendezvous", "Revisit"],
                         ids=str.lower)
def test_adversarial_through_ra_isam2(name):
    data = GENERATORS[name](scale=0.2)
    soc = make_platform("SuperNoVA1S")
    solver = RAISAM2(NodeCostModel(soc), target_seconds=1e-4)
    deferred = 0
    for step in data.steps:
        report = solver.update({step.key: step.guess}, step.factors)
        deferred += report.deferred_variables
    assert deferred > 0, "workload never pressured the budget"
    estimate = solver.estimate()
    keys = [k for k in estimate.keys() if k in data.ground_truth]
    errors = translation_errors(estimate, data.ground_truth, keys)
    assert np.isfinite(errors).all()
    assert errors.max() < 20.0         # bounded despite the adversity


@pytest.mark.parametrize("name", WORKLOADS)
def test_named_fleet_workload_shapes(name):
    workloads = named_fleet_workload(name, num_sessions=3, num_steps=18)
    assert len(workloads) == 3
    for steps in workloads:
        assert len(steps) == 18
        # Exactly one new key per step, and the first step is anchored.
        assert len({s.key for s in steps}) == 18
        assert any(len(f.keys) == 1 for f in steps[0].factors)
    if name != "chain":
        # Sessions are seeded differently: measurements must differ.
        def first_between(steps):
            return next(f for s in steps for f in s.factors
                        if len(f.keys) == 2).measured

        a = first_between(workloads[0])
        b = first_between(workloads[1])
        assert (a.x, a.y, a.theta) != (b.x, b.y, b.theta)


def test_named_fleet_workload_rejects_unknown():
    with pytest.raises(ValueError):
        named_fleet_workload("bogus", 2, 10)


def test_degraded_fleet_runs_adversarial_workload():
    """The overload path survives a kidnapped-robot fleet with a
    non-default selection policy driving the shedding cut."""
    from repro.serving import FleetConfig, run_fleet
    workloads = named_fleet_workload("kidnapped", 3, 30)
    def factory():
        return ISAM2(relin_threshold=0.01, selection_policy="fifo")

    config = FleetConfig(target_seconds=1e-9)  # everything overloads
    result, fleet = run_fleet(workloads, factory, config)
    assert result.steps_completed == 90
    assert fleet.aggregates()["sessions_dead"] == 0
    assert fleet.aggregates()["shed_relin_total"] > 0