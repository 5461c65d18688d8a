"""Mutation-style self-test: the auditor must catch seeded bugs.

An invariant layer that never fires is worse than none — it certifies
broken accounting.  Each test here re-creates a known accounting bug by
flipping one line of the real scheduler source (or monkeypatching the
budget/cost-model), runs the audited stress configurations through the
mutant, and asserts the auditor raises :class:`InvariantViolation`.
Each mutant is also run *without* mutation as a control: the same
configurations must pass clean.
"""

import inspect
import sys
import types

import pytest

import repro.runtime.scheduler as scheduler_module
from repro.core.budget import StepBudget
from repro.hardware import make_platform
from repro.runtime import NodeCostModel, simulate_tree
from repro.validate import InvariantViolation, audited

from .generators import scheduler_config

#: Seeds swept per mutant.  Clamp-style mutations only manifest when
#: float rounding lands on the wrong side, so each mutant gets a batch
#: of configurations, and the test asserts at least one trips the audit.
MUTANT_SEEDS = range(120)


def make_mutant(original: str, replacement: str):
    """Recompile the scheduler module with one line flipped."""
    source = inspect.getsource(scheduler_module)
    assert source.count(original) == 1, (
        f"mutation target not found exactly once: {original!r}")
    mutated = source.replace(original, replacement)
    # Dataclass string annotations resolve through sys.modules, so the
    # mutant must live in a real (temporarily registered) module.
    name = "repro.runtime._mutated_scheduler"
    module = types.ModuleType(name)
    module.__file__ = scheduler_module.__file__
    sys.modules[name] = module
    try:
        exec(compile(mutated, scheduler_module.__file__, "exec"),
             module.__dict__)
    finally:
        del sys.modules[name]
    return module.simulate_tree


def sweep(sim, seeds=MUTANT_SEEDS):
    """Run audited configs through ``sim``; return caught violations."""
    caught = []
    for seed in seeds:
        traces, parents, soc, features = scheduler_config(seed)
        if not soc.has_accelerators:
            continue   # mutations live in the event loop
        try:
            with audited():
                sim(traces, parents, soc, features)
        except InvariantViolation as violation:
            caught.append((seed, violation))
    return caught


def assert_caught(caught, invariant):
    assert caught, "auditor never fired on the mutant"
    names = {v.invariant for _, v in caught}
    assert invariant in names, (
        f"expected a {invariant!r} violation, got {sorted(names)}")


class TestSchedulerMutants:
    def test_control_passes_clean(self):
        """The unmutated scheduler survives every mutant seed."""
        assert sweep(simulate_tree) == []

    def test_dropped_compute_clamp(self):
        """max(0.0, ...) removed from advance(): lanes go negative."""
        sim = make_mutant(
            "job.comp_left = max(0.0, job.comp_left - parallel * rate)",
            "job.comp_left = job.comp_left - parallel * rate")
        assert_caught(sweep(sim), "lane-nonneg")

    def test_dropped_host_clamp(self):
        sim = make_mutant(
            "job.host_left = max(0.0, job.host_left - (span - parallel))",
            "job.host_left = job.host_left - (span - parallel)")
        assert_caught(sweep(sim), "lane-nonneg")

    def test_skipped_llc_restore(self):
        """Completing node never returns its workspace to the LLC."""
        sim = make_mutant(
            "llc_free += traces[sid].workspace_bytes",
            "llc_free += 0 * traces[sid].workspace_bytes")
        assert_caught(sweep(sim), "llc-restored")

    def test_skipped_llc_charge(self):
        """Admission stops debiting the LLC: restore overflows it."""
        sim = make_mutant(
            "llc_free -= workspace",
            "llc_free -= 0 * workspace")
        assert_caught(sweep(sim), "llc-capacity")

    def test_skipped_set_release(self):
        """Completing node keeps its accelerator sets bound."""
        sim = make_mutant(
            "pool.release_owned_by(sid, now)",
            "(lambda *a: 0.0)(sid, now)")
        caught = sweep(sim)
        assert caught, "auditor never fired on the mutant"
        names = {v.invariant for _, v in caught}
        assert names & {"sets-released", "all-nodes-processed"}, names

    def test_skipped_pending_decrement(self):
        """Parent never learns its child merged: tree stalls."""
        sim = make_mutant(
            "pending[parent] -= 1",
            "pending[parent] -= 0")
        caught = sweep(sim)
        assert caught, "auditor never fired on the mutant"
        names = {v.invariant for _, v in caught}
        assert names & {"all-nodes-processed", "pending-children-zero"}, \
            names

    def test_inflated_release_time(self):
        """Busy intervals stretched past the makespan."""
        sim = make_mutant(
            "pool.release_owned_by(sid, now)",
            "pool.release_owned_by(sid, now + 1.0)")
        caught = sweep(sim)
        assert caught, "auditor never fired on the mutant"
        names = {v.invariant for _, v in caught}
        assert names & {"busy-le-makespan", "busy-intervals"}, names


class TestBudgetMutant:
    def test_exhaustion_guard_removed(self, monkeypatch):
        """Re-introduce the seed bug: admits() without the exhaustion
        guard lets zero-cost work through a negative budget."""

        def buggy_admits(self, seconds, joules=0.0):
            if seconds > self.remaining:
                return False
            if self.energy_remaining is not None and \
                    joules > self.energy_remaining:
                return False
            return True

        monkeypatch.setattr(StepBudget, "admits", buggy_admits)
        with audited():
            budget = StepBudget(1.0 / 30.0)
            # Mandatory work lands exactly on the budget: remaining is
            # 0.0, and ``seconds > remaining`` alone admits cost-0 work.
            budget.charge_mandatory(budget.remaining)
            with pytest.raises(InvariantViolation) as excinfo:
                budget.charge(0.0)
        assert excinfo.value.invariant == "budget-no-admit-after-exhausted"

    def test_fixed_budget_passes_clean(self):
        with audited():
            budget = StepBudget(1.0 / 30.0)
            budget.charge_mandatory(budget.remaining)
            assert not budget.charge(0.0)
            budget.charge_mandatory(1.0)
            assert not budget.charge(0.0)


class TestCostModelMutant:
    def test_corrupted_memo_is_detected(self):
        model = NodeCostModel(make_platform("SuperNoVA2S"))
        clean = model.node_seconds(12, 8, 3)
        key = (12, 8, 3)
        model._node_seconds[key] = clean * 1.5   # seeded corruption
        with audited():
            with pytest.raises(InvariantViolation) as excinfo:
                model.node_seconds(12, 8, 3)
        assert excinfo.value.invariant == "cost-memo-consistent"

    def test_intact_memo_passes_clean(self):
        model = NodeCostModel(make_platform("SuperNoVA2S"))
        clean = model.node_seconds(12, 8, 3)
        with audited():
            assert model.node_seconds(12, 8, 3) == clean
