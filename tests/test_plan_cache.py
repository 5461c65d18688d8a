"""Step-plan cache behavior: reuse, invalidation, counters, auditing.

The plan/execute split (:mod:`repro.linalg.plan`) compiles each
supernode's symbolic elimination step once and reuses it while the
structure is unchanged.  These tests pin the cache's observable
contract: structure-unchanged rebuilds hit, structural changes miss and
recompile, counters flow into ``StepReport`` extras, and the auditor's
``plan-consistency`` invariant catches a corrupted cached plan.
"""

import numpy as np
import pytest

from repro.factorgraph import BetweenFactorSE2, IsotropicNoise, \
    PriorFactorSE2
from repro.geometry import SE2
from repro.instrumentation import StepContext
from repro.linalg import MultifrontalCholesky, SymbolicFactorization
from repro.linalg.plan import PlanCache, Signature, plans_equal
from repro.solvers import FixedLagSmoother, IncrementalEngine
from repro.solvers.linearize import linearize_graph
from repro.factorgraph import FactorGraph, Values
from repro.validate import InvariantViolation, audited

NOISE = IsotropicNoise(3, 0.1)


def build_engine(n=10, closure=None, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    engine = IncrementalEngine(wildfire_tol=0.0, **kwargs)
    engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)])
    for i in range(1, n):
        guess = SE2(i + rng.normal(0, 0.1), rng.normal(0, 0.1), 0.0)
        factors = [BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0), NOISE)]
        if closure == i:
            factors.append(BetweenFactorSE2(
                0, i, SE2(float(i), 0.0, 0.0), NOISE))
        engine.update({i: guess}, factors)
    return engine


class TestPlanCacheUnit:
    SIG = Signature.of((("a",), ("b",), (), ()))

    def _plan(self, signature):
        from repro.linalg.plan import compile_node_plan
        return compile_node_plan([0], [], [3], np.array([0, 3]),
                                 [], [], signature)

    def test_empty_lookup_misses(self):
        cache = PlanCache()
        assert cache.lookup(0, self.SIG) is None
        assert cache.counters() == (0, 1, 0)

    def test_store_then_hit(self):
        cache = PlanCache()
        plan = self._plan(self.SIG)
        cache.store(0, plan)
        assert cache.lookup(0, self.SIG) is plan
        assert cache.counters() == (1, 0, 1)
        assert len(cache) == 1

    def test_signature_mismatch_misses(self):
        cache = PlanCache()
        cache.store(0, self._plan(self.SIG))
        other = Signature.of((("a",), ("b",), (("f", (0,), 3),), ()))
        assert cache.lookup(0, other) is None
        assert cache.counters() == (0, 1, 1)

    def test_clear_drops_plans_keeps_counters(self):
        cache = PlanCache()
        cache.store(0, self._plan(self.SIG))
        cache.lookup(0, self.SIG)
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup(0, self.SIG) is None
        assert cache.counters() == (1, 1, 1)


class TestEnginePlanReuse:
    def test_first_updates_compile(self):
        ctx = StepContext()
        engine = IncrementalEngine(wildfire_tol=0.0)
        engine.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)],
                      context=ctx)
        assert ctx.plan_compiles >= 1
        assert ctx.plan_compiles == ctx.plan_misses
        assert ctx.plan_hits == 0

    def test_structure_unchanged_relin_hits_every_plan(self):
        engine = build_engine(n=12, closure=7)
        ctx = StepContext()
        engine.update({}, [], relin_keys=[4, 5], context=ctx)
        # Fluid relinearization tears nodes down and rebuilds them with
        # identical structure: every refactorization reuses its plan.
        assert ctx.refactored_nodes > 0
        assert ctx.plan_misses == 0
        assert ctx.plan_compiles == 0
        assert ctx.plan_hits == ctx.refactored_nodes
        engine.check_invariants()

    def test_structure_change_misses_then_hits(self):
        engine = build_engine(n=12)
        ctx = StepContext()
        engine.update(
            {}, [BetweenFactorSE2(2, 11, SE2(9.0, 0.0, 0.0), NOISE)],
            context=ctx)
        # The closure changes factor sets/patterns along the path:
        # those nodes recompile.
        assert ctx.plan_misses > 0
        assert ctx.plan_compiles == ctx.plan_misses
        ctx2 = StepContext()
        engine.update({}, [], relin_keys=[2, 11], context=ctx2)
        assert ctx2.plan_misses == 0
        assert ctx2.plan_hits == ctx2.refactored_nodes
        engine.check_invariants()

    def test_counters_reach_report_extras(self):
        from repro.solvers import ISAM2
        solver = ISAM2(relin_threshold=0.05)
        report = solver.update({0: SE2()},
                               [PriorFactorSE2(0, SE2(), NOISE)])
        for key in ("plan_hits", "plan_misses", "plan_compiles",
                    "refactor_seconds"):
            assert key in report.extras
        assert report.extras["plan_compiles"] >= 1.0

    def test_recompiled_plan_equals_cached(self):
        engine = build_engine(n=8, closure=5)
        for node in engine.nodes.values():
            children = engine._children_nodes(node)
            factor_ids = tuple(
                index for p in node.positions
                for index in engine._factors_at.get(p, ()))
            fresh = engine._compile_plan(node, factor_ids, children,
                                         node.plan.signature)
            assert plans_equal(node.plan, fresh)


class TestPlanAudit:
    def test_clean_run_passes_audit(self):
        with audited() as aud:
            engine = build_engine(n=10, closure=6)
            engine.update({}, [], relin_keys=[3, 4])
        assert aud.checks > 0

    def test_corrupted_plan_is_caught(self):
        engine = build_engine(n=10)
        # Corrupt every cached plan in a way the signature cannot see
        # (the trace metadata is not part of the signature).
        for key in list(range(10)):
            plan = engine.plan_cache.peek(key)
            if plan is not None:
                plan.factor_trace = plan.factor_trace + ((1, 1),)
        with audited():
            with pytest.raises(InvariantViolation) as excinfo:
                engine.update({}, [], relin_keys=[8])
        assert excinfo.value.invariant == "plan-consistency"


class TestBatchSolverPlanReuse:
    def _problem(self, n=9):
        graph = FactorGraph()
        values = Values()
        graph.add(PriorFactorSE2(0, SE2(), NOISE))
        values.insert(0, SE2())
        for i in range(1, n):
            graph.add(BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0), NOISE))
            values.insert(i, SE2(i + 0.1, 0.05, 0.0))
        keys = sorted(values.keys())
        position_of = {k: i for i, k in enumerate(keys)}
        dims = [values.at(k).dim for k in keys]
        symbolic = SymbolicFactorization(
            dims, [sorted(position_of[k] for k in f.keys)
                   for f in graph.factors()])
        contributions = linearize_graph(graph.factors(), values,
                                        position_of)
        return symbolic, contributions

    def test_second_factorize_hits_every_plan(self):
        symbolic, contributions = self._problem()
        solver = MultifrontalCholesky(symbolic, damping=1e-9)
        solver.factorize(contributions)
        n_nodes = len(symbolic.supernodes)
        assert solver.plan_counters == (0, n_nodes, n_nodes)
        first = [la.copy() for la in solver._l_a]
        solver.factorize(contributions)
        assert solver.plan_counters == (n_nodes, n_nodes, n_nodes)
        for a, b in zip(first, solver._l_a):
            assert np.array_equal(a, b)

    def test_shared_cache_across_instances(self):
        symbolic, contributions = self._problem()
        cache = PlanCache()
        n_nodes = len(symbolic.supernodes)
        MultifrontalCholesky(symbolic, damping=1e-9,
                             plan_cache=cache).factorize(contributions)
        MultifrontalCholesky(symbolic, damping=1e-3,
                             plan_cache=cache).factorize(contributions)
        # Damping differs but plans are damping-independent: the second
        # instance reuses every plan the first compiled.
        assert cache.counters() == (n_nodes, n_nodes, n_nodes)


class TestFixedLagPlanReuse:
    def test_iterations_reuse_plans_within_step(self):
        solver = FixedLagSmoother(window=6, iterations=3)
        ctx = StepContext()
        solver.update({0: SE2()}, [PriorFactorSE2(0, SE2(), NOISE)],
                      context=ctx)
        ctx = StepContext()
        solver.update({1: SE2(1.0, 0.0, 0.0)},
                      [BetweenFactorSE2(0, 1, SE2(1.0, 0.0, 0.0), NOISE)],
                      context=ctx)
        # Iteration 1 compiles, iterations 2 and 3 hit.
        assert ctx.plan_compiles == ctx.plan_misses > 0
        assert ctx.plan_hits == 2 * ctx.plan_compiles
