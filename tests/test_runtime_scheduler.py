"""Tests for the runtime scheduler, cost model, and step executor."""

import pytest

from repro.hardware import make_platform
from repro.linalg.trace import NodeTrace, OpKind, OpTrace
from repro.runtime import (
    NodeCostModel,
    RuntimeFeatures,
    execute_step,
    node_cycles,
    sequential_cycles,
    simulate_tree,
)
from repro.runtime.cost_model import synthesize_node_ops
from repro.solvers.base import StepReport


def make_node(sid, m=12, n=12, factors=2):
    """A realistic supernode trace."""
    trace = synthesize_node_ops(m, n, factors)
    trace.node_id = sid
    return trace


def chain_tree(length, **node_kwargs):
    """Nodes in a path: 0 -> 1 -> ... -> length-1 (root)."""
    traces = {i: make_node(i, **node_kwargs) for i in range(length)}
    parents = {i: (i + 1 if i + 1 < length else None)
               for i in range(length)}
    return traces, parents


def star_tree(leaves, **node_kwargs):
    """`leaves` independent nodes feeding one root."""
    traces = {i: make_node(i, **node_kwargs) for i in range(leaves + 1)}
    parents = {i: leaves for i in range(leaves)}
    parents[leaves] = None
    return traces, parents


class TestNodeCycles:
    def test_supernova_splits_comp_and_mem(self):
        soc = make_platform("SuperNoVA2S")
        comp, mem, host = node_cycles(make_node(0), soc)
        assert comp > 0 and mem > 0
        assert host == 0.0

    def test_spatula_memory_on_host(self):
        soc = make_platform("Spatula2S")
        comp, mem, host = node_cycles(make_node(0), soc)
        assert comp > 0 and mem == 0.0
        assert host > 0  # memcpy/memset and scatter fall back to Rocket

    def test_cpu_baseline_all_on_host(self):
        soc = make_platform("BOOM")
        comp, mem, host = node_cycles(make_node(0), soc)
        assert comp == 0.0 and mem == 0.0 and host > 0


class TestSimulateTree:
    def test_empty_trace(self):
        result = simulate_tree({}, {}, make_platform("SuperNoVA2S"))
        assert result.makespan_cycles == 0.0
        assert result.nodes_processed == 0

    def test_single_node(self):
        traces = {0: make_node(0)}
        result = simulate_tree(traces, {0: None}, make_platform("SuperNoVA1S"))
        assert result.makespan_cycles > 0
        assert result.nodes_processed == 1

    def test_chain_is_serial(self):
        # A path has no inter-node parallelism: 2 sets barely help
        # (only intra-node).
        traces, parents = chain_tree(6)
        one = simulate_tree(traces, parents,
                            make_platform("SuperNoVA1S")).makespan_cycles
        two = simulate_tree(traces, parents, make_platform("SuperNoVA2S"),
                            RuntimeFeatures(True, True, False)
                            ).makespan_cycles
        assert two == pytest.approx(one, rel=0.01)

    def test_star_parallelizes(self):
        traces, parents = star_tree(8)
        one = simulate_tree(traces, parents,
                            make_platform("SuperNoVA1S")).makespan_cycles
        four = simulate_tree(traces, parents,
                             make_platform("SuperNoVA4S")).makespan_cycles
        assert four < 0.5 * one

    def test_more_sets_never_slower(self):
        traces, parents = star_tree(6)
        prev = float("inf")
        for sets in (1, 2, 4):
            span = simulate_tree(
                traces, parents,
                make_platform(f"SuperNoVA{sets}S")).makespan_cycles
            assert span <= prev * 1.001
            prev = span

    def test_hetero_overlap_helps(self):
        traces, parents = chain_tree(4, m=24, n=24, factors=6)
        on = simulate_tree(traces, parents, make_platform("SuperNoVA1S"),
                           RuntimeFeatures(True, False, False))
        off = simulate_tree(traces, parents, make_platform("SuperNoVA1S"),
                            RuntimeFeatures.none())
        assert on.makespan_cycles < off.makespan_cycles

    def test_inter_node_helps_on_star(self):
        traces, parents = star_tree(8)
        base = simulate_tree(traces, parents, make_platform("SuperNoVA2S"),
                             RuntimeFeatures(True, False, False))
        inter = simulate_tree(traces, parents, make_platform("SuperNoVA2S"),
                              RuntimeFeatures(True, True, False))
        assert inter.makespan_cycles < base.makespan_cycles

    def test_intra_node_helps_on_chain(self):
        traces, parents = chain_tree(4, m=32, n=32, factors=4)
        soc = make_platform("SuperNoVA4S")
        without = simulate_tree(traces, parents, soc,
                                RuntimeFeatures(True, True, False))
        with_intra = simulate_tree(traces, parents, soc,
                                   RuntimeFeatures(True, True, True))
        assert with_intra.makespan_cycles < without.makespan_cycles

    def test_llc_limits_concurrency(self):
        # Nodes whose workspaces exceed the LLC cannot all run at once.
        traces, parents = star_tree(4, m=96, n=96, factors=2)
        soc_small = make_platform(
            "SuperNoVA4S", llc_bytes=traces[0].workspace_bytes + 1)
        soc_big = make_platform("SuperNoVA4S", llc_bytes=64 * 1024 * 1024)
        limited = simulate_tree(traces, parents, soc_small)
        roomy = simulate_tree(traces, parents, soc_big)
        assert limited.makespan_cycles > roomy.makespan_cycles

    def test_dependencies_respected_makespan(self):
        # A chain's makespan is at least the sum of per-node best times.
        traces, parents = chain_tree(5)
        soc = make_platform("SuperNoVA4S")
        result = simulate_tree(traces, parents, soc)
        floor = 0.0
        for trace in traces.values():
            comp, mem, host = node_cycles(trace, soc)
            floor += max(comp / (1.0 + 0.75 * 3), mem) + host
        assert result.makespan_cycles >= floor * 0.999

    def test_utilization_bounded(self):
        traces, parents = star_tree(8)
        result = simulate_tree(traces, parents, make_platform("SuperNoVA2S"))
        assert 0.0 < result.utilization <= 1.0

    def test_cpu_platform_sequential(self):
        traces, parents = star_tree(4)
        boom = make_platform("BOOM")
        result = simulate_tree(traces, parents, boom)
        expected = sequential_cycles(list(traces.values()), boom)
        assert result.makespan_cycles == pytest.approx(expected)


class TestCostModel:
    def test_monotone_in_node_size(self):
        model = NodeCostModel(make_platform("SuperNoVA1S"))
        assert model.node_seconds(24, 24, 4) > model.node_seconds(6, 6, 1)

    def test_speedup_with_sets(self):
        one = NodeCostModel(make_platform("SuperNoVA1S"))
        four = NodeCostModel(make_platform("SuperNoVA4S"))
        assert one.step_speedup() == 1.0
        assert four.step_speedup() > 2.0

    def test_estimate_tracks_simulation(self):
        # The analytic estimate must be within 2x of the scheduled time
        # for a single node (it is used for budgeting, not billing).
        soc = make_platform("SuperNoVA1S")
        model = NodeCostModel(soc)
        trace = make_node(0, m=18, n=24, factors=3)
        simulated = soc.seconds(simulate_tree(
            {0: trace}, {0: None}, soc).makespan_cycles)
        estimated = model.node_seconds(18, 24, 3)
        assert 0.5 < estimated / simulated < 2.0

    def test_cpu_rates(self):
        model = NodeCostModel(make_platform("BOOM"))
        assert model.relin_seconds(100) > 0
        assert model.symbolic_seconds(50) > 0
        assert model.selection_seconds(10) > 0


class TestExecuteStep:
    def make_report(self, soc):
        trace = OpTrace()
        for sid in range(3):
            node = trace.node(sid, cols=12, rows_below=12)
            node.ops.extend(make_node(sid).ops)
        return StepReport(
            step=0, relinearized_factors=5, affected_columns=8,
            refactored_nodes=3, trace=trace, selection_visits=6,
            node_parents={0: 2, 1: 2, 2: None})

    def test_breakdown_positive(self):
        soc = make_platform("SuperNoVA2S")
        report = self.make_report(soc)
        latency = execute_step(report, soc, report.node_parents)
        assert latency.relinearization > 0
        assert latency.symbolic > 0
        assert latency.numeric > 0
        assert latency.overhead > 0
        assert latency.total == pytest.approx(
            latency.relinearization + latency.symbolic
            + latency.numeric + latency.overhead)

    def test_no_trace_no_numeric(self):
        report = StepReport(step=0, relinearized_factors=2,
                            affected_columns=3)
        latency = execute_step(report, make_platform("BOOM"))
        assert latency.numeric == 0.0
        assert latency.total > 0.0

    def test_supernova_numeric_faster_than_boom(self):
        soc = make_platform("SuperNoVA2S")
        report = self.make_report(soc)
        fast = execute_step(report, soc, report.node_parents)
        slow = execute_step(report, make_platform("BOOM"), report.node_parents)
        assert fast.numeric < slow.numeric

    def test_spatula_slower_than_supernova(self):
        soc = make_platform("SuperNoVA2S")
        report = self.make_report(soc)
        nova = execute_step(report, soc, report.node_parents)
        spat = execute_step(report, make_platform("Spatula2S"),
                            report.node_parents)
        assert spat.numeric > nova.numeric

    def test_as_dict_keys(self):
        # Regression: utilization used to be silently dropped from the
        # breakdown dict even though the dataclass carries it.
        report = self.make_report(make_platform("SuperNoVA1S"))
        latency = execute_step(report, make_platform("SuperNoVA1S"),
                               report.node_parents)
        assert set(latency.as_dict().keys()) == {
            "relinearization", "symbolic", "numeric", "overhead",
            "utilization", "total"}

    def test_as_dict_values_match_fields(self):
        soc = make_platform("SuperNoVA2S")
        report = self.make_report(soc)
        latency = execute_step(report, soc, report.node_parents)
        breakdown = latency.as_dict()
        assert breakdown["relinearization"] == latency.relinearization
        assert breakdown["symbolic"] == latency.symbolic
        assert breakdown["numeric"] == latency.numeric
        assert breakdown["overhead"] == latency.overhead
        assert breakdown["utilization"] == latency.utilization
        assert breakdown["total"] == latency.total
        assert 0.0 < breakdown["utilization"] <= 1.0

    def make_chain_report(self):
        """3 nodes in a dependency chain 0 -> 1 -> 2 (root)."""
        trace = OpTrace()
        for sid in range(3):
            node = trace.node(sid, cols=12, rows_below=12)
            node.ops.extend(make_node(sid).ops)
        return StepReport(
            step=0, relinearized_factors=5, affected_columns=8,
            refactored_nodes=3, trace=trace, selection_visits=6,
            node_parents={0: 1, 1: 2, 2: None})

    def test_parents_derived_from_report(self):
        # Regression: execute_step(report, soc) used to schedule every
        # node as an independent root instead of reading
        # report.node_parents, overstating parallelism on accelerator
        # platforms.
        soc = make_platform("SuperNoVA4S")
        report = self.make_chain_report()
        derived = execute_step(report, soc)
        explicit = execute_step(report, soc, report.node_parents)
        assert derived.numeric == pytest.approx(explicit.numeric)
        # A forest of independent roots runs the chain in parallel and
        # must be strictly faster — the old buggy behaviour.
        forest = execute_step(report, soc, parents={})
        assert forest.numeric < derived.numeric

    def test_warns_on_missing_dependency_info(self):
        soc = make_platform("SuperNoVA4S")
        report = self.make_chain_report()
        report.node_parents = None
        with pytest.warns(RuntimeWarning, match="no dependency info"):
            execute_step(report, soc)

    def test_no_warning_for_single_node_or_explicit_empty(self):
        import warnings

        soc = make_platform("SuperNoVA2S")
        trace = OpTrace()
        trace.node(0, cols=12, rows_below=12).ops.extend(make_node(0).ops)
        single = StepReport(step=0, relinearized_factors=1,
                            affected_columns=1, refactored_nodes=1,
                            trace=trace)
        multi = self.make_chain_report()
        multi.node_parents = None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            execute_step(single, soc)          # one node: nothing to order
            execute_step(multi, soc, parents={})  # explicit independence


class TestDramContention:
    def make_memory_heavy(self, sid):
        """A node dominated by memory traffic."""
        from repro.linalg.trace import NodeTrace
        trace = NodeTrace(node_id=sid, cols=8, rows_below=8)
        trace.record(OpKind.MEMSET, 1 << 18)
        trace.record(OpKind.MEMCPY, 1 << 18)
        trace.record(OpKind.GEMM, 8, 8, 8)
        trace.record(OpKind.POTRF, 8)
        return trace

    def test_parallel_memory_saturates_dram(self):
        # Four concurrent memory-bound nodes demand 4x32 B/cycle against
        # 64 B/cycle of DRAM: the speedup from 4 sets must be well below
        # the compute-bound case.
        traces = {i: self.make_memory_heavy(i) for i in range(4)}
        parents = {i: None for i in range(4)}
        one = simulate_tree(traces, parents, make_platform("SuperNoVA1S"))
        four = simulate_tree(traces, parents, make_platform("SuperNoVA4S"))
        speedup = one.makespan_cycles / four.makespan_cycles
        assert speedup < 2.6  # bandwidth-capped, not ~4x

    def test_compute_bound_nodes_unaffected(self):
        traces, parents = star_tree(4, m=32, n=32, factors=2)
        roomy = make_platform("SuperNoVA4S", llc_bytes=1 << 26)
        one = simulate_tree(traces, parents, make_platform("SuperNoVA1S"))
        four = simulate_tree(traces, parents, roomy)
        assert one.makespan_cycles / four.makespan_cycles > 2.0

    def test_two_sets_within_budget(self):
        # 2 x 32 B/cycle == 64 B/cycle: exactly at the DRAM budget, so
        # two memory-heavy nodes still scale.
        traces = {i: self.make_memory_heavy(i) for i in range(2)}
        parents = {i: None for i in range(2)}
        one = simulate_tree(traces, parents, make_platform("SuperNoVA1S"))
        two = simulate_tree(traces, parents, make_platform("SuperNoVA2S"))
        assert two.makespan_cycles < 0.7 * one.makespan_cycles
