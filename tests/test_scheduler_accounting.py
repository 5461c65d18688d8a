"""Scheduler accounting: utilization bounds, LLC rejection counting,
and per-lane op assignment under every RuntimeFeatures combination."""

import pytest

from repro.hardware import make_platform
from repro.linalg.trace import NodeTrace, OpKind
from repro.runtime import (
    RuntimeFeatures,
    SimResult,
    node_cycles,
    simulate_tree,
)
from repro.runtime.cost_model import synthesize_node_ops

FEATURE_COMBOS = [
    RuntimeFeatures(hetero, inter, intra)
    for hetero in (False, True)
    for inter in (False, True)
    for intra in (False, True)
]

FEATURE_IDS = [f"h{int(f.hetero_overlap)}i{int(f.inter_node)}"
               f"a{int(f.intra_node)}" for f in FEATURE_COMBOS]


def make_node(sid, m=12, n=12, factors=2):
    trace = synthesize_node_ops(m, n, factors)
    trace.node_id = sid
    return trace


def big_workspace_node(sid, front=1200):
    """A node whose frontal workspace alone exceeds the 4 MiB LLC."""
    trace = NodeTrace(node_id=sid, cols=front // 2,
                      rows_below=front - front // 2)
    trace.record(OpKind.GEMM, 48, 48, 48)
    trace.record(OpKind.MEMCPY, 1 << 16)
    return trace


class TestUtilizationBounds:
    def test_no_sets_is_zero(self):
        assert SimResult(10.0, [], 0).utilization == 0.0

    def test_zero_makespan_is_zero(self):
        assert SimResult(0.0, [0.0, 0.0], 0).utilization == 0.0
        assert SimResult(-1.0, [5.0], 1).utilization == 0.0

    def test_exact_ratio(self):
        result = SimResult(100.0, [50.0, 100.0], 2)
        assert result.utilization == pytest.approx(0.75)

    @pytest.mark.parametrize("features", FEATURE_COMBOS, ids=FEATURE_IDS)
    def test_simulated_runs_stay_in_unit_interval(self, features):
        traces = {i: make_node(i) for i in range(6)}
        parents = {i: (5 if i < 5 else None) for i in range(6)}
        result = simulate_tree(traces, parents,
                               make_platform("SuperNoVA2S"), features)
        assert 0.0 < result.utilization <= 1.0

    def test_serial_chain_wastes_extra_sets(self):
        # A pure chain without intra-node splitting keeps one set busy at
        # a time, so utilization on 4 sets cannot beat ~1/4 by much.
        traces = {i: make_node(i) for i in range(5)}
        parents = {i: (i + 1 if i < 4 else None) for i in range(5)}
        result = simulate_tree(traces, parents, make_platform("SuperNoVA4S"),
                               RuntimeFeatures(True, True, False))
        assert result.utilization <= 0.3


class TestLlcRejections:
    def test_oversized_workspaces_are_counted(self):
        # Two independent giant nodes, two sets: the second is admissible
        # by set count but its workspace exceeds the free LLC while the
        # first runs, so the guard defers it at least once.
        traces = {i: big_workspace_node(i) for i in range(2)}
        parents = {0: None, 1: None}
        result = simulate_tree(traces, parents, make_platform("SuperNoVA2S"))
        assert result.llc_rejections >= 1
        assert result.nodes_processed == 2

    def test_blocked_nodes_counted_once_per_admission_event(self):
        # Semantics: each admission event counts every *distinct* node it
        # leaves blocked, not every failed scan iteration.  Two giants on
        # two sets block exactly one node exactly once.
        traces = {i: big_workspace_node(i) for i in range(2)}
        result = simulate_tree(traces, {0: None, 1: None},
                               make_platform("SuperNoVA2S"))
        assert result.llc_rejections == 1

    def test_blocked_count_scales_with_ready_queue(self):
        # Four independent giants serialize on the LLC: the admissions
        # leave 3, then 2, then 1 node blocked — 6 blocked-node events.
        traces = {i: big_workspace_node(i) for i in range(4)}
        result = simulate_tree(traces, {i: None for i in range(4)},
                               make_platform("SuperNoVA2S"))
        assert result.llc_rejections == 6
        assert result.nodes_processed == 4

    def test_roomy_llc_never_rejects(self):
        traces = {i: make_node(i) for i in range(4)}
        parents = {i: None for i in range(4)}
        soc = make_platform("SuperNoVA4S", llc_bytes=1 << 30)
        result = simulate_tree(traces, parents, soc)
        assert result.llc_rejections == 0

    def test_rejected_node_still_completes(self):
        # Deferred admission must not drop work: makespan covers both
        # giants back to back.
        traces = {i: big_workspace_node(i) for i in range(2)}
        parents = {0: None, 1: None}
        constrained = simulate_tree(traces, parents,
                                    make_platform("SuperNoVA2S"))
        single = simulate_tree({0: traces[0]}, {0: None},
                               make_platform("SuperNoVA2S"))
        assert constrained.makespan_cycles >= 1.9 * single.makespan_cycles

    def test_cpu_fallback_reports_none(self):
        traces = {i: big_workspace_node(i) for i in range(2)}
        result = simulate_tree(traces, {0: None, 1: None},
                               make_platform("BOOM"))
        assert result.llc_rejections == 0


class TestLaneAssignment:
    """node_cycles must route each op kind to the documented lane."""

    @pytest.mark.parametrize("features", FEATURE_COMBOS, ids=FEATURE_IDS)
    def test_supernova_lanes(self, features):
        trace = make_node(0)
        comp, mem, host = node_cycles(trace, make_platform("SuperNoVA2S"),
                                      features)
        assert comp > 0.0  # GEMM/SYRK/... and scatter (SIU) on COMP
        if features.hetero_overlap:
            assert mem > 0.0
            assert host == 0.0  # nothing falls back to Rocket
        else:
            # With overlap off the MEM-tile work serializes; it lands in
            # the host lane so node_duration stops overlapping it with
            # compute — still priced at the MEM tile's rate.
            assert mem == 0.0
            _, mem_on, _ = node_cycles(trace, make_platform("SuperNoVA2S"),
                                       RuntimeFeatures(True,
                                                       features.inter_node,
                                                       features.intra_node))
            assert host == pytest.approx(mem_on, rel=1e-12)

    @pytest.mark.parametrize("features", FEATURE_COMBOS, ids=FEATURE_IDS)
    def test_spatula_lanes(self, features):
        trace = make_node(0)
        comp, mem, host = node_cycles(trace, make_platform("Spatula2S"),
                                      features)
        assert comp > 0.0
        assert mem == 0.0  # no MEM tile at all
        assert host > 0.0  # scatter (no SIU) + memset/memcpy on Rocket

    @pytest.mark.parametrize("features", FEATURE_COMBOS, ids=FEATURE_IDS)
    def test_cpu_lanes(self, features):
        trace = make_node(0)
        comp, mem, host = node_cycles(trace, make_platform("BOOM"), features)
        assert comp == 0.0 and mem == 0.0
        assert host > 0.0

    def test_inter_intra_flags_do_not_reprice(self):
        # Lane totals depend only on hetero_overlap; the scheduling flags
        # change how lanes combine, never what each lane costs.
        trace = make_node(0, m=18, n=24, factors=3)
        soc = make_platform("SuperNoVA2S")
        for hetero in (False, True):
            lanes = {node_cycles(trace, soc,
                                 RuntimeFeatures(hetero, inter, intra))
                     for inter in (False, True)
                     for intra in (False, True)}
            assert len(lanes) == 1

    def test_memory_only_trace(self):
        trace = NodeTrace(node_id=0, cols=4, rows_below=4)
        trace.record(OpKind.MEMSET, 1 << 14)
        trace.record(OpKind.MEMCPY, 1 << 14)
        comp, mem, host = node_cycles(trace, make_platform("SuperNoVA1S"))
        assert comp == 0.0 and mem > 0.0 and host == 0.0
        comp, mem, host = node_cycles(trace, make_platform("Spatula1S"))
        assert comp == 0.0 and mem == 0.0 and host > 0.0
