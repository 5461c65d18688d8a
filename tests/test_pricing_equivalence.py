"""Dual-path pricing equivalence: vectorized vs scalar per-op reference.

The columnar trace refactor gave every platform model a vectorized
``price_ops(trace)`` next to the scalar ``op_cycles(op)``.  These tests
pin the two paths together to 1e-9 on every evaluated platform model —
the scalar path is the specification, the vectorized path is what the
scheduler, executor, cost model and experiments actually run.
"""

import numpy as np
import pytest

from repro.hardware import ComputeAccelerator, MemoryAccelerator, make_platform
from repro.linalg.trace import NodeTrace, OpKind
from repro.runtime.cost_model import synthesize_node_ops
from repro.runtime.scheduler import (
    RuntimeFeatures,
    node_cycles,
    sequential_cycles,
)

RTOL = 1e-9

HOST_MODELS = [
    pytest.param(make_platform("BOOM").host, id="BOOM"),
    pytest.param(make_platform("MobileCPU").host, id="MobileCPU"),
    pytest.param(make_platform("MobileDSP").host, id="MobileDSP"),
    pytest.param(make_platform("ServerCPU").host, id="ServerCPU"),
    pytest.param(make_platform("EmbeddedGPU").host, id="EmbeddedGPU"),
    pytest.param(make_platform("SuperNoVA1S").host, id="Rocket"),
]

ALL_SOCS = [
    pytest.param(make_platform("BOOM"), id="BOOM"),
    pytest.param(make_platform("MobileCPU"), id="MobileCPU"),
    pytest.param(make_platform("MobileDSP"), id="MobileDSP"),
    pytest.param(make_platform("ServerCPU"), id="ServerCPU"),
    pytest.param(make_platform("EmbeddedGPU"), id="EmbeddedGPU"),
    pytest.param(make_platform("SuperNoVA2S"), id="SuperNoVA2S"),
    pytest.param(make_platform("Spatula2S"), id="Spatula2S"),
]

FEATURE_COMBOS = [
    RuntimeFeatures(hetero, inter, intra)
    for hetero in (False, True)
    for inter in (False, True)
    for intra in (False, True)
]


def mixed_trace() -> NodeTrace:
    """Every op kind at several sizes, including degenerate tiny dims."""
    trace = NodeTrace(node_id=0, cols=12, rows_below=24)
    for m, n, k in [(1, 1, 1), (3, 5, 2), (12, 12, 12), (64, 48, 32)]:
        trace.record(OpKind.GEMM, m, n, k)
        trace.record(OpKind.SYRK, n, k)
        trace.record(OpKind.TRSM, n, m)
        trace.record(OpKind.POTRF, m)
        trace.record(OpKind.TRSV, m)
        trace.record(OpKind.GEMV, m, n)
        trace.record(OpKind.SCATTER_ADD, m, n)
        trace.record(OpKind.MEMSET, 4 * m * n)
        trace.record(OpKind.MEMCPY, 4 * m * (n + k))
    return trace


def engine_like_trace() -> NodeTrace:
    """The op sequence a real supernode refactorization emits."""
    return synthesize_node_ops(18, 30, 7)


TRACES = [pytest.param(mixed_trace(), id="mixed"),
          pytest.param(engine_like_trace(), id="engine")]


def scalar_node_cycles(trace, soc, features):
    """The pre-refactor per-op lane accumulation, kept as reference."""
    comp = mem = host = 0.0
    for op in trace.ops:
        if soc.has_accelerators and soc.comp.supports(op):
            comp += soc.comp.op_cycles(op)
        elif op.is_memory_op and soc.offloads_memory_ops:
            if features.hetero_overlap:
                mem += soc.mem.op_cycles(op)
            else:
                host += soc.mem.op_cycles(op)
        else:
            host += soc.host.op_cycles(op)
    return comp, mem, host


class TestPerOpEquivalence:
    @pytest.mark.parametrize("host", HOST_MODELS)
    @pytest.mark.parametrize("trace", TRACES)
    def test_cpu_and_gpu_models(self, host, trace):
        priced = host.price_ops(trace)
        assert priced.shape == (trace.num_ops,)
        for i, op in enumerate(trace.ops):
            assert priced[i] == pytest.approx(host.op_cycles(op),
                                              rel=RTOL)

    @pytest.mark.parametrize("comp", [
        pytest.param(ComputeAccelerator(has_siu=True), id="COMP+SIU"),
        pytest.param(ComputeAccelerator(has_siu=False), id="COMP-noSIU"),
    ])
    @pytest.mark.parametrize("trace", TRACES)
    def test_compute_accelerator(self, comp, trace):
        priced = comp.price_ops(trace)
        supported = comp.supports_mask(trace)
        for i, op in enumerate(trace.ops):
            if comp.supports(op):
                assert supported[i]
                assert priced[i] == pytest.approx(comp.op_cycles(op),
                                                  rel=RTOL)
            else:
                assert not supported[i]
                assert priced[i] == 0.0
                with pytest.raises(ValueError):
                    comp.op_cycles(op)

    @pytest.mark.parametrize("trace", TRACES)
    def test_memory_accelerator(self, trace):
        mem = MemoryAccelerator()
        priced = mem.price_ops(trace)
        for i, op in enumerate(trace.ops):
            if op.is_memory_op:
                assert priced[i] == pytest.approx(mem.op_cycles(op),
                                                  rel=RTOL)
            else:
                assert priced[i] == 0.0

    @pytest.mark.parametrize("trace", TRACES)
    def test_power_model_columnar(self, trace):
        from repro.hardware import PowerModel
        model = PowerModel()
        host = make_platform("BOOM").host
        cycles = host.price_ops(trace)
        scalar = sum(model.op_energy(op, cycles[i])
                     for i, op in enumerate(trace.ops))
        assert model.columnar_energy(trace, cycles) == \
            pytest.approx(scalar, rel=RTOL)
        powers = model.op_powers(trace)
        for i, op in enumerate(trace.ops):
            assert powers[i] == pytest.approx(model.op_power(op), rel=RTOL)


class TestLaneEquivalence:
    @pytest.mark.parametrize("soc", ALL_SOCS)
    @pytest.mark.parametrize("features", FEATURE_COMBOS,
                             ids=lambda f: f"h{int(f.hetero_overlap)}"
                                           f"i{int(f.inter_node)}"
                                           f"a{int(f.intra_node)}")
    @pytest.mark.parametrize("trace", TRACES)
    def test_node_cycles_matches_scalar(self, soc, features, trace):
        expected = scalar_node_cycles(trace, soc, features)
        actual = node_cycles(trace, soc, features)
        assert actual == pytest.approx(expected, rel=RTOL)

    @pytest.mark.parametrize("soc", ALL_SOCS)
    def test_sequential_cycles_matches_scalar(self, soc):
        traces = [mixed_trace(), engine_like_trace()]
        expected = sum(soc.host.op_cycles(op)
                       for trace in traces for op in trace.ops)
        assert sequential_cycles(traces, soc) == \
            pytest.approx(expected, rel=RTOL)


class TestLaneCache:
    def test_cache_hit_returns_same_totals(self):
        trace = engine_like_trace()
        soc = make_platform("SuperNoVA2S")
        first = node_cycles(trace, soc)
        again = node_cycles(trace, soc)
        assert first == again
        # Another SoC that prices alike (only its set count differs)
        # must hit the same cache entry via the pricing key.
        assert node_cycles(trace, make_platform("SuperNoVA4S")) == first

    def test_mutation_invalidates_cache(self):
        trace = engine_like_trace()
        soc = make_platform("SuperNoVA2S")
        before = node_cycles(trace, soc)
        trace.record(OpKind.GEMM, 32, 32, 32)
        after = node_cycles(trace, soc)
        assert after[0] > before[0]
        assert after == pytest.approx(
            scalar_node_cycles(trace, soc, RuntimeFeatures.all()),
            rel=RTOL)

    def test_distinct_platforms_cached_separately(self):
        trace = engine_like_trace()
        nova = node_cycles(trace, make_platform("SuperNoVA2S"))
        spat = node_cycles(trace, make_platform("Spatula2S"))
        boom = node_cycles(trace, make_platform("BOOM"))
        assert nova != spat
        assert boom[0] == 0.0 and boom[2] > 0.0
        # Re-query each; all three keys must still resolve correctly.
        assert node_cycles(trace, make_platform("SuperNoVA2S")) == nova
        assert node_cycles(trace, make_platform("Spatula2S")) == spat
        assert node_cycles(trace, make_platform("BOOM")) == boom

    def test_overlap_flag_is_part_of_key(self):
        trace = engine_like_trace()
        soc = make_platform("SuperNoVA2S")
        overlap = node_cycles(trace, soc, RuntimeFeatures.all())
        serial = node_cycles(trace, soc, RuntimeFeatures.none())
        assert overlap[1] > 0.0 and serial[1] == 0.0
        assert serial[2] == pytest.approx(overlap[1] + overlap[2],
                                          rel=RTOL)


class TestColumnarLayout:
    def test_columns_match_row_view(self):
        trace = mixed_trace()
        flops = trace.flops_array()
        bytes_ = trace.bytes_array()
        memory = trace.memory_mask()
        inner = trace.inner_dims()
        for i, op in enumerate(trace.ops):
            assert flops[i] == op.flops
            assert bytes_[i] == op.bytes_moved
            assert memory[i] == op.is_memory_op
            assert inner[i] == min(op.dims)

    def test_weight_by_kind_matches_rows(self):
        from repro.linalg.trace import OpTrace
        trace = OpTrace()
        node = trace.node(0, cols=4, rows_below=4)
        node.record(OpKind.GEMM, 4, 4, 4)
        node.record(OpKind.GEMM, 8, 8, 8)
        trace.loose.record(OpKind.TRSV, 12)
        weights = trace.weight_by_kind()
        by_hand = {}
        for op in list(node.ops) + list(trace.loose.ops):
            by_hand[op.kind] = by_hand.get(op.kind, 0) \
                + op.flops + op.bytes_moved
        assert weights == by_hand
        counts = trace.ops_by_kind()
        assert counts == {OpKind.GEMM: 2, OpKind.TRSV: 1}

    def test_empty_trace_columns(self):
        trace = NodeTrace(node_id=0)
        assert trace.num_ops == 0
        assert trace.flops_array().shape == (0,)
        assert make_platform("BOOM").host.price_ops(trace).shape == (0,)
        assert node_cycles(trace, make_platform("SuperNoVA1S")) == \
            (0.0, 0.0, 0.0)

    def test_ops_view_round_trip(self):
        source = mixed_trace()
        copy = NodeTrace(node_id=1, ops=list(source.ops))
        assert [(op.kind, op.dims) for op in copy.ops] == \
            [(op.kind, op.dims) for op in source.ops]
        assert np.array_equal(copy.flops_array(), source.flops_array())
