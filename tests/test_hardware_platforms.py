"""Tests for the platform cycle models, area and power tables."""

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.hardware import (
    AREA_TABLE,
    ComputeAccelerator,
    MemoryAccelerator,
    PowerModel,
    area_summary,
    comp_tile_area,
    make_platform,
    peak_watts,
    platform_area,
)
from repro.hardware.power import SUPERNOVA_PEAK_W
from repro.linalg.trace import Op, OpKind

GEMM_BIG = Op(OpKind.GEMM, (64, 64, 64))
GEMM_TINY = Op(OpKind.GEMM, (3, 3, 3))
MEMCPY = Op(OpKind.MEMCPY, (4096,))
SCATTER = Op(OpKind.SCATTER_ADD, (12, 12))


class TestCpuModels:
    def test_server_faster_than_boom_on_big_gemm(self):
        boom = make_platform("BOOM")
        server = make_platform("ServerCPU")
        t_boom = boom.seconds(boom.host.op_cycles(GEMM_BIG))
        t_server = server.seconds(server.host.op_cycles(GEMM_BIG))
        assert t_server < t_boom / 5

    def test_dsp_beats_mobile_cpu_on_big_gemm(self):
        dsp = make_platform("MobileDSP")
        cpu = make_platform("MobileCPU")
        assert dsp.host.op_cycles(GEMM_BIG) < cpu.host.op_cycles(GEMM_BIG)

    def test_small_matrix_penalty(self):
        host = make_platform("ServerCPU").host
        # Effective throughput on a tiny GEMM is far below peak.
        cycles = host.op_cycles(GEMM_TINY)
        ideal = GEMM_TINY.flops / host.flops_per_cycle
        assert cycles > 3 * ideal

    def test_relin_and_symbolic_rates(self):
        host = make_platform("BOOM").host
        assert host.relin_cycles(10) == 10 * host.relin_cycles_per_factor
        assert host.symbolic_cycles(4) == \
            4 * host.symbolic_cycles_per_column


class TestGpuModel:
    def test_launch_overhead_dominates_small_ops(self):
        gpu = make_platform("EmbeddedGPU").host
        cycles = gpu.op_cycles(GEMM_TINY)
        assert cycles >= gpu.call_overhead

    def test_gpu_wins_big_loses_small_vs_dsp(self):
        gpu = make_platform("EmbeddedGPU")
        dsp = make_platform("MobileDSP")
        huge = Op(OpKind.GEMM, (256, 256, 256))
        t_gpu_big = gpu.seconds(gpu.host.op_cycles(huge))
        t_dsp_big = dsp.seconds(dsp.host.op_cycles(huge))
        assert t_gpu_big < t_dsp_big
        t_gpu_small = gpu.seconds(gpu.host.op_cycles(GEMM_TINY))
        t_dsp_small = dsp.seconds(dsp.host.op_cycles(GEMM_TINY))
        assert t_gpu_small > t_dsp_small


class TestComputeAccelerator:
    def test_gemm_cycles_scale_with_flops(self):
        comp = ComputeAccelerator()
        small = comp.op_cycles(Op(OpKind.GEMM, (8, 8, 8)))
        large = comp.op_cycles(Op(OpKind.GEMM, (32, 32, 32)))
        assert large > 8 * small * 0.5

    def test_rejects_memory_ops(self):
        comp = ComputeAccelerator()
        with pytest.raises(ValueError):
            comp.op_cycles(MEMCPY)
        assert not comp.supports(MEMCPY)

    def test_siu_scatter(self):
        with_siu = ComputeAccelerator(has_siu=True)
        assert with_siu.supports(SCATTER)
        cycles = with_siu.op_cycles(SCATTER)
        assert cycles < 12 * 12  # far better than 1 elem/cycle

    def test_no_siu_rejects_scatter(self):
        without = ComputeAccelerator(has_siu=False)
        assert not without.supports(SCATTER)
        with pytest.raises(ValueError):
            without.op_cycles(SCATTER)

    def test_triangular_less_efficient_than_gemm(self):
        comp = ComputeAccelerator()
        gemm = Op(OpKind.GEMM, (16, 16, 16))
        potrf = Op(OpKind.POTRF, (16,))
        # cycles per flop must be worse for POTRF.
        assert (comp.op_cycles(potrf) / potrf.flops
                > comp.op_cycles(gemm) / gemm.flops)


class TestMemoryAccelerator:
    def test_bandwidth_model(self):
        mem = MemoryAccelerator(bytes_per_cycle=32.0, setup_overhead=20.0)
        assert mem.op_cycles(Op(OpKind.MEMSET, (3200,))) == \
            pytest.approx(20.0 + 100.0)

    def test_rejects_compute(self):
        mem = MemoryAccelerator()
        with pytest.raises(ValueError):
            mem.op_cycles(GEMM_BIG)

    def test_mem_beats_host_cpu_on_memcpy(self):
        soc = make_platform("SuperNoVA2S")
        assert soc.mem.op_cycles(MEMCPY) < soc.host.op_cycles(MEMCPY)

    def test_pricing_key_cached(self):
        # Built once, then returned by identity (the runtime memoizes on
        # it per node, so cheap repeated access matters).
        for model in (MemoryAccelerator(), ComputeAccelerator()):
            first = model.pricing_key
            assert model.pricing_key is first


class TestSoCConfigs:
    def test_supernova_has_both_accels(self):
        soc = make_platform("SuperNoVA2S")
        assert soc.has_accelerators
        assert soc.offloads_memory_ops
        assert soc.accel_sets == 2

    def test_spatula_no_mem_no_siu(self):
        soc = make_platform("Spatula2S")
        assert soc.has_accelerators
        assert not soc.offloads_memory_ops
        assert not soc.comp.has_siu

    def test_baselines_have_no_accels(self):
        for name in ("BOOM", "MobileCPU", "MobileDSP", "ServerCPU",
                     "EmbeddedGPU"):
            assert not make_platform(name).has_accelerators

    def test_seconds_conversion(self):
        soc = make_platform("SuperNoVA2S")
        assert soc.seconds(1.0e9) == pytest.approx(1.0)

    def test_platforms_are_immutable(self):
        # The registry hands every caller one shared instance; an edit
        # would re-price every other caller's steps under a stale key.
        soc = make_platform("SuperNoVA2S")
        with pytest.raises(FrozenInstanceError):
            soc.llc_bytes = 1 << 20
        with pytest.raises(FrozenInstanceError):
            soc.comp.systolic_dim = 16
        with pytest.raises(FrozenInstanceError):
            soc.host.call_overhead = 0.0
        assert make_platform("SuperNoVA2S").comp.systolic_dim == 4


class TestValidation:
    """Out-of-range parameters raise ``ValueError`` naming the field."""

    def test_zero_systolic_dim(self):
        with pytest.raises(ValueError, match="systolic_dim"):
            make_platform("SuperNoVA2S", systolic_dim=0)

    def test_negative_accel_sets(self):
        with pytest.raises(ValueError, match="accel_sets"):
            make_platform("SuperNoVA2S", accel_sets=-1)

    def test_negative_llc(self):
        with pytest.raises(ValueError, match="llc_bytes"):
            make_platform("SuperNoVA2S", llc_bytes=-5)

    def test_zero_dram_bandwidth(self):
        with pytest.raises(ValueError, match="dram_bytes_per_cycle"):
            make_platform("SuperNoVA2S", dram_bytes_per_cycle=0)

    def test_zero_set_family_member(self):
        with pytest.raises(ValueError, match="cpu_tiles"):
            make_platform("SuperNoVA0S")

    @pytest.mark.parametrize("model, kwargs", [
        (ComputeAccelerator, {"rocc_overhead": -1.0}),
        (ComputeAccelerator, {"kind_efficiency": (("gemm", 0.0),)}),
        (MemoryAccelerator, {"bytes_per_cycle": float("nan")}),
        (MemoryAccelerator, {"setup_overhead": -1.0}),
    ], ids=["rocc_overhead", "kind_efficiency", "bytes_per_cycle",
            "setup_overhead"])
    def test_model_fields(self, model, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            model(**kwargs)

    def test_host_fields(self):
        host = make_platform("BOOM").host
        with pytest.raises(ValueError, match="frequency_hz"):
            replace(host, frequency_hz=0.0)
        with pytest.raises(ValueError, match="call_overhead"):
            replace(host, call_overhead=-1.0)
        gpu = make_platform("EmbeddedGPU").host
        with pytest.raises(ValueError, match="occupancy_saturation"):
            replace(gpu, occupancy_saturation=0.0)


class TestArea:
    def test_table_matches_paper(self):
        assert AREA_TABLE["boom_baseline"] == 1_262_000.0
        assert AREA_TABLE["comp_tile"] == 301_000.0
        assert AREA_TABLE["mem_tile"] == 51_000.0

    def test_one_set_is_40_percent_of_boom(self):
        summary = area_summary(accel_sets=1, cpu_tiles=1)
        assert summary["fraction_of_boom"] == pytest.approx(0.40, abs=0.01)

    def test_two_sets_two_cpus_is_80_percent(self):
        summary = area_summary(accel_sets=2, cpu_tiles=2)
        assert summary["fraction_of_boom"] == pytest.approx(0.80, abs=0.02)

    def test_siu_is_small(self):
        # The SIU adds ~3% of the COMP tile (paper Table 5).
        ratio = (AREA_TABLE["comp_sparse_index_unit"]
                 / AREA_TABLE["comp_tile"])
        assert ratio == pytest.approx(0.03, abs=0.005)


class TestParametricArea:
    def test_baseline_tile_matches_table(self):
        # At Table 3's design point the parametric model *is* Table 5.
        assert comp_tile_area() == AREA_TABLE["comp_tile"]

    def test_mesh_scales_quadratically(self):
        grown = comp_tile_area(systolic_dim=8) - comp_tile_area()
        assert grown == pytest.approx(3 * AREA_TABLE["comp_mesh"])

    def test_scratchpad_scales_linearly(self):
        grown = comp_tile_area(scratchpad_bytes=64 * 1024) \
            - comp_tile_area()
        assert grown == pytest.approx(
            AREA_TABLE["comp_scratchpad_accumulator"])

    def test_no_siu_subtracts_unit(self):
        assert comp_tile_area() - comp_tile_area(has_siu=False) == \
            AREA_TABLE["comp_sparse_index_unit"]

    def test_platform_area_matches_summary(self):
        for sets in (1, 2, 4):
            soc = make_platform(f"SuperNoVA{sets}S")
            summary = area_summary(accel_sets=sets, cpu_tiles=sets)
            assert platform_area(soc) == summary["total_um2"]

    def test_boom_platform_uses_baseline(self):
        assert platform_area(make_platform("BOOM")) == \
            AREA_TABLE["boom_baseline"]

    def test_cpu_platform_without_table_entry_raises(self):
        with pytest.raises(ValueError):
            platform_area(make_platform("ServerCPU"))

    def test_spatula_drops_mem_tile_and_siu(self):
        nova = platform_area(make_platform("SuperNoVA1S"))
        spatula = platform_area(make_platform("Spatula1S"))
        assert nova - spatula == pytest.approx(
            AREA_TABLE["mem_tile"] + AREA_TABLE["comp_sparse_index_unit"])


class TestPower:
    def test_peak_is_syrk(self):
        model = PowerModel()
        assert model.peak_op_kind() is OpKind.SYRK
        syrk = Op(OpKind.SYRK, (16, 16))
        assert model.op_power(syrk) == pytest.approx(SUPERNOVA_PEAK_W)

    def test_supernova_far_below_gpu_power(self):
        from repro.hardware.power import EMBEDDED_GPU_RANGE_W, FPGA_RANGE_W
        assert SUPERNOVA_PEAK_W < FPGA_RANGE_W[0] / 10
        assert SUPERNOVA_PEAK_W < EMBEDDED_GPU_RANGE_W[0] / 40

    def test_energy_scales_with_cycles(self):
        model = PowerModel()
        op = Op(OpKind.GEMM, (8, 8, 8))
        assert model.op_energy(op, 2000.0) == \
            pytest.approx(2.0 * model.op_energy(op, 1000.0))

    def test_trace_energy_sums(self):
        model = PowerModel()
        pairs = [(Op(OpKind.GEMM, (8, 8, 8)), 100.0),
                 (Op(OpKind.MEMSET, (256,)), 50.0)]
        total = model.trace_energy(pairs)
        assert total == pytest.approx(
            sum(model.op_energy(op, c) for op, c in pairs))

    def test_memory_ops_cheaper_than_compute(self):
        model = PowerModel()
        assert (model.op_power(Op(OpKind.MEMSET, (1024,)))
                < model.op_power(Op(OpKind.GEMM, (8, 8, 8))))

    def test_peak_watts_pins_table_at_base_dim(self):
        # The parametric curve passes exactly through the published
        # 4x4-array peak.
        assert peak_watts(4) == SUPERNOVA_PEAK_W

    def test_peak_watts_array_fraction_scales_quadratically(self):
        # Static (non-array) power is the dim-independent floor.
        static = peak_watts(4) - (peak_watts(8) - peak_watts(4)) / 3.0
        assert static > 0.0
        for dim in (2, 8, 16):
            array = (peak_watts(dim) - static)
            assert array == pytest.approx(
                (peak_watts(4) - static) * (dim / 4.0) ** 2)
