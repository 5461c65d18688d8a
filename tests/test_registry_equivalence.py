"""Gating equivalence: the registry vs the frozen platform fixture.

``tests/fixtures/platforms.json`` was generated from the hand-written
platform factories that preceded the registry, one line per named
platform: its ``pricing_key`` (the full parameter summary the runtime
memoizes on), host model type, SoC wiring, non-pricing rates and the
lane totals of :func:`sample_trace` under both overlap modes.  Every
named platform must still match it exactly; that is what keeps every
committed ``benchmarks/results/*.txt`` file byte-reproducible.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.hardware.platforms import ComputeAccelerator
from repro.hardware.registry import (
    make_platform,
    platform_names,
    register_platform,
)
from repro.hardware.spec import realize
from repro.linalg.trace import NodeTrace, OpKind
from repro.runtime.scheduler import RuntimeFeatures, node_cycles

FIXTURE = {
    record["name"]: record for record in json.loads(
        (Path(__file__).parent / "fixtures" / "platforms.json").read_text())
}


def sample_trace() -> NodeTrace:
    trace = NodeTrace(node_id=0, cols=8, rows_below=24)
    trace.record(OpKind.MEMSET, 2048)
    trace.record(OpKind.GEMM, 24, 8, 8)
    trace.record(OpKind.SYRK, 24, 8)
    trace.record(OpKind.POTRF, 8)
    trace.record(OpKind.TRSM, 24, 8)
    trace.record(OpKind.SCATTER_ADD, 24, 8)
    trace.record(OpKind.MEMCPY, 1536)
    trace.record(OpKind.GEMV, 24, 8)
    trace.record(OpKind.TRSV, 8)
    return trace


@pytest.mark.parametrize("name", sorted(FIXTURE))
class TestRegistryMatchesFactory:
    def test_pricing_key_identical(self, name):
        soc = make_platform(name)
        # Round-trip through JSON: the fixture stores tuples as lists.
        key = json.loads(json.dumps(soc.pricing_key))
        assert key == FIXTURE[name]["pricing_key"]
        assert type(soc.host).__name__ == FIXTURE[name]["host_type"]

    def test_soc_wiring_identical(self, name):
        soc, frozen = make_platform(name), FIXTURE[name]
        assert soc.name == frozen["name"]
        assert frozen["wiring"] == {
            "accel_sets": soc.accel_sets,
            "cpu_tiles": soc.cpu_tiles,
            "has_comp": soc.comp is not None,
            "has_mem": soc.mem is not None,
            "llc_bytes": soc.llc_bytes,
            "dram_bytes_per_cycle": soc.dram_bytes_per_cycle,
            "frequency_hz": soc.frequency_hz,
        }
        assert frozen["rates"] == {
            "host_frequency_hz": soc.host.frequency_hz,
            "relin_cycles_per_factor": soc.host.relin_cycles_per_factor,
            "symbolic_cycles_per_column":
                soc.host.symbolic_cycles_per_column,
            "scratchpad_bytes": (soc.comp.scratchpad_bytes
                                 if soc.comp is not None else None),
        }

    def test_lane_totals_bit_identical(self, name):
        soc = make_platform(name)
        for overlap, mode in ((True, "overlap"), (False, "serial")):
            lanes = node_cycles(sample_trace(), soc,
                                RuntimeFeatures(overlap, True, True))
            assert list(lanes) == FIXTURE[name]["lanes"][mode], mode


class TestRegistryBehaviour:
    def test_all_evaluated_platforms_listed(self):
        names = platform_names()
        for name in FIXTURE:
            assert name in names

    def test_realization_memoized(self):
        soc = make_platform("SuperNoVA2S")
        # An equal value built elsewhere interns to the registry's one.
        assert realize(replace(soc)) is soc

    def test_equal_requests_share_one_instance(self):
        assert make_platform("SuperNoVA2S") is make_platform("SuperNoVA2S")
        wide = make_platform("SuperNoVA2S", systolic_dim=8,
                             llc_bytes=1 << 20)
        assert make_platform("SuperNoVA2S", llc_bytes=1 << 20,
                             systolic_dim=8) is wide
        by_hand = replace(make_platform("SuperNoVA2S"), llc_bytes=1 << 20,
                          comp=ComputeAccelerator(systolic_dim=8))
        assert realize(by_hand) is wide

    def test_override_breaks_sharing(self):
        base = make_platform("SuperNoVA2S")
        wide = make_platform("SuperNoVA2S", systolic_dim=8)
        assert wide is not base
        assert wide.comp.systolic_dim == 8
        assert wide.pricing_key != base.pricing_key

    def test_family_sets_parse(self):
        assert make_platform("SuperNoVA3S").accel_sets == 3
        assert make_platform("Spatula1S").accel_sets == 1

    def test_unknown_platform_raises(self):
        with pytest.raises(KeyError):
            make_platform("TPUv4")

    def test_register_new_platform(self):
        soc = replace(make_platform("SuperNoVA2S"), name="TestBigLLC",
                      llc_bytes=8 * 1024 * 1024)
        register_platform(soc)
        try:
            assert make_platform("TestBigLLC").llc_bytes == \
                8 * 1024 * 1024
            assert "TestBigLLC" in platform_names()
        finally:
            from repro.hardware import registry
            registry._NAMED.pop("TestBigLLC", None)
