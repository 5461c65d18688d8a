"""Tests of the benchmark harness: tracer arithmetic and a smoke run.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import math
import types

import pytest

from bench.run import E2E_UNITS, ROOT, RUN_SECONDS, run_workload, \
    use_checkout_sources

use_checkout_sources()

import bench.trace as trace_module  # noqa: E402
from bench.layers import TARGETS, UNITS  # noqa: E402
from bench.trace import Target, Tracer  # noqa: E402
from bench.workloads import OpTimer, make_workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class _Clock:
    """A perf_counter the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


class _Toy:
    def __init__(self, clock: _Clock):
        self.clock = clock

    def parent(self) -> str:
        self.clock.now += 1.0
        self.child()
        self.clock.now += 2.0
        self.child()
        return "done"

    def child(self) -> None:
        self.clock.now += 0.5


@pytest.fixture
def clock(monkeypatch) -> _Clock:
    fake = _Clock()
    monkeypatch.setattr(trace_module, "time", fake)
    return fake


def _toy_targets():
    return [Target(_Toy, "parent", "toy.parent"),
            Target(_Toy, "child", "toy.child")]


class TestTracer:
    def test_self_time_subtracts_children(self, clock):
        tracer = Tracer()
        with tracer.installed(_toy_targets()):
            assert _Toy(clock).parent() == "done"
        assert tracer.total_seconds["toy.parent"] == 4.0
        assert tracer.self_seconds["toy.parent"] == 3.0
        assert tracer.self_seconds["toy.child"] == 1.0
        assert tracer.calls == {"toy.parent": 1, "toy.child": 2}

    def test_children_point_at_their_parent(self, clock):
        tracer = Tracer()
        tracer.op = 7
        with tracer.installed(_toy_targets()):
            with tracer.span("bench.op"):
                _Toy(clock).parent()
        spans = {span[0]: span for span in tracer.spans}
        by_name = {}
        for index, name, _, _, parent, op, _, _ in spans.values():
            by_name.setdefault(name, []).append((index, parent))
            assert op == 7
        (op_id, op_parent), = by_name["bench.op"]
        (parent_id, parent_parent), = by_name["toy.parent"]
        assert op_parent is None and parent_parent == op_id
        assert [p for _, p in by_name["toy.child"]] == [parent_id] * 2
        assert tracer.self_seconds["bench.op"] == 0.0

    def test_originals_restored(self, clock):
        parent, child = _Toy.__dict__["parent"], _Toy.__dict__["child"]
        module = types.ModuleType("toy_module")
        module.fn = len
        targets = _toy_targets() + [Target(module, "fn", "toy.fn")]
        with pytest.raises(RuntimeError):
            with Tracer().installed(targets):
                assert _Toy.__dict__["parent"] is not parent
                assert module.fn is not len
                raise RuntimeError("body failed")
        assert _Toy.__dict__["parent"] is parent
        assert _Toy.__dict__["child"] is child
        assert module.fn is len

    def test_repro_targets_restored(self):
        before = [(t.owner, t.attr, t.owner.__dict__[t.attr]
                   if isinstance(t.owner, type) else getattr(t.owner, t.attr))
                  for t in TARGETS]
        with Tracer().installed(TARGETS):
            pass
        for owner, attr, original in before:
            now = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            assert now is original, f"{owner}.{attr} not restored"

    def test_every_span_is_kept(self, clock):
        tracer = Tracer()
        with tracer.installed(_toy_targets()):
            for _ in range(1000):
                _Toy(clock).parent()
        assert len(tracer.spans) == sum(tracer.calls.values()) == 3000
        assert len({span[0] for span in tracer.spans}) == 3000

    def test_chrome_trace(self, clock, tmp_path):
        tracer = Tracer()
        with tracer.installed(_toy_targets()):
            _Toy(clock).parent()
        path = tmp_path / "t.json"
        tracer.write_chrome_trace(path, {"workload": "toy"})
        data = json.loads(path.read_text())
        assert {e["name"] for e in data["traceEvents"]} == {"toy.parent",
                                                            "toy.child"}
        assert all(e["ph"] == "X" for e in data["traceEvents"])
        assert data["otherData"]["workload"] == "toy"

    def test_self_times_partition_real_steps(self):
        """On a real traced episode the self times of every span sum to
        the wall time of the root spans: no layer is counted twice."""
        workload = make_workloads(tiny=True)["cab1"]
        inputs = workload.setup(0)
        tracer = Tracer()
        with tracer.installed(TARGETS):
            workload.episode(inputs, 0, tracer)
        roots = sum(end - start for _, _, start, end, parent, *_
                    in tracer.spans if parent is None)
        assert math.isclose(sum(tracer.self_seconds.values()), roots,
                            rel_tol=1e-9)
        assert tracer.calls["bench.op"] == len(inputs.datasets[0].steps)


def test_op_timer_records_each_call():
    timer = OpTimer()
    assert timer(max, 3, 4) == 4
    assert len(timer.latencies) == 1 and timer.latencies[0] >= 0.0


def test_declared_benchmark_matches_code():
    assert BENCHMARK["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in make_workloads().values()]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == UNITS


#: A layer each workload must exercise (see bench/README.md).
_EXERCISED = {"cab1": "policy.plan_selection_s",
              "sphere": "linalg.factorize_node_s",
              "m3500": "runtime.execute_step_s",
              "fleet32": "serving.round_s",
              "autotune": "hardware.autotune_s"}


@pytest.mark.parametrize("name", list(make_workloads(tiny=True)))
def test_smoke_run_emits_every_metric(name):
    workload = make_workloads(tiny=True)[name]
    result = run_workload(workload, seed=1, seconds=0.0)
    assert result["correct"], result["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]) and emitted["value"] > 0.0
    assert set(result["metrics"]) == set(E2E_UNITS)

    traced = run_workload(workload, seed=1, seconds=0.0, trace=True)
    assert traced["correct"], traced["checks"]
    for metric in BENCHMARK["per_layer"]:
        emitted = traced["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    assert set(traced["metrics"]) == set(UNITS)
    assert traced["metrics"][_EXERCISED[name]]["value"] > 0.0
    assert (ROOT / "bench" / "out" / f"{name}-seed1.trace.json").is_file()
