"""Microbenchmark: vectorized columnar pricing vs the scalar per-op loop.

Runs incremental ISAM2 over the scaled CAB1 session, collects every
supernode trace the backend emitted, and times the step-pricing path
both ways:

* scalar — the seed's per-op lane accumulation (``op_cycles`` on Op
  dataclasses, pre-materialized so the loop matches the seed's
  list-of-Ops storage), and
* vectorized — ``node_cycles`` over the columnar layout, with the
  per-trace lane caches cleared between iterations so the pricing math
  itself is what gets measured (column materialization stays warm: the
  columns are built once per trace by design).

Both paths price the SuperNoVA SoC (COMP/MEM/host lanes) and the BOOM
host (sequential baseline).  Asserts the combined speedup is at least
3x (the PR's acceptance floor).
"""

import time

import pytest

from repro.experiments.common import isam2_run
from repro.hardware import make_platform
from repro.runtime.scheduler import (
    RuntimeFeatures,
    node_cycles,
    sequential_cycles,
)

REPEATS = 5
ITERATIONS = 10
MIN_SPEEDUP = 3.0


def _scalar_node_cycles(ops, soc, features):
    """The pre-refactor per-op lane accumulation."""
    comp = mem = host = 0.0
    for op in ops:
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


def _best_of(fn, repeats=REPEATS, iterations=ITERATIONS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="pricing-layer")
def test_pricing_speedup(once, save_result):
    run = isam2_run("CAB1")
    traces = [node for report in run.reports if report.trace is not None
              for node in report.trace.nodes.values()]
    num_ops = sum(trace.num_ops for trace in traces)
    assert traces and num_ops > 0

    nova = make_platform("SuperNoVA2S")
    boom = make_platform("BOOM")
    features = RuntimeFeatures.all()
    # The seed stored each trace as a list of Op dataclasses; give the
    # scalar loop the same starting point so only pricing is timed.
    ops_lists = [list(trace.ops) for trace in traces]

    def scalar_step():
        for ops in ops_lists:
            _scalar_node_cycles(ops, nova, features)
        total = 0.0
        for ops in ops_lists:
            for op in ops:
                total += boom.host.op_cycles(op)
        return total

    def vectorized_step():
        for trace in traces:
            trace._lane_cache.clear()
            node_cycles(trace, nova, features)
        return sequential_cycles(traces, boom)

    # Both paths must agree before their speed is worth comparing.
    assert vectorized_step() == pytest.approx(scalar_step(), rel=1e-9)
    for trace in traces:
        for soc in (nova, boom):
            scalar = _scalar_node_cycles(list(trace.ops), soc, features)
            assert node_cycles(trace, soc, features) == \
                pytest.approx(scalar, rel=1e-9)

    def measure():
        scalar_seconds = _best_of(scalar_step)
        vector_seconds = _best_of(vectorized_step)
        return scalar_seconds, vector_seconds

    scalar_seconds, vector_seconds = once(measure)
    speedup = scalar_seconds / vector_seconds

    lines = [
        "pricing-layer microbenchmark "
        f"(CAB1 run, {len(traces)} node traces, {num_ops} ops, "
        "SuperNoVA lanes + BOOM sequential)",
        f"scalar     per-op loop:  "
        f"{1e3 * scalar_seconds / ITERATIONS:8.2f} ms/pricing pass",
        f"vectorized price_ops:    "
        f"{1e3 * vector_seconds / ITERATIONS:8.2f} ms/pricing pass",
        f"speedup: {speedup:.2f}x (floor {MIN_SPEEDUP}x)",
    ]
    save_result("pricing_speedup", "\n".join(lines))
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized pricing only {speedup:.2f}x faster")
