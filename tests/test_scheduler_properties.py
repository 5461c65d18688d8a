"""Property-based tests for the runtime scheduler.

Invariants for arbitrary random trees and node sizes:

* makespan is bounded below by the critical path (best-case per-node
  durations along the deepest dependency chain),
* makespan is bounded above by fully serial execution,
* adding accelerator sets never increases the makespan,
* utilization is in (0, 1].
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import make_platform
from repro.runtime import RuntimeFeatures, node_cycles, simulate_tree
from repro.runtime.cost_model import synthesize_node_ops
from repro.runtime.scheduler import _intra_node_rate


def random_tree(rng, num_nodes):
    """Random forest: each node's parent is a later node (or none)."""
    traces = {}
    parents = {}
    for sid in range(num_nodes):
        m = int(rng.integers(3, 30))
        n = int(rng.integers(0, 40))
        factors = int(rng.integers(0, 5))
        trace = synthesize_node_ops(m, n, factors)
        trace.node_id = sid
        traces[sid] = trace
        if sid + 1 < num_nodes and rng.random() < 0.8:
            parents[sid] = int(rng.integers(sid + 1, num_nodes))
        else:
            parents[sid] = None
    return traces, parents


def critical_path_floor(traces, parents, soc, features):
    """Sum of best-case durations along each leaf-to-root chain."""
    best = {}
    for sid, trace in traces.items():
        comp, mem, host = node_cycles(trace, soc, features)
        rate = _intra_node_rate(soc.accel_sets) if features.intra_node \
            else 1.0
        if features.hetero_overlap:
            best[sid] = max(comp / rate, mem) + host
        else:
            best[sid] = comp / rate + mem + host
    longest = 0.0
    for sid in traces:
        total = 0.0
        cursor = sid
        while cursor is not None:
            total += best[cursor]
            cursor = parents.get(cursor)
        longest = max(longest, total)
    return longest


def serial_ceiling(traces, soc, features):
    total = 0.0
    for trace in traces.values():
        comp, mem, host = node_cycles(trace, soc, features)
        total += comp + mem + host
    # Acquire/release overheads add a small constant per node.
    return total + 50.0 * len(traces)


class TestSchedulerBounds:
    @given(st.integers(1, 16), st.integers(0, 2 ** 16),
           st.sampled_from([1, 2, 4]))
    @settings(max_examples=30, deadline=None)
    def test_bounds_and_monotonicity(self, num_nodes, seed, sets):
        rng = np.random.default_rng(seed)
        traces, parents = random_tree(rng, num_nodes)
        soc = make_platform(f"SuperNoVA{sets}S")
        features = RuntimeFeatures.all()
        result = simulate_tree(traces, parents, soc, features)

        floor = critical_path_floor(traces, parents, soc, features)
        ceiling = serial_ceiling(traces, soc, features)
        assert result.makespan_cycles >= floor * 0.999
        assert result.makespan_cycles <= ceiling * 1.001
        assert result.nodes_processed == num_nodes
        assert 0.0 < result.utilization <= 1.0 + 1e-9

    @given(st.integers(2, 12), st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_more_sets_never_slower(self, num_nodes, seed):
        rng = np.random.default_rng(seed)
        traces, parents = random_tree(rng, num_nodes)
        spans = [simulate_tree(traces, parents, make_platform(f"SuperNoVA{s}S")
                               ).makespan_cycles for s in (1, 2, 4)]
        assert spans[1] <= spans[0] * 1.001
        assert spans[2] <= spans[1] * 1.001

    @given(st.integers(1, 10), st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_features_never_hurt(self, num_nodes, seed):
        rng = np.random.default_rng(seed)
        traces, parents = random_tree(rng, num_nodes)
        soc = make_platform("SuperNoVA2S")
        none = simulate_tree(traces, parents, soc,
                             RuntimeFeatures.none()).makespan_cycles
        full = simulate_tree(traces, parents, soc,
                             RuntimeFeatures.all()).makespan_cycles
        assert full <= none * 1.001
