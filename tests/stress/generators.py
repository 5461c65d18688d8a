"""Seeded random configuration generators for the stress harness.

Every generator takes a ``numpy.random.Generator`` (or an integer seed)
and produces one configuration: a random elimination forest with random
node traces, a random SoC, a random feature combination, a random
per-step budget sequence, or a random online pose-graph workload.  The
harness drives the audited runtime through thousands of these; a
failing seed reproduces the exact configuration.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.pose_graph import PoseGraphDataset, TimeStep
from repro.factorgraph.factors import BetweenFactorSE2, PriorFactorSE2
from repro.factorgraph.noise import IsotropicNoise
from repro.geometry.se2 import SE2
from repro.hardware import make_platform
from repro.linalg.trace import NodeTrace, OpKind
from repro.runtime.cost_model import synthesize_node_ops
from repro.runtime.scheduler import RuntimeFeatures

NOISE2 = IsotropicNoise(3, 0.1)


def rng_of(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# -- scheduler configurations ------------------------------------------

def random_trace(rng, sid: int) -> NodeTrace:
    """A node trace: usually a synthesized supernode, sometimes a
    degenerate shape (memory-only, empty, or LLC-busting workspace)."""
    shape = rng.random()
    if shape < 0.70:
        trace = synthesize_node_ops(int(rng.integers(2, 40)),
                                    int(rng.integers(0, 50)),
                                    int(rng.integers(0, 6)))
        trace.node_id = sid
        return trace
    if shape < 0.80:   # memory-only node
        trace = NodeTrace(node_id=sid, cols=int(rng.integers(2, 12)),
                          rows_below=int(rng.integers(0, 12)))
        for _ in range(int(rng.integers(1, 5))):
            kind = OpKind.MEMCPY if rng.random() < 0.5 else OpKind.MEMSET
            trace.record(kind, int(rng.integers(1, 1 << 16)))
        return trace
    if shape < 0.90:   # empty node (zero priced work)
        return NodeTrace(node_id=sid, cols=int(rng.integers(1, 6)),
                         rows_below=0)
    # Giant frontal workspace: exercises the LLC admission guard.
    front = int(rng.integers(800, 2000))
    trace = NodeTrace(node_id=sid, cols=front // 2,
                      rows_below=front - front // 2)
    trace.record(OpKind.GEMM, 32, 32, 32)
    trace.record(OpKind.MEMCPY, 1 << 14)
    return trace


def random_forest(rng, max_nodes: int = 14):
    """Random forest: each node's parent is a later node or None."""
    num_nodes = int(rng.integers(1, max_nodes + 1))
    traces, parents = {}, {}
    for sid in range(num_nodes):
        traces[sid] = random_trace(rng, sid)
        if sid + 1 < num_nodes and rng.random() < 0.8:
            parents[sid] = int(rng.integers(sid + 1, num_nodes))
        else:
            parents[sid] = None
    return traces, parents


def random_soc(rng):
    """A platform, with the LLC sometimes shrunk to force rejections."""
    choice = rng.random()
    if choice < 0.55:
        name = f"SuperNoVA{int(rng.integers(1, 5))}S"
    elif choice < 0.75:
        name = f"Spatula{int(rng.integers(1, 3))}S"
    elif choice < 0.85:
        name = "BOOM"
    elif choice < 0.95:
        name = "ServerCPU"
    else:
        name = "EmbeddedGPU"
    soc = make_platform(name)
    if soc.has_accelerators and rng.random() < 0.5:
        soc = make_platform(
            name, llc_bytes=int(rng.integers(1 << 14, 1 << 23)))
    return soc


def random_features(rng) -> RuntimeFeatures:
    return RuntimeFeatures(bool(rng.integers(0, 2)),
                           bool(rng.integers(0, 2)),
                           bool(rng.integers(0, 2)))


def scheduler_config(seed):
    """(traces, parents, soc, features) for one audited simulate_tree."""
    rng = rng_of(seed)
    traces, parents = random_forest(rng)
    return traces, parents, random_soc(rng), random_features(rng)


# -- budget charge sequences -------------------------------------------

def budget_sequence(seed):
    """(target, safety, energy_cap, [(kind, seconds, joules), ...])."""
    rng = rng_of(seed)
    target = float(rng.uniform(1e-4, 1e-1))
    safety = float(rng.uniform(0.1, 1.0))
    energy = float(rng.uniform(1e-5, 1e-2)) if rng.random() < 0.4 else None
    charges = []
    for _ in range(int(rng.integers(1, 40))):
        kind = "mandatory" if rng.random() < 0.3 else "optional"
        # Heavy tail so mandatory work regularly overruns the budget,
        # and zero-cost items probe the exhaustion guard.
        seconds = 0.0 if rng.random() < 0.15 \
            else float(rng.uniform(0.0, target))
        joules = float(rng.uniform(0.0, 2e-3))
        charges.append((kind, seconds, joules))
    return target, safety, energy, charges


# -- online pose-graph workloads ---------------------------------------

def random_chain_dataset(seed, max_steps: int = 18) -> PoseGraphDataset:
    """A small SE(2) chain with random noise and random loop closures."""
    rng = rng_of(seed)
    n = int(rng.integers(4, max_steps + 1))
    noise_scale = float(rng.uniform(0.05, 0.4))
    truth = {i: SE2(float(i), 0.0, 0.0) for i in range(n)}
    steps = [TimeStep(key=0, guess=SE2(),
                      factors=[PriorFactorSE2(0, SE2(), NOISE2)])]
    for i in range(1, n):
        guess = SE2(i + float(rng.normal(0, noise_scale)),
                    float(rng.normal(0, noise_scale)),
                    float(rng.normal(0, 0.1)))
        factors = [BetweenFactorSE2(i - 1, i, SE2(1.0, 0.0, 0.0), NOISE2)]
        if i > 2 and rng.random() < 0.2:
            back = int(rng.integers(0, i - 2))
            factors.append(BetweenFactorSE2(
                back, i, SE2(float(i - back), 0.0, 0.0), NOISE2))
        steps.append(TimeStep(key=i, guess=guess, factors=factors))
    return PoseGraphDataset(name=f"stress-chain-{seed}", steps=steps,
                            ground_truth=truth, is_3d=False)


def solver_config(seed):
    """(dataset, soc, target_seconds, policy) for one audited run."""
    rng = rng_of(seed)
    dataset = random_chain_dataset(rng)
    soc = make_platform(f"SuperNoVA{int(rng.integers(1, 5))}S") \
        if rng.random() < 0.7 else make_platform("BOOM")
    # Spread targets from starved (defer everything) to roomy.
    target = float(rng.choice([1e-6, 1e-4, 1e-3, 1.0 / 30.0, 1.0]))
    policy = str(rng.choice(["relevance", "fifo", "random"]))
    return dataset, soc, target, policy
