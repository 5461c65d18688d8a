"""The incremental engine's elimination structure equals a batch analysis.

After every engine step, a batch :class:`SymbolicFactorization` built
from scratch over the engine's current order, with the same
amalgamation caps, must have the same supernode partition, the same
row pattern and parent per supernode, and the same tree shape (fill
included).  Both orderings run, so the check also covers the
structure the engine rebuilds after each suffix re-ordering.
"""

import pytest

from repro.datasets import kidnapped_robot_dataset, manhattan_dataset
from repro.linalg import SymbolicFactorization
from repro.solvers.isam2 import IncrementalEngine

RELIN_THRESHOLD = 0.05

DATASETS = {
    "manhattan": lambda: manhattan_dataset(scale=0.02),
    "kidnapped": lambda: kidnapped_robot_dataset(scale=0.1),
}


def engine_tree(engine):
    """Head positions -> (row pattern, parent's head or -1)."""
    out = {}
    for node in engine.nodes.values():
        parent = engine.parent_sid(node)
        head = engine.nodes[parent].positions[0] if parent is not None \
            else -1
        out[tuple(node.positions)] = (list(node.pattern), head)
    return out


def batch_tree(symbolic):
    out = {}
    for node in symbolic.supernodes:
        head = symbolic.supernodes[node.parent].positions[0] \
            if node.parent != -1 else -1
        out[tuple(node.positions)] = (list(node.row_pattern), head)
    return out


def batch_of(engine, max_supernode_vars, relax_fill):
    dims_of = {key: engine.dims[p] for key, p in engine.pos_of.items()}
    return SymbolicFactorization.from_ordering(
        engine.order, dims_of,
        [factor.keys for factor in engine.graph.factors()],
        max_supernode_vars=max_supernode_vars, relax_fill=relax_fill)


@pytest.mark.parametrize("relax_fill", [0, 2])
@pytest.mark.parametrize("max_supernode_vars", [1, 3, 8])
@pytest.mark.parametrize("ordering", IncrementalEngine.ORDERINGS)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_engine_structure_matches_batch(dataset, ordering,
                                        max_supernode_vars, relax_fill):
    data = DATASETS[dataset]()
    engine = IncrementalEngine(max_supernode_vars=max_supernode_vars,
                               relax_fill=relax_fill, ordering=ordering,
                               reorder_interval=5)
    for i, step in enumerate(data.steps):
        relin = [key for key, norm in engine.delta_norms().items()
                 if norm > RELIN_THRESHOLD]
        engine.update({step.key: step.guess}, step.factors, relin)
        symbolic = batch_of(engine, max_supernode_vars, relax_fill)
        assert engine_tree(engine) == batch_tree(symbolic), f"step {i}"
        assert engine.tree_shape() == symbolic.tree_stats(), f"step {i}"
    if ordering == "constrained_colamd":
        assert engine.reorders > 0
