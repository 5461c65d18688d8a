"""Tests for block symbolic factorization, etree, and supernodes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.ordering import chronological_order, minimum_degree_order
from repro.linalg.symbolic import SymbolicFactorization, ancestors_of


def chain_factors(n):
    """Odometry chain positions [(0,), (0,1), (1,2), ...]."""
    factors = [(0,)]
    factors += [(i, i + 1) for i in range(n - 1)]
    return factors


def column_structure(n, factors):
    """Column structures and etree parents of n unit-dim variables."""
    structure = SymbolicFactorization([1] * n, factors).structure
    return structure.col_struct, structure.parent


class TestColumnStructure:
    def test_chain_structure(self):
        struct, parent = column_structure(4, chain_factors(4))
        assert struct == [[1], [2], [3], []]
        assert parent == [1, 2, 3, -1]

    def test_loop_closure_adds_path_fill(self):
        factors = chain_factors(5) + [(0, 4)]
        struct, parent = column_structure(5, factors)
        # Column 0 now reaches row 4; fill propagates along the path.
        assert struct[0] == [1, 4]
        assert 4 in struct[1]
        assert 4 in struct[2]
        assert 4 in struct[3]

    def test_disconnected_components(self):
        struct, parent = column_structure(4, [(0, 1), (2, 3)])
        assert parent == [1, -1, 3, -1]

    def test_unary_factor_adds_no_structure(self):
        struct, _ = column_structure(2, [(0,), (1,), (0, 1)])
        assert struct == [[1], []]

    def test_clique_factor(self):
        struct, _ = column_structure(3, [(0, 1, 2)])
        assert struct[0] == [1, 2]
        assert struct[1] == [2]  # propagated via elimination

    def test_ancestors_of(self):
        _, parent = column_structure(5, chain_factors(5))
        assert ancestors_of(parent, 1) == [2, 3, 4]
        assert ancestors_of(parent, 4) == []


class TestSupernodes:
    def test_chain_amalgamates(self):
        symbolic = SymbolicFactorization([1] * 6, chain_factors(6),
                                         max_supernode_vars=3)
        nodes, node_of = symbolic.supernodes, symbolic.node_of
        # Chain columns have strictly nested patterns -> merge in runs of 3.
        assert [n.positions for n in nodes] == [[0, 1, 2], [3, 4, 5]]
        assert nodes[0].parent == 1
        assert nodes[1].children == [0]
        assert node_of == [0, 0, 0, 1, 1, 1]

    def test_amalgamate_never_bridges_a_gap(self):
        # A partial rebuild passes only some positions; runs never
        # span a position left out.
        structure = SymbolicFactorization([1] * 6,
                                          chain_factors(6)).structure
        runs = list(structure.amalgamate([0, 1, 3, 4, 5], 8, 1))
        assert runs == [([0, 1], [2]), ([3, 4, 5], [])]

    def test_positions_partition_and_are_consecutive(self):
        factors = chain_factors(10) + [(1, 7), (3, 9), (0, 5)]
        symbolic = SymbolicFactorization([3] * 10, factors)
        seen = []
        for node in symbolic.supernodes:
            assert node.positions == sorted(node.positions)
            assert node.positions == list(
                range(node.positions[0], node.positions[-1] + 1))
            seen.extend(node.positions)
        assert sorted(seen) == list(range(10))

    def test_row_pattern_strictly_after_node(self):
        factors = chain_factors(10) + [(1, 7), (3, 9)]
        symbolic = SymbolicFactorization([3] * 10, factors)
        for node in symbolic.supernodes:
            for row in node.row_pattern:
                assert row > node.positions[-1]

    def test_parent_owns_first_row(self):
        factors = chain_factors(12) + [(2, 8), (5, 11)]
        symbolic = SymbolicFactorization([2] * 12, factors)
        for node in symbolic.supernodes:
            if node.parent != -1:
                parent = symbolic.supernodes[node.parent]
                assert node.row_pattern[0] in parent.positions

    def test_node_order_is_topological(self):
        factors = chain_factors(12) + [(2, 8), (5, 11)]
        symbolic = SymbolicFactorization([2] * 12, factors)
        for node in symbolic.supernodes:
            if node.parent != -1:
                assert node.parent > node.sid

    def test_max_supernode_vars_respected(self):
        symbolic = SymbolicFactorization(
            [1] * 20, chain_factors(20), max_supernode_vars=4)
        for node in symbolic.supernodes:
            assert len(node.positions) <= 4

    def test_fill_nnz_counts_chain(self):
        symbolic = SymbolicFactorization([2] * 3, chain_factors(3))
        # Per column: dense 2x2 lower triangle (3) + below-diagonal rows.
        assert symbolic.fill_nnz() == 3 * 3 + 2 * 2 * 2

    def test_tree_height_chain(self):
        symbolic = SymbolicFactorization(
            [1] * 8, chain_factors(8), max_supernode_vars=1)
        assert symbolic.tree_stats()["height"] == 7.0

    def test_roots(self):
        symbolic = SymbolicFactorization([1] * 4, [(0, 1), (2, 3)])
        assert len(symbolic.roots()) == 2


class TestOrdering:
    def test_chronological(self):
        assert chronological_order([3, 1, 2]) == [1, 2, 3]

    def test_minimum_degree_is_permutation(self):
        factors = chain_factors(8) + [(0, 7), (2, 5)]
        order = minimum_degree_order(range(8), factors)
        assert sorted(order) == list(range(8))

    def test_minimum_degree_prefers_leaves(self):
        # Star graph: center 0 has degree 4, leaves degree 1.
        factors = [(0, i) for i in range(1, 5)]
        order = minimum_degree_order(range(5), factors)
        # The hub survives until only it and one leaf remain.
        assert 0 in order[-2:]

    def test_minimum_degree_reduces_fill_on_star(self):
        factors = [(0, i) for i in range(1, 8)]
        md = minimum_degree_order(range(8), factors)
        pos_md = {k: i for i, k in enumerate(md)}
        md_fill = SymbolicFactorization(
            [1] * 8, [sorted(pos_md[k] for k in f) for f in factors]
        ).fill_nnz()
        # Eliminating the hub first (position 0) creates a dense clique.
        worst = [0] + list(range(1, 8))
        pos_w = {k: i for i, k in enumerate(worst)}
        worst_fill = SymbolicFactorization(
            [1] * 8, [sorted(pos_w[k] for k in f) for f in factors]
        ).fill_nnz()
        assert md_fill < worst_fill

    @given(st.integers(min_value=2, max_value=12), st.data())
    @settings(max_examples=25, deadline=None)
    def test_minimum_degree_random_graphs(self, n, data):
        extra = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=8))
        factors = [(i, i + 1) for i in range(n - 1)]
        factors += [tuple(sorted(e)) for e in extra if e[0] != e[1]]
        order = minimum_degree_order(range(n), factors)
        assert sorted(order) == list(range(n))


class TestKeysAndTreeStats:
    def test_from_ordering_round_trips_keys(self):
        order = ["b", "a", "c"]
        dims = {"a": 3, "b": 2, "c": 3}
        symbolic = SymbolicFactorization.from_ordering(
            order, dims, [("a", "b"), ("a", "c")])
        assert symbolic.dims == [2, 3, 3]
        for p, key in enumerate(order):
            assert symbolic.key_at(p) == key
            assert symbolic.position_of(key) == p

    def test_keys_length_validated(self):
        with pytest.raises(ValueError):
            SymbolicFactorization([1, 1], [(0, 1)], keys=["a"])

    def test_no_keys_raises(self):
        symbolic = SymbolicFactorization([1, 1], [(0, 1)])
        with pytest.raises(ValueError):
            symbolic.key_at(0)
        with pytest.raises(ValueError):
            symbolic.position_of("a")

    def test_chain_stats_are_a_path(self):
        symbolic = SymbolicFactorization(
            [1] * 6, chain_factors(6), max_supernode_vars=1)
        stats = symbolic.tree_stats()
        assert stats["supernodes"] == 6.0
        assert stats["height"] == 5.0
        assert stats["max_width"] == 1.0
        assert stats["branch_nodes"] == 0.0
        assert stats["roots"] == 1.0
        assert stats["fill_nnz"] == float(symbolic.fill_nnz())

    def test_branching_tree_stats(self):
        # Two independent chains joined by a shared root variable.
        factors = [(0, 4), (1, 4), (2, 5), (3, 5), (4, 6), (5, 6)]
        symbolic = SymbolicFactorization(
            [1] * 7, factors, max_supernode_vars=1)
        stats = symbolic.tree_stats()
        assert stats["roots"] == 1.0
        assert stats["branch_nodes"] >= 1.0
        assert stats["max_width"] >= 2.0

    def test_empty(self):
        stats = SymbolicFactorization([], []).tree_stats()
        assert stats["supernodes"] == 0.0
        assert stats["height"] == 0.0
