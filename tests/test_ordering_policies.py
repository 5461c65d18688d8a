"""Tests for the ordering-policy registry and the quotient-graph AMD,
constrained and nested-dissection orderings."""

import random

import pytest

from repro.linalg.ordering import (
    ChronologicalOrdering,
    NestedDissectionOrdering,
    OrderingPolicy,
    amd_order,
    amd_order_positions,
    constrained_colamd_order,
    dense_minimum_degree_order,
    make_ordering_policy,
    minimum_degree_order,
    nested_dissection_order,
    ordering_names,
)
from repro.linalg.symbolic import SymbolicFactorization


def random_graph(n, closures, seed):
    """Odometry chain plus seeded random loop closures."""
    rng = random.Random(seed)
    keys = list(range(n))
    factor_keys = [(0,)] + [(i, i + 1) for i in range(n - 1)]
    for _ in range(closures):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            factor_keys.append((min(a, b), max(a, b)))
    return keys, factor_keys


def fill_of(order, factor_keys):
    symbolic = SymbolicFactorization.from_ordering(
        order, {k: 3 for k in order}, factor_keys)
    return symbolic.tree_stats()["fill_nnz"]


class TestRegistry:
    def test_names(self):
        assert ordering_names() == [
            "chronological", "constrained_colamd",
            "minimum_degree", "nested_dissection"]

    def test_by_name(self):
        for name in ordering_names():
            policy = make_ordering_policy(name)
            assert isinstance(policy, OrderingPolicy)
            assert policy.name == name

    def test_instance_passes_through(self):
        policy = NestedDissectionOrdering(leaf_size=8, seed=3)
        assert make_ordering_policy(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown ordering"):
            make_ordering_policy("alphabetical")
        with pytest.raises(ValueError):
            make_ordering_policy(None)

    def test_policies_are_permutations(self):
        keys, factor_keys = random_graph(40, 25, seed=1)
        for name in ordering_names():
            order = make_ordering_policy(name).order(
                keys, factor_keys, last_keys=keys[-3:])
            assert sorted(order) == sorted(keys), name

    def test_chronological_sorts(self):
        policy = ChronologicalOrdering()
        assert policy.order([3, 1, 2], []) == [1, 2, 3]


class TestAMD:
    def test_permutation_and_determinism(self):
        for seed in range(5):
            keys, factor_keys = random_graph(60, 40, seed)
            order = amd_order(keys, factor_keys)
            assert sorted(order) == keys
            shuffled = list(keys)
            random.Random(seed + 99).shuffle(shuffled)
            assert amd_order(shuffled, factor_keys) == order

    def test_prefers_leaves_on_star(self):
        # Star: hub 0 touches everyone, so it cannot be eliminated until
        # its degree decays to that of the surviving leaves (the final
        # degree-1 tie may break toward the hub's lower index).
        factor_keys = [(0, i) for i in range(1, 8)]
        order = amd_order(list(range(8)), factor_keys)
        assert order.index(0) >= 6

    def test_beats_chronological_fill_on_loopy_graph(self):
        keys, factor_keys = random_graph(120, 90, seed=2)
        assert fill_of(amd_order(keys, factor_keys), factor_keys) \
            < fill_of(keys, factor_keys)

    def test_matches_dense_min_degree_quality(self):
        for seed in range(3):
            keys, factor_keys = random_graph(80, 60, seed)
            amd_fill = fill_of(amd_order(keys, factor_keys), factor_keys)
            dense_fill = fill_of(
                dense_minimum_degree_order(keys, factor_keys), factor_keys)
            assert amd_fill <= 1.3 * dense_fill

    def test_minimum_degree_order_is_amd(self):
        keys, factor_keys = random_graph(50, 30, seed=4)
        assert minimum_degree_order(keys, factor_keys) \
            == amd_order(keys, factor_keys)

    def test_groups_are_ascending(self):
        cliques = [(i, i + 1) for i in range(9)]
        groups = [0, 1, 0, 2, 0, 1, 0, 2, 0, 1]
        order = amd_order_positions(10, cliques, groups)
        assert sorted(order) == list(range(10))
        assert [groups[v] for v in order] == sorted(groups)

    def test_duplicate_and_unary_cliques_ignored(self):
        order = amd_order_positions(
            3, [(0,), (0, 1), (1, 0), (1, 2), (2, 2)])
        assert sorted(order) == [0, 1, 2]


class TestConstrainedColamd:
    def test_last_keys_land_last(self):
        keys, factor_keys = random_graph(50, 30, seed=5)
        last = [10, 20, 49]
        order = constrained_colamd_order(keys, factor_keys, last)
        assert sorted(order) == keys
        assert set(order[-len(last):]) == set(last)

    def test_empty_constraint_is_plain_amd(self):
        keys, factor_keys = random_graph(30, 20, seed=6)
        assert constrained_colamd_order(keys, factor_keys, ()) \
            == amd_order(keys, factor_keys)


class TestNestedDissection:
    def test_deterministic(self):
        keys, factor_keys = random_graph(90, 50, seed=8)
        first = nested_dissection_order(keys, factor_keys, leaf_size=16)
        second = nested_dissection_order(keys, factor_keys, leaf_size=16)
        assert first == second
        assert sorted(first) == keys

    def test_small_graph_falls_back_to_min_degree(self):
        keys, factor_keys = random_graph(10, 4, seed=9)
        assert nested_dissection_order(keys, factor_keys, leaf_size=32) \
            == minimum_degree_order(keys, factor_keys)

    def test_disconnected_components(self):
        factor_keys = [(0, 1), (1, 2), (5, 6), (6, 7)]
        order = nested_dissection_order(list(range(8)), factor_keys)
        assert sorted(order) == list(range(8))
