"""Variable elimination ordering policies.

Incremental SLAM uses the *chronological* ordering (oldest pose eliminated
first, newest near the root): new measurements then only touch nodes near
the root, and loop closures reach deep into the tree — exactly the dynamics
the paper's Figure 2/11 show.  Minimum degree (quotient-graph AMD),
constrained COLAMD (ISAM2's recent-variables-last idiom), and nested
dissection are provided for batch solves, the ordering ablation, and the
incremental engine's periodic re-ordering.

Two layers live here:

* free ordering functions (``amd_order``, ``constrained_colamd_order``,
  ``nested_dissection_order``, ...) plus the position-space core
  ``amd_order_positions`` used by the incremental engine, and
* the :class:`OrderingPolicy` protocol with a registry
  (``make_ordering_policy``) that solvers and the CLI configure by name.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Sequence, Set, Tuple, Union

import networkx as nx

from repro.factorgraph.keys import Key


def chronological_order(keys: Iterable[Key]) -> List[Key]:
    """Sort keys ascending: pose i is eliminated before pose i+1."""
    return sorted(keys)


# ----------------------------------------------------------------------
# Approximate minimum degree (quotient graph)
# ----------------------------------------------------------------------

def amd_order_positions(
    num_vars: int,
    cliques: Sequence[Sequence[int]],
    groups: Sequence[int] = (),
) -> List[int]:
    """Constrained approximate minimum degree over variables ``0..n-1``.

    Quotient-graph AMD (Amestoy/Davis/Duff): each input clique starts as
    an *element*; eliminating a pivot merges its elements into one new
    element over the pivot's neighborhood, so no dense clique update is
    ever materialized.  Degrees are the standard approximate external
    degrees ``|Lp \\ v| + sum_e |Le \\ Lp|`` with the per-pivot decrement
    trick for the ``|Le \\ Lp|`` terms, and elements subsumed by the new
    one are absorbed aggressively.  Total work is near-linear in the
    factor structure — milliseconds on M3500-scale graphs, unlike the
    O(clique^2) dense update.

    ``groups`` (optional, default all-zero) gives constrained-ordering
    semantics: variables are eliminated in ascending group, minimum
    degree within a group, index as the final tie-break.  Deterministic
    for fixed inputs (integer sets iterate in insertion-stable order and
    every tie breaks on the variable index).
    """
    if not groups:
        groups = [0] * num_vars
    var_elems: List[Set[int]] = [set() for _ in range(num_vars)]
    elem_vars: Dict[int, Set[int]] = {}
    next_elem = 0
    seen_cliques: Set[frozenset] = set()
    for clique in cliques:
        members = frozenset(clique)
        if len(members) < 2 or members in seen_cliques:
            continue
        seen_cliques.add(members)
        elem_vars[next_elem] = set(members)
        for v in members:
            var_elems[v].add(next_elem)
        next_elem += 1

    degree = [0] * num_vars
    for v in range(num_vars):
        if var_elems[v]:
            reach: Set[int] = set()
            for e in var_elems[v]:
                reach |= elem_vars[e]
            reach.discard(v)
            degree[v] = len(reach)
    heap = [(groups[v], degree[v], v) for v in range(num_vars)]
    heapq.heapify(heap)
    alive = [True] * num_vars
    order: List[int] = []
    while heap:
        group, deg, pivot = heapq.heappop(heap)
        if not alive[pivot] or deg != degree[pivot]:
            continue  # lazily-deleted stale entry
        alive[pivot] = False
        order.append(pivot)
        if not var_elems[pivot]:
            continue
        # Lp: the pivot's neighborhood = union of its elements.
        lp: Set[int] = set()
        for e in var_elems[pivot]:
            lp |= elem_vars[e]
        lp.discard(pivot)
        # Absorb the pivot's elements into the new element Lp.
        for e in var_elems[pivot]:
            for v in elem_vars[e]:
                if v != pivot:
                    var_elems[v].discard(e)
            del elem_vars[e]
        var_elems[pivot].clear()
        if len(lp) < 2:
            # A single remaining neighbor adds no future fill edges.
            for v in lp:
                degree[v] = max(0, sum(
                    len(elem_vars[e]) - 1 for e in var_elems[v]))
                heapq.heappush(heap, (groups[v], degree[v], v))
            continue
        new_elem = next_elem
        next_elem += 1
        elem_vars[new_elem] = lp
        # |Le \ Lp| per adjacent element, via one decrement per (e, v)
        # incidence; elements fully covered by Lp are absorbed.
        external: Dict[int, int] = {}
        for v in lp:
            for e in var_elems[v]:
                if e not in external:
                    external[e] = len(elem_vars[e])
                external[e] -= 1
        for e, ext in external.items():
            if ext == 0:
                for v in elem_vars[e]:
                    var_elems[v].discard(e)
                del elem_vars[e]
        lp_size = len(lp)
        for v in lp:
            var_elems[v].add(new_elem)
            d = lp_size - 1
            for e in var_elems[v]:
                if e != new_elem:
                    d += external.get(e, 0)
            degree[v] = d
            heapq.heappush(heap, (groups[v], d, v))
    return order


def amd_order(
    keys: Iterable[Key],
    factor_keys: Sequence[Tuple[Key, ...]],
) -> List[Key]:
    """Approximate minimum degree over keys (quotient-graph AMD core)."""
    ranked = sorted(keys)
    rank = {k: i for i, k in enumerate(ranked)}
    cliques = [[rank[k] for k in dict.fromkeys(fk)] for fk in factor_keys]
    order = amd_order_positions(len(ranked), cliques)
    return [ranked[i] for i in order]


def constrained_colamd_order(
    keys: Iterable[Key],
    factor_keys: Sequence[Tuple[Key, ...]],
    last_keys: Iterable[Key],
) -> List[Key]:
    """AMD with ``last_keys`` constrained to the end of the order.

    The constrained-COLAMD idiom ISAM2 uses: the most recent (affected)
    variables go last, near the root of the elimination tree, so the next
    incremental update touches only the top while the rest is ordered for
    low fill.  Both groups are minimum-degree ordered; the constraint
    only forces group boundaries.
    """
    ranked = sorted(keys)
    rank = {k: i for i, k in enumerate(ranked)}
    last_set = set(last_keys)
    groups = [1 if k in last_set else 0 for k in ranked]
    cliques = [[rank[k] for k in dict.fromkeys(fk)] for fk in factor_keys]
    order = amd_order_positions(len(ranked), cliques, groups)
    return [ranked[i] for i in order]


# ----------------------------------------------------------------------
# Dense greedy minimum degree (kept as the microbenchmark baseline)
# ----------------------------------------------------------------------

def _greedy_min_degree(num_vars: int,
                       adjacency: List[Set[int]]) -> List[int]:
    """Exact greedy minimum degree with the dense clique update.

    O(clique^2) per elimination — the pre-AMD behavior, retained as the
    ordering-quality baseline.
    """
    heap = [(len(adjacency[v]), v) for v in range(num_vars)]
    heapq.heapify(heap)
    eliminated = [False] * num_vars
    order: List[int] = []
    while heap:
        degree, v = heapq.heappop(heap)
        if eliminated[v]:
            continue
        if degree != len(adjacency[v]):
            heapq.heappush(heap, (len(adjacency[v]), v))
            continue
        eliminated[v] = True
        order.append(v)
        neighbors = adjacency[v]
        adjacency[v] = set()
        for a in neighbors:
            adjacency[a].discard(v)
        for a in neighbors:
            for b in neighbors:
                if a != b and b not in adjacency[a]:
                    adjacency[a].add(b)
        for a in neighbors:
            if not eliminated[a]:
                heapq.heappush(heap, (len(adjacency[a]), a))
    return order


def dense_minimum_degree_order(
    keys: Iterable[Key],
    factor_keys: Sequence[Tuple[Key, ...]],
) -> List[Key]:
    """Greedy minimum-degree with the dense clique update (pre-AMD).

    Kept for the ordering-quality microbenchmark; prefer
    :func:`minimum_degree_order` (AMD-backed) everywhere else.
    """
    ranked = sorted(keys)
    rank = {k: i for i, k in enumerate(ranked)}
    adjacency: List[Set[int]] = [set() for _ in ranked]
    for fkeys in factor_keys:
        members = [rank[k] for k in dict.fromkeys(fkeys)]
        for a in members:
            for b in members:
                if a != b:
                    adjacency[a].add(b)
    order = _greedy_min_degree(len(ranked), adjacency)
    return [ranked[i] for i in order]


def minimum_degree_order(
    keys: Iterable[Key],
    factor_keys: Sequence[Tuple[Key, ...]],
) -> List[Key]:
    """Minimum-degree ordering on the variable adjacency graph.

    Backed by the quotient-graph AMD core (:func:`amd_order_positions`);
    ties break on key for determinism.  The historical dense-update
    variant survives as :func:`dense_minimum_degree_order`.
    """
    return amd_order(keys, factor_keys)


# ----------------------------------------------------------------------
# Nested dissection
# ----------------------------------------------------------------------

def _bisect(graph: "nx.Graph",
            seed: int) -> Tuple[Set[Key], Set[Key], List[Key]]:
    """Split a connected graph into (left, right, separator).

    Spectral bisection via the Fiedler vector; the separator is the set
    of right-side endpoints of cut edges (a vertex separator derived
    from the edge cut).  ``seed`` pins the solver's RNG so the split —
    and hence the whole ordering — is reproducible.
    """
    nodes = list(graph.nodes())
    try:
        fiedler = nx.fiedler_vector(graph, method="tracemin_lu", seed=seed)
    except (nx.NetworkXError, ValueError):
        # Tiny or degenerate graphs: split by sorted order.
        half = len(nodes) // 2
        ordered = sorted(nodes)
        return set(ordered[:half]), set(ordered[half:]), []
    median = sorted(fiedler)[len(fiedler) // 2]
    left = {n for n, v in zip(nodes, fiedler) if v < median}
    right = set(nodes) - left
    if not left or not right:
        half = len(nodes) // 2
        ordered = sorted(nodes)
        return set(ordered[:half]), set(ordered[half:]), []
    separator = sorted({b if a in left else a
                        for a, b in graph.edges()
                        if (a in left) != (b in left)})
    left -= set(separator)
    right -= set(separator)
    return left, right, separator


def nested_dissection_order(
    keys: Iterable[Key],
    factor_keys: Sequence[Tuple[Key, ...]],
    leaf_size: int = 32,
    seed: int = 0,
) -> List[Key]:
    """Recursive nested dissection on the variable adjacency graph.

    Separators are eliminated last, so the elimination tree branches at
    each separator — the classic low-fill, high-parallelism ordering for
    mesh-like SLAM graphs.  Subgraphs below ``leaf_size`` fall back to
    minimum degree.  ``seed`` makes the spectral bisection (and thus the
    returned order) deterministic for fixed inputs.
    """
    graph = nx.Graph()
    graph.add_nodes_from(keys)
    for fkeys in factor_keys:
        for i, a in enumerate(fkeys):
            for b in fkeys[i + 1:]:
                if a != b:
                    graph.add_edge(a, b)

    def dissect(subgraph: "nx.Graph") -> List[Key]:
        nodes = list(subgraph.nodes())
        if len(nodes) <= leaf_size:
            sub_factors = [tuple(e) for e in subgraph.edges()]
            return minimum_degree_order(nodes, sub_factors)
        components = list(nx.connected_components(subgraph))
        if len(components) > 1:
            out: List[Key] = []
            for component in components:
                out.extend(dissect(subgraph.subgraph(component).copy()))
            return out
        left, right, separator = _bisect(subgraph, seed)
        if not separator and (not left or not right):
            sub_factors = [tuple(e) for e in subgraph.edges()]
            return minimum_degree_order(nodes, sub_factors)
        out = []
        if left:
            out.extend(dissect(subgraph.subgraph(left).copy()))
        if right:
            out.extend(dissect(subgraph.subgraph(right).copy()))
        out.extend(sorted(separator))
        return out

    return dissect(graph)


# ----------------------------------------------------------------------
# Ordering policies
# ----------------------------------------------------------------------

class OrderingPolicy:
    """Strategy that maps a factor graph to an elimination order.

    ``order`` receives the variable keys, the per-factor key tuples, and
    (optionally) the keys that must land at the end of the order — the
    constrained slot incremental solvers use for affected/recent
    variables.  Policies that cannot honor the constraint ignore it.
    """

    name: str = "?"

    def order(self, keys: Iterable[Key],
              factor_keys: Sequence[Tuple[Key, ...]],
              last_keys: Iterable[Key] = ()) -> List[Key]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ChronologicalOrdering(OrderingPolicy):
    """Ascending key order — the incremental default (append-only)."""

    name = "chronological"

    def order(self, keys, factor_keys, last_keys=()):
        return chronological_order(keys)


class MinimumDegreeOrdering(OrderingPolicy):
    """Quotient-graph AMD, unconstrained."""

    name = "minimum_degree"

    def order(self, keys, factor_keys, last_keys=()):
        return amd_order(keys, factor_keys)


class ConstrainedColamdOrdering(OrderingPolicy):
    """AMD with the affected/recent variables forced last (CCOLAMD)."""

    name = "constrained_colamd"

    def order(self, keys, factor_keys, last_keys=()):
        return constrained_colamd_order(keys, factor_keys, last_keys)


class NestedDissectionOrdering(OrderingPolicy):
    """Seeded spectral nested dissection."""

    name = "nested_dissection"

    def __init__(self, leaf_size: int = 32, seed: int = 0):
        self.leaf_size = int(leaf_size)
        self.seed = int(seed)

    def order(self, keys, factor_keys, last_keys=()):
        return nested_dissection_order(keys, factor_keys,
                                       leaf_size=self.leaf_size,
                                       seed=self.seed)

    def __repr__(self) -> str:
        return (f"NestedDissectionOrdering(leaf_size={self.leaf_size}, "
                f"seed={self.seed})")


ORDERING_POLICIES = {
    ChronologicalOrdering.name: ChronologicalOrdering,
    MinimumDegreeOrdering.name: MinimumDegreeOrdering,
    ConstrainedColamdOrdering.name: ConstrainedColamdOrdering,
    NestedDissectionOrdering.name: NestedDissectionOrdering,
}

OrderingSpec = Union[str, OrderingPolicy]


def ordering_names() -> List[str]:
    """Registered policy names (CLI choices, error messages)."""
    return sorted(ORDERING_POLICIES)


def make_ordering_policy(spec: OrderingSpec) -> OrderingPolicy:
    """Resolve a policy name or pass an instance through.

    Raises ``ValueError`` on unknown names so solver configs fail fast.
    """
    if isinstance(spec, OrderingPolicy):
        return spec
    try:
        factory = ORDERING_POLICIES[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown ordering {spec!r}; expected one of "
            f"{ordering_names()} or an OrderingPolicy instance") from None
    return factory()
