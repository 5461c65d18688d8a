"""Numeric multifrontal Cholesky vs dense reference solutions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.cholesky import FactorContribution, MultifrontalCholesky
from repro.linalg.frontal import SingularHessianError, factorize_front
from repro.linalg.plan import record_node_ops
from repro.linalg.symbolic import SymbolicFactorization
from repro.linalg.trace import NodeTrace, OpKind, OpTrace


def make_contribution(rng, positions, dims):
    """Random PSD contribution H = A^T A over the given positions."""
    total = sum(dims[p] for p in positions)
    rdim = total + 1
    a_mat = rng.normal(size=(rdim, total))
    b = rng.normal(size=rdim)
    return FactorContribution(positions, a_mat.T @ a_mat, a_mat.T @ b, rdim)


def dense_reference(contributions, dims, damping=0.0):
    """Assemble the full H and g densely."""
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    total = int(offsets[-1])
    h_full = damping * np.eye(total)
    g_full = np.zeros(total)
    for contrib in contributions:
        idx = np.concatenate([
            np.arange(offsets[p], offsets[p] + dims[p])
            for p in contrib.positions])
        h_full[np.ix_(idx, idx)] += contrib.hessian
        g_full[idx] += contrib.gradient
    return h_full, g_full


def build_problem(rng, n, dims, extra_edges=()):
    factors = [(i,) for i in range(n)]
    factors += [(i, i + 1) for i in range(n - 1)]
    factors += [tuple(sorted(e)) for e in extra_edges]
    contributions = [make_contribution(rng, list(f), dims) for f in factors]
    symbolic = SymbolicFactorization(dims, [c.positions
                                            for c in contributions])
    return symbolic, contributions


def solve_and_compare(symbolic, contributions, dims, damping=0.0):
    solver = MultifrontalCholesky(symbolic, damping=damping)
    solver.factorize(contributions)
    delta = solver.solve()
    h_full, g_full = dense_reference(contributions, dims, damping)
    expected = np.linalg.solve(h_full, g_full)
    got = np.concatenate(delta)
    np.testing.assert_allclose(got, expected, atol=1e-8)
    return solver, h_full


class TestMultifrontalCholesky:
    def test_chain(self):
        rng = np.random.default_rng(0)
        dims = [3] * 6
        symbolic, contribs = build_problem(rng, 6, dims)
        solve_and_compare(symbolic, contribs, dims)

    def test_loop_closures(self):
        rng = np.random.default_rng(1)
        dims = [3] * 10
        symbolic, contribs = build_problem(
            rng, 10, dims, extra_edges=[(0, 9), (2, 7), (4, 8)])
        solve_and_compare(symbolic, contribs, dims)

    def test_mixed_dims(self):
        rng = np.random.default_rng(2)
        dims = [3, 6, 3, 6, 3, 1, 2]
        symbolic, contribs = build_problem(rng, 7, dims,
                                           extra_edges=[(0, 6), (1, 4)])
        solve_and_compare(symbolic, contribs, dims)

    def test_l_factor_matches_dense_cholesky(self):
        rng = np.random.default_rng(3)
        dims = [2] * 8
        symbolic, contribs = build_problem(rng, 8, dims,
                                           extra_edges=[(1, 6)])
        solver, h_full = solve_and_compare(symbolic, contribs, dims)
        l_dense = solver.dense_l()
        np.testing.assert_allclose(l_dense @ l_dense.T, h_full, atol=1e-8)

    def test_damping(self):
        rng = np.random.default_rng(4)
        dims = [3] * 5
        # Omit unary factors: without damping this chain of PSD (not PD)
        # contributions may be singular; damping must fix it.
        factors = [(i, i + 1) for i in range(4)]
        contribs = [make_contribution(rng, list(f), dims) for f in factors]
        symbolic = SymbolicFactorization(dims, [c.positions
                                                for c in contribs])
        solve_and_compare(symbolic, contribs, dims, damping=0.5)

    def test_singular_raises(self):
        dims = [2, 2]
        contribs = [FactorContribution([0, 1], np.zeros((4, 4)),
                                       np.zeros(4), 4)]
        symbolic = SymbolicFactorization(dims, [[0, 1]])
        solver = MultifrontalCholesky(symbolic)
        with pytest.raises(SingularHessianError):
            solver.factorize(contribs)

    def test_trilocal_factor_clique(self):
        rng = np.random.default_rng(5)
        dims = [2] * 6
        factors = [(i,) for i in range(6)] + [(0, 2, 4), (1, 3, 5)]
        contribs = [make_contribution(rng, list(f), dims) for f in factors]
        symbolic = SymbolicFactorization(dims, [c.positions
                                                for c in contribs])
        solve_and_compare(symbolic, contribs, dims)

    @given(st.integers(min_value=2, max_value=12), st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_graphs_match_dense(self, n, data):
        seed = data.draw(st.integers(0, 2 ** 16))
        rng = np.random.default_rng(seed)
        dims = list(data.draw(st.lists(
            st.sampled_from([1, 2, 3, 6]), min_size=n, max_size=n)))
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=6))
        edges = [e for e in edges if e[0] != e[1]]
        symbolic, contribs = build_problem(rng, n, dims, extra_edges=edges)
        solve_and_compare(symbolic, contribs, dims)


class TestSolveVectorChecks:
    """``solve_vector`` rejects rhs blocks that do not fit the problem."""

    @pytest.fixture
    def solver(self):
        rng = np.random.default_rng(5)
        dims = [3, 3]
        symbolic, contribs = build_problem(rng, 2, dims)
        solver = MultifrontalCholesky(symbolic)
        solver.factorize(contribs)
        return solver

    def test_accepts_matching_blocks(self, solver):
        x = solver.solve_vector([np.ones(3), np.ones(3)])
        assert [block.shape for block in x] == [(3,), (3,)]

    def test_rejects_extra_block(self, solver):
        with pytest.raises(ValueError, match="extra block at position 2"):
            solver.solve_vector([np.ones(3), np.ones(3), np.ones(3)])

    def test_rejects_misplaced_block_sizes(self, solver):
        with pytest.raises(ValueError, match="position 0 has shape"):
            solver.solve_vector([np.ones(2), np.ones(4)])

    def test_rejects_missing_block(self, solver):
        with pytest.raises(ValueError, match="missing the block at "
                                             "position 1"):
            solver.solve_vector([np.ones(3)])


class TestTraceEmission:
    def run_traced(self):
        rng = np.random.default_rng(6)
        dims = [3] * 8
        symbolic, contribs = build_problem(rng, 8, dims,
                                           extra_edges=[(0, 7)])
        solver = MultifrontalCholesky(symbolic)
        trace = OpTrace()
        solver.factorize(contribs, trace=trace)
        solver.solve(trace=trace)
        return symbolic, trace

    def test_every_node_traced(self):
        symbolic, trace = self.run_traced()
        assert set(trace.nodes.keys()) == set(
            range(len(symbolic.supernodes)))

    def test_each_node_has_potrf(self):
        symbolic, trace = self.run_traced()
        for node_trace in trace.nodes.values():
            kinds = [op.kind for op in node_trace.ops]
            assert OpKind.POTRF in kinds
            assert OpKind.MEMSET in kinds

    def test_flops_positive_and_additive(self):
        _, trace = self.run_traced()
        assert trace.flops > 0
        assert trace.flops == sum(
            t.flops for t in trace.nodes.values()) + trace.loose.flops

    def test_workspace_bytes(self):
        symbolic, trace = self.run_traced()
        for sid, node_trace in trace.nodes.items():
            node = symbolic.supernodes[sid]
            front = node.front_dim(symbolic.dims)
            assert node_trace.workspace_bytes == 4 * front * front


class TestOpAccounting:
    def test_gemm_flops(self):
        from repro.linalg.trace import Op
        assert Op(OpKind.GEMM, (4, 5, 6)).flops == 2 * 4 * 5 * 6

    def test_memset_bytes(self):
        from repro.linalg.trace import Op
        op = Op(OpKind.MEMSET, (1024,))
        assert op.bytes_moved == 1024
        assert op.flops == 0
        assert op.is_memory_op

    def test_potrf_flops_cubic(self):
        from repro.linalg.trace import Op
        assert Op(OpKind.POTRF, (12,)).flops == 12 ** 3 // 3

    def test_factorize_front_small(self):
        h_full = np.array([[4.0, 2.0], [2.0, 5.0]])
        l_a, l_b, c_update = factorize_front(h_full.copy(), 1)
        assert l_a[0, 0] == pytest.approx(2.0)
        assert l_b[0, 0] == pytest.approx(1.0)
        assert c_update[0, 0] == pytest.approx(4.0)
        trace = NodeTrace(node_id=0, cols=1, rows_below=1)
        record_node_ops(trace, 1, 2, (), ())
        kinds = [op.kind for op in trace.ops]
        assert kinds == [OpKind.MEMSET, OpKind.POTRF, OpKind.TRSM,
                         OpKind.SYRK, OpKind.MEMCPY]
