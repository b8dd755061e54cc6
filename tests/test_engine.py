import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlve.engine
from conftest import random_spanning_jungle
from mlve.combinatorics import Forest, Jungle, empty_forest, norm_edge
from mlve.engine import (
    TermEvaluator,
    bosonic_block_value,
    jungle_term,
    logz_truncation,
    order_contribution,
)
from mlve.errors import BudgetExceededError
from mlve.interpolation import min_over_paths
from mlve.model_core import ModelParams, dw_grid
from mlve.oracle import gauss_hermite_norm

# coarse but converged weight quadrature for unit tests; the acceptance
# suite runs the default
GL = 8


def gh_expectation(params, j, q, nodes=200):
    """Independent 1-D quadrature of E[d^q W_j]."""
    x, w = gauss_hermite_norm(nodes)
    return complex(np.sum(w * dw_grid(params, j, q, x)))


def gh_block_expectation(X, edges, js, params, nodes=80):
    """Tensor Gauss-Hermite value of E[prod_a (d^(d_a) W_(j_a))(sigma_a)].

    sigma ~ N(0, X) is sampled as L xi with L L^T = X on a nodes^b grid;
    negative eigenvalues (rounding noise at w = 1) are clipped to 0.  d_a
    is the degree of local vertex a in the tree edges.  An independent
    reference for the engine's layered smoothing route; 80 nodes keep it
    within 2e-10 relative of the converged value for weights up to 0.99,
    where 64 nodes leave about 2e-9.
    """
    b = X.shape[0]
    degrees = [0] * b
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    xi, wts = gauss_hermite_norm(nodes)
    pts = np.stack([g.ravel() for g in np.meshgrid(*([xi] * b), indexing="ij")])  # (b, nodes^b)
    gh_w = np.ones(pts.shape[1])
    for g in np.meshgrid(*([wts] * b), indexing="ij"):
        gh_w *= g.ravel()
    vals, vecs = np.linalg.eigh(X)
    sigma = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ pts
    integrand = np.ones(pts.shape[1], dtype=complex)
    for a in range(b):
        integrand = integrand * dw_grid(params, js[a], degrees[a], sigma[a])
    return complex(integrand @ gh_w)


# one block per size b = 1..4, as (block, tree edges, slices, weights)
BLOCKS = [
    ([0], [], (1,), {}),
    ([0, 1], [(0, 1)], (1, 2), {(0, 1): 0.37}),
    ([0, 1, 2], [(0, 1), (1, 2)], (1, 2, 3), {(0, 1): 0.3, (1, 2): 0.8}),
    ([0, 1, 2, 3], [(0, 1), (1, 2), (1, 3)], (1, 2, 3, 4), {(0, 1): 0.3, (1, 2): 0.8, (1, 3): 0.5}),
]


class TestBosonicBlockValue:
    params = ModelParams(0.5, 2, 1, 3)

    def test_vanishing_coupling(self):
        val = bosonic_block_value([0], [], (1,), {}, ModelParams(0.0, 2, 1, 3))
        assert val == 0

    @pytest.mark.parametrize("lam", [0.5, 0.3 + 0.1j])
    def test_grid_refinement(self, lam, monkeypatch):
        # a finer and wider smoothing grid leaves every block size unchanged
        params = ModelParams(lam, 2, 1, 4)
        coarse = [bosonic_block_value(*blk, params) for blk in BLOCKS]
        monkeypatch.setattr(mlve.engine, "SIGMA_GRID", np.linspace(-16.0, 16.0, 1601))
        fine = [bosonic_block_value(*blk, params) for blk in BLOCKS]
        for a, b in zip(coarse, fine):
            assert abs(a - b) <= 1e-12 * abs(b)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([0.2, 0.5, 0.3 + 0.1j]))
    def test_matches_tensor_gauss_hermite(self, seed, n, lam):
        rng = np.random.default_rng(seed)
        jungle = random_spanning_jungle(rng, n)
        block = max(jungle.partition().blocks, key=len)
        tree = [e for e in jungle.bosonic.edges if e[0] in block]
        slices = tuple(int(j) for j in rng.permutation([1, 2, 3])[:n])
        weights = {e: float(rng.uniform(0.01, 0.99)) for e in tree}
        params = ModelParams(lam, 2, 1, 3)
        val = bosonic_block_value(block, tree, slices, weights, params)

        verts = sorted(block)
        local = {v: i for i, v in enumerate(verts)}
        edges = [norm_edge(local[u], local[v]) for u, v in tree]
        X = min_over_paths(len(verts), edges, {norm_edge(local[u], local[v]): w for (u, v), w in weights.items()})
        ref = gh_block_expectation(X, edges, [slices[v] for v in verts], params)
        assert abs(val - ref) <= 1e-9 * abs(ref)

    def test_pair_factorizes_at_w_zero(self):
        val = bosonic_block_value([0, 1], [(0, 1)], (1, 2), {(0, 1): 0.0}, self.params)
        product = gh_expectation(self.params, 1, 1) * gh_expectation(self.params, 2, 1)
        assert abs(val - product) < 1e-9

    def test_pair_at_w_one_collapses_to_one_dimension(self):
        # w = 1 makes the two sigmas identical: the layered decomposition
        # has no singleton layer, and the value equals a 1-D integral of
        # the product of derivatives
        val = bosonic_block_value([0, 1], [(0, 1)], (1, 2), {(0, 1): 1.0}, self.params)
        x, w = gauss_hermite_norm(200)
        direct = complex(np.sum(w * dw_grid(self.params, 1, 1, x) * dw_grid(self.params, 2, 1, x)))
        assert abs(val - direct) < 1e-9

    def test_four_block_factorizes_at_w_zero(self):
        # star tree on four vertices, all weights 0: the covariance is the
        # identity and the value splits into four 1-D integrals with the
        # star degrees (3, 1, 1, 1)
        params = ModelParams(0.3, 2, 1, 4)
        edges = [(0, 1), (0, 2), (0, 3)]
        weights = {e: 0.0 for e in edges}
        val = bosonic_block_value([0, 1, 2, 3], edges, (1, 2, 3, 4), weights, params)
        product = gh_expectation(params, 1, 3)
        for j in (2, 3, 4):
            product *= gh_expectation(params, j, 1)
        assert abs(val - product) < 1e-9

    def test_fermionic_chain_of_four_singletons(self):
        # n = 4 all-singleton jungle with a three-edge Fermionic path;
        # exercises the k = 3 weight integral and stays under the bound
        from mlve.bounds import assemble_term_bound

        params = ModelParams(0.5, 10, 3, 6)
        jungle = Jungle(4, empty_forest(4), frozenset({(0, 1), (1, 2), (2, 3)}))
        slices = (3, 3, 3, 3)  # Fermionic deltas require equal slices
        term = jungle_term(jungle, slices, params, gl_nodes=GL)
        assert abs(term.imag) < 1e-12
        assert 0 < abs(term) <= assemble_term_bound(jungle, slices, 0.5, 10)

    def test_block_budget(self):
        with pytest.raises(BudgetExceededError):
            bosonic_block_value(
                [0, 1, 2, 3, 4],
                [(0, 1), (1, 2), (2, 3), (3, 4)],
                (1, 2, 3, 4, 5),
                {(0, 1): 0.5, (1, 2): 0.5, (2, 3): 0.5, (3, 4): 0.5},
                ModelParams(0.1, 2, 1, 5),
            )


class TestStructuralZeros:
    params = ModelParams(0.3, 2, 1, 3)

    def test_fermionic_edge_slice_mismatch(self):
        jungle = Jungle(2, empty_forest(2), frozenset({(0, 1)}))
        assert jungle_term(jungle, (1, 2), self.params, gl_nodes=GL) == 0j

    def test_same_block_same_slice(self):
        jungle = Jungle(2, Forest(2, frozenset({(0, 1)})), frozenset())
        assert jungle_term(jungle, (2, 2), self.params, gl_nodes=GL) == 0j

    def test_block_larger_than_window(self):
        # a 4-vertex block cannot take pairwise-distinct slices in a
        # 3-slice window, so every assignment vanishes identically
        tree = Forest(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        jungle = Jungle(4, tree, frozenset())
        from itertools import product

        for slices in product(self.params.slices, repeat=4):
            assert jungle_term(jungle, slices, self.params, gl_nodes=GL) == 0j


class TestOrders:
    def test_order_one_vanishing_coupling(self):
        assert order_contribution(1, ModelParams(0.0, 2, 1, 3), gl_nodes=GL) == 0j

    def test_order_one_matches_quadrature(self):
        params = ModelParams(0.2, 2, 1, 3)
        val = order_contribution(1, params, gl_nodes=GL)
        direct = sum(gh_expectation(params, j, 0, 400) for j in params.slices)
        assert abs(val - direct) < 1e-8

    def test_orders_real_for_real_coupling(self):
        params = ModelParams(0.3, 2, 1, 2)
        for n in (1, 2):
            val = order_contribution(n, params, gl_nodes=GL)
            assert abs(val.imag) < 1e-10

    def test_truncation_consistency(self):
        params = ModelParams(0.25, 2, 1, 2)
        res = logz_truncation(2, params, gl_nodes=GL)
        o1 = order_contribution(1, params, gl_nodes=GL)
        o2 = order_contribution(2, params, gl_nodes=GL)
        assert res.orders[0] == pytest.approx(o1, abs=1e-14)
        assert res.orders[1] == pytest.approx(o2, abs=1e-14)
        assert res.partial_sums[1] == pytest.approx(o1 + o2, abs=1e-14)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            order_contribution(5, ModelParams(0.2, 2, 1, 3), gl_nodes=GL)
        with pytest.raises(BudgetExceededError):
            logz_truncation(5, ModelParams(0.2, 2, 1, 3), gl_nodes=GL)

    def test_complex_coupling_matches_oracle(self):
        # the generic complex kernel route, end to end: partial sums of a
        # complex coupling inside the analyticity domain approach log Z
        import cmath

        from mlve.oracle import logz_oracle

        lam = 0.25 * cmath.exp(1j * math.pi / 12)
        params = ModelParams(lam, 2, 1, 2)
        ref = logz_oracle(params, 300)
        res = logz_truncation(2, params, gl_nodes=10)
        errs = res.distances_to(ref)
        assert errs[1] < errs[0] / 3.0
        assert errs[1] < 5e-5

    def test_order_two_second_order_identity(self):
        # order 2 must reproduce the exact covariance-splitting identity
        # sum_{j<k}(E[W_j W_k] - E[W_j]E[W_k]) - 1/2 sum_j E[W_j]^2
        params = ModelParams(0.35, 2, 1, 2)
        x, w = gauss_hermite_norm(300)
        W = {j: dw_grid(params, j, 0, x) for j in params.slices}
        ew = {j: complex(np.sum(w * W[j])) for j in params.slices}
        expect = 0j
        slices = list(params.slices)
        for i, j1 in enumerate(slices):
            for j2 in slices[i + 1 :]:
                expect += complex(np.sum(w * W[j1] * W[j2])) - ew[j1] * ew[j2]
        expect -= 0.5 * sum(ew[j] ** 2 for j in slices)
        val = order_contribution(2, params)
        assert abs(val - expect) < 1e-9


class TestTraceRecords:
    def test_order_terms_zero_tagging(self):
        params = ModelParams(0.25, 2, 1, 2)
        ev = TermEvaluator(params, gl_nodes=GL)
        seen = 0
        for jungle, slices, value in ev.order_terms(2):
            seen += 1
            if any(slices[u] != slices[v] for u, v in jungle.fermionic):
                assert value == 0j
        assert seen == 2 * 4  # two spanning jungles, four assignments
