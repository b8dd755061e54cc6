import cmath
import math
import tracemalloc
from contextlib import contextmanager
from itertools import accumulate, combinations, count, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlve.engine
from conftest import bosonic_block_value, dw_slice, fermionic_factor_brute, random_spanning_jungle
from mlve.combinatorics import (
    Forest,
    Jungle,
    empty_forest,
    enumerate_jungles,
    enumerate_trees,
    jungle_classes,
    norm_edge,
)
from mlve.engine import TermEvaluator, fermionic_weight_integral
from mlve.errors import BudgetExceededError
from mlve.grassmann import fermionic_factor, hardcore_violated, slice_delta_violated
from mlve.interpolation import min_over_paths, ordering_cell
from mlve.model_core import ModelParams
from mlve.oracle import gauss_hermite_norm

# coarse but converged weight quadrature for unit tests; the acceptance
# suite runs the default
GL = 8


def orders_and_sums(params, n_max, gl_nodes=12):
    """Orders 1..n_max and their partial sums S_1..S_(n_max)."""
    ev = TermEvaluator(params, gl_nodes)
    orders = [ev.order_contribution(n) for n in range(1, n_max + 1)]
    return orders, list(accumulate(orders))


def gh_expectation(params, j, q, nodes=200):
    """Independent 1-D quadrature of E[d^q W_j]."""
    x, w = gauss_hermite_norm(nodes)
    return complex(np.sum(w * dw_slice(params, j, q, x)[q]))


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
        integrand = integrand * dw_slice(params, js[a], degrees[a], sigma[a])[degrees[a]]
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

    def test_grid_is_odd_with_sigma_zero_in_the_middle(self):
        # blocks are read at the middle point, which must be sigma = 0
        grid = mlve.engine.SIGMA_GRID
        assert grid.size % 2 == 1
        assert grid[grid.size // 2] == 0.0

    @pytest.mark.parametrize(
        "lam, M",
        [pytest.param(lam, 2, id=str(lam)) for lam in (0.5, 0.3 + 0.1j, 0.45 + 0.2j)] + [pytest.param(0.2, 16, id="0.2-M16")],
    )
    def test_grid_refinement(self, lam, M, monkeypatch):
        # a finer and wider smoothing grid leaves every block size unchanged
        params = ModelParams(lam, M, 1, 4)
        coarse = [bosonic_block_value(*blk, params) for blk in BLOCKS]
        monkeypatch.setattr(mlve.engine, "SIGMA_GRID", np.linspace(-16.0, 16.0, 1601))
        fine = [bosonic_block_value(*blk, params) for blk in BLOCKS]
        for a, b in zip(coarse, fine):
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_block_integral_follows_a_replaced_grid(self, monkeypatch):
        # the smoothing multipliers cached for 243 points are not reused on
        # a grid of 729
        params = ModelParams(0.2, 2, 1, 3)
        coarse = TermEvaluator(params).block_integral((1, 2), ((0, 1),))
        monkeypatch.setattr(mlve.engine, "SIGMA_GRID", np.linspace(-12.0, 12.0, 729))
        fine = TermEvaluator(params).block_integral((1, 2), ((0, 1),))
        assert abs(coarse - fine) <= 1e-12 * abs(fine)

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
        direct = complex(np.sum(w * dw_slice(self.params, 1, 1, x)[1] * dw_slice(self.params, 2, 1, x)[1]))
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
        term = TermEvaluator(params, GL).jungle_term(jungle, slices)
        assert abs(term.imag) < 1e-12
        assert 0 < abs(term) <= assemble_term_bound(jungle, slices, 0.5, 10)

    @pytest.mark.parametrize("lam", [0.2, 0.3 + 0.1j])
    @pytest.mark.parametrize(
        "edges",
        [[(0, 1)], [(0, 1), (1, 2)], [(0, 1), (0, 2)], [(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 2), (0, 3)]],
        ids=["pair", "path3", "star3", "path4", "star4"],
    )
    def test_integral_matches_pointwise_values(self, edges, lam):
        # the batched block integral, points grouped by ordering cell,
        # against one bosonic_block_value call per weight point; 4 nodes
        # keep the 4-vertex blocks at 6 x 4^3 points
        params = ModelParams(lam, 2, 1, 4)
        b = len(edges) + 1
        js = (1, 2, 3, 4)[:b]
        pointwise = sum(
            w * bosonic_block_value(list(range(b)), edges, js, point, params) for point, w in cell_points(edges, 4)
        )
        batched = TermEvaluator(params, gl_nodes=4)._integrate_block(edges, js)
        assert abs(batched - pointwise) <= 1e-12 * abs(pointwise)

    @pytest.mark.parametrize("k", range(4))
    def test_layers_live_on_prefix_grids(self, k):
        # layer i reads the first i + 1 cell coordinates only: a flat
        # multiplier stack over all 12^k points of a cell would show here
        grid = mlve.engine.SIGMA_GRID
        layers = mlve.engine._layer_multipliers(k, 12, grid.size, grid[1] - grid[0])
        assert [layer.size // grid.size for layer in layers] == [12 ** (i + 1) for i in range(k)] + [12**k]
        assert all(layer.shape[-1] == grid.size for layer in layers)

    @pytest.mark.parametrize("k", range(1, 4))
    def test_last_merge_is_read_in_real_space(self, k, monkeypatch):
        # a path cell of k edges returns to Fourier space after every merge
        # but the last, whose product is read against the real-space
        # readout.  Each merge inverse-transforms its merged component,
        # and a single vertex is transformed only when its shared stack is
        # built: 2k inverse transforms on a cold cache, k - 1 on a warm one
        grid = mlve.engine.SIGMA_GRID
        layers = mlve.engine._layer_multipliers(k, 4, grid.size, grid[1] - grid[0])
        edges = [(i, i + 1) for i in range(k)]
        ev = TermEvaluator(ModelParams(0.2, 2, 1, 4), gl_nodes=4)
        kernels = ev._vertex_kernels(edges, (1, 2, 3, 4)[: k + 1])
        calls = []

        def counting(name):
            transform = getattr(np.fft, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return transform(*args, **kwargs)

            return counted

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counting(name))
        for counts in [(k - 1, 2 * k), (k - 1, k - 1)]:
            calls.clear()
            values = mlve.engine._cell_values(lambda a, i: ev._singleton(*kernels[a], i, layers), edges, layers)
            assert values.shape == (4,) * k
            assert (calls.count("fft"), calls.count("ifft")) == counts

    def test_four_vertex_block_peak(self):
        # one warm 4-vertex path block at 12 nodes: its two last-layer
        # components, 12^3 x 243 complex values each (6.7 MB), are
        # transformed and merged in place and never stacked
        params = ModelParams(0.2, 2, 1, 4)
        edges, js = ((0, 1), (1, 2), (2, 3)), (1, 2, 3, 4)
        ev = TermEvaluator(params)
        ev._integrate_block(edges, js)
        tracemalloc.start()
        try:
            ev._integrate_block(edges, js)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20e6

    @pytest.mark.parametrize("lam", [0.2, 0.3 + 0.1j])
    def test_batch_with_ties_and_boundary_weights(self, lam):
        # points of both ordering cells, holding tied weights and the
        # boundary weights 0 and 1: a layer of variance 0 still merges its
        # components there
        params = ModelParams(lam, 2, 1, 3)
        edges = [(0, 1), (1, 2)]
        js = (1, 2, 3)
        for pt in [(0.5, 0.5), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.5, 0.2), (0.2, 0.5)]:
            weights = dict(zip(edges, pt))
            val = bosonic_block_value([0, 1, 2], edges, js, weights, params)
            ref = gh_block_expectation(min_over_paths(3, edges, weights), edges, js, params)
            assert abs(val - ref) <= 1e-9 * abs(ref)

    def test_block_budget(self):
        ev = TermEvaluator(ModelParams(0.1, 2, 1, 5), GL)
        with pytest.raises(BudgetExceededError):
            ev.block_integral((1, 2, 3, 4, 5), ((0, 1), (1, 2), (2, 3), (3, 4)))
        assert ev._spectra == {}

    def test_block_budget_on_evaluation_only(self):
        # a five-vertex block is refused when a term reaches it, and not
        # on a labeling that the hardcore rule already makes zero
        jungle = Jungle(5, Forest(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})), frozenset())
        ev = TermEvaluator(ModelParams(0.1, 2, 1, 5), GL)
        assert ev.jungle_term(jungle, (1, 1, 2, 3, 4)) == 0j
        with pytest.raises(BudgetExceededError):
            ev.jungle_term(jungle, (1, 2, 3, 4, 5))


def brute_block_key(edges, js):
    """The least (relabeled edges, relabeled slices) over all b! vertex
    permutations of a decorated block: the oracle of the block classes."""
    best = None
    for perm in permutations(range(len(js))):
        cand = (
            tuple(sorted(norm_edge(perm[u], perm[v]) for u, v in edges)),
            tuple(js[perm.index(i)] for i in range(len(js))),
        )
        if best is None or cand < best:
            best = cand
    return best


class TestBlockCache:
    def test_classes_match_brute_force_key(self, monkeypatch):
        # every labeled tree on b <= 4 vertices with every injective slice
        # tuple from 1..4: two decorated blocks share a cache entry exactly
        # when they share the brute-force key.  The block sits on the odd
        # vertices 1, 3, 5, 7 of a larger jungle, so the local labels differ
        # from the global ones
        entries = count()
        monkeypatch.setattr(TermEvaluator, "_integrate_block", lambda self, edges, js: next(entries))
        ev = TermEvaluator(ModelParams(0.2, 2, 1, 4))
        entry_of, key_of = {}, {}
        for b in range(1, 5):
            verts = tuple(range(1, 2 * b, 2))
            for tree in enumerate_trees(b):
                edges = sorted(tree.edges)
                odd_edges = tuple((2 * u + 1, 2 * v + 1) for u, v in edges)
                for js in permutations(range(1, 5), b):
                    labels = {2 * a + 1: j for a, j in enumerate(js)}
                    entry = ev.block_integral(*mlve.engine._block_key(verts, odd_edges, labels))
                    key = brute_block_key(edges, js)
                    assert entry_of.setdefault(key, entry) == entry
                    assert key_of.setdefault(entry, key) == key
        # 4 + 6 + 12 + 16 classes by block size
        assert len(key_of) == 38

    @pytest.mark.parametrize("n_slices, n_max", [(6, 2), (8, 3), (4, 4), (3, 5)])
    def test_block_counts_are_the_blocks_integrated(self, monkeypatch, n_slices, n_max):
        # orders 1..n_max integrate exactly block_counts blocks of each size,
        # the counts that compare prices before it runs
        entries = count()
        monkeypatch.setattr(TermEvaluator, "_integrate_block", lambda self, edges, js: next(entries))
        ev = TermEvaluator(ModelParams(0.2, 2, 1, n_slices), n_max=n_max)
        for n in range(1, n_max + 1):
            ev.order_contribution(n)
        sizes = [len(js) for js, _ in ev._block_cache]
        assert {b: sizes.count(b) for b in set(sizes)} == mlve.engine.block_counts(n_slices, n_max)

    def test_nine_blocks_at_order_five(self, monkeypatch):
        # the default config summed to n = 5 evaluates its 162 term classes
        # once each, reads their blocks by key through block_integral, 456
        # of them, and integrates 9, each on its first read
        lookups, integrated = [], []
        lookup, integral = TermEvaluator.block_integral, TermEvaluator._integrate_block

        def counted(self, *args):
            lookups.append(args)
            return lookup(self, *args)

        def counted_integral(self, *args):
            integrated.append(args)
            return integral(self, *args)

        monkeypatch.setattr(TermEvaluator, "block_integral", counted)
        monkeypatch.setattr(TermEvaluator, "_integrate_block", counted_integral)
        ev = TermEvaluator(ModelParams(0.2, 2, 1, 3))
        rows = sum(1 for n in range(1, 6) for _ in ev.order_terms(n))
        assert rows == 162
        assert len(lookups) == 456
        assert len(integrated) == len(ev._block_cache) == 9

    def test_nine_blocks_through_order_three(self):
        # the default compare integrates 3 distinct blocks of each size
        ev = TermEvaluator(ModelParams(0.2, 2, 1, 3))
        for n in range(1, 4):
            ev.order_contribution(n)
        assert sorted(len(js) for js, _ in ev._block_cache) == [1, 1, 1, 2, 2, 2, 3, 3, 3]


class TestKernelTables:
    @pytest.mark.parametrize("j_max", [3, 8])
    def test_one_sweep_per_slice(self, monkeypatch, j_max):
        # every block reads its kernel rows from one sweep per slice, all in
        # one dw_grid call over the whole window: through order 3 the 9
        # blocks of the default config and the 204 blocks at j = 1..8 make
        # one call each
        sweeps = []
        sweep = mlve.engine.dw_grid

        def counted(params, js, q, sigma):
            sweeps.append((tuple(js), q))
            return sweep(params, js, q, sigma)

        monkeypatch.setattr(mlve.engine, "dw_grid", counted)
        ev = TermEvaluator(ModelParams(0.2, 2, 1, j_max))
        for n in range(1, 4):
            ev.order_contribution(n)
        assert sweeps == [(tuple(range(1, j_max + 1)), min(j_max, mlve.engine.BLOCK_BUDGET) - 1)]

    @pytest.mark.parametrize("n_max, rows", [(2, 2), (3, 3)])
    def test_rows_stop_at_the_highest_order(self, n_max, rows):
        # a block of order n has at most n vertices, so an evaluator that
        # sums orders up to n_max sweeps d^0 W_j .. d^(n_max - 1) W_j
        ev = TermEvaluator(ModelParams(0.2, 2, 1, 3), GL, n_max)
        for n in range(1, n_max + 1):
            ev.order_contribution(n)
        assert {j: spectra.shape[0] for j, spectra in ev._spectra.items()} == dict.fromkeys((1, 2, 3), rows)

    def test_a_block_outside_the_window_is_refused(self):
        # a block on a slice the window does not hold has no kernel rows
        ev = TermEvaluator(ModelParams(0.2, 2, 1, 3), GL, 2)
        with pytest.raises(ValueError, match="outside window"):
            ev.block_integral((3, 4), ((0, 1),))

    def test_a_block_past_the_highest_order_is_refused(self):
        # a 3-vertex block has a vertex of tree degree 2, a row the n_max = 2
        # evaluator does not sweep: it is refused before any sweep
        ev = TermEvaluator(ModelParams(0.2, 2, 1, 3), GL, 2)
        with pytest.raises(BudgetExceededError):
            ev.block_integral((1, 2, 3), ((0, 1), (1, 2)))
        assert ev._spectra == {}
        with pytest.raises(BudgetExceededError):
            ev.order_contribution(3)


class TestPlannedRows:
    @pytest.mark.parametrize(
        "params, n_max",
        [
            (ModelParams(0.2, 2, 1, 3), 6),
            (ModelParams(0.3 + 0.1j, 2, 1, 3), 5),
            (ModelParams(0.5, 10, 3, 4), 4),
            (ModelParams(0.2, 2, 1, 4), 4),
        ],
        ids=["default-n6", "complex-n5", "long-slices-n4", "four-slices-n4"],
    )
    def test_rows_equal_jungle_term(self, params, n_max):
        # each row's planned Fermionic integral times its blocks read by
        # key has the bits of the per-labeling route
        ev = TermEvaluator(params)
        for n in range(1, n_max + 1):
            for _, jungle, _, slices, value in ev.order_terms(n):
                # repr round-trips a float, signed zeros included
                assert repr(value) == repr(ev.jungle_term(jungle, slices))


class TestSingletonStacks:
    @pytest.mark.parametrize("lam", [0.2, 0.3 + 0.1j, 0.5 * cmath.exp(0.7j)])
    def test_shared_stacks_leave_every_block_unchanged(self, lam):
        # every tree of b <= 4 vertices on every b slices of 1..4: a block
        # integrated on a fresh evaluator has the same bits as on one whose
        # singleton stacks the blocks before it built, larger blocks first,
        # so that a 2-vertex block reads stacks that 4-vertex blocks made
        params = ModelParams(lam, 2, 1, 4)
        shared = TermEvaluator(params, GL)
        built = 0
        for b in range(4, 0, -1):
            for tree, js in product(enumerate_trees(b), combinations(range(1, 5), b)):
                edges = tuple(sorted(tree.edges))
                fresh = TermEvaluator(params, GL)
                value = fresh._integrate_block(edges, js)
                built += len(fresh._singletons)
                # repr round-trips a float, signed zeros included
                assert repr(shared._integrate_block(edges, js)) == repr(value)
        assert len(shared._singletons) < built

    def test_one_stack_per_slice_degree_and_layer(self):
        # the default rule at j = 1..4 through order 4: 38 blocks read 24
        # stacks, each on the prefix grid of its layer, 31.9 MB in all
        ev = TermEvaluator(ModelParams(0.2, 2, 1, 4))
        for n in range(1, 5):
            ev.order_contribution(n)
        assert len(ev._block_cache) == 38
        for (j, d, i), stack in ev._singletons.items():
            assert j in range(1, 5) and d in range(1, 4) and i in range(1, 4)
            assert stack.shape == (12,) * i + mlve.engine.SIGMA_GRID.shape
            assert not stack.flags.writeable
        assert len(ev._singletons) == 24
        assert sum(stack.nbytes for stack in ev._singletons.values()) <= 32e6


class TestStructuralZeros:
    params = ModelParams(0.3, 2, 1, 3)

    def test_fermionic_edge_slice_mismatch(self):
        jungle = Jungle(2, empty_forest(2), frozenset({(0, 1)}))
        assert TermEvaluator(self.params, GL).jungle_term(jungle, (1, 2)) == 0j

    def test_same_block_same_slice(self):
        jungle = Jungle(2, Forest(2, frozenset({(0, 1)})), frozenset())
        assert TermEvaluator(self.params, GL).jungle_term(jungle, (2, 2)) == 0j

    def test_block_larger_than_window(self):
        # a 4-vertex block cannot take pairwise-distinct slices in a
        # 3-slice window, so every assignment vanishes identically
        tree = Forest(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        jungle = Jungle(4, tree, frozenset())
        ev = TermEvaluator(self.params, GL)
        for slices in product(self.params.slices, repeat=4):
            assert ev.jungle_term(jungle, slices) == 0j


class TestOrders:
    def test_order_one_vanishing_coupling(self):
        assert TermEvaluator(ModelParams(0.0, 2, 1, 3), GL).order_contribution(1) == 0j

    def test_order_one_matches_quadrature(self):
        params = ModelParams(0.2, 2, 1, 3)
        val = TermEvaluator(params, GL).order_contribution(1)
        direct = sum(gh_expectation(params, j, 0, 400) for j in params.slices)
        assert abs(val - direct) < 1e-8

    def test_orders_real_for_real_coupling(self):
        params = ModelParams(0.3, 2, 1, 2)
        ev = TermEvaluator(params, GL)
        for n in (1, 2):
            val = ev.order_contribution(n)
            assert abs(val.imag) < 1e-10

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            TermEvaluator(ModelParams(0.2, 2, 1, 3), GL).order_contribution(8)

    def test_order_four_two_slices(self):
        # orders 1-4 as evaluated one weight point at a time (one
        # fermionic_factor call per point, 12 nodes); order 4 reaches the
        # k = 3 Fermionic integrals, exact on 3! x 2^3 points
        from mlve.oracle import logz_oracle

        params = ModelParams(0.2, 2, 1, 2)
        orders, sums = orders_and_sums(params, 4)
        pointwise = [-0.025541495510617643, 2.9869570073485835e-05, 3.5399891836708105e-06, 6.249487990403697e-08]
        for got, want in zip(orders, pointwise, strict=True):
            assert got.real == pytest.approx(want, rel=1e-10)
            assert abs(got.imag) < 1e-15
        ref = logz_oracle(params)
        errs = [abs(s - ref) for s in sums]
        assert errs == pytest.approx([3.35e-5, 3.60e-6, 6.30e-8, 5.17e-10], rel=5e-3)
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_order_five_two_slices(self):
        # order 5: 1,560 labeled terms in 16 term classes, the
        # k = 4 Fermionic integrals exact on 4! x 3^4 points
        from mlve.oracle import logz_oracle

        params = ModelParams(0.2, 2, 1, 2)
        got_orders, sums = orders_and_sums(params, 5)
        orders = [-0.02554149551061696, 2.98695700734899e-05, 3.539989183670671e-06, 6.24948799040322e-08, 5.207146910039618e-10]
        for got, want in zip(got_orders, orders, strict=True):
            assert got.real == pytest.approx(want, rel=1e-10)
            assert abs(got.imag) < 1e-15
        ref = logz_oracle(params)
        errs = [abs(s - ref) for s in sums]
        assert errs == pytest.approx([3.35e-5, 3.60e-6, 6.30e-8, 5.17e-10, 3.97e-12], rel=5e-3)
        assert errs[0] > errs[1] > errs[2] > errs[3] > errs[4]

    def test_complex_coupling_matches_oracle(self):
        # the generic complex kernel route, end to end: partial sums of a
        # complex coupling inside the analyticity domain approach log Z
        import cmath

        from mlve.oracle import logz_oracle

        lam = 0.25 * cmath.exp(1j * math.pi / 12)
        params = ModelParams(lam, 2, 1, 2)
        ref = logz_oracle(params, 300)
        errs = [abs(s - ref) for s in orders_and_sums(params, 2, gl_nodes=10)[1]]
        assert errs[1] < errs[0] / 3.0
        assert errs[1] < 5e-5

    def test_order_two_second_order_identity(self):
        # order 2 must reproduce the exact covariance-splitting identity
        # sum_{j<k}(E[W_j W_k] - E[W_j]E[W_k]) - 1/2 sum_j E[W_j]^2
        params = ModelParams(0.35, 2, 1, 2)
        x, w = gauss_hermite_norm(300)
        W = {j: dw_slice(params, j, 0, x)[0] for j in params.slices}
        ew = {j: complex(np.sum(w * W[j])) for j in params.slices}
        expect = 0j
        slices = list(params.slices)
        for i, j1 in enumerate(slices):
            for j2 in slices[i + 1 :]:
                expect += complex(np.sum(w * W[j1] * W[j2])) - ew[j1] * ew[j2]
        expect -= 0.5 * sum(ew[j] ** 2 for j in slices)
        val = TermEvaluator(params).order_contribution(2)
        assert abs(val - expect) < 1e-9


def admissible(jungle, slices) -> bool:
    return not (hardcore_violated(jungle, slices) or slice_delta_violated(jungle, slices))


def first_admissible(jungle, window):
    return next(s for s in product(window, repeat=jungle.n) if admissible(jungle, s))


def fermionic_vanishes(jungle) -> bool:
    """A vertex of Fermionic degree >= 3: every exchange pattern repeats a
    generator, so the Fermionic factor is zero."""
    return max(Forest(jungle.n, jungle.fermionic).degrees()) >= 3


def cell_points(edges, nodes):
    """(edge weights, quadrature weight) at every point of the ordering-cell
    rule with the given node count, one cell after another: the edges, by
    decreasing weight, take the cell's levels."""
    levels, weights = ordering_cell(len(edges), nodes)
    for order in permutations(edges):
        for *point, w in zip(*(a.ravel() for a in np.broadcast_arrays(*levels, weights))):
            yield dict(zip(order, point)), w


def integrate_factor(jungle, slices, nodes):
    """The Fermionic factor summed over the ordering-cell rule with the
    given node count, one broadcast cell per call."""
    levels, weights = ordering_cell(len(jungle.fermionic), nodes)
    total = 0.0
    for order in permutations(sorted(jungle.fermionic)):
        vals = fermionic_factor(jungle, slices, dict(zip(order, levels)))
        total += float(np.dot(weights.ravel(), np.ravel(vals)))
    return total


class TestFermionicIntegral:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exact_rule_matches_twelve_nodes_and_brute_force(self, n):
        # (n + 1) // 2 nodes against 12 nodes on the first jungle of each
        # Fermionic edge count k with a nonzero integral, at its first
        # admissible labeling over n slices; one node fewer is off by
        # 1e-2 at n = 5.  The brute-force Berezin integral runs on the same
        # points where they are few: it costs about 8 ms a point at n = 5
        firsts = {}
        for jungle in enumerate_jungles(n, spanning=True):
            k = len(jungle.fermionic)
            slices = first_admissible(jungle, range(1, n + 1))
            if k not in firsts and fermionic_weight_integral(jungle, slices) != 0.0:
                firsts[k] = jungle, slices
        assert sorted(firsts) == list(range(n))
        for k, (jungle, slices) in firsts.items():
            value = fermionic_weight_integral(jungle, slices)
            assert abs(value - integrate_factor(jungle, slices, 12)) <= 1e-13 * max(1.0, abs(value))
            if math.factorial(k) * ((n + 1) // 2) ** k > 100:
                continue
            brute = sum(
                w * fermionic_factor_brute(jungle, slices, point)
                for point, w in cell_points(sorted(jungle.fermionic), (n + 1) // 2)
            )
            assert abs(value - brute) <= 1e-13 * max(1.0, abs(value))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gathered_y_equals_path_minima(self, n):
        # the cell gather against the path-minimum walk of lifted_y_matrix
        # on the same rule, bit for bit, on every jungle, spanning or not,
        # at its first admissible labeling over n slices
        for jungle in enumerate_jungles(n, spanning=False):
            slices = first_admissible(jungle, range(1, n + 1))
            assert fermionic_weight_integral(jungle, slices) == integrate_factor(jungle, slices, (n + 1) // 2)

    def test_all_singleton_paths_are_rational(self):
        # slice-constant Fermionic paths on n singleton blocks integrate
        # to 2/3, -1/2, 2/5, -1/3 and 2/7 at k = 2..6.  The k = 6 integral
        # of order 7 has 6! x 4^6 = 2.9M points, 1.2 GB of lifted Y if held
        # at once; one cell at a time it stays within a few MB
        for n, want in ((3, 2 / 3), (4, -1 / 2), (5, 2 / 5), (6, -1 / 3), (7, 2 / 7)):
            jungle = Jungle(n, empty_forest(n), frozenset((i, i + 1) for i in range(n - 1)))
            tracemalloc.start()
            try:
                value = fermionic_weight_integral(jungle, (1,) * n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert value == pytest.approx(want, rel=1e-14)
            assert peak <= 20e6

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cached_values_equal_uncached(self, n):
        # every admissible term of order n over three slices: the term, its
        # blocks read from the block cache, against its own Fermionic
        # integral times its own blocks, each integrated in its own vertex
        # labels
        ev = TermEvaluator(ModelParams(0.2, 2, 1, 3), GL)
        own_blocks = {}
        terms = 0
        for jungle in enumerate_jungles(n, spanning=True):
            for slices in product((1, 2, 3), repeat=n):
                if admissible(jungle, slices):
                    terms += 1
                    want = complex(fermionic_weight_integral(jungle, slices))
                    for block in jungle.partition().blocks:
                        verts = sorted(block)
                        local = {v: i for i, v in enumerate(verts)}
                        edges = tuple(norm_edge(local[u], local[v]) for u, v in jungle.bosonic.edges if u in block)
                        js = tuple(slices[v] for v in verts)
                        if (edges, js) not in own_blocks:
                            own_blocks[edges, js] = ev._integrate_block(edges, js)
                        want *= own_blocks[edges, js]
                    assert abs(ev.jungle_term(jungle, slices) - want) <= 1e-13 * abs(want)
        assert terms == {1: 3, 2: 9, 3: 63, 4: 696}[n]

    @pytest.mark.parametrize("window, terms, classes", [((1, 2, 3), 11160, 105), ((1, 2), 1560, 16)])
    def test_distinct_integrals_at_order_five(self, stub_integrals, window, terms, classes):
        # one row per term class, the isomorphism class of the slice-labeled
        # jungle, and one Fermionic integral per distinct (class, slice
        # equality pattern): 21 over three slices and 8 over two; the
        # integrals themselves are stubbed.  The labeled terms,
        # n!/stabilizer per class, are the admissible ones (11,835 and
        # 1,850) less those of jungles with a vertex of Fermionic degree
        # >= 3 (675 and 290)
        computed = stub_integrals
        rows = list(TermEvaluator(ModelParams(0.2, 2, 1, len(window))).order_terms(5))
        assert sum(math.factorial(5) // stabilizer for _, _, stabilizer, _, _ in rows) == terms
        assert len(rows) == classes
        patterns = {(jungle, equality_pattern(slices)) for _, jungle, _, slices, _ in rows}
        assert len(computed) == len(patterns) == {105: 21, 16: 8}[classes]

    def test_distinct_integrals_at_order_six(self, stub_integrals):
        # order 6 over three slices: 233,820 labeled terms in 369 classes,
        # which need 75 Fermionic integrals
        computed = stub_integrals
        rows = list(TermEvaluator(ModelParams(0.2, 2, 1, 3)).order_terms(6))
        assert sum(math.factorial(6) // stabilizer for _, _, stabilizer, _, _ in rows) == 233820
        assert len(rows) == 369
        assert len(computed) == 75

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_memoized_integral_is_bit_identical(self, n):
        # every admissible labeling over n slices, through one evaluator: a
        # labeling whose equality pattern was seen before reads the memo
        ev = TermEvaluator(ModelParams(0.2, 2, 1, n))
        for jungle in enumerate_jungles(n, spanning=True):
            for slices in product(range(1, n + 1), repeat=n):
                if admissible(jungle, slices):
                    assert ev.fermionic_integral(jungle, slices) == fermionic_weight_integral(jungle, slices)


def hardcore_gas_series(ev) -> list[complex]:
    """Coefficients z_0..z_J of Z_J(t), the partition polynomial of the
    hardcore gas of Bosonic blocks on the J slices of the evaluator's
    window, graded by vertex count.

    A polymer is a nonempty set of slices, with activity the sum over the
    trees on it of ``block_integral``, and the polymers of a collection are
    disjoint, so a collection covering m slices carries t^m.  Z of a slice
    mask is a subset sum: its lowest slice lies in exactly one polymer
    inside the mask."""
    window = ev.params.slices
    activity = {}
    for mask in range(1, 1 << len(window)):
        js = tuple(j for i, j in enumerate(window) if mask >> i & 1)
        activity[mask] = sum(ev.block_integral(js, tuple(sorted(t.edges))) for t in enumerate_trees(len(js)))
    cover = [1.0 + 0.0j]
    for mask in range(1, 1 << len(window)):
        lowest = mask & -mask
        cover.append(sum(a * cover[mask ^ p] for p, a in activity.items() if p & lowest and p & mask == p))
    z = [0.0j] * (len(window) + 1)
    for mask, c in enumerate(cover):
        z[bin(mask).count("1")] += c
    return z


class TestMayerIdentity:
    """At a fixed window the order sum is the Mayer expansion of the
    hardcore gas of Bosonic blocks: A_n = [t^n] log Z_J(t) and Z_J(1) = Z.
    This checks every Fermionic integral, the jungle classes, their
    labelings and their stabilizers against block integrals alone, with no
    weight quadrature of its own."""

    @pytest.mark.parametrize("lam", [0.2, 0.3 + 0.1j, 0.5 * cmath.exp(0.7j)], ids=["real", "complex", "outside"])
    def test_orders_are_the_log_series(self, lam):
        from mlve.mayer import log_coefficients
        from mlve.oracle import logz_oracle

        params = ModelParams(lam, 2, 1, 3)
        ev = TermEvaluator(params)
        z = hardcore_gas_series(ev)
        for n, want in enumerate(log_coefficients(z, 6), start=1):
            rows = [(value, stabilizer) for _, _, stabilizer, _, value in ev.order_terms(n)]
            got = sum(value / stabilizer for value, stabilizer in rows)
            assert abs(got - want) <= 1e-14 * sum(abs(value) / stabilizer for value, stabilizer in rows)
        assert abs(cmath.log(sum(z)) - logz_oracle(params)) <= 1e-14


def clear_plans() -> None:
    """Empty the process-wide order plans and Fermionic memo."""
    mlve.engine._order_plan.cache_clear()
    mlve.engine._fermionic_integral.cache_clear()


@contextmanager
def stubbed_integrals():
    """Stub the Fermionic and block integrals to 1, between two clearings
    of the process-wide plans, so that no stub value outlives the block;
    the yielded list collects (jungle, slices) for every Fermionic integral
    computed."""
    computed = []

    def counted(jungle, slices):
        computed.append((jungle, slices))
        return 1.0

    clear_plans()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mlve.engine, "fermionic_weight_integral", counted)
            patch.setattr(TermEvaluator, "_integrate_block", lambda self, edges, js: 1.0)
            yield computed
    finally:
        clear_plans()


@pytest.fixture
def stub_integrals():
    with stubbed_integrals() as computed:
        yield computed


class TestOrderPlan:
    def test_a_stubbed_build_leaves_later_orders_unchanged(self):
        # Fermionic integrals memoized under the stubs go with them, so the
        # next evaluator computes them again
        params = ModelParams(0.2, 2, 1, 2)
        want = [TermEvaluator(params, GL).order_contribution(n) for n in range(1, 5)]
        with stubbed_integrals() as computed:
            TermEvaluator(params, GL).order_contribution(4)
            assert computed
        assert [TermEvaluator(params, GL).order_contribution(n) for n in range(1, 5)] == want

    def test_another_coupling_reuses_the_plan(self, stub_integrals):
        # another lambda, M and j_min over the same number of slices
        # computes no Fermionic integral and yields the same rows, read in
        # slice ranks
        def rows(params):
            ev = TermEvaluator(params)
            return [
                (index, stabilizer, tuple(j - params.j_min for j in slices))
                for n in range(1, 6)
                for index, _, stabilizer, slices, _ in ev.order_terms(n)
            ]

        first = rows(ModelParams(0.2, 2, 1, 3))
        assert stub_integrals
        stub_integrals.clear()
        assert rows(ModelParams(0.3 + 0.1j, 16, 2, 4)) == first
        assert stub_integrals == []

    def test_orders_do_not_depend_on_which_coupling_plans_first(self):
        # a coarse Bosonic rule: the two passes are compared with each other
        configs = [ModelParams(0.2, 2, 1, 3), ModelParams(0.3 + 0.1j, 16, 2, 4)]
        seen = []
        for order in (configs, configs[::-1]):
            clear_plans()
            seen.append({params: orders_and_sums(params, 5, 4)[0] for params in order})
        assert seen[0] == seen[1]


def equality_pattern(slices) -> tuple:
    """The slices relabeled 0, 1, ... by first occurrence."""
    first = {}
    return tuple(first.setdefault(j, len(first)) for j in slices)


def brute_term_key(jungle, slices):
    """The least (relabeled Bosonic edges, relabeled Fermionic edges,
    relabeled slices) over all n! vertex permutations: the oracle of the
    term classes."""
    best = None
    for perm in permutations(range(jungle.n)):
        cand = (
            tuple(sorted(norm_edge(perm[u], perm[v]) for u, v in jungle.bosonic.edges)),
            tuple(sorted(norm_edge(perm[u], perm[v]) for u, v in jungle.fermionic)),
            tuple(slices[perm.index(i)] for i in range(jungle.n)),
        )
        if best is None or cand < best:
            best = cand
    return best


class TestTermKey:
    def test_classes_match_brute_force_key(self, monkeypatch):
        # every spanning jungle with n <= 4 and every admissible labeling
        # over three slices: the rows of the order sum are pairwise
        # non-isomorphic, they cover every labeled term, and a row stands
        # for n!/stabilizer labeled terms; the blocks are stubbed out
        monkeypatch.setattr(TermEvaluator, "_integrate_block", lambda self, edges, js: 0j)
        ev = TermEvaluator(ModelParams(0.2, 2, 1, 3))
        for n in range(1, 5):
            rows = {}
            for _, jungle, stabilizer, slices, _ in ev.order_terms(n):
                key = brute_term_key(jungle, slices)
                assert key not in rows
                rows[key] = math.factorial(n) // stabilizer
            labeled: dict = {}
            for jungle in enumerate_jungles(n, spanning=True):
                if not fermionic_vanishes(jungle):
                    for slices in product((1, 2, 3), repeat=n):
                        if admissible(jungle, slices):
                            key = brute_term_key(jungle, slices)
                            labeled[key] = labeled.get(key, 0) + 1
            assert labeled == rows


class TestLabeledSum:
    @pytest.mark.parametrize(
        "n, lam, j_max",
        [(n, lam, 3) for n in (1, 2, 3, 4) for lam in (0.2, 0.3 + 0.1j)] + [(5, 0.2, 2)],
    )
    def test_class_sum_matches_the_labeled_sum(self, n, lam, j_max):
        # the order as defined: 1/n! times the sum of jungle_term over every
        # spanning jungle and admissible labeling, against the sum over term
        # classes of value / stabilizer, to rounding of the terms' scale
        params = ModelParams(lam, 2, 1, j_max)
        ev = TermEvaluator(params, GL)
        labeled = scale = 0
        for jungle in enumerate_jungles(n, spanning=True):
            for slices in product(params.slices, repeat=n):
                if admissible(jungle, slices):
                    term = ev.jungle_term(jungle, slices)
                    labeled += term
                    scale += abs(term)
        labeled /= math.factorial(n)
        scale /= math.factorial(n)
        assert abs(ev.order_contribution(n) - labeled) <= 1e-14 * scale


def least_images(automorphisms, slices):
    """The images of a labeling under the automorphisms, and the least."""
    images = [tuple(slices[v] for v in order) for order in automorphisms]
    return images, min(images)


class TestTraceRecords:
    @pytest.mark.parametrize("n, window", [(n, tuple(range(1, m + 1))) for n in (1, 2, 3, 4) for m in (2, 3, 4)])
    def test_generator_yields_the_admissible_product(self, monkeypatch, n, window):
        # the generator against the filtered product, order included: on
        # each class representative, the admissible labelings that are least
        # under its automorphisms, less the jungles whose Fermionic factor
        # vanishes, each with the automorphisms that fix it; the blocks are
        # stubbed out, so the term values are left out
        monkeypatch.setattr(TermEvaluator, "_integrate_block", lambda self, edges, js: 0j)
        ev = TermEvaluator(ModelParams(0.2, 2, 1, len(window)))
        got = [(index, stabilizer, slices) for index, _, stabilizer, slices, _ in ev.order_terms(n)]
        want = []
        for index, (jungle, automorphisms) in enumerate(jungle_classes(n)):
            for slices in product(window, repeat=n):
                images, least = least_images(automorphisms, slices)
                if admissible(jungle, slices) and not fermionic_vanishes(jungle) and least == slices:
                    want.append((index, images.count(slices), slices))
        assert got == want

    def test_order_terms_zero_tagging(self):
        # order 4 over two slices: every yielded term is nonzero; on each
        # class representative, a labeling of the product that is not
        # yielded is either a relabeled copy of a yielded one or a
        # structural zero, and the public jungle_term keeps the exact zero
        # on the structural zeros
        params = ModelParams(0.25, 2, 1, 2)
        ev = TermEvaluator(params, gl_nodes=GL)
        yielded = {(index, slices): value for index, _, _, slices, value in ev.order_terms(4)}
        assert all(value != 0j for value in yielded.values())
        copies, excluded, vanishing = set(), 0, 0
        for index, (jungle, automorphisms) in enumerate(jungle_classes(4)):
            for slices in product(params.slices, repeat=4):
                if admissible(jungle, slices) and not fermionic_vanishes(jungle):
                    copies.add((index, least_images(automorphisms, slices)[1]))
                else:
                    excluded += 1
                    vanishing += admissible(jungle, slices)
                    assert ev.jungle_term(jungle, slices) == 0j
        assert copies == set(yielded)
        assert (excluded, vanishing) == (150, 2)  # 2: the Fermionic star on four singletons
