import math
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    ExpEdgeFunction,
    check_minor_bound,
    forest_formula_eval,
    gaussian_expectation,
    replica_gaussian_eval,
    replica_gaussian_left,
    x_matrix,
)
from mlve.combinatorics import Forest, Jungle, empty_forest, enumerate_forests
from mlve.interpolation import min_over_paths, ordering_cell


class _Monomial:
    """f(X) = prod_l X_l^(k_l) over off-diagonal entries l, all k_l >= 1."""

    def __init__(self, powers):
        self.powers = powers

    def forest_derivative(self, edges, X):
        if not set(edges) <= set(self.powers):
            return 0.0
        return math.prod(k * X[e] ** (k - 1) if e in edges else X[e] ** k for e, k in self.powers.items())


class TestXMatrix:
    def test_empty_forest_gives_identity(self):
        X = x_matrix(empty_forest(3), {})
        assert np.array_equal(X, np.eye(3))

    def test_single_edge(self):
        X = x_matrix(Forest(2, frozenset({(0, 1)})), {(0, 1): 0.7})
        assert X[0, 1] == X[1, 0] == 0.7
        assert X[0, 0] == X[1, 1] == 1.0

    def test_path_infimum(self):
        f = Forest(3, frozenset({(0, 1), (1, 2)}))
        X = x_matrix(f, {(0, 1): 0.5, (1, 2): 0.8})
        assert X[0, 2] == 0.5
        assert X[0, 1] == 0.5 and X[1, 2] == 0.8

    def test_disconnected_zero(self):
        f = Forest(4, frozenset({(0, 1)}))
        X = x_matrix(f, {(0, 1): 0.9})
        assert X[0, 2] == X[1, 3] == 0.0

    def test_weight_validation(self):
        f = Forest(2, frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            x_matrix(f, {(0, 1): 1.2})
        with pytest.raises(ValueError):
            x_matrix(f, {})
        with pytest.raises(ValueError):
            x_matrix(f, {(0, 1): 0.5, (1, 2): 0.5})

    def test_psd_on_random_samples(self, rng):
        # 10^4 random (forest, w) samples across n <= 6
        per_n = 10_000 // 5
        for n in range(2, 7):
            forests = list(enumerate_forests(min(n, 5))) if n <= 5 else None
            for _ in range(per_n):
                if forests is not None:
                    f = forests[rng.integers(len(forests))]
                else:
                    from conftest import random_spanning_jungle

                    jungle = random_spanning_jungle(rng, n)
                    f = Forest(n, jungle.bosonic.edges | jungle.fermionic)
                w = {e: float(rng.uniform()) for e in f.edges}
                X = x_matrix(f, w)
                assert np.linalg.eigvalsh(X).min() >= -1e-12

    def test_block_matrix_is_w_to_one_limit(self, rng):
        from conftest import random_partition, random_block_tree

        for _ in range(10):
            part = random_partition(rng, 5)
            edges = frozenset().union(
                *(random_block_tree(rng, sorted(b)) for b in part.blocks)
            )
            f = Forest(5, edges)
            X = x_matrix(f, {e: 1.0 for e in edges})
            block_of = part.block_of()
            same_block = [[block_of[u] == block_of[v] for v in range(5)] for u in range(5)]
            assert np.array_equal(X, np.array(same_block, dtype=float))

    def test_non_psd_regression_matrix(self):
        # unit diagonal and entries in [0, 1], but no path-minimum matrix
        bad = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
        assert np.linalg.eigvalsh(bad).min() < -0.4  # 1 - sqrt(2)
        with pytest.raises(ValueError):
            check_minor_bound(bad, trials=1)


class TestYBlockMatrix:
    """Path-minimum matrices of small forests: lifted_y_matrix's Y of the
    union forest before the slice delta."""

    def test_single_block(self):
        Y = min_over_paths(1, [], {})
        assert np.array_equal(Y, np.eye(1))

    def test_two_blocks(self):
        Y = min_over_paths(2, [(0, 1)], {(0, 1): 0.4})
        assert np.allclose(Y, [[1, 0.4], [0.4, 1]])

    def test_three_block_path(self):
        Y = min_over_paths(3, [(0, 1), (1, 2)], {(0, 1): 0.9, (1, 2): 0.2})
        assert Y[0, 2] == 0.2
        assert np.linalg.eigvalsh(Y).min() >= -1e-12

    def test_scalar_and_stacked_weights_broadcast(self):
        # a scalar weight listed before a stacked one still gives the stack,
        # as a Bosonic edge at weight 1 does in the union forest
        w = np.array([0.3, 0.7])
        Y = min_over_paths(3, [(0, 1), (1, 2)], {(0, 1): 1.0, (1, 2): w})
        assert Y.shape == (2, 3, 3)
        assert np.array_equal(Y[:, 0, 2], w)

    def test_non_forest_rejected(self):
        # the union forest comes from a jungle, which refuses a cycle
        with pytest.raises(ValueError):
            Jungle(3, empty_forest(3), frozenset({(0, 1), (1, 2), (0, 2)}))


def cell_arrays(k, order):
    """The points and weights of each ordering cell, one cell at a time, in
    permutation order: cell pi puts level m + 1 of ``ordering_cell`` on
    coordinate pi[m].  Points of shape (Q^k, k), weights (Q^k,)."""
    levels, weights = ordering_cell(k, order)
    flat = np.array([np.broadcast_to(w, weights.shape).ravel() for w in levels]).reshape(k, weights.size)
    for perm in permutations(range(k)):
        yield flat[np.argsort(perm)].T, weights.ravel()


class TestOrderingSimplexQuadrature:
    @pytest.mark.parametrize("k", range(5))
    def test_points_are_the_cells_placed_by_permutation(self, k):
        # the levels of the one cell rule live on prefix grids and, broadcast,
        # fall strictly, w_1 > ... > w_k; every cell holds them, placed by
        # its permutation, with the rule's weights, which sum to 1 over the
        # k! cells
        levels, weights = ordering_cell(k, 3)
        assert [w.shape for w in levels] == [(3,) * (i + 1) for i in range(k)]
        assert weights.shape == (3,) * k
        cells = list(cell_arrays(k, 3))
        assert len(cells) == math.factorial(k)
        flat = cells[0][0]
        assert np.all(np.diff(flat, axis=1) < 0)
        for (pts, wts), perm in zip(cells, permutations(range(k))):
            assert np.array_equal(-np.sort(-pts, axis=1), flat)
            assert np.array_equal(pts[:, list(perm)], flat)
            assert np.array_equal(wts, weights.ravel())
        assert sum(wts.sum() for _, wts in cells) == pytest.approx(1.0, abs=1e-12)

    # closed forms for order statistics of independent uniforms: one point
    # at a time at order 8 under the plain ids, a cell at a time at order 10
    # under "points-k"
    @pytest.mark.parametrize(
        "k, points",
        [pytest.param(k, False, id=str(k)) for k in (1, 2, 3, 4)]
        + [pytest.param(k, True, id=f"points-{k}") for k in (1, 2, 3)],
    )
    def test_minimum_moments(self, k, points):
        if points:
            total, prod, val1, val2 = 0.0, 0.0, 0.0, 0.0
            for pts, wts in cell_arrays(k, 10):
                mins = pts.min(axis=1)
                total += wts.sum()
                prod += float(wts @ pts.prod(axis=1))
                val1 += float(wts @ mins)
                val2 += float(wts @ mins**2)
            assert total == pytest.approx(1.0, abs=1e-12)
            assert prod == pytest.approx(0.5**k, abs=1e-12)
        else:
            pairs = [(x, w) for pts, wts in cell_arrays(k, 8) for x, w in zip(pts, wts)]
            val1 = sum(w * min(x) for x, w in pairs)
            val2 = sum(w * min(x) ** 2 for x, w in pairs)
        assert val1 == pytest.approx(1.0 / (k + 1), abs=1e-12)
        assert val2 == pytest.approx(2.0 / ((k + 1) * (k + 2)), abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_maximum_and_product(self, k):
        # and E prod_c x_c^c = prod_c 1/(c + 1), which tells the cells apart
        pairs = [(x, w) for pts, wts in cell_arrays(k, 8) for x, w in zip(pts, wts)]
        assert sum(w * max(x) for x, w in pairs) == pytest.approx(k / (k + 1.0), abs=1e-12)
        assert sum(w * math.prod(x) for x, w in pairs) == pytest.approx(0.5**k, abs=1e-12)
        graded = sum(w * math.prod(xc**c for c, xc in enumerate(x)) for x, w in pairs)
        assert graded == pytest.approx(1.0 / math.factorial(k), abs=1e-12)


class TestForestFormula:
    def test_monomial_two_vertices(self):
        fn = _Monomial({(0, 1): 2})
        assert forest_formula_eval(2, fn, 16) == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        fn = ExpEdgeFunction(3, {})
        assert forest_formula_eval(3, fn, 8) == pytest.approx(1.0, abs=1e-12)

    def test_triple_product(self):
        fn = _Monomial({(0, 1): 1, (1, 2): 1, (0, 2): 1})
        assert forest_formula_eval(3, fn, 16) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("nodes", [16, 12])
    def test_exp_family_random(self, rng, nodes):
        for _ in range(20):
            coeffs = {e: float(rng.uniform(-1, 1)) for e in [(0, 1), (0, 2), (1, 2)]}
            fn = ExpEdgeFunction(3, coeffs)
            target = math.exp(sum(coeffs.values()))
            assert forest_formula_eval(3, fn, nodes) == pytest.approx(target, abs=1e-6)

    def test_four_vertices_exp_family(self, rng):
        # exercises three-edge forests and their ordering cells
        from itertools import combinations

        coeffs = {e: float(rng.uniform(-0.5, 0.5)) for e in combinations(range(4), 2)}
        fn = ExpEdgeFunction(4, coeffs)
        target = math.exp(sum(coeffs.values()))
        assert forest_formula_eval(4, fn, 10) == pytest.approx(target, abs=1e-6)

    def test_tabulated_squared_entry(self):
        # f(X) = X_01^2 given only as a table of its forest derivatives
        table = {(): lambda X: X[0, 1] ** 2, ((0, 1),): lambda X: 2.0 * X[0, 1]}
        fn = SimpleNamespace(forest_derivative=lambda edges, X: table[tuple(edges)](X))
        assert forest_formula_eval(2, fn, 16) == pytest.approx(1.0, abs=1e-12)

    def test_budget(self):
        with pytest.raises(ValueError):
            forest_formula_eval(6, ExpEdgeFunction(6, {}), 4)


class TestReplicaCorollary:
    def test_two_replicas_linear(self):
        cov = np.array([[1.0]])
        fs = [{(1,): 1.0}, {(1,): 1.0}]
        left = replica_gaussian_left(cov, fs)
        right = replica_gaussian_eval(2, cov, fs)
        assert left == pytest.approx(1.0, abs=1e-14)
        assert right == pytest.approx(left, abs=1e-12)

    def test_constants(self):
        cov = np.array([[1.0]])
        fs = [{(0,): 1.0}] * 3
        assert replica_gaussian_eval(3, cov, fs) == pytest.approx(1.0, abs=1e-12)

    def test_sixth_moment(self):
        cov = np.array([[1.0]])
        fs = [{(2,): 1.0}] * 3
        assert replica_gaussian_left(cov, fs) == pytest.approx(15.0, abs=1e-12)
        assert replica_gaussian_eval(3, cov, fs) == pytest.approx(15.0, abs=1e-12)

    def test_random_polynomials_two_components(self, rng):
        cov = np.array([[1.0, 0.3], [0.3, 2.0]])
        for _ in range(5):
            fs = []
            for _ in range(3):
                poly = {}
                for _ in range(3):
                    expo = (int(rng.integers(0, 3)), int(rng.integers(0, 2)))
                    poly[expo] = poly.get(expo, 0.0) + float(rng.uniform(-1, 1))
                fs.append(poly)
            left = replica_gaussian_left(cov, fs)
            right = replica_gaussian_eval(3, cov, fs)
            assert right == pytest.approx(left, abs=1e-12 * max(1.0, abs(left)))

    def test_non_polynomial_rejected(self):
        with pytest.raises(TypeError):
            replica_gaussian_eval(2, np.eye(1), [lambda t: t, lambda t: t])

    def test_wick_odd_moment_vanishes(self):
        assert gaussian_expectation({(3,): 1.0}, np.eye(1)) == 0.0
