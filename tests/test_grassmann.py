from itertools import combinations, permutations

import numpy as np
import pytest

from conftest import (
    algebra_mul,
    berezin_integral,
    brute_force_grassmann,
    check_minor_bound,
    exp_neg_bilinear,
    fermionic_factor_brute,
    monomial_element,
    random_spanning_jungle,
)
from mlve.combinatorics import Forest, Jungle, _components_of, empty_forest, enumerate_jungles, norm_edge
from mlve.grassmann import (
    exchange_sum,
    fermionic_factor,
    grassmann_minor,
    hardcore_violated,
    lifted_y_matrix,
    slice_delta_violated,
)
from mlve.interpolation import min_over_paths, ordering_cell


def _block_weights(jungle, weights):
    """The weights of the block graph: the Fermionic edges, each between
    the Bosonic blocks of its endpoints."""
    block_of = jungle.partition().block_of()
    return {norm_edge(block_of[u], block_of[v]): weights[(u, v)] for u, v in sorted(jungle.fermionic)}


def _block_level_y(jungle, slices, weights):
    """The lifted Y by the block graph: its path minima, gathered back to
    the vertices, times the slice delta."""
    block_of = jungle.partition().block_of()
    blk = np.array([block_of[v] for v in range(jungle.n)])
    block_weights = _block_weights(jungle, weights)
    yblk = min_over_paths(len(jungle.partition().blocks), list(block_weights), block_weights)
    js = np.asarray(slices)
    return yblk[..., blk[:, None], blk] * (js[:, None] == js)


def _layered_lifted_sum(jungle, slices, weights):
    """sum_i c_i sum_(f, j) 1_(f, j) 1_(f, j)^T: the layered decomposition of
    the block-level Fermionic forest, each block component f split by the
    slice delta into its vertices of slice j.  With the edges sorted by
    decreasing weight w_i, layer i has c_i = w_i - w_(i+1) (w_0 = 1, w_(k+1)
    = 0) and the components f of the i heaviest edges."""
    block_of = jungle.partition().block_of()
    block_weights = _block_weights(jungle, weights)
    order = sorted(block_weights, key=block_weights.get, reverse=True)
    levels = [1.0] + [block_weights[e] for e in order] + [0.0]
    js = np.asarray(slices)
    out = np.zeros((jungle.n, jungle.n))
    for i in range(len(order) + 1):
        for comp in _components_of(len(jungle.partition().blocks), order[:i]):
            in_comp = np.array([block_of[v] in comp for v in range(jungle.n)])
            for j in set(slices):
                vec = in_comp & (js == j)
                out += (levels[i] - levels[i + 1]) * np.outer(vec, vec)
    return out


class TestBruteForce:
    def test_defining_identity_dim_one(self):
        assert brute_force_grassmann(1, [[2.5]], []) == 2.5

    def test_repeated_generator_vanishes(self):
        assert brute_force_grassmann(2, np.eye(2), [("psi", 0), ("psi", 0)]) == 0

    def test_determinant_dim_two(self, rng):
        m = rng.normal(size=(2, 2))
        assert brute_force_grassmann(2, m, []) == pytest.approx(np.linalg.det(m), rel=1e-12)

    def test_budget(self):
        with pytest.raises(ValueError):
            brute_force_grassmann(9, np.eye(9), [])


class TestMinorFormula:
    def test_empty_removal_is_determinant(self, rng):
        m = rng.normal(size=(4, 4))
        assert grassmann_minor(m, (), ()) == pytest.approx(np.linalg.det(m), rel=1e-12)

    def test_identity_interior_minor(self):
        assert grassmann_minor(np.eye(3), (0,), (0,)) == pytest.approx(1.0)

    def test_off_diagonal_sign_locked_by_oracle(self, rng):
        m = np.array([[1.0, 0.3], [0.3, 1.0]])
        mono = [("psi", 0), ("psibar", 1)]
        bf = brute_force_grassmann(2, m, mono)
        assert grassmann_minor(m, (0,), (1,)) == pytest.approx(bf, rel=1e-12)
        assert bf == pytest.approx(-0.3, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_exhaustive_oracle_equivalence(self, dim, rng):
        m = rng.normal(size=(dim, dim))
        for k in range(dim + 1):
            for a_set in combinations(range(dim), k):
                for a in permutations(a_set):
                    for b_set in combinations(range(dim), k):
                        for b in permutations(b_set):
                            mono = []
                            for i in range(k):
                                mono.append(("psi", a[i]))
                                mono.append(("psibar", b[i]))
                            bf = brute_force_grassmann(dim, m, mono)
                            mv = grassmann_minor(m, a, b)
                            assert mv == pytest.approx(bf, abs=1e-11)

    def test_random_dim_six(self, rng):
        dim = 6
        m = rng.normal(size=(dim, dim))
        expo = exp_neg_bilinear(m)
        for _ in range(1000):
            k = int(rng.integers(0, dim + 1))
            a = tuple(int(x) for x in rng.permutation(dim)[:k])
            b = tuple(int(x) for x in rng.permutation(dim)[:k])
            mono = []
            for i in range(k):
                mono.append(("psi", a[i]))
                mono.append(("psibar", b[i]))
            bf = berezin_integral(dim, algebra_mul(expo, monomial_element(mono)))
            assert grassmann_minor(m, a, b) == pytest.approx(bf, abs=1e-10, rel=1e-8)

    def test_antisymmetry_in_columns(self, rng):
        m = rng.normal(size=(4, 4))
        a, b = (0, 2), (1, 3)
        swapped = (2, 0)
        v1 = grassmann_minor(m, a, b)
        v2 = grassmann_minor(m, swapped, b)
        assert v1 == pytest.approx(-v2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            grassmann_minor(np.eye(3), (0, 0), (1, 2))
        with pytest.raises(ValueError):
            grassmann_minor(np.eye(3), (0,), (1, 2))
        with pytest.raises(ValueError):
            grassmann_minor(np.eye(3), (5,), (0,))


class TestFermionicFactor:
    def test_single_block_no_edges(self):
        jungle = Jungle(3, Forest(3, frozenset({(0, 1), (1, 2)})), frozenset())
        assert fermionic_factor(jungle, (1, 2, 3), {}) == 1.0

    def test_hardcore_zero(self):
        jungle = Jungle(2, Forest(2, frozenset({(0, 1)})), frozenset())
        assert hardcore_violated(jungle, (2, 2))
        assert fermionic_factor(jungle, (2, 2), {}) == 0.0

    def test_slice_delta_zero(self):
        jungle = Jungle(2, empty_forest(2), frozenset({(0, 1)}))
        assert slice_delta_violated(jungle, (1, 2))
        assert fermionic_factor(jungle, (1, 2), {(0, 1): 0.5}) == 0.0

    def test_two_singletons_full_weight(self):
        jungle = Jungle(2, empty_forest(2), frozenset({(0, 1)}))
        val = fermionic_factor(jungle, (1, 1), {(0, 1): 1.0})
        assert abs(val) <= 2.0 + 1e-12
        y = lifted_y_matrix(jungle, (1, 1), {(0, 1): 1.0})
        for pattern in ((0,), (1,)):
            cols = (0,) if pattern == (0,) else (1,)
            rows = (1,) if pattern == (0,) else (0,)
            assert abs(grassmann_minor(y, cols, rows)) <= 1.0 + 1e-12
        assert val == pytest.approx(fermionic_factor_brute(jungle, (1, 1), {(0, 1): 1.0}), abs=1e-12)

    def test_routes_agree_on_random_jungles(self, rng):
        for n in range(2, 6):
            for _ in range(25):
                jungle = random_spanning_jungle(rng, n)
                slices = tuple(int(s) for s in rng.integers(1, 4, size=n))
                weights = {e: float(rng.uniform()) for e in jungle.fermionic}
                assert fermionic_factor(jungle, slices, weights) == pytest.approx(
                    fermionic_factor_brute(jungle, slices, weights), abs=1e-11
                )

    def test_lifted_y_is_union_forest_path_minima(self, rng):
        # every jungle with n <= 5, spanning or not, at random slices 1 and
        # 2, with scalar weights and with weights at 7 points: the union
        # forest's path minima equal the block graph's, bit for bit
        for n in range(1, 6):
            for jungle in enumerate_jungles(n):
                slices = tuple(int(s) for s in rng.integers(1, 3, size=n))
                for points in (None, 7):
                    weights = {e: rng.uniform(size=points) for e in sorted(jungle.fermionic)}
                    assert np.array_equal(lifted_y_matrix(jungle, slices, weights), _block_level_y(jungle, slices, weights))

    def test_lifted_matrix_psd_and_layered(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            jungle = random_spanning_jungle(rng, n)
            slices = tuple(int(s) for s in rng.integers(1, 5, size=n))
            if hardcore_violated(jungle, slices):
                continue
            weights = {e: float(rng.uniform()) for e in jungle.fermionic}
            y = lifted_y_matrix(jungle, slices, weights)
            assert np.linalg.eigvalsh(y).min() >= -1e-12
            assert np.allclose(_layered_lifted_sum(jungle, slices, weights), y, rtol=0.0, atol=1e-12)


class TestStackedRoute:
    """Weights of broadcastable shapes give, point by point, the scalar
    results: random stacks of shape (P,), and the levels of one ordering
    cell on their prefix grids, of shapes (Q,), (Q, Q), ..."""

    P = 16
    Q = 3

    def cases(self, rng, count=24):
        """Random spanning jungles with at least one Fermionic edge (with
        none there is nothing to stack); every other case is redrawn until
        it passes the structural filter, and every third takes the levels
        of one ordering cell on a random order of its edges."""
        drawn = 0
        while drawn < count:
            jungle = random_spanning_jungle(rng, int(rng.integers(2, 5)))
            slices = tuple(int(s) for s in rng.integers(1, int(rng.integers(2, 4)) + 1, size=jungle.n))
            zero = hardcore_violated(jungle, slices) or slice_delta_violated(jungle, slices)
            if not jungle.fermionic or (zero and drawn % 2 == 0):
                continue
            drawn += 1
            edges = sorted(jungle.fermionic)
            if drawn % 3 == 0:
                order = [edges[i] for i in rng.permutation(len(edges))]
                yield jungle, slices, dict(zip(order, ordering_cell(len(edges), self.Q)[0]))
            else:
                yield jungle, slices, {e: rng.uniform(size=self.P) for e in edges}

    @staticmethod
    def points(stack):
        """The broadcast shape of the stack, and (index, scalar weights) at
        each of its points, in C order."""
        shape = np.broadcast_shapes(*map(np.shape, stack.values()))
        full = {e: np.broadcast_to(w, shape) for e, w in stack.items()}
        return shape, [(i, {e: float(w[i]) for e, w in full.items()}) for i in np.ndindex(shape)]

    def test_min_over_paths_and_lifted_y(self, rng):
        ndims = set()
        for jungle, slices, stack in self.cases(rng):
            edges = sorted(jungle.fermionic)
            shape, points = self.points(stack)
            ndims.add(len(shape))
            paths = min_over_paths(jungle.n, edges, stack)
            y = lifted_y_matrix(jungle, slices, stack)
            assert paths.shape == y.shape == shape + (jungle.n, jungle.n)
            for i, w in points:
                assert np.array_equal(paths[i], min_over_paths(jungle.n, edges, w))
                assert np.array_equal(y[i], lifted_y_matrix(jungle, slices, w))
        assert max(ndims) >= 2  # a cell of two or more edges was drawn

    def test_grassmann_minor(self, rng):
        for jungle, slices, stack in self.cases(rng):
            n = jungle.n
            shape, points = self.points(stack)
            y = lifted_y_matrix(jungle, slices, stack)
            k = int(rng.integers(0, n + 1))
            cols = tuple(int(i) for i in rng.permutation(n)[:k])
            rows = tuple(int(i) for i in rng.permutation(n)[:k])
            got = grassmann_minor(y, cols, rows)
            assert got.shape == shape and got.dtype == np.float64
            want = [grassmann_minor(y[i], cols, rows) for i, _ in points]
            np.testing.assert_allclose(got.ravel(), want, rtol=1e-13, atol=1e-15)

    def test_exchange_sum_is_the_sum_of_minors(self, rng):
        # the index arrays and signs fixed per jungle give, bit for bit,
        # the checked minors of every exchange pattern that repeats no
        # generator, summed in pattern order
        for jungle, slices, stack in self.cases(rng):
            edges = sorted(jungle.fermionic)
            y = lifted_y_matrix(jungle, slices, stack)
            want = np.zeros(y.shape[:-2])
            for pattern in range(1 << len(edges)):
                flip = [pattern >> i & 1 for i in range(len(edges))]
                cols = tuple(v if f else u for f, (u, v) in zip(flip, edges))
                rows = tuple(u if f else v for f, (u, v) in zip(flip, edges))
                if len(set(cols)) == len(set(rows)) == len(edges):
                    want = want + grassmann_minor(y, cols, rows)
            assert np.array_equal(exchange_sum(jungle, y), want)

    def test_fermionic_factor_pointwise_and_brute(self, rng):
        kinds = set()
        for jungle, slices, stack in self.cases(rng):
            shape, points = self.points(stack)
            got = fermionic_factor(jungle, slices, stack)
            assert got.shape == shape
            kinds.add(bool(np.any(got)))
            for i, w in points:
                assert got[i] == pytest.approx(fermionic_factor(jungle, slices, w), rel=1e-13, abs=1e-15)
                assert got[i] == pytest.approx(fermionic_factor_brute(jungle, slices, w), abs=1e-12)
        assert kinds == {False, True}  # structural zeros and live terms both drawn


class TestMinorBounds:
    def test_identity_matrix(self):
        report = check_minor_bound(np.eye(4), trials=50, rng=0)
        assert report.ok
        assert report.worst_abs_excess <= 0.0

    def test_all_ones_diagonal_minor(self):
        ones = np.ones((3, 3))
        assert grassmann_minor(ones, (0,), (0,)) == pytest.approx(0.0, abs=1e-14)
        report = check_minor_bound(ones, trials=50, rng=1)
        assert report.ok

    def test_random_lifted_matrices(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            jungle = random_spanning_jungle(rng, n)
            slices = tuple(int(s) for s in rng.integers(1, 5, size=n))
            if hardcore_violated(jungle, slices):
                continue
            weights = {e: float(rng.uniform()) for e in jungle.fermionic}
            y = lifted_y_matrix(jungle, slices, weights)
            report = check_minor_bound(y, trials=40, rng=int(rng.integers(2**31)))
            assert report.ok, report

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            check_minor_bound(np.array([[1.0, 2.0], [2.0, 1.0]]), trials=5)
