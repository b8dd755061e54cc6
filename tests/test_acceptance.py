"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Tolerances are pinned here, not configurable.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product

import numpy as np
import pytest

from conftest import (
    ExpEdgeFunction,
    algebra_mul,
    berezin_integral,
    check_minor_bound,
    count_trees_with_degrees,
    dw_slice,
    exp_neg_bilinear,
    forest_formula_eval,
    monomial_element,
    random_spanning_jungle,
    replica_gaussian_eval,
    replica_gaussian_left,
    tree_walk_order,
    z_by_collections,
)
from mlve import bounds, grassmann, mayer, oracle
from mlve.combinatorics import (
    count_two_level_trees,
    enumerate_jungles,
    enumerate_trees,
    two_level_tree_bound,
)
from mlve.engine import TermEvaluator
from mlve.model_core import ModelParams
from mlve.oracle import gauss_hermite_norm


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {text}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {text}")


def test_criterion_01_oracle_agreement():
    with criterion(1, "expansion partial sums approach the quadrature log Z"):
        t0 = time.time()
        params = ModelParams(0.2, 2, 1, 3)
        # oracle target computed now, with the required doubling stability
        assert oracle.z_reliable(params, 200)[1] < 1e-10
        ref = oracle.logz_oracle(params, 200)

        ev = TermEvaluator(params)  # default engine settings
        partial_sums = list(accumulate(ev.order_contribution(n) for n in (1, 2, 3)))
        errs = [abs(s - ref) for s in partial_sums]
        assert errs[2] < errs[0], f"|S3 - L| = {errs[2]} not below |S1 - L| = {errs[0]}"

        # S_1 against an independent per-slice quadrature of E[W_j].
        # Note the sign: the n = 1 jungle term is + sum_j E[W_j]; the
        # expansion converges to log Z only with this orientation (see the
        # decisions ledger on the sign bookkeeping).
        x, w = gauss_hermite_norm(400)
        s1_direct = sum(complex(np.sum(w * dw_slice(params, j, 0, x)[0])) for j in params.slices)
        assert abs(partial_sums[0] - s1_direct) < 1e-8

        elapsed = time.time() - t0
        assert elapsed < 300.0, f"criterion 1 took {elapsed:.0f} s"


def test_criterion_02_combinatorial_exactness():
    with criterion(2, "tree / jungle / degree counts are exact"):
        t0 = time.time()
        for n in range(2, 8):
            assert sum(1 for _ in enumerate_trees(n)) == n ** (n - 2)
        for n in range(1, 7):
            count = sum(1 for _ in enumerate_jungles(n, spanning=True))
            assert count == count_two_level_trees(n)
            assert count <= two_level_tree_bound(n)
        from collections import Counter

        for q in range(2, 7):
            observed = Counter(t.degrees() for t in enumerate_trees(q))
            for degrees, count in observed.items():
                assert count_trees_with_degrees(degrees) == count
        elapsed = time.time() - t0
        assert elapsed < 120.0, f"criterion 2 took {elapsed:.0f} s"


def test_criterion_03_forest_formula_identity():
    with criterion(3, "forest formula reproduces f(1); replica corollary exact"):
        rng = np.random.default_rng(3001)
        for _ in range(20):
            coeffs = {e: float(rng.uniform(-1, 1)) for e in [(0, 1), (0, 2), (1, 2)]}
            fn = ExpEdgeFunction(3, coeffs)
            target = math.exp(sum(coeffs.values()))
            value = forest_formula_eval(3, fn, quadrature_order=16)
            assert abs(value - target) < 1e-6
        cov1 = np.array([[1.0]])
        cov2 = np.array([[1.0, 0.4], [0.4, 1.5]])
        cases = [
            (2, cov1, [{(1,): 1.0}, {(1,): 1.0}]),
            (3, cov1, [{(2,): 1.0}] * 3),
            (3, cov2, [{(1, 1): 0.5, (0, 2): 1.0}, {(2, 0): 1.0}, {(0, 1): 1.0, (0, 0): 0.3}]),
        ]
        for n, cov, fs in cases:
            left = replica_gaussian_left(cov, fs)
            right = replica_gaussian_eval(n, cov, fs)
            assert abs(left - right) <= 1e-12 * max(1.0, abs(left))


def test_criterion_04_grassmann_oracle_exhaustive_exact():
    with criterion(4, "determinant-minor formula == brute force, dim <= 5, exact"):
        rng = np.random.default_rng(4001)
        for dim in range(1, 6):
            m = [[Fraction(int(x)) for x in row] for row in rng.integers(-3, 4, (dim, dim))]
            mfloat = np.array(m, dtype=float)
            expo = exp_neg_bilinear(m)
            for k in range(dim + 1):
                for a_set in combinations(range(dim), k):
                    for a in permutations(a_set):
                        for b_set in combinations(range(dim), k):
                            for b in permutations(b_set):
                                mono = []
                                for i in range(k):
                                    mono.append(("psi", a[i]))
                                    mono.append(("psibar", b[i]))
                                bf = berezin_integral(
                                    dim,
                                    algebra_mul(expo, monomial_element(mono)),
                                )
                                mv = grassmann.grassmann_minor(mfloat, a, b)
                                # integer entries make every minor an integer, which the
                                # float determinant hits to far better than 1/2 at dim <= 5
                                assert bf == round(mv) and abs(mv - bf) < 1e-9


def test_criterion_05_lifted_matrix_psd_and_minor_bounds():
    with criterion(5, "lifted Y PSD and minor bounds on 1000 random configurations"):
        rng = np.random.default_rng(5001)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 7))
            jungle = random_spanning_jungle(rng, n)
            slices = tuple(int(s) for s in rng.integers(1, 6, size=n))
            if grassmann.hardcore_violated(jungle, slices):
                continue
            weights = {e: float(rng.uniform()) for e in jungle.fermionic}
            y = grassmann.lifted_y_matrix(jungle, slices, weights)
            assert np.linalg.eigvalsh(y).min() >= -1e-12
            report = check_minor_bound(y, trials=10, rng=int(rng.integers(2**31)))
            assert report.worst_abs_excess <= 1e-10
            assert report.worst_cauchy_schwarz_excess <= 1e-10
            assert report.worst_diag_low <= 1e-10 and report.worst_diag_high <= 1e-10
            checked += 1


def test_criterion_06_bound_domination():
    with criterion(6, "|jungle term| <= assembled per-term bound, n <= 3, M = 10"):
        # the weight quadrature is set well below the orders-of-magnitude
        # slack in the bound: 6 Gauss-Legendre nodes per weight
        for lam in (0.1, 0.5, 1.0):
            params = ModelParams(lam, 10, 3, 5)
            ev = TermEvaluator(params, gl_nodes=6)
            for n in (1, 2, 3):
                for jungle in enumerate_jungles(n, spanning=True):
                    for slices in permutations(params.slices, n):
                        term = ev.jungle_term(jungle, slices)
                        cap = bounds.assemble_term_bound(jungle, slices, lam, 10)
                        assert abs(term) <= cap * (1.0 + 1e-9), (
                            n,
                            lam,
                            slices,
                            abs(term),
                            cap,
                        )


def test_criterion_07_series_regime():
    with criterion(7, "inner-sum tail bound and Stirling chain; q=1 threshold WARN"):
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            tail, cap = bounds.inner_tail_bound(lam, 1e8)
            assert tail <= cap + 1e-15
        assert all(r.ok for r in bounds.stirling_chain_check(range(1, 1001)))
        (row,) = bounds.m_threshold_check(1e8, [1])
        assert row.value == pytest.approx(2.7, rel=1e-12)
        assert not row.ok  # documented discrepancy, reported not repaired
        print("ACCEPTANCE 07 WARN  threshold value at q=1, M=1e8 is 2.7 > 1 (documented)")


def test_criterion_08_borel_domain():
    with criterion(8, "domain predicates agree; complex-coupling oracle stable"):
        rng = np.random.default_rng(8001)
        for _ in range(10_000):
            lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if lam == 0:
                continue
            g = lam * lam
            inside = bounds.borel_domain(lam=lam).inside
            assert inside == (abs(g - 0.5) < 0.5)
        import cmath

        points = [
            0.3 * cmath.exp(1j * math.pi / 8),
            0.5 * cmath.exp(-1j * math.pi / 12),
            0.2 + 0.1j,
            0.4,
            0.3 - 0.1j,
        ]
        for lam in points:
            assert bounds.borel_domain(lam=lam).inside
            params = ModelParams(lam, 2, 1, 3)
            assert oracle.z_reliable(params, 200)[1] < 1e-10


def test_criterion_09_mayer_expansion():
    with criterion(9, "tree expansion of the polymer gas matches enumeration"):
        t0 = time.time()
        gas = mayer.PolymerGas(
            frozenset({0, 1}),
            {frozenset({0}): 0.1, frozenset({1}): 0.1, frozenset({0, 1}): 0.05},
        )
        direct = sum(z_by_collections(gas)).real
        orders = mayer.log_coefficients(mayer.partition_polynomial(gas), 4)
        assert abs(math.exp(sum(orders).real) - direct) < 1e-3

        rng = np.random.default_rng(9001)
        done = 0
        while done < 100:
            m = int(rng.integers(2, 6))
            polys = [frozenset(c) for size in (1, 2) for c in combinations(range(m), size)]
            keep = [p for p in polys if rng.random() < 0.7][:6]
            if not keep:
                continue
            acts = {
                p: float(rng.uniform(0.0, 0.15)) / (math.e ** len(p) * len(keep)) for p in keep
            }
            g = mayer.PolymerGas(frozenset(range(m)), acts)
            assert max(mayer.convergence_condition(g, p0) for p0 in g.monomers) < 1.0
            z = sum(z_by_collections(g)).real
            orders = mayer.log_coefficients(mayer.partition_polynomial(g), 4)
            assert abs(math.exp(sum(orders).real) - z) < 1e-3
            # the forest formula's tree weights, summed over ordered tuples
            for n, order in enumerate(orders[:3], start=1):
                walked = tree_walk_order(g, n)
                assert abs(order - walked) <= 1e-13 * abs(walked)
            done += 1
        elapsed = time.time() - t0
        assert elapsed < 120.0, f"criterion 9 took {elapsed:.0f} s"


def test_criterion_10_hardcore_structural_zeros():
    with criterion(10, "hardcore and slice-delta violations give exact zeros"):
        params = ModelParams(0.3, 2, 1, 3)
        ev = TermEvaluator(params, gl_nodes=4)
        found_hardcore = found_delta = 0
        for n in (2, 3):
            for jungle in enumerate_jungles(n, spanning=True):
                for slices in product(params.slices, repeat=n):
                    same_block_clash = grassmann.hardcore_violated(jungle, slices)
                    delta_clash = grassmann.slice_delta_violated(jungle, slices)
                    if same_block_clash or delta_clash:
                        value = ev.jungle_term(jungle, slices)
                        assert value == 0j  # exact, no quadrature residue
                        found_hardcore += same_block_clash
                        found_delta += delta_clash
        assert found_hardcore > 0 and found_delta > 0
