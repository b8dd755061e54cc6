import cmath
import math
from itertools import permutations

import numpy as np
import pytest

from mlve.bounds import (
    assemble_term_bound,
    borel_domain,
    double_factorial,
    inner_tail_bound,
    block_bound_real,
    summed_series_bound,
    block_bound_complex,
    m_threshold_check,
    stirling_chain_check,
)
from mlve.combinatorics import Forest, Jungle, empty_forest


class TestDoubleFactorial:
    def test_values(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(4) == 8
        assert double_factorial(7) == 105

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            double_factorial(-2)


class TestBlockBounds:
    def test_singleton(self):
        assert block_bound_real(1, (0,), (3,), 0.7, 10) == pytest.approx(0.1)

    def test_pair(self):
        assert block_bound_real(2, (1, 1), (3, 4), 1.0, 10) == pytest.approx(math.sqrt(8) * 1e-3)

    def test_vanishing_coupling(self):
        assert block_bound_real(2, (1, 1), (3, 4), 0.0, 10) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            block_bound_real(2, (0, 2), (3, 4), 0.5, 10)
        with pytest.raises(ValueError):
            block_bound_real(2, (2, 2), (3, 4), 0.5, 10)
        with pytest.raises(ValueError):
            block_bound_real(1, (1,), (3,), 0.5, 10)

    def test_complex_reduces_to_real_at_zero_phase(self):
        a = block_bound_complex(2, (1, 1), (3, 4), 0.9, 10)
        b = block_bound_real(2, (1, 1), (3, 4), 0.9, 10)
        assert a == pytest.approx(b, rel=1e-14)

    def test_complex_singleton(self):
        lam = 0.3 * cmath.exp(1j * math.pi / 8)
        assert block_bound_complex(1, (0,), (3,), lam, 10) == pytest.approx(0.009)

    def test_domain_boundary_divergence(self):
        lams = [0.2 * cmath.exp(1j * g) for g in (0.1, 0.5, 0.7)]
        vals = [block_bound_complex(2, (1, 1), (3, 3), lam, 10) for lam in lams]
        assert vals[0] < vals[1] < vals[2]
        with pytest.raises(ValueError):
            block_bound_complex(2, (1, 1), (3, 3), cmath.exp(1j * math.pi / 4), 10)


class TestSummedSeries:
    def test_zero_coupling_single_term(self):
        rep = summed_series_bound(0.0, 1e8)
        assert rep.inner_sum == pytest.approx(27 * (1e8) ** -0.25, rel=1e-12)

    def test_large_m_geometric(self):
        rep = summed_series_bound(1.0, 1e8)
        assert rep.geometric
        assert rep.partial_sum == pytest.approx(1.0 / (1.0 - rep.inner_sum), rel=1e-10)

    def test_small_m_flagged(self):
        rep = summed_series_bound(1.0, 5.0)
        assert not rep.geometric

    def test_monotone_in_m_and_coupling(self):
        s_m = [summed_series_bound(0.5, M).inner_sum for M in (1e6, 1e8, 1e10)]
        assert s_m[0] > s_m[1] > s_m[2]
        s_l = [summed_series_bound(lam, 1e8).inner_sum for lam in (0.2, 0.6, 1.0)]
        assert s_l[0] < s_l[1] < s_l[2]

    def test_inner_tail_closed_form(self):
        s, bound = inner_tail_bound(1.0, 1e8)
        assert s <= bound + 1e-15
        assert bound == pytest.approx(1.0 / 9.0, rel=1e-12)
        s2, bound2 = inner_tail_bound(0.3, 1e8)
        assert s2 <= bound2 + 1e-15


class TestStirlingChain:
    def test_first_values(self):
        rows = stirling_chain_check([1, 2])
        assert math.exp(rows[0].log_lhs) == pytest.approx(2.0, rel=1e-12)
        assert math.exp(rows[0].log_rhs) == pytest.approx(27.0 / math.e, rel=1e-12)
        assert math.exp(rows[1].log_lhs) == pytest.approx(2.0 * math.sqrt(8.0), rel=1e-12)
        assert math.exp(rows[1].log_rhs) == pytest.approx(3**6 * math.e**-2 * 4, rel=1e-12)

    def test_holds_up_to_thousand(self):
        assert all(r.ok for r in stirling_chain_check(range(1, 1001)))


class TestMThreshold:
    def test_documented_q1_discrepancy(self):
        (row,) = m_threshold_check(1e8, [1])
        assert row.value == pytest.approx(2.7, rel=1e-12)
        assert not row.ok

    def test_q2_fine(self):
        (row,) = m_threshold_check(1e8, [2])
        assert row.value == pytest.approx(729 * 4 / 1e4, rel=1e-12)
        assert row.ok

    def test_larger_m(self):
        (row,) = m_threshold_check(1e16, [1])
        assert row.value == pytest.approx(0.27, rel=1e-12)
        assert row.ok


class TestBorelDomain:
    def test_real_interior(self):
        assert borel_domain(lam=0.5).inside
        assert not borel_domain(lam=1.1).inside

    def test_quarter_phase_excluded(self):
        lam = 0.3 * cmath.exp(1j * math.pi / 4)
        assert not borel_domain(lam=lam).inside

    def test_disk_points(self):
        assert borel_domain(g=0.5).inside
        assert not borel_domain(g=1.2).inside
        assert borel_domain(g=0.5 + 0.49j).inside
        assert not borel_domain(g=0.5 + 0.5j).inside  # boundary excluded

    def test_predicates_agree_on_random_samples(self, rng):
        for _ in range(2000):
            lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if lam == 0:
                continue
            point = borel_domain(lam=lam)
            g = lam**2
            assert point.inside == ((1.0 / g).real > 1.0)
            assert point.inside == (abs(g - 0.5) < 0.5)

    def test_free_theory_inside(self):
        # g = 0 lies on the disk's circle but inside the coupling form
        for point in (borel_domain(g=0), borel_domain(g=-0.0), borel_domain(lam=0)):
            assert point.inside
            assert point.lam_sq_minus_cos == -1.0
            assert point.re_inv_g is None and point.disk_distance is None

    def test_block_bound_refuses_what_the_predicate_refuses(self, rng):
        for _ in range(200):
            lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if borel_domain(lam=lam).inside:
                assert block_bound_complex(2, (1, 1), (3, 3), lam, 10) > 0
            else:
                with pytest.raises(ValueError):
                    block_bound_complex(2, (1, 1), (3, 3), lam, 10)

    def test_exactly_one_argument(self):
        with pytest.raises(ValueError):
            borel_domain()
        with pytest.raises(ValueError):
            borel_domain(lam=0.1, g=0.01)


class TestHardcoreSliceSum:
    @pytest.mark.parametrize("b", range(1, 7))
    @pytest.mark.parametrize("j_min", (1, 3))
    def test_minimum_over_injective_assignments(self, b, j_min):
        # under the hardcore rule a block's slices are distinct, so their sum
        # is at least j_min b + b(b-1)/2, and the block bound, through its
        # factor M^-(sum_a j_a - 2b), is largest at that minimum
        M = 10
        degrees = (0,) if b == 1 else (1,) + (2,) * (b - 2) + (1,)  # a path
        window = range(j_min, j_min + b + 2)
        worst = max(block_bound_real(b, degrees, js, 1.0, M) for js in permutations(window, b))
        least_sum = j_min * b + b * (b - 1) // 2
        closed = math.sqrt(double_factorial(4 * b - 4)) * math.prod(map(math.factorial, degrees)) * M ** -(least_sum - 2 * b)
        assert worst == pytest.approx(closed, rel=1e-12)


class TestTermBound:
    def test_single_vertex(self):
        jungle = Jungle(1, empty_forest(1), frozenset())
        val = assemble_term_bound(jungle, (3,), 0.5, 10)
        assert val == pytest.approx(0.25 * 10 ** -1.0)

    def test_two_singletons_fermionic_edge(self):
        jungle = Jungle(2, empty_forest(2), frozenset({(0, 1)}))
        val = assemble_term_bound(jungle, (3, 4), 0.5, 10)
        assert val == pytest.approx(2.0 * (0.25 * 0.1) * (0.25 * 0.01))

    def test_bosonic_pair(self):
        jungle = Jungle(2, Forest(2, frozenset({(0, 1)})), frozenset())
        val = assemble_term_bound(jungle, (3, 4), 1.0, 10)
        assert val == pytest.approx(block_bound_real(2, (1, 1), (3, 4), 1.0, 10))

    def test_finite_on_hardcore_violations(self):
        jungle = Jungle(2, Forest(2, frozenset({(0, 1)})), frozenset())
        val = assemble_term_bound(jungle, (3, 3), 0.5, 10)
        assert np.isfinite(val) and val > 0
