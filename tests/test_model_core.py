import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_diff
from mlve import numerics
from mlve.engine import SIGMA_GRID
from mlve.errors import DomainError
from mlve.model_core import (
    ModelParams,
    dv_derivative,
    dw_derivative,
    dw_grid,
    exp_minus_v,
    faa_di_bruno_weight,
    log2m,
    partition_multiplicities,
    partition_weight_sum,
    slice_range,
    v_kernel,
    w_kernel,
)


def _slice_power_sum(M, j, k):
    """u_k = sum of p^(-k) over slice j: the harmonic sum at k = 1, else the
    Hurwitz zeta difference that the long-window kernel uses."""
    sl = slice_range(M, j)
    if k == 1:
        return numerics.harmonic_range_sum(sl.lo, sl.hi)
    return numerics._inverse_power_sum(sl.lo, sl.hi, k)


def _mp_dw_product(lam, lo, hi, q, sigma):
    """d^q W over [lo, hi] at each sigma: a 40-digit mp.diff of the product
    prod_p exp(-i lam sigma / p) / (1 - i lam sigma / p) - 1, its
    exponentials gathered into one."""
    with mp.workdps(40):
        ilam = 1j * mp.mpc(lam)

        def w_product(s):
            x = ilam * s
            h = mp.fsum(1 / mp.mpf(p) for p in range(lo, hi + 1))
            return mp.exp(-x * h) / mp.fprod(1 - x / p for p in range(lo, hi + 1)) - 1

        return np.array([complex(mp.diff(w_product, mp.mpf(float(s)), q)) for s in sigma])


def _w_product(params, j, sigma):
    """The plain product route prod_p exp(-x_p) / (1 - x_p) - 1, x_p = i lam sigma / p."""
    sl = params.slice_set(j)
    x0 = 1j * complex(params.lam) * sigma
    return math.prod(cmath.exp(-x0 / p) / (1.0 - x0 / p) for p in range(sl.lo, sl.hi + 1)) - 1.0


class TestLog2m:
    def test_zero(self):
        assert log2m(0) == 0

    def test_half(self):
        assert log2m(0.5) == pytest.approx(-0.1931471805599453, abs=1e-15)

    def test_small_argument_leading_term(self):
        x = 1e-4
        val = log2m(x)
        lead = -x * x / 2.0
        assert abs(val - lead) < 1e-4 * abs(lead)

    def test_singular(self):
        with pytest.raises(DomainError):
            log2m(1.0)

    def test_branch_cut_guard(self):
        with pytest.raises(DomainError):
            log2m(2.0)  # 1 - x = -1 sits on the cut

    @given(st.floats(-0.9, 0.9))
    def test_series_tail(self, x):
        # log2m(x) = -sum_{k>=2} x^k / k
        series = -sum(x**k / k for k in range(2, 500))
        assert log2m(x) == pytest.approx(series, abs=1e-12, rel=1e-9)


class TestSlices:
    def test_smallest(self):
        s = slice_range(2, 1)
        assert (s.lo, s.hi) == (1, 1)

    def test_base_ten(self):
        s = slice_range(10, 2)
        assert (s.lo, s.hi) == (10, 99)

    def test_cardinality(self):
        s = slice_range(2, 3)
        assert (s.lo, s.hi) == (4, 7)
        assert s.hi - s.lo + 1 == 2**3 - 2**2

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            slice_range(1, 2)
        with pytest.raises(ValueError):
            slice_range(2, 0)

    @pytest.mark.parametrize("M,j_min,j_max", [(2, 1, 3), (3, 2, 4), (10, 1, 2)])
    def test_slices_tile_the_window(self, M, j_min, j_max):
        params = ModelParams(0.1, M, j_min, j_max)
        seen = []
        for j in params.slices:
            sl = params.slice_set(j)
            seen.extend(range(sl.lo, sl.hi + 1))
        assert seen == list(range(M ** (j_min - 1), M**j_max))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0.1, 2, 3, 2)
        with pytest.raises(ValueError):
            ModelParams(0.1, 1, 1, 1)

    def test_cutoff(self):
        assert ModelParams(0.1, 2, 1, 3).cutoff == 7


class TestSums:
    def test_self_loop_small(self):
        assert numerics.harmonic_range_sum(1, 1) == 1.0
        assert numerics.harmonic_range_sum(1, 3) == pytest.approx(11 / 6, abs=1e-15)

    def test_self_loop_log_growth(self):
        n = 10**6
        assert abs(numerics.harmonic_range_sum(1, n) - math.log(n)) < 1.0

    def test_harmonic_window_off_one(self):
        exact = float(sum(Fraction(1, p) for p in range(37, 1001)))
        assert numerics.harmonic_range_sum(37, 1000) == pytest.approx(exact, rel=1e-15)
        assert numerics.harmonic_range_sum(5, 4) == 0.0

    def test_power_sum_single(self):
        assert _slice_power_sum(2, 1, 2) == pytest.approx(1.0, abs=1e-15)

    def test_power_sum_base_ten(self):
        exact = float(sum(Fraction(1, p * p) for p in range(10, 100)))
        val = _slice_power_sum(10, 2, 2)
        assert val == pytest.approx(exact, rel=1e-14)
        assert val <= 10**2 / 10**2  # stated bound M^j / M^(t(j-1))

    @pytest.mark.parametrize("M,j,t", [(2, 1, 2.0), (2, 3, 2.0), (10, 2, 3.0), (3, 2, 1.0)])
    def test_power_sum_bound(self, M, j, t):
        assert _slice_power_sum(M, j, int(t)) <= M**j / M ** (t * (j - 1)) + 1e-12

    def test_power_sum_t1_at_most_m(self):
        for j in range(1, 5):
            assert _slice_power_sum(5, j, 1) <= 5.0


class TestKernels:
    def test_v_at_zero(self):
        params = ModelParams(0.5, 2, 1, 3)
        assert v_kernel(params, 2, 0.0) == 0

    def test_v_vanishing_coupling(self):
        params = ModelParams(0.0, 2, 1, 3)
        assert v_kernel(params, 3, 1.7) == 0

    def test_v_single_term(self):
        params = ModelParams(0.5, 2, 1, 1)
        assert v_kernel(params, 1, 1.0) == pytest.approx(log2m(0.5j), abs=1e-15)

    def test_w_trivial_cases(self):
        params = ModelParams(0.5, 2, 1, 3)
        assert w_kernel(params, 1, 0.0) == 0
        assert w_kernel(ModelParams(0.0, 2, 1, 3), 2, 0.9) == 0

    def test_w_two_forms_worked_point(self):
        params = ModelParams(0.3, 2, 1, 3)
        a = w_kernel(params, 2, 0.7)
        b = _w_product(params, 2, 0.7)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_exp_forms_random(self, rng):
        # sum-of-logs route against the plain product route, 1000 samples
        for _ in range(1000):
            lam = rng.uniform(-1, 1) + 1j * rng.uniform(-0.3, 0.3)
            sigma = rng.uniform(-5, 5)
            M = int(rng.choice([2, 3, 5]))
            j = int(rng.integers(1, 4))
            params = ModelParams(lam, M, 1, 4)
            sum_form = exp_minus_v(params, j, sigma)
            prod_form = _w_product(params, j, sigma) + 1.0
            assert abs(sum_form - prod_form) <= 1e-12 * abs(sum_form)

    @given(st.floats(-1, 1), st.floats(-5, 5), st.integers(1, 4))
    @settings(max_examples=200)
    def test_exp_modulus_bounded_for_real_coupling(self, lam, sigma, j):
        params = ModelParams(lam, 2, 1, 4)
        assert abs(exp_minus_v(params, j, sigma)) <= 1.0 + 1e-14

    @pytest.mark.parametrize("z", [1e-9j, 0.3 - 0.2j, -0.49, 0.8 + 0.1j, -3.0])
    def test_cexpm1(self, z):
        # relative accuracy on both sides of its |z| = 0.5 switch
        with mp.workdps(30):
            ref = complex(mp.expm1(mp.mpc(z)))
        assert abs(numerics.cexpm1(z) - ref) <= 1e-15 * abs(ref)

    def test_pole_raises(self):
        params = ModelParams(1.0, 2, 1, 1)
        with pytest.raises(DomainError):
            v_kernel(params, 1, -1j)  # 1 - i lam sigma / p = 0 at p = 1
        with pytest.raises(DomainError):
            dv_derivative(params, 1, 1, -1j)


class TestDerivatives:
    params = ModelParams(0.4, 2, 1, 3)

    def test_dv1_at_zero(self):
        assert dv_derivative(self.params, 2, 1, 0.0) == 0

    def test_dv2_at_zero_closed_form(self):
        for j in (1, 2, 3):
            sl = self.params.slice_set(j)
            expect = -(0.4**2) * sum(p**-2.0 for p in range(sl.lo, sl.hi + 1))
            assert dv_derivative(self.params, j, 2, 0.0) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.2, -1.3, 0.9])
    def test_dv_matches_finite_differences(self, k, sigma):
        # d^k(-V) against a central difference of d^(k-1)(-V)
        j = 1
        if k == 1:
            f = lambda s: -v_kernel(self.params, j, s)
        else:
            f = lambda s: dv_derivative(self.params, j, k - 1, s)
        fd = central_diff(f, sigma, 1e-5)
        val = dv_derivative(self.params, j, k, sigma)
        assert abs(val - fd) <= 1e-6 * max(abs(val), 1e-12)

    def test_dv1_complex_step(self):
        # complex-step oracle on Re(-V), which is real-valued for real
        # coupling: Re(-V)(s) = -1/2 sum_p log(1 + (lam s / p)^2)
        j, sigma, h = 2, 0.7, 1e-100
        lam = self.params.lam.real
        sl = self.params.slice_set(j)

        def re_minus_v(z):
            return -0.5 * sum(cmath.log(1.0 + (lam * z / p) ** 2) for p in range(sl.lo, sl.hi + 1))

        cs = re_minus_v(sigma + 1j * h).imag / h
        val = dv_derivative(self.params, j, 1, sigma)
        assert val.real == pytest.approx(cs, rel=1e-12)

    def test_dw_zeroth(self):
        assert dw_derivative(self.params, 2, 0, 0.55) == w_kernel(self.params, 2, 0.55)

    def test_dw1_at_zero(self):
        assert dw_derivative(self.params, 2, 1, 0.0) == 0

    def test_dw2_at_zero(self):
        for j in (1, 2, 3):
            sl = self.params.slice_set(j)
            expect = -(0.4**2) * sum(p**-2.0 for p in range(sl.lo, sl.hi + 1))
            assert dw_derivative(self.params, j, 2, 0.0) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_dw_matches_finite_differences(self, q):
        j, sigma = 2, 0.45
        if q == 1:
            f = lambda s: w_kernel(self.params, j, s)
        else:
            f = lambda s: dw_derivative(self.params, j, q - 1, s)
        fd = central_diff(f, sigma, 1e-5)
        val = dw_derivative(self.params, j, q, sigma)
        assert abs(val - fd) <= 1e-5 * max(abs(val), 1e-10)


class TestFaaDiBruno:
    def test_partition_counts(self):
        # number of integer partitions of d
        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
        for d, count in enumerate(expected, start=1):
            assert len(partition_multiplicities(d)) == count

    def test_weight_sum_is_bell_number(self):
        # sum over partitions of q of q!/prod(m_k!(k!)^m_k) counts set partitions
        for q, bell in enumerate([1, 2, 5, 15, 52, 203, 877], start=1):
            assert sum(faa_di_bruno_weight(m) for m in partition_multiplicities(q)) == bell

    def test_partition_weight_identity_exact(self):
        for d in range(1, 13):
            assert partition_weight_sum(d) == Fraction(1)


class TestInversePowerSums:
    @pytest.mark.parametrize("lo, hi", [(1, 99), (16, 255), (64, 127), (128, 255), (2048, 4095)])
    def test_against_mpmath(self, lo, hi):
        # past k = 20 on [64, 127] the eight Bernoulli terms at a = 64 bound
        # the accuracy; those u_k enter the series below 2^-19 of its lead
        with mp.workdps(60):
            for k in range(2, 71):
                ref = mp.fsum(mp.mpf(p) ** -k for p in range(lo, hi + 1))
                err = abs(numerics._inverse_power_sum(lo, hi, k) - ref) / ref
                assert err <= (1e-15 if k <= 20 else 2e-13), k

    def test_series_terms_bound(self):
        # with |x| <= s/2, term m of the k-th x-derivative of the tail series
        # is at most C(m-1, k-1) 2^(m0-m) of the leading term m0 = max(k, 2)
        for k in range(1, 41):
            top = numerics._SERIES_TOP + numerics._POWERS_PER_ORDER * (k - 1)
            m0 = max(k, 2)
            terms = (math.comb(m - 1, k - 1) / (math.comb(m0 - 1, k - 1) * 2 ** (m - m0)) for m in range(top + 1, top + 500))
            assert math.fsum(terms) <= 2.0**-55, k


class TestGridRoutes:
    def test_grid_matches_scalar(self, rng):
        sigma = rng.normal(scale=3.0, size=40)
        for lam in (0.31, 0.2 + 0.1j):
            params = ModelParams(lam, 2, 1, 3)
            for j in (1, 2, 3):
                ref_e = np.array([exp_minus_v(params, j, s) for s in sigma])
                sl = params.slice_set(j)
                got_e = 1.0 + numerics.kernel_bundle(complex(lam), sl.lo, sl.hi, 0, sigma)[0]
                assert np.abs(got_e - ref_e).max() < 1e-13
                for q in (0, 1, 2, 3):
                    ref = np.array([dw_derivative(params, j, q, s) for s in sigma])
                    got = dw_grid(params, j, q, sigma)
                    assert np.abs(got - ref).max() < 5e-13

    @pytest.mark.parametrize("lam", [0.25, 0.2 + 0.1j])
    def test_closed_form_route_matches_scalar(self, lam, rng):
        # slice long enough to take the -V series and its termwise derivatives
        params = ModelParams(lam, 2, 1, 8)
        sigma = rng.normal(scale=2.0, size=12)
        j = 8  # window [128, 255], above the direct-sum limit
        sl = params.slice_set(j)
        w, dv = numerics.kernel_bundle(complex(lam), sl.lo, sl.hi, 3, sigma)
        for k in (1, 2, 3):
            ref = np.array([dv_derivative(params, j, k, s) for s in sigma])
            assert np.abs(dv[k] - ref).max() <= 1e-10 * np.abs(ref).max()
        ref_e = np.array([exp_minus_v(params, j, s) for s in sigma])
        assert np.abs(1.0 + w - ref_e).max() < 1e-12

    def test_head_covering_the_whole_window(self):
        # at lam = 1e5 the head of [16, 255] reaches past its last index
        # for sigma != 0: there is no tail, and W is the swept product
        sigma = np.array([0.0, 1.0, 12.0])
        w, dv = numerics.kernel_bundle(1e5, 16, 255, 1, sigma)
        with mp.workdps(30):
            xs = [1j * mp.mpf(1e5) * mp.mpf(float(s)) for s in sigma]
            ref = [complex(mp.fprod(mp.exp(-x / p) / (1 - x / p) for p in range(16, 256)) - 1) for x in xs]
        assert np.abs(w - ref).max() <= 1e-15
        assert np.all(np.isfinite(dv[1]))

    def test_closed_form_route_left_of_the_imaginary_axis(self):
        # window [1, 99] is long; at this coupling 1 - i lam sigma has Re < 0
        # for sigma < -10, where the first indices fall in the swept head
        lam = 0.15 + 0.1j
        params = ModelParams(lam, 100, 1, 1)
        sigma = np.array([-12.0, -11.0, -10.5, -8.0, 3.0])
        _, dv = numerics.kernel_bundle(lam, 1, 99, 3, sigma)
        for k in (1, 2, 3):
            ref = np.array([dv_derivative(params, 1, k, s) for s in sigma])
            assert np.abs(dv[k] - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("lam", [0.3, 0.15 + 0.1j])
    def test_first_slice_at_base_100_against_mpmath(self, lam):
        # window [1, 99] is long, and on most of the grid |lam sigma| is
        # past half its first index: the head of the window is swept and
        # the rest summed as the -V series
        params = ModelParams(lam, 100, 1, 1)
        sigma = SIGMA_GRID[::12]
        for q in range(4):
            ref = _mp_dw_product(lam, 1, 99, q, sigma)
            got = dw_grid(params, 1, q, sigma)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("lam, M, j", [(0.3, 16, 2), (0.2 + 0.1j, 16, 2), (0.25, 2, 8)])
    def test_tail_window_against_mpmath(self, lam, M, j):
        # on [16, 255] and [128, 255], 2 |lam sigma| stays below the first
        # index on the whole grid: the window is all tail, and d^q W comes
        # from the -V series and its termwise derivatives alone
        sl = slice_range(M, j)
        assert 2.0 * abs(lam) * np.abs(SIGMA_GRID).max() < sl.lo
        sigma = SIGMA_GRID[::12]
        for q in range(4):
            ref = _mp_dw_product(lam, sl.lo, sl.hi, q, sigma)
            got = dw_grid(ModelParams(lam, M, j, j), j, q, sigma)
            assert np.abs(got - ref).max() <= 2e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("lam", [0.5, 0.3 + 0.1j])
    @pytest.mark.parametrize("M, j", [(10, 5), (10, 3), (16, 2)])
    def test_long_window_kernel_against_mpmath(self, lam, M, j):
        # 40-digit reference from Hurwitz zeta values:
        # -V = sum_(k>=2) (i lam sigma)^k / k * (zeta(k, lo) - zeta(k, hi + 1)),
        # convergent here since |lam sigma| <= 6 < lo
        import mpmath as mp

        sl = slice_range(M, j)
        sigma = np.array([0.3, 1.0, 3.0, 6.0, 12.0])
        got = dw_grid(ModelParams(lam, M, j, j), j, 0, sigma)
        with mp.workdps(40):
            u = {k: mp.zeta(k, sl.lo) - mp.zeta(k, sl.hi + 1) for k in range(2, 122)}
            for s, value in zip(sigma, got):
                x = 1j * mp.mpc(lam) * s
                ref = complex(mp.expm1(mp.fsum(x**k * u[k] / k for k in u)))
                assert abs(value - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("lam", [0.5, 0.3 + 0.1j])
    @pytest.mark.parametrize("M, j", [(10, 5), (10, 3), (16, 2)])
    def test_long_window_first_derivative_against_mpmath(self, lam, M, j):
        # d/dsigma W = exp(-V) d(-V)/dsigma, with the series of the kernel
        # test differentiated: d(-V)/dsigma = i lam sum_(k>=2) u_k (i lam sigma)^(k-1)
        import mpmath as mp

        sl = slice_range(M, j)
        sigma = np.array([0.05, 0.1, 0.3, 1.0, 3.0, 6.0, 12.0])
        got = dw_grid(ModelParams(lam, M, j, j), j, 1, sigma)
        with mp.workdps(40):
            u = {k: mp.zeta(k, sl.lo) - mp.zeta(k, sl.hi + 1) for k in range(2, 122)}
            for s, value in zip(sigma, got):
                ilam = 1j * mp.mpc(lam)
                x = ilam * s
                minus_v = mp.fsum(x**k * u[k] / k for k in u)
                ref = complex(mp.exp(minus_v) * ilam * mp.fsum(x ** (k - 1) * u[k] for k in u))
                assert abs(value - ref) <= 1e-12 * abs(ref)
