import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_diff
from mlve.errors import DomainError
from mlve.model_core import (
    ModelParams,
    dv_derivative,
    dv_grid,
    dw_derivative,
    dw_grid,
    exp_minus_v,
    exp_minus_v_grid,
    faa_di_bruno_weight,
    log2m,
    partition_multiplicities,
    partition_weight_sum,
    power_sum,
    self_loop_sum,
    slice_range,
    v_kernel,
    w_kernel,
    w_kernel_product,
)


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
        assert len(s) == 2**3 - 2**2

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
            seen.extend(params.slice_set(j))
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
        assert self_loop_sum(1) == 1.0
        assert self_loop_sum(3) == pytest.approx(11 / 6, abs=1e-15)

    def test_self_loop_log_growth(self):
        n = 10**6
        assert abs(self_loop_sum(n) - math.log(n)) < 1.0

    def test_power_sum_single(self):
        params = ModelParams(0.1, 2, 1, 3)
        assert power_sum(params, 1, 2.0) == 1.0

    def test_power_sum_base_ten(self):
        params = ModelParams(0.1, 10, 1, 2)
        exact = float(sum(Fraction(1, p * p) for p in range(10, 100)))
        val = power_sum(params, 2, 2.0)
        assert val == pytest.approx(exact, rel=1e-14)
        assert val <= 10**2 / 10**2  # stated bound M^j / M^(t(j-1))

    @pytest.mark.parametrize("M,j,t", [(2, 1, 2.0), (2, 3, 2.0), (10, 2, 3.0), (3, 2, 1.0)])
    def test_power_sum_bound(self, M, j, t):
        params = ModelParams(0.1, M, 1, j)
        assert power_sum(params, j, t) <= M**j / M ** (t * (j - 1)) + 1e-12

    def test_power_sum_t1_at_most_m(self):
        params = ModelParams(0.1, 5, 1, 4)
        for j in params.slices:
            assert power_sum(params, j, 1.0) <= 5.0


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
        b = w_kernel_product(params, 2, 0.7)
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
            prod_form = w_kernel_product(params, j, sigma) + 1.0
            assert abs(sum_form - prod_form) <= 1e-12 * abs(sum_form)

    @given(st.floats(-1, 1), st.floats(-5, 5), st.integers(1, 4))
    @settings(max_examples=200)
    def test_exp_modulus_bounded_for_real_coupling(self, lam, sigma, j):
        params = ModelParams(lam, 2, 1, 4)
        assert abs(exp_minus_v(params, j, sigma)) <= 1.0 + 1e-14

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
            expect = -(0.4**2) * power_sum(self.params, j, 2.0)
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

        def re_minus_v(z):
            return -0.5 * sum(
                cmath.log(1.0 + (lam * z / p) ** 2) for p in self.params.slice_set(j)
            )

        cs = re_minus_v(sigma + 1j * h).imag / h
        val = dv_derivative(self.params, j, 1, sigma)
        assert val.real == pytest.approx(cs, rel=1e-12)

    def test_dw_zeroth(self):
        assert dw_derivative(self.params, 2, 0, 0.55) == w_kernel(self.params, 2, 0.55)

    def test_dw1_at_zero(self):
        assert dw_derivative(self.params, 2, 1, 0.0) == 0

    def test_dw2_at_zero(self):
        for j in (1, 2, 3):
            expect = -(0.4**2) * power_sum(self.params, j, 2.0)
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
        from mlve.combinatorics import enumerate_set_partitions

        for q in range(1, 8):
            total = sum(faa_di_bruno_weight(m) for m in partition_multiplicities(q))
            bell = sum(1 for _ in enumerate_set_partitions(q))
            assert total == bell

    def test_partition_weight_identity_exact(self):
        for d in range(1, 13):
            assert partition_weight_sum(d) == Fraction(1)


class TestGridRoutes:
    def test_grid_matches_scalar(self, rng):
        sigma = rng.normal(scale=3.0, size=40)
        for lam in (0.31, 0.2 + 0.1j):
            params = ModelParams(lam, 2, 1, 3)
            for j in (1, 2, 3):
                ref_e = np.array([exp_minus_v(params, j, s) for s in sigma])
                assert np.abs(exp_minus_v_grid(params, j, sigma) - ref_e).max() < 1e-13
                for q in (0, 1, 2, 3):
                    ref = np.array([dw_derivative(params, j, q, s) for s in sigma])
                    got = dw_grid(params, j, q, sigma)
                    assert np.abs(got - ref).max() < 5e-13

    @pytest.mark.parametrize("lam", [0.25, 0.2 + 0.1j])
    def test_closed_form_route_matches_scalar(self, lam, rng):
        # slice long enough to trigger the gamma-function route
        params = ModelParams(lam, 2, 1, 8)
        sigma = rng.normal(scale=2.0, size=12)
        j = 8  # window [128, 255], above the direct-sum limit
        for k in (1, 2, 3):
            ref = np.array([dv_derivative(params, j, k, s) for s in sigma])
            got = dv_grid(params, j, k, sigma)
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
        ref_e = np.array([exp_minus_v(params, j, s) for s in sigma])
        assert np.abs(exp_minus_v_grid(params, j, sigma) - ref_e).max() < 1e-12

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
