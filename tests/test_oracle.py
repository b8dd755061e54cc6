import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from mlve import numerics
from mlve.errors import QuadratureUnreliableError
from mlve.model_core import ModelParams
from mlve.oracle import (
    gauss_hermite_norm,
    logz_oracle,
    logz_series_g,
    perturbative_coefficients,
    z_reliable,
    z_sigma_quadrature,
)


class TestGaussHermiteRule:
    @pytest.mark.parametrize("nodes", [50, 200, 400, 800])
    def test_matches_scipy(self, nodes):
        from scipy.special import roots_hermitenorm

        x, w = gauss_hermite_norm(nodes)
        ref_x, ref_w = roots_hermitenorm(nodes)
        assert np.abs(x - ref_x).max() < 1e-13
        assert np.abs(w - ref_w / math.sqrt(2.0 * math.pi)).max() < 1e-14

    @pytest.mark.parametrize("nodes", [50, 200, 400, 800])
    def test_even_moments_and_symmetry(self, nodes):
        x, w = gauss_hermite_norm(nodes)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        for m in range(1, 11):
            double_factorial = math.prod(range(1, 2 * m, 2))  # E[x^(2m)] under N(0, 1)
            assert abs(np.sum(w * x ** (2 * m)) - double_factorial) <= 1e-12 * double_factorial


class TestPartitionFunction:
    def test_free_value(self):
        z = z_sigma_quadrature(ModelParams(0.0, 2, 1, 3), 200)
        assert z == pytest.approx(1.0, abs=1e-13)

    def test_real_coupling_real_z(self):
        z = z_sigma_quadrature(ModelParams(0.2, 2, 1, 3), 200)
        assert abs(z.imag) < 1e-12

    def test_slice_factorization_identity(self):
        # the slice product that z_sigma_quadrature integrates against 1 + W
        # over the full window; the last two cases integrate a long full
        # window against slices on both sides of the direct-sum limit
        x, w = gauss_hermite_norm(300)
        cases = [
            (0.2, 2, 1, 3),
            (0.4, 3, 2, 4),
            (0.3 + 0.1j, 2, 1, 4),
            (0.5, 10, 1, 3),
            (0.25 - 0.08j, 16, 1, 2),
        ]
        for lam, M, jmin, jmax in cases:
            params = ModelParams(lam, M, jmin, jmax)
            full = 1.0 + numerics.kernel_bundle(lam, params.p_lo, params.cutoff, 0, x)[0]
            assert abs(complex(np.sum(w * full)) - z_sigma_quadrature(params, 300)) < 1e-12

    @pytest.mark.parametrize("lam, M, j_max", [(0.5, 10, 6), (0.3, 100, 3), (0.45 + 0.2j, 100, 2)])
    def test_matches_mpmath_full_window(self, lam, M, j_max):
        # the same Gauss-Hermite sum, with -V over the whole window
        # [lo, hi] at 30 digits: z H + log Gamma(hi + 1) - log Gamma(lo)
        # - log Gamma(hi + 1 + z) + log Gamma(lo + z), z = -i lam sigma
        params = ModelParams(lam, M, 1, j_max)
        x, w = gauss_hermite_norm(400)
        lo, hi = params.p_lo, params.cutoff
        with mp.workdps(30):
            h = mp.psi(0, hi + 1) - mp.psi(0, lo)
            const = mp.loggamma(hi + 1) - mp.loggamma(lo)
            ref = mp.mpc(0)
            for xk, wk in zip(x, w):
                z = -1j * mp.mpc(lam) * mp.mpf(xk)
                ref += mp.mpf(wk) * mp.exp(z * h + const - mp.loggamma(hi + 1 + z) + mp.loggamma(lo + z))
        assert abs(z_sigma_quadrature(params, 400) - complex(ref)) < 1e-15

    def test_node_doubling_stability(self):
        assert z_reliable(ModelParams(0.2, 2, 1, 3), 200)[1] < 1e-10
        assert z_reliable(ModelParams(0.5, 10, 1, 3), 300)[1] < 1e-10

    def test_minimum_nodes(self):
        with pytest.raises(ValueError):
            z_sigma_quadrature(ModelParams(0.2, 2, 1, 3), 10)

    def test_unreliable_reported(self):
        params = ModelParams(5.0, 2, 1, 3)
        _, delta, ok = z_reliable(params, 50)
        assert not ok and delta > 1e-10
        with pytest.raises(QuadratureUnreliableError):
            logz_oracle(params, 50)

    def test_no_zero_crossing_at_desk_scale(self):
        # |Z| stays away from 0 for real couplings up to 0.5, N up to ~10^3
        values = []
        for lam in np.linspace(0.0, 0.5, 6):
            for M, jmin, jmax in [(2, 1, 3), (10, 1, 3), (2, 1, 10)]:
                z = z_sigma_quadrature(ModelParams(float(lam), M, jmin, jmax), 300)
                values.append(abs(z))
        assert min(values) > 0.5


class TestLogOracle:
    def test_zero_coupling(self):
        assert logz_oracle(ModelParams(0.0, 2, 1, 3)) == 0

    def test_reference_point(self):
        val = logz_oracle(ModelParams(0.2, 2, 1, 3))
        assert val.real == pytest.approx(-0.02836435349833546, abs=1e-12)
        assert abs(val.imag) < 1e-12

    @pytest.mark.parametrize("lam", [0.01, 1e-300])
    def test_small_coupling_against_mpmath_quad(self, lam):
        # the rule's weights sum to 1 only up to a few ulps; Z = 1 plus the
        # integral of prod_j (1 + W_j) - 1 keeps them out of log Z
        params = ModelParams(lam, 2, 1, 3)
        lo, hi = params.p_lo, params.cutoff
        with mp.workdps(30):
            ilam = 1j * mp.mpc(lam)
            h = mp.fsum(1 / mp.mpf(p) for p in range(lo, hi + 1))

            def integrand(s):
                return mp.exp(-s * s / 2 - ilam * s * h) / mp.fprod(1 - ilam * s / p for p in range(lo, hi + 1))

            ref = complex(mp.log(mp.quad(integrand, [-mp.inf, 0, mp.inf]) / mp.sqrt(2 * mp.pi)))
        assert abs(logz_oracle(params) - ref) <= 1e-16

    def test_complex_coupling_inside_domain(self):
        lam = 0.3 * cmath.exp(1j * math.pi / 8)
        params = ModelParams(lam, 2, 1, 3)
        assert z_reliable(params, 200)[1] < 1e-10
        val = logz_oracle(params)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_scan_continuity(self):
        lams = [0.05 * k * cmath.exp(1j * math.pi / 10) for k in range(1, 9)]
        # log Z along the path, each branch chosen next to its predecessor's
        # (log Z -> 0 as lambda -> 0, so the principal branch starts the path)
        vals, prev = [], 0j
        for lam in lams:
            z, _, ok = z_reliable(ModelParams(lam, 2, 1, 3))
            assert ok
            val = cmath.log(z)
            val += 2j * math.pi * round((prev.imag - val.imag) / (2.0 * math.pi))
            vals.append(val)
            prev = val
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert max(diffs) < 0.1


class TestPerturbativeSeries:
    def test_degenerate_window(self):
        assert logz_series_g(5, 4, 3) == [0, 0, 0]

    def test_coefficients_depend_only_on_window(self):
        a = perturbative_coefficients(ModelParams(0.2, 2, 1, 3), 3)
        b = perturbative_coefficients(ModelParams(0.9, 8, 1, 1), 3)  # same window [1,7]
        assert a == b

    def test_order_budget(self):
        with pytest.raises(ValueError):
            perturbative_coefficients(ModelParams(0.2, 2, 1, 3), 7)

    def test_against_finite_differences(self):
        # double-precision fit over a small-g ladder resolves c_1..c_3
        params = ModelParams(0.2, 2, 1, 3)
        coeffs = perturbative_coefficients(params, 4)
        g_max, npts = 8e-3, 16
        gs = np.linspace(g_max / npts, g_max, npts)
        vals = np.array([logz_oracle(ModelParams(math.sqrt(g), 2, 1, 3), 400).real for g in gs])
        A = np.vander(gs / g_max, 7, increasing=True)[:, 1:]
        fit, *_ = np.linalg.lstsq(A, vals, rcond=None)
        for k in range(3):
            assert fit[k] / g_max ** (k + 1) == pytest.approx(coeffs[k].real, rel=1e-4)

    def test_against_high_precision_quadrature(self):
        # independent 30-digit quadrature of the same integral; an exact
        # interpolation through six small couplings pins all four
        # coefficients to well under the 1e-4 tolerance
        import mpmath as mp

        coeffs = perturbative_coefficients(ModelParams(0.2, 2, 1, 3), 4)
        with mp.workdps(30):

            def logz_mp(g):
                lam = mp.sqrt(g)

                def integrand(s):
                    val = mp.mpf(1)
                    for p in range(1, 8):
                        x = 1j * lam * s / p
                        val *= mp.e ** (-x) / (1 - x)
                    return val * mp.e ** (-s * s / 2) / mp.sqrt(2 * mp.pi)

                return mp.log(mp.quad(integrand, [-mp.inf, mp.inf])).real

            gs = [mp.mpf(k + 1) / 3000 for k in range(6)]
            vals = [logz_mp(g) for g in gs]
            A = mp.matrix(6, 6)
            for i, g in enumerate(gs):
                for k in range(6):
                    A[i, k] = g ** (k + 1)
            sol = mp.lu_solve(A, mp.matrix(vals))
        for k in range(4):
            assert float(sol[k]) == pytest.approx(coeffs[k].real, rel=1e-4)

    def test_partial_sums_approach_oracle(self):
        params = ModelParams(0.2, 2, 1, 3)
        coeffs = perturbative_coefficients(params, 4)
        g = params.lam**2
        ref = logz_oracle(params).real
        errs = []
        for order in range(1, 5):
            approx = sum(coeffs[k].real * g ** (k + 1) for k in range(order))
            errs.append(abs(approx - ref))
        assert errs[-1] < errs[0]
        assert errs[-1] < 1e-4

    def test_exact_first_coefficient(self):
        # c_1 = -1/2 sum_{p,q <= N} 1/(pq) ... computed independently below.
        # From the g-expansion of the integrand: the order-g term of log Z is
        # E[-V]|_(g) which for the window [1, N] is -g/2 * sum_p 1/p^2 ... plus
        # the quartic cross terms; instead of re-deriving, compare against a
        # direct series of E[exp(-V)] built from scratch with numpy Gaussians.
        from fractions import Fraction

        # independent route: moments of the exponent built symbolically in z
        lo, hi, order = 1, 7, 3
        zmax = 2 * order
        u = {k: sum(Fraction(1, p**k) for p in range(lo, hi + 1)) for k in range(2, zmax + 1)}
        # exp series coefficients via direct convolution powers
        series = [Fraction(0)] * (zmax + 1)
        series[0] = Fraction(1)
        base = [Fraction(0)] * (zmax + 1)
        for k in range(2, zmax + 1):
            base[k] = u[k] / k
        power = [Fraction(1)] + [Fraction(0)] * zmax
        fact = 1
        for m in range(1, zmax + 1):
            nxt = [Fraction(0)] * (zmax + 1)
            for i in range(zmax + 1):
                if power[i] == 0:
                    continue
                for jj in range(zmax + 1 - i):
                    nxt[i + jj] += power[i] * base[jj]
            power = nxt
            fact *= m
            for i in range(zmax + 1):
                series[i] += power[i] / fact
        dfact = lambda m: math.factorial(2 * m) // (2**m * math.factorial(m))
        z_coeffs = [series[2 * m] * Fraction((-1) ** m) * dfact(m) for m in range(order + 1)]
        # log of 1 + sum_{m>=1} z_m g^m, order by order
        c1 = z_coeffs[1]
        c2 = z_coeffs[2] - z_coeffs[1] ** 2 / 2
        got = logz_series_g(lo, hi, 2)
        assert got[0] == c1 and got[1] == c2
