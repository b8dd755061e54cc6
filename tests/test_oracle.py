import cmath
import importlib.util
import math
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conftest import (
    _series_exp,
    _series_log1p,
    kernel_slice,
    logz_series_g,
    perturbative_coefficients,
    z_sigma_quadrature,
)
from mlve import numerics
from mlve.errors import QuadratureUnreliableError
from mlve.model_core import ModelParams, slice_range
from mlve.oracle import (
    DOUBLING_TOL,
    PRUNE,
    _integrand_m1,
    _outer_cuts,
    gauss_hermite_norm,
    growth_rate,
    kept_rules,
    logz_oracle,
    z_reliable,
)


def rule_z(params, x, w):
    """Z of one rule (x, w) integrated alone, as conftest.z_sigma_quadrature
    integrates a whole Gauss-Hermite rule."""
    return 1.0 + complex(np.sum(w * _integrand_m1(params, x)))


def whole_rule_z_reliable(params, nodes):
    """z_reliable as it was before it left nodes out: one joint sweep over
    both whole rules."""
    if params.lam == 0:
        return 1.0 + 0.0j, 0.0, True
    x_a, w_a = gauss_hermite_norm(nodes)
    x_b, w_b = gauss_hermite_norm(2 * nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        acc = _integrand_m1(params, np.concatenate((x_a, x_b)))
        a = 1.0 + complex(np.sum(w_a * acc[:nodes]))
        b = 1.0 + complex(np.sum(w_b * acc[nodes:]))
    delta = abs(a - b)
    return b, delta, delta < DOUBLING_TOL


@lru_cache(maxsize=None)
def mpmath_full_window_z(lam, M, j_max):
    """The whole 400-node Gauss-Hermite sum with -V over the whole window
    [lo, hi] at 30 digits: z H + log Gamma(hi + 1) - log Gamma(lo)
    - log Gamma(hi + 1 + z) + log Gamma(lo + z), z = -i lam sigma.  Like
    the oracle it sums w (f - 1) and adds 1, so a distance to it does not
    measure 1 - sum w."""
    params = ModelParams(lam, M, 1, j_max)
    x, w = gauss_hermite_norm(400)
    lo, hi = params.p_lo, params.cutoff
    with mp.workdps(30):
        h = mp.psi(0, hi + 1) - mp.psi(0, lo)
        const = mp.loggamma(hi + 1) - mp.loggamma(lo)
        ref = mp.mpc(0)
        for xk, wk in zip(x, w):
            z = -1j * mp.mpc(lam) * mp.mpf(xk)
            ref += mp.mpf(wk) * (mp.exp(z * h + const - mp.loggamma(hi + 1 + z) + mp.loggamma(lo + z)) - 1)
        ref += 1
    return complex(ref)


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
        # prod_j (1 + W_j) - 1, built as acc + W_j + acc W_j over the slices'
        # rows of one kernel call, integrates to the oracle's full-window Z;
        # the last two cases integrate a long full window against slices on
        # both sides of the direct-sum limit
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
            windows = [(sl.lo, sl.hi) for sl in map(params.slice_set, params.slices)]
            acc = np.zeros_like(x, dtype=complex)
            for wj in numerics.kernel_bundle(lam, windows, 0, x)[0]:
                acc += wj + acc * wj
            assert abs(1.0 + complex(np.sum(w * acc)) - z_sigma_quadrature(params, 300)) < 1e-12

    @pytest.mark.parametrize("lam, M, j_max", [(0.5, 10, 6), (0.3, 100, 3), (0.45 + 0.2j, 100, 2)])
    def test_matches_mpmath_full_window(self, lam, M, j_max):
        # the same whole-rule Gauss-Hermite sum, with -V over the whole window
        params = ModelParams(lam, M, 1, j_max)
        assert abs(z_sigma_quadrature(params, 400) - mpmath_full_window_z(lam, M, j_max)) <= np.spacing(1.0)

    @pytest.mark.parametrize("lam, M, j_max", [(0.5, 10, 6), (0.3, 100, 3), (0.45 + 0.2j, 100, 2)])
    def test_kept_rules_match_mpmath_full_window(self, lam, M, j_max):
        # the nodes the oracle leaves out do not move Z off the whole rule's
        z = z_reliable(ModelParams(lam, M, 1, j_max), 200)[0]
        assert abs(z - mpmath_full_window_z(lam, M, j_max)) <= np.spacing(1.0)

    @pytest.mark.parametrize(
        "lam, M, j_max",
        [(0.5, 10, 6), (0.3, 100, 3), (0.45 + 0.2j, 100, 2), (0.25 - 0.08j, 16, 2), (0.0, 2, 3)],
        ids=["real-M10", "real-M100", "complex-M100", "complex-long-slice", "free"],
    )
    def test_doubling_shares_one_sweep(self, lam, M, j_max):
        # both kept rules take one sweep of the full window; the doubled
        # rule holds the largest node, so its long-window split and its Z are
        # those of its own kept rule, while the smaller rule's Z moves at
        # rounding.  The whole doubled rule stays the independent reference
        params = ModelParams(lam, M, 1, j_max)
        z, delta, _ = z_reliable(params, 200)
        a, b = (rule_z(params, x, w) for x, w in kept_rules(params, 200))
        assert z == b
        assert abs(delta - abs(a - b)) <= 1e-16
        assert abs(z - z_sigma_quadrature(params, 400)) <= np.spacing(1.0)

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


class TestKeptRules:
    CONFIGS = [(0.5, 10, 6), (0.3, 100, 3), (0.45 + 0.2j, 100, 2), (0.25 - 0.08j, 16, 2), (-0.26 + 0.07j, 16, 2), (0.3 - 0.02j, 10**8, 2)]
    IDS = ["real-M10", "real-M100", "complex-M100", "complex-long-slice", "scan", "all-tail"]

    @pytest.mark.parametrize("lam, M, j_max", CONFIGS, ids=IDS)
    @pytest.mark.parametrize("nodes", [100, 200])
    def test_left_out_nodes_move_z_below_prune(self, lam, M, j_max, nodes):
        # each rule leaves out the same number of nodes at both ends, whose
        # weights times the integrand bound sum to less than PRUNE, and the
        # doubled rule keeps a node as far out as any the other keeps
        params = ModelParams(lam, M, 1, j_max)
        rate = growth_rate(lam, params.p_lo, params.cutoff)
        kept = kept_rules(params, nodes)
        for (x, w), (x_kept, w_kept) in zip((gauss_hermite_norm(nodes), gauss_hermite_norm(2 * nodes)), kept):
            cut = (len(x) - len(x_kept)) // 2
            assert cut > 0
            assert np.array_equal(x_kept, x[cut : len(x) - cut]) and np.array_equal(w_kept, w[cut : len(x) - cut])
            out = np.r_[: cut, len(x) - cut : len(x)]
            assert math.fsum(w[out] * (1.0 + np.exp(rate * np.abs(x[out])))) < PRUNE
        assert kept[1][0][-1] >= kept[0][0][-1]

    @pytest.mark.parametrize("lam", [0.2, -0.4, 0.05])
    def test_real_coupling_keeps_im_log_z_at_rounding(self, lam):
        # the kept rules stay mirror-symmetric
        params = ModelParams(lam, 16, 1, 2)
        for x, w in kept_rules(params, 200):
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert abs(cmath.log(z_reliable(params, 200)[0]).imag) <= np.spacing(1.0)

    @pytest.mark.parametrize(
        "lam, windows",
        [(0.0, [(2, 3), (3, 600), (10**8, 2)])] + [(lam, [(2, 3)]) for lam in (0.5j, 0.2 + 0.5j, 0.5 * cmath.exp(0.9j))],
        ids=["zero", "0.5i", "0.2+0.5i", "phase-0.9"],
    )
    def test_no_rate_sweeps_whole_rules(self, lam, windows):
        # where |Re lam| <= |Im lam| no node is left out, and Z, the delta
        # and the verdict are bit for bit those of the whole rules; the free
        # theory's sweep gives exactly (1+0j, 0.0, True), on long windows
        # and at large M too
        for M, j_max in windows:
            params = ModelParams(lam, M, 1, j_max)
            for (x, w), (x_kept, w_kept) in zip((gauss_hermite_norm(200), gauss_hermite_norm(400)), kept_rules(params, 200)):
                assert np.array_equal(x_kept, x) and np.array_equal(w_kept, w)
            assert repr(z_reliable(params, 200)) == repr(whole_rule_z_reliable(params, 200))

    def test_cut_cache_is_bounded(self):
        # a scan over complex couplings adds one key per rate; the cache
        # keeps at most its bound, and every cut it returns is the one
        # computed afresh
        _outer_cuts.cache_clear()
        lams = set(0.3 * np.exp(1j * np.random.default_rng(41).uniform(-0.7, 0.7, 2000)))
        assert len(lams) == 2000
        rates = set()
        for lam in lams:
            params = ModelParams(complex(lam), 16, 1, 2)
            kept_rules(params, 50)
            rates.add(growth_rate(params.lam, params.p_lo, params.cutoff))
        info = _outer_cuts.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize < len(rates)
        assert all(_outer_cuts(50, rate) == _outer_cuts.__wrapped__(50, rate) for rate in rates)

    def test_repeat_complex_coupling_hits_the_cut_cache(self):
        # the benchmark scan's complex couplings: a second quadrature at
        # each reads its cuts from the cache
        spec = importlib.util.spec_from_file_location("workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        configs = [cfg for cfg in workloads.configs("scan-order2-wide", 1) if cfg["lambda"][1] != 0]
        assert len(configs) == 3
        for cfg in configs:
            params = ModelParams(complex(*cfg["lambda"]), cfg["M"], cfg["j_min"], cfg["j_max"])
            first = z_reliable(params)
            hits = _outer_cuts.cache_info().hits
            assert repr(z_reliable(params)) == repr(first)
            assert _outer_cuts.cache_info().hits == hits + 1


class TestGrowthRate:
    # slice windows at |sigma| <= 60 and |lam| <= 10 on the three kernel
    # routes: short ([1, 1], [4, 7], [1, 99]), a head with or without a tail
    # ([16, 255], [1000, 999999]) and all tail ([10^8, 10^16 - 1], [2^59, 2^60 - 1])
    WINDOWS = [slice_range(M, j) for M, j in [(2, 1), (2, 3), (100, 1), (16, 2), (1000, 2), (10**8, 2), (2, 60)]]

    @staticmethod
    def route(lam, sl, reach_sigma):
        if sl.hi - sl.lo + 1 <= numerics.DIRECT_SUM_LIMIT:
            return "short"
        split = math.ceil(2.0 * abs(lam) * reach_sigma)
        return "tail" if split <= sl.lo else "head+tail" if split <= sl.hi else "head"

    def test_bounds_each_slice_kernel(self):
        # log |1 + W| <= rate |sigma| wherever growth_rate gives a rate, over
        # couplings of every phase; a kernel past the float range needs a
        # bound past it too
        rng = np.random.default_rng(35)
        sigma = np.linspace(-60.0, 60.0, 241)
        log_max = math.log(sys.float_info.max)
        routes, bounded = set(), 0
        for _ in range(600):
            lam = 10.0 ** rng.uniform(-2.0, 1.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            for sl in self.WINDOWS:
                rate = growth_rate(lam, sl.lo, sl.hi)
                if math.isinf(rate):
                    assert abs(lam.real) <= abs(lam.imag)
                    continue
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    log_mod = np.log(np.abs(1.0 + kernel_slice(lam, sl.lo, sl.hi, 0, sigma)[0]))
                bound = rate * np.abs(sigma)
                past = np.isnan(log_mod) | (log_mod == math.inf)
                assert np.all(log_mod[~past] <= bound[~past] + 1e-15)
                assert np.all(bound[past] > log_max)
                routes.add(self.route(lam, sl, 60.0))
                bounded += 1
        assert bounded > 1000
        assert {"short", "head+tail", "tail"} <= routes


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

    @pytest.mark.parametrize("lo, hi, order", [(1, 7, 12), (1, 1, 12), (4, 7, 8), (1, 255, 8), (5, 4, 3)])
    def test_recurrence_matches_power_expansion(self, lo, hi, order):
        # the log of Z = 1 + sum_m z_m g^m by the powers of its tail, with
        # z_m = h_(2m) (-1)^m (2m-1)!! from the same exp series h
        zmax = 2 * order
        minus_v = [Fraction(0)] * 2
        minus_v += [sum((Fraction(1, p**k) for p in range(lo, hi + 1)), Fraction(0)) / k for k in range(2, zmax + 1)]
        h = _series_exp(minus_v, zmax)
        tail = [Fraction(0)] + [h[2 * m] * (-1) ** m * math.prod(range(1, 2 * m, 2)) for m in range(1, order + 1)]
        got = logz_series_g(lo, hi, order)
        assert got == _series_log1p(tail, order)[1:]
        assert all(type(c) is Fraction for c in got)

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
