"""Low-level numerics shared by the kernel and oracle modules.

``kernel_bundle`` is the one grid routine for the slice kernel
W = exp(-V) - 1 and its sigma-derivatives d^k(-V); the jungle terms and
the quadrature Z both call it.  It sweeps short index windows term by
term and evaluates windows longer than ``DIRECT_SUM_LIMIT`` through
gamma-function closed forms (polygamma and log-gamma, with a power series
for -V where it converges fast), which only long windows use.  Both
gamma-function routines are numpy code here: the recurrence carries the
argument to large Re(z), where an 8-term Bernoulli series is exact to
rounding.  The scalar compensated sums in ``model_core`` and 40-digit
mpmath values pin both routes in the test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# ``kernel_bundle`` switches from the term-by-term sweep to gamma-function
# closed forms past this window length (the sweep cost is linear in the
# window, the closed forms are flat).
DIRECT_SUM_LIMIT = 96

# The asymptotic series below are summed once the recurrence has carried
# every Re(z) past these: at 16 the first omitted digamma or Stirling term
# is below 1e-21 of the leading one; the higher polygammas go to 64.
_STIRLING_THRESHOLD = 16.0
_ASYMPTOTIC_THRESHOLD = 64.0

# Bernoulli numbers B_2 .. B_16 for the polygamma and Stirling tails.
_BERNOULLI = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
]


def kahan_sum(values):
    """Compensated sum of an iterable of floats or complex numbers."""
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def cexpm1(z):
    """exp(z) - 1 without cancellation for small |z|, complex-safe."""
    z = complex(z)
    if abs(z) > 0.5:
        import cmath

        return cmath.exp(z) - 1.0
    # Horner form of the Taylor tail; 24 terms is far below 1 ulp at |z|=0.5.
    acc = 0.0 + 0.0j
    for k in range(24, 1, -1):
        acc = (acc + 1.0) * z / k
    return z * (1.0 + acc)


@lru_cache(maxsize=None)
def harmonic_range_sum(lo: int, hi: int) -> float:
    """Sum of 1/p for lo <= p <= hi, compensated, summed in ascending p.

    Summing the smallest terms first (descending p) keeps the compensation
    effective; for the harmonic sum the terms increase toward small p, so
    we iterate p from hi down to lo.
    """
    if lo > hi:
        return 0.0
    return kahan_sum(1.0 / p for p in range(hi, lo - 1, -1))


def _polygamma_asymptotic(m: int, z: np.ndarray) -> np.ndarray:
    """Asymptotic expansion of psi^(m)(z), m >= 0, valid for large Re(z)."""
    inv = 1.0 / z
    # m >= 1: (-1)^(m-1) [ (m-1)!/z^m + m!/(2 z^(m+1)) + sum_k B_2k (2k+m-1)!/((2k)! z^(2k+m)) ]
    # m = 0: log z - [ 1/(2z) + sum_k B_2k/(2k z^(2k)) ], the same bracket without its lead
    total = math.factorial(m) / 2.0 * inv ** (m + 1)
    for k, b in enumerate(_BERNOULLI, start=1):
        coeff = float(b) * math.factorial(2 * k + m - 1) / math.factorial(2 * k)
        total = total + coeff * inv ** (2 * k + m)
    if m == 0:
        return np.log(z) - total
    total = math.factorial(m - 1) * inv**m + total
    if m % 2 == 0:
        total = -total
    return total


def _unit_shift(z: np.ndarray, threshold: float) -> int:
    """Fewest unit steps n with Re(z) + n >= threshold for every entry."""
    return int(math.ceil(threshold - z.real.min(initial=threshold)))


def _refuse_poles(z: np.ndarray) -> None:
    if np.any((z.imag == 0) & (z.real <= 0) & (z.real == np.floor(z.real))):
        raise ValueError("gamma-function pole: z is a non-positive integer")


def complex_polygamma(m: int, z):
    """psi^(m)(z) for a complex array z off the poles 0, -1, -2, ..., vectorized.

    The recurrence psi^(m)(z) = psi^(m)(z+1) + (-1)^(m+1) m!/z^(m+1) holds
    at every z off the poles; it pushes the argument past the asymptotic
    threshold, after which the Bernoulli tail converges to machine
    precision.  m = 0 is the digamma function.
    """
    z = np.asarray(z, dtype=complex)
    _refuse_poles(z)
    shift = _unit_shift(z, _STIRLING_THRESHOLD if m == 0 else _ASYMPTOTIC_THRESHOLD)
    acc = np.zeros_like(z)
    sign = (-1.0) ** (m + 1)
    fact = math.factorial(m)
    for i in range(shift):
        acc = acc + sign * fact / (z + i) ** (m + 1)
    return acc + _polygamma_asymptotic(m, z + shift)


def complex_loggamma(z):
    """log Gamma(z) modulo 2 pi i for a complex array z off the poles, vectorized.

    Stirling's series at z + n with Re(z + n) >= 16, minus the principal
    log of the recurrence product prod_(i<n) (z + i).  That log may differ
    from the sum of the factors' logs by a multiple of 2 pi i, so the
    result is a log of Gamma(z) but not always the continuous branch: use
    it only where it is exponentiated, as ``_minus_v_long`` does.
    """
    z = np.asarray(z, dtype=complex)
    _refuse_poles(z)
    shift = _unit_shift(z, _STIRLING_THRESHOLD)
    w = z + shift
    inv = 1.0 / w
    inv2 = inv * inv
    tail = np.zeros_like(w)  # sum_k B_2k / (2k (2k-1)) w^(2-2k), by Horner in 1/w^2
    for k in range(len(_BERNOULLI), 0, -1):
        tail = tail * inv2 + float(_BERNOULLI[k - 1]) / (2 * k * (2 * k - 1))
    total = (w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi) + tail * inv
    if shift:
        total = total - np.log(np.prod(np.add.outer(np.arange(shift), z), axis=0))
    return total


def shifted_inverse_power_sum(lo: int, hi: int, k: int, shift):
    """sum_{p=lo}^{hi} (p + shift)^(-k), vectorized over complex shift.

    Closed form for a long, non-empty window (short ones are swept in
    ``kernel_bundle``):
    sum = (-1)^k [psi^(k-1)(lo+shift) - psi^(k-1)(hi+1+shift)]/(k-1)!.
    """
    shift = np.asarray(shift, dtype=complex)
    sign = (-1.0) ** k
    lead = complex_polygamma(k - 1, lo + shift) - complex_polygamma(k - 1, hi + 1 + shift)
    return sign * lead / math.factorial(k - 1)


@lru_cache(maxsize=None)
def _inverse_power_sum(lo: int, hi: int, k: int) -> complex:
    """u_k = sum_{p=lo}^{hi} p^(-k), cached: it does not depend on sigma."""
    return complex(shifted_inverse_power_sum(lo, hi, k, 0.0))


@lru_cache(maxsize=None)
def _log_gamma_ratio(lo: int, hi: int) -> float:
    """log Gamma(hi + 1) - log Gamma(lo) = log prod_(p=lo)^hi p, cached.

    Taken through ``complex_loggamma``, the route of the sigma-dependent
    terms it is subtracted from in ``_minus_v_long``, so that their rounding
    at large hi cancels.  With math.lgamma, whose rounding is unrelated,
    the full-window Z at lambda = 0.5, M = 10, j = 1..5 lies 5e-11 from the
    sliced one; this way it lies 3e-12.
    """
    return float((complex_loggamma(hi + 1.0) - complex_loggamma(float(lo))).real)


# Terms of the -V power series; where it is used, |z0|/lo <= 1/2, so the
# tail after this many terms is below 2^-53 of the leading one.
_SERIES_TERMS = 56


def _minus_v_long(lam: complex, lo: int, hi: int, sigma: np.ndarray, with_slope: bool):
    """-V and, if ``with_slope``, its sigma-derivative over a window [lo, hi]
    too long for the direct product, as the pair (-V, d(-V)/dsigma or None).

    -V = z0 H + log prod_p p/(p + z0) with z0 = -i*lam*sigma, and
    d(-V)/dsigma = i lam (T1 - H) with T1 = sum_p 1/(p + z0).  Through
    log-gamma and digamma both are differences of large values, which lose
    digits when -V is small, so where |z0| <= lo/2 the convergent series
    -V = sum_(k>=2) u_k x^k / k and d(-V)/dsigma = i lam sum_(k>=2) u_k x^(k-1),
    with x = -z0 and u_k = sum_p p^(-k), are used instead.  The log-gamma
    form holds -V modulo 2 pi i, which is immaterial after exponentiation.
    """
    z0 = -1j * lam * sigma
    minus_v = np.empty_like(z0)
    slope = np.empty_like(z0) if with_slope else None
    small = np.abs(z0) <= 0.5 * lo
    x = -z0[small]
    xk = x  # x^(k-1)
    acc_v = np.zeros_like(x)
    acc_d = np.zeros_like(x)
    for k in range(2, _SERIES_TERMS + 2):
        uk = _inverse_power_sum(lo, hi, k)
        acc_d = acc_d + uk * xk
        xk = xk * x
        acc_v = acc_v + uk / k * xk
    minus_v[small] = acc_v
    if with_slope:
        slope[small] = 1j * lam * acc_d
    if not small.all():
        zl = z0[~small]
        h = harmonic_range_sum(lo, hi)
        minus_v[~small] = zl * h + _log_gamma_ratio(lo, hi) - (complex_loggamma(hi + 1 + zl) - complex_loggamma(lo + zl))
        if with_slope:
            slope[~small] = 1j * lam * (shifted_inverse_power_sum(lo, hi, 1, zl) - h)
    return minus_v, slope


def kernel_bundle(lam: complex, lo: int, hi: int, max_k: int, sigma):
    """W = exp(-V) - 1 and the derivatives d^k(-V), k = 1..max_k, in one pass.

    The only grid route for these quantities: the engine's kernel tables
    and the oracle's integrand 1 + W both come from here.  For short
    windows a single complex sweep over p accumulates the product form of
    exp(-V) together with all the inverse-power sums; windows longer than
    ``DIRECT_SUM_LIMIT`` take ``_minus_v_long`` for -V and d(-V)/dsigma
    (W = expm1(-V), free of cancellation at small V) and, for k >= 2,
    (k-1)! (i lam)^k sum_p (p - i lam sigma)^(-k) in polygamma closed form.
    Real and complex couplings take the same route.
    """
    lam = complex(lam)
    sigma_c = np.asarray(sigma, dtype=complex)
    if lo > hi:
        return np.zeros_like(sigma_c), {k: np.zeros_like(sigma_c) for k in range(1, max_k + 1)}
    z0 = -1j * lam * sigma_c
    if hi - lo + 1 > DIRECT_SUM_LIMIT:
        minus_v, slope = _minus_v_long(lam, lo, hi, sigma_c, max_k >= 1)
        dv = {
            k: slope if k == 1 else math.factorial(k - 1) * (1j * lam) ** k * shifted_inverse_power_sum(lo, hi, k, z0)
            for k in range(1, max_k + 1)
        }
        return np.expm1(minus_v), dv
    prod = np.ones_like(sigma_c)
    sums = {k: np.zeros_like(sigma_c) for k in range(1, max_k + 1)}
    for p in range(hi, lo - 1, -1):
        r = 1.0 / (p + z0)
        prod = prod * (p * r)
        if max_k >= 1:
            sums[1] = sums[1] + r / p
        rk = r
        for k in range(2, max_k + 1):
            rk = rk * r
            sums[k] = sums[k] + rk
    h = harmonic_range_sum(lo, hi)
    w = np.exp(-1j * lam * sigma_c * h) * prod - 1.0
    dv = {}
    if max_k >= 1:
        dv[1] = -(lam**2) * sigma_c * sums[1]
    for k in range(2, max_k + 1):
        dv[k] = math.factorial(k - 1) * (1j * lam) ** k * sums[k]
    return w, dv

