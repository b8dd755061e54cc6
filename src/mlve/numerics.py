"""Low-level numerics shared by the kernel and oracle modules.

Sums over a slice of propagator indices p come in two interchangeable
routes: direct compensated summation (exact definition, used for small
slices) and gamma-function closed forms (digamma / polygamma / loggamma,
used when a slice holds more terms than ``DIRECT_SUM_LIMIT``, with a
power series for -V where it converges fast).  Both routes are
cross-checked in the test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import digamma, loggamma

# Grid evaluations switch from the term-by-term sweep to gamma-function
# closed forms past this window length (the sweep cost is linear in the
# window, the closed forms are flat).
DIRECT_SUM_LIMIT = 96

# Asymptotic polygamma series is safe once Re(z) exceeds this.
_ASYMPTOTIC_THRESHOLD = 64.0

# Bernoulli numbers B_2 .. B_16 for the polygamma tail.
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
    """Asymptotic expansion of psi^(m)(z), m >= 1, valid for large Re(z)."""
    inv = 1.0 / z
    # (-1)^(m-1) [ (m-1)!/z^m + m!/(2 z^(m+1)) + sum_k B_2k (2k+m-1)!/((2k)! z^(2k+m)) ]
    total = math.factorial(m - 1) * inv**m + math.factorial(m) / 2.0 * inv ** (m + 1)
    for k, b in enumerate(_BERNOULLI, start=1):
        coeff = float(b) * math.factorial(2 * k + m - 1) / math.factorial(2 * k)
        total = total + coeff * inv ** (2 * k + m)
    if m % 2 == 0:
        total = -total
    return total


def complex_polygamma(m: int, z):
    """psi^(m)(z) for complex array z with Re(z) > 0, vectorized.

    m = 0 delegates to scipy's complex digamma.  For m >= 1 the recurrence
    psi^(m)(z) = psi^(m)(z+1) + (-1)^m m!/z^(m+1) pushes the argument past
    the asymptotic threshold, after which the Bernoulli tail converges to
    machine precision.
    """
    z = np.asarray(z, dtype=complex)
    if m == 0:
        return digamma(z)
    if np.any(z.real <= 0):
        raise ValueError("complex_polygamma requires Re(z) > 0")
    shift = int(max(0.0, math.ceil(_ASYMPTOTIC_THRESHOLD - float(z.real.min()))))
    acc = np.zeros_like(z)
    sign = (-1.0) ** (m + 1)
    fact = math.factorial(m)
    for i in range(shift):
        acc = acc + sign * fact / (z + i) ** (m + 1)
    return acc + _polygamma_asymptotic(m, z + shift)


def shifted_inverse_power_sum(lo: int, hi: int, k: int, shift):
    """sum_{p=lo}^{hi} (p + shift)^(-k), vectorized over complex shift.

    Direct summation when the range is small, otherwise polygamma closed
    form: sum = (-1)^k [psi^(k-1)(lo+shift) - psi^(k-1)(hi+1+shift)]/(k-1)!.
    """
    if lo > hi:
        return np.zeros_like(np.asarray(shift, dtype=complex))
    shift = np.asarray(shift, dtype=complex)
    count = hi - lo + 1
    if count <= DIRECT_SUM_LIMIT:
        total = np.zeros_like(shift)
        for p in range(hi, lo - 1, -1):
            total = total + (p + shift) ** (-k)
        return total
    if k == 1:
        return digamma(hi + 1 + shift) - digamma(lo + shift)
    sign = (-1.0) ** k
    lead = complex_polygamma(k - 1, lo + shift) - complex_polygamma(k - 1, hi + 1 + shift)
    return sign * lead / math.factorial(k - 1)


@lru_cache(maxsize=None)
def _inverse_power_sum(lo: int, hi: int, k: int) -> complex:
    """u_k = sum_{p=lo}^{hi} p^(-k), cached: it does not depend on sigma."""
    return complex(shifted_inverse_power_sum(lo, hi, k, 0.0))


# Terms of the -V power series; where it is used, |z0|/lo <= 1/2, so the
# tail after this many terms is below 2^-53 of the leading one.
_SERIES_TERMS = 56


def _minus_v_long(lam: complex, lo: int, hi: int, sigma: np.ndarray) -> np.ndarray:
    """-V over a window [lo, hi] too long for the direct product.

    -V = z0 H + log prod_p p/(p + z0) with z0 = -i*lam*sigma.  Through
    loggamma this is a difference of values of size hi*log(hi), which loses
    digits when -V is small, so where |z0| <= lo/2 the convergent series
    -V = sum_(k>=2) (-z0)^k u_k / k with u_k = sum_p p^(-k) is used instead.
    Any 2*pi branch mismatch of the loggamma form is immaterial after
    exponentiation.
    """
    z0 = -1j * lam * sigma
    out = np.empty_like(z0)
    small = np.abs(z0) <= 0.5 * lo
    x = -z0[small]
    xk = x * x
    acc = np.zeros_like(x)
    for k in range(2, _SERIES_TERMS + 2):
        acc = acc + _inverse_power_sum(lo, hi, k) / k * xk
        xk = xk * x
    out[small] = acc
    zl = z0[~small]
    log_const = loggamma(complex(hi + 1)) - loggamma(complex(lo))
    out[~small] = zl * harmonic_range_sum(lo, hi) + log_const - (loggamma(hi + 1 + zl) - loggamma(lo + zl))
    return out


def exp_minus_v_range(lam: complex, lo: int, hi: int, sigma):
    """exp(-V) for the index window [lo, hi], vectorized over sigma.

    V = sum_p [i*lam*sigma/p + log(1 - i*lam*sigma/p)], so
    exp(-V) = exp(-i*lam*sigma*H) * prod_p p/(p - i*lam*sigma).  The product
    is evaluated directly for small windows and through ``_minus_v_long``
    otherwise.
    """
    sigma = np.asarray(sigma, dtype=complex)
    if lo > hi:
        return np.ones_like(sigma)
    if hi - lo + 1 > DIRECT_SUM_LIMIT:
        return np.exp(_minus_v_long(lam, lo, hi, sigma))
    z0 = -1j * lam * sigma
    prod = np.ones_like(sigma)
    for p in range(hi, lo - 1, -1):
        prod = prod * (p / (p + z0))
    return np.exp(-1j * lam * sigma * harmonic_range_sum(lo, hi)) * prod


def dv_range(lam: complex, lo: int, hi: int, k: int, sigma):
    """k-th sigma-derivative of -V over the window [lo, hi], vectorized.

    k = 1: sum_p (-lam^2 sigma)/(p (p - i lam sigma))
         = i lam [sum_p 1/(p - i lam sigma) - H],
    k >= 2: (k-1)! (i lam)^k sum_p (p - i lam sigma)^(-k).
    """
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    sigma = np.asarray(sigma, dtype=complex)
    if lo > hi:
        return np.zeros_like(sigma)
    z0 = -1j * lam * sigma
    if k == 1:
        count = hi - lo + 1
        if count <= DIRECT_SUM_LIMIT:
            # original form, free of the T1 - H cancellation at small sigma
            total = np.zeros_like(sigma)
            for p in range(hi, lo - 1, -1):
                total = total + (-(lam**2) * sigma) / (p * (p + z0))
            return total
        t1 = shifted_inverse_power_sum(lo, hi, 1, z0)
        return 1j * lam * (t1 - harmonic_range_sum(lo, hi))
    tk = shifted_inverse_power_sum(lo, hi, k, z0)
    return math.factorial(k - 1) * (1j * lam) ** k * tk


def kernel_bundle(lam: complex, lo: int, hi: int, max_k: int, sigma):
    """W = exp(-V) - 1 and the derivatives d^k(-V), k = 1..max_k, in one pass.

    For short windows a single complex sweep over p accumulates the
    product form of exp(-V) together with all the inverse-power sums;
    long windows fall back to ``_minus_v_long`` and the gamma-function
    closed forms, with W = expm1(-V) free of cancellation at small V.
    Real and complex couplings take the same route.
    """
    lam = complex(lam)
    sigma_c = np.asarray(sigma, dtype=complex)
    if lo > hi:
        return np.zeros_like(sigma_c), {k: np.zeros_like(sigma_c) for k in range(1, max_k + 1)}
    if hi - lo + 1 > DIRECT_SUM_LIMIT:
        w = np.expm1(_minus_v_long(lam, lo, hi, sigma_c))
        return w, {k: dv_range(lam, lo, hi, k, sigma_c) for k in range(1, max_k + 1)}
    z0 = -1j * lam * sigma_c
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

