"""Low-level numerics shared by the kernel and oracle modules.

``kernel_bundle`` is the one grid routine for the slice kernel
W = exp(-V) - 1 and its sigma-derivatives d^k(-V); the jungle terms and
the quadrature Z both call it.  It sweeps a short index window term by
term.  A window longer than ``DIRECT_SUM_LIMIT`` is swept only over its
head, up to twice the largest |lambda sigma|; past that -V converges fast
as a power series in lambda sigma, and the k >= 2 derivatives of the
tail take the polygamma closed form.  The polygamma is numpy code here:
the recurrence carries the argument to large Re(z), where an 8-term
Bernoulli series is exact to rounding.  The scalar compensated sums in
``model_core`` and 40-digit mpmath values pin the route in the test
suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# ``kernel_bundle`` sweeps a window of at most this length term by term;
# a longer one only over its head, with the -V series and polygamma closed
# forms for the tail (the sweep cost is linear in the window, the tail's
# is flat).
DIRECT_SUM_LIMIT = 96

# The asymptotic polygamma series below is summed once the recurrence has
# carried every Re(z) past this.
_ASYMPTOTIC_THRESHOLD = 64.0

# Bernoulli numbers B_2 .. B_16 for the polygamma tails.
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
    total = math.factorial(m) / 2.0 * inv ** (m + 1)
    for k, b in enumerate(_BERNOULLI, start=1):
        coeff = float(b) * math.factorial(2 * k + m - 1) / math.factorial(2 * k)
        total = total + coeff * inv ** (2 * k + m)
    total = math.factorial(m - 1) * inv**m + total
    if m % 2 == 0:
        total = -total
    return total


def complex_polygamma(m: int, z):
    """psi^(m)(z), m >= 1, for a complex array z off the poles 0, -1, -2, ...,
    vectorized.

    The recurrence psi^(m)(z) = psi^(m)(z+1) + (-1)^(m+1) m!/z^(m+1) holds
    at every z off the poles; it pushes the argument past the asymptotic
    threshold, after which the Bernoulli tail converges to machine
    precision.
    """
    z = np.asarray(z, dtype=complex)
    if np.any((z.imag == 0) & (z.real <= 0) & (z.real == np.floor(z.real))):
        raise ValueError("gamma-function pole: z is a non-positive integer")
    # fewest unit steps with Re(z) + shift >= the threshold for every entry
    shift = int(math.ceil(_ASYMPTOTIC_THRESHOLD - z.real.min(initial=_ASYMPTOTIC_THRESHOLD)))
    acc = np.zeros_like(z)
    sign = (-1.0) ** (m + 1)
    fact = math.factorial(m)
    for i in range(shift):
        acc = acc + sign * fact / (z + i) ** (m + 1)
    return acc + _polygamma_asymptotic(m, z + shift)


def shifted_inverse_power_sum(lo: int, hi: int, k: int, shift):
    """sum_{p=lo}^{hi} (p + shift)^(-k), k >= 2, vectorized over complex shift.

    Closed form for the tail of a long window (short windows and heads are
    swept in ``kernel_bundle``):
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


# Terms of the -V power series; where it is used, |z0| <= lo/2, so the
# tail after this many terms is below 2^-53 of the leading one.
_SERIES_TERMS = 56


def _minus_v_series(lam: complex, lo: int, hi: int, z0: np.ndarray, with_slope: bool):
    """-V over [lo, hi] and, if ``with_slope``, its sigma-derivative (else
    None), as the power series in x = -z0 = i*lam*sigma:

        -V = sum_(k>=2) u_k x^k / k,  d(-V)/dsigma = i lam sum_(k>=2) u_k x^(k-1),

    with u_k = sum_p p^(-k).  Valid where |z0| <= lo/2 at every point.
    """
    x = -z0
    xk = x  # x^(k-1)
    acc_v = np.zeros_like(x)
    acc_d = np.zeros_like(x)
    for k in range(2, _SERIES_TERMS + 2):
        uk = _inverse_power_sum(lo, hi, k)
        acc_d = acc_d + uk * xk
        xk = xk * x
        acc_v = acc_v + uk / k * xk
    return acc_v, (1j * lam * acc_d if with_slope else None)


def kernel_bundle(lam: complex, lo: int, hi: int, max_k: int, sigma):
    """W = exp(-V) - 1 and the derivatives d^k(-V), k = 1..max_k, in one pass.

    The only grid route for these quantities: the engine's kernel tables
    and the oracle's integrand 1 + W both come from here.  A complex sweep
    over p accumulates the product form of exp(-V) together with all the
    inverse-power sums.  A window longer than ``DIRECT_SUM_LIMIT`` is swept
    only over its head [lo, s), s = max(lo, ceil(2 max |lam sigma|)) capped
    at hi + 1; over the tail [s, hi], -V and d(-V)/dsigma come from
    ``_minus_v_series`` and, for k >= 2, the sums
    sum_p (p - i lam sigma)^(-k) in polygamma closed form.  On every window
    W = expm1(z0 H_head - V_tail) prod + (prod - 1), with z0 = -i lam sigma,
    H_head the harmonic sum and prod the product of p/(p + z0) over the
    head; a short window is all head, with V_tail = 0.  Each step
    multiplies prod by 1 - z0/(p + z0), so prod - 1 is summed from the
    steps -z0 prod/(p + z0) and keeps its digits where prod is near 1: W
    is free of cancellation at small V.  Real and complex couplings take
    the same route.
    """
    lam = complex(lam)
    sigma_c = np.asarray(sigma, dtype=complex)
    if lo > hi:
        return np.zeros_like(sigma_c), {k: np.zeros_like(sigma_c) for k in range(1, max_k + 1)}
    z0 = -1j * lam * sigma_c
    long_window = hi - lo + 1 > DIRECT_SUM_LIMIT
    split = hi + 1
    if long_window:
        split = min(split, max(lo, math.ceil(2.0 * np.abs(z0).max(initial=0.0))))
    prod = np.ones_like(sigma_c)
    prod_m1 = np.zeros_like(sigma_c)  # prod - 1, summed over the steps of prod
    sums = {k: np.zeros_like(sigma_c) for k in range(1, max_k + 1)}
    for p in range(split - 1, lo - 1, -1):
        r = 1.0 / (p + z0)
        prod_m1 = prod_m1 - z0 * r * prod
        prod = prod * (p * r)
        if max_k >= 1:
            sums[1] = sums[1] + r / p
        rk = r
        for k in range(2, max_k + 1):
            rk = rk * r
            sums[k] = sums[k] + rk
    head = z0 * harmonic_range_sum(lo, split - 1)
    minus_v, slope = 0.0, 0.0
    if long_window:
        minus_v, slope = _minus_v_series(lam, split, hi, z0, max_k >= 1)
        for k in range(2, max_k + 1):
            sums[k] = sums[k] + shifted_inverse_power_sum(split, hi, k, z0)
    w = np.expm1(head + minus_v) * prod + prod_m1
    dv = {}
    if max_k >= 1:
        dv[1] = -(lam**2) * sigma_c * sums[1] + slope
    for k in range(2, max_k + 1):
        dv[k] = math.factorial(k - 1) * (1j * lam) ** k * sums[k]
    return w, dv
