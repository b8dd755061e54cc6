"""Low-level numerics shared by the kernel and oracle modules.

``kernel_bundle`` is the one grid routine for the slice kernel
W = exp(-V) - 1 and its sigma-derivatives d^k(-V); the jungle terms and
the quadrature Z both call it.  It sweeps a short index window term by
term.  A window longer than ``DIRECT_SUM_LIMIT`` is swept only over its
head, up to twice the largest |lambda sigma|; past that, -V is one power
series in x = i lambda sigma, differentiated termwise for d^k(-V).  Its
coefficients u_m = sum_p p^(-m), real and free of sigma, are the only
special-function values: Hurwitz zeta differences by Euler-Maclaurin, at
a cost flat in the window length.  The scalar compensated sums in
``model_core`` and 40-digit mpmath values pin the route in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# ``kernel_bundle`` sweeps a window of at most this length term by term;
# a longer one only over its head, with the -V series for the tail (the
# sweep cost is linear in the window, the series' is flat).
DIRECT_SUM_LIMIT = 96

# zeta(k, a) takes the Euler-Maclaurin series from this a on; smaller
# indices are summed directly.  At a = 64 it is exact to rounding for
# k <= 20 and to 2e-13 for k <= 70, where u_k enters the series below
# 2^-19 of its leading term.
_ASYMPTOTIC_THRESHOLD = 64

# Bernoulli numbers B_2 .. B_16 for the Euler-Maclaurin series of zeta(k, a).
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
    """Sum of 1/p for lo <= p <= hi, compensated, summed in descending p:
    the smallest terms first keeps the compensation effective."""
    if lo > hi:
        return 0.0
    return kahan_sum(1.0 / p for p in range(hi, lo - 1, -1))


def _hurwitz_zeta(k: int, a: int) -> float:
    """zeta(k, a) = sum_(p>=a) p^(-k) for k >= 2 and a >= the threshold,
    from the Euler-Maclaurin series (DLMF section 25.11):

        zeta(k, a) = a^(1-k) [1/(k-1) + 1/(2a)
                     + sum_j B_2j/(2j)! k (k+1) ... (k+2j-2) a^(-2j)].
    """
    inv2 = 1.0 / (float(a) * a)
    terms = [1.0 / (k - 1), 0.5 / a]
    rising = k  # k (k+1) ... (k+2j-2)
    for j, b in enumerate(_BERNOULLI, start=1):
        terms.append(float(b) * rising / math.factorial(2 * j) * inv2**j)
        rising *= (k + 2 * j - 1) * (k + 2 * j)
    return math.fsum(terms) * float(a) ** (1 - k)


@lru_cache(maxsize=None)
def _inverse_power_sum(lo: int, hi: int, k: int) -> float:
    """u_k = sum_{p=lo}^{hi} p^(-k), k >= 2, cached: it does not depend on
    sigma.  The indices below ``_ASYMPTOTIC_THRESHOLD`` are summed
    by math.fsum, the rest is zeta(k, a) - zeta(k, hi + 1)."""
    a = max(lo, _ASYMPTOTIC_THRESHOLD)
    rest = _hurwitz_zeta(k, a) - _hurwitz_zeta(k, hi + 1) if a <= hi else 0.0
    return math.fsum([rest, *(p**-k for p in range(min(hi, a - 1), lo - 1, -1))])


# Highest power of the -V series and of its first derivative.  Where the
# series is used, |x| <= s/2 on the tail [s, hi] and u_m <= u_2 s^(2-m),
# so term m is at most 2^(2-m) of the leading one and the terms past m =
# 57 sum to 2^-55 of it.  The k-th derivative multiplies term m by
# C(m-1, k-1); 7 more powers per order past the first keep the terms past
# the last below 2^-55 of the leading one for every k.
_SERIES_TOP = 57
_POWERS_PER_ORDER = 7


def _tail_series(lo: int, hi: int, x: np.ndarray, max_k: int) -> list:
    """-V over the tail [lo, hi] and its x-derivatives, as the list
    [d^k(-V)/dx^k for k = 0..max_k], from the power series

        -V = sum_(m>=2) u_m x^m / m,
        d^k(-V)/dx^k = sum_(m>=max(k,2)) u_m (m-1)!/(m-k)! x^(m-k),

    with u_m = sum_p p^(-m), each by Horner's rule from its highest power
    on.  Valid where |x| <= lo/2 at every point.
    """
    out = []
    for k in range(max_k + 1):
        acc = np.zeros_like(x)
        for m in range(_SERIES_TOP + _POWERS_PER_ORDER * max(k - 1, 0), k - 1, -1):
            acc *= x
            if m >= 2:
                acc += _inverse_power_sum(lo, hi, m) * (math.perm(m - 1, k - 1) if k else 1.0 / m)
        out.append(acc)
    return out


def kernel_bundle(lam: complex, lo: int, hi: int, max_k: int, sigma):
    """W = exp(-V) - 1 and the derivatives d^k(-V), k = 1..max_k, in one pass.

    The only grid route for these quantities: the engine's kernel tables
    and the oracle's integrand 1 + W both come from here.  A complex sweep
    over p accumulates the product form of exp(-V) together with all the
    inverse-power sums.  A window longer than ``DIRECT_SUM_LIMIT`` is swept
    only over its head [lo, s), s = max(lo, ceil(2 max |lam sigma|)) capped
    at hi + 1; over a nonempty tail [s, hi], -V and its x-derivatives come
    from ``_tail_series`` in x = i lam sigma and enter d^k(-V) with the
    chain-rule factor (i lam)^k.  On every window
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
    split = hi + 1
    if hi - lo + 1 > DIRECT_SUM_LIMIT:
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
    tail = _tail_series(split, hi, -z0, max_k) if split <= hi else [0.0] * (max_k + 1)
    w = np.expm1(head + tail[0]) * prod + prod_m1
    dv = {}
    if max_k >= 1:
        dv[1] = -(lam**2) * sigma_c * sums[1] + 1j * lam * tail[1]
    for k in range(2, max_k + 1):
        dv[k] = (1j * lam) ** k * (math.factorial(k - 1) * sums[k] + tail[k])
    return w, dv
