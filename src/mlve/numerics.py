"""Low-level numerics shared by the kernel and oracle modules.

``kernel_bundle`` is the one grid routine for the slice kernel
W = exp(-V) - 1 and its sigma-derivatives d^k(-V); the jungle terms and
the quadrature Z both call it.  It sweeps a short index window term by
term.  A window longer than ``DIRECT_SUM_LIMIT`` is swept only over its
head, up to twice the largest |lambda sigma|; past that, -V is one power
series in x = i lambda sigma, differentiated termwise for d^k(-V).  Its
coefficients u_m = sum_p p^(-m), real and free of sigma, are the only
special-function values: Hurwitz zeta differences by Euler-Maclaurin, at
a cost flat in the window length.  Each series runs only as far as the
sweep's own ratio rho = max|x| / s needs, s the first tail index: past
its last power, bounds that fall like rho^m sum to less than an ulp.
The harmonic sum of the head is correctly rounded by math.fsum.  The
scalar compensated sums in the tests and 40-digit mpmath values pin the
route.
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


@lru_cache(maxsize=None)
def harmonic_range_sum(lo: int, hi: int) -> float:
    """Sum of 1/p for lo <= p <= hi, the floats 1/p summed by math.fsum,
    so correctly rounded in any order; an empty range sums to 0.0."""
    return math.fsum(1.0 / p for p in range(lo, hi + 1))


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


# Where the series is used, |x| <= rho s on the tail [s, hi] with rho <=
# 1/2, and u_m <= u_m0 s^(m0-m), so term m of the k-th x-derivative is at
# most c_k(m)/c_k(m0) rho^(m-m0) of the leading term m0 = max(k, 2), with
# c_0(m) = 1/m and c_k(m) = (m-1)!/(m-k)!.  Each row stops at the least
# power past which these bounds sum to at most _SERIES_TOL of the leading
# term, 1/32 of its unit in the last place.  At rho = 0.225, the largest
# on SIGMA_GRID at |lambda| = 0.3 on [16, 255], rows 0 and 1 take 27 and
# 28 Horner steps.  The dropped terms still move about 1 % of kernel
# values on SIGMA_GRID and the oracle's nodes by an ulp from the full
# series; a tolerance of 2^-55 moves 1.7 %.
_SERIES_TOL = 2.0**-57


@lru_cache(maxsize=None)
def _series_top(k: int, rho: float) -> int:
    """Highest power of the k-th x-derivative of the -V series at the ratio
    rho = max|x| / s: the least top such that the term bounds past it sum
    to at most ``_SERIES_TOL`` of the leading term.  It reads nothing but k
    and rho, so a row is the same in every call that sweeps it."""
    m0 = max(k, 2)
    bounds = [1.0]  # the bound of term m0 + i, relative to the leading term
    while True:
        m = m0 + len(bounds) - 1
        ratio = rho * (m / (m - k + 1) if k else m / (m + 1))
        # past m the ratios of consecutive bounds fall for k >= 1 and stay
        # below rho for k = 0, so what is left is at most bounds[-1] r / (1 - r)
        r = ratio if k else rho
        if r < 1.0 and bounds[-1] * r / (1.0 - r) <= _SERIES_TOL * 2.0**-40:
            break
        bounds.append(bounds[-1] * ratio)
    rest = bounds[-1] * r / (1.0 - r)
    for top in range(len(bounds) - 2, -1, -1):
        rest += bounds[top + 1]
        if rest > _SERIES_TOL:
            return m0 + top + 1
    return m0


@lru_cache(maxsize=None)
def _series_coefficients(lo: int, hi: int, k: int, top: int) -> tuple:
    """The Horner coefficients of the k-th x-derivative of the -V series
    over [lo, hi], u_m c_k(m) for m = top down to max(k, 2)."""
    return tuple(
        _inverse_power_sum(lo, hi, m) * (math.perm(m - 1, k - 1) if k else 1.0 / m)
        for m in range(top, max(k, 2) - 1, -1)
    )


def _tail_series(lo: int, hi: int, x: np.ndarray, max_k: int, rho: float) -> list:
    """-V over the tail [lo, hi] and its x-derivatives, as the list
    [d^k(-V)/dx^k for k = 0..max_k], from the power series

        -V = sum_(m>=2) u_m x^m / m,
        d^k(-V)/dx^k = sum_(m>=max(k,2)) u_m (m-1)!/(m-k)! x^(m-k),

    with u_m = sum_p p^(-m), each by Horner's rule from its highest power,
    ``_series_top(k, rho)``, on.  Valid where |x| <= rho lo <= lo/2 at
    every point.
    """
    out = []
    for k in range(max_k + 1):
        acc = np.zeros_like(x)
        for c in _series_coefficients(lo, hi, k, _series_top(k, rho)):
            acc *= x
            acc += c
        for _ in range(max(k, 2) - k):  # the powers below 2 have no term
            acc *= x
        out.append(acc)
    return out


def kernel_bundle(lam: complex, lo: int, hi: int, max_k: int, sigma):
    """W = exp(-V) - 1 and the derivatives d^k(-V), k = 1..max_k, in one pass.

    The only grid route for these quantities: the engine's kernel tables
    and the oracle's integrand 1 + W both come from here.  A complex sweep
    over p accumulates the product form of exp(-V) together with all the
    inverse-power sums.  A window longer than ``DIRECT_SUM_LIMIT`` is swept
    only over its head [lo, s), s = max(lo, ceil(2 max |lam sigma|)) capped
    at hi + 1, where an infinite or NaN bound also sweeps the whole window;
    over a nonempty tail [s, hi], -V and its x-derivatives come from
    ``_tail_series`` in x = i lam sigma, each row summed as far as the ratio
    rho = max |lam sigma| / s <= 1/2 needs, and enter d^k(-V) with the
    chain-rule factor (i lam)^k.  The split and the lengths both read the
    largest |sigma| alone.  On every window
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
    z0 = -1j * lam * sigma_c
    split = hi + 1
    if hi - lo + 1 > DIRECT_SUM_LIMIT:
        reach = float(np.abs(z0).max(initial=0.0))
        if 2.0 * reach < hi + 1:  # False for an infinite or NaN reach
            split = max(lo, math.ceil(2.0 * reach))
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
    tail = _tail_series(split, hi, -z0, max_k, reach / split) if split <= hi else [0.0] * (max_k + 1)
    w = np.expm1(head + tail[0]) * prod + prod_m1
    dv = {}
    if max_k >= 1:
        dv[1] = -(lam**2) * sigma_c * sums[1] + 1j * lam * tail[1]
    for k in range(2, max_k + 1):
        dv[k] = (1j * lam) ** k * (math.factorial(k - 1) * sums[k] + tail[k])
    return w, dv
