"""Quartic vector model kernels: slices, subtracted logarithm, V and W.

The model lives on integer propagator indices p grouped into geometric
slices I_j = [M^(j-1), M^j - 1].  Each slice carries a kernel

    V_j(sigma) = sum_{p in I_j} log2m(i*lam*sigma/p),
    W_j(sigma) = exp(-V_j(sigma)) - 1,

where log2m(x) = x + log(1-x) is the subtracted logarithm, of second
order at small x.  The expansion engine needs sigma-derivatives of W_j of
any small order; they are assembled from the closed forms for the
derivatives of -V_j through the Faa di Bruno partition sum.

Scalar operations here are the defining route (compensated direct sums)
and the test oracle for ``dw_grid``, which evaluates d^q W_j on numpy
arrays from ``numerics.kernel_bundle`` (past the head of a long slice,
one power series for -V, differentiated termwise).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import numerics
from .errors import DomainError


@dataclass(frozen=True)
class SliceIndexSet:
    """The integer interval I_j = [M^(j-1), M^j - 1]."""

    j: int
    lo: int
    hi: int


def slice_range(M: int, j: int) -> SliceIndexSet:
    """Index window of the j-th slice for base M."""
    if M < 2:
        raise ValueError(f"slice base must be >= 2, got {M}")
    if j < 1:
        raise ValueError(f"slice label must be >= 1, got {j}")
    return SliceIndexSet(j=j, lo=M ** (j - 1), hi=M**j - 1)


@dataclass(frozen=True)
class ModelParams:
    """Coupling and slice window of the model.

    lam is the coupling (possibly complex, lam = |lam| e^{i*gamma}); the
    quartic coupling is g = lam^2.  The ultraviolet cutoff is
    N = M^j_max - 1 and the infrared one is the first index of slice
    j_min.
    """

    lam: complex
    M: int
    j_min: int = 1
    j_max: int = 1

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"slice base must be >= 2, got {self.M}")
        if self.j_min < 1:
            raise ValueError(f"j_min must be >= 1, got {self.j_min}")
        if self.j_max < self.j_min:
            raise ValueError(f"need j_min <= j_max, got [{self.j_min}, {self.j_max}]")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")

    @property
    def cutoff(self) -> int:
        return self.M**self.j_max - 1

    @property
    def slices(self) -> range:
        return range(self.j_min, self.j_max + 1)

    @property
    def p_lo(self) -> int:
        """First index of the full window (start of slice j_min)."""
        return self.M ** (self.j_min - 1)

    def slice_set(self, j: int) -> SliceIndexSet:
        if not self.j_min <= j <= self.j_max:
            raise ValueError(f"slice {j} outside window [{self.j_min}, {self.j_max}]")
        return slice_range(self.M, j)


def log2m(x) -> complex:
    """Subtracted logarithm x + log(1 - x), principal branch.

    Vanishes to second order: log2m(x) = -x^2/2 - x^3/3 - ...
    """
    x = complex(x)
    if x == 1:
        raise DomainError("log2m is singular at x = 1")
    one_minus = 1.0 - x
    if one_minus.real <= 0 and one_minus.imag == 0:
        raise DomainError(f"argument 1 - x = {one_minus} sits on the log branch cut")
    if x.imag == 0:
        return x.real + math.log1p(-x.real)
    return x + cmath.log(one_minus)


def _checked_pole_terms(params: ModelParams, j: int, sigma: complex):
    """Yield i*lam*sigma/p over the slice, raising at poles/branch hits."""
    sl = params.slice_set(j)
    x0 = 1j * complex(params.lam) * complex(sigma)
    for p in range(sl.hi, sl.lo - 1, -1):
        x = x0 / p
        if x == 1:
            raise DomainError(f"kernel pole at p = {p} (1 - i*lam*sigma/p = 0)")
        yield p, x


def v_kernel(params: ModelParams, j: int, sigma) -> complex:
    """V_j(sigma) = sum over the slice of log2m(i*lam*sigma/p)."""
    return numerics.kahan_sum(log2m(x) for _, x in _checked_pole_terms(params, j, sigma))


def w_kernel(params: ModelParams, j: int, sigma) -> complex:
    """W_j(sigma) = exp(-V_j(sigma)) - 1, cancellation-safe at small V."""
    return numerics.cexpm1(-v_kernel(params, j, sigma))


def exp_minus_v(params: ModelParams, j: int, sigma) -> complex:
    """exp(-V_j(sigma)); of modulus <= 1 for real coupling and real sigma."""
    return cmath.exp(-v_kernel(params, j, sigma))


def dv_derivative(params: ModelParams, j: int, k: int, sigma) -> complex:
    """k-th sigma-derivative of -V_j at sigma, closed form.

    k = 1:  sum_p (-lam^2 sigma) / (p (p - i lam sigma)),
    k >= 2: (k-1)! sum_p (i lam)^k / (p - i lam sigma)^k.
    """
    if k < 1:
        raise ValueError(f"derivative order must be >= 1, got {k}")
    lam = complex(params.lam)
    sigma = complex(sigma)
    sl = params.slice_set(j)
    terms = []
    for p in range(sl.hi, sl.lo - 1, -1):
        den = p - 1j * lam * sigma
        if den == 0:
            raise DomainError(f"kernel pole at p = {p}")
        if k == 1:
            terms.append((-(lam**2) * sigma) / (p * den))
        else:
            terms.append(den ** (-k))
    total = numerics.kahan_sum(terms)
    if k == 1:
        return total
    return math.factorial(k - 1) * (1j * lam) ** k * total


@lru_cache(maxsize=None)
def partition_multiplicities(q: int) -> tuple[dict, ...]:
    """Integer partitions of q as multiplicity maps {part: count}.

    Generated from the lexicographically ascending part lists (the
    accel_asc recursion), so (1,1,...,1) comes first and (q,) last.
    """
    if q == 0:
        return ({},)
    out = []
    a = [0] * (q + 1)
    k = 1
    y = q - 1
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        l = k + 1
        while x <= y:
            a[k] = x
            a[l] = y
            parts = a[: k + 2]
            out.append(_multiplicity(parts))
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        out.append(_multiplicity(a[: k + 1]))
    return tuple(out)


def _multiplicity(parts) -> dict:
    m = {}
    for part in parts:
        m[part] = m.get(part, 0) + 1
    return m


def faa_di_bruno_weight(mult: dict) -> int:
    """Multinomial weight q! / prod_k m_k! (k!)^(m_k), exact integer."""
    q = sum(k * m for k, m in mult.items())
    den = 1
    for k, m in mult.items():
        den *= math.factorial(m) * math.factorial(k) ** m
    num = math.factorial(q)
    assert num % den == 0
    return num // den


def partition_weight_sum(d: int) -> Fraction:
    """sum over partitions of d of 1/prod(m_k! k^m_k); equals 1 for d >= 1."""
    total = Fraction(0)
    for mult in partition_multiplicities(d):
        den = 1
        for k, m in mult.items():
            den *= math.factorial(m) * k**m
        total += Fraction(1, den)
    return total


def dw_derivative(params: ModelParams, j: int, q: int, sigma) -> complex:
    """q-th sigma-derivative of W_j via the Faa di Bruno partition sum.

    d^q W = exp(-V) * sum over partitions {m_k} of q of
            q!/prod(m_k!(k!)^m_k) * prod_k [d^k(-V)]^(m_k).
    """
    if q < 0:
        raise ValueError(f"derivative order must be >= 0, got {q}")
    if q == 0:
        return w_kernel(params, j, sigma)
    dv_cache = {k: dv_derivative(params, j, k, sigma) for k in range(1, q + 1)}
    total = 0.0 + 0.0j
    for mult in partition_multiplicities(q):
        term = complex(faa_di_bruno_weight(mult))
        for k, m in mult.items():
            term *= dv_cache[k] ** m
        total += term
    return cmath.exp(-v_kernel(params, j, sigma)) * total


# --- vectorized grid route (engine plumbing) --------------------------------


def dw_grid(params: ModelParams, j: int, q: int, sigma: np.ndarray) -> np.ndarray:
    """Vectorized q-th derivative of W_j on a grid of sigma values."""
    sl = params.slice_set(j)
    w, dv_cache = numerics.kernel_bundle(complex(params.lam), sl.lo, sl.hi, q, sigma)
    if q == 0:
        return w
    expv = 1.0 + w
    total = np.zeros_like(expv)
    for mult in partition_multiplicities(q):
        term = np.full_like(expv, float(faa_di_bruno_weight(mult)))
        for k, m in mult.items():
            term = term * dv_cache[k] ** m
        total = total + term
    return expv * total
