"""Exact reference values for the partition function.

In the intermediate-field representation Z is a one-dimensional Gaussian
integral,

    Z(lam, N) = int dnu(sigma) prod_p 1/(1 - i lam sigma/p) e^(-i lam sigma/p)
              = int dnu(sigma) prod_j (1 + W_j(sigma)),

with p running over the full slice window and j over its slices.  The
quadrature integrates the slice product, so each factor takes the
accurate route of its own window.  Gauss-Hermite quadrature of moderate
order nails it to machine precision at desk scale; reliability is
defined operationally by node doubling, with the rule and its doubled
rule evaluated in one kernel sweep per slice over their joined nodes;
``checked_logz`` is the one rule for when Z has a log.  The module also
gives the coefficients of log Z in the quartic coupling g = lam^2 as
exact rationals: exp(-V) by the recurrence of E' = (-V)' E and its log
by ``mayer.series_log``, the recurrence of Z' = Z (log Z)'.  Only the
tests call them, with the power expansion of log(1 + A) as the oracle.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import numerics
from .errors import QuadratureUnreliableError
from .mayer import series_log
from .model_core import ModelParams

DOUBLING_TOL = 1e-10
# log Z is taken only where |Z| is at least this far from 0.
MIN_ABS_Z = 1e-8
# Fewest Gauss-Hermite nodes a Z quadrature accepts.
MIN_NODES = 50
# Most nodes a run may ask for: the doubled rule then has 3,200 nodes and
# a dense 3,200 x 3,200 Jacobi matrix, a few seconds to solve.
MAX_NODES = 1600


@lru_cache(maxsize=None)
def gauss_hermite_norm(nodes: int):
    """Probabilists' Gauss-Hermite rule normalized to the N(0,1) measure.

    Golub-Welsch on numpy.  The nodes are the eigenvalues of the Jacobi
    matrix of the monic Hermite recurrence (zero diagonal, off-diagonal
    sqrt(k)), polished by one Newton step on q_n: q_k are the orthonormal
    Hermite polynomials, and q_n' = sqrt(n) q_(n-1).  The weights equal the
    squared first components of the unit eigenvectors; they are computed
    as the Christoffel numbers 1 / sum_(k<n) q_k(x)^2, with the recurrence
    rescaled at each step and the sum kept as a log.  Tail weights then
    keep their relative accuracy down to underflow, where squared
    eigenvector components stop near 1e-50 and skew high moments.  Nodes
    and weights are made exactly mirror-symmetric, so a real coupling gives
    Im Z at rounding level.  Set-up costs O(nodes^3) for the dense
    eigenvalue solve, once per node count.
    """
    x = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1.0, nodes)), 1), UPLO="U")
    # (prev, cur) = (q_(k-1), q_k) / sqrt(sum_(i<=k) q_i^2); log_sum = log of that sum
    prev, cur, log_sum = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    for k in range(1, nodes):
        nxt = (x * cur - math.sqrt(k - 1) * prev) / math.sqrt(k)
        grow = 1.0 + nxt * nxt
        norm = np.sqrt(grow)
        prev, cur = cur / norm, nxt / norm
        log_sum += np.log(grow)
    q_n = (x * cur - math.sqrt(nodes - 1) * prev) / math.sqrt(nodes)
    x = x - q_n / (math.sqrt(nodes) * cur)
    w = np.exp(-log_sum)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def _slice_product_m1(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """prod_j (1 + W_j) - 1 at the nodes x, accumulated as acc + W + acc W.

    The weights of a rule sum to 1 only up to a few ulps, so the rules
    integrate this and add 1: the error of 1 - sum w would otherwise enter
    log Z at every coupling.
    """
    acc = np.zeros_like(x, dtype=complex)
    for j in params.slices:
        sl = params.slice_set(j)
        wj = numerics.kernel_bundle(params.lam, sl.lo, sl.hi, 0, x)[0]
        acc += wj + acc * wj
    return acc


def z_reliable(params: ModelParams, nodes: int = 200) -> tuple[complex, float, bool]:
    """Value at 2*nodes, the doubling delta, and the reliability verdict.

    Both rules take one kernel sweep per slice over their joined nodes.
    The doubled rule holds the largest node, so a long window splits, and
    sizes its tail series, where it would for that rule alone, and its Z
    equals that rule's integrated alone; the smaller rule's Z, which only
    enters the delta, may move at rounding level.  A Z that overflows is
    a ValueError, with no floating-point warning on the way.
    """
    if nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} quadrature nodes")
    if params.lam == 0:
        return 1.0 + 0.0j, 0.0, True
    x_a, w_a = gauss_hermite_norm(nodes)
    x_b, w_b = gauss_hermite_norm(2 * nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        acc = _slice_product_m1(params, np.concatenate((x_a, x_b)))
        a = 1.0 + complex(np.sum(w_a * acc[:nodes]))
        b = 1.0 + complex(np.sum(w_b * acc[nodes:]))
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise ValueError(f"Z is not finite at {nodes} or {2 * nodes} nodes: the integrand overflows")
    delta = abs(a - b)
    return b, delta, delta < DOUBLING_TOL


def checked_logz(z: complex, delta: float, reliable: bool) -> complex:
    """Principal log of a quadrature Z from z_reliable; raises if the
    quadrature is not node-doubling stable or Z is too close to 0 for a
    meaningful log."""
    if not reliable:
        raise QuadratureUnreliableError(
            f"node doubling moved Z by {delta:.3e} (tolerance {DOUBLING_TOL:.0e})"
        )
    if abs(z) < MIN_ABS_Z:
        raise ValueError(f"Z = {z} too close to zero for a stable logarithm")
    return cmath.log(z)


def logz_oracle(params: ModelParams, nodes: int = 200) -> complex:
    """checked_logz of the quadrature Z at nodes and 2*nodes."""
    return checked_logz(*z_reliable(params, nodes))


# --- perturbative coefficients ----------------------------------------------


def _series_exp(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """exp of a power series with zero constant term, truncated."""
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    # exp(A)' = A' exp(A):  (n+1) e_(n+1) = sum_k (k+1) a_(k+1) e_(n-k)
    for n in range(order):
        acc = Fraction(0)
        for k in range(n + 1):
            acc += (k + 1) * coeffs[k + 1] * out[n - k]
        out[n + 1] = acc / (n + 1)
    return out


def logz_series_g(p_lo: int, p_hi: int, order: int) -> list[Fraction]:
    """Coefficients c_1..c_order of log Z = sum c_k g^k, exact rationals.

    With z = i lam sigma, the interaction exponent is
    -V = sum_(k>=2) u_k z^k / k, u_k = sum_p p^(-k); exp(-V) is a series
    in z with rational coefficients h_t, and the Gaussian average kills
    odd powers while even ones pick up (2m-1)!! and a factor (-1)^m from
    i^(2m), leaving a real rational series in g.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if p_lo > p_hi:
        return [Fraction(0)] * order
    zmax = 2 * order
    u = {k: sum(Fraction(1, p**k) for p in range(p_lo, p_hi + 1)) for k in range(2, zmax + 1)}
    minus_v = [Fraction(0)] * (zmax + 1)
    for k in range(2, zmax + 1):
        minus_v[k] = u[k] / k
    h = _series_exp(minus_v, zmax)
    # Z = 1 + sum_(m>=1) h_(2m) (-1)^m (2m-1)!! g^m
    z = [Fraction(1)] + [Fraction(0)] * order
    for m in range(1, order + 1):
        dfact = math.factorial(2 * m) // (2**m * math.factorial(m))  # (2m-1)!!
        z[m] = h[2 * m] * Fraction((-1) ** m) * dfact
    return series_log(z, order)
