"""Exact reference values for the partition function.

In the intermediate-field representation Z is a one-dimensional Gaussian
integral,

    Z(lam, N) = int dnu(sigma) prod_p 1/(1 - i lam sigma/p) e^(-i lam sigma/p),

with p running over the full cutoff window [p_lo, cutoff].  The
quadrature integrates that one product, the kernel W of the whole
window, and none of the slice decomposition that the expansion it
checks is built on.  Gauss-Hermite quadrature of moderate order nails it
to machine precision at desk scale; reliability is defined operationally
by node doubling, with the rule and its doubled rule evaluated over their
joined nodes in one kernel call; ``checked_logz`` is the one rule for
when Z has a log.  The sweep skips the outer nodes of each rule whose
weights times a proven bound on the integrand (``growth_rate``) sum to
less than ``PRUNE``, far below the rounding of any Z that has a log.
One cached route, ``_outer_cuts``, cuts both rules at every coupling;
where no bound holds, as at lambda = 0, it cuts nothing.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from . import numerics
from .errors import QuadratureUnreliableError
from .model_core import ModelParams

DOUBLING_TOL = 1e-10
# log Z is taken only where |Z| is at least this far from 0.
MIN_ABS_Z = 1e-8
# Gauss-Hermite nodes of a Z quadrature by default, and the fewest it accepts.
DEFAULT_NODES = 200
MIN_NODES = 50
# A rule leaves out of the sweep the outer nodes whose weights times the
# integrand bound sum to less than this: 2^-60 of the smallest |Z| that
# has a log, so far below the rounding of any such Z.  It is derived from
# MIN_ABS_Z, not tuned.
PRUNE = MIN_ABS_Z * 2.0**-60
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


def _integrand_m1(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """W = prod_p e^z/(1 + z) - 1, z = -i lam x/p, over the full window
    [p_lo, cutoff] at the nodes x, from one kernel call.

    The weights of a rule sum to 1 only up to a few ulps, so the rules
    integrate this and add 1: the error of 1 - sum w would otherwise enter
    log Z at every coupling.
    """
    return numerics.kernel_bundle(params.lam, [(params.p_lo, params.cutoff)], 0, x)[0][0]


def growth_rate(lam: complex, lo: int, hi: int) -> float:
    """A rate c with log |prod_(p=lo..hi) e^z/(1 + z)| <= c |sigma|, z = -i lam sigma/p,
    so that the kernel of the window has |W| <= 1 + exp(c |sigma|).

    Where |Re lam| > |Im lam|, cos(2 arg z) = -cos(2 gamma) < 0.  A factor
    with Re z >= 0 has |1 + z| >= 1, so its log-modulus Re z - log|1 + z|
    is at most Re z; with Re z < 0 its derivative in t = |z|,
    t (cos 2 arg z + t cos arg z) / |1 + z|^2, is negative, so it falls from
    0.  Each factor is then at most |Re z| = |Im lam| |sigma| / p, and
    sum_p 1/p <= 1/lo + log(hi/lo), so c = |Im lam| (1/lo + log(hi/lo)).
    Elsewhere a factor can come near its pole at z = -1: no rate, inf.
    """
    lam = complex(lam)
    if abs(lam.real) <= abs(lam.imag):
        return math.inf
    return abs(lam.imag) * (1.0 / lo + math.log(hi / lo))


# keyed on a float rate, so bounded: a scan over complex couplings adds
# one key per coupling
@lru_cache(maxsize=256)
def _outer_cuts(nodes: int, rate: float) -> tuple[int, int]:
    """Nodes left out at each end of the rules of ``nodes`` and 2 ``nodes``
    nodes at a coupling's ``growth_rate``: 0 at a real coupling, inf where
    no rate holds.  Each rule leaves out the most whose weights times the
    bound 1 + exp(rate |x|) on the integrand |W| sum, over both ends, to
    less than ``PRUNE``, so none at rate inf; the doubled rule then keeps
    its nodes up to the first at or past the other's largest."""
    cuts = []
    for size in (nodes, 2 * nodes):
        x, w = (a[: size // 2] for a in gauss_hermite_norm(size))  # the nodes below 0, outermost first
        with np.errstate(over="ignore", invalid="ignore"):
            bound = w + w * np.exp(rate * -x)
        bound[np.isnan(bound)] = math.inf  # a weight that underflows to 0 under an overflowing bound
        # the two ends of a rule sum the same, so each end sums to less than PRUNE / 2
        cuts.append(int(np.searchsorted(np.cumsum(bound), PRUNE / 2)))
    x_a, x_b = gauss_hermite_norm(nodes)[0], gauss_hermite_norm(2 * nodes)[0]
    return cuts[0], min(cuts[1], 2 * nodes - 1 - int(np.searchsorted(x_b, x_a[nodes - 1 - cuts[0]])))


def kept_rules(params: ModelParams, nodes: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The Gauss-Hermite rules of ``nodes`` and 2 ``nodes`` nodes, each cut
    to the central nodes that ``z_reliable`` sweeps.

    Each rule leaves out the outer nodes of ``_outer_cuts``, the one cut
    route for every coupling, cached on (nodes, rate), at the rate
    ``growth_rate`` of the full window; the doubled rule keeps at least one
    node as far out as the largest the other keeps.  Both stay
    mirror-symmetric, and where no rate holds both are whole.
    """
    cuts = _outer_cuts(nodes, growth_rate(params.lam, params.p_lo, params.cutoff))
    rules = gauss_hermite_norm(nodes), gauss_hermite_norm(2 * nodes)
    return tuple((x[cut : len(x) - cut], w[cut : len(w) - cut]) for cut, (x, w) in zip(cuts, rules))


def z_reliable(params: ModelParams, nodes: int = DEFAULT_NODES) -> tuple[complex, float, bool]:
    """Value at 2*nodes, the doubling delta, and the reliability verdict.

    Both rules, cut to their ``kept_rules`` by the one cut route, take one
    kernel call over their joined nodes, one sweep of the full window; the
    nodes a rule leaves out would move its Z by less than ``PRUNE`` in
    all.  The doubled rule holds the largest node, so a long window
    splits, and sizes its tail series, where it would for that kept rule
    alone, and its Z equals that rule's integrated alone; the smaller
    rule's Z, which only enters the delta, may move at rounding level.
    Where ``growth_rate`` has no bound the rules are whole; at lambda = 0
    the kernel is exactly 0, so the sweep gives Z = 1 and delta 0.  A Z
    that overflows is a ValueError, with no floating-point warning.
    """
    if nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} quadrature nodes")
    (x_a, w_a), (x_b, w_b) = kept_rules(params, nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        acc = _integrand_m1(params, np.concatenate((x_a, x_b)))
        a = 1.0 + complex(np.sum(w_a * acc[: len(x_a)]))
        b = 1.0 + complex(np.sum(w_b * acc[len(x_a) :]))
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


def logz_oracle(params: ModelParams, nodes: int = DEFAULT_NODES) -> complex:
    """checked_logz of the quadrature Z at nodes and 2*nodes."""
    return checked_logz(*z_reliable(params, nodes))
