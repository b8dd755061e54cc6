"""Grassmann Gaussian integrals as signed minors, with a brute-force oracle.

The integral

    I(M; a, b) = int prod_i (dpsibar_i dpsi_i) exp(-psibar M psi)
                 psi_(a_1) psibar_(b_1) ... psi_(a_k) psibar_(b_k)

equals, up to a sign fixed below, the determinant of M with rows b and
columns a deleted.  The sign is locked by exhaustive agreement with the
brute-force algebra (tested for every index choice at dimension <= 5):

    I = eps(sort a) * eps(sort b) * (-1)^(sum a + sum b) * det(M[b-hat, a-hat])

with 0-based indices and eps the parity of the permutation sorting the
list.  The Fermionic factor of an expansion term assembles the 2^k
exchange-pattern minors of the lifted matrix Y: the path minima of the
jungle's union forest, its Bosonic edges at weight 1 and its Fermionic
edges at their weights, times the slice delta.  Minors act on the last
two axes, so ``exchange_sum`` takes a stack of lifted matrices, with one
stacked determinant per exchange pattern, and edge weights given as
broadcastable arrays yield the factor at all their points at once.  The
engine gathers its stacks one ordering cell at a time; the path-minimum
``lifted_y_matrix`` serves any point.  Real stacks stay real.

Monomials for the brute-force route are coefficient maps keyed by
(psi bitmask, psibar bitmask) relative to the canonical word
psi_(i1)...psi_(ir) psibar_(j1)...psibar_(js) with ascending indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import Jungle
from .interpolation import _read_only, min_over_paths

BRUTE_FORCE_BUDGET = 8
# rounding allowance of check_minor_bound's inequalities
MINOR_BOUND_TOL = 1e-10


def _merge_parity(mask_a: int, mask_b: int) -> int:
    """Parity (+-1) of interleaving two ascending index words.

    Counts, over the set bits b of mask_b, the bits of mask_a above b.
    """
    sign = 1
    b = mask_b
    while b:
        low = b & -b
        above = mask_a & ~(low | (low - 1))
        if bin(above).count("1") % 2:
            sign = -sign
        b ^= low
    return sign


def _mono_mul(key1, key2):
    """Product of two canonical monomials; None if it vanishes."""
    p1, q1 = key1
    p2, q2 = key2
    if (p1 & p2) or (q1 & q2):
        return None
    sign = 1
    # move the second psi block left across the first psibar block
    if bin(p2).count("1") % 2 and bin(q1).count("1") % 2:
        sign = -sign
    sign *= _merge_parity(p1, p2)
    sign *= _merge_parity(q1, q2)
    return (p1 | p2, q1 | q2), sign


def algebra_mul(A: dict, B: dict) -> dict:
    out: dict = {}
    for k1, c1 in A.items():
        for k2, c2 in B.items():
            res = _mono_mul(k1, k2)
            if res is None:
                continue
            key, sign = res
            val = out.get(key, 0) + sign * c1 * c2
            if val == 0:
                out.pop(key, None)
            else:
                out[key] = val
    return out


def exp_neg_bilinear(matrix) -> dict:
    """Expansion of exp(-psibar M psi) as prod_(i,j) (1 + M_ij psi_j psibar_i)."""
    dim = len(matrix)
    out = {(0, 0): 1}
    for i in range(dim):
        for j in range(dim):
            m = matrix[i][j] if not isinstance(matrix, np.ndarray) else matrix[i, j]
            if m == 0:
                continue
            factor = {(0, 0): 1, (1 << j, 1 << i): m}
            out = algebra_mul(out, factor)
    return out


def generator(kind: str, index: int) -> dict:
    if kind == "psi":
        return {(1 << index, 0): 1}
    if kind == "psibar":
        return {(0, 1 << index): 1}
    raise ValueError(f"unknown generator kind {kind!r}")


@lru_cache(maxsize=None)
def _top_monomial_sign(dim: int) -> int:
    """Sign s with psi_d psibar_d ... psi_1 psibar_1 = s * canonical top word."""
    elem = {(0, 0): 1}
    for i in range(dim - 1, -1, -1):
        elem = algebra_mul(elem, generator("psi", i))
        elem = algebra_mul(elem, generator("psibar", i))
    full = (1 << dim) - 1
    return elem[(full, full)]


def monomial_element(monomial) -> dict:
    """Product of an ordered generator list as a (possibly zero) element."""
    elem = {(0, 0): 1}
    for kind, index in monomial:
        elem = algebra_mul(elem, generator(kind, index))
        if not elem:
            return {}
    return elem


def berezin_integral(dim: int, elem: dict):
    """Integral of an expanded algebra element against prod_i dpsibar_i dpsi_i."""
    full = (1 << dim) - 1
    return elem.get((full, full), 0) * _top_monomial_sign(dim)


def brute_force_grassmann(dim: int, matrix, monomial) -> complex:
    """Berezin integral of exp(-psibar M psi) times an ordered monomial.

    The measure is prod_i dpsibar_i dpsi_i, normalized so that the empty
    monomial returns det(M).  Repeated generators annihilate the integrand
    and yield 0.  Entries may be floats, complex numbers or Fractions.
    """
    if dim > BRUTE_FORCE_BUDGET:
        raise ValueError(f"brute force budgeted to dimension {BRUTE_FORCE_BUDGET}")
    for _, index in monomial:
        if not 0 <= index < dim:
            raise ValueError(f"generator index {index} out of range")
    mono = monomial_element(monomial)
    if not mono:
        return 0
    return berezin_integral(dim, algebra_mul(exp_neg_bilinear(matrix), mono))


def _sort_parity(indices) -> int:
    """Parity (+-1) of the permutation sorting the list, by inversion count."""
    inv = 0
    items = list(indices)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _minor_indices(shape, cols, rows):
    """The kept rows, as a column, the kept columns and the sign of the
    minor of the defining Grassmann integral with the ordered deletion
    lists cols and rows, for matrices of the given (rows, columns) shape:
    the minor is sign * det(matrix[..., kept rows, kept columns])."""
    keep_rows = np.array([i for i in range(shape[0]) if i not in rows], dtype=int)[:, None]
    keep_cols = np.array([i for i in range(shape[1]) if i not in cols], dtype=int)
    sign = _sort_parity(cols) * _sort_parity(rows)
    if (sum(cols) + sum(rows)) % 2:
        sign = -sign
    return keep_rows, keep_cols, sign


def grassmann_minor(matrix, cols, rows):
    """Value of the defining Grassmann integral, sign included, for the
    ordered deletion lists cols (the psi indices a) and rows (the psibar
    indices b), acting on the last two axes.

    A stack of matrices along the leading axes gives the stack of values,
    one per matrix.
    """
    if len(cols) != len(rows):
        raise ValueError("need equally many removed columns and rows")
    if len(set(cols)) != len(cols) or len(set(rows)) != len(rows):
        raise ValueError("index collision in a removal list")
    arr = np.asarray(matrix)
    dim = arr.shape[-1]
    for i in (*cols, *rows):
        if not 0 <= i < dim:
            raise ValueError(f"index {i} out of range for dimension {dim}")
    keep_rows, keep_cols, sign = _minor_indices(arr.shape[-2:], cols, rows)
    return sign * np.linalg.det(arr[..., keep_rows, keep_cols])


# --- Fermionic factor of an expansion term ----------------------------------


def hardcore_violated(jungle: Jungle, slices) -> bool:
    """True iff some Bosonic block carries two vertices of equal slice."""
    for block in jungle.partition().blocks:
        js = [slices[v] for v in block]
        if len(set(js)) != len(js):
            return True
    return False


def slice_delta_violated(jungle: Jungle, slices) -> bool:
    """True iff some Fermionic edge joins vertices of different slices."""
    return any(slices[u] != slices[v] for u, v in jungle.fermionic)


def lifted_y_matrix(jungle: Jungle, slices, weights: dict) -> np.ndarray:
    """Vertex-level matrix Y_ab = delta(j_a, j_b) times the least Fermionic
    weight on the path that joins the blocks of a and b, zero where no path
    does.

    The Bosonic and Fermionic edges together form a forest, the union
    forest.  Its path from a to b crosses exactly the Fermionic edges of the
    block path, and a Bosonic edge at weight 1 lowers no minimum, so Y is
    the path-minimum matrix of the union forest times the slice delta.

    Scalar weights give one (n, n) matrix; broadcastable array weights give
    one matrix per point of their broadcast shape S, shape S + (n, n).
    """
    union = dict.fromkeys(jungle.bosonic.edges, 1.0) | {e: weights[e] for e in jungle.fermionic}
    js = np.asarray(slices)
    return min_over_paths(jungle.n, list(union), union) * (js[:, None] == js)


@lru_cache(maxsize=None)
def _exchange_patterns(jungle: Jungle) -> tuple:
    """The (kept rows, kept columns, sign) of ``_minor_indices`` on the
    jungle's n x n lifted Y for the deletion lists of the 2^k exchange
    patterns of its Fermionic edges, in pattern order, without those that
    repeat a generator: their exchange term vanishes.  Fixed once per
    jungle, so no call repeats the checks and parities of
    ``grassmann_minor``.  Cached, so read-only."""
    edges = sorted(jungle.fermionic)
    out = []
    for pattern in range(1 << len(edges)):
        cols = tuple(v if pattern >> i & 1 else u for i, (u, v) in enumerate(edges))
        rows = tuple(u if pattern >> i & 1 else v for i, (u, v) in enumerate(edges))
        if len(set(cols)) == len(edges) and len(set(rows)) == len(edges):
            keep_rows, keep_cols, sign = _minor_indices((jungle.n, jungle.n), cols, rows)
            out.append((*_read_only(keep_rows, keep_cols), sign))
    return tuple(out)


def exchange_sum(jungle: Jungle, y):
    """The sum over the exchange patterns of the jungle's Fermionic edges
    of the minors of the lifted Y: a float for one matrix, an array for a
    stack of them."""
    total = np.zeros(y.shape[:-2])
    for keep_rows, keep_cols, sign in _exchange_patterns(jungle):
        total = total + sign * np.linalg.det(y[..., keep_rows, keep_cols])
    return total if total.ndim else float(total)


def fermionic_factor(jungle: Jungle, slices, weights: dict):
    """Fermionic weight of a term at one point of its edge weights: the
    exchange sum of the lifted Y, and zero where the hardcore rule or the
    slice delta fails.

    Scalar weights give a float; broadcastable array weights give the
    factors at every point of their broadcast shape, an array of it.
    """
    y = lifted_y_matrix(jungle, slices, weights)
    if hardcore_violated(jungle, slices) or slice_delta_violated(jungle, slices):
        total = np.zeros(y.shape[:-2])
        return total if total.ndim else 0.0
    return exchange_sum(jungle, y)


def fermionic_factor_brute(jungle: Jungle, slices, weights: dict) -> float:
    """Independent route: Berezin integral of exp(-chibar Y chi) times
    prod over Fermionic edges of (chi_a chibar_b + chi_b chibar_a)."""
    if jungle.n > BRUTE_FORCE_BUDGET:
        raise ValueError("brute-force Fermionic factor budgeted to 8 vertices")
    if hardcore_violated(jungle, slices) or slice_delta_violated(jungle, slices):
        return 0.0
    y = lifted_y_matrix(jungle, slices, weights)
    elem = exp_neg_bilinear(y)
    for u, v in sorted(jungle.fermionic):
        pair = {}
        for key, sign in (
            _mono_mul((1 << u, 0), (0, 1 << v)),
            _mono_mul((1 << v, 0), (0, 1 << u)),
        ):
            pair[key] = pair.get(key, 0) + sign
        elem = algebra_mul(elem, pair)
    return float(berezin_integral(jungle.n, elem))


# --- bound checks ------------------------------------------------------------


@dataclass
class MinorBoundReport:
    trials: int
    worst_abs_excess: float
    worst_cauchy_schwarz_excess: float
    worst_diag_low: float
    worst_diag_high: float
    ok: bool


def check_minor_bound(matrix: np.ndarray, trials: int, rng=None) -> MinorBoundReport:
    """Sample index lists and check |minor| <= 1, the minor Cauchy-Schwarz
    inequality and the Hadamard bound for diagonal minors.

    The matrix must be symmetric PSD with unit diagonal.
    """
    arr = np.asarray(matrix, dtype=float)
    n = arr.shape[0]
    if not np.allclose(np.diag(arr), 1.0, atol=1e-12):
        raise ValueError("matrix must have unit diagonal")
    if not np.allclose(arr, arr.T, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    if float(np.linalg.eigvalsh(arr).min()) < -1e-10:
        raise ValueError("matrix must be positive semidefinite")
    rng = np.random.default_rng(rng)
    worst_abs = 0.0
    worst_cs = 0.0
    worst_dlow = 0.0
    worst_dhigh = 0.0
    for _ in range(trials):
        k = int(rng.integers(0, n + 1))
        a = tuple(rng.permutation(n)[:k])
        b = tuple(rng.permutation(n)[:k])
        m_ab = grassmann_minor(arr, a, b).real
        m_aa = grassmann_minor(arr, a, a).real
        m_bb = grassmann_minor(arr, b, b).real
        worst_abs = max(worst_abs, abs(m_ab) - 1.0)
        worst_cs = max(worst_cs, m_ab**2 - m_aa * m_bb)
        worst_dlow = max(worst_dlow, -min(m_aa, m_bb))
        worst_dhigh = max(worst_dhigh, max(m_aa, m_bb) - 1.0)
    ok = max(worst_abs, worst_cs, worst_dlow, worst_dhigh) <= MINOR_BOUND_TOL
    return MinorBoundReport(trials, worst_abs, worst_cs, worst_dlow, worst_dhigh, ok)
