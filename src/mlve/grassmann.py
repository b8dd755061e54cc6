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
exchange-pattern minors of the slice-delta-lifted block matrix Y.

Monomials for the brute-force route are coefficient maps keyed by
(psi bitmask, psibar bitmask) relative to the canonical word
psi_(i1)...psi_(ir) psibar_(j1)...psibar_(js) with ascending indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .combinatorics import Jungle
from .interpolation import layered_decomposition, min_over_paths

BRUTE_FORCE_BUDGET = 8


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


@dataclass(frozen=True)
class MinorSpec:
    """A matrix with ordered column and row deletion lists."""

    matrix: object
    removed_cols: tuple
    removed_rows: tuple

    def __post_init__(self):
        a, b = self.removed_cols, self.removed_rows
        if len(a) != len(b):
            raise ValueError("need equally many removed columns and rows")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValueError("index collision in a removal list")
        dim = len(self.matrix)
        for i in list(a) + list(b):
            if not 0 <= i < dim:
                raise ValueError(f"index {i} out of range for dimension {dim}")


def _sort_parity(indices) -> int:
    """Parity (+-1) of the permutation sorting the list, by inversion count."""
    inv = 0
    items = list(indices)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _det(matrix) -> complex:
    """Determinant; exact cofactor expansion for object entries (Fractions)."""
    arr = np.asarray(matrix)
    if arr.size == 0:
        return 1.0
    if arr.dtype != object:
        return complex(np.linalg.det(arr.astype(complex)))
    return _det_exact([list(row) for row in arr])


def _det_exact(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = 0
    for col in range(n):
        if rows[0][col] == 0:
            continue
        sub = [[r[c] for c in range(n) if c != col] for r in rows[1:]]
        sign = -1 if col % 2 else 1
        total += sign * rows[0][col] * _det_exact(sub)
    return total


def grassmann_minor(spec: MinorSpec) -> complex:
    """Value of the defining Grassmann integral, sign included."""
    a, b = spec.removed_cols, spec.removed_rows
    arr = np.asarray(spec.matrix)
    keep_rows = [i for i in range(arr.shape[0]) if i not in set(b)]
    keep_cols = [i for i in range(arr.shape[1]) if i not in set(a)]
    sub = arr[np.ix_(keep_rows, keep_cols)] if keep_rows and keep_cols else arr[:0, :0]
    sign = _sort_parity(a) * _sort_parity(b)
    if (sum(a) + sum(b)) % 2:
        sign = -sign
    return sign * _det(sub)


def minor_value(matrix, cols, rows) -> complex:
    return grassmann_minor(MinorSpec(matrix, tuple(cols), tuple(rows)))


# --- Fermionic factor of an expansion term ----------------------------------


@dataclass(frozen=True)
class FermionicFactorInput:
    jungle: Jungle
    slices: tuple
    weights: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.slices) != self.jungle.n:
            raise ValueError("need one slice per vertex")


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
    """Vertex-level matrix Y_ab = Y_(B(a)B(b))(w) * delta(j_a, j_b)."""
    part = jungle.partition()
    block_of = part.block_of()
    nb = len(part.blocks)
    block_edges = {be: weights[e] for be, e in jungle.block_level_edges()}
    yblk = min_over_paths(nb, list(block_edges), block_edges)
    n = jungle.n
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if slices[a] == slices[b]:
                out[a, b] = yblk[block_of[a], block_of[b]]
    return out


def layered_lifted_terms(jungle: Jungle, slices, weights: dict):
    """Sum-of-squares layers reproducing lifted Y: (coeff, indicator vector).

    The layered decomposition of the block-level Fermionic forest gives
    Y = sum_i c_i sum_f 1_f 1_f^T over block components f; the slice
    delta splits each component into one rank-one term per slice j, on
    the vertices of f carrying slice j.
    """
    part = jungle.partition()
    block_of = part.block_of()
    block_weights = {be: weights[e] for be, e in jungle.block_level_edges()}
    terms = []
    for coeff, comps in layered_decomposition(len(part.blocks), list(block_weights), block_weights):
        for comp in comps:
            for j in sorted(set(slices)):
                vec = np.array([1.0 if block_of[v] in comp and slices[v] == j else 0.0 for v in range(jungle.n)])
                if vec.any():
                    terms.append((coeff, vec))
    return terms


def fermionic_factor(inp: FermionicFactorInput) -> float:
    """Fermionic weight of a term: hardcore and slice deltas, then the
    sum over the 2^k exchange patterns of minors of the lifted Y."""
    jungle, slices = inp.jungle, inp.slices
    if hardcore_violated(jungle, slices) or slice_delta_violated(jungle, slices):
        return 0.0
    y = lifted_y_matrix(jungle, slices, inp.weights)
    edges = sorted(jungle.fermionic)
    k = len(edges)
    total = 0.0
    for pattern in range(1 << k):
        cols, rows = [], []
        for i, (u, v) in enumerate(edges):
            if pattern >> i & 1:
                cols.append(v)
                rows.append(u)
            else:
                cols.append(u)
                rows.append(v)
        if len(set(cols)) < k or len(set(rows)) < k:
            continue  # repeated generator: the exchange term vanishes
        total += grassmann_minor(MinorSpec(y, tuple(cols), tuple(rows)))
    return float(total.real) if isinstance(total, complex) else float(total)


def fermionic_factor_brute(inp: FermionicFactorInput) -> float:
    """Independent route: Berezin integral of exp(-chibar Y chi) times
    prod over Fermionic edges of (chi_a chibar_b + chi_b chibar_a)."""
    jungle, slices = inp.jungle, inp.slices
    if jungle.n > BRUTE_FORCE_BUDGET:
        raise ValueError("brute-force Fermionic factor budgeted to 8 vertices")
    if hardcore_violated(jungle, slices) or slice_delta_violated(jungle, slices):
        return 0.0
    y = lifted_y_matrix(jungle, slices, inp.weights)
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


def check_minor_bound(matrix: np.ndarray, trials: int, rng=None, tol: float = 1e-10) -> MinorBoundReport:
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
        m_ab = grassmann_minor(MinorSpec(arr, a, b)).real
        m_aa = grassmann_minor(MinorSpec(arr, a, a)).real
        m_bb = grassmann_minor(MinorSpec(arr, b, b)).real
        worst_abs = max(worst_abs, abs(m_ab) - 1.0)
        worst_cs = max(worst_cs, m_ab**2 - m_aa * m_bb)
        worst_dlow = max(worst_dlow, -min(m_aa, m_bb))
        worst_dhigh = max(worst_dhigh, max(m_aa, m_bb) - 1.0)
    ok = worst_abs <= tol and worst_cs <= tol and worst_dlow <= tol and worst_dhigh <= tol
    return MinorBoundReport(trials, worst_abs, worst_cs, worst_dlow, worst_dhigh, ok)
