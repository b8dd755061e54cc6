"""Shared helpers: random spanning jungles, finite-difference oracles,
the degree count of labeled trees, the pointwise block oracle, the
enumeration oracles of the polymer-gas Mayer expansion, and the second
implementations that the package's one route per quantity is checked
against: the scalar kernel sums and their Faa di Bruno partition sum,
the single-rule quadrature of Z, the exact rational perturbative series
of log Z and the power expansion of its log, the forest-formula and replica identities, the
brute-force Berezin integral and the sampled minor bounds."""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np
import pytest

import mlve.engine
from mlve.combinatorics import (
    BlockPartition,
    Forest,
    Jungle,
    _degrees,
    enumerate_forests,
    enumerate_trees,
    norm_edge,
    prufer_decode,
)
from mlve.grassmann import grassmann_minor, hardcore_violated, lifted_y_matrix, slice_delta_violated
from mlve.interpolation import min_over_paths, ordering_cell
from mlve.model_core import ModelParams, dw_grid
from mlve.numerics import kernel_bundle
from mlve.mayer import series_log
from mlve.oracle import MIN_NODES, _integrand_m1, gauss_hermite_norm


def random_block_tree(rng, verts):
    """Random labeled tree on the given vertex list via a Prufer sequence."""
    b = len(verts)
    if b == 1:
        return frozenset()
    if b == 2:
        return frozenset({norm_edge(verts[0], verts[1])})
    seq = tuple(int(x) for x in rng.integers(0, b, size=b - 2))
    return frozenset(norm_edge(verts[u], verts[v]) for u, v in prufer_decode(seq, b))


def random_spanning_jungle(rng, n):
    """Uniform-ish random spanning jungle: random partition, random trees,
    random block-level tree, random hook vertices."""
    order = list(rng.permutation(n))
    blocks = []
    while order:
        size = int(rng.integers(1, len(order) + 1))
        blocks.append(sorted(order[:size]))
        order = order[size:]
    bos = frozenset().union(*(random_block_tree(rng, b) for b in blocks)) if blocks else frozenset()
    nb = len(blocks)
    ferm = set()
    if nb >= 2:
        block_tree = random_block_tree(rng, list(range(nb)))
        for bi, bj in block_tree:
            u = blocks[bi][rng.integers(len(blocks[bi]))]
            v = blocks[bj][rng.integers(len(blocks[bj]))]
            ferm.add(norm_edge(u, v))
    return Jungle(n, Forest(n, bos), frozenset(ferm))


def random_partition(rng, n):
    order = list(rng.permutation(n))
    blocks = []
    while order:
        size = int(rng.integers(1, len(order) + 1))
        blocks.append(frozenset(order[:size]))
        order = order[size:]
    return BlockPartition(n, tuple(blocks))


def count_trees_with_degrees(degrees) -> int:
    """Labeled trees with the given degree sequence: (q-2)! / prod (d_i - 1)!."""
    return math.factorial(len(degrees) - 2) // math.prod(math.factorial(d - 1) for d in degrees)


def kernel_slice(lam, lo, hi, max_k, sigma):
    """``numerics.kernel_bundle`` on the one slice [lo, hi]: W and the
    d^k(-V), each of the shape of sigma."""
    w, dv = kernel_bundle(lam, [(lo, hi)], max_k, sigma)
    return w[0], {k: v[0] for k, v in dv.items()}


def dw_slice(params, j, q, sigma):
    """``model_core.dw_grid`` on the one slice j: d^0 W_j .. d^q W_j, shape
    (q + 1, *sigma.shape)."""
    return dw_grid(params, [j], q, sigma)[0]


def bosonic_block_value(block, tree_edges, slices, weights, params) -> complex:
    """E[prod_a (d^(d_a) W_(j_a))(sigma_a)] at one interpolation point: the
    pointwise oracle of the engine's batched block integrals.

    block lists global vertex ids; tree_edges must span it; d_a is the
    tree degree (0 for a singleton).  sigma has the centered Gaussian law
    with covariance X restricted to the block.  Each vertex's kernel row
    comes from its own single-order ``dw_slice`` call on the engine's
    current SIGMA_GRID, and the layers are walked here at the one point,
    with their multipliers computed from its levels: every merge returns
    to Fourier space, and the last smoothed spectrum is read at sigma = 0
    through phases built here from the grid, so the engine's real-space
    readout is checked against an independent one.
    """
    verts = sorted(block)
    if len(tree_edges) != len(verts) - 1:
        raise ValueError("tree must span the block")
    local = {v: i for i, v in enumerate(verts)}
    edges = [norm_edge(local[u], local[v]) for u, v in tree_edges]
    grid = mlve.engine.SIGMA_GRID
    rows = [dw_slice(params, slices[v], d, grid)[d] for v, d in zip(verts, _degrees(len(verts), edges))]
    cell = sorted(zip(edges, (weights[e] for e in tree_edges)), key=lambda ew: -ew[1])
    # -k^2/2 at the grid's wavenumbers, and the phases that read an inverse
    # transform at its point sigma = 0, with k m reduced mod n exactly
    n, middle = grid.size, int(np.flatnonzero(grid == 0.0)[0])
    half_k2 = -0.5 * (2.0 * np.pi * np.fft.fftfreq(n, grid[1] - grid[0])) ** 2
    phase = np.exp(2j * np.pi * (np.arange(n) * middle % n) / n) / n
    bounds = [1.0, *(float(w) for _, w in cell), 0.0]
    comp = list(range(len(verts)))
    funcs = dict(enumerate(np.fft.fft(rows, axis=-1)))
    for i, (hi, lo) in enumerate(zip(bounds, bounds[1:])):
        if i:
            a, b = sorted(comp[v] for v in cell[i - 1][0])
            funcs[a] = np.fft.fft(np.fft.ifft(funcs[a]) * np.fft.ifft(funcs.pop(b)))
            comp = [a if x == b else x for x in comp]
        funcs = {x: f * np.exp((hi - lo) * half_k2) for x, f in funcs.items()}
    (spectrum,) = funcs.values()
    return complex(spectrum @ phase)


# --- the scalar kernel route and the single-rule quadrature of Z -------------
# Compensated direct sums, one sigma at a time: the references of
# ``numerics.kernel_bundle`` and ``model_core.dw_grid``.  d^q W is the Faa
# di Bruno sum over integer partitions of q, where the grid route takes
# the Leibniz recurrence of E' = (-V)' E.  They stop at a pole or on the
# log branch cut with DomainError; the grid routes check nothing there,
# and give a non-finite value at a pole.


class DomainError(ValueError):
    """An input hit a pole or a branch cut of one of the model kernels."""


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


def _checked_pole_terms(params, j, sigma):
    """Yield i*lam*sigma/p over the slice, raising at poles/branch hits."""
    sl = params.slice_set(j)
    x0 = 1j * complex(params.lam) * complex(sigma)
    for p in range(sl.hi, sl.lo - 1, -1):
        x = x0 / p
        if x == 1:
            raise DomainError(f"kernel pole at p = {p} (1 - i*lam*sigma/p = 0)")
        yield p, x


def cexpm1(z):
    """exp(z) - 1 without cancellation for small |z|, complex-safe."""
    z = complex(z)
    if abs(z) > 0.5:
        return cmath.exp(z) - 1.0
    # Horner form of the Taylor tail; 24 terms is far below 1 ulp at |z|=0.5.
    acc = 0.0 + 0.0j
    for k in range(24, 1, -1):
        acc = (acc + 1.0) * z / k
    return z * (1.0 + acc)


def v_kernel(params, j, sigma) -> complex:
    """V_j(sigma) = sum over the slice of log2m(i*lam*sigma/p)."""
    return kahan_sum(log2m(x) for _, x in _checked_pole_terms(params, j, sigma))


def w_kernel(params, j, sigma) -> complex:
    """W_j(sigma) = exp(-V_j(sigma)) - 1, cancellation-safe at small V."""
    return cexpm1(-v_kernel(params, j, sigma))


def exp_minus_v(params, j, sigma) -> complex:
    """exp(-V_j(sigma)); of modulus <= 1 for real coupling and real sigma."""
    return cmath.exp(-v_kernel(params, j, sigma))


def dv_derivative(params, j, k, sigma) -> complex:
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
    total = kahan_sum(terms)
    if k == 1:
        return total
    return math.factorial(k - 1) * (1j * lam) ** k * total


def dw_derivative(params, j, q, sigma) -> complex:
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


def z_sigma_quadrature(params, nodes) -> complex:
    """Gauss-Hermite value of Z at one whole rule, integrating the kernel W
    of the full window and adding 1: ``oracle.z_reliable`` takes this rule
    and its doubled rule, cut to their kept nodes, in one kernel sweep."""
    if nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} quadrature nodes")
    if params.lam == 0:
        return 1.0 + 0.0j  # integrand identically 1 under the normalized measure
    x, w = gauss_hermite_norm(nodes)
    return 1.0 + complex(np.sum(w * _integrand_m1(params, x)))


# --- exact perturbative series ---------------------------------------------
# ``logz_series_g`` gives the coefficients of log Z in g = lam^2 as exact
# rationals: exp(-V) by the recurrence of E' = (-V)' E, and its log by
# ``mayer.series_log``, the recurrence of Z' = Z (log Z)'.  The tests hold
# it against the quadrature log Z at small coupling, and its log against
# ``_series_log1p``, which expands the powers of A instead.


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


def _series_log1p(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """log(1 + A) for a series A with zero constant term, truncated."""
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(0)] * (order + 1)
    power[0] = Fraction(1)
    for m in range(1, order + 1):
        nxt = [Fraction(0)] * (order + 1)
        for i in range(order + 1):
            if power[i] == 0:
                continue
            for jj in range(1, order + 1 - i):
                nxt[i + jj] += power[i] * coeffs[jj]
        power = nxt
        sign = Fraction(-1) ** (m + 1)
        for i in range(order + 1):
            out[i] += sign * power[i] / m
    return out


def perturbative_coefficients(params: ModelParams, order: int) -> list[complex]:
    """First coefficients of log Z in g = lam^2; they depend only on the
    index window, not on how it is cut into slices."""
    if order > 4:
        raise ValueError("perturbative order budgeted to 4")
    exact = logz_series_g(params.p_lo, params.cutoff, order)
    return [complex(c) for c in exact]


# --- forest-formula and replica identities ---------------------------------
# ``forest_formula_eval`` checks the Taylor-with-remainder identity
# f(all-ones) = sum over forests of the w-integrated forest derivative,
# and ``replica_gaussian_eval`` its Gaussian-replica corollary for
# polynomial integrands, where everything reduces to exact Wick pairings.


def _validate_weights(edges, weights) -> None:
    if set(weights) != set(edges):
        raise ValueError("interpolation point must cover exactly the forest edges")
    for e, w in weights.items():
        if not np.all((0.0 <= w) & (w <= 1.0)):
            raise ValueError(f"weight {w} for edge {e} outside [0, 1]")


def x_matrix(forest: Forest, weights: dict) -> np.ndarray:
    """Interpolated covariance X^F(w) on the forest's vertices; weights of
    broadcastable shapes give the stack over their broadcast shape."""
    _validate_weights(forest.edges, weights)
    return min_over_paths(forest.n, forest.edges, weights)


class ExpEdgeFunction:
    """f(X) = exp(sum_l c_l X_l) over chosen off-diagonal entries."""

    def __init__(self, n: int, coeffs: dict):
        self.n = n
        self.coeffs = {norm_edge(*e): c for e, c in coeffs.items()}

    def value(self, X: np.ndarray) -> float:
        s = sum(c * X[e[0], e[1]] for e, c in self.coeffs.items())
        return math.exp(s)

    def forest_derivative(self, edges, X: np.ndarray) -> float:
        prod = 1.0
        for e in edges:
            prod *= self.coeffs.get(norm_edge(*e), 0.0)
        return prod * self.value(X)


def forest_formula_eval(n: int, func, quadrature_order: int = 16) -> float:
    """sum over forests of int dw (partial_F f)[X^F(w)]; equals f(all-ones)."""
    if n > 5:
        raise ValueError("forest formula evaluation budgeted to n <= 5")
    total = 0.0
    for forest in enumerate_forests(n):
        edges = sorted(forest.edges)
        levels, weights = ordering_cell(len(edges), quadrature_order)
        for order in permutations(edges):
            xs = x_matrix(forest, dict(zip(order, levels))).reshape(-1, n, n)
            total += sum(w * func.forest_derivative(edges, X) for X, w in zip(xs, weights.ravel()))
    return total


# --- polynomial Wick calculus for the replica corollary ---------------------


def poly_product(polys: list[dict], nvars: int) -> dict:
    out = {(0,) * nvars: 1.0}
    for p in polys:
        nxt: dict = {}
        for e1, c1 in out.items():
            for e2, c2 in p.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                nxt[key] = nxt.get(key, 0.0) + c1 * c2
        out = nxt
    return out


def poly_diff(poly: dict, var: int) -> dict:
    out: dict = {}
    for e, c in poly.items():
        if e[var] > 0:
            key = tuple(x - 1 if i == var else x for i, x in enumerate(e))
            out[key] = out.get(key, 0.0) + c * e[var]
    return out


def _wick(indices: tuple, cov: np.ndarray) -> float:
    if not indices:
        return 1.0
    if len(indices) % 2:
        return 0.0
    first, rest = indices[0], indices[1:]
    total = 0.0
    for pos in range(len(rest)):
        c = cov[first, rest[pos]]
        if c != 0.0:
            total += c * _wick(rest[:pos] + rest[pos + 1 :], cov)
    return total


def gaussian_expectation(poly: dict, cov: np.ndarray) -> float:
    """Exact centered-Gaussian expectation of a polynomial via Wick pairing."""
    total = 0.0
    for expo, coeff in poly.items():
        if coeff == 0.0:
            continue
        idx = []
        for var, p in enumerate(expo):
            idx.extend([var] * p)
        total += coeff * _wick(tuple(idx), cov)
    return total


def _expand_to_replicas(poly: dict, replica: int, n: int, ncomp: int) -> dict:
    out = {}
    for expo, coeff in poly.items():
        full = [0] * (n * ncomp)
        for p_idx, power in enumerate(expo):
            full[replica * ncomp + p_idx] = power
        out[tuple(full)] = coeff
    return out


def replica_gaussian_left(cov: np.ndarray, integrands: list[dict]) -> float:
    """Single-replica side: E[prod f_i(tau)] under covariance cov."""
    ncomp = cov.shape[0]
    prod = poly_product(list(integrands), ncomp)
    return gaussian_expectation(prod, cov)


def replica_gaussian_eval(n: int, cov: np.ndarray, integrands: list[dict]) -> float:
    """Replica forest expansion of E[prod f_i]; returns the forest-sum side.

    integrands are polynomials as {exponent tuple over components: coeff}.
    The w-integrands are polynomials in w on every ordering cell, so
    Gauss-Legendre with max(4, total degree + 1) nodes is exact.
    """
    for f in integrands:
        if not isinstance(f, dict):
            raise TypeError("integrands must be polynomials given as exponent->coefficient maps")
    if n > 4:
        raise ValueError("replica evaluation budgeted to n <= 4")
    ncomp = cov.shape[0]
    if ncomp > 4:
        raise ValueError("covariance budgeted to 4 components")
    if len(integrands) != n:
        raise ValueError("need one integrand per replica")
    total_degree = sum(max((sum(e) for e in f), default=0) for f in integrands)
    quadrature_order = max(4, total_degree + 1)
    nvars = n * ncomp
    base = poly_product(
        [_expand_to_replicas(f, i, n, ncomp) for i, f in enumerate(integrands)], nvars
    )
    total = 0.0
    for forest in enumerate_forests(n):
        edges = sorted(forest.edges)
        poly = base
        for (i, j) in edges:
            acc: dict = {}
            for p in range(ncomp):
                for q in range(ncomp):
                    c = cov[p, q]
                    if c == 0.0:
                        continue
                    term = poly_diff(poly_diff(poly, i * ncomp + p), j * ncomp + q)
                    for e, v in term.items():
                        acc[e] = acc.get(e, 0.0) + c * v
            poly = acc

        levels, weights = ordering_cell(len(edges), quadrature_order)
        for order in permutations(edges):
            xs = x_matrix(forest, dict(zip(order, levels))).reshape(-1, n, n)
            total += sum(w * gaussian_expectation(poly, np.kron(X, cov)) for X, w in zip(xs, weights.ravel()))
    return total


# --- Berezin integrals, the brute-force route ------------------------------
# Monomials are coefficient maps keyed by (psi bitmask, psibar bitmask)
# relative to the canonical word psi_(i1)...psi_(ir) psibar_(j1)...psibar_(js)
# with ascending indices.

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


def z_by_collections(gas) -> list[complex]:
    """Coefficients z_0..z_m of Z(s) on the m monomers of the gas, by
    enumeration of disjoint polymer collections: z_k sums the activity
    products of the collections of k polymers."""
    support = gas.support()
    z = [0.0j] * (len(gas.monomers) + 1)

    def rec(idx: int, used: frozenset, size: int, act: complex) -> None:
        if idx == len(support):
            z[size] += act
            return
        rec(idx + 1, used, size, act)  # skip polymer idx
        poly, a = support[idx]
        if not (poly & used):
            rec(idx + 1, used | poly, size + 1, act * a)

    rec(0, frozenset(), 0, 1.0 + 0.0j)
    return z


def _epsilon_tree_factor(n: int, tree_edges, eta_minus: frozenset) -> float:
    """eps^T for intersection pattern eta_minus (pairs with eta = -1).

    Zero unless every tree edge intersects; otherwise (-1)^(n-1) times the
    w-integral of prod over the L non-tree intersecting pairs of
    (1 - X_l(w)).  Inside an ordering cell every X_l is one sorted
    coordinate t_m = prod_(i>=m) v_i, so with the cell Jacobian
    prod_m v_m^m the integrand has degree <= L + n - 2 in each v_i, and
    Gauss-Legendre with (L + n) // 2 nodes integrates it exactly.
    """
    for e in tree_edges:
        if e not in eta_minus:
            return 0.0
    if n == 1:
        return 1.0
    nontree = [e for e in combinations(range(n), 2) if e not in tree_edges and e in eta_minus]
    sign = (-1.0) ** len(tree_edges)
    levels, weights = ordering_cell(n - 1, (len(nontree) + n) // 2)
    total = 0.0
    for order in permutations(sorted(tree_edges)):
        x = min_over_paths(n, order, dict(zip(order, levels)))
        val = weights
        for a, b in nontree:
            val = val * (1.0 - x[..., a, b])
        total += float(val.sum())
    return sign * total


def tree_walk_order(gas, n: int) -> complex:
    """Order n of the tree expansion of log Z (1/n! included), walking
    every ordered n-tuple of polymers:

        1/n! sum_(trees T) sum_(P_1..P_n) prod A(P_i) * eps^T,

        eps^T = (prod_(l in T) eta_l) * int dw prod_(l not in T) (1 + eta_l X_l(w)),

    where eta_l is -1 when the two polymers intersect and 0 otherwise, and
    X_l(w) is the min-over-tree-path interpolation.  A polymer intersects
    itself, so repeated entries carry eta = -1.  eps^T depends on the tuple
    only through the intersection pattern, so the w-integrals are cached
    per (tree, pattern)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    support = gas.support()
    if not support:
        return 0.0
    cache: dict = {}
    intersects = {
        (i, j): bool(support[i][0] & support[j][0])
        for i in range(len(support))
        for j in range(i, len(support))
    }
    trees = [tuple(sorted(t.edges)) for t in enumerate_trees(n)]
    total = 0.0 + 0.0j
    for tuple_idx in product(range(len(support)), repeat=n):
        act = 1.0 + 0.0j
        for i in tuple_idx:
            act *= support[i][1]
        if act == 0:
            continue
        eta_minus = frozenset(
            (a, b)
            for a, b in combinations(range(n), 2)
            if intersects[tuple(sorted((tuple_idx[a], tuple_idx[b])))]
        )
        tree_sum = 0.0
        for tree in trees:
            key = (tree, eta_minus)
            if key not in cache:
                cache[key] = _epsilon_tree_factor(n, tree, eta_minus)
            tree_sum += cache[key]
        total += act * tree_sum
    return total / math.factorial(n)


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
