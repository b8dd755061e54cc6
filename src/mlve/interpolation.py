"""Forest-formula interpolation: min-over-path covariances and identities.

The interpolated matrix X^F(w) has unit diagonal and X_ij equal to the
smallest weakening parameter along the unique forest path from i to j
(zero across components).  Such matrices are positive; the layered
decomposition below exhibits them directly as a nonnegative combination
of rank-one block indicators.

``forest_formula_eval`` checks the Taylor-with-remainder identity
f(all-ones) = sum over forests of the w-integrated forest derivative,
and ``replica_gaussian_eval`` its Gaussian-replica corollary for
polynomial integrands, where everything reduces to exact Wick pairings.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

from .combinatorics import Forest, _components_of, enumerate_forests, norm_edge


def _validate_weights(edges, weights) -> None:
    if set(weights) != set(edges):
        raise ValueError("interpolation point must cover exactly the forest edges")
    for e, w in weights.items():
        if not np.all((0.0 <= w) & (w <= 1.0)):
            raise ValueError(f"weight {w} for edge {e} outside [0, 1]")


def weight_shape(weights: dict) -> tuple:
    """Shape shared by all weights of one call: () for scalars, (P,) for a
    stack of P weight points."""
    return np.shape(next(iter(weights.values()), 0.0))


def min_over_paths(n: int, edges, weights) -> np.ndarray:
    """Unit-diagonal matrix of path minima for an arbitrary forest graph.

    Weights are scalars, giving an (n, n) matrix, or arrays of one shape
    (P,), giving the stack of the P matrices, shape (P, n, n).
    """
    adj: dict[int, list] = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append((v, weights[(u, v)]))
        adj[v].append((u, weights[(u, v)]))
    out = np.zeros(weight_shape(weights) + (n, n))
    for root in range(n):
        out[..., root, root] = 1.0
        stack = [(root, 1.0)]
        seen = {root}
        while stack:
            node, cur = stack.pop()
            for nxt, w in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    m = np.minimum(cur, w)
                    out[..., root, nxt] = m
                    stack.append((nxt, m))
    return out


def x_matrix(forest: Forest, weights: dict) -> np.ndarray:
    """Interpolated covariance X^F(w) on the forest's vertices; weights of
    shape (P,) give the stack of the P matrices."""
    _validate_weights(forest.edges, weights)
    return min_over_paths(forest.n, forest.edges, weights)


def layered_decomposition(n: int, edges, weights):
    """Write the min-over-path matrix as sum_i c_i * sum_f 1_f 1_f^T.

    Sort the weights decreasingly (w_0 := 1, w_(k+1) := 0); after the i
    largest edges are switched on, the graph splits into components f and
    the matrix gains (w_i - w_(i+1)) on every same-component pair.  All
    coefficients are nonnegative, so positivity is manifest.

    Weights may also be arrays of one shape (P,) whose points share one
    descending edge order (one ordering cell; ties allowed).  The sums
    over the points then sort in that same order, each coefficient is a
    (P,) array, and a layer is dropped only where it vanishes at every
    point.
    """
    order = sorted(edges, key=lambda e: -np.sum(weights[e]))
    levels = [1.0] + [weights[e] for e in order] + [0.0]
    terms = []
    for i in range(len(order) + 1):
        coeff = levels[i] - levels[i + 1]
        comps = _components_of(n, order[:i])
        if np.any(coeff > 0):
            terms.append((coeff, comps))
    return terms


# --- quadrature over the weakening parameters ------------------------------


def _read_only(*arrays):
    """The arrays, made read-only so that a cache can hand them out."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def gauss_legendre_01(order: int):
    """Gauss-Legendre nodes and weights shifted to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return _read_only(0.5 * (x + 1.0), 0.5 * w)


@lru_cache(maxsize=None)
def ordering_cell_points(k: int, order: int):
    """Gauss-Legendre points and weights on [0,1]^k, split along orderings.

    Within each ordering cell every min() of coordinates is a single
    coordinate, so min-over-path integrands are smooth there.  The cell
    with w_(pi[0]) <= ... <= w_(pi[k-1]) is mapped from the unit cube
    through t_m = prod_(i>=m) v_i with Jacobian prod_m v_m^m.  Returns
    points of shape (P, k) and weights of shape (P,), cached and read-only;
    the nodes are interior, so interpolated covariances stay positive
    definite.
    """
    nodes, wts = gauss_legendre_01(order)
    if k == 0:
        return _read_only(np.zeros((1, 0)), np.ones(1))
    v = np.stack([g.ravel() for g in np.meshgrid(*([nodes] * k), indexing="ij")], axis=1)  # (order^k, k)
    wflat = np.ones(v.shape[0])
    for g in np.meshgrid(*([wts] * k), indexing="ij"):
        wflat *= g.ravel()
    # ascending t values and the ordering Jacobian
    t = np.empty_like(v)
    t[:, k - 1] = v[:, k - 1]
    for m in range(k - 2, -1, -1):
        t[:, m] = v[:, m] * t[:, m + 1]
    for m in range(1, k):
        wflat *= v[:, m] ** m
    cells = []
    for perm in permutations(range(k)):
        cell = np.empty_like(t)
        cell[:, list(perm)] = t
        cells.append(cell)
    return _read_only(np.concatenate(cells), np.tile(wflat, len(cells)))


def _forest_cell_stack(forest: Forest, edges, order: int):
    """X^F(w) at every ordering-cell point, shape (P, n, n), and the weights."""
    pts, wts = ordering_cell_points(len(edges), order)
    xs = x_matrix(forest, dict(zip(edges, pts.T)))
    return np.broadcast_to(xs, (len(wts), forest.n, forest.n)), wts


# --- interpolation identities ------------------------------------------------


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
        xs, wts = _forest_cell_stack(forest, edges, quadrature_order)
        total += sum(w * func.forest_derivative(edges, X) for X, w in zip(xs, wts))
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


def replica_gaussian_eval(n: int, cov: np.ndarray, integrands: list[dict], quadrature_order: int | None = None) -> float:
    """Replica forest expansion of E[prod f_i]; returns the forest-sum side.

    integrands are polynomials as {exponent tuple over components: coeff}.
    The w-integrands are polynomials in w on every ordering cell, so
    Gauss-Legendre of sufficient order makes the quadrature exact.
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
    if quadrature_order is None:
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

        xs, wts = _forest_cell_stack(forest, edges, quadrature_order)
        total += sum(w * gaussian_expectation(poly, np.kron(X, cov)) for X, w in zip(xs, wts))
    return total
