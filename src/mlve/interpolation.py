"""Forest-formula interpolation: min-over-path covariances and identities.

The interpolated matrix X^F(w) has unit diagonal and X_ij equal to the
smallest weakening parameter along the unique forest path from i to j
(zero across components).  Such matrices are positive: with the edge
weights sorted decreasingly, w_1 >= ... >= w_k, w_0 := 1, w_(k+1) := 0,
X = sum_i (w_i - w_(i+1)) sum_f 1_f 1_f^T over the components f of the i
heaviest edges, and every w_i - w_(i+1) is >= 0.  On one ordering cell
of the weight cube that edge order is fixed, so every weight integral
here and in ``engine`` walks the cells of ``ordering_cell`` one at a
time.

``forest_formula_eval`` checks the Taylor-with-remainder identity
f(all-ones) = sum over forests of the w-integrated forest derivative,
and ``replica_gaussian_eval`` its Gaussian-replica corollary for
polynomial integrands, where everything reduces to exact Wick pairings.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, permutations

import numpy as np

from .combinatorics import Forest, enumerate_forests, norm_edge


def _validate_weights(edges, weights) -> None:
    if set(weights) != set(edges):
        raise ValueError("interpolation point must cover exactly the forest edges")
    for e, w in weights.items():
        if not np.all((0.0 <= w) & (w <= 1.0)):
            raise ValueError(f"weight {w} for edge {e} outside [0, 1]")


def min_over_paths(n: int, edges, weights) -> np.ndarray:
    """Unit-diagonal matrix of path minima for an arbitrary forest graph.

    Weights are scalars, giving an (n, n) matrix, or broadcastable arrays,
    alone or mixed with scalars, giving one matrix per point of their
    broadcast shape S, shape S + (n, n).
    """
    adj: dict[int, list] = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append((v, weights[(u, v)]))
        adj[v].append((u, weights[(u, v)]))
    out = np.zeros(np.broadcast_shapes(*map(np.shape, weights.values())) + (n, n))
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
    broadcastable shapes give the stack over their broadcast shape."""
    _validate_weights(forest.edges, weights)
    return min_over_paths(forest.n, forest.edges, weights)


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
def ordering_cell(k: int, order: int):
    """The Gauss-Legendre rule of one ordering cell of [0,1]^k, which every
    weight integral uses.  Read by decreasing weight, a cell has the levels
    w_1 >= ... >= w_k, w_(i+1) = u_0 ... u_i with u_l on the nodes on axis
    -1-l, so w_(i+1) has i + 1 axes, and the weights, Jacobian included,
    prod_l wt(u_l) u_l^(k-1-l) have k.  Returns (levels, weights), cached
    and read-only.  Inside a cell every min() of weights is one level, so
    min-over-path integrands are smooth there; the nodes are interior, so
    interpolated covariances stay positive definite.
    """
    nodes, wts = gauss_legendre_01(order)
    u = [nodes.reshape((order,) + (1,) * l) for l in range(k)]
    # every product runs from the outermost axis in
    weights = math.prod([wts.reshape(x.shape) for x in u[::-1]], start=np.ones(()))
    weights = math.prod([u[l] ** (k - 1 - l) for l in reversed(range(k - 1))], start=weights)
    return _read_only(*accumulate(u, np.multiply)), *_read_only(weights)


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
