"""Forest-formula interpolation: min-over-path covariances and the
ordering-cell rule of the weight integrals.

The interpolated matrix X^F(w) has unit diagonal and X_ij equal to the
smallest weakening parameter along the unique forest path from i to j
(zero across components).  Such matrices are positive: with the edge
weights sorted decreasingly, w_1 >= ... >= w_k, w_0 := 1, w_(k+1) := 0,
X = sum_i (w_i - w_(i+1)) sum_f 1_f 1_f^T over the components f of the i
heaviest edges, and every w_i - w_(i+1) is >= 0.  On one ordering cell
of the weight cube that edge order is fixed, so every weight integral
in ``engine`` walks the cells of ``ordering_cell`` one at a time.  The
forest-formula identity and its Gaussian-replica corollary, which these
matrices serve, are checked in the tests (``tests/conftest.py``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np


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
