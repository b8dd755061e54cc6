"""Order-by-order assembly of log Z from the two-level jungle formula.

Each spanning jungle and slice assignment contributes

    (Fermionic factor integrated over its edge weights)
    x prod over Bosonic blocks of the w-integrated block Gaussian integral,

and order n is 1/n! times the sum over jungles and slice assignments.
The Fermionic weights enter only the lifted Y matrix and the Bosonic
weights only their own block's covariance, so the two integrals
factorize exactly.

Structural zeros are returned exactly: a block with a repeated slice, or
a Fermionic edge joining different slices, never reaches quadrature.

Every Bosonic block expectation goes through one route: eigendecompose
the interpolated covariance, clip negative eigenvalues (rounding noise
on the boundary w = 1) to 0, and apply tensor Gauss-Hermite nodes.  Both
weight integrals use the Gauss-Legendre ordering-cell points of
``interpolation.ordering_cell_points``, on which the min() interpolation
is smooth.  Block values are cached on the isomorphism class of the
decorated block tree, which collapses the slice-assignment sum to a few
distinct integrals per order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from .combinatorics import Jungle, enumerate_jungles, norm_edge
from .errors import BudgetExceededError
from .grassmann import (
    FermionicFactorInput,
    fermionic_factor,
    hardcore_violated,
    slice_delta_violated,
)
from .interpolation import min_over_paths, ordering_cell_points
from .model_core import ModelParams, dw_grid
from .oracle import gauss_hermite_norm

ORDER_BUDGET = 4
BLOCK_BUDGET = 4


def default_gh_nodes() -> dict[int, int]:
    # 64 nodes per dimension up to three vertices per block, 32 at four
    return {1: 64, 2: 64, 3: 64, 4: 32}


# weight points whose Gauss-Hermite grids are evaluated together
W_CHUNK = 4


@dataclass
class EngineOptions:
    gh_nodes: dict[int, int] = field(default_factory=default_gh_nodes)
    gl_nodes: int = 12

    def nodes_for(self, block_size: int) -> int:
        return self.gh_nodes.get(block_size, 32)


def _local_tree(block, tree_edges):
    """Sorted block vertices, their local labels and the relabelled tree edges."""
    verts = sorted(block)
    if len(verts) > BLOCK_BUDGET:
        raise BudgetExceededError(f"block size {len(verts)} > {BLOCK_BUDGET}")
    local = {v: i for i, v in enumerate(verts)}
    return verts, local, [norm_edge(local[u], local[v]) for u, v in tree_edges]


def _block_expectations(xs: np.ndarray, edges, js, params: ModelParams, nodes: int) -> np.ndarray:
    """E[prod_a (d^(d_a) W_(j_a))(sigma_a)] for each covariance in the stack xs.

    xs has shape (P, b, b) and d_a is the degree of local vertex a in the
    tree edges.  sigma = L xi with L L^T = X on a tensor Gauss-Hermite
    grid; negative eigenvalues are clipped to 0.
    """
    b = xs.shape[1]
    degrees = [0] * b
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    xi, wts = gauss_hermite_norm(nodes)
    pts = np.stack([g.ravel() for g in np.meshgrid(*([xi] * b), indexing="ij")])  # (b, nodes^b)
    gh_w = np.ones(pts.shape[1])
    for g in np.meshgrid(*([wts] * b), indexing="ij"):
        gh_w *= g.ravel()
    vals, vecs = np.linalg.eigh(xs)
    L = vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]
    out = np.empty(xs.shape[0], dtype=complex)
    for lo in range(0, xs.shape[0], W_CHUNK):
        sigma = L[lo : lo + W_CHUNK] @ pts  # (chunk, b, nodes^b)
        integrand = np.ones((sigma.shape[0], pts.shape[1]), dtype=complex)
        for a in range(b):
            integrand = integrand * dw_grid(params, js[a], degrees[a], sigma[:, a, :])
        out[lo : lo + W_CHUNK] = integrand @ gh_w
    return out


def bosonic_block_value(block, tree_edges, slices, weights, params: ModelParams, options: EngineOptions | None = None) -> complex:
    """E[prod_a (d^(d_a) W_(j_a))(sigma_a)] at a fixed interpolation point.

    block lists global vertex ids; tree_edges must span it; d_a is the
    tree degree (0 for a singleton).  sigma has the centered Gaussian law
    with covariance X restricted to the block.
    """
    options = options or EngineOptions()
    verts, local, edges = _local_tree(block, tree_edges)
    b = len(verts)
    if len(edges) != b - 1:
        raise ValueError("tree must span the block")
    wloc = {norm_edge(local[u], local[v]): w for (u, v), w in weights.items()}
    X = min_over_paths(b, edges, wloc)
    js = [slices[v] for v in verts]
    return complex(_block_expectations(X[None], edges, js, params, options.nodes_for(b))[0])


class TermEvaluator:
    """Caches block integrals across the jungle and slice sums."""

    def __init__(self, params: ModelParams, options: EngineOptions | None = None):
        self.params = params
        self.options = options or EngineOptions()
        self._block_cache: dict = {}

    # -- bosonic side --------------------------------------------------------

    def _canonical_block_key(self, edges, js):
        b = len(js)
        best = None
        for perm in permutations(range(b)):
            e = tuple(sorted(norm_edge(perm[u], perm[v]) for u, v in edges))
            lab = tuple(js[perm.index(i)] for i in range(b))
            cand = (e, lab)
            if best is None or cand < best:
                best = cand
        return best

    def block_integral(self, block, tree_edges, slices) -> complex:
        """The block Gaussian integral, integrated over its tree weights."""
        verts, _, edges = _local_tree(block, tree_edges)
        js = tuple(slices[v] for v in verts)
        key = self._canonical_block_key(edges, js)
        if key in self._block_cache:
            return self._block_cache[key]
        value = self._integrate_block(len(verts), edges, js)
        self._block_cache[key] = value
        return value

    def _integrate_block(self, b, edges, js) -> complex:
        w_pts, w_weights = ordering_cell_points(len(edges), self.options.gl_nodes)
        xs = np.stack([min_over_paths(b, edges, dict(zip(edges, wv))) for wv in w_pts])
        vals = _block_expectations(xs, edges, js, self.params, self.options.nodes_for(b))
        return complex(np.sum(w_weights * vals))

    # -- fermionic side ------------------------------------------------------

    def fermionic_integral(self, jungle: Jungle, slices) -> float:
        edges = sorted(jungle.fermionic)
        w_pts, w_weights = ordering_cell_points(len(edges), self.options.gl_nodes)
        total = 0.0
        for wv, ww in zip(w_pts, w_weights):
            weights = dict(zip(edges, wv))
            total += ww * fermionic_factor(FermionicFactorInput(jungle, tuple(slices), weights))
        return total

    # -- full terms ----------------------------------------------------------

    def jungle_term(self, jungle: Jungle, slices) -> complex:
        slices = tuple(slices)
        if hardcore_violated(jungle, slices) or slice_delta_violated(jungle, slices):
            return 0j
        ferm = self.fermionic_integral(jungle, slices)
        if ferm == 0.0:
            return 0j
        value = complex(ferm)
        part = jungle.partition()
        for block in part.blocks:
            tree_edges = [e for e in jungle.bosonic.edges if e[0] in block]
            value *= self.block_integral(block, tree_edges, slices)
        return value

    def order_terms(self, n: int):
        """Yield (jungle, slices, value) over all contributions at order n."""
        if n > ORDER_BUDGET:
            raise BudgetExceededError(f"order {n} > budget {ORDER_BUDGET}")
        for jungle in enumerate_jungles(n, spanning=True):
            for slices in product(self.params.slices, repeat=n):
                yield jungle, slices, self.jungle_term(jungle, slices)

    def order_contribution(self, n: int) -> complex:
        total = 0j
        for _, _, value in self.order_terms(n):
            total += value
        return total / math.factorial(n)


@dataclass
class TruncationResult:
    orders: list[complex]
    partial_sums: list[complex]

    @property
    def total(self) -> complex:
        return self.partial_sums[-1] if self.partial_sums else 0j

    def distances_to(self, reference: complex) -> list[float]:
        return [abs(s - reference) for s in self.partial_sums]


def jungle_term(jungle: Jungle, slices, params: ModelParams, options: EngineOptions | None = None) -> complex:
    return TermEvaluator(params, options).jungle_term(jungle, slices)


def order_contribution(n: int, params: ModelParams, options: EngineOptions | None = None) -> complex:
    return TermEvaluator(params, options).order_contribution(n)


def logz_truncation(n_max: int, params: ModelParams, options: EngineOptions | None = None) -> TruncationResult:
    """Partial sums S_1..S_(n_max) of the jungle expansion of log Z."""
    if n_max > ORDER_BUDGET:
        raise BudgetExceededError(f"order {n_max} > budget {ORDER_BUDGET}")
    ev = TermEvaluator(params, options)
    orders: list[complex] = []
    sums: list[complex] = []
    running = 0j
    for n in range(1, n_max + 1):
        val = ev.order_contribution(n)
        orders.append(val)
        running += val
        sums.append(running)
    return TruncationResult(orders, sums)
