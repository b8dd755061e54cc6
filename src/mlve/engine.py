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

A Bosonic block expectation is a Gaussian expectation under the
interpolated covariance X(w), which ``interpolation.layered_decomposition``
writes as sum_i c_i sum_f 1_f 1_f^T with c_i >= 0: sigma is a sum of
independent Gaussian shifts, one per layer and component.  The
expectation is therefore a bottom-up chain of 1-D Gaussian smoothings of
the kernel tables on one fixed uniform grid, each applied exactly as the
Fourier multiplier exp(-c k^2/2).  Both weight integrals use the
Gauss-Legendre ordering-cell points of
``interpolation.ordering_cell_points``, on which the min() interpolation
is smooth.  Block values are cached on the isomorphism class of the
decorated block tree, which collapses the slice-assignment sum to a few
distinct integrals per order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# min_over_paths is unused here but stays bound: the benchmark's layer
# trace wraps it on this module
from .interpolation import layered_decomposition, min_over_paths, ordering_cell_points  # noqa: F401
from .model_core import ModelParams, dw_grid

ORDER_BUDGET = 4
BLOCK_BUDGET = 4

# Smoothing grid, odd and symmetric so that its middle point is sigma = 0.
# Every sigma_a has unit variance, so the periodic wrap of the FFT at
# |sigma| = 12 sits far out in the Gaussian tail.
SIGMA_GRID = np.linspace(-12.0, 12.0, 801)


def _local_tree(block, tree_edges):
    """Sorted block vertices, their local labels and the relabelled tree edges."""
    verts = sorted(block)
    if len(verts) > BLOCK_BUDGET:
        raise BudgetExceededError(f"block size {len(verts)} > {BLOCK_BUDGET}")
    local = {v: i for i, v in enumerate(verts)}
    return verts, local, [norm_edge(local[u], local[v]) for u, v in tree_edges]


def _kernel_tables(params: ModelParams, edges, js) -> list[np.ndarray]:
    """d^(d_a) W_(j_a) on SIGMA_GRID for each local vertex a of degree d_a."""
    degrees = [0] * len(js)
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return [dw_grid(params, j, d, SIGMA_GRID) for j, d in zip(js, degrees)]


def _block_expectation(tables, edges, weights) -> complex:
    """E[prod_a f_a(sigma_a)] with f_a = tables[a] on SIGMA_GRID.

    sigma has covariance X = sum_i c_i sum_f 1_f 1_f^T (the layered
    decomposition of the min-over-path matrix of the weighted tree), so
    every component f of layer i adds one shift of variance c_i to all of
    its vertices.  From the finest layer up, a component's function is the
    product of the functions of the components it merges, smoothed by
    that Gaussian; the expectation is the product of what is left at
    sigma = 0.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(SIGMA_GRID.size, SIGMA_GRID[1] - SIGMA_GRID[0])
    funcs = {frozenset([a]): table for a, table in enumerate(tables)}
    for c, comps in layered_decomposition(len(tables), edges, weights):
        for comp in comps:
            parts = [f for f in funcs if f <= comp]
            merged = np.prod([funcs.pop(f) for f in parts], axis=0)
            funcs[comp] = np.fft.ifft(np.fft.fft(merged) * np.exp(-0.5 * c * k * k))
    return complex(np.prod([f[SIGMA_GRID.size // 2] for f in funcs.values()]))


def bosonic_block_value(block, tree_edges, slices, weights, params: ModelParams) -> complex:
    """E[prod_a (d^(d_a) W_(j_a))(sigma_a)] at a fixed interpolation point.

    block lists global vertex ids; tree_edges must span it; d_a is the
    tree degree (0 for a singleton).  sigma has the centered Gaussian law
    with covariance X restricted to the block.
    """
    verts, local, edges = _local_tree(block, tree_edges)
    if len(edges) != len(verts) - 1:
        raise ValueError("tree must span the block")
    wloc = {norm_edge(local[u], local[v]): w for (u, v), w in weights.items()}
    js = [slices[v] for v in verts]
    return _block_expectation(_kernel_tables(params, edges, js), edges, wloc)


class TermEvaluator:
    """Caches block integrals across the jungle and slice sums."""

    def __init__(self, params: ModelParams, gl_nodes: int = 12):
        self.params = params
        self.gl_nodes = gl_nodes
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
        value = self._integrate_block(edges, js)
        self._block_cache[key] = value
        return value

    def _integrate_block(self, edges, js) -> complex:
        tables = _kernel_tables(self.params, edges, js)
        w_pts, w_weights = ordering_cell_points(len(edges), self.gl_nodes)
        vals = [_block_expectation(tables, edges, dict(zip(edges, wv))) for wv in w_pts]
        return complex(np.dot(w_weights, vals))

    # -- fermionic side ------------------------------------------------------

    def fermionic_integral(self, jungle: Jungle, slices) -> float:
        edges = sorted(jungle.fermionic)
        w_pts, w_weights = ordering_cell_points(len(edges), self.gl_nodes)
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


def jungle_term(jungle: Jungle, slices, params: ModelParams, gl_nodes: int = 12) -> complex:
    return TermEvaluator(params, gl_nodes).jungle_term(jungle, slices)


def order_contribution(n: int, params: ModelParams, gl_nodes: int = 12) -> complex:
    return TermEvaluator(params, gl_nodes).order_contribution(n)


def logz_truncation(n_max: int, params: ModelParams, gl_nodes: int = 12) -> TruncationResult:
    """Partial sums S_1..S_(n_max) of the jungle expansion of log Z."""
    if n_max > ORDER_BUDGET:
        raise BudgetExceededError(f"order {n_max} > budget {ORDER_BUDGET}")
    ev = TermEvaluator(params, gl_nodes)
    orders: list[complex] = []
    sums: list[complex] = []
    running = 0j
    for n in range(1, n_max + 1):
        val = ev.order_contribution(n)
        orders.append(val)
        running += val
        sums.append(running)
    return TruncationResult(orders, sums)
