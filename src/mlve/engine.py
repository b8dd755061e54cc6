"""Order-by-order assembly of log Z from the two-level jungle formula.

Each spanning jungle and slice assignment contributes

    (Fermionic factor integrated over its edge weights)
    x prod over Bosonic blocks of the w-integrated block Gaussian integral,

and order n is 1/n! times the sum over jungles and slice assignments.
The Fermionic weights enter only the lifted Y matrix and the Bosonic
weights only their own block's covariance, so the two integrals
factorize exactly.

The order sum visits only the admissible slice labelings of a jungle:
the slice delta makes a labeling constant on each Fermionic component,
and the hardcore rule gives components that meet in a Bosonic block
different slices.  A generator assigns one slice per component under
those constraints, in the lexicographic order of the full product.  A
jungle with a vertex of Fermionic degree >= 3 yields none: every
exchange pattern repeats a generator there, so its Fermionic factor is
zero.  Every other labeling is a structural zero; ``jungle_term`` still
returns it as an exact 0 for outside callers, so a block with a
repeated slice, or a Fermionic edge joining different slices, never
reaches quadrature.

A Bosonic block expectation is a Gaussian expectation under the
interpolated covariance X(w), which ``interpolation.layered_decomposition``
writes as sum_i c_i sum_f 1_f 1_f^T with c_i >= 0: sigma is a sum of
independent Gaussian shifts, one per layer and component.  The
expectation is therefore a bottom-up chain of 1-D Gaussian smoothings of
the kernel tables on one fixed uniform grid, each applied exactly as the
Fourier multiplier exp(-c k^2/2).  A block integral runs over all of its
weight points at once, one ordering cell at a time: inside a cell the
layers have the same components and only the c_i vary, so each kernel
table is transformed once, every component stays in Fourier space as a
stack over the cell's points, and only a merge of components returns to
the grid for the product.  Both weight integrals use the
Gauss-Legendre ordering-cell points of
``interpolation.ordering_cell_points``, on which the min() interpolation
is smooth.  The Fermionic factor is evaluated at all of a term's weight
points in one call: the lifted Y matrices form one stack and each of the
2^k exchange-pattern minors is one stacked determinant.  Its integrand
is a polynomial of degree <= n - 1 in each cube coordinate of a cell, so
(n + 1) // 2 Gauss-Legendre nodes integrate it exactly; ``gl_nodes``
sets the rule of the Bosonic blocks only.

A term depends only on the isomorphism class of its slice-labeled
jungle, so by orbit-stabilizer order n is the sum over term classes of
value / |Stab|, with no 1/n!: the n! relabelings of a class give
n!/|Stab| distinct labeled terms, where Stab is the subgroup of the
jungle's automorphisms that fixes the labeling.  The order sum walks
``combinatorics.jungle_classes(n)``, one jungle per isomorphism class
with its automorphisms, and keeps the admissible labelings of each that
are least in their orbit, so each term class is evaluated once and
nothing is cached: at n = 5 over three slices the 11,160 labeled terms
are 105 classes, and at n = 6 the 233,820 are 369.  Block values are
cached on the block alone: the hardcore rule gives each block vertex its
own slice, so naming every vertex by the rank of its slice puts the
block in canonical form with no search.  The default config needs 9
block integrals through n = 6.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product

import numpy as np

# enumerate_jungles and min_over_paths are unused here but stay bound: the
# benchmark's layer trace wraps them on this module
from .combinatorics import Jungle, _components_of, _degrees, enumerate_jungles, jungle_classes, norm_edge  # noqa: F401
from .errors import BudgetExceededError
from .grassmann import (
    FermionicFactorInput,
    fermionic_factor,
    hardcore_violated,
    slice_delta_violated,
)
from .interpolation import layered_decomposition, min_over_paths, ordering_cell_points  # noqa: F401
from .model_core import ModelParams, dw_grid

ORDER_BUDGET = 6
BLOCK_BUDGET = 4

# Smoothing grid, odd and symmetric so that its middle point is sigma = 0.
# Every sigma_a has unit variance, so the periodic wrap of the FFT at
# |sigma| = 12 sits far out in the Gaussian tail.  729 = 3^6 points: an
# FFT of this length runs about 3x faster than one of 801 = 9 x 89.
SIGMA_GRID = np.linspace(-12.0, 12.0, 729)


def _local_edges(verts, tree_edges) -> tuple:
    """The tree edges relabelled by position in the sorted block vertices."""
    local = {v: i for i, v in enumerate(verts)}
    return tuple(norm_edge(local[u], local[v]) for u, v in tree_edges)


def _kernel_tables(params: ModelParams, edges, js) -> list[np.ndarray]:
    """d^(d_a) W_(j_a) on SIGMA_GRID for each local vertex a of degree d_a.

    Every block evaluation starts here, so this is where a block past
    BLOCK_BUDGET is refused."""
    if len(js) > BLOCK_BUDGET:
        raise BudgetExceededError(f"block size {len(js)} > {BLOCK_BUDGET}")
    return [dw_grid(params, j, d, SIGMA_GRID) for j, d in zip(js, _degrees(len(js), edges))]


def _block_values(tables, edges, w_pts) -> np.ndarray:
    """E[prod_a f_a(sigma_a)] at each weight point, f_a = tables[a] on SIGMA_GRID.

    w_pts has shape (P, k), one column per edge.  At each point sigma has
    covariance X = sum_i c_i sum_f 1_f 1_f^T (the layered decomposition of
    the min-over-path matrix of the weighted tree), so every component f of
    layer i adds one shift of variance c_i to all of its vertices.  From
    the finest layer up, a component's function is the product of the
    functions of the components it merges, smoothed by that Gaussian; the
    expectation is the product of what is left at sigma = 0.

    Points are grouped by their descending edge order (their ordering
    cell), inside which the components are the same and only the c_i
    differ.  Every function is kept as its spectrum: smoothing multiplies
    it by exp(-c k^2/2) with c of shape (P, 1), and only a merge goes back
    to the grid for the product.  Returns shape (P,).
    """
    n = SIGMA_GRID.size
    k2 = (2.0 * np.pi * np.fft.fftfreq(n, SIGMA_GRID[1] - SIGMA_GRID[0])) ** 2
    # spectrum @ phase is the inverse transform read at the middle point,
    # sigma = 0; the inverse transform of the unit impulse there gives the
    # phases with the FFT's own exactly reduced twiddles
    phase = np.fft.ifft(np.arange(n) == n // 2)
    spectra = np.fft.fft(tables, axis=-1)
    orders = np.argsort(-w_pts, axis=1, kind="stable")
    out = np.empty(len(w_pts), dtype=complex)
    for order in np.unique(orders, axis=0):
        at = np.flatnonzero((orders == order).all(axis=1))
        weights = {e: w_pts[at, col] for col, e in enumerate(edges)}
        funcs = {frozenset([a]): spec for a, spec in enumerate(spectra)}
        for c, comps in layered_decomposition(len(tables), edges, weights):
            smooth = np.exp(np.multiply.outer(np.broadcast_to(c, at.shape), -0.5 * k2))
            for comp in comps:
                parts = [funcs.pop(f) for f in list(funcs) if f <= comp]
                if len(parts) > 1:
                    parts = [np.fft.fft(reduce(np.multiply, map(np.fft.ifft, parts)))]
                funcs[comp] = parts[0] * smooth
        out[at] = reduce(np.multiply, [spec @ phase for spec in funcs.values()])
    return out


def bosonic_block_value(block, tree_edges, slices, weights, params: ModelParams) -> complex:
    """E[prod_a (d^(d_a) W_(j_a))(sigma_a)] at a fixed interpolation point.

    block lists global vertex ids; tree_edges must span it; d_a is the
    tree degree (0 for a singleton).  sigma has the centered Gaussian law
    with covariance X restricted to the block.
    """
    verts = sorted(block)
    if len(tree_edges) != len(verts) - 1:
        raise ValueError("tree must span the block")
    edges = _local_edges(verts, tree_edges)
    tables = _kernel_tables(params, edges, [slices[v] for v in verts])
    w_pts = np.array([[weights[e] for e in tree_edges]])
    return complex(_block_values(tables, edges, w_pts)[0])


def fermionic_weight_integral(jungle: Jungle, slices) -> float:
    """The Fermionic factor integrated over its edge weights, exactly.

    Inside an ordering cell every entry of the lifted Y is 0, 1 or one
    sorted coordinate t_m = prod_(i>=m) v_i, so every exchange-pattern
    minor is a polynomial of degree <= n - k in t, and with the cell
    Jacobian prod_m v_m^m of degree <= n - 1 in each v_i.  Gauss-Legendre
    with (n + 1) // 2 nodes integrates that exactly.  All quadrature points
    go in one stacked call (k = 0 gives a scalar).
    """
    edges = sorted(jungle.fermionic)
    w_pts, w_weights = ordering_cell_points(len(edges), (jungle.n + 1) // 2)
    values = fermionic_factor(FermionicFactorInput(jungle, tuple(slices), dict(zip(edges, w_pts.T))))
    return float(np.dot(w_weights, np.broadcast_to(values, w_weights.shape)))


def _admissible_labelings(jungle: Jungle, slices):
    """Every admissible slice labeling, in lexicographic order: one slice
    per Fermionic component, different slices on components that meet in
    a block.  None if a vertex has Fermionic degree >= 3: every exchange
    pattern repeats a generator there, so the factor is zero."""
    if max(_degrees(jungle.n, jungle.fermionic)) >= 3:
        return
    components = _components_of(jungle.n, jungle.fermionic)
    comp_of = {v: c for c, comp in enumerate(components) for v in comp}
    clashes = {(comp_of[u], comp_of[v]) for block in jungle.partition().blocks for u, v in combinations(block, 2)}
    for choice in product(slices, repeat=len(components)):
        if all(choice[c] != choice[d] for c, d in clashes):
            yield tuple(choice[comp_of[v]] for v in range(jungle.n))


class TermEvaluator:
    """Sums each order over term classes; caches block integrals by block class."""

    def __init__(self, params: ModelParams, gl_nodes: int = 12):
        self.params = params
        self.gl_nodes = gl_nodes
        self._block_cache: dict = {}

    # -- bosonic side --------------------------------------------------------

    def block_integral(self, verts, edges, slices) -> complex:
        """The block Gaussian integral, integrated over its tree weights.

        verts are the block vertices and edges its tree.  The hardcore rule
        gives each block vertex its own slice, so naming every vertex by the
        rank of its slice puts the block in canonical form: the key (sorted
        slices, tree edges in slice ranks) names the class of the decorated
        block, and the block is integrated from the key itself."""
        ranked = sorted(verts, key=slices.__getitem__)
        rank = {v: i for i, v in enumerate(ranked)}
        js = tuple(slices[v] for v in ranked)
        local = tuple(sorted(norm_edge(rank[u], rank[v]) for u, v in edges))
        value = self._block_cache.get((js, local))
        if value is None:
            value = self._block_cache[js, local] = self._integrate_block(local, js)
        return value

    def _integrate_block(self, edges, js) -> complex:
        tables = _kernel_tables(self.params, edges, js)
        w_pts, w_weights = ordering_cell_points(len(edges), self.gl_nodes)
        return complex(np.dot(w_weights, _block_values(tables, edges, w_pts)))

    # -- fermionic side ------------------------------------------------------

    # a method of its own, though uncached, so that the layer trace of
    # bench/layertrace.py can time the Fermionic integrals apart
    def fermionic_integral(self, jungle: Jungle, slices) -> float:
        return fermionic_weight_integral(jungle, slices)

    # -- full terms ----------------------------------------------------------

    def jungle_term(self, jungle: Jungle, slices) -> complex:
        """The Fermionic integral times the block integrals.  A labeling
        that breaks the hardcore rule or the slice delta is an exact 0,
        with no quadrature."""
        slices = tuple(slices)
        if hardcore_violated(jungle, slices) or slice_delta_violated(jungle, slices):
            return 0j
        value = complex(self.fermionic_integral(jungle, slices))
        if value != 0:
            edges = jungle.bosonic.edges
            for block in jungle.partition().blocks:
                value *= self.block_integral(block, [e for e in edges if e[0] in block], slices)
        return value

    def order_terms(self, n: int):
        """Yield (class index, jungle, stabilizer, slices, value), one row
        per term class of order n, so that order n is the sum of
        value / stabilizer.

        The jungle is the representative of ``jungle_classes(n)`` with that
        index, slices an admissible labeling of it that is least in its
        orbit under the automorphisms, and the stabilizer the number of
        automorphisms that fix slices.  Every other labeling is a
        structural zero or a relabeled copy of a yielded one."""
        if n > ORDER_BUDGET:
            raise BudgetExceededError(f"order {n} > budget {ORDER_BUDGET}")
        for index, (jungle, automorphisms) in enumerate(jungle_classes(n)):
            for slices in _admissible_labelings(jungle, self.params.slices):
                images = [tuple(slices[v] for v in order) for order in automorphisms]
                if min(images) == slices:
                    yield index, jungle, images.count(slices), slices, self.jungle_term(jungle, slices)

    def order_contribution(self, n: int) -> complex:
        total = 0j
        for _, _, stabilizer, _, value in self.order_terms(n):
            total += value / stabilizer
        return total
