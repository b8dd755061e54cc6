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
those constraints, worked out once per jungle, in the lexicographic
order of the full product.  A jungle with a vertex of Fermionic degree
>= 3 yields none: every exchange pattern repeats a generator there, so
its Fermionic factor is zero.  Every other labeling is a structural
zero; ``jungle_term`` still returns it as an exact 0 for outside
callers, so a block with a repeated slice, or a Fermionic edge joining
different slices, never reaches quadrature.

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

Both caches are keyed by one canonical-form search, ``_canonical_orders``,
which returns the least relabeled form of a graph and every vertex
order that attains it.  Fermionic values are cached on the canonical
form of the jungle and the slice-equality pattern read along those
orders, since the factor depends on nothing else.  Block values are
cached on the canonical form of the block tree and the least slice tuple
read along its orders, which names the isomorphism class of the
decorated block.  Both searches run once per jungle and block, never per
term.  The two caches collapse the labeling sum to a few distinct
integrals per order: at n = 5 over three slices, 11,160 terms need 20
Fermionic and 9 block integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import permutations, product

import numpy as np

from .combinatorics import Jungle, _components_of, enumerate_jungles, norm_edge
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

ORDER_BUDGET = 5
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


def _degrees(n: int, edges) -> list[int]:
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return degrees


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


def _canonical_orders(n: int, edge_sets, invariant):
    """The least relabeled form of the edge sets on vertices 0..n-1 and
    every vertex order that attains it.

    A vertex order lists the old vertices by new label.  Only the orders
    that sort the vertices by invariant[v] are searched; isomorphisms
    preserve the invariant, so the least form over them is still a
    canonical form.
    """
    classes: dict = {}
    for v in range(n):
        classes.setdefault(invariant[v], []).append(v)
    best, orders = None, []
    for parts in product(*(permutations(classes[c]) for c in sorted(classes))):
        order = sum(parts, ())
        label = {v: i for i, v in enumerate(order)}
        form = tuple(tuple(sorted(norm_edge(label[u], label[v]) for u, v in edges)) for edges in edge_sets)
        if best is None or form < best:
            best, orders = form, [order]
        elif form == best:
            orders.append(order)
    return best, tuple(orders)


@cache
def _block_plan(block: frozenset, tree_edges: tuple):
    """(sorted vertices, tree edges in their local labels, (canonical form,
    attaining vertex orders)) of one Bosonic block; the orders list global
    vertices, so a slice labeling of the jungle reads along them directly.
    Jungles share blocks, so a plan is worked out once per block."""
    verts = tuple(sorted(block))
    edges = _local_edges(verts, tree_edges)
    form, orders = _canonical_orders(len(verts), (edges,), _degrees(len(verts), edges))
    return verts, edges, (form, tuple(tuple(verts[a] for a in order) for order in orders))


class _JungleShape:
    """What the order sum needs of one jungle, worked out once per jungle.

    - blocks: for each Bosonic block, its sorted vertices, its tree edges
      in their local labels and its canonical form with the vertex orders
      that attain it, the orders listing global vertices;
    - components: the Fermionic components, by least vertex.  The slice
      delta makes a labeling constant on each of them;
    - conflicts: for each component, the earlier components that meet it
      in a Bosonic block.  The hardcore rule gives them different slices;
    - form, orders: the canonical edge form of the jungle and the vertex
      orders that attain it.

    blocks and the canonical form are found on first use, so a jungle
    with no admissible labeling never searches for them.
    """

    def __init__(self, jungle: Jungle):
        self.jungle = jungle
        blocks = jungle.partition().blocks
        self.components = tuple(tuple(sorted(c)) for c in _components_of(jungle.n, jungle.fermionic))
        comp_of = {v: c for c, comp in enumerate(self.components) for v in comp}
        self.conflicts = tuple(
            sorted({comp_of[v] for block in blocks if not block.isdisjoint(comp) for v in block if comp_of[v] < c})
            for c, comp in enumerate(self.components)
        )

    @cached_property
    def blocks(self):
        edges = self.jungle.bosonic.edges
        return tuple(_block_plan(b, tuple(e for e in edges if e[0] in b)) for b in self.jungle.partition().blocks)

    @cached_property
    def _canonical(self):
        jungle = self.jungle
        size = {v: len(b) for b in jungle.partition().blocks for v in b}
        bos = jungle.bosonic.degrees()
        ferm = _degrees(jungle.n, jungle.fermionic)
        invariant = [(size[v], bos[v], ferm[v]) for v in range(jungle.n)]
        return _canonical_orders(jungle.n, (jungle.bosonic.edges, jungle.fermionic), invariant)

    def labelings(self, slices):
        """Every admissible slice labeling, in lexicographic order: one slice
        per Fermionic component, different slices on components that meet
        in a block.  None if a vertex has Fermionic degree >= 3: every
        exchange pattern repeats a generator there, so the factor is zero."""
        if max(_degrees(self.jungle.n, self.jungle.fermionic)) >= 3:
            return
        chosen = [None] * len(self.components)
        labels = [None] * self.jungle.n

        def rec(c: int):
            if c == len(self.components):
                yield tuple(labels)
                return
            taken = {chosen[d] for d in self.conflicts[c]}
            for j in slices:
                if j not in taken:
                    chosen[c] = j
                    for v in self.components[c]:
                        labels[v] = j
                    yield from rec(c + 1)

        yield from rec(0)

    def fermionic_key(self, slices):
        """(canonical form, slice-equality pattern in canonical labels): the
        Fermionic integral depends on nothing else.  The pattern names each
        slice by its first appearance, least over the canonical orders."""
        form, orders = self._canonical
        patterns = []
        for order in orders:
            names: dict = {}
            patterns.append(tuple(names.setdefault(slices[v], len(names)) for v in order))
        return form, min(patterns)


class TermEvaluator:
    """Caches block and Fermionic integrals across the jungle and slice sums."""

    def __init__(self, params: ModelParams, gl_nodes: int = 12):
        self.params = params
        self.gl_nodes = gl_nodes
        self._block_cache: dict = {}
        self._fermionic_cache: dict = {}
        self._shapes: dict[Jungle, _JungleShape] = {}

    def _shape(self, jungle: Jungle) -> _JungleShape:
        shape = self._shapes.get(jungle)
        if shape is None:
            shape = self._shapes[jungle] = _JungleShape(jungle)
        return shape

    # -- bosonic side --------------------------------------------------------

    def block_integral(self, verts, edges, canonical, slices) -> complex:
        """The block Gaussian integral, integrated over its tree weights.

        verts are the sorted block vertices, edges the tree in their local
        labels and canonical the block's (form, attaining orders).  The
        cache key is the form with the least slice tuple read along the
        orders: two decorated blocks share it exactly when they are
        isomorphic, and the first of a class is the one integrated."""
        form, orders = canonical
        key = form, min(tuple(slices[v] for v in order) for order in orders)
        value = self._block_cache.get(key)
        if value is None:
            value = self._block_cache[key] = self._integrate_block(edges, tuple(slices[v] for v in verts))
        return value

    def _integrate_block(self, edges, js) -> complex:
        tables = _kernel_tables(self.params, edges, js)
        w_pts, w_weights = ordering_cell_points(len(edges), self.gl_nodes)
        return complex(np.dot(w_weights, _block_values(tables, edges, w_pts)))

    # -- fermionic side ------------------------------------------------------

    def fermionic_integral(self, jungle: Jungle, slices) -> float:
        """``fermionic_weight_integral``, cached on the jungle's canonical
        form and the slice-equality pattern."""
        key = self._shape(jungle).fermionic_key(slices)
        value = self._fermionic_cache.get(key)
        if value is None:
            value = self._fermionic_cache[key] = fermionic_weight_integral(jungle, slices)
        return value

    # -- full terms ----------------------------------------------------------

    def jungle_term(self, jungle: Jungle, slices) -> complex:
        slices = tuple(slices)
        if hardcore_violated(jungle, slices) or slice_delta_violated(jungle, slices):
            return 0j
        ferm = self.fermionic_integral(jungle, slices)
        if ferm == 0.0:
            return 0j
        value = complex(ferm)
        for block in self._shape(jungle).blocks:
            value *= self.block_integral(*block, slices)
        return value

    def order_terms(self, n: int):
        """Yield (jungle index, jungle, slices, value) over the admissible
        labelings at order n; the index counts the spanning jungles in
        enumeration order.  Every other labeling, and every labeling of a
        jungle whose Fermionic factor vanishes, is a structural zero."""
        if n > ORDER_BUDGET:
            raise BudgetExceededError(f"order {n} > budget {ORDER_BUDGET}")
        for index, jungle in enumerate(enumerate_jungles(n, spanning=True)):
            for slices in self._shape(jungle).labelings(self.params.slices):
                yield index, jungle, slices, self.jungle_term(jungle, slices)

    def order_contribution(self, n: int) -> complex:
        total = 0j
        for *_, value in self.order_terms(n):
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
