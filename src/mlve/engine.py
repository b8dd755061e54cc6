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
interpolated covariance X(w), and both weight integrals run one
ordering cell at a time, on the rule of ``interpolation.ordering_cell``:
the min() interpolation is smooth there.  Inside a cell the tree edges
have one order by weight, w_1 >= ... >= w_k, and X is the layer sum
sum_i (w_i - w_(i+1)) sum_f 1_f 1_f^T over the components f of the i
heaviest edges: sigma is a sum of independent Gaussian shifts, one per
layer and component.  A block integral walks each cell's edges by
decreasing weight.  Each edge merges the two components it joins, a
product on one fixed uniform grid; then every component is smoothed by
the exact Fourier multiplier exp(-(w_i - w_(i+1)) k^2/2), and the one
function left is read at sigma = 0.  Layer i reads the first i + 1 cell
coordinates only, so a component stays in Fourier space as a stack over
that prefix grid, returning to the grid only to merge.

The blocks read the kernels only through d^q W_j on the grid, and a
block has at most one vertex per slice, so no tree degree passes
q = min(slice count, BLOCK_BUDGET) - 1.  ``dw_grid`` returns the whole
stack d^0 W_j .. d^q W_j from one kernel sweep, each row equal to a
single-order call, and the evaluator keeps its spectra per slice: the
first block that reaches a slice sweeps it, and every later block only
picks rows.  A compare makes one sweep per slice of its window: 3 at
the default config and 8 at j = 1..8.

The lifted Y of the Fermionic factor is the path-minimum matrix of the
jungle's union forest, its Bosonic and Fermionic edges together, with
every Bosonic edge at weight 1, times the slice delta.  The factor is
evaluated at all of a term's weight points in one call: the lifted Y
matrices form one stack and each of the 2^k exchange-pattern minors is
one stacked determinant.  Its integrand is a polynomial of degree
<= n - 1 in each cube coordinate of a cell, so (n + 1) // 2
Gauss-Legendre nodes integrate it exactly; ``gl_nodes`` sets the rule
of the Bosonic blocks only.

A term depends only on the isomorphism class of its slice-labeled
jungle, so by orbit-stabilizer order n is the sum over term classes of
value / |Stab|, with no 1/n!: the n! relabelings of a class give
n!/|Stab| distinct labeled terms, where Stab is the subgroup of the
jungle's automorphisms that fixes the labeling.  The order sum walks
``combinatorics.jungle_classes(n)``, one jungle per isomorphism class
with its automorphisms, and keeps the admissible labelings of each that
are least in their orbit, so each term class is evaluated once: at
n = 5 over three slices the 11,160 labeled terms are 105 classes, and at
n = 6 the 233,820 are 369.

Only the block integrals read the coupling.  The term classes and their
stabilizers are planned over slice ranks, once per process for each
order and slice count, by the cached ``_order_plan``; an evaluator maps
the ranks to its window's slices.  The Fermionic integral sees the
slices only through which of them are equal, so one process-wide memo
holds it by jungle and equality pattern: the 105 and 369 classes need 21
and 75 Fermionic integrals, and an evaluator at another coupling or
window over as many slices computes none.  Block values are cached on
the evaluator, on the block alone:
the hardcore rule gives each block vertex its own slice, so naming every
vertex by the rank of its slice puts the block in canonical form with no
search.  The default config needs 9 block integrals through n = 6.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np

from .combinatorics import Jungle, _components_of, _degrees, jungle_classes, norm_edge
from .errors import BudgetExceededError
from .grassmann import fermionic_factor, hardcore_violated, slice_delta_violated
from .interpolation import _read_only, ordering_cell, ordering_cell_points
from .model_core import ModelParams, dw_grid
# unused here but bound: the benchmark's layer trace wraps them on this module
from .combinatorics import enumerate_jungles  # noqa: F401
from .interpolation import min_over_paths  # noqa: F401

ORDER_BUDGET = 6
BLOCK_BUDGET = 4
# The blocks are converged at the default 12 nodes; 24 is that rule doubled,
# for a node-doubling error estimate.  numpy's leggauss holds an n x n
# companion matrix, so an unbounded rule could ask for any amount of memory.
MAX_GL_NODES = 24

# Smoothing grid, odd and symmetric so that its middle point is sigma = 0,
# where the blocks are read: 216 or 256 points read them 0.1 to 5 off.
# Every sigma_a has unit variance, so the periodic wrap of the FFT at
# |sigma| = 12 sits far out in the Gaussian tail.  The kernels are
# analytic in a strip of width about cos(gamma)/|lambda|, so their spectra
# decay fast, and 243 = 3^5 points, a fast FFT length, resolve them.  Over
# the 1- to 3-vertex blocks of slices 1..4 and six 4-vertex trees, at
# lambda = 0.2, 0.5, 0.3+0.1i, 0.45+0.2i, 0.5 e^(0.7i) and 0.8 (M = 2) and
# 0.2 (M = 16), the largest relative distance of a block integral from its
# value on 729 points, and from its value on 1601 points over [-16, 16], is
#
#     points          81      135      243      729
#     from 729    1.3e-6  1.8e-10  2.7e-13        0
#     from 1601   1.3e-6  1.8e-10  3.7e-12  3.5e-12
#
# Over all 16 4-vertex trees, 243 points move one block by 6.4e-13 from
# 729, at 0.5 e^(0.7i), outside the Borel domain, where on 3201 points
# over [-16, 16] the 729-point value is itself 2.0e-12 off and the
# 243-point value 1.5e-12.
SIGMA_GRID = np.linspace(-12.0, 12.0, 243)


@lru_cache(maxsize=None)
def _grid_constants(n: int, step: float):
    """-k^2/2 on a grid of n points spaced by step, and the phases that read
    an inverse transform at the middle point, sigma = 0: spectrum @ phase.
    The inverse transform of the unit impulse there gives the phases with
    the FFT's own exactly reduced twiddles.  Cached, so read-only."""
    half_k2 = -0.5 * (2.0 * np.pi * np.fft.fftfreq(n, step)) ** 2
    phase = np.fft.ifft(np.arange(n) == n // 2)
    return _read_only(half_k2, phase)


@lru_cache(maxsize=None)
def _layer_multipliers(k: int, order: int, n: int, step: float) -> tuple:
    """The Fourier multipliers exp(-(w_i - w_(i+1)) k^2/2) of the layers
    i = 0..k at the levels of ``ordering_cell(k, order)``, w_0 := 1 and
    w_(k+1) := 0, on a SIGMA_GRID of n points spaced by step, the only
    things of the grid that they read.  Layer i holds order^(i+1) points
    and the last order^k, with the grid on a trailing axis; they serve
    every cell of every block with k tree edges.  Cached and read-only:
    7.0 MB at k = 3, a 4-vertex block, and the default 12 nodes."""
    half_k2, _ = _grid_constants(n, step)
    bounds = (1.0, *ordering_cell(k, order)[0], 0.0)
    return _read_only(*(np.exp(np.multiply.outer(hi - lo, half_k2)) for hi, lo in zip(bounds, bounds[1:])))


def _cell_values(spectra, order, layers) -> np.ndarray:
    """E[prod_a f_a(sigma_a)] at each point of one ordering cell.

    spectra holds the spectrum of f_a on SIGMA_GRID in row a, order the
    tree edges by decreasing weight, w_1 >= ... >= w_k, and layers their
    multipliers, as ``_layer_multipliers`` gives them.  With w_0 := 1 and
    w_(k+1) := 0, sigma has covariance sum_i (w_i - w_(i+1)) sum_f 1_f 1_f^T
    over the components f of the i heaviest edges, so every component of
    layer i adds one Gaussian shift of variance w_i - w_(i+1) to all of
    its vertices.  Edge i merges the two components it joins: the product
    of their functions, on the grid.  Then every component is smoothed,
    in Fourier space, by exp(-(w_i - w_(i+1)) k^2/2), on the prefix grid
    of the first i + 1 cell coordinates; the one function left is read at
    sigma = 0, at the points of the last layer.
    """
    _, phase = _grid_constants(SIGMA_GRID.size, SIGMA_GRID[1] - SIGMA_GRID[0])
    # a component is named by its least vertex, and a merge puts the lesser
    # name first: complex products are not bitwise commutative
    comp = list(range(len(spectra)))
    funcs = dict(enumerate(spectra))
    for i, smooth in enumerate(layers):
        if i:
            a, b = sorted(comp[v] for v in order[i - 1])
            funcs[a] = np.fft.fft(np.fft.ifft(np.stack([funcs[a], funcs.pop(b)])).prod(axis=0))
            comp = [a if x == b else x for x in comp]
        funcs = {x: f * smooth for x, f in funcs.items()}
    (spectrum,) = funcs.values()
    return spectrum @ phase


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
    values = fermionic_factor(jungle, tuple(slices), dict(zip(edges, w_pts.T)))
    return float(np.dot(w_weights, np.broadcast_to(values, w_weights.shape)))


@lru_cache(maxsize=None)
def _fermionic_integral(jungle: Jungle, pattern: tuple) -> float:
    """``fermionic_weight_integral`` at a slice-equality pattern, memoized
    for the process: the lifted Y, the hardcore and slice-delta filters and
    the node count read nothing of the slices but which of them are equal,
    so the pattern stands for every labeling that has it."""
    return fermionic_weight_integral(jungle, pattern)


def _equality_pattern(slices) -> tuple:
    """The slices relabeled 0, 1, ... by first occurrence."""
    first = {}
    return tuple(first.setdefault(j, len(first)) for j in slices)


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


@lru_cache(maxsize=None)
def _order_plan(n: int, n_slices: int) -> tuple:
    """The term classes of order n over a window of n_slices slices: one
    row (class index, jungle, stabilizer, ranks) per class, by class index
    and then by labeling.

    ranks is the least admissible labeling of the class representative in
    slice ranks 0..n_slices - 1.  A window's slices increase with their
    rank, so mapping the ranks to them keeps the lexicographic order, the
    least labeling of each orbit and its stabilizer.  None of it reads the
    coupling, so it is cached: each (order, slice count) is planned once
    per process and shared by every evaluator."""
    if n > ORDER_BUDGET:
        raise BudgetExceededError(f"order {n} > budget {ORDER_BUDGET}")
    rows = []
    for index, (jungle, automorphisms) in enumerate(jungle_classes(n)):
        for ranks in _admissible_labelings(jungle, range(n_slices)):
            images = [tuple(ranks[v] for v in order) for order in automorphisms]
            if min(images) == ranks:
                rows.append((index, jungle, images.count(ranks), ranks))
    return tuple(rows)


class TermEvaluator:
    """Sums each order over the term classes of its order plan; caches
    block integrals by block class and kernel spectra by slice."""

    def __init__(self, params: ModelParams, gl_nodes: int = 12):
        self.params = params
        self.gl_nodes = gl_nodes
        self._block_cache: dict = {}
        self._spectra: dict = {}

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

    def _kernel_tables(self, edges, js) -> np.ndarray:
        """The spectra of d^(d_a) W_(j_a) on SIGMA_GRID, one row per local
        vertex a of degree d_a.

        A slice's first block sweeps d^0 W_j .. d^q W_j in one ``dw_grid``
        call and keeps their spectra, with q the largest tree degree of a
        block in the window: the hardcore rule gives a block at most one
        vertex per slice.  Every block evaluation starts here, so this is
        where a block past BLOCK_BUDGET is refused."""
        if len(js) > BLOCK_BUDGET:
            raise BudgetExceededError(f"block size {len(js)} > {BLOCK_BUDGET}")
        top = min(len(self.params.slices), BLOCK_BUDGET) - 1
        for j in js:
            if j not in self._spectra:
                self._spectra[j] = np.fft.fft(dw_grid(self.params, j, top, SIGMA_GRID), axis=-1)
        return np.stack([self._spectra[j][d] for j, d in zip(js, _degrees(len(js), edges))])

    def _integrate_block(self, edges, js) -> complex:
        """One ordering cell per order of the tree edges by decreasing
        weight: every cell walks the same layers of ``ordering_cell`` and
        is contracted with its weights on its own."""
        spectra = self._kernel_tables(edges, js)
        weights = ordering_cell(len(edges), self.gl_nodes)[1].ravel()
        layers = _layer_multipliers(len(edges), self.gl_nodes, SIGMA_GRID.size, SIGMA_GRID[1] - SIGMA_GRID[0])
        total = 0j
        for order in permutations(edges):
            total += np.dot(weights, _cell_values(spectra, order, layers).ravel())
        return complex(total)

    # -- fermionic side ------------------------------------------------------

    def fermionic_integral(self, jungle: Jungle, slices) -> float:
        """``fermionic_weight_integral``, from the process-wide memo on the
        jungle and the slice-equality pattern of the labeling."""
        return _fermionic_integral(jungle, _equality_pattern(slices))

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
        structural zero or a relabeled copy of a yielded one.  The classes
        come from ``_order_plan``."""
        window = self.params.slices
        for index, jungle, stabilizer, ranks in _order_plan(n, len(window)):
            slices = tuple(window[r] for r in ranks)
            yield index, jungle, stabilizer, slices, self.jungle_term(jungle, slices)

    def order_contribution(self, n: int) -> complex:
        total = 0j
        for _, _, stabilizer, _, value in self.order_terms(n):
            total += value / stabilizer
        return total
