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
zero.  Every other labeling is a structural zero; ``jungle_term``, the
per-labeling reference of the tests and the layer trace, returns one as
an exact 0, so a block with a repeated slice, or a Fermionic edge
joining different slices, never reaches quadrature there either.

A Bosonic block expectation is a Gaussian expectation under the
interpolated covariance X(w), and both weight integrals run one
ordering cell at a time, on the rule of ``interpolation.ordering_cell``:
the min() interpolation is smooth there.  Inside a cell the tree edges
have one order by weight, w_1 >= ... >= w_k, and X is the layer sum
sum_i (w_i - w_(i+1)) sum_f 1_f 1_f^T over the components f of the i
heaviest edges: sigma is a sum of independent Gaussian shifts, one per
layer and component.  A block integral walks each cell's edges by
decreasing weight.  Each edge merges the two components it joins, a
product on one fixed uniform grid; then every merged component is
smoothed by the exact Fourier multiplier exp(-(w_i - w_(i+1)) k^2/2).
The last edge leaves one function, and its product is read at sigma = 0
on the grid, against the transform of the last multiplier times the
readout phases, so it never returns to Fourier space.  Layer i reads
the first i + 1 cell coordinates only, so a component stays in Fourier
space as a stack over that prefix grid, returning to the grid only to
merge.  A vertex that is still a component of its own when edge i
merges it is its spectrum times m_0 ... m_(i-1), transformed back: that
stack depends on the vertex's slice, tree degree and layer only, since
layer i < k has the same multiplier in every block of k edges.  The
evaluator keeps one per (slice, degree, layer), built on first use, and
every cell of every block reads it: 24 stacks, 31.9 MB, serve the 38
blocks of j = 1..4 through n = 4.

The blocks read the kernels only through d^q W_j on the grid, and a
block of order n has at most n vertices, one per slice, so no tree
degree passes q = min(slice count, BLOCK_BUDGET, n_max) - 1, with n_max
the highest order the evaluator sums.  ``dw_grid`` returns the stacks
d^0 W_j .. d^q W_j of a list of slices from one kernel call, each row
equal to a single-order call on its slice alone, and the evaluator keeps
its spectra per slice: its first block sweeps every slice of the window
in one call and transforms the stack with one FFT, and every later
block only picks rows; a block with a tree degree past q is refused.  A
compare makes one such call, at the default config and at j = 1..8
alike, each slice's stack of n_max rows at most.

The lifted Y of the Fermionic factor is the path-minimum matrix of the
jungle's union forest, its Bosonic and Fermionic edges together, with
every Bosonic edge at weight 1, times the slice delta.  The factor is
evaluated one ordering cell at a time, as a block is.  Inside a cell a
path minimum is the level of the path's last Fermionic edge in the
cell's order, so the cell's Y is one gather of its broadcast levels
through an index table fixed per integral, and each of the 2^k
exchange-pattern minors is one stacked determinant over it.  Its
integrand is a polynomial of degree <= n - 1 in each cube coordinate of
a cell, so (n + 1) // 2 Gauss-Legendre nodes integrate it exactly;
``gl_nodes`` sets the rule of the Bosonic blocks only.

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

Only the block integrals read the coupling, so everything else about a
term class is planned over slice ranks, once per process for each order
and slice count, by the cached ``_order_plan``: its jungle, stabilizer
and least labeling, its Fermionic integral and the key of each of its
Bosonic blocks.  The Fermionic integral sees the slices only through
which of them are equal, so one process-wide memo holds it by jungle and
equality pattern: the 105 and 369 classes need 21 and 75 Fermionic
integrals, and an evaluator at another coupling or window over as many
slices computes none.  Block values are cached on the evaluator, on the
block alone: the hardcore rule gives each block vertex its own slice, so
naming every vertex by the rank of its slice puts the block in canonical
form with no search, and the key in slice ranks maps to the key in the
window's slices.  An order is then, row by row, the planned Fermionic
integral times block values read by key through ``block_integral``, each
integrated on its first read; the tests hold it against ``jungle_term``,
the same product one labeling at a time, filters included.  The default
config needs 9 block integrals through n = 6.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np

from .combinatorics import JUNGLE_BUDGET, Jungle, _components_of, _degrees, jungle_classes, norm_edge
from .errors import BudgetExceededError
from .grassmann import exchange_sum, hardcore_violated, slice_delta_violated
from .interpolation import _read_only, min_over_paths, ordering_cell
from .model_core import ModelParams, dw_grid
# unused here but bound: the benchmark's layer trace wraps them on this module
from .combinatorics import enumerate_jungles  # noqa: F401
from .grassmann import fermionic_factor  # noqa: F401

BLOCK_BUDGET = 4
# Seconds one block integral takes at DEFAULT_GL_NODES, by vertex count
# b = 1..BLOCK_BUDGET, averaged over every block of a window in one
# evaluator on a shared 2-core host with one BLAS thread: 0.01-0.04 ms for
# b <= 2 (200 slices), 0.7-1.1 ms for b = 3 (24 slices) and 34-57 ms for
# b = 4 (6 slices), which other runs put at 68-99 ms; b = 4 takes the top
# of that range.  A compare whose blocks would take more than
# BLOCK_SECONDS_LIMIT at these prices is refused before any work.
BLOCK_SECONDS = (3e-5, 3e-5, 8e-4, 0.099)
BLOCK_SECONDS_LIMIT = 60.0
DEFAULT_GL_NODES = 12
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


def block_counts(n_slices: int, n_max: int) -> dict:
    """{b: the distinct blocks of b vertices that orders 1..n_max over
    n_slices slices integrate}: every block has its own slice on each
    vertex, so C(n_slices, b) slice sets times the b^(b-2) labeled trees,
    for b up to min(n_max, n_slices, BLOCK_BUDGET)."""
    return {b: math.comb(n_slices, b) * b ** max(b - 2, 0) for b in range(1, min(n_max, n_slices, BLOCK_BUDGET) + 1)}


def block_seconds(counts: dict, gl_nodes: int) -> float:
    """The time the blocks of ``block_counts`` take at BLOCK_SECONDS, with
    gl_nodes Gauss-Legendre nodes: a cell of a block of b vertices walks
    gl_nodes^(b-1) weight points, so the price scales with that power."""
    return sum(n * BLOCK_SECONDS[b - 1] * (gl_nodes / DEFAULT_GL_NODES) ** (b - 1) for b, n in counts.items())


@lru_cache(maxsize=None)
def _layer_multipliers(k: int, order: int, n: int, step: float) -> tuple:
    """The Fourier multipliers m_i = exp(-(w_i - w_(i+1)) k^2/2) of the
    layers i = 0..k - 1 at the levels of ``ordering_cell(k, order)``,
    w_0 := 1, and in place of the last multiplier m_k, with w_(k+1) := 0,
    the readout at sigma = 0, on a SIGMA_GRID of n points spaced by step,
    the only things of the grid that they read.

    The one function left in a cell is read at sigma = 0 after smoothing
    by m_k: summed over the grid, spectrum * m_k * phase.  Past a merge
    that function is a product x in real space, and summed over the grid
    fft(x) * m_k * phase equals x * fft(m_k * phase).  So the readout of
    k >= 1 edges is fft(m_k * phase), read against x; it is real, since
    m_k is even in the wavenumber, and is kept real.  A block of one
    vertex never merges, and reads its spectrum against m_0 * phase.
    Layer i holds order^(i+1) points and the readout order^k, with the
    grid on a trailing axis; they serve every cell of every block with k
    tree edges.  Cached and read-only: 7.0 MB at k = 3, a 4-vertex block,
    and the default 12 nodes."""
    half_k2 = -0.5 * (2.0 * np.pi * np.fft.fftfreq(n, step)) ** 2
    phase = np.fft.ifft(np.arange(n) == n // 2)  # spectrum @ phase reads sigma = 0, on the FFT's own twiddles
    bounds = (1.0, *ordering_cell(k, order)[0], 0.0)
    *layers, last = (np.exp(np.multiply.outer(hi - lo, half_k2)) for hi, lo in zip(bounds, bounds[1:]))
    readout = last * phase
    return _read_only(*layers, np.fft.fft(readout).real.copy() if k else readout)


def _cell_values(singleton, order, layers) -> np.ndarray:
    """E[prod_a f_a(sigma_a)] at each point of one ordering cell of k >= 1
    tree edges.

    order holds the tree edges by decreasing weight, w_1 >= ... >= w_k,
    layers their multipliers and readout, as ``_layer_multipliers`` gives
    them, and singleton(a, i) the function of vertex a at the merge of
    edge i while a is still a component of its own: the inverse transform
    of its spectrum times m_0 ... m_(i-1), shared and read-only.  With
    w_0 := 1 and w_(k+1) := 0, sigma has covariance
    sum_i (w_i - w_(i+1)) sum_f 1_f 1_f^T over the components f of the i
    heaviest edges, so every component of layer i adds one Gaussian shift
    of variance w_i - w_(i+1) to all of its vertices.  Edge i merges the
    two components it joins: the product of their functions, on the grid.
    Then every merged component is smoothed, in Fourier space, by
    exp(-(w_i - w_(i+1)) k^2/2), on the prefix grid of the first i + 1
    cell coordinates.  The last edge leaves one function, a product in
    real space that is not transformed back: it is read against the
    readout, at the points of the last layer.  So a cell makes k - 1
    forward transforms.
    """
    comp = list(range(len(order) + 1))
    funcs = {}
    for i, edge in enumerate(order, 1):
        # a component is named by its least vertex, and a merge puts the
        # lesser name first: complex products are not bitwise commutative.
        # A merged component is a product made by this walk, so it is
        # transformed and overwritten in place (numpy.fft takes out= from
        # NumPy 2.0 on); a single vertex is read from its shared stack.
        a, b = sorted(comp[v] for v in edge)
        fa, fb = funcs.pop(a, None), funcs.pop(b, None)
        left = singleton(a, i) if fa is None else np.fft.ifft(fa, out=fa)
        right = singleton(b, i) if fb is None else np.fft.ifft(fb, out=fb)
        merged = np.multiply(left, right, out=fa if fa is not None else fb)
        if i == len(order):
            return np.einsum("...i,...i->...", merged, layers[i])
        funcs[a] = np.fft.fft(merged, out=merged)
        comp = [a if x == b else x for x in comp]
        funcs = {x: f * layers[i] for x, f in funcs.items()}


def _union_paths(jungle: Jungle):
    """The paths of the union forest, its Bosonic and Fermionic edges
    together: on_path[e, a, b] is True where the path from a to b crosses
    the e-th Fermionic edge in sorted order, and linked[a, b] where a path
    joins a and b.  One path-minimum walk finds both: Fermionic edge e
    weighs 0 on axis e and 1 on the others, and a Bosonic edge 1 on all k
    + 1 axes, so the minimum is 0 on axis e exactly where the path crosses
    e, and 1 on the last axis exactly where there is a path."""
    k = len(jungle.fermionic)
    weights = dict.fromkeys(jungle.bosonic.edges, np.ones(k + 1))
    weights |= dict(zip(sorted(jungle.fermionic), 1.0 - np.eye(k + 1)[:k]))
    paths = np.broadcast_to(min_over_paths(jungle.n, list(weights), weights), (k + 1, jungle.n, jungle.n))
    return paths[:k] == 0.0, paths[k] == 1.0


def fermionic_weight_integral(jungle: Jungle, slices) -> float:
    """The Fermionic factor integrated over its edge weights, exactly.

    Inside an ordering cell every entry of the lifted Y is 0, 1 or one
    sorted coordinate t_m = prod_(i>=m) v_i, so every exchange-pattern
    minor is a polynomial of degree <= n - k in t, and with the cell
    Jacobian prod_m v_m^m of degree <= n - 1 in each v_i.  Gauss-Legendre
    with (n + 1) // 2 nodes integrates that exactly, on the levels of
    ``ordering_cell`` (k = 0 gives a scalar).

    The levels fall in the cell's edge order, so the path minimum of a
    vertex pair is the level of the path's Fermionic edge that comes last
    in that order, 1 on an all-Bosonic path and 0 where no path joins the
    pair.  With the union-forest paths fixed once, each cell's Y is one
    gather of its broadcast levels, which reads the slice delta's zeros
    from a slot of their own.

    The labeling must be admissible: neither the hardcore rule nor the
    slice delta may be broken.  Nothing here checks it.
    """
    k = len(jungle.fermionic)
    levels, weights = ordering_cell(k, (jungle.n + 1) // 2)
    on_path, linked = _union_paths(jungle)
    js = np.asarray(slices)
    # slot 0 holds the 1 of an all-Bosonic path, slot i + 1 level i and the
    # last slot the 0 of a pair with no path or two slices
    slots = np.stack(np.broadcast_arrays(1.0, *levels, 0.0), axis=-1)
    zero = np.where(linked & (js[:, None] == js), 0, k + 1)
    total = 0.0
    for order in permutations(range(k)):
        last = (on_path * (np.argsort(order) + 1)[:, None, None]).max(axis=0, initial=0)
        values = exchange_sum(jungle, slots[..., np.maximum(last, zero)])
        total += np.dot(weights.ravel(), np.ravel(values))
    return float(total)


@lru_cache(maxsize=None)
def _fermionic_integral(jungle: Jungle, pattern: tuple) -> float:
    """``fermionic_weight_integral`` at a slice-equality pattern, memoized
    for the process: the lifted Y and the node count read nothing of the
    slices but which of them are equal, so the pattern stands for every
    labeling that has it.  The pattern must be of an admissible labeling;
    ``_order_plan`` passes only those, and ``jungle_term`` filters first."""
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


def _block_key(verts, edges, slices) -> tuple:
    """(sorted slices, tree edges in slice ranks) of a block: verts are its
    vertices, edges its tree and slices the labeling.  The hardcore rule
    gives each block vertex its own slice, so naming every vertex by the
    rank of its slice puts the block in canonical form, with no search."""
    ranked = sorted(verts, key=slices.__getitem__)
    rank = {v: i for i, v in enumerate(ranked)}
    return tuple(slices[v] for v in ranked), tuple(sorted(norm_edge(rank[u], rank[v]) for u, v in edges))


@lru_cache(maxsize=None)
def _order_plan(n: int, n_slices: int) -> tuple:
    """The term classes of order n over a window of n_slices slices: one
    row (class index, jungle, stabilizer, ranks, Fermionic integral, block
    keys) per class, by class index and then by labeling.

    ranks is the least admissible labeling of the class representative in
    slice ranks 0..n_slices - 1.  A window's slices increase with their
    rank, so mapping the ranks to them keeps the lexicographic order, the
    least labeling of each orbit and its stabilizer.  The Fermionic
    integral is read from the ``_fermionic_integral`` memo at the equality
    pattern of ranks, and the block keys are the ``_block_key`` of each
    Bosonic block in slice ranks, in ``jungle.partition().blocks`` order:
    mapped to a window's slices, they are the keys of its block cache.
    None of it reads the coupling, so it is cached: each (order, slice
    count) is planned once per process and shared by every evaluator;
    ``jungle_classes`` refuses an order past its budget before any row."""
    rows = []
    for index, (jungle, automorphisms) in enumerate(jungle_classes(n)):
        edges = jungle.bosonic.edges
        for ranks in _admissible_labelings(jungle, range(n_slices)):
            images = [tuple(ranks[v] for v in order) for order in automorphisms]
            if min(images) == ranks:
                fermionic = _fermionic_integral(jungle, _equality_pattern(ranks))
                blocks = tuple(
                    _block_key(block, [e for e in edges if e[0] in block], ranks) for block in jungle.partition().blocks
                )
                rows.append((index, jungle, images.count(ranks), ranks, fermionic, blocks))
    return tuple(rows)


class TermEvaluator:
    """Sums each order over the term classes of its order plan, as each
    row's Fermionic integral times its block values; caches block
    integrals by block key, kernel spectra by slice and the smoothed
    single-vertex stacks of the cell walk by (slice, tree degree, layer).

    n_max is the highest order the evaluator will sum.  A block of order n
    has at most n vertices, one per slice, so no tree degree passes
    q = min(slice count, BLOCK_BUDGET, n_max) - 1, and each slice's sweep
    stops at d^q W_j; a block past q is refused.  The default, the jungle
    budget, sweeps every row a block of the window can read."""

    def __init__(self, params: ModelParams, gl_nodes: int = DEFAULT_GL_NODES, n_max: int = JUNGLE_BUDGET):
        self.params = params
        self.gl_nodes = gl_nodes
        self._top = min(len(params.slices), BLOCK_BUDGET, n_max) - 1
        self._block_cache: dict = {}
        self._spectra: dict = {}
        self._singletons: dict = {}

    # -- bosonic side --------------------------------------------------------

    def block_integral(self, js, local) -> complex:
        """The block Gaussian integral, integrated over its tree weights,
        of the block of ``_block_key`` (js, local): its sorted slices, and
        its tree edges on local vertices named by slice rank.  It is read
        from the cache, and integrated from the key on a miss."""
        value = self._block_cache.get((js, local))
        if value is None:
            value = self._block_cache[js, local] = self._integrate_block(local, js)
        return value

    def _vertex_kernels(self, edges, js) -> list:
        """(j_a, d_a) for each local vertex a: its slice, and its tree
        degree, the row of that slice's spectra that it reads.

        The evaluator's first block sweeps d^0 W_j .. d^q W_j of every
        slice of the window in one ``dw_grid`` call and keeps their spectra
        on SIGMA_GRID, by slice, with q the largest tree degree of a block
        the evaluator sums; every slice has a block of one vertex, so no
        row goes unread.  Every block evaluation starts here, so this is
        where a block past BLOCK_BUDGET, or with a tree degree past q, is
        refused: no row past q is ever read."""
        if len(js) > BLOCK_BUDGET:
            raise BudgetExceededError(f"block size {len(js)} > {BLOCK_BUDGET}")
        degrees = _degrees(len(js), edges)
        if max(degrees) > self._top:
            raise BudgetExceededError(f"tree degree {max(degrees)} > {self._top}, the last kernel row swept")
        for j in js:
            self.params.slice_set(j)  # a ValueError for a slice outside the window
        if not self._spectra:
            window = self.params.slices
            self._spectra = dict(zip(window, np.fft.fft(dw_grid(self.params, window, self._top, SIGMA_GRID), axis=-1)))
        return list(zip(js, degrees))

    def _singleton(self, j, d, i, layers) -> np.ndarray:
        """The inverse transform of the spectrum of d^d W_j times the layer
        multipliers m_0 ... m_(i-1): a vertex of slice j and tree degree d
        that is still a component of its own at the merge of edge i.

        Layer i < k reads the first i + 1 cell coordinates only, with the
        same values for every block of k edges, so one stack per (slice,
        degree, layer) serves every cell of every block; it is built on
        first use, in the product order of the cell walk.  Read-only."""
        stack = self._singletons.get((j, d, i))
        if stack is None:
            stack = self._spectra[j][d] * layers[0]
            for m in layers[1:i]:
                stack = stack * m
            (stack,) = _read_only(np.fft.ifft(stack, out=stack))
            self._singletons[j, d, i] = stack
        return stack

    def _integrate_block(self, edges, js) -> complex:
        """One ordering cell per order of the tree edges by decreasing
        weight: every cell walks the same layers of ``ordering_cell`` and
        is contracted with its weights on its own.  A block of one vertex
        never merges, and reads its spectrum against m_0 * phase."""
        kernels = self._vertex_kernels(edges, js)
        layers = _layer_multipliers(len(edges), self.gl_nodes, SIGMA_GRID.size, SIGMA_GRID[1] - SIGMA_GRID[0])
        if not edges:
            ((j, d),) = kernels
            return complex(self._spectra[j][d] @ layers[0])

        def singleton(a, i):
            return self._singleton(*kernels[a], i, layers)

        weights = ordering_cell(len(edges), self.gl_nodes)[1].ravel()
        total = 0j
        for order in permutations(edges):
            total += np.dot(weights, _cell_values(singleton, order, layers).ravel())
        return complex(total)

    # -- fermionic side ------------------------------------------------------

    def fermionic_integral(self, jungle: Jungle, slices) -> float:
        """``fermionic_weight_integral``, from the process-wide memo on the
        jungle and the slice-equality pattern of the labeling."""
        return _fermionic_integral(jungle, _equality_pattern(slices))

    # -- full terms ----------------------------------------------------------

    def jungle_term(self, jungle: Jungle, slices) -> complex:
        """The Fermionic integral times the block integrals, for any
        labeling.  A labeling that breaks the hardcore rule or the slice
        delta is an exact 0, with no quadrature."""
        slices = tuple(slices)
        if hardcore_violated(jungle, slices) or slice_delta_violated(jungle, slices):
            return 0j
        value = complex(self.fermionic_integral(jungle, slices))
        if value != 0:
            edges = jungle.bosonic.edges
            for block in jungle.partition().blocks:
                value *= self.block_integral(*_block_key(block, [e for e in edges if e[0] in block], slices))
        return value

    def order_terms(self, n: int):
        """Yield (class index, jungle, stabilizer, slices, value), one row
        per term class of order n, so that order n is the sum of
        value / stabilizer.

        The jungle is the representative of ``jungle_classes(n)`` with that
        index, slices an admissible labeling of it that is least in its
        orbit under the automorphisms, and the stabilizer the number of
        automorphisms that fix slices.  Every other labeling is a
        structural zero or a relabeled copy of a yielded one.  The classes,
        their Fermionic integrals and block keys come from ``_order_plan``,
        so value is the product ``jungle_term`` makes, in the same order,
        with the block keys mapped from slice ranks to the window."""
        window = self.params.slices
        for index, jungle, stabilizer, ranks, fermionic, blocks in _order_plan(n, len(window)):
            value = complex(fermionic)
            if value != 0:
                for js, local in blocks:
                    value *= self.block_integral(tuple(window[r] for r in js), local)
            yield index, jungle, stabilizer, tuple(window[r] for r in ranks), value

    def order_contribution(self, n: int) -> complex:
        total = 0j
        for _, _, stabilizer, _, value in self.order_terms(n):
            total += value / stabilizer
        return total
