"""Shared helpers: random spanning jungles, finite-difference oracles,
the degree count of labeled trees, the pointwise block oracle and the
enumeration oracles of the polymer-gas Mayer expansion."""

import math
from itertools import combinations, product

import numpy as np
import pytest

import mlve.engine
from mlve.combinatorics import BlockPartition, Forest, Jungle, _degrees, enumerate_trees, norm_edge, prufer_decode
from mlve.interpolation import min_over_paths, ordering_cell_points
from mlve.model_core import dw_grid


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


def bosonic_block_value(block, tree_edges, slices, weights, params) -> complex:
    """E[prod_a (d^(d_a) W_(j_a))(sigma_a)] at one interpolation point: the
    pointwise oracle of the engine's batched block integrals.

    block lists global vertex ids; tree_edges must span it; d_a is the
    tree degree (0 for a singleton).  sigma has the centered Gaussian law
    with covariance X restricted to the block.  Each vertex's kernel row
    comes from its own single-order ``dw_grid`` call on the engine's
    current SIGMA_GRID, and the layers are walked at the one point, with
    their multipliers computed here from its levels.
    """
    verts = sorted(block)
    if len(tree_edges) != len(verts) - 1:
        raise ValueError("tree must span the block")
    local = {v: i for i, v in enumerate(verts)}
    edges = [norm_edge(local[u], local[v]) for u, v in tree_edges]
    grid = mlve.engine.SIGMA_GRID
    rows = [dw_grid(params, slices[v], d, grid)[d] for v, d in zip(verts, _degrees(len(verts), edges))]
    cell = sorted(zip(edges, (weights[e] for e in tree_edges)), key=lambda ew: -ew[1])
    half_k2, _ = mlve.engine._grid_constants(grid.size, grid[1] - grid[0])
    bounds = [1.0, *(float(w) for _, w in cell), 0.0]
    layers = [np.exp((hi - lo) * half_k2) for hi, lo in zip(bounds, bounds[1:])]
    spectra = np.fft.fft(rows, axis=-1)
    return complex(mlve.engine._cell_values(spectra, [e for e, _ in cell], layers))


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
    edges = sorted(tree_edges)
    w_pts, val = ordering_cell_points(n - 1, (len(nontree) + n) // 2)
    x = min_over_paths(n, edges, dict(zip(edges, w_pts.T)))
    for a, b in nontree:
        val = val * (1.0 - x[:, a, b])
    return sign * float(val.sum())


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
