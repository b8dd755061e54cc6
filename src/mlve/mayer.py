"""Polymer-gas Mayer expansion on a finite monomer set.

A gas is a finite monomer set plus an activity A(P) for each polymer
(nonempty monomer subset; unlisted polymers have activity zero).  The
partition function sums over unordered collections of pairwise-disjoint
polymers; its logarithm has the tree expansion

    log Z = sum_n 1/n! sum_(trees T) sum_(ordered tuples P_1..P_n)
            prod A(P_i) * eps^T,

    eps^T = (prod_(l in T) eta_l) * int dw prod_(l not in T) (1 + eta_l X_l(w)),

where eta_l is -1 when the two polymers intersect and 0 otherwise, and
X_l(w) is the min-over-tree-path interpolation of the previous modules.
Replica tuples may repeat a polymer; a polymer intersects itself, so
repeated entries simply carry eta = -1.

eps^T depends on the tuple only through the intersection pattern, so
each order caches the w-integrals per (tree, pattern).  On every ordering
cell the integrand is a polynomial, and Gauss-Legendre with the node
count that makes it exact integrates it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

from .combinatorics import enumerate_trees
from .interpolation import min_over_paths, ordering_cell_points

DIRECT_BUDGET = 8
ORDER_BUDGET = 5
MONOMER_BUDGET = 6


@dataclass(frozen=True)
class PolymerGas:
    monomers: frozenset
    activities: dict

    def __post_init__(self):
        try:
            sorted(self.monomers)  # support() orders polymers by their monomers
        except TypeError as exc:
            raise ValueError(f"monomers must be mutually comparable: {exc}") from None
        for poly, act in self.activities.items():
            if not poly:
                raise ValueError("polymers must be nonempty")
            if not frozenset(poly) <= self.monomers:
                raise ValueError(f"polymer {set(poly)} leaves the monomer set")
            if not cmath.isfinite(act):
                raise ValueError(f"polymer {set(poly)} has a non-finite activity {act!r}")

    def support(self) -> list[tuple[frozenset, complex]]:
        """Polymers with nonzero activity, in a deterministic order."""
        items = [(frozenset(p), a) for p, a in self.activities.items() if a != 0]
        return sorted(items, key=lambda t: (len(t[0]), sorted(t[0])))


def polymer_z_direct(gas: PolymerGas) -> complex:
    """Partition function by enumeration of disjoint polymer collections."""
    if len(gas.monomers) > DIRECT_BUDGET:
        raise ValueError(f"direct enumeration budgeted to {DIRECT_BUDGET} monomers")
    support = gas.support()

    def rec(idx: int, used: frozenset) -> complex:
        if idx == len(support):
            return 1.0
        total = rec(idx + 1, used)  # skip polymer idx
        poly, act = support[idx]
        if not (poly & used):
            total += act * rec(idx + 1, used | poly)
        return total

    return rec(0, frozenset())


def convergence_condition(gas: PolymerGas, root) -> float:
    """sum over polymers containing the root of |A(P)| e^(|P|); < 1 is the
    standard absolute-convergence criterion."""
    if root not in gas.monomers:
        raise ValueError(f"root monomer {root!r} not in the gas")
    return sum(abs(a) * math.exp(len(p)) for p, a in gas.support() if root in p)


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


def mayer_order_term(gas: PolymerGas, n: int) -> complex:
    """The order-n tree sum (1/n! included)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > ORDER_BUDGET:
        raise ValueError(f"order budgeted to {ORDER_BUDGET}")
    if len(gas.monomers) > MONOMER_BUDGET:
        raise ValueError(f"tree expansion budgeted to {MONOMER_BUDGET} monomers")
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
    from itertools import product as iproduct

    for tuple_idx in iproduct(range(len(support)), repeat=n):
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


def mayer_logz(gas: PolymerGas, n_max: int) -> complex:
    """Partial sum of the tree expansion of log Z through order n_max."""
    return sum(mayer_order_term(gas, n) for n in range(1, n_max + 1))
