"""Polymer-gas Mayer expansion on a finite monomer set.

A gas is a finite monomer set plus an activity A(P) for each polymer
(nonempty monomer subset; unlisted polymers have activity zero).  Weight
each polymer by s: the partition function

    Z(s) = sum over collections of pairwise-disjoint polymers of
           prod A(P) * s^(number of polymers)

is a polynomial of degree at most the monomer count, and Z(1) is the
partition function.  Order n of the tree expansion of log Z sums the
forest formula's tree weights over ordered n-tuples of polymers, so it
is homogeneous of degree n in the activities: it is the coefficient
b_n = [s^n] log Z(s).  With Z(0) = 1 the log series follows from
Z' = Z (log Z)':

    n b_n = n z_n - sum_(k<n) k b_k z_(n-k).

``series_log`` runs that recurrence at any order and in the arithmetic
of its input, so the tests' exact rational series of log Z in the
quartic coupling (``logz_series_g`` in tests/conftest.py) takes its log
from it too; ``log_coefficients`` holds the gas to
``ORDER_BUDGET``.  The coefficients z_n come from a subset sum over
monomer masks: the lowest monomer of a mask is either empty or lies in
exactly one polymer inside the mask.  The cost is flat in the number of
polymers; the tests check the orders against the tree walk itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

DIRECT_BUDGET = 8
ORDER_BUDGET = 8


@dataclass(frozen=True)
class PolymerGas:
    monomers: frozenset
    activities: dict

    def __post_init__(self):
        try:
            sorted(self.monomers)  # support() and the masks order the monomers
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


def partition_polynomial(gas: PolymerGas) -> list[complex]:
    """Coefficients z_0..z_m of Z(s) on the m monomers of the gas."""
    m = len(gas.monomers)
    if m > DIRECT_BUDGET:
        raise ValueError(f"partition function budgeted to {DIRECT_BUDGET} monomers")
    bit = {x: 1 << i for i, x in enumerate(sorted(gas.monomers))}
    by_lowest: dict[int, list] = {}
    for poly, act in gas.support():
        mask = sum(bit[x] for x in poly)
        by_lowest.setdefault(mask & -mask, []).append((mask, act))
    z = [[1.0 + 0.0j] + [0.0j] * m]  # z[mask]: Z(s) of the monomers in mask
    for mask in range(1, 1 << m):
        lowest = mask & -mask
        coeffs = list(z[mask ^ lowest])
        for poly, act in by_lowest.get(lowest, ()):
            if poly & mask == poly:
                for k, c in enumerate(z[mask ^ poly][:m]):
                    coeffs[k + 1] += act * c
        z.append(coeffs)
    return z[-1]


def series_log(z, order: int) -> list:
    """b_1..b_order of log Z(s) for the coefficients z_0..z_order of Z(s),
    z_0 = 1, by n b_n = n z_n - sum_(k<n) k b_k z_(n-k).  The sums start
    from a zero of z's own type, so Fractions give Fractions exactly."""
    zero = 0 * z[0]
    b = []
    for n in range(1, order + 1):
        b.append(z[n] - sum((k * b[k - 1] * z[n - k] for k in range(1, n)), zero) / n)
    return b


def log_coefficients(z, n_max: int) -> list[complex]:
    """b_1..b_n_max of log Z(s) for the coefficients z of Z(s), z_0 = 1."""
    if not 1 <= n_max <= ORDER_BUDGET:
        raise ValueError(f"order must be in 1..{ORDER_BUDGET}, got {n_max}")
    return series_log(list(z) + [0.0j] * n_max, n_max)


def convergence_condition(gas: PolymerGas, root) -> float:
    """sum over polymers containing the root of |A(P)| e^(|P|); < 1 is the
    standard absolute-convergence criterion."""
    if root not in gas.monomers:
        raise ValueError(f"root monomer {root!r} not in the gas")
    return sum(abs(a) * math.exp(len(p)) for p, a in gas.support() if root in p)
