"""Quartic vector model kernels: slices, subtracted logarithm, V and W.

The model lives on integer propagator indices p grouped into geometric
slices I_j = [M^(j-1), M^j - 1].  Each slice carries a kernel

    V_j(sigma) = sum_{p in I_j} log2m(i*lam*sigma/p),
    W_j(sigma) = exp(-V_j(sigma)) - 1,

where log2m(x) = x + log(1-x) is the subtracted logarithm, of second
order at small x.  The expansion engine needs sigma-derivatives of W_j of
any small order; they follow from the closed forms for the derivatives
of -V_j by the Leibniz recurrence of E' = (-V)' E, E = exp(-V_j).

``dw_grid`` is the one route for these quantities: it evaluates the
stacks d^0 W_j .. d^q W_j of a list of slices on numpy arrays from one
``numerics.kernel_bundle`` call (past the head of a long slice, one
power series for -V, differentiated termwise).  The scalar compensated
sums and the Faa di Bruno partition sum it is checked against, one sigma
at a time, are in the tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import numerics


@dataclass(frozen=True)
class SliceIndexSet:
    """The integer interval I_j = [M^(j-1), M^j - 1]."""

    j: int
    lo: int
    hi: int


def slice_range(M: int, j: int) -> SliceIndexSet:
    """Index window of the j-th slice for base M."""
    if M < 2:
        raise ValueError(f"slice base must be >= 2, got {M}")
    if j < 1:
        raise ValueError(f"slice label must be >= 1, got {j}")
    return SliceIndexSet(j=j, lo=M ** (j - 1), hi=M**j - 1)


@dataclass(frozen=True)
class ModelParams:
    """Coupling and slice window of the model.

    lam is the coupling (possibly complex, lam = |lam| e^{i*gamma}); the
    quartic coupling is g = lam^2.  The ultraviolet cutoff is
    N = M^j_max - 1 and the infrared one is the first index of slice
    j_min.
    """

    lam: complex
    M: int
    j_min: int = 1
    j_max: int = 1

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"slice base must be >= 2, got {self.M}")
        if self.j_min < 1:
            raise ValueError(f"j_min must be >= 1, got {self.j_min}")
        if self.j_max < self.j_min:
            raise ValueError(f"need j_min <= j_max, got [{self.j_min}, {self.j_max}]")
        # the kernels take the indices as floats; the first test refuses a
        # window past 2^1025 without building M^j_max
        if self.j_max > 1025 / math.log2(self.M) or self.cutoff > sys.float_info.max:
            raise ValueError(f"cutoff M^j_max - 1 must be at most {sys.float_info.max:.6g}, the float range")

    @property
    def cutoff(self) -> int:
        return self.M**self.j_max - 1

    @property
    def slices(self) -> range:
        return range(self.j_min, self.j_max + 1)

    @property
    def p_lo(self) -> int:
        """First index of the full window (start of slice j_min)."""
        return self.M ** (self.j_min - 1)

    def slice_set(self, j: int) -> SliceIndexSet:
        if not self.j_min <= j <= self.j_max:
            raise ValueError(f"slice {j} outside window [{self.j_min}, {self.j_max}]")
        return slice_range(self.M, j)


def dw_grid(params: ModelParams, js, q: int, sigma: np.ndarray) -> np.ndarray:
    """d^0 W_j, ..., d^q W_j for every slice j of ``js`` on a grid of sigma
    values, shape (len(js), q + 1, *sigma.shape), from one
    ``kernel_bundle`` call.  E = 1 + W = exp(-V) solves E' = (-V)' E, so
    by Leibniz's rule

        d^q E = sum_(k<q) C(q-1, k) d^(k+1)(-V) d^(q-1-k) E,   q >= 1.

    Row q reads only the rows below it, and every derivative order of the
    sweep accumulates on its own, so row k is the same for every q >= k;
    every step is elementwise, so the rows of a slice are the same for
    every js that holds it."""
    windows = [(sl.lo, sl.hi) for sl in map(params.slice_set, js)]
    w, dv = numerics.kernel_bundle(complex(params.lam), windows, q, sigma)
    rows = [1.0 + w]
    for order in range(1, q + 1):
        rows.append(sum(math.comb(order - 1, k) * dv[k + 1] * rows[order - 1 - k] for k in range(order)))
    rows[0] = w  # d^q E = d^q W for q >= 1
    return np.stack(rows, axis=1)
