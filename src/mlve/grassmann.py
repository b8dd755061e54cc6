"""Grassmann Gaussian integrals as signed minors.

The integral

    I(M; a, b) = int prod_i (dpsibar_i dpsi_i) exp(-psibar M psi)
                 psi_(a_1) psibar_(b_1) ... psi_(a_k) psibar_(b_k)

equals, up to a sign fixed below, the determinant of M with rows b and
columns a deleted.  The sign is locked by exhaustive agreement with the
brute-force Berezin algebra of the tests (``tests/conftest.py``), for
every index choice at dimension <= 5:

    I = eps(sort a) * eps(sort b) * (-1)^(sum a + sum b) * det(M[b-hat, a-hat])

with 0-based indices and eps the parity of the permutation sorting the
list.  The Fermionic factor of an expansion term assembles the 2^k
exchange-pattern minors of the lifted matrix Y: the path minima of the
jungle's union forest, its Bosonic edges at weight 1 and its Fermionic
edges at their weights, times the slice delta.  Minors act on the last
two axes, so ``exchange_sum`` takes a stack of lifted matrices, with one
stacked determinant per exchange pattern, and edge weights given as
broadcastable arrays yield the factor at all their points at once.  The
engine gathers its stacks one ordering cell at a time; the path-minimum
``lifted_y_matrix`` serves any point.  Real stacks stay real.
``grassmann_minor`` is one checked minor, the per-pattern reference of
``exchange_sum``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .combinatorics import Jungle
from .interpolation import _read_only, min_over_paths


def _sort_parity(indices) -> int:
    """Parity (+-1) of the permutation sorting the list, by inversion count."""
    inv = 0
    items = list(indices)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _minor_indices(shape, cols, rows):
    """The kept rows, as a column, the kept columns and the sign of the
    minor of the defining Grassmann integral with the ordered deletion
    lists cols and rows, for matrices of the given (rows, columns) shape:
    the minor is sign * det(matrix[..., kept rows, kept columns])."""
    keep_rows = np.array([i for i in range(shape[0]) if i not in rows], dtype=int)[:, None]
    keep_cols = np.array([i for i in range(shape[1]) if i not in cols], dtype=int)
    sign = _sort_parity(cols) * _sort_parity(rows)
    if (sum(cols) + sum(rows)) % 2:
        sign = -sign
    return keep_rows, keep_cols, sign


def grassmann_minor(matrix, cols, rows):
    """Value of the defining Grassmann integral, sign included, for the
    ordered deletion lists cols (the psi indices a) and rows (the psibar
    indices b), acting on the last two axes.

    A stack of matrices along the leading axes gives the stack of values,
    one per matrix.
    """
    if len(cols) != len(rows):
        raise ValueError("need equally many removed columns and rows")
    if len(set(cols)) != len(cols) or len(set(rows)) != len(rows):
        raise ValueError("index collision in a removal list")
    arr = np.asarray(matrix)
    dim = arr.shape[-1]
    for i in (*cols, *rows):
        if not 0 <= i < dim:
            raise ValueError(f"index {i} out of range for dimension {dim}")
    keep_rows, keep_cols, sign = _minor_indices(arr.shape[-2:], cols, rows)
    return sign * np.linalg.det(arr[..., keep_rows, keep_cols])


# --- Fermionic factor of an expansion term ----------------------------------


def hardcore_violated(jungle: Jungle, slices) -> bool:
    """True iff some Bosonic block carries two vertices of equal slice."""
    for block in jungle.partition().blocks:
        js = [slices[v] for v in block]
        if len(set(js)) != len(js):
            return True
    return False


def slice_delta_violated(jungle: Jungle, slices) -> bool:
    """True iff some Fermionic edge joins vertices of different slices."""
    return any(slices[u] != slices[v] for u, v in jungle.fermionic)


def lifted_y_matrix(jungle: Jungle, slices, weights: dict) -> np.ndarray:
    """Vertex-level matrix Y_ab = delta(j_a, j_b) times the least Fermionic
    weight on the path that joins the blocks of a and b, zero where no path
    does.

    The Bosonic and Fermionic edges together form a forest, the union
    forest.  Its path from a to b crosses exactly the Fermionic edges of the
    block path, and a Bosonic edge at weight 1 lowers no minimum, so Y is
    the path-minimum matrix of the union forest times the slice delta.

    Scalar weights give one (n, n) matrix; broadcastable array weights give
    one matrix per point of their broadcast shape S, shape S + (n, n).
    """
    union = dict.fromkeys(jungle.bosonic.edges, 1.0) | {e: weights[e] for e in jungle.fermionic}
    js = np.asarray(slices)
    return min_over_paths(jungle.n, list(union), union) * (js[:, None] == js)


@lru_cache(maxsize=None)
def _exchange_patterns(jungle: Jungle) -> tuple:
    """The (kept rows, kept columns, sign) of ``_minor_indices`` on the
    jungle's n x n lifted Y for the deletion lists of the 2^k exchange
    patterns of its Fermionic edges, in pattern order, without those that
    repeat a generator: their exchange term vanishes.  Fixed once per
    jungle, so no call repeats the checks and parities of
    ``grassmann_minor``.  Cached, so read-only."""
    edges = sorted(jungle.fermionic)
    out = []
    for pattern in range(1 << len(edges)):
        cols = tuple(v if pattern >> i & 1 else u for i, (u, v) in enumerate(edges))
        rows = tuple(u if pattern >> i & 1 else v for i, (u, v) in enumerate(edges))
        if len(set(cols)) == len(edges) and len(set(rows)) == len(edges):
            keep_rows, keep_cols, sign = _minor_indices((jungle.n, jungle.n), cols, rows)
            out.append((*_read_only(keep_rows, keep_cols), sign))
    return tuple(out)


def exchange_sum(jungle: Jungle, y):
    """The sum over the exchange patterns of the jungle's Fermionic edges
    of the minors of the lifted Y: a float for one matrix, an array for a
    stack of them."""
    total = np.zeros(y.shape[:-2])
    for keep_rows, keep_cols, sign in _exchange_patterns(jungle):
        total = total + sign * np.linalg.det(y[..., keep_rows, keep_cols])
    return total if total.ndim else float(total)


def fermionic_factor(jungle: Jungle, slices, weights: dict):
    """Fermionic weight of a term at one point of its edge weights: the
    exchange sum of the lifted Y, and zero where the hardcore rule or the
    slice delta fails.

    Scalar weights give a float; broadcastable array weights give the
    factors at every point of their broadcast shape, an array of it.
    """
    y = lifted_y_matrix(jungle, slices, weights)
    if hardcore_violated(jungle, slices) or slice_delta_violated(jungle, slices):
        total = np.zeros(y.shape[:-2])
        return total if total.ndim else 0.0
    return exchange_sum(jungle, y)
