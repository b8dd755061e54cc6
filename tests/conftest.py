"""Shared helpers: random spanning jungles, finite-difference oracles and
the degree count of labeled trees."""

import math

import numpy as np
import pytest

from mlve.combinatorics import BlockPartition, Forest, Jungle, norm_edge, prufer_decode


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


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
