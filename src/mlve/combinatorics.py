"""Labeled trees, forests, set partitions and two-level jungles, and one
spanning jungle per isomorphism class.

Everything is exhaustive at desk scale: enumerators refuse instead of
silently running forever once past their budget, and every closed-form
count has an enumeration cross-check in the test suite.  Vertices are
labeled 0..n-1 and edges are ordered pairs (u, v) with u < v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations, product

from .errors import BudgetExceededError

TREE_BUDGET = 8
FOREST_BUDGET = 8
JUNGLE_BUDGET = 7

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) is not an edge")
    return (u, v) if u < v else (v, u)


class _DSU:
    """Union-find with an undo stack, for backtracking enumerations."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.trail: list[tuple[int, int]] = []

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.trail.append((rb, ra))
        return True

    def undo(self) -> None:
        rb, ra = self.trail.pop()
        self.parent[rb] = rb
        self.size[ra] -= self.size[rb]


def _degrees(n: int, edges) -> list[int]:
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return degrees


def _components_of(n: int, edges) -> tuple[frozenset, ...]:
    dsu = _DSU(n)
    for u, v in edges:
        dsu.union(u, v)
    groups: dict[int, set] = {}
    for v in range(n):
        groups.setdefault(dsu.find(v), set()).add(v)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


def _is_acyclic(n: int, edges) -> bool:
    dsu = _DSU(n)
    return all(dsu.union(u, v) for u, v in edges)


@dataclass(frozen=True)
class Forest:
    """An acyclic set of edges on vertices 0..n-1."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n = {self.n}")
        if not _is_acyclic(self.n, self.edges):
            raise ValueError("edge set contains a cycle")

    def components(self) -> tuple[frozenset, ...]:
        return _components_of(self.n, self.edges)

    def degrees(self) -> tuple[int, ...]:
        return tuple(_degrees(self.n, self.edges))

    @property
    def is_spanning_tree(self) -> bool:
        return len(self.edges) == self.n - 1


def empty_forest(n: int) -> Forest:
    return Forest(n, frozenset())


@dataclass(frozen=True)
class BlockPartition:
    """A partition of 0..n-1 into disjoint nonempty blocks."""

    n: int
    blocks: tuple[frozenset, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if seen & b:
                raise ValueError("blocks overlap")
            seen |= set(b)
        if seen != set(range(self.n)):
            raise ValueError("blocks do not cover the vertex set")

    def block_of(self) -> dict[int, int]:
        idx = {}
        for i, b in enumerate(self.blocks):
            for v in b:
                idx[v] = i
        return idx

    def profile(self) -> dict[int, int]:
        prof: dict[int, int] = {}
        for b in self.blocks:
            prof[len(b)] = prof.get(len(b), 0) + 1
        return prof


@dataclass(frozen=True)
class Jungle:
    """Ordered pair of a Bosonic forest and a detailed Fermionic edge set.

    The union must itself be a forest; each Fermionic edge then
    automatically joins two distinct Bosonic blocks (an edge inside a
    block would close a cycle).
    """

    n: int
    bosonic: Forest
    fermionic: frozenset

    def __post_init__(self):
        if self.bosonic.n != self.n:
            raise ValueError("bosonic forest has the wrong vertex count")
        if self.fermionic & self.bosonic.edges:
            raise ValueError("a Fermionic edge duplicates a Bosonic edge")
        if not _is_acyclic(self.n, list(self.bosonic.edges) + list(self.fermionic)):
            raise ValueError("bosonic + fermionic union is not a forest")
        block_of = self.partition().block_of()
        for u, v in self.fermionic:
            if block_of[u] == block_of[v]:
                raise ValueError(f"Fermionic edge ({u}, {v}) stays inside one block")

    def union_forest(self) -> Forest:
        return Forest(self.n, self.bosonic.edges | self.fermionic)

    def partition(self) -> BlockPartition:
        return self._partition

    @cached_property
    def _partition(self) -> BlockPartition:
        # built once per instance; equality and hashing see only the fields
        return BlockPartition(self.n, self.bosonic.components())

    @property
    def is_spanning(self) -> bool:
        return len(self.bosonic.edges) + len(self.fermionic) == self.n - 1

    def block_level_edges(self) -> tuple[tuple[Edge, Edge], ...]:
        """(block-index pair, vertex pair) for each Fermionic edge.

        Either endpoint ordering; block pairs are normalized and the list
        is sorted on the underlying vertex pair for determinism.
        """
        block_of = self.partition().block_of()
        out = []
        for u, v in sorted(self.fermionic):
            out.append((norm_edge(block_of[u], block_of[v]), (u, v)))
        return tuple(out)


def prufer_decode(seq: tuple[int, ...], n: int) -> frozenset:
    """Edges of the labeled tree with Prufer sequence seq (vertices 0..n-1)."""
    if n < 2:
        return frozenset()
    if len(seq) != n - 2:
        raise ValueError("sequence length must be n - 2")
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append(norm_edge(leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append(norm_edge(u, v))
    return frozenset(edges)


def enumerate_trees(n: int):
    """All labeled spanning trees on 0..n-1, one per Prufer sequence."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > TREE_BUDGET:
        raise BudgetExceededError(f"tree enumeration refuses n = {n} > {TREE_BUDGET}")
    if n == 1:
        yield empty_forest(1)
        return
    for seq in product(range(n), repeat=n - 2):
        yield Forest(n, prufer_decode(seq, n))


def enumerate_forests(n: int):
    """All acyclic edge-subgraphs of K_n, empty forest first."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > FOREST_BUDGET:
        raise BudgetExceededError(f"forest enumeration refuses n = {n} > {FOREST_BUDGET}")
    all_edges = list(combinations(range(n), 2))
    dsu = _DSU(n)
    chosen: list[Edge] = []

    def rec(i: int):
        if i == len(all_edges):
            yield Forest(n, frozenset(chosen))
            return
        yield from rec(i + 1)
        u, v = all_edges[i]
        if dsu.union(u, v):
            chosen.append(all_edges[i])
            yield from rec(i + 1)
            chosen.pop()
            dsu.undo()

    yield from rec(0)


def enumerate_jungles(n: int, spanning: bool = False):
    """All jungles (F_B, F_F) on 0..n-1; spanning restricts to trees."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > JUNGLE_BUDGET:
        raise BudgetExceededError(f"jungle enumeration refuses n = {n} > {JUNGLE_BUDGET}")
    for fb in enumerate_forests(n):
        blocks = fb.components()
        block_of = {}
        for i, b in enumerate(blocks):
            for v in b:
                block_of[v] = i
        cross = [e for e in combinations(range(n), 2) if block_of[e[0]] != block_of[e[1]]]
        need = n - 1 - len(fb.edges) if spanning else None
        dsu = _DSU(len(blocks))
        chosen: list[Edge] = []

        def rec(start: int):
            if need is None:
                yield Jungle(n, fb, frozenset(chosen))
            elif len(chosen) == need:
                yield Jungle(n, fb, frozenset(chosen))
                return
            for idx in range(start, len(cross)):
                u, v = cross[idx]
                if dsu.union(block_of[u], block_of[v]):
                    chosen.append(cross[idx])
                    yield from rec(idx + 1)
                    chosen.pop()
                    dsu.undo()

        yield from rec(0)


def _canonical_form(jungle: Jungle):
    """The least relabeled (Bosonic, Fermionic) edge form of the jungle
    and every vertex order that attains it; an order lists the old
    vertices by new label.

    Only the orders that sort the vertices by (block size, Bosonic
    degree, Fermionic degree) are searched; isomorphisms preserve that
    invariant, so the least form over them is still a canonical form.
    """
    size = {v: len(b) for b in jungle.partition().blocks for v in b}
    bos = jungle.bosonic.degrees()
    ferm = _degrees(jungle.n, jungle.fermionic)
    classes: dict = {}
    for v in range(jungle.n):
        classes.setdefault((size[v], bos[v], ferm[v]), []).append(v)
    best, orders = None, []
    for parts in product(*(permutations(classes[c]) for c in sorted(classes))):
        order = sum(parts, ())
        label = {v: i for i, v in enumerate(order)}
        form = tuple(
            tuple(sorted(norm_edge(label[u], label[v]) for u, v in edges))
            for edges in (jungle.bosonic.edges, jungle.fermionic)
        )
        if best is None or form < best:
            best, orders = form, [order]
        elif form == best:
            orders.append(order)
    return best, tuple(orders)


def jungle_classes(n: int) -> tuple[tuple[Jungle, tuple], ...]:
    """One spanning jungle per isomorphism class on 0..n-1, with its
    automorphisms, in the order of the canonical forms.

    A representative is in canonical labels: its edges are its own
    canonical form, so the vertex orders that attain that form are its
    automorphisms.  Removing a leaf from a spanning jungle leaves a
    spanning jungle, so growing one representative per class on n - 1
    vertices by a leaf at every vertex, by a Bosonic or a Fermionic edge,
    reaches every class on n vertices; the canonical form drops the
    repeats (McKay's isomorph-free generation).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > JUNGLE_BUDGET:
        raise BudgetExceededError(f"jungle classes refuse n = {n} > {JUNGLE_BUDGET}")
    reps = [Jungle(1, empty_forest(1), frozenset())]
    for m in range(2, n + 1):
        forms = set()
        for rep in reps:
            for v in range(m - 1):
                leaf = {(v, m - 1)}
                forms.add(_canonical_form(Jungle(m, Forest(m, rep.bosonic.edges | leaf), rep.fermionic))[0])
                forms.add(_canonical_form(Jungle(m, Forest(m, rep.bosonic.edges), rep.fermionic | leaf))[0])
        reps = [Jungle(m, Forest(m, frozenset(bos)), frozenset(ferm)) for bos, ferm in sorted(forms)]
    return tuple((rep, _canonical_form(rep)[1]) for rep in reps)


def count_trees_with_degrees(degrees) -> int:
    """Number of labeled trees with the given degree sequence.

    (q-2)! / prod (d_i - 1)!  with sum d_i = 2q - 2.
    """
    degrees = tuple(degrees)
    q = len(degrees)
    if q < 2:
        raise ValueError("need at least two vertices")
    if any(d < 1 for d in degrees):
        raise ValueError("all degrees must be >= 1")
    if sum(degrees) != 2 * q - 2:
        raise ValueError(f"degree sum must be 2q - 2 = {2 * q - 2}, got {sum(degrees)}")
    num = math.factorial(q - 2)
    den = 1
    for d in degrees:
        den *= math.factorial(d - 1)
    assert num % den == 0
    return num // den


def count_partitions_by_profile(n: int, profile: dict) -> int:
    """Number of set partitions of 0..n-1 with m_q blocks of size q.

    n! / prod_q m_q! (q!)^(m_q).
    """
    if sum(q * m for q, m in profile.items()) != n:
        raise ValueError("profile does not sum to n")
    if any(q < 1 or m < 0 for q, m in profile.items()):
        raise ValueError("bad profile entry")
    den = 1
    for q, m in profile.items():
        den *= math.factorial(m) * math.factorial(q) ** m
    num = math.factorial(n)
    assert num % den == 0
    return num // den


def count_two_level_trees(n: int) -> int:
    """Exact count 2^(n-1) n^(n-2) of spanning jungles on n vertices."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return 1
    return 2 ** (n - 1) * n ** (n - 2)


def two_level_tree_bound(n: int) -> int:
    """The coarser bound 2^(2n) n^(n-2)."""
    return 2 ** (2 * n) * (1 if n == 1 else n ** (n - 2))


def fermionic_forest_weight(partition: BlockPartition) -> int:
    """Number of detailed Fermionic trees connecting the partition blocks.

    (sum |B|)^(|P|-2) * prod |B|, the block-level Cayley count times the
    hooking choices; a single block has the empty tree only.
    """
    sizes = [len(b) for b in partition.blocks]
    if len(sizes) == 1:
        return 1
    n = sum(sizes)
    total = n ** (len(sizes) - 2)
    for s in sizes:
        total *= s
    return total


def enumerate_set_partitions(n: int):
    """All partitions of 0..n-1 as BlockPartition, by restricted growth."""
    if n < 1:
        raise ValueError("need n >= 1")

    def rec(v: int, blocks: list[list[int]]):
        if v == n:
            yield BlockPartition(n, tuple(frozenset(b) for b in blocks))
            return
        for b in blocks:
            b.append(v)
            yield from rec(v + 1, blocks)
            b.pop()
        blocks.append([v])
        yield from rec(v + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def enumerate_compositions(total: int, parts: int, minimum: int = 1):
    """Ordered tuples (c_1..c_parts), c_i >= minimum, summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in enumerate_compositions(total - first, parts - 1, minimum):
            yield (first,) + rest
