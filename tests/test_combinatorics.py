import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from conftest import count_trees_with_degrees, faa_di_bruno_weight, partition_multiplicities
from mlve.combinatorics import (
    Forest,
    Jungle,
    _canonical_form,
    _is_acyclic,
    count_two_level_trees,
    empty_forest,
    enumerate_forests,
    enumerate_jungles,
    enumerate_trees,
    jungle_classes,
    norm_edge,
    two_level_tree_bound,
)
from mlve.errors import BudgetExceededError


def _set_partitions(n):
    """All set partitions of 0..n-1 as lists of blocks."""
    parts = [[]]
    for v in range(n):
        parts = [p[:i] + [p[i] + [v]] + p[i + 1 :] for p in parts for i in range(len(p))] + [p + [[v]] for p in parts]
    return parts


def _fermionic_tree_count(blocks) -> int:
    """Detailed Fermionic trees joining the blocks: (sum |B|)^(|P|-2) prod |B|,
    the block-level Cayley count times the hooking choices; a single block
    has the empty tree only."""
    sizes = [len(b) for b in blocks]
    if len(sizes) == 1:
        return 1
    return sum(sizes) ** (len(sizes) - 2) * math.prod(sizes)


def _jungles_over(n, bosonic_edges) -> int:
    """Number of spanning jungles on n vertices with the given Bosonic forest."""
    return sum(1 for j in enumerate_jungles(n, spanning=True) if j.bosonic.edges == frozenset(bosonic_edges))


class TestTrees:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_cayley_count(self, n):
        count = sum(1 for _ in enumerate_trees(n))
        assert count == (1 if n == 1 else n ** (n - 2))

    def test_all_distinct_and_spanning(self):
        seen = set()
        for t in enumerate_trees(5):
            assert len(t.edges) == 4
            assert t.edges not in seen
            seen.add(t.edges)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_degree_sum(self, n):
        for t in enumerate_trees(n):
            assert sum(t.degrees()) == 2 * n - 2

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_trees(9))


class TestForests:
    def test_small_counts(self):
        assert sum(1 for _ in enumerate_forests(1)) == 1
        assert sum(1 for _ in enumerate_forests(2)) == 2
        forests3 = list(enumerate_forests(3))
        assert len(forests3) == 7
        by_size = {}
        for f in forests3:
            by_size[len(f.edges)] = by_size.get(len(f.edges), 0) + 1
        assert by_size == {0: 1, 1: 3, 2: 3}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_subset_filter(self, n):
        edges = list(combinations(range(n), 2))
        brute = sum(
            1
            for mask in range(1 << len(edges))
            if _is_acyclic(n, [edges[i] for i in range(len(edges)) if mask >> i & 1])
        )
        assert sum(1 for _ in enumerate_forests(n)) == brute

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_forests(9))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Forest(3, frozenset({(0, 1), (1, 2), (0, 2)}))


class TestJungles:
    def test_single_vertex(self):
        (j,) = list(enumerate_jungles(1, spanning=True))
        assert j.bosonic.edges == frozenset() and j.fermionic == frozenset()

    def test_two_vertices_spanning(self):
        jungles = list(enumerate_jungles(2, spanning=True))
        assert len(jungles) == 2  # one Bosonic edge, or one Fermionic edge

    @pytest.mark.parametrize("n", range(1, 6))
    def test_spanning_count_closed_form(self, n):
        count = sum(1 for _ in enumerate_jungles(n, spanning=True))
        assert count == count_two_level_trees(n)

    def test_nonspanning_against_brute_force(self):
        # all ordered pairs of disjoint edge subsets with acyclic union and
        # fermionic edges crossing bosonic blocks
        n = 4
        edges = list(combinations(range(n), 2))
        brute = 0
        for bmask in range(1 << len(edges)):
            bos = [edges[i] for i in range(len(edges)) if bmask >> i & 1]
            if not _is_acyclic(n, bos):
                continue
            comp = Forest(n, frozenset(bos)).components()
            block_of = {v: i for i, b in enumerate(comp) for v in b}
            rest = [e for e in edges if e not in bos]
            for fmask in range(1 << len(rest)):
                ferm = [rest[i] for i in range(len(rest)) if fmask >> i & 1]
                if any(block_of[u] == block_of[v] for u, v in ferm):
                    continue
                if _is_acyclic(n, bos + ferm):
                    brute += 1
        assert sum(1 for _ in enumerate_jungles(4)) == brute

    def test_block_contraction_is_tree(self):
        for jungle in enumerate_jungles(4, spanning=True):
            blocks = jungle.partition().blocks
            block_of = jungle.partition().block_of()
            block_edges = [norm_edge(block_of[u], block_of[v]) for u, v in jungle.fermionic]
            assert len(block_edges) == len(blocks) - 1
            assert _is_acyclic(len(blocks), block_edges)

    def test_fermionic_edge_inside_block_rejected(self):
        bos = Forest(3, frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            Jungle(3, bos, frozenset({(0, 1)}))  # duplicates a bosonic edge
        with pytest.raises(ValueError):
            Jungle(4, Forest(4, frozenset({(0, 1), (1, 2)})), frozenset({(0, 2)}))

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_jungles(8))


def edge_form(jungle, order=None):
    """The (Bosonic, Fermionic) edges relabeled by a vertex order, which
    lists the old vertices by new label; the identity by default."""
    label = {v: i for i, v in enumerate(order or range(jungle.n))}
    return tuple(
        tuple(sorted(norm_edge(label[u], label[v]) for u, v in edges)) for edges in (jungle.bosonic.edges, jungle.fermionic)
    )


class TestJungleClasses:
    @pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 3), (4, 10), (5, 27), (6, 98), (7, 350)])
    def test_counts_and_orbit_sizes(self, n, classes):
        # one class per two-coloured tree; by orbit-stabilizer the classes
        # hold n!/|Aut| labeled jungles each, n^(n-2) 2^(n-1) in all
        reps = jungle_classes(n)
        assert len(reps) == classes
        assert sum(math.factorial(n) // len(automorphisms) for _, automorphisms in reps) == count_two_level_trees(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_representatives_are_canonical_and_distinct(self, n):
        forms = []
        for jungle, automorphisms in jungle_classes(n):
            assert len(jungle.bosonic.edges) + len(jungle.fermionic) == n - 1
            form, orders = _canonical_form(jungle)
            assert form == edge_form(jungle) and orders == automorphisms
            forms.append(form)
        assert forms == sorted(set(forms))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_labeled_enumeration(self, n):
        # every labeled jungle has the canonical form of one representative,
        # and the automorphisms are every vertex order that keeps the edges
        reps = jungle_classes(n)
        assert {_canonical_form(j)[0] for j in enumerate_jungles(n, spanning=True)} == {edge_form(j) for j, _ in reps}
        for jungle, automorphisms in reps:
            own = edge_form(jungle)
            assert set(automorphisms) == {p for p in permutations(range(n)) if edge_form(jungle, p) == own}

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            jungle_classes(8)


class TestCounting:
    def test_degree_count_examples(self):
        assert Counter(t.degrees() for t in enumerate_trees(2)) == {(1, 1): 1}
        assert Counter(t.degrees() for t in enumerate_trees(3))[(2, 1, 1)] == 1
        assert Counter(t.degrees() for t in enumerate_trees(4))[(3, 1, 1, 1)] == 1

    @pytest.mark.parametrize("q", range(2, 7))
    def test_degree_count_vs_enumeration(self, q):
        observed = Counter(t.degrees() for t in enumerate_trees(q))
        for degrees, count in observed.items():
            assert count_trees_with_degrees(degrees) == count

    # the Faa di Bruno weight q!/prod m_k! (k!)^m_k counts the set
    # partitions of q elements with m_k blocks of size k
    def test_partition_profile_examples(self):
        assert faa_di_bruno_weight({2: 1}) == 1
        assert faa_di_bruno_weight({1: 1, 2: 1}) == 3
        assert faa_di_bruno_weight({2: 2}) == 3

    @pytest.mark.parametrize("n", range(1, 8))
    def test_partition_profile_vs_enumeration(self, n):
        observed = Counter(tuple(sorted(Counter(map(len, p)).items())) for p in _set_partitions(n))
        assert sorted(observed) == sorted(tuple(sorted(m.items())) for m in partition_multiplicities(n))
        for profile, count in observed.items():
            assert faa_di_bruno_weight(dict(profile)) == count

    def test_two_level_count_examples(self):
        assert count_two_level_trees(2) == 2
        assert count_two_level_trees(3) == 12
        assert count_two_level_trees(5) == 2000
        assert count_two_level_trees(5) <= 2**10 * 5**3

    @pytest.mark.parametrize("n", range(1, 9))
    def test_two_level_bound(self, n):
        assert count_two_level_trees(n) <= two_level_tree_bound(n)


class TestFermionicWeight:
    """Spanning jungles over one Bosonic forest: one per detailed Fermionic tree."""

    def test_examples(self):
        assert _jungles_over(2, ()) == 1  # two singletons
        assert _jungles_over(3, {(0, 1)}) == 2  # a pair and a singleton
        assert _jungles_over(3, ()) == 3  # three singletons

    def test_single_block_convention(self):
        assert _jungles_over(3, {(0, 1), (1, 2)}) == 1

    def test_against_enumeration(self):
        for n in range(2, 6):
            per_forest = Counter(j.bosonic for j in enumerate_jungles(n, spanning=True))
            for fb in enumerate_forests(n):
                assert per_forest[fb] == _fermionic_tree_count(fb.components())


class TestCoordinationIdentity:
    # the degree sequences of the labeled trees on b vertices are the
    # compositions of 2b - 2 into b positive parts
    @pytest.mark.parametrize("b", range(2, 9))
    def test_composition_sum(self, b):
        # sum over d_a >= 1 with sum d_a = 2b - 2 of prod d_a = C(3b-3, b-2)
        compositions = {t.degrees() for t in enumerate_trees(b)}
        assert len(compositions) == math.comb(2 * b - 3, b - 1)
        assert sum(math.prod(c) for c in compositions) == math.comb(3 * b - 3, b - 2)

    def test_worked_example(self):
        comps = {t.degrees() for t in enumerate_trees(3)}
        assert comps == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
        assert sum(math.prod(c) for c in comps) == 6 == math.comb(6, 1)


def test_empty_forest_is_identity_partition():
    f = empty_forest(4)
    assert f.components() == tuple(frozenset({v}) for v in range(4))


def test_profile_sum_identity_exact():
    # sum over profiles of n^(sum B_q) / prod(B_q! q^(B_q)) = C(2n-1, n)
    for n in range(1, 9):
        total = Fraction(0)
        for mult in partition_multiplicities(n):
            term = Fraction(n) ** sum(mult.values())
            for q, bq in mult.items():
                term /= math.factorial(bq) * q**bq
            total += term
        assert total == math.comb(2 * n - 1, n)
