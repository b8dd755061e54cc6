import math
from itertools import combinations

import pytest

from mlve.mayer import (
    PolymerGas,
    _epsilon_tree_factor,
    convergence_condition,
    mayer_logz,
    mayer_order_term,
    polymer_z_direct,
)


def worked_gas(a=0.1, b=0.05):
    return PolymerGas(
        frozenset({0, 1}),
        {frozenset({0}): a, frozenset({1}): a, frozenset({0, 1}): b},
    )


class TestDirectEnumeration:
    def test_empty_gas(self):
        gas = PolymerGas(frozenset({0, 1, 2}), {})
        assert polymer_z_direct(gas) == 1.0

    def test_two_monomers(self):
        gas = PolymerGas(frozenset({0, 1}), {frozenset({0}): 0.1, frozenset({1}): 0.1})
        assert polymer_z_direct(gas) == pytest.approx(1.21, abs=1e-14)

    def test_with_pair_polymer(self):
        assert polymer_z_direct(worked_gas()) == pytest.approx(1.26, abs=1e-14)

    def test_budget(self):
        with pytest.raises(ValueError):
            polymer_z_direct(PolymerGas(frozenset(range(9)), {}))

    def test_validation(self):
        with pytest.raises(ValueError):
            PolymerGas(frozenset({0}), {frozenset(): 1.0})
        with pytest.raises(ValueError):
            PolymerGas(frozenset({0}), {frozenset({5}): 1.0})


class TestTreeExpansion:
    def test_all_zero_activities(self):
        gas = PolymerGas(frozenset({0, 1}), {frozenset({0}): 0.0})
        assert mayer_logz(gas, 3) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_single_polymer_log_series(self, n):
        # hardcore self-pairs reproduce log(1 + a) term by term; every pair
        # intersects, so each tree factor takes the most nodes of its order
        a = 0.3
        gas = PolymerGas(frozenset({0}), {frozenset({0}): a})
        term = mayer_order_term(gas, n)
        assert term.real == pytest.approx((-1.0) ** (n + 1) * a**n / n, abs=1e-13)
        assert term.imag == 0

    def test_worked_gas_against_direct(self):
        gas = worked_gas()
        s4 = mayer_logz(gas, 4)
        target = math.log(polymer_z_direct(gas).real)
        assert abs(s4.real - target) < 1e-3

    def test_error_decreases_with_order(self):
        gas = worked_gas()
        target = math.log(polymer_z_direct(gas).real)
        errs = [abs(mayer_logz(gas, n).real - target) for n in (1, 2, 3, 4)]
        assert errs[3] < errs[1] < errs[0]

    def test_order_budgets(self):
        gas = worked_gas()
        with pytest.raises(ValueError):
            mayer_order_term(gas, 6)
        with pytest.raises(ValueError):
            mayer_order_term(PolymerGas(frozenset(range(7)), {frozenset({0}): 0.1}), 2)

    def test_random_gases_converge(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 6))
            polys = [frozenset(c) for size in (1, 2) for c in combinations(range(m), size)]
            keep = [p for p in polys if rng.random() < 0.7][:6] or polys[:1]
            acts = {
                p: float(rng.uniform(0.0, 0.15)) / (math.e ** len(p) * len(keep)) for p in keep
            }
            gas = PolymerGas(frozenset(range(m)), acts)
            rho = max(convergence_condition(gas, p0) for p0 in gas.monomers)
            assert rho < 1.0  # inside the guaranteed-convergence regime
            direct = polymer_z_direct(gas).real
            err4 = abs(math.exp(mayer_logz(gas, 4).real) - direct)
            err2 = abs(math.exp(mayer_logz(gas, 2).real) - direct)
            assert err4 < 1e-3
            assert err4 <= err2 + 1e-15


class TestEpsilonFactor:
    def test_magnitude_at_most_one(self, rng):
        from mlve.combinatorics import enumerate_trees

        for n in (2, 3, 4):
            trees = [tuple(sorted(t.edges)) for t in enumerate_trees(n)]
            pairs = list(combinations(range(n), 2))
            for _ in range(20):
                pattern = frozenset(p for p in pairs if rng.random() < 0.7)
                for tree in trees:
                    val = _epsilon_tree_factor(n, tree, pattern)
                    assert abs(val) <= 1.0 + 1e-12

    def test_nonintersecting_tree_edge_kills_term(self):
        assert _epsilon_tree_factor(2, ((0, 1),), frozenset()) == 0.0


class TestConvergenceCondition:
    def test_zero_gas(self):
        gas = PolymerGas(frozenset({0}), {})
        assert convergence_condition(gas, 0) == 0.0

    def test_singleton(self):
        gas = PolymerGas(frozenset({0}), {frozenset({0}): 0.1})
        assert convergence_condition(gas, 0) == pytest.approx(0.1 * math.e)

    def test_pair(self):
        gas = PolymerGas(frozenset({0, 1}), {frozenset({0, 1}): 0.1})
        assert convergence_condition(gas, 0) == pytest.approx(0.1 * math.e**2)

    def test_unknown_root(self):
        gas = PolymerGas(frozenset({0}), {frozenset({0}): 0.1})
        with pytest.raises(ValueError):
            convergence_condition(gas, 7)
