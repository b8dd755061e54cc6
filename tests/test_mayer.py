import math
from itertools import combinations

import numpy as np
import pytest

from conftest import _epsilon_tree_factor, tree_walk_order, z_by_collections
from mlve.mayer import (
    ORDER_BUDGET,
    PolymerGas,
    convergence_condition,
    log_coefficients,
    partition_polynomial,
)


def worked_gas(a=0.1, b=0.05):
    return PolymerGas(
        frozenset({0, 1}),
        {frozenset({0}): a, frozenset({1}): a, frozenset({0, 1}): b},
    )


def random_complex_gases(count=30, seed=2101):
    """Seeded gases on 1..5 monomers whose polymers have every size, with
    complex activities."""
    rng = np.random.default_rng(seed)
    gases = []
    for _ in range(count):
        m = int(rng.integers(1, 6))
        polys = [frozenset(c) for size in range(1, m + 1) for c in combinations(range(m), size)]
        keep = [p for p in polys if rng.random() < 0.5] or polys[-1:]
        acts = {p: complex(*rng.normal(size=2)) * 0.3 / len(keep) for p in keep}
        gases.append(PolymerGas(frozenset(range(m)), acts))
    return gases


def z_direct(gas):
    return sum(z_by_collections(gas))


def logz(gas, n_max):
    """Partial sum of the tree expansion of log Z through order n_max."""
    return sum(log_coefficients(partition_polynomial(gas), n_max))


class TestDirectEnumeration:
    def test_empty_gas(self):
        gas = PolymerGas(frozenset({0, 1, 2}), {})
        assert partition_polynomial(gas) == [1.0, 0.0, 0.0, 0.0]
        assert partition_polynomial(PolymerGas(frozenset(), {})) == [1.0]

    def test_two_monomers(self):
        gas = PolymerGas(frozenset({0, 1}), {frozenset({0}): 0.1, frozenset({1}): 0.1})
        assert partition_polynomial(gas) == pytest.approx([1.0, 0.2, 0.01], abs=1e-14)

    def test_with_pair_polymer(self):
        assert partition_polynomial(worked_gas()) == pytest.approx([1.0, 0.25, 0.01], abs=1e-14)

    def test_budget(self):
        with pytest.raises(ValueError):
            partition_polynomial(PolymerGas(frozenset(range(9)), {}))

    @pytest.mark.parametrize("gas", [worked_gas(), *random_complex_gases()])
    def test_coefficients_match_collections(self, gas):
        z = partition_polynomial(gas)
        expected = z_by_collections(gas)
        assert len(z) == len(expected)
        for got, want in zip(z, expected):
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_validation(self):
        with pytest.raises(ValueError):
            PolymerGas(frozenset({0}), {frozenset(): 1.0})
        with pytest.raises(ValueError):
            PolymerGas(frozenset({0}), {frozenset({5}): 1.0})


class TestTreeExpansion:
    def test_all_zero_activities(self):
        gas = PolymerGas(frozenset({0, 1}), {frozenset({0}): 0.0})
        assert logz(gas, 3) == 0.0

    @pytest.mark.parametrize("n", range(1, ORDER_BUDGET + 1))
    def test_single_polymer_log_series(self, n):
        # hardcore self-pairs reproduce log(1 + a) term by term
        a = 0.3
        gas = PolymerGas(frozenset({0}), {frozenset({0}): a})
        term = log_coefficients(partition_polynomial(gas), n)[-1]
        assert term.real == pytest.approx((-1.0) ** (n + 1) * a**n / n, abs=1e-13)
        assert term.imag == 0

    @pytest.mark.parametrize("gas", [worked_gas(), *random_complex_gases()])
    def test_orders_match_tree_walk(self, gas):
        orders = log_coefficients(partition_polynomial(gas), 3)
        for n, order in enumerate(orders, start=1):
            walked = tree_walk_order(gas, n)
            assert abs(order - walked) <= 1e-13 * abs(walked)

    def test_worked_gas_against_direct(self):
        gas = worked_gas()
        s4 = logz(gas, 4)
        target = math.log(z_direct(gas).real)
        assert abs(s4.real - target) < 1e-3

    def test_error_decreases_with_order(self):
        gas = worked_gas()
        target = math.log(z_direct(gas).real)
        errs = [abs(logz(gas, n).real - target) for n in (1, 2, 3, 4)]
        assert errs[3] < errs[1] < errs[0]

    def test_order_budgets(self):
        z = partition_polynomial(worked_gas())
        for n in (0, ORDER_BUDGET + 1):
            with pytest.raises(ValueError):
                log_coefficients(z, n)
        with pytest.raises(ValueError):
            partition_polynomial(PolymerGas(frozenset(range(9)), {frozenset({0}): 0.1}))

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
            direct = z_direct(gas).real
            err4 = abs(math.exp(logz(gas, 4).real) - direct)
            err2 = abs(math.exp(logz(gas, 2).real) - direct)
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
