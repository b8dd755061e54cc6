"""Invariant suites behind the command-line ``verify`` subcommand.

Each suite returns a SuiteResult with failures (hard errors) and warnings
(documented discrepancies that are expected and reported, not fixed).
Suites are sized to finish in seconds; the exhaustive versions live in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds, combinatorics, grassmann, interpolation, mayer
from .model_core import ModelParams, partition_weight_sum


@dataclass
class SuiteResult:
    name: str
    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def suite_combinatorics() -> SuiteResult:
    res = SuiteResult("combinatorics")
    for n in range(1, 7):
        count = sum(1 for _ in combinatorics.enumerate_trees(n))
        expect = 1 if n == 1 else n ** (n - 2)
        if count != expect:
            res.failures.append(f"tree count n={n}: {count} != {expect}")
    for n in range(1, 6):
        count = sum(1 for _ in combinatorics.enumerate_jungles(n, spanning=True))
        expect = combinatorics.count_two_level_trees(n)
        if count != expect:
            res.failures.append(f"jungle count n={n}: {count} != {expect}")
        if expect > combinatorics.two_level_tree_bound(n):
            res.failures.append(f"jungle bound violated at n={n}")
    for d in range(1, 9):
        if partition_weight_sum(d) != 1:
            res.failures.append(f"partition weight sum != 1 at d={d}")
    return res


def suite_forest_formula(rng=None) -> SuiteResult:
    res = SuiteResult("forest-formula")
    rng = np.random.default_rng(rng if rng is not None else 20240)
    for trial in range(5):
        coeffs = {e: float(rng.uniform(-1, 1)) for e in [(0, 1), (0, 2), (1, 2)]}
        fn = interpolation.ExpEdgeFunction(3, coeffs)
        value = interpolation.forest_formula_eval(3, fn, quadrature_order=12)
        target = math.exp(sum(coeffs.values()))
        if abs(value - target) > 1e-6:
            res.failures.append(f"exp family trial {trial}: |{value} - {target}| > 1e-6")
    cov = np.array([[1.0]])
    left = interpolation.replica_gaussian_left(cov, [{(2,): 1.0}] * 3)
    right = interpolation.replica_gaussian_eval(3, cov, [{(2,): 1.0}] * 3)
    if abs(left - right) > 1e-12:
        res.failures.append(f"replica corollary: {left} != {right}")
    return res


def suite_grassmann(rng=None) -> SuiteResult:
    """Oracle equivalence of the determinant-minor formula, small dims."""
    res = SuiteResult("grassmann")
    rng = np.random.default_rng(rng if rng is not None else 20241)
    from itertools import combinations as comb
    from itertools import permutations as perm

    for dim in range(1, 4):
        mat = rng.normal(size=(dim, dim))
        for k in range(dim + 1):
            for a_set in comb(range(dim), k):
                for a in perm(a_set):
                    for b_set in comb(range(dim), k):
                        for b in perm(b_set):
                            mono = []
                            for i in range(k):
                                mono.append(("psi", a[i]))
                                mono.append(("psibar", b[i]))
                            bf = grassmann.brute_force_grassmann(dim, mat, mono)
                            mv = grassmann.grassmann_minor(grassmann.MinorSpec(mat, a, b))
                            if abs(bf - mv) > 1e-10:
                                res.failures.append(
                                    f"minor mismatch dim={dim} a={a} b={b}: oracle {bf}, formula {mv}"
                                )
                                return res
    return res


def suite_positivity(rng=None, trials: int = 100) -> SuiteResult:
    res = SuiteResult("positivity")
    rng = np.random.default_rng(rng if rng is not None else 20242)
    jungles = [j for j in combinatorics.enumerate_jungles(4, spanning=True)]
    for _ in range(trials):
        jungle = jungles[rng.integers(len(jungles))]
        slices = tuple(int(s) for s in rng.integers(1, 5, size=4))
        if grassmann.hardcore_violated(jungle, slices):
            continue
        weights = {e: float(rng.uniform()) for e in jungle.fermionic}
        y = grassmann.lifted_y_matrix(jungle, slices, weights)
        ev = float(np.linalg.eigvalsh(y).min())
        if ev < -1e-12:
            res.failures.append(f"lifted Y not PSD: min eig {ev}")
            continue
        report = grassmann.check_minor_bound(y, trials=20, rng=int(rng.integers(2**31)))
        if not report.ok:
            res.failures.append(f"minor bound violated: {report}")
    return res


def suite_bound_domination() -> SuiteResult:
    """Quick n <= 2 domination check; the exhaustive n <= 3 one is in the
    acceptance tests."""
    from . import engine

    res = SuiteResult("bound-domination")
    params = ModelParams(0.5, 10, 3, 4)
    ev = engine.TermEvaluator(params, gl_nodes=8)
    for n in (1, 2):
        for jungle in combinatorics.enumerate_jungles(n, spanning=True):
            from itertools import product

            for slices in product(params.slices, repeat=n):
                term = ev.jungle_term(jungle, slices)
                bound = bounds.assemble_term_bound(jungle, slices, 0.5, 10)
                if abs(term) > bound * (1 + 1e-9):
                    res.failures.append(
                        f"|term| {abs(term)} > bound {bound} at n={n}, slices={slices}"
                    )
    return res


def suite_mayer() -> SuiteResult:
    res = SuiteResult("mayer")
    gas = mayer.PolymerGas(
        frozenset({0, 1}),
        {frozenset({0}): 0.1, frozenset({1}): 0.1, frozenset({0, 1}): 0.05},
    )
    direct = mayer.polymer_z_direct(gas).real
    approx = math.exp(mayer.mayer_logz(gas, 4).real)
    if abs(approx - direct) > 1e-3:
        res.failures.append(f"worked gas: |{approx} - {direct}| > 1e-3")
    return res


def suite_stirling() -> SuiteResult:
    res = SuiteResult("stirling-chain")
    for row in bounds.stirling_chain_check(range(1, 201)):
        if not row.ok:
            res.failures.append(f"chain inequality fails at q={row.q} (margin {row.margin})")
    return res


def suite_m_threshold() -> SuiteResult:
    res = SuiteResult("m-threshold")
    for row in bounds.m_threshold_check(1e8, range(1, 51)):
        if not row.ok:
            if row.q == 1:
                res.warnings.append(
                    f"documented discrepancy: q=1 at M=1e8 gives {row.value:.4g} > 1"
                )
            else:
                res.failures.append(f"threshold fails at q={row.q}: {row.value}")
    return res


ALL_SUITES = {
    "combinatorics": suite_combinatorics,
    "forest-formula": suite_forest_formula,
    "grassmann": suite_grassmann,
    "positivity": suite_positivity,
    "bound-domination": suite_bound_domination,
    "mayer": suite_mayer,
    "stirling": suite_stirling,
    "m-threshold": suite_m_threshold,
}


def run_suites(names=None) -> list[SuiteResult]:
    selected = list(ALL_SUITES) if not names else list(names)
    out = []
    for name in selected:
        if name not in ALL_SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(ALL_SUITES)}")
        out.append(ALL_SUITES[name]())
    return out
