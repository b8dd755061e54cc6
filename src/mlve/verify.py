"""Invariant suites behind the command-line ``verify`` subcommand.

Each suite returns a SuiteResult with failures (hard errors) and warnings
(documented discrepancies that are expected and reported, not fixed).
Suites are sized to finish in seconds.  Checks against a second
implementation (the scalar kernel sums and their Faa di Bruno partition
sum, the forest formula, the Berezin integral, the minor bounds) run only
in the test suite, which holds those oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import bounds, combinatorics, engine, mayer
from .model_core import ModelParams


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
    return res


def suite_bound_domination() -> SuiteResult:
    """Quick n <= 2 domination check over the term classes; |term| and
    the bound are both invariant under relabeling, so one row per class
    checks every labeled term.  The exhaustive n <= 3 check is in the
    acceptance tests."""
    res = SuiteResult("bound-domination")
    ev = engine.TermEvaluator(ModelParams(0.5, 10, 3, 4), gl_nodes=8)
    for n in (1, 2):
        for _, jungle, _, slices, term in ev.order_terms(n):
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
    z = mayer.partition_polynomial(gas)
    direct = sum(z).real
    approx = math.exp(sum(mayer.log_coefficients(z, 4)).real)
    if abs(approx - direct) > 1e-3:
        res.failures.append(f"worked gas: |{approx} - {direct}| > 1e-3")
    return res


def suite_stirling() -> SuiteResult:
    res = SuiteResult("stirling")
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
