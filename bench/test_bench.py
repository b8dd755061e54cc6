"""Tests of the benchmark itself: run with ``python3 -m pytest bench``.

The tests run `mlve compare` in-process and take under a minute on
2 cores.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import workloads
import worker
from layertrace import Tracer

COUNT_FIELDS = ("calls", "points", "misses", "evaluated", "yielded")


@pytest.fixture(scope="module")
def cli():
    worker.OUT.mkdir(exist_ok=True)
    return worker.import_program()


def counts(tracer: Tracer) -> dict:
    return {(name, field): getattr(stat, field) for name, stat in tracer.stats.items() for field in COUNT_FIELDS}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def gen():
        clock.now += 0.5
        yield 1
        clock.now += 0.25

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()
        assert list(wrapped_gen()) == [1]
        clock.now += 3.0

    wrapped_leaf = tracer.timed("leaf", leaf)
    wrapped_gen = tracer.timed_generator("gen", gen)
    outer = tracer.timed("outer", tracer.timed("middle", middle, keep_span=True), keep_span=True)
    outer()

    stats = tracer.stats
    assert (stats["leaf"].calls, stats["leaf"].total_s, stats["leaf"].self_s) == (2, 4.0, 4.0)
    assert (stats["gen"].calls, stats["gen"].yielded, stats["gen"].self_s) == (2, 1, 0.75)
    assert (stats["middle"].total_s, stats["middle"].self_s) == (8.75, 4.0)
    assert (stats["outer"].total_s, stats["outer"].self_s) == (8.75, 0.0)
    # only the coarse calls are kept as spans, children point at parents
    assert [(s["name"], s["parent"], s["self_s"]) for s in tracer.spans] == [("outer", None, 0.0), ("middle", 0, 4.0)]


def test_install_restores_every_binding(cli):
    import mlve.engine
    import mlve.grassmann

    before = (mlve.engine.dw_grid, mlve.grassmann.grassmann_minor, mlve.engine.TermEvaluator.block_integral)
    tracer = Tracer()
    tracer.install()
    assert mlve.engine.dw_grid is not before[0]
    tracer.uninstall()
    assert tracer.unbound == []
    after = (mlve.engine.dw_grid, mlve.grassmann.grassmann_minor, mlve.engine.TermEvaluator.block_integral)
    assert after == before


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(cli, workload):
    """Two traced passes of a workload count the same work."""
    seen = []
    for _ in range(2):
        runner = worker.Runner(cli, workloads.configs(workload, 3), workloads.expected_orders(workload, 3))
        with worker.tracing(runner) as tracer:
            worker.measure(runner, 0)
        assert runner.failed == 0
        seen.append(counts(tracer))
    assert seen[0] == seen[1]


def test_fermionic_workload_counts(cli):
    runner = worker.Runner(cli, workloads.configs("order3-two-slice", 0))
    with worker.tracing(runner) as tracer:
        worker.measure(runner, 0)
    calls = {name: stat.calls for name, stat in tracer.stats.items()}
    assert calls["engine.jungle_term"] == 106
    assert tracer.stats["engine.jungle_term"].nonzero == 24
    assert calls["grassmann.fermionic_factor"] == 1900
    assert calls["grassmann.grassmann_minor"] == 3796


def test_default_config_distinct_blocks(cli, monkeypatch):
    """The default compare (n_max = 3) integrates 9 distinct blocks, 3 of size 3.

    The kernel is stubbed out so the test runs in seconds: which blocks are
    integrated does not depend on the kernel values.
    """
    import mlve.engine

    monkeypatch.setattr(mlve.engine, "dw_grid", lambda params, j, q, sigma: np.ones(np.shape(sigma), dtype=complex))
    runner = worker.Runner(cli, [{"lambda": 0.2, "M": 2, "j_min": 1, "j_max": 3, "n_max": 3}])
    with worker.tracing(runner) as tracer:
        worker.measure(runner, 0)
    misses = {name: stat.misses for name, stat in tracer.stats.items() if name.startswith("engine.block_integral.")}
    assert misses["engine.block_integral.b3"] == 3
    assert sum(misses.values()) == 9


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_stored_orders_pass_the_gate(workload):
    for orders in workloads.expected_orders(workload, 0):
        summary = {"orders": [[o.real, o.imag] for o in orders], "abs_errors": [1.0 / 10**n for n in range(len(orders))]}
        assert workloads.gate(summary, orders) == []


def test_gate_catches_a_dropped_term_but_not_rounding():
    orders = workloads.expected_orders("order3-two-slice", 0)[0]
    distances = [1e-3, 1e-5, 1e-7]

    def summary(scale):
        return {"orders": [[o.real * scale, o.imag] for o in orders], "abs_errors": distances}

    assert workloads.gate(summary(1 + 1e-12), orders) == []
    assert workloads.gate(summary(1 - 4e-4), orders) != []
    assert workloads.gate({**summary(1.0), "abs_errors": [1e-3, 1e-5, 1e-5]}, orders) != []


def test_scan_couplings_are_seeded_and_inside_the_disk():
    assert workloads.scan_couplings(7) == workloads.scan_couplings(7)
    assert workloads.scan_couplings(7) != workloads.scan_couplings(8)
    for seed in range(50):
        lams = [complex(*lam) for lam in workloads.scan_couplings(seed)]
        assert sum(lam.imag == 0 for lam in lams) == workloads.SCAN_REAL
        for lam in lams:
            gamma = math.atan2(lam.imag, lam.real)
            assert 0.1 <= abs(lam) <= 0.3 and abs(gamma) <= 0.5
            assert abs(lam) ** 2 < math.cos(2 * gamma)

