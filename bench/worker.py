"""One benchmark run in one process: drive `mlve compare` through mlve.cli.main.

Started by ``run.py`` with the BLAS and OpenMP pools pinned to one
thread; prints one JSON object as its last line of standard output.

A pass runs every config of the workload once.  Passes repeat until
``--seconds`` have elapsed (at least one).  Before and after each
compare call the worker times a fixed reference loop of NumPy and
pure-Python work that does not touch mlve, and ``solve_ref`` is the sum
over the configs of the median ratio of the compare wall time to the
mean of those two reference times.
This is a shared 2-core host whose speed changes by up to a factor of
1.6 over minutes.  Over sets of 5-10 runs of 20-30 s, the median compare
wall time of a config spread by 7-24 % between runs and its fastest time
by 5-46 % (quartile distance over median); in the same runs the ratio to
the reference spread by 5-12 %.  The raw wall times (median and 90th
percentile of the passes) go to standard error, and the traced run
reports them as ``compare.wall_s``.

Traced (``--trace 1``): untraced passes for half of ``--seconds``, then
passes under the layer tracer for the other half.  Counts are per pass
(every pass does the same work), times are means per pass, the tracing
overhead compares the traced and untraced ``solve_ref``, and the spans
are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from layertrace import ROOT_LAYER, Tracer  # noqa: E402
from run import THREAD_POOLS  # noqa: E402

# Per-layer metrics: (metric name, layer, LayerStats field).
LAYER_METRICS = [
    ("model_core.dw_grid.calls", "model_core.dw_grid", "calls"),
    ("model_core.dw_grid.points", "model_core.dw_grid", "points"),
    ("model_core.dw_grid.self_s", "model_core.dw_grid", "self_s"),
    *(
        (f"engine.block_integral.b{b}.{field}", f"engine.block_integral.b{b}", field)
        for b in (1, 2)
        for field in ("calls", "misses", "self_s", "total_s")
    ),
    *(
        (f"engine.fermionic_integral.k{k}.{field}", f"engine.fermionic_integral.k{k}", field)
        for k in range(3)
        for field in ("calls", "total_s")
    ),
    ("grassmann.fermionic_factor.calls", "grassmann.fermionic_factor", "calls"),
    ("grassmann.fermionic_factor.self_s", "grassmann.fermionic_factor", "self_s"),
    ("grassmann.grassmann_minor.calls", "grassmann.grassmann_minor", "calls"),
    ("grassmann.grassmann_minor.self_s", "grassmann.grassmann_minor", "self_s"),
    ("interpolation.min_over_paths.calls", "interpolation.min_over_paths", "calls"),
    ("interpolation.min_over_paths.self_s", "interpolation.min_over_paths", "self_s"),
    ("engine.jungle_term.calls", "engine.jungle_term", "calls"),
    ("engine.jungle_term.evaluated", "engine.jungle_term", "evaluated"),
    ("engine.jungle_term.self_s", "engine.jungle_term", "self_s"),
    ("combinatorics.enumerate_jungles.yielded", "combinatorics.enumerate_jungles", "yielded"),
    ("combinatorics.enumerate_jungles.self_s", "combinatorics.enumerate_jungles", "self_s"),
    ("grassmann.filter.self_s", "grassmann.filter", "self_s"),
    ("oracle.logz_oracle.calls", "oracle.logz_oracle", "calls"),
    ("oracle.logz_oracle.self_s", "oracle.logz_oracle", "self_s"),
    ("cli.cmd_compare.self_s", "cli.cmd_compare", "self_s"),
]


def unit_of(field: str) -> str:
    return "s" if field.endswith("_s") else "count"


def import_program():
    """Import mlve from the checkout's src/, refusing any installed copy."""
    if not (SRC / "mlve" / "cli.py").is_file():
        raise SystemExit(f"error: no mlve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mlve.cli

    if Path(mlve.cli.__file__).resolve().parent != SRC / "mlve":
        raise SystemExit(f"error: imported mlve from {mlve.cli.__file__}, not {SRC}")
    return mlve.cli


class Runner:
    """Runs compare calls, checks their outputs and counts operations."""

    def __init__(self, cli, configs: list[dict], expected=None):
        self.cli = cli
        self.configs = configs
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.on_request = None

    def compare(self, index: int) -> float:
        """One compare call; returns its wall time in seconds."""
        self.attempted += 1
        out = Path(tempfile.mkdtemp(prefix="compare-", dir=OUT))
        try:
            config = out / "config.json"
            config.write_text(json.dumps(self.configs[index]), encoding="utf-8")
            argv = ["compare", "--config", str(config), "--out", str(out)]
            if self.on_request is not None:
                self.on_request(index)
            code = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
            elapsed = time.perf_counter() - start
            problems = [f"exit code {code}"] if code != 0 else self.check(out, index)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"compare {index} failed: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    def check(self, out: Path, index: int) -> list[str]:
        try:
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"unreadable summary.json: {exc}"]
        expected = None if self.expected is None else self.expected[index]
        return workloads.gate(summary, expected)


def machine_facts() -> dict:
    import importlib.util
    import platform

    import scipy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_POOLS},
    }


_REF_Y = np.linspace(-3.0, 3.0, 16384)
_REF_MATRICES = np.broadcast_to(np.eye(2) + 0.1, (64, 2, 2))


def reference_seconds() -> float:
    """Wall time of a fixed mix of NumPy array sweeps, small linear algebra and
    Python dict work, like the compare path's but independent of mlve."""
    start = time.perf_counter()
    y = _REF_Y
    y2 = y * y
    acc_re, acc_im = np.ones_like(y), np.zeros_like(y)
    for p in range(1, 25):
        inv = 1.0 / (p * p + y2)
        r_re, r_im = p * inv, y * inv
        acc_re, acc_im = acc_re * r_re - acc_im * r_im, acc_re * r_im + acc_im * r_re
    np.exp(1j * y) * (acc_re + 1j * acc_im)
    np.linalg.eigh(_REF_MATRICES)
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


@dataclass
class Measurement:
    solve_ref: float  # sum over configs of the median compare / reference ratio
    wall_s: float  # sum over configs of the median compare wall time
    passes: int
    total_s: float  # all compare wall time


def measure(runner: Runner, seconds: float) -> Measurement:
    """Repeat passes for ``seconds`` (at least one).

    Each compare is timed between two runs of the reference loop and
    divided by their mean, so a change of host speed during it cancels.
    """
    ratios = [[] for _ in runner.configs]
    walls = [[] for _ in runner.configs]
    passes = 0
    before = reference_seconds()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for index in range(len(runner.configs)):
            wall = runner.compare(index)
            after = reference_seconds()
            ratios[index].append(2.0 * wall / (before + after))
            walls[index].append(wall)
            before = after
        passes += 1
    pass_walls = [sum(col) for col in zip(*walls)]
    p90 = statistics.quantiles(pass_walls, n=10)[-1] if passes > 1 else pass_walls[0]
    print(f"passes: {passes}, pass wall time median {statistics.median(pass_walls):.6g} s, p90 {p90:.6g} s", file=sys.stderr)
    return Measurement(
        solve_ref=sum(statistics.median(r) for r in ratios),
        wall_s=sum(statistics.median(w) for w in walls),
        passes=passes,
        total_s=sum(pass_walls),
    )


def untraced_metrics(runner: Runner, seconds: float) -> dict:
    solve_ref = measure(runner, seconds).solve_ref
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "solve_ref": {"value": solve_ref, "unit": "ref"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


@contextlib.contextmanager
def tracing(runner: Runner):
    """Trace the compare calls ``runner`` makes inside the block."""
    tracer = Tracer()
    runner.on_request = lambda index: setattr(tracer, "request", index)
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
        runner.on_request = None


def traced_metrics(runner: Runner, seconds: float, spans_path: Path) -> dict:
    untraced = measure(runner, seconds / 2)
    with tracing(runner) as tracer:
        traced = measure(runner, seconds / 2)
    tracer.write_spans(spans_path)
    if tracer.unbound:
        print(f"layers not found: {tracer.unbound}", file=sys.stderr)

    def per_pass(layer, field):
        stat = tracer.stats.get(layer)
        total = getattr(stat, field) if stat is not None else 0
        return total / traced.passes if field.endswith("_s") else total // traced.passes

    metrics = {name: {"value": per_pass(layer, field), "unit": unit_of(field)} for name, layer, field in LAYER_METRICS}
    terms = per_pass("engine.jungle_term", "calls")
    useful = per_pass("engine.jungle_term", "nonzero") / terms if terms else 0.0
    named_self = sum(s.self_s for name, s in tracer.stats.items() if name != ROOT_LAYER)
    metrics["engine.jungle_term.useful_share"] = {"value": useful, "unit": "share"}
    metrics["compare.wall_s"] = {"value": untraced.wall_s, "unit": "s"}
    metrics["trace.overhead_share"] = {"value": traced.solve_ref / untraced.solve_ref - 1.0, "unit": "share"}
    metrics["trace.coverage_share"] = {"value": named_self / traced.total_s, "unit": "share"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    cli = import_program()
    OUT.mkdir(exist_ok=True)
    runner = Runner(cli, workloads.configs(args.workload, args.seed), workloads.expected_orders(args.workload, args.seed))
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    metrics = traced_metrics(runner, args.seconds, spans_path) if args.trace else untraced_metrics(runner, args.seconds)
    record = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "machine": machine_facts(),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
