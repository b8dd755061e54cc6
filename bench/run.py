"""Benchmark of `mlve compare`: end-to-end metrics, or the layer trace.

Run from the root of a checkout:

    python3 bench/run.py --workload order2-default --seed 1 --seconds 20 --trace 0

``--trace 0`` prints ``setup_s``, ``solve_ref`` and ``peak_rss_mb``;
``--trace 1`` prints the per-layer metrics of the traced passes instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine facts the numbers depend on.

``setup_s`` is the median over SETUP_PROBES fresh interpreters of the
time to import mlve.cli, mlve.engine and mlve.oracle.  The workload runs
in one further process (``worker.py``).  Every child runs with the BLAS
and OpenMP pools pinned to one thread and mlve imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 7
# A run must end within 180 s; the children share this budget.
RUN_BUDGET_S = 170
THREAD_POOLS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import mlve.cli, mlve.engine, mlve.oracle\n"
    "print(time.perf_counter() - start)\n"
)


def child_env() -> dict:
    env = dict(os.environ, **THREAD_POOLS)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def setup_seconds(env: dict, deadline: float) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=deadline - time.monotonic(),
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mlve" / "cli.py").is_file():
        print(f"error: no mlve sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    env = child_env()
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setup_s = None if args.trace else setup_seconds(env, deadline)
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=deadline - time.monotonic(),
            check=True,
        )
        record = json.loads(done.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: benchmark child failed: {exc}", file=sys.stderr)
        return 1
    if setup_s is not None:
        record["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps({"machine": record.pop("machine")}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
