"""Workloads of the mlve benchmark and the correctness gates on their outputs.

A workload is a list of `mlve compare` configs; one benchmark pass runs
each of them once, in order, with cold caches.  Configs use only the
model keys ``lambda``, ``M``, ``j_min``, ``j_max`` and ``n_max``: the
engine options (``gh_nodes``, ``gl_nodes``, ``threads``) stay at their
defaults, so the benchmark keeps working when those knobs are removed.

Why these three workloads:

* ``order2-default`` is the CLI default config (lambda = 0.2, M = 2,
  j = 1..3) truncated at n_max = 2.  Real coupling and short windows;
  the slice kernels of the 1- and 2-vertex Bosonic blocks take most of
  the time.  The default n_max = 3 is left out: on 2 cores without numba
  one compare takes about 225 s (three distinct 3-vertex blocks on a
  64^3 Gauss-Hermite grid), longer than a benchmark run may last.
* ``order3-two-slice`` (lambda = 0.2, M = 2, j = 1..2, n_max = 3).  With
  two slices the hardcore rule forbids 3-vertex blocks, so the kernels
  cost little and the Fermionic integrals (minors of the lifted Y over
  the weight points) take most of the time.  Order 4 would add the
  k = 3 integrals but costs 20 s or more per compare, too long to repeat
  within a run.
* ``scan-order2-wide`` draws 4 couplings from the seed, |lambda| in
  [0.1, 0.3], the first real and the others with phase |gamma| <= 0.5,
  inside the analyticity disk |lambda|^2 < cos(2 gamma).  M = 16,
  j = 1..2 (cutoff 255), n_max = 2.  Slice 2 holds 240 indices, past the
  direct-sum limit of 96, so the kernels take the complex-coupling and
  the closed-form long-window routes, which the other two workloads never
  reach; each coupling has one cheap 2-vertex block.  The fixed
  real/complex split keeps the cost of a pass independent of the seed,
  and a pass is short enough to repeat about 100 times in a run.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

SCAN_COUPLINGS = 4
SCAN_REAL = 1

# Another quadrature route for the block integrals agrees with the stored
# order contributions to about 1e-13 relative; the smallest single term of
# any stored order is 4.4e-4 of it, so dropping a term moves it far past this.
ORDER_RTOL = 1e-7

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def _config(lam, M: int, j_max: int, n_max: int) -> dict:
    return {"lambda": lam, "M": M, "j_min": 1, "j_max": j_max, "n_max": n_max}


def scan_couplings(seed: int) -> list[list[float]]:
    """The scan's couplings as [re, im] pairs, a pure function of the seed."""
    rng = random.Random(seed)
    out = []
    for i in range(SCAN_COUPLINGS):
        modulus = rng.uniform(0.1, 0.3)
        gamma = 0.0 if i < SCAN_REAL else rng.uniform(-0.5, 0.5)
        out.append([modulus * math.cos(gamma), modulus * math.sin(gamma)])
    return out


WORKLOADS = {
    "order2-default": lambda seed: [_config(0.2, 2, 3, 2)],
    "order3-two-slice": lambda seed: [_config(0.2, 2, 2, 3)],
    "scan-order2-wide": lambda seed: [_config(lam, 16, 2, 2) for lam in scan_couplings(seed)],
}


def configs(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](seed)


def expected_orders(workload: str, seed: int):
    """Stored order contributions per config, or None where none are stored.

    The fixed workloads store one list for every seed; the scan stores the
    values of its default seed only.
    """
    entry = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))[workload]
    if entry["seed"] is not None and entry["seed"] != seed:
        return None
    return [[complex(re, im) for re, im in orders] for orders in entry["orders"]]


def gate(summary: dict, expected) -> list[str]:
    """Reasons a compare output is wrong; empty when it passes.

    The oracle distance |S_n - log Z| must fall strictly with n, and each
    order contribution must match its stored value within ORDER_RTOL.
    """
    problems = []
    dist = summary["abs_errors"]
    if any(not later < earlier for earlier, later in zip(dist, dist[1:])):
        problems.append(f"oracle distances do not decrease strictly: {dist}")
    if expected is not None:
        got = [complex(re, im) for re, im in summary["orders"]]
        if len(got) != len(expected):
            problems.append(f"{len(got)} orders, expected {len(expected)}")
        for n, (value, ref) in enumerate(zip(got, expected), start=1):
            if not abs(value - ref) <= ORDER_RTOL * abs(ref):
                problems.append(f"order {n} = {value!r}, stored {ref!r}")
    return problems
