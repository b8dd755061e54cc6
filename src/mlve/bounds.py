"""Numerical instantiation of every convergence bound of the expansion.

The block bound (real coupling), its complex-coupling variant, the
summed series with its geometric reduction, the Stirling-chain
combinatorial inequality, the large-M threshold claim and the analyticity
domain predicate.  Combinatorial growth is evaluated with mpmath at 30
significant digits, set by each bound for its own evaluation alone: the
M^(q^2/4) factors leave double range almost immediately.

One documented discrepancy is reported, never repaired silently: the
claimed threshold 3^(3q) q^q M^(-q^2/8) <= 1 for all q >= 1 fails at
q = 1 for M = 1e8 (value 2.7).  The final geometric conclusion survives
because the q = 1 term of the inner sum is separately finite; callers see
the violation flagged as a warning.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp

from .combinatorics import Jungle


def double_factorial(n: int) -> int:
    """n!! with the empty-product conventions 0!! = (-1)!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined at {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def block_bound_real(block_size: int, degrees, slices, lam_abs: float, M: int) -> float:
    """Real-coupling bound on the block Gaussian integral:

    sqrt((4|B| - 4)!!) * prod_a d_a! |lam|^(d_a) M^(-(j_a - 2)).

    (4|B|-4)!! = 0!! = 1 at |B| = 1 by the empty-product convention.
    """
    degrees = tuple(degrees)
    slices = tuple(slices)
    if len(degrees) != block_size or len(slices) != block_size:
        raise ValueError("need one degree and one slice per block vertex")
    if block_size == 1:
        if degrees != (0,):
            raise ValueError("singleton blocks carry degree 0")
    elif sum(degrees) != 2 * block_size - 2 or any(d < 1 for d in degrees):
        raise ValueError("tree degrees must be >= 1 and sum to 2|B| - 2")
    out = math.sqrt(double_factorial(4 * block_size - 4))
    for d, j in zip(degrees, slices):
        out *= math.factorial(d) * lam_abs**d * float(M) ** (-(j - 2))
    return out


def block_bound_complex(block_size: int, degrees, slices, lam: complex, M: int) -> float:
    """Complex-coupling block bound on the domain |lam|^2 < cos(2 gamma).

    |B| = 1: |lam|^2 M^(-(j-2)); otherwise the real bound divided by
    cos(2 gamma)^(|B|/2).
    """
    lam = complex(lam)
    if not borel_domain(lam=lam).inside:
        raise ValueError("coupling outside the domain |lam|^2 < cos(2 gamma)")
    if block_size == 1:
        (j,) = tuple(slices)
        return abs(lam) ** 2 * float(M) ** (-(j - 2))
    base = block_bound_real(block_size, degrees, slices, abs(lam), M)
    return base / math.cos(2 * cmath.phase(lam)) ** (block_size / 2.0)


@dataclass
class SeriesReport:
    inner_sum: float
    partial_sum: float
    geometric: bool
    q_max: int
    b_max: int


@mp.workdps(30)
def summed_series_bound(lam_abs: float, M: float, q_max: int = 60, b_max: int = 200) -> SeriesReport:
    """Truncation of the summed bound sum_B S^B with

    S = sum_(q <= q_max) |lam|^(2q-2) 3^(3q) q^q M^(-q^2/4),

    evaluated in high precision; S < 1 flags geometric convergence.
    """
    s = mp.mpf(0)
    lam_abs = mp.mpf(lam_abs)
    Mm = mp.mpf(M)
    for q in range(1, q_max + 1):
        log_term = (
            (2 * q - 2) * mp.log(lam_abs) if lam_abs > 0 else (mp.mpf(0) if q == 1 else mp.mpf("-inf"))
        )
        log_term += 3 * q * mp.log(3) + q * mp.log(q) - (mp.mpf(q) ** 2 / 4) * mp.log(Mm)
        s += mp.e**log_term
    geometric = s < 1
    partial = mp.mpf(0)
    power = mp.mpf(1)
    for _ in range(b_max + 1):
        partial += power
        power *= s
        if power < mp.mpf("1e-40"):
            break
    return SeriesReport(float(s), float(partial), bool(geometric), q_max, b_max)


@mp.workdps(30)
def inner_tail_bound(lam_abs: float, M: float, q_max: int = 200) -> tuple[float, float]:
    """(sum_q |lam|^(2q-2) M^(-q/8), 1/(M^(1/8) - |lam|^2)); first <= second."""
    lam2 = mp.mpf(lam_abs) ** 2
    m8 = mp.mpf(M) ** mp.mpf("0.125")
    s = mp.mpf(0)
    for q in range(1, q_max + 1):
        s += lam2 ** (q - 1) / m8**q
    return float(s), float(1 / (m8 - lam2))


@dataclass
class InequalityRow:
    q: int
    log_lhs: float
    log_rhs: float
    margin: float  # log_rhs - log_lhs, positive when the inequality holds
    ok: bool


@mp.workdps(30)
def stirling_chain_check(q_values) -> list[InequalityRow]:
    """Check 2/(q-1)! sqrt((4q-4)!!) (3q-3)!/(2q-1)! <= 3^(3q) e^(-q) q^q.

    Everything in log domain; (4q-4)!! = 2^(2q-2) (2q-2)! for q >= 1.
    """
    rows = []
    for q in q_values:
        if q < 1:
            raise ValueError("q must be >= 1")
        log_lhs = (
            mp.log(2)
            - mp.loggamma(q)
            + mp.mpf(0.5) * ((2 * q - 2) * mp.log(2) + mp.loggamma(2 * q - 1))
            + mp.loggamma(3 * q - 2)
            - mp.loggamma(2 * q)
        )
        log_rhs = 3 * q * mp.log(3) - q + q * mp.log(q)
        margin = float(log_rhs - log_lhs)
        rows.append(InequalityRow(q, float(log_lhs), float(log_rhs), margin, margin >= 0))
    return rows


@dataclass
class ThresholdRow:
    q: int
    value: float
    ok: bool


@mp.workdps(30)
def m_threshold_check(M: float, q_values) -> list[ThresholdRow]:
    """Evaluate 3^(3q) q^q M^(-q^2/8) per q and flag values above 1.

    Known discrepancy: q = 1 at M = 1e8 gives exactly 2.7; callers should
    surface it as a warning rather than a failure.
    """
    rows = []
    for q in q_values:
        log_v = 3 * q * mp.log(3) + q * mp.log(q) - (mp.mpf(q) ** 2 / 8) * mp.log(mp.mpf(M))
        v = float(mp.e**log_v)
        rows.append(ThresholdRow(q, v, v <= 1.0))
    return rows


@dataclass
class BorelPoint:
    inside: bool
    lam_sq_minus_cos: float
    re_inv_g: float | None
    disk_distance: float | None


def borel_domain(lam: complex | None = None, g: complex | None = None) -> BorelPoint:
    """Strict-interior membership of the analyticity domain: the package's
    one membership predicate.

    Three descriptions coincide away from the origin: |lam|^2 < cos(2 gamma);
    Re(1/g) > 1; |g - 1/2| < 1/2 with g = lam^2.  The boundary is excluded.
    ``inside`` reads the disk; the other two are reported, and differ from
    it only by rounding on the circle.  g = 0 is the one point where the
    closures differ (the coupling form includes the free theory, the disk
    form puts it on the boundary); it counts as inside.
    """
    if (lam is None) == (g is None):
        raise ValueError("give exactly one of lam or g")
    if g is None:
        g = complex(lam) ** 2
    g = complex(g)
    if g == 0:
        return BorelPoint(True, -1.0, None, None)
    disk = abs(g - 0.5)
    return BorelPoint(disk < 0.5, abs(g) - math.cos(cmath.phase(g)), (1.0 / g).real, disk)


def assemble_term_bound(jungle: Jungle, slices, lam_abs: float, M: int) -> float:
    """Per-term bound 2^(Fermionic edges) * per-block bounds.

    Singleton blocks use the tighter |lam|^2 M^(-(j-2)) form, which the
    complex-coupling derivation gives at gamma = 0 as well; tree-bearing
    blocks use the real block bound with their tree degrees.
    """
    slices = tuple(slices)
    out = 2.0 ** len(jungle.fermionic)
    degrees = jungle.bosonic.degrees()
    for block in jungle.partition().blocks:
        verts = sorted(block)
        js = tuple(slices[v] for v in verts)
        if len(verts) == 1:
            out *= lam_abs**2 * float(M) ** (-(js[0] - 2))
        else:
            ds = tuple(degrees[v] for v in verts)
            out *= block_bound_real(len(verts), ds, js, lam_abs, M)
    return out
