"""Integer-lattice counting oracle for the unit torus.

Counts lattice points in disks and annuli (the Gauss circle problem) and
verifies, by direct numeric evaluation, the rectangle construction that
proves fronts on the unit torus become 3/sqrt(t)-dense: a circle of radius
t around a lattice-aligned source projects, modulo the unit square, to a
curve whose slope, column height and covering radius are all controlled.

Everything here is arithmetic on integers plus closed-form geometry; the
module deliberately shares no code with the front simulator so the two can
check each other.  The one shared piece is ``wavefront.nearest``, the exact
nearest-sample index, which its tests check against brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nearest import CellIndex
from .surfaces import NumericalFailureError, PreconditionError

COUNT_BUDGET_RADIUS = 1.0e4

# Most sampled circle points, or cell centres, one rectangle check may allocate.
RECT_POINT_BUDGET = 4 * 10**6

# Side, in centres, of the blocks the rectangle check's maximum starts from.
RECT_BLOCK = 32


@dataclass(frozen=True)
class LatticeCount:
    """Counts for one radius/shell pair with the area predictions."""

    t: float
    h: float
    N_t: int
    annulus_count: int
    E_t: float


@dataclass(frozen=True)
class RectCheckReport:
    """Numeric verification of the density rectangle at one time.

    The region sits over [a, b] = [-2*sqrt(t), -sqrt(2t)] where the circle
    graph f(x) = sqrt(t^2 - x^2) has small slope and rises by about 1, so
    its projection modulo the unit square sweeps every column.
    """

    t: float
    a: float
    b: float
    height: float
    slope_max: float
    projected_covering_radius: float
    passed: bool


def _count_radius(sq: float) -> int:
    """Lattice points with m^2 + n^2 <= sq, by exact per-row counting.

    Comparisons are integer-vs-float, which Python evaluates exactly, so
    the result is the true count for the given squared radius.
    """
    m_max = math.isqrt(max(0, math.floor(sq)))
    while (m_max + 1) ** 2 <= sq:
        m_max += 1
    total = 0
    for m in range(-m_max, m_max + 1):
        rem = sq - m * m
        n = math.isqrt(max(0, math.floor(rem)))
        while (n + 1) ** 2 <= rem:
            n += 1
        while n > 0 and n**2 > rem:
            n -= 1
        total += 2 * n + 1
    return total


def gauss_count(t: float) -> int:
    """Number of integer points (m, n) with m^2 + n^2 <= t^2."""
    if not (math.isfinite(t) and t >= 0):
        raise PreconditionError(f"t={t!r}: radius must be finite and nonnegative")
    if t > COUNT_BUDGET_RADIUS:
        raise NumericalFailureError(
            f"radius {t} exceeds the enumeration budget {COUNT_BUDGET_RADIUS:g}"
        )
    return _count_radius(t * t)


def annulus_count(t: float, h: float):
    """Count in the shell t < |x| <= t+h alongside the area 2*pi*t*h."""
    if not (math.isfinite(t) and t > 0 and math.isfinite(h) and h >= 0):
        raise PreconditionError(f"need finite t > 0 and h >= 0, got t={t!r} h={h!r}")
    if t + h > COUNT_BUDGET_RADIUS:
        raise NumericalFailureError(
            f"outer radius {t + h} exceeds the enumeration budget"
        )
    count = _count_radius((t + h) * (t + h)) - _count_radius(t * t)
    return count, 2.0 * math.pi * t * h


def error_term(t: float) -> float:
    """Deviation E(t) = N_t - pi*t^2 of the count from the disk area.

    The classical envelope |E(t)| <= sqrt(2)*2*pi*t is enforced; it holds
    for every t >= 0.11 or so (below that the single origin point already
    outweighs the tiny area) and a violation in range means a counting bug.
    """
    if not (math.isfinite(t) and t > 0):
        raise PreconditionError(f"t={t!r}: radius must be finite and positive")
    e = gauss_count(t) - math.pi * t * t
    if abs(e) > math.sqrt(2.0) * 2.0 * math.pi * t:
        raise NumericalFailureError(
            f"lattice error term {e} violates the sqrt(2)*2*pi*t envelope at t={t}"
        )
    return e


def lattice_count(t: float, h: float) -> LatticeCount:
    """Bundle N_t, the shell count and E_t for one (t, h) pair."""
    count, _ = annulus_count(t, h)
    n_t = gauss_count(t)
    return LatticeCount(
        t=t, h=h, N_t=n_t, annulus_count=count, E_t=n_t - math.pi * t * t
    )


def wavefront_return_oracle(t: float, h: float) -> float:
    """Predicted min distance from the radius-t torus front to its source.

    The front from (0,0) on the unit torus lifts to the circle |x| = t, so
    its distance to the source is min over lattice points L of ||L| - t|.
    The shell width h is the scale at which the companion annulus count
    certifies returns; the minimum itself depends only on t.
    """
    if not (math.isfinite(t) and t > 0 and math.isfinite(h) and h > 0):
        raise PreconditionError(f"need finite t > 0 and h > 0, got t={t!r} h={h!r}")
    if t > COUNT_BUDGET_RADIUS:
        raise NumericalFailureError(
            f"radius {t} exceeds the enumeration budget {COUNT_BUDGET_RADIUS:g}"
        )
    best = t  # the origin
    m_hi = math.ceil(t + best)
    for m in range(0, m_hi + 1):
        rem = t * t - m * m
        if rem <= 0:
            cands = (0,)
        else:
            n0 = math.isqrt(math.floor(rem))
            cands = (n0 - 1, n0, n0 + 1, n0 + 2)
        for n in cands:
            if n < 0:
                continue
            d = abs(math.hypot(m, n) - t)
            if d < best:
                best = d
    return best


def theorem1_rectangle_check(t: float, h_max: float = 0.005) -> RectCheckReport:
    """Verify the three quantitative steps of the density rectangle at t.

    (i) the circle graph f(x) = sqrt(t^2 - x^2) has slope at most 3/sqrt(t)
    over [a, b] = [-2*sqrt(t), -sqrt(2t)]; (ii) it rises by 1 + O(1/sqrt(t))
    across that window; (iii) sampled at arc spacing <= h_max and projected
    modulo the unit square it is 3/sqrt(t)-dense.  All three are evaluated
    numerically; ``passed`` is their conjunction.
    """
    if not (math.isfinite(t) and t > 36.0 / 5.0):
        raise PreconditionError(f"t={t!r}: rectangle argument needs finite t > 36/5")
    if not (math.isfinite(h_max) and h_max > 0):
        raise PreconditionError(f"h_max={h_max!r}: must be finite and positive")
    a = -2.0 * math.sqrt(t)
    b = -math.sqrt(2.0 * t)
    bound = 3.0 / math.sqrt(t)

    def f(x):
        return np.sqrt(t * t - x * x)

    slope_max = 2.0 / math.sqrt(t - 4.0)  # |f'| peaks at x = a
    height = float(f(np.array(b)) - f(np.array(a)))

    dx = h_max / math.sqrt(1.0 + slope_max * slope_max)
    # n samples below and m x m cell centres: each at most the budget
    if b - a > (RECT_POINT_BUDGET - 1) * dx or h_max * math.isqrt(RECT_POINT_BUDGET) < 1.0:
        raise NumericalFailureError(
            f"rectangle check at t={t!r}, h_max={h_max!r} needs more samples or "
            f"cell centres than the budget RECT_POINT_BUDGET={RECT_POINT_BUDGET}"
        )
    n = int(math.ceil((b - a) / dx)) + 1
    xs = np.linspace(a, b, n)
    pts = np.stack([xs, f(xs)], axis=1)
    proj = np.mod(pts, 1.0)

    # geodesic distances on the unit torus via the 3x3 translate block
    m = max(2, int(math.ceil(1.0 / h_max)))
    dmin = _torus_distance(CellIndex(proj), m)
    # min-distance is 1-Lipschitz, so the sup over the torus is at most the
    # max over cell centers plus the cell circumradius: a true upper bound
    covering = _lipschitz_max(dmin, m) + math.sqrt(2.0) / (2.0 * m)

    passed = (
        slope_max <= bound
        and abs(height - 1.0) <= bound
        and covering <= bound
    )
    return RectCheckReport(
        t=t,
        a=a,
        b=b,
        height=height,
        slope_max=slope_max,
        projected_covering_radius=covering,
        passed=passed,
    )


def _torus_distance(index: CellIndex, m: int):
    """Distance on the unit torus from the centres ((i + 0.5)/m, (j + 0.5)/m)
    to the indexed samples, as a function of the index arrays i and j.

    The nine translates by -1, 0, 1 in each coordinate are its images; the
    untranslated one is the middle one (``CellIndex.query_images``).
    """
    c = (np.arange(m) + 0.5) / m
    shifts = np.array([(i, j) for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)])

    def dmin(i, j):
        centers = np.stack([c[i], c[j]], axis=1)
        return index.query_images(centers + shifts[:, None, :])

    return dmin


def _lipschitz_max(f, m: int) -> float:
    """Exact max of a 1-Lipschitz f over the m x m centres spaced 1/m apart.

    ``f(i, j)`` evaluates the centres of index arrays i and j.  The grid is
    cut into blocks of ``RECT_BLOCK`` x ``RECT_BLOCK`` centres and f is
    evaluated at each block's middle centre, its anchor.  Every centre of a
    block lies within ``reach`` of the anchor, so f stays below f(anchor) +
    reach there; a block whose bound (widened by 1e-9 for rounding) falls
    below the largest value seen cannot hold the maximum and is dropped.
    The others are halved until they are single centres, so the maximising
    centre is always evaluated and the result equals f's maximum over all
    m^2 centres bitwise (a pruned directed-Hausdorff maximum, Taha &
    Hanbury, IEEE TPAMI 37(11), 2015).
    """
    starts = np.arange(0, m, RECT_BLOCK)
    i0, j0 = (a.ravel() for a in np.meshgrid(starts, starts, indexing="ij"))
    ni = np.minimum(RECT_BLOCK, m - i0)
    nj = np.minimum(RECT_BLOCK, m - j0)
    value = np.full((m, m), np.nan)
    best = -math.inf
    while i0.size:
        ai, aj = i0 + (ni - 1) // 2, j0 + (nj - 1) // 2
        new = np.isnan(value[ai, aj])
        value[ai[new], aj[new]] = f(ai[new], aj[new])
        v = value[ai, aj]
        best = max(best, float(v.max()))
        reach = np.hypot(np.maximum(ai - i0, i0 + ni - 1 - ai),
                         np.maximum(aj - j0, j0 + nj - 1 - aj)) / m
        keep = ((v + reach) * (1.0 + 1e-9) >= best) & (ni * nj > 1)
        i0, j0, ni, nj = i0[keep], j0[keep], ni[keep], nj[keep]
        # halve each axis longer than one centre: up to four children
        hi, hj = (ni + 1) // 2, (nj + 1) // 2
        i0 = np.concatenate([i0, i0 + hi, i0, i0 + hi])
        j0 = np.concatenate([j0, j0, j0 + hj, j0 + hj])
        ni = np.concatenate([hi, ni - hi, hi, ni - hi])
        nj = np.concatenate([hj, hj, nj - hj, nj - hj])
        child = (ni > 0) & (nj > 0)
        i0, j0, ni, nj = i0[child], j0[child], ni[child], nj[child]
    return best
