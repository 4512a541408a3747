"""Density and growth measurements for propagated fronts.

Three views of how a front fills its surface:

* ``density_report`` lays an eps-grid over the surface and reports cell
  occupancy together with the covering radius (the distance from the worst
  cell center to the nearest front sample).
* ``estimate_tau`` scans checkpoint times for the first time after which
  every ball of a given radius stays hit, the coverage time of a source.
* ``length_growth_curve`` records front length over a time grid and fits
  the asymptotic slope.

Distances are geodesic: wrap images on the torus and Klein bottle, straight
chords inside the convex billiards, and on the cube chords to samples
developed into the query's face (see ``_nearest``), each found exactly by
the cell-grid index of ``wavefront.nearest``.  A reported covering radius is
the largest nearest-sample distance over the eps-cell centres, not a bound
on the front's covering radius sup_x d(x, W_t): points between centres can
lie farther from the front.

Both ``density_report`` and ``estimate_tau`` take that largest distance
from one routine, ``_covering_radius``, over the cells inside the domain
and over the cells that meet it.  It consults the index only where a
centre's own cell cannot decide it.  One key pass over the samples
(``_own_cells``) gives every cell the least distance from its centre to the
live samples whose home cell it is.  Any other sample, any other deck image
of the centre and any cube sample developed from another face lies at
least half the shorter cell side away, less rounding, so an own-cell
distance below half a cell less ``ROUNDING_MARGIN`` times the coordinate
span is the exact nearest-sample distance, bit for bit.  The rest go to the
index, which is built one chart at a time and only for the charts that hold
such a centre: first over the chart's own samples, then over the cube
samples developed into it that lie within reach of those first answers.

Occupancy, which only ``density_report`` reads, is the cells with a finite
own-cell bound plus the cells that the drawn segments cross.
``estimate_tau`` reads the bounds alone and draws no segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frontier import (
    SAMPLE_BUDGET,
    Front,
    component_count,
    default_params,
    front_length,
    fronts,
    init_front,
    time_grid,
)
from .nearest import CellIndex
from .surfaces import NumericalFailureError, PreconditionError

NOT_ACHIEVED = "not achieved by t_max"

# Rounding allowance, relative to the span of the compared coordinates, on
# the distance below which a centre's own-cell bound is exact and on the
# reach of the developed samples a nearest-sample query searches.
ROUNDING_MARGIN = 1e-12

# Samples the own-cell pass takes at a time: its temporaries stay a few
# block-sized arrays, reused from block to block.
OWN_CELL_ROWS = 1 << 16


@dataclass(frozen=True)
class DensityReport:
    """Grid occupancy and covering radius of one front at one time."""

    t: float
    eps: float
    cells_total: int
    cells_hit: int
    covering_radius: float
    length: float
    n_components: int


@dataclass(frozen=True)
class TauEstimate:
    """Coverage time scan result.

    ``tau`` is the smallest checkpoint from which every ball stayed hit at
    all later checkpoints up to ``t_max``, or the string ``NOT_ACHIEVED``.
    Persistence is only checked on the sampled checkpoint grid; nothing is
    extrapolated past ``t_max``.  ``first_full_cover_time`` is the first
    checkpoint with every ball hit (``inf`` if that never happens).
    """

    r: float
    tau: object
    t_max: float
    delta_t: float
    first_full_cover_time: float


@dataclass(frozen=True)
class GrowthCurve:
    """Front length over a time grid plus the fitted asymptotic slope."""

    points: tuple
    slope: float


# ---------------------------------------------------------------------------
# nearest-sample geodesic distance queries


def _grid_axis(extent: float, eps: float):
    """Cell count and size for one axis: uniform cells no wider than eps.

    A count too large for a float is refused here; ``_grid`` bounds the
    others by ``SAMPLE_BUDGET``.
    """
    cells = extent / eps - 1e-9
    if not math.isfinite(cells):
        raise NumericalFailureError(
            f"grid of spacing {eps!r} over an extent of {extent!r} has more cells "
            f"than a float holds, more than the budget SAMPLE_BUDGET={SAMPLE_BUDGET}"
        )
    n = max(1, math.ceil(cells))
    return n, extent / n


def _nearest(front: Front, pts: np.ndarray, charts: np.ndarray) -> np.ndarray:
    """Min geodesic distance from each query point to the front's live samples.

    ``charts`` gives the chart of each query point, which lies in that
    chart's box.  The result is the minimum over all deck images of the
    query (``surface.images``, searched by ``CellIndex.query_images``).  A
    chart is searched only when it holds a query, in two passes:

    * its own live samples, uncapped: the first answers;
    * the samples of other charts developed into it (``surface.sample_clouds``;
      the cube's, which need no images), only those within R of the box on
      both axes plus ``ROUNDING_MARGIN`` times R and the coordinate span, R
      being the largest first answer.  Each query is capped by its first
      answer.

    A developed sample left out lies more than R from every query on one
    axis, so its chord rounds to more than every first answer, and a capped
    answer is exact below its cap: the minimum of the two passes is the
    minimum over every developed sample, bit for bit.  A chart without a live
    sample of its own answers ``inf`` first and then searches every developed
    sample, uncapped.  Each chart's clouds and indexes are dropped before the
    next chart's samples are developed.

    On the cube each sample is searched as developed across at most two
    edges into the query's face.  Each such chord is at least the geodesic
    distance, so the result is never below the exact one, and it is exact
    whenever the exact distance is below one side length: a shortest path
    that short crosses at most two edges.  Beyond that it can be too long.
    """
    surface = front.surface
    span = _span(surface)
    out = np.full(pts.shape[0], np.inf)
    for chart, (cloud, developed) in enumerate(
            surface.sample_clouds(front.pos, front.face, front.alive)):
        m = charts == chart
        if not m.any():
            continue
        q = pts[m]
        best = CellIndex(cloud).query_images(surface.images(q))
        if developed is not None:
            far = float(best.max())
            cloud = developed(far + ROUNDING_MARGIN * (far + span))
            best = np.minimum(best, CellIndex(cloud).query(q, cap=best))
        out[m] = best
        del cloud
    return out


# ---------------------------------------------------------------------------
# occupancy grids


def _segment_pairs(front: Front, ci, cj, charts, nx: int, ny: int):
    """First indices i of the segments (i, i+1) that can hit a cell their
    endpoints do not.

    A segment joins adjacent live samples of one component on one chart
    (a pair straddling a cube edge draws none).  ``ci`` and ``cj`` are every
    sample's unwrapped cell, floored as ``_mark_chart_cells`` floors a
    segment end, and each endpoint cell is already marked by its sample.
    So a segment can add a cell only

    * at the corner it cuts, when its end cells differ on both axes, or
    * when ``lift_near`` moves its end to another image across a flat
      quotient's seam: the moved end is floored afresh, and its cell need
      not wrap back onto the sample's.

    Any other end is the next sample itself and marks nothing new.  A lift
    on an axis needs the two coordinates to differ by at least half its
    period (``lift_near`` rounds their difference over the period; on the
    Klein bottle a lift in x alone leaves x unmirrored).  With n >= 5 cells
    on that axis their cells then differ by at least 2 (more than n/2 - 1,
    with half a cell to spare for rounding), which is selected.  A grid
    with fewer cells on an axis draws every segment.  Neither rule reads
    the spacing of the samples, so pairs that refinement left far apart
    (``THETA_MIN``) are covered too.
    """
    live = np.zeros(max(charts.shape[0] - 1, 0), dtype=bool)
    for comp in front.components:
        for start, stop in comp.segments:
            live[start:stop - 1] = True
    di, dj = np.diff(ci), np.diff(cj)
    add = ((di != 0) & (dj != 0)) | (np.abs(di) > 1) | (np.abs(dj) > 1)
    add |= min(nx, ny) < 5
    return np.flatnonzero(add & live & (charts[:-1] == charts[1:]))


def _cells_of(p, lo, sx, sy):
    """Unwrapped (i, j) grid cells of chart points ``p``, as int32.

    int32 holds every cell and every flat key built from one.  A grid has
    at most ``SAMPLE_BUDGET`` = 2^22 cells on all charts together (``_grid``),
    so a flat key (chart * nx + i) * ny + j of a wrapped cell is below 2^22.
    The points given are sample positions, which lie in their chart's box,
    and segment ends, which ``lift_near`` moves at most one period past it,
    so an unwrapped cell lies within one grid length of the grid: its
    indices are below 2^24 in magnitude, far from 2^31.  Every point is
    finite, dead samples' too: every front's columns are an evaluation (a
    parsed snapshot's as well), and ``evaluate_batch`` refuses a batch with
    a non-finite position.
    """
    u, v = p[:, 0] - lo[0], p[:, 1] - lo[1]
    u /= sx
    v /= sy
    return np.floor(u, out=u).astype(np.int32), np.floor(v, out=v).astype(np.int32)


def _mark_chart_cells(pa, pb, chart, lo, sx, sy):
    """Cells marked by segments pa->pb, each in its planar chart.

    Returns a list of (chart, i, j) integer index arrays (i and j possibly
    outside the grid; the caller wraps or clamps them).  A segment whose end
    cells differ by at most 1 on each axis crosses at most one grid line per
    axis, so its end cells and, when those differ on both axes, one corner
    cell (the column of one end, the row of the other) are every cell it
    touches, whatever its length.  A segment whose end cells differ by
    k >= 2 on an axis is cut into k + 1 equal pieces, each shorter than a
    cell side on both axes, and every piece is marked by that rule.
    """
    ia, ja = _cells_of(pa, lo, sx, sy)
    ib, jb = _cells_of(pb, lo, sx, sy)
    k = np.maximum(np.abs(ib - ia), np.abs(jb - ja))
    if k.max(initial=0) >= 2:
        n = np.where(k >= 2, k + 1, 1)
        seg = np.repeat(np.arange(n.size), n)
        m = (np.arange(seg.size) - np.repeat(np.cumsum(n) - n, n))[:, None]
        n, a, b = n[seg, None], pa[seg], pb[seg]
        pa = a + (b - a) * (m / n)
        pb = np.where(m + 1 == n, b, a + (b - a) * ((m + 1) / n))
        chart = chart[seg]
        ia, ja = _cells_of(pa, lo, sx, sy)
        ib, jb = _cells_of(pb, lo, sx, sy)
    cells = [(chart, ia, ja), (chart, ib, jb)]
    diag = (ia != ib) & (ja != jb)
    if diag.any():
        xa, ya = pa[diag, 0] - lo[0], pa[diag, 1] - lo[1]
        xb, yb = pb[diag, 0] - lo[0], pb[diag, 1] - lo[1]
        tx = (sx * np.maximum(ia[diag], ib[diag]) - xa) / (xb - xa)
        ty = (sy * np.maximum(ja[diag], jb[diag]) - ya) / (yb - ya)
        d = np.nonzero(diag)[0]
        through_b_col = d[tx <= ty]
        through_a_col = d[ty <= tx]
        cells.append((chart[through_b_col], ib[through_b_col], ja[through_b_col]))
        cells.append((chart[through_a_col], ia[through_a_col], jb[through_a_col]))
    return cells


def _grid(surface, spacing: float):
    """Uniform cells no wider than ``spacing`` over the surface's box.

    Returns the per-axis (count, size) pairs, each axis's cell centres
    lo + s*(k+0.5) as a pair of arrays, and the masks of the cells that meet
    the domain and that lie inside it.  The grid is laid on every chart, and
    its cells on all charts together number at most ``SAMPLE_BUDGET``.
    """
    lo, width, height = surface.box
    (nx, sx), (ny, sy) = _grid_axis(width, spacing), _grid_axis(height, spacing)
    if nx * ny * surface.charts > SAMPLE_BUDGET:
        raise NumericalFailureError(
            f"grid of spacing {spacing!r} has {nx * ny * surface.charts} cells, more "
            f"than the budget SAMPLE_BUDGET={SAMPLE_BUDGET}"
        )
    centers = lo + sx * (np.arange(nx) + 0.5), lo + sy * (np.arange(ny) + 0.5)
    meets, inside = surface.cell_overlap(
        lo + sx * np.arange(nx + 1), lo + sy * np.arange(ny + 1)
    )
    return (nx, sx), (ny, sy), centers, meets, inside


def _own_cells(front: Front, x_axis, y_axis, centers):
    """Every sample's unwrapped cell and chart, and each cell's own-cell bound.

    ``x_axis``, ``y_axis`` and ``centers`` are as ``_grid`` returns them.
    Returns ``ci, cj, charts, own``: the sample cells floored as
    ``_mark_chart_cells`` floors a segment end, and the bounds in shape
    (charts, nx, ny).  A cell's own-cell bound is the least distance from its
    centre to the live samples whose wrapped cell it is (``inf`` for none),
    computed as ``CellIndex._scan`` computes the chord from the centre's
    untranslated image to a sample.  Live positions are finite
    (``evaluate_batch``) and below ``SIZE_BOUND``, so a bound is finite
    exactly in the cells where a live sample lands.  The samples are taken
    ``OWN_CELL_ROWS`` at a time, so the pass holds the cells and a few
    block-sized temporaries whatever the front's size; a minimum does not
    depend on the order it is taken in, so neither do the bounds.
    """
    surface = front.surface
    lo = surface.box[0]
    (nx, sx), (ny, sy) = x_axis, y_axis
    pos, charts, alive = front.pos, front.face, front.alive
    n = pos.shape[0]
    ci, cj = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32)
    own = np.full(surface.charts * nx * ny, np.inf)
    for start in range(0, n, OWN_CELL_ROWS):
        rows = slice(start, start + OWN_CELL_ROWS)
        p = pos[rows]
        ci[rows], cj[rows] = _cells_of(p, (lo, lo), sx, sy)
        i0, j0 = surface.wrap_cells(ci[rows], cj[rows], nx, ny)
        dist = p[:, 0] - centers[0].take(i0)  # np.sqrt(dx*dx + dy*dy), in place
        dist *= dist
        dy = p[:, 1] - centers[1].take(j0)
        dy *= dy
        dist += dy
        np.sqrt(dist, out=dist)
        dist[~alive[rows]] = np.inf
        home = charts[rows].astype(np.int32)  # the flat key (chart * nx + i) * ny + j
        home *= nx
        home += i0
        home *= ny
        home += j0
        np.minimum.at(own, home, dist)
    return ci, cj, charts, own.reshape(surface.charts, nx, ny)


def _hit_cells(front: Front, x_axis, y_axis, cells):
    """Cells of a grid that the front hits, shape (charts, nx, ny).

    ``cells`` is as ``_own_cells`` returns it.  A cell is hit when a live
    sample lands in it (its own-cell bound is finite) or a segment between
    adjacent live samples crosses it; segments are drawn toward the image of
    the next sample nearest to the current one, and cell indices past the
    grid are wrapped back by the surface's rule.  Only the segments of
    ``_segment_pairs`` are drawn: no other can add a cell.
    """
    surface = front.surface
    lo = surface.box[0]
    (nx, sx), (ny, sy) = x_axis, y_axis
    ci, cj, charts, own = cells
    hit = np.isfinite(own)
    pairs = _segment_pairs(front, ci, cj, charts, nx, ny)
    if pairs.size:
        pa = front.pos[pairs]
        pb = surface.lift_near(pa, front.pos[pairs + 1])
        for c, i, j in _mark_chart_cells(pa, pb, charts[pairs], (lo, lo), sx, sy):
            i, j = surface.wrap_cells(i, j, nx, ny)
            hit[c, i, j] = True
    return hit


def _reach(surface, x_axis, y_axis) -> float:
    """Distance below which a centre's own-cell bound (``_own_cells``) is
    its nearest-sample distance: half the shorter cell side less
    ``ROUNDING_MARGIN`` times the span of the coordinates a nearest-sample
    query compares."""
    return 0.5 * min(x_axis[1], y_axis[1]) - ROUNDING_MARGIN * _span(surface)


def _span(surface) -> float:
    """The largest coordinate magnitude a nearest-sample query compares:
    cube clouds develop samples up to two faces past the chart's box."""
    lo, width, height = surface.box
    return abs(lo) + 3.0 * max(width, height)


def _covering_radius(front: Front, grid, mask: np.ndarray, own: np.ndarray) -> float:
    """The largest distance from a centre of the cells in ``mask``, on every
    chart, to the nearest live sample (``inf`` when no sample is live).

    ``grid`` is as ``_grid`` returns it and ``own`` as ``_own_cells`` does.
    A centre whose own-cell bound lies below ``_reach`` is decided by it.
    Every other centre lies at least that far from the front, beyond every
    decided one, so when any is left the radius is their maximum over
    ``_nearest``, which is asked about them alone; otherwise it is the
    largest own-cell bound.
    """
    if not front.alive.any():
        return math.inf
    x_axis, y_axis, (cx, cy) = grid[:3]
    far = mask & ~(own < _reach(front.surface, x_axis, y_axis))
    if not far.any():
        return float(own[:, mask].max())
    charts, i, j = np.nonzero(far)
    return float(_nearest(front, np.stack([cx[i], cy[j]], axis=-1), charts).max())


def density_report(front: Front, eps: float) -> DensityReport:
    """Occupancy and covering radius of a front on an eps-grid.

    The grid tiles the fundamental domain (each face for the cube, the
    bounding box for the disk) with uniform cells no wider than eps.  A
    cell is hit when a live sample lands in it or a front segment crosses
    it.  The covering radius is the max over cell centers (cells fully
    inside the disk; all cells elsewhere) of the distance to the nearest
    live sample.  An eps whose grid has no such centre is refused.

    Occupancy and covering radius read one ``_own_cells`` pass.  The
    covering radius is ``_covering_radius`` over the inside cells: exact
    own-cell distances where they decide a centre, the index at the other
    centres alone.
    """
    if not (math.isfinite(eps) and eps >= 4.0 * front.params.h_max):
        raise PreconditionError(
            f"eps={eps!r}: must be finite and at least 4*h_max for a "
            "meaningful occupancy grid"
        )
    grid = _grid(front.surface, eps)
    meets, inside = grid[3:]
    if not inside.any():
        raise PreconditionError(f"eps={eps!r}: no grid cell lies inside {front.surface!r}")
    cells = _own_cells(front, *grid[:3])
    cells_hit = int(_hit_cells(front, *grid[:2], cells).sum())
    own = cells[3]
    del cells  # the sample cells are freed before _nearest builds an index
    return DensityReport(
        t=front.t,
        eps=eps,
        cells_total=front.surface.charts * int(meets.sum()),
        cells_hit=cells_hit,
        covering_radius=_covering_radius(front, grid, inside, own),
        length=front_length(front),
        n_components=component_count(front),
    )


# ---------------------------------------------------------------------------
# coverage time


def estimate_tau(
    surface,
    source,
    r: float,
    t_max: float,
    delta_t: float,
) -> TauEstimate:
    """Scan the checkpoints ``time_grid(0, t_max, delta_t)`` for persistent
    full coverage by balls.

    A ball of radius r/2 around each grid center (spacing r/2) must contain
    a live sample; every surface point lies within r/(2*sqrt(2)) of a
    centre, so that conservatively implies every radius-r ball on the
    surface is hit.  tau is the earliest checkpoint such that coverage
    holds there and at every later checkpoint through t_max.

    A checkpoint is covered when ``_covering_radius`` over the centres of
    the cells that meet the domain is at most r/2 (disk centres outside the
    rim count too).
    """
    if not (math.isfinite(r) and r > 2.0 * default_params(surface).h_max):
        raise PreconditionError(
            f"r={r!r}: ball radius must be finite and exceed 2*h_max"
        )
    if not (math.isfinite(t_max) and t_max >= 0):
        raise PreconditionError(f"t_max={t_max!r}: must be finite and nonnegative")
    if not (math.isfinite(delta_t) and delta_t > 0):
        raise PreconditionError(f"delta_t={delta_t!r}: must be finite and positive")
    times = time_grid(0.0, t_max, delta_t)
    grid = _grid(surface, 0.5 * r)

    def is_covered(front) -> bool:
        own = _own_cells(front, *grid[:3])[3]
        return _covering_radius(front, grid, grid[3], own) <= 0.5 * r

    covered = list(fronts(init_front(surface, source), times, is_covered))

    first_full = next(
        (times[i] for i, c in enumerate(covered) if c), math.inf
    )
    tau = NOT_ACHIEVED
    for i in range(len(times) - 1, -1, -1):
        if not covered[i]:
            break
        tau = times[i]
    return TauEstimate(
        r=r,
        tau=tau,
        t_max=t_max,
        delta_t=delta_t,
        first_full_cover_time=first_full,
    )


# ---------------------------------------------------------------------------
# length growth


def length_growth_curve(surface, source, t_list) -> GrowthCurve:
    """Front length at each time in t_list plus the upper-half OLS slope.

    The slope is fit by ordinary least squares through the points with
    t >= median(t_list); the early transient is excluded so the fit
    reflects the asymptotic growth rate.  At least two times must lie
    there.
    """
    t_list = [float(t) for t in t_list]
    if any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise PreconditionError("t_list must be strictly increasing")
    med = float(np.median(t_list)) if t_list else math.nan
    upper = [t >= med for t in t_list]
    if sum(upper) < 2:
        raise PreconditionError(
            f"the slope is fit through the times at or above the median t={med!r}: "
            f"need two, got {sum(upper)}")
    points = list(fronts(init_front(surface, source), t_list,
                         lambda front: (front.t, front_length(front))))
    ts, ls = np.array(points)[upper].T
    slope = float(np.polyfit(ts, ls, 1)[0])
    return GrowthCurve(points=tuple(points), slope=slope)
