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
developed into the query's face (see ``_NearestFront.query``), each found
exactly by the cell-grid index of ``wavefront.nearest``.  A reported
covering radius is the largest nearest-sample distance over the eps-cell
centres, not a bound on the front's covering radius sup_x d(x, W_t): points
between centres can lie farther from the front.

The covering radius consults that index only where a centre's own cell
cannot decide it.  The occupancy pass gives every cell the least distance
from its centre to the live samples whose home cell it is.  Any other
sample, any other deck image of the centre and any cube sample developed
from another face lies at least half the shorter cell side away, less
rounding, so an own-cell distance below half a cell less
``OWN_CELL_MARGIN`` times the coordinate span is the exact nearest-sample
distance, bit for bit.  The index is built only when some centre lies
farther out, and is queried at those centres alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frontier import (
    SAMPLE_BUDGET,
    Front,
    PropagationParams,
    component_count,
    default_params,
    front_length,
    init_front,
    propagate,
)
from .nearest import CellIndex
from .surfaces import NumericalFailureError, PreconditionError

NOT_ACHIEVED = "not achieved by t_max"

# Most checkpoints one coverage-time scan may list.
CHECKPOINT_BUDGET = 10**6

# Rounding allowance, relative to the span of the compared coordinates, on
# the distance below which a centre's own-cell bound is exact.
OWN_CELL_MARGIN = 1e-12


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


class _NearestFront:
    """One exact cell index per chart, answering min geodesic distance to
    live samples (``wavefront.nearest.CellIndex``)."""

    def __init__(self, front: Front):
        self.surface = front.surface
        clouds = self.surface.sample_clouds(front.pos, front.face, front.alive)
        self._indexes = [CellIndex(c) for c in clouds]

    def query(self, pts: np.ndarray, charts: np.ndarray):
        """Min distance from each query point to the front's live samples.

        ``charts`` gives the chart of each query point.  The result is the
        minimum over all deck images of the query (``surface.images``,
        searched by ``CellIndex.query_images``).

        On the cube each sample is searched as developed across at most two
        edges into the query's face.  Each such chord is at least the
        geodesic distance, so the result is never below the exact one, and
        it is exact whenever the exact distance is below one side length: a
        shortest path that short crosses at most two edges.  Beyond that it
        can be too long.
        """
        out = np.full(pts.shape[0], np.inf)
        for chart, index in enumerate(self._indexes):
            m = charts == chart
            if m.any():
                out[m] = index.query_images(self.surface.images(pts[m]))
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
    """Unwrapped (i, j) grid cells of chart points ``p``."""
    u, v = p[:, 0] - lo[0], p[:, 1] - lo[1]
    u /= sx
    v /= sy
    return np.floor(u, out=u).astype(np.int64), np.floor(v, out=v).astype(np.int64)


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

    Returns the per-axis (count, size) pairs, the cell centres lo + s*(k+0.5)
    as an (nx, ny, 2) array, and the masks of the cells that meet the
    domain and that lie inside it.  The grid is laid on every chart, and
    its cells on all charts together number at most ``SAMPLE_BUDGET``.
    """
    lo, width, height = surface.box
    (nx, sx), (ny, sy) = _grid_axis(width, spacing), _grid_axis(height, spacing)
    if nx * ny * surface.charts > SAMPLE_BUDGET:
        raise NumericalFailureError(
            f"grid of spacing {spacing!r} has {nx * ny * surface.charts} cells, more "
            f"than the budget SAMPLE_BUDGET={SAMPLE_BUDGET}"
        )
    cx = lo + sx * (np.arange(nx) + 0.5)
    cy = lo + sy * (np.arange(ny) + 0.5)
    centers = np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1)
    meets, inside = surface.cell_overlap(
        lo + sx * np.arange(nx + 1), lo + sy * np.arange(ny + 1)
    )
    return (nx, sx), (ny, sy), centers, meets, inside


def _on_charts(surface, centers: np.ndarray):
    """Chart points: ``centers`` repeated on every chart, with chart ids."""
    k = surface.charts
    return np.tile(centers, (k, 1)), np.repeat(np.arange(k), centers.shape[0])


def _hit_cells(front: Front, x_axis, y_axis, centers):
    """Cells of a grid that the front hits, and each cell's own-cell bound.

    ``x_axis``, ``y_axis`` and ``centers`` are as ``_grid`` returns them;
    both results have shape (charts, nx, ny).  A cell is hit when a live
    sample lands in it or a segment between adjacent live samples crosses
    it; segments are drawn toward the image of the next sample nearest to
    the current one, and cell indices past the grid are wrapped back by the
    surface's rule.  Only the segments of ``_segment_pairs`` are drawn: no
    other can add a cell.

    A cell's own-cell bound is the least distance from its centre to the
    live samples whose wrapped cell it is (``inf`` for none), computed as
    ``CellIndex._scan`` computes the chord from the centre's untranslated
    image to a sample.  Both results come from one flat key per sample.
    """
    surface = front.surface
    lo = surface.box[0]
    (nx, sx), (ny, sy) = x_axis, y_axis
    shape = (surface.charts, nx, ny)
    hit = np.zeros(math.prod(shape), dtype=bool)

    pos, alive = front.pos, front.alive
    charts = surface.sample_charts(front.face, pos.shape[0])
    ci, cj = _cells_of(pos, (lo, lo), sx, sy)
    i0, j0 = surface.wrap_cells(ci, cj, nx, ny)
    dist = pos[:, 0] - centers[:, 0, 0].take(i0)  # np.sqrt(dx*dx + dy*dy), in place
    dist *= dist
    dy = pos[:, 1] - centers[0, :, 1].take(j0)
    dy *= dy
    dist += dy
    del dy
    np.sqrt(dist, out=dist)
    dist[~alive] = np.inf
    home = charts * nx  # the flat key (chart * nx + i) * ny + j, in place
    home += i0
    home *= ny
    home += j0
    del i0, j0
    hit[home[alive]] = True
    own = np.full(hit.size, np.inf)
    np.minimum.at(own, home, dist)
    del home, dist  # freed before the segments are drawn

    pairs = _segment_pairs(front, ci, cj, charts, nx, ny)
    if pairs.size:
        pa = pos[pairs]
        pb = surface.lift_near(pa, pos[pairs + 1])
        for c, i, j in _mark_chart_cells(pa, pb, charts[pairs], (lo, lo), sx, sy):
            i, j = surface.wrap_cells(i, j, nx, ny)
            hit[(c * nx + i) * ny + j] = True
    return hit.reshape(shape), own.reshape(shape)


def _occupancy(front: Front, eps: float):
    """Cells on the eps-grid, cells hit by the front, the covering-radius
    centres with their charts and own-cell bounds (``_hit_cells``), and the
    distance below which an own-cell bound is the nearest-sample distance.

    That distance is half the shorter cell side less ``OWN_CELL_MARGIN``
    times the span of the coordinates a nearest-sample query compares.
    """
    surface = front.surface
    x_axis, y_axis, centers, meets, inside = _grid(surface, eps)
    total = surface.charts * int(meets.sum())
    hit, own = _hit_cells(front, x_axis, y_axis, centers)
    lo, width, height = surface.box
    # cube clouds develop samples up to two faces past the chart's box
    span = abs(lo) + 3.0 * max(width, height)
    reach = 0.5 * min(x_axis[1], y_axis[1]) - OWN_CELL_MARGIN * span
    return (total, int(hit.sum()), *_on_charts(surface, centers[inside]),
            own[:, inside].ravel(), reach)


def density_report(front: Front, eps: float) -> DensityReport:
    """Occupancy and covering radius of a front on an eps-grid.

    The grid tiles the fundamental domain (each face for the cube, the
    bounding box for the disk) with uniform cells no wider than eps.  A
    cell is hit when a live sample lands in it or a front segment crosses
    it.  The covering radius is the max over cell centers (cells fully
    inside the disk; all cells elsewhere) of the distance to the nearest
    live sample.  An eps whose grid has no such centre is refused.

    A centre whose own-cell distance lies below ``reach`` (half the
    shorter cell side less the rounding margin, ``_occupancy``) is
    decided by it.  Every other centre lies at least ``reach`` from the
    front, beyond every decided one, so when any is left the covering
    radius is their maximum over the index (``_NearestFront``), which is
    built only then; otherwise it is the largest own-cell distance.
    """
    if not (math.isfinite(eps) and eps >= 4.0 * front.params.h_max):
        raise PreconditionError(
            f"eps={eps!r}: must be finite and at least 4*h_max for a "
            "meaningful occupancy grid"
        )
    total, nhit, centers, center_faces, own, reach = _occupancy(front, eps)
    if not centers.shape[0]:
        raise PreconditionError(f"eps={eps!r}: no grid cell lies inside {front.surface!r}")
    far = ~(own < reach)
    if not front.alive.any():
        covering = math.inf
    elif far.any():
        covering = float(_NearestFront(front).query(centers[far], center_faces[far]).max())
    else:
        covering = float(own.max())
    return DensityReport(
        t=front.t,
        eps=eps,
        cells_total=total,
        cells_hit=nhit,
        covering_radius=covering,
        length=front_length(front),
        n_components=component_count(front),
    )


# ---------------------------------------------------------------------------
# coverage time


def _ball_centers(surface, spacing: float):
    """Grid of ball centers at most ``spacing`` apart covering the surface.

    Every surface point lies within spacing/sqrt(2) of some center, so
    hitting every ball of radius r/2 at these centers (spacing = r/2)
    implies hitting every ball of radius r anywhere.
    """
    _, _, centers, meets, _ = _grid(surface, spacing)
    return _on_charts(surface, centers[meets])


def estimate_tau(
    surface,
    source,
    r: float,
    t_max: float,
    delta_t: float,
    params: PropagationParams | None = None,
) -> TauEstimate:
    """Scan checkpoints k*delta_t for persistent full coverage by balls.

    A ball of radius r/2 around each grid center (spacing r/2) must contain
    a live sample; that conservatively implies every radius-r ball on the
    surface is hit.  tau is the earliest checkpoint such that coverage
    holds there and at every later checkpoint through t_max.
    """
    if params is None:
        params = default_params(surface)
    if not (math.isfinite(r) and r > 2.0 * params.h_max):
        raise PreconditionError(
            f"r={r!r}: ball radius must be finite and exceed 2*h_max"
        )
    if not (math.isfinite(t_max) and t_max >= 0):
        raise PreconditionError(f"t_max={t_max!r}: must be finite and nonnegative")
    if not (math.isfinite(delta_t) and delta_t > 0):
        raise PreconditionError(f"delta_t={delta_t!r}: must be finite and positive")
    if not t_max / delta_t < CHECKPOINT_BUDGET:
        raise NumericalFailureError(
            f"t_max/delta_t={t_max / delta_t!r} checkpoints exceed the budget "
            f"CHECKPOINT_BUDGET={CHECKPOINT_BUDGET}"
        )
    centers, center_faces = _ball_centers(surface, 0.5 * r)

    times = []
    k = 0
    while k * delta_t <= t_max * (1.0 + 1e-12):
        times.append(k * delta_t)
        k += 1

    front = init_front(surface, source, params=params)
    covered = []
    for tt in times:
        front = propagate(front, tt)
        dist = _NearestFront(front).query(centers, center_faces)
        covered.append(bool(np.all(dist <= 0.5 * r)))

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


def length_growth_curve(
    surface,
    source,
    t_list,
    params: PropagationParams | None = None,
) -> GrowthCurve:
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
    front = init_front(surface, source, params=params)
    points = []
    for tt in t_list:
        front = propagate(front, tt)
        points.append((tt, front_length(front)))
    ts, ls = np.array(points)[upper].T
    slope = float(np.polyfit(ts, ls, 1)[0])
    return GrowthCurve(points=tuple(points), slope=slope)
