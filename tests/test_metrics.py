"""Density grids, covering radius, coverage times and growth curves.

Hand-checkable grid facts anchor the occupancy code: a time-zero front
occupies exactly one cell, a 2x2-unit disk box at eps=0.5 has 16 cells of
which the 4 central ones are fully interior, and the cube grid is six
per-face grids.
"""

import math

import numpy as np
import pytest

from wavefront import (
    ArcInterval,
    CubePoint,
    CubeSurface,
    DiskBilliard,
    KleinBottle,
    PreconditionError,
    PropagationParams,
    RectBilliard,
    Torus,
    density_report,
    estimate_tau,
    init_front,
    length_growth_curve,
    parse_surface,
    propagate,
)
from wavefront.metrics import (
    NOT_ACHIEVED,
    _grid,
    _grid_axis,
    _hit_cells,
    _mark_chart_cells,
    _NearestFront,
    _occupancy,
    _segment_pairs,
)
from wavefront.surfaces import _fold

TWO_PI = 2.0 * math.pi


def test_grid_axis_cell_count():
    n, s = _grid_axis(1.0, 0.02)
    assert n == 50 and s == pytest.approx(0.02)
    n, s = _grid_axis(1.0, 0.03)
    assert n == 34  # round up so cells never exceed eps
    assert n * s == pytest.approx(1.0)


def test_time_zero_front_hits_one_cell():
    f = init_front(Torus(1.0, 1.0), (0.2, 0.3))
    rep = density_report(f, 0.1)
    assert rep.cells_total == 100
    assert rep.cells_hit == 1
    assert rep.n_components == 1
    assert rep.length == 0.0


def test_eps_resolution_precondition():
    f = init_front(Torus(1.0, 1.0), (0.2, 0.3))
    with pytest.raises(PreconditionError):
        density_report(f, 0.019)
    density_report(f, 4.0 * f.params.h_max)  # boundary value accepted


def test_disk_grid_geometry():
    # unit disk in its 2x2 box at eps=0.5: all 16 cells touch the disk,
    # only the 4 central cells are fully inside and count for covering
    f = init_front(DiskBilliard(1.0), (0.0, 0.0))
    rep = density_report(f, 0.5)
    assert rep.cells_total == 16
    assert rep.cells_hit == 1
    # farthest interior cell center from the origin: (0.25, 0.25)
    assert rep.covering_radius == pytest.approx(0.25 * math.sqrt(2), abs=1e-12)


def test_disk_grid_without_an_interior_cell_refused():
    # eps at or above the radius leaves at most 2 cells per axis, none inside
    # the disk, so there is no centre to take the covering radius over
    f = propagate(init_front(DiskBilliard(1.0), (0.4, 0.1)), 1.0)
    for eps in (1.0, 1.5):
        with pytest.raises(PreconditionError, match=rf"eps={eps!r}: .*DiskBilliard"):
            density_report(f, eps)
    assert density_report(f, 0.9).covering_radius == pytest.approx(0.5877, abs=1e-4)


def test_disk_rim_covering_radius():
    # at t=R the front is the rim; the uncovered center is ~R away
    f = propagate(init_front(DiskBilliard(1.0), (0.0, 0.0)), 1.0)
    rep = density_report(f, 0.1)
    assert 0.85 <= rep.covering_radius <= 1.0
    assert rep.cells_hit < rep.cells_total


def test_torus_dense_at_t100():
    tor = Torus(1.0, 1.0)
    for src in ((0.0, 0.0), (0.37, 0.61)):
        f = propagate(init_front(tor, src), 100.0)
        rep = density_report(f, 0.05)
        assert rep.covering_radius <= 0.3  # 3/sqrt(100)
        assert rep.cells_hit == rep.cells_total
        # full occupancy forces the covering radius under a cell diagonal
        assert rep.covering_radius <= 0.05 * math.sqrt(2.0)


def test_cube_grid_is_per_face():
    f = propagate(init_front(CubeSurface(1.0), CubePoint("F", 0.23, 0.61)), 6.0)
    rep = density_report(f, 0.05)
    assert rep.cells_total == 6 * 20 * 20
    assert rep.covering_radius <= 3.0 / math.sqrt(6.0)
    assert rep.n_components >= 4


def test_cells_hit_monotone_on_torus():
    tor = Torus(1.0, 1.0)
    prev = -1
    for t in (1.5, 2.0, 3.0, 4.0, 6.0):
        f = propagate(init_front(tor, (0.37, 0.61)), t)
        rep = density_report(f, 0.05)
        assert rep.cells_hit >= prev
        prev = rep.cells_hit
    assert prev > 300  # most of the 400 cells reached by t=6


def test_covering_radius_stable_under_refinement():
    # halving h_max must not increase the covering radius by more than h_max
    tor = Torus(1.0, 1.0)
    f1 = propagate(
        init_front(tor, (0.1, 0.2), params=PropagationParams(h_max=0.01)), 25.0
    )
    f2 = propagate(
        init_front(tor, (0.1, 0.2), params=PropagationParams(h_max=0.005)), 25.0
    )
    c1 = density_report(f1, 0.05).covering_radius
    c2 = density_report(f2, 0.05).covering_radius
    assert c2 <= c1 + 0.01


def test_segment_crossing_counts_cells_without_samples():
    # a straight front segment crossing a cell marks it hit even when both
    # endpoints lie outside: compare against per-sample occupancy
    tor = Torus(1.0, 1.0)
    f = propagate(init_front(tor, (0.2, 0.3)), 2.0)
    rep = density_report(f, 0.05)
    n, s = _grid_axis(1.0, 0.05)
    live = f.pos[f.alive]
    ij = np.minimum((live // s).astype(int), n - 1)
    sample_cells = len(set(map(tuple, ij.tolist())))
    assert rep.cells_hit >= sample_cells


# --- occupancy against all-pairs marking -------------------------------------


def _all_pairs_hits(front, x_axis, y_axis):
    """The reference occupancy: every live sample's cell, and every segment
    between adjacent live samples of a component on one chart drawn toward
    the lifted next sample (``lift_near``, ``_mark_chart_cells``).  Also
    returns the pairs whose lifted end is not the next sample itself."""
    surface = front.surface
    lo = surface.box[0]
    (nx, sx), (ny, sy) = x_axis, y_axis
    hit = np.zeros((surface.charts, nx, ny), dtype=bool)
    pos = front.pos
    charts = surface.sample_charts(front.face, pos.shape[0])
    li = np.nonzero(front.alive)[0]
    i0 = np.floor((pos[li, 0] - lo) / sx).astype(np.int64)
    j0 = np.floor((pos[li, 1] - lo) / sy).astype(np.int64)
    i0, j0 = surface.wrap_cells(i0, j0, nx, ny)
    hit[charts[li], i0, j0] = True
    pairs = np.concatenate([np.arange(start, stop - 1, dtype=np.int64)
                            for comp in front.components
                            for start, stop in comp.segments] + [np.zeros(0, np.int64)])
    pairs = pairs[charts[pairs] == charts[pairs + 1]]
    pa = pos[pairs]
    pb = surface.lift_near(pa, pos[pairs + 1])
    for c, i, j in _mark_chart_cells(pa, pb, charts[pairs], (lo, lo), sx, sy):
        i, j = surface.wrap_cells(i, j, nx, ny)
        hit[c, i, j] = True
    return hit, pairs[np.any(pb != pos[pairs + 1], axis=1)]


def _drawn_pairs(front, x_axis, y_axis):
    """The pairs ``_segment_pairs`` draws on this grid."""
    lo = front.surface.box[0]
    (nx, sx), (ny, sy) = x_axis, y_axis
    ci = np.floor((front.pos[:, 0] - lo) / sx).astype(np.int64)
    cj = np.floor((front.pos[:, 1] - lo) / sy).astype(np.int64)
    charts = front.surface.sample_charts(front.face, front.pos.shape[0])
    return _segment_pairs(front, ci, cj, charts, nx, ny)


# eps from 4*h_max up to grids of 3, 2 and 1 cells per axis
OCCUPANCY_FRONTS = [
    (Torus(1.0, 1.0), (0.37, 0.61), (0.5, 3.0, 12.0), (0.02, 0.05, 0.34, 0.5, 1.0)),
    (Torus(1.0, 0.3), (0.2, 0.1), (0.5, 3.0, 12.0), (0.006, 0.05, 0.34, 0.5)),
    (KleinBottle(), (0.2, 0.3), (0.5, 3.0, 12.0), (0.02, 0.05, 0.21, 0.34, 0.5, 1.0)),
    (RectBilliard(1.0, 0.7), (0.3, 0.2), (0.5, 3.0, 12.0), (0.014, 0.05, 0.34, 0.5, 1.0)),
    (DiskBilliard(1.0), (0.3, -0.2), (0.5, 3.0, 12.0), (0.02, 0.05, 0.7, 1.0, 2.0)),
    (CubeSurface(1.0), CubePoint("F", 0.23, 0.61), (1.0, 2.5, 6.0), (0.02, 0.05, 0.34, 0.5, 1.0)),
]


@pytest.mark.parametrize("surface,source,times,eps_list", OCCUPANCY_FRONTS,
                         ids=["torus", "thin-torus", "klein", "rect", "disk", "cube"])
def test_occupancy_equals_all_pairs_marking(surface, source, times, eps_list):
    # drawing only the segments that can add a cell hits the same cells,
    # and every segment whose end is lifted across a seam is drawn
    front = init_front(surface, source)
    assert eps_list[0] == pytest.approx(4.0 * front.params.h_max)
    dead = 0
    for t in times:
        front = propagate(front, t)
        dead += int((~front.alive).sum())
        for eps in eps_list:
            x_axis, y_axis, centers, *_ = _grid(surface, eps)
            expect, lifted = _all_pairs_hits(front, x_axis, y_axis)
            hit, _ = _hit_cells(front, x_axis, y_axis, centers)
            assert np.array_equal(hit, expect), (t, eps)
            assert np.isin(lifted, _drawn_pairs(front, x_axis, y_axis)).all(), (t, eps)
    assert (dead > 0) == (surface.kind == "cube")  # the cube fronts have dead samples


def test_occupancy_with_far_apart_samples():
    # at huge t on a narrow arc, refinement stops at THETA_MIN with adjacent
    # samples ~0.3 apart; this Klein front has a pair whose lift crosses the
    # y seam between neighbouring rows of a 3-cell grid and cuts a corner
    # cell no sample lands in
    klein = KleinBottle()
    front = propagate(init_front(
        klein, (0.5681923142926266, 0.8999457934389484),
        arc=ArcInterval(2.68715017193246, 2.68715017193246 + 3e-11), n0=4,
    ), 668790778107.7816)
    for eps in (0.21, 0.26, 0.34, 0.5):
        x_axis, y_axis, centers, *_ = _grid(klein, eps)
        expect, lifted = _all_pairs_hits(front, x_axis, y_axis)
        hit, _ = _hit_cells(front, x_axis, y_axis, centers)
        assert np.array_equal(hit, expect), eps
        assert np.isin(lifted, _drawn_pairs(front, x_axis, y_axis)).all(), eps



def test_occupancy_marks_every_cell_a_long_segment_crosses():
    # the front of test_occupancy_with_far_apart_samples on a 50 x 50 grid:
    # its drawn segments are ~0.42 long, about 21 cells, and every cell that
    # a dense resample of them lands in must be hit
    klein = KleinBottle()
    front = propagate(init_front(
        klein, (0.5681923142926266, 0.8999457934389484),
        arc=ArcInterval(2.68715017193246, 2.68715017193246 + 3e-11), n0=4,
    ), 668790778107.7816)
    x_axis, y_axis, centers, *_ = _grid(klein, 0.02)
    (nx, sx), (ny, sy) = x_axis, y_axis
    lo = klein.box[0]
    charts = klein.sample_charts(front.face, front.pos.shape[0])
    pairs = np.concatenate([np.arange(start, stop - 1)
                            for comp in front.components for start, stop in comp.segments])
    pairs = pairs[charts[pairs] == charts[pairs + 1]]
    pa = front.pos[pairs]
    pb = klein.lift_near(pa, front.pos[pairs + 1])
    along = np.linspace(0.0, 1.0, 1025)[:, None, None]
    pts = (pa + along * (pb - pa)).reshape(-1, 2)
    i = np.floor((pts[:, 0] - lo) / sx).astype(np.int64)
    j = np.floor((pts[:, 1] - lo) / sy).astype(np.int64)
    i, j = klein.wrap_cells(i, j, nx, ny)
    crossed = np.zeros((klein.charts, nx, ny), dtype=bool)
    crossed[np.tile(charts[pairs], along.shape[0]), i, j] = True
    hit, _ = _hit_cells(front, x_axis, y_axis, centers)
    assert not (crossed & ~hit).any(), f"{int((crossed & ~hit).sum())} of {int(crossed.sum())}"


# --- covering radius against the index over every centre ---------------------


def _against_the_index(front, eps):
    """Decided centres of ``density_report(front, eps)``, after checking its
    covering radius and every decided centre's own-cell bound bitwise
    against the nearest-sample index queried at every inside centre."""
    _, _, centers, charts, own, reach = _occupancy(front, eps)
    dist = _NearestFront(front).query(centers, charts)
    decided = own < reach
    assert np.array_equal(own[decided], dist[decided])
    assert density_report(front, eps).covering_radius.hex() == float(dist.max()).hex()
    return int(decided.sum()), decided.size


# (surface, source, eps, early and late times); the late torus:1,0.3 and
# rect fronts decide every centre from its own cell, the disk front at
# t = 3 and eps 0.5 none of its four
COVERING_FRONTS = [
    ("torus:1,1", "0.37,0.61", 0.05, (0.3, 12.0)),
    ("torus:1,0.3", "0.2,0.1", 0.02, (0.3, 40.0)),
    ("klein", "0.2,0.3", 0.05, (0.3, 15.0)),
    ("rect:1,0.4", "0.3,0.2", 0.05, (0.3, 12.0)),
    ("disk:1", "0.4,0.1", 0.05, (2.0, 40.0)),
    ("disk:1", "0.4,0.1", 0.5, (0.5, 3.0)),
    ("cube:1", "U/0.31/0.47", 0.1, (0.5, 10.0)),
    ("cube:2.5", "F/0.3/1.1", 0.25, (0.5, 10.0)),
]


def test_covering_radius_equals_the_index_over_every_centre():
    regimes = set()
    for desc, point, eps, times in COVERING_FRONTS:
        surface = parse_surface(desc)
        front = init_front(surface, surface.parse_point(point))
        for t in times:
            front = propagate(front, t)
            decided, centres = _against_the_index(front, eps)
            regimes.add("all" if decided == centres else "some" if decided else "none")
    assert regimes == {"all", "some", "none"}


def test_covering_radius_with_samples_on_cell_edges():
    # hand-placed live samples on a 10 x 10 torus grid: near most centres,
    # exactly on cell edges (half a cell from two centres, so neither is
    # decided by them), and at x = alpha, which np.mod returns for a tiny
    # negative x and whose wrapped cell is column 0 although its nearest
    # centre images lie half a cell away across the seam
    torus = Torus(1.0, 1.0)
    front = propagate(init_front(torus, (0.5, 0.5)), 1.0)
    edge = np.mod(-1e-17, 1.0)
    assert edge == 1.0
    k = np.arange(10)
    near = np.stack(np.meshgrid(0.1 * k + 0.05, 0.1 * k + 0.05, indexing="ij"), -1).reshape(-1, 2)
    pts = np.concatenate([
        near[(k[:, None] * 10 + k[None, 3:]).ravel()] + 0.01,  # cells (i, j >= 3)
        np.stack([0.1 * k, 0.1 * k + 0.05], 1),  # on x edges
        np.stack([0.1 * k + 0.05, 0.1 * k], 1),  # on y edges
        np.stack([np.full(10, edge), 0.1 * k + 0.05], 1),  # at x = alpha
        np.stack([0.1 * k + 0.05, np.full(10, edge)], 1),  # at y = beta
    ])
    front.pos[:] = np.resize(pts, front.pos.shape)
    assert front.alive.all()
    decided, centres = _against_the_index(front, 0.1)
    assert 0 < decided < centres
    # a dead sample decides nothing: cell (0, 3) keeps only the far ones
    front.alive[:] = np.resize(np.arange(len(pts)) != 0, front.alive.shape)
    assert _against_the_index(front, 0.1)[0] == decided - 1
    front.alive[:] = True
    # the edge and seam samples alone decide no centre
    front.pos[:] = np.resize(pts[70:], front.pos.shape)
    assert _against_the_index(front, 0.1)[0] == 0


# --- coverage time -----------------------------------------------------------


def test_tau_achieved_on_torus():
    est = estimate_tau(Torus(1.0, 1.0), (0.2, 0.3), r=0.5, t_max=12.0, delta_t=1.0)
    assert est.tau != NOT_ACHIEVED
    assert est.first_full_cover_time <= est.tau
    assert est.t_max == 12.0 and est.delta_t == 1.0
    # halving delta_t cannot push tau later by more than the old step
    est2 = estimate_tau(Torus(1.0, 1.0), (0.2, 0.3), r=0.5, t_max=12.0, delta_t=0.5)
    assert est2.tau <= est.tau + 1.0


def test_tau_huge_ball_covers_immediately():
    est = estimate_tau(Torus(1.0, 1.0), (0.2, 0.3), r=1.5, t_max=2.0, delta_t=0.5)
    assert est.tau == 0.0
    assert est.first_full_cover_time == 0.0


def test_tau_disk_center_never_persists():
    # the front is a concentric circle forever: some ball is always missed
    est = estimate_tau(
        DiskBilliard(1.0), (0.0, 0.0), r=0.3, t_max=9.75, delta_t=0.75
    )
    assert est.tau == NOT_ACHIEVED


def test_tau_radius_precondition():
    with pytest.raises(PreconditionError):
        estimate_tau(Torus(1.0, 1.0), (0.2, 0.3), r=0.005, t_max=1.0, delta_t=0.5)


# --- growth curves -----------------------------------------------------------


def test_torus_growth_slope_is_2pi():
    curve = length_growth_curve(Torus(1.0, 1.0), (0.37, 0.61), [5, 10, 15, 20, 25, 30])
    assert curve.slope == pytest.approx(TWO_PI, rel=5e-3)
    assert len(curve.points) == 6
    ts = [t for t, _ in curve.points]
    assert ts == [5, 10, 15, 20, 25, 30]


def test_disk_center_length_stays_bounded():
    curve = length_growth_curve(DiskBilliard(1.0), (0.0, 0.0), [1, 2, 3, 4, 5, 6])
    assert all(length <= TWO_PI + 1e-3 for _, length in curve.points)


def test_rect_growth_slope_is_2pi():
    curve = length_growth_curve(RectBilliard(1.0, 1.0), (0.3, 0.7), [4, 8, 12, 16])
    assert curve.slope == pytest.approx(TWO_PI, rel=5e-3)


def test_growth_curve_preconditions():
    with pytest.raises(PreconditionError):
        length_growth_curve(Torus(1.0, 1.0), (0.2, 0.3), [5.0])
    with pytest.raises(PreconditionError):
        length_growth_curve(Torus(1.0, 1.0), (0.2, 0.3), [5.0, 5.0])
    with pytest.raises(PreconditionError):  # one time at or above the median
        length_growth_curve(Torus(1.0, 1.0), (0.2, 0.3), [5.0, 10.0])
    with pytest.raises(PreconditionError):
        length_growth_curve(KleinBottle(), (0.2, 0.3), [5.0, 4.0])


# --- corollaries as covering maps -------------------------------------------


@pytest.mark.parametrize("t", [5.0, 25.0])
def test_quotient_fronts_agree_with_their_torus_covers(t):
    # the square billiard is the torus 2x2 folded by reflections, and the
    # Klein bottle the torus 1x2 reduced by its glide: the covers refine to
    # the same directions, their positions map onto the quotients', and the
    # quotient front covers its surface at least as well
    params = PropagationParams(h_max=0.005)

    def front(surface):
        return propagate(init_front(surface, (0.2, 0.3), params=params), t)

    rect, torus22 = front(RectBilliard(1.0, 1.0)), front(Torus(2.0, 2.0))
    klein, torus12 = front(KleinBottle()), front(Torus(1.0, 2.0))
    assert np.array_equal(rect.thetas, torus22.thetas)
    assert np.array_equal(klein.thetas, torus12.thetas)
    assert np.array_equal(rect.pos, _fold(torus22.pos, 1.0))
    x, y = KleinBottle()._reduce(torus12.pos[:, 0], torus12.pos[:, 1])
    dx = np.mod(x - klein.pos[:, 0] + 0.5, 1.0) - 0.5
    assert np.abs(dx).max() <= 1e-12
    assert np.abs(y - klein.pos[:, 1]).max() <= 1e-12
    radius = [density_report(f, 0.05).covering_radius
              for f in (rect, torus22, klein, torus12)]
    assert radius[0] <= radius[1] and radius[2] <= radius[3]
