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
    ROUNDING_MARGIN,
    _covering_radius,
    _grid,
    _grid_axis,
    _hit_cells,
    _mark_chart_cells,
    _nearest,
    _own_cells,
    _reach,
    _segment_pairs,
    _span,
)
from wavefront.nearest import CellIndex
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


def _live_sample_cells(front, x_axis, y_axis):
    """The cells, shape (charts, nx, ny), that a live sample lands in."""
    surface = front.surface
    lo = surface.box[0]
    (nx, sx), (ny, sy) = x_axis, y_axis
    hit = np.zeros((surface.charts, nx, ny), dtype=bool)
    pos, charts = front.pos, front.face
    li = np.nonzero(front.alive)[0]
    i0 = np.floor((pos[li, 0] - lo) / sx).astype(np.int64)
    j0 = np.floor((pos[li, 1] - lo) / sy).astype(np.int64)
    i0, j0 = surface.wrap_cells(i0, j0, nx, ny)
    hit[charts[li], i0, j0] = True
    return hit


def _all_pairs_hits(front, x_axis, y_axis):
    """The reference occupancy: every live sample's cell, and every segment
    between adjacent live samples of a component on one chart drawn toward
    the lifted next sample (``lift_near``, ``_mark_chart_cells``).  Also
    returns the pairs whose lifted end is not the next sample itself."""
    surface = front.surface
    lo = surface.box[0]
    (nx, sx), (ny, sy) = x_axis, y_axis
    hit = _live_sample_cells(front, x_axis, y_axis)
    pos, charts = front.pos, front.face
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
    charts = front.face
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
            hit = _hit_cells(front, x_axis, y_axis, _own_cells(front, x_axis, y_axis, centers))
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
        hit = _hit_cells(front, x_axis, y_axis, _own_cells(front, x_axis, y_axis, centers))
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
    charts = front.face
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
    hit = _hit_cells(front, x_axis, y_axis, _own_cells(front, x_axis, y_axis, centers))
    assert not (crossed & ~hit).any(), f"{int((crossed & ~hit).sum())} of {int(crossed.sum())}"


# --- covering radius against the index over every centre ---------------------


def _full_cloud_nearest(front, pts, charts):
    """The former ``_nearest``, kept as an oracle: one uncapped search per
    chart over its own live samples and every sample developed into it."""
    surface = front.surface
    out = np.full(pts.shape[0], np.inf)
    for chart, (cloud, developed) in enumerate(
            surface.sample_clouds(front.pos, front.face, front.alive)):
        m = charts == chart
        if m.any():
            if developed is not None:
                cloud = np.concatenate([cloud, developed(np.inf)])
            out[m] = CellIndex(cloud).query_images(surface.images(pts[m]))
    return out


def _against_the_index(front, spacing, meets=False):
    """Decided centres of the covering radius over the cells of a grid of
    ``spacing`` that lie inside the domain (``density_report``) or, with
    ``meets``, that meet it (``estimate_tau``), after checking the radius,
    every decided centre's own-cell bound and ``_nearest`` at every other
    centre bitwise against the full-cloud search queried at every such
    centre, and that the own-cell bounds are finite exactly in the
    live-sample cells."""
    surface = front.surface
    grid = _grid(surface, spacing)
    x_axis, y_axis, (cx, cy), mask = *grid[:3], grid[3 if meets else 4]
    bounds = _own_cells(front, x_axis, y_axis, (cx, cy))[3]
    assert np.array_equal(np.isfinite(bounds), _live_sample_cells(front, x_axis, y_axis))
    pts = np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1)[mask]
    charts = np.repeat(np.arange(surface.charts), pts.shape[0])
    pts = np.tile(pts, (surface.charts, 1))
    dist = _full_cloud_nearest(front, pts, charts)
    own = bounds[:, mask].ravel()
    decided = own < _reach(surface, x_axis, y_axis)
    assert np.array_equal(own[decided], dist[decided])
    # the centres the covering radius asks _nearest about
    assert np.array_equal(_nearest(front, pts[~decided], charts[~decided]), dist[~decided])
    radius = _covering_radius(front, grid, mask, bounds)
    assert radius.hex() == float(dist.max()).hex()
    if not meets:
        assert density_report(front, spacing).covering_radius.hex() == radius.hex()
    return int(decided.sum()), decided.size


# (surface, source, grid spacing, early and late times, meets).  Density's
# eps-grids over the cells inside the domain: the late torus:1,0.3 and rect
# fronts decide every centre from its own cell, the disk front at t = 3 and
# eps 0.5 none of its four.  tau's grids of spacing r/2 over the cells that
# meet the domain (meets): disk centres outside the rim, grids of one to
# three cells per axis, and a disk front from the corner of four cells that
# decides no centre at t = 0.1
COVERING_FRONTS = [
    ("torus:1,1", "0.37,0.61", 0.05, (0.3, 12.0), False),
    ("torus:1,0.3", "0.2,0.1", 0.02, (0.3, 40.0), False),
    ("klein", "0.2,0.3", 0.05, (0.3, 15.0), False),
    ("rect:1,0.4", "0.3,0.2", 0.05, (0.3, 12.0), False),
    ("disk:1", "0.4,0.1", 0.05, (2.0, 40.0), False),
    ("disk:1", "0.4,0.1", 0.5, (0.5, 3.0), False),
    ("cube:1", "U/0.31/0.47", 0.1, (0.5, 10.0), False),
    ("cube:2.5", "F/0.3/1.1", 0.25, (0.5, 10.0), False),
    ("disk:1", "0,0", 0.5, (0.1, 3.0), True),
    ("disk:1", "0.4,0.1", 0.15, (2.0, 40.0), True),
    ("disk:1", "0.4,0.1", 0.6, (0.5, 3.0, 20.0), True),
    ("disk:1", "0.4,0.1", 2.0, (0.5, 3.0), True),
    ("torus:1,1", "0.2,0.3", 1.0, (0.3, 3.0), True),
    ("torus:1,1", "0.2,0.3", 0.35, (0.3, 3.0, 12.0), True),
    ("klein", "0.2,0.3", 0.5, (0.3, 3.0, 12.0), True),
    ("rect:1,0.4", "0.3,0.2", 0.25, (0.3, 12.0), True),
    ("cube:1", "U/0.31/0.47", 0.4, (0.5, 3.0, 8.0), True),
    ("cube:1", "U/0.31/0.47", 0.1, (1.0, 5.0), True),
]


def test_covering_radius_equals_the_index_over_every_centre():
    regimes, tau_cells, outside_rim = set(), set(), 0
    for desc, point, spacing, times, meets in COVERING_FRONTS:
        surface = parse_surface(desc)
        front = init_front(surface, surface.parse_point(point))
        if meets:
            (nx, _), (ny, _), (cx, cy), mask, _ = _grid(surface, spacing)
            tau_cells.update((nx, ny))
            if surface.kind == "disk":
                outside_rim += int((np.hypot.outer(cx, cy)[mask] > surface.radius).sum())
        for t in times:
            front = propagate(front, t)
            decided, centres = _against_the_index(front, spacing, meets)
            regimes.add((meets, "all" if decided == centres else "some" if decided else "none"))
    assert regimes == {(m, r) for m in (False, True) for r in ("all", "some", "none")}
    assert {1, 2, 3} <= tau_cells and outside_rim > 0


def test_two_pass_nearest_equals_the_full_cloud_on_cube_fronts(cube_tear_fronts):
    # the benchmark's cube density fronts (t = 5 to 20, where the reach crops
    # the developed samples) and two early ones: cube:1 at t = 0.5, and
    # cube:2.5 at t = 0.5, with three faces holding no live sample and a
    # radius past one side
    early = [propagate(init_front(cube, cube.parse_point(point)), 0.5)
             for cube, point in ((CubeSurface(1.0), "U/0.31/0.47"), (CubeSurface(2.5), "D/0.1/2.3"))]
    dropped_total = empty_charts = 0
    for front, eps in [(early[0], 0.05), *((f, 0.05) for f in cube_tear_fronts[:4]),
                       (early[1], 0.25)]:
        surface, key = front.surface, (front.surface.side, front.t)
        x_axis, y_axis, (cx, cy), _, inside = _grid(surface, eps)
        own = _own_cells(front, x_axis, y_axis, (cx, cy))[3]
        charts, i, j = np.nonzero(inside & ~(own < _reach(surface, x_axis, y_axis)))
        q = np.stack([cx[i], cy[j]], axis=-1)
        got = _nearest(front, q, charts)
        assert np.array_equal(got, _full_cloud_nearest(front, q, charts)), key
        # the second pass's crop, redone: what it leaves out is farther than
        # every first answer, so no nearer than any answer (checked on the
        # samples within twice the reach on both axes: any other lies more
        # than twice it from every centre on one axis)
        for chart, (cloud, developed) in enumerate(
                surface.sample_clouds(front.pos, front.face, front.alive)):
            m = charts == chart
            if not m.any():
                continue
            far = float(CellIndex(cloud).query(q[m]).max())
            reach = far + ROUNDING_MARGIN * (far + _span(surface))
            every = developed(np.inf)
            x, y = every[:, 0], every[:, 1]
            gap = np.maximum(np.maximum(-x, x - surface.side), np.maximum(-y, y - surface.side))
            assert developed(reach).tobytes() == every[gap <= reach].tobytes(), key
            dropped = every[(gap > reach) & (gap <= 2.0 * reach)]
            if dropped.size:
                assert CellIndex(dropped).query(q[m]).min() > far, (key, chart)
            dropped_total += dropped.shape[0]
            empty_charts += cloud.shape[0] == 0
    # three empty faces at cube:1 t = 0.5 and three at cube:2.5
    assert dropped_total > 0 and empty_charts == 6
    assert got.max() > 2.5  # cube:2.5, the last front


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
    # (a torus front's alive column is a read-only view: assign new ones)
    front.alive = np.resize(np.arange(len(pts)) != 0, front.alive.shape)
    assert _against_the_index(front, 0.1)[0] == decided - 1
    front.alive = np.ones(front.alive.shape, dtype=bool)
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


def test_tau_checkpoints_are_the_t_grid(monkeypatch):
    # tau propagates to exactly the times --t-grid 0:t_max:dt lists, the
    # case within 1e-9 steps below a grid point included
    from wavefront import cli, frontier

    seen = []
    real = frontier.propagate

    def recording(front, t, *later):
        seen.append(t)
        return real(front, t, *later)

    monkeypatch.setattr(frontier, "propagate", recording)
    for t_max, dt in ((0.9, 0.3), (0.0999999999997, 0.1), (0.7, 0.1), (2.0, 0.25),
                      (0.0, 0.5), (1.0, 3.0)):
        seen.clear()
        estimate_tau(Torus(1.0, 1.0), (0.2, 0.3), r=1.5, t_max=t_max, delta_t=dt)
        assert seen == cli._t_grid(f"0:{t_max}:{dt}"), (t_max, dt)
    assert cli._t_grid("0:0.0999999999997:0.1") == [0.0, 0.1]


def test_tau_radius_precondition():
    with pytest.raises(PreconditionError):
        estimate_tau(Torus(1.0, 1.0), (0.2, 0.3), r=0.005, t_max=1.0, delta_t=0.5)


def test_tau_draws_no_segment_and_density_keys_each_front_once(monkeypatch):
    # tau reads the own-cell bounds alone; density keys the samples of each
    # front in one _own_cells pass, shared by occupancy and covering radius
    from wavefront import metrics

    calls = []
    real = metrics._own_cells

    def counting(front, *grid):
        calls.append(front.t)
        return real(front, *grid)

    monkeypatch.setattr(metrics, "_own_cells", counting)
    cube = CubeSurface(1.0)
    front = init_front(cube, CubePoint("U", 0.31, 0.47))
    times = (0.0, 2.0, 5.0)
    for t in times:
        front = propagate(front, t)
        density_report(front, 0.1)
        density_report(front, 0.25)
    assert calls == [t for t in times for _ in range(2)]

    def refused(*args):
        raise AssertionError("tau drew a segment")

    monkeypatch.setattr(metrics, "_segment_pairs", refused)
    monkeypatch.setattr(metrics, "_mark_chart_cells", refused)
    calls.clear()
    est = estimate_tau(RectBilliard(1.0, 0.4), (0.3, 0.2), r=0.2, t_max=15.0, delta_t=1.0)
    assert (est.tau, est.first_full_cover_time) == (1.0, 1.0)
    assert calls == [float(t) for t in range(16)]
    est = estimate_tau(cube, CubePoint("U", 0.31, 0.47), r=0.8, t_max=8.0, delta_t=1.0)
    assert (est.tau, est.first_full_cover_time) == (6.0, 6.0)
    with pytest.raises(AssertionError, match="tau drew a segment"):
        density_report(front, 0.1)


@pytest.mark.parametrize("rows", [1, 7, 1000])
def test_own_cells_do_not_depend_on_the_block_size(rows, monkeypatch):
    # a cube front with dead samples on six charts, a Klein front (glide
    # wraps) and a disk front (clamped cells), each over several blocks:
    # every output bit for bit, and the reports they feed
    from wavefront import metrics

    cases = [
        (propagate(init_front(CubeSurface(1.0), CubePoint("U", 0.31, 0.47)), 2.0), 0.1),
        (propagate(init_front(KleinBottle(), (0.2, 0.3)), 3.0), 0.05),
        (propagate(init_front(DiskBilliard(1.0), (0.4, 0.1)), 3.0), 0.1),
    ]
    want = []
    for front, eps in cases:
        want.append((_own_cells(front, *_grid(front.surface, eps)[:3]), density_report(front, eps)))
    monkeypatch.setattr(metrics, "OWN_CELL_ROWS", rows)
    for (front, eps), (cells, report) in zip(cases, want):
        assert front.sample_count > rows
        got = _own_cells(front, *_grid(front.surface, eps)[:3])
        for a, b in zip(got, cells):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert density_report(front, eps) == report


def test_covering_radius_without_a_live_sample_builds_no_index(monkeypatch):
    from wavefront import metrics

    front = propagate(init_front(CubeSurface(1.0), CubePoint("U", 0.31, 0.47)), 2.0)
    front.alive[:] = False
    grid = _grid(front.surface, 0.4)
    own = _own_cells(front, *grid[:3])[3]
    assert not np.isfinite(own).any()

    def refused(*args):
        raise AssertionError("index built")

    monkeypatch.setattr(metrics, "_nearest", refused)
    assert _covering_radius(front, grid, grid[3], own) == math.inf


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
