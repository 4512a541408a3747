"""Surface models and exponential maps.

Expected values are hand-derived from the definitions: straight lines mod
the lattice (torus), mod the glide group (Klein bottle), tent-folded
lines (rectangle), specular segments (disk), and planar unfoldings
(cube).  A renormalized event stepper provides the independent check for
the disk.
"""

import hashlib
import math

import numpy as np
import pytest

from wavefront import (
    CubePoint,
    CubeSurface,
    DiskBilliard,
    KleinBottle,
    PreconditionError,
    RectBilliard,
    Torus,
    exp_point,
    format_surface,
    init_front,
    parse_surface,
    propagate,
    surface_distance,
    trace_cube_ray,
)
from wavefront.surfaces import (
    _FACE_PATHS,
    _FACE_PATHS_TO,
    _GROUP,
    _HASH_PRIME,
    _HASH_SEED,
    _NEXT_FACE,
    _ROT2_COS,
    _ROT2_SIN,
    _TRANS_ROT,
    _TRANS_SHIFT,
    CORNER_TOL,
    FACE_INDEX,
    FACE_NAMES,
    GeodesicBatch,
    _eval_cube,
    cube_geodesic_distance,
    evaluate_batch,
)


# --- descriptors -----------------------------------------------------------


def test_surface_descriptor_round_trip():
    for text in ("torus:1,1", "torus:2,0.5", "klein", "rect:1,1",
                 "rect:3,2", "disk:1", "disk:0.25", "cube:1", "cube:2"):
        surface = parse_surface(text)
        assert parse_surface(format_surface(surface)) == surface


def test_surface_descriptor_rejects_garbage():
    for text in ("bogus:1", "torus", "torus:1", "torus:0,1", "disk:-1",
                 "cube:0", "rect:1,1,1", "klein:1", "torus:inf,1", "disk:inf",
                 "cube:nan"):
        with pytest.raises((PreconditionError, ValueError)):
            parse_surface(text)


def test_point_descriptor_round_trip():
    tor = Torus(1.0, 1.0)
    assert tor.parse_point("0.25,0.75") == (0.25, 0.75)
    assert tor.parse_point(tor.format_point((0.1, 0.9))) == (0.1, 0.9)
    cube = CubeSurface(1.0)
    p = cube.parse_point("F/0.25/0.5")
    assert p == CubePoint("F", 0.25, 0.5)
    assert cube.parse_point(cube.format_point(p)) == p


def test_point_descriptor_rejects_garbage():
    cube = CubeSurface(1.0)
    for text in ("X/0.5/0.5", "F/0.5", "F/2/0.5", "0.5,0.5"):
        with pytest.raises((PreconditionError, ValueError)):
            cube.parse_point(text)
    with pytest.raises((PreconditionError, ValueError)):
        DiskBilliard(1.0).parse_point("2,0")


# --- exponential map, closed forms ----------------------------------------


def test_torus_straight_line_mod_lattice():
    point, cover, alive = exp_point(Torus(1.0, 1.0), (0.0, 0.0), math.pi / 2, 2.5)
    assert alive
    assert point[0] == pytest.approx(0.0, abs=1e-12)
    assert point[1] == pytest.approx(0.5, abs=1e-12)


def test_torus_periodicity_along_axis():
    tor = Torus(1.5, 1.0)
    p1, _, _ = exp_point(tor, (0.2, 0.3), 0.0, 0.7)
    p2, _, _ = exp_point(tor, (0.2, 0.3), 0.0, 0.7 + 1.5)
    assert p1[0] == pytest.approx(p2[0], abs=1e-12)
    assert p1[1] == pytest.approx(p2[1], abs=1e-12)


def test_rect_tent_fold():
    rect = RectBilliard(1.0, 1.0)
    # lift x = 1.5 folds to 0.5
    point, _, _ = exp_point(rect, (0.0, 0.3), 0.0, 1.5)
    assert point[0] == pytest.approx(0.5, abs=1e-12)
    assert point[1] == pytest.approx(0.3, abs=1e-12)
    # lift y = 3.7 folds to 0.3
    point, _, _ = exp_point(rect, (0.2, 0.7), math.pi / 2, 3.0)
    assert point[0] == pytest.approx(0.2, abs=1e-12)
    assert point[1] == pytest.approx(0.3, abs=1e-12)


def test_rect_containment():
    rect = RectBilliard(1.0, 2.0)
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0, 2 * math.pi, 200)
    batch = evaluate_batch(rect, (0.3, 0.4), thetas, 17.3)
    assert np.all(batch.pos[:, 0] >= 0) and np.all(batch.pos[:, 0] <= 1)
    assert np.all(batch.pos[:, 1] >= 0) and np.all(batch.pos[:, 1] <= 2)


def test_klein_glide_identification():
    # lift of (0.25, 0) along theta=pi/2 for t=1.25 is (0.25, 1.25);
    # one glide application sends it to (0.75, 0.25)
    point, _, alive = exp_point(KleinBottle(), (0.25, 0.0), math.pi / 2, 1.25)
    assert alive
    assert point[0] == pytest.approx(0.75, abs=1e-12)
    assert point[1] == pytest.approx(0.25, abs=1e-12)


def test_disk_radial_wiederkehr():
    # a radial ray reflects at the rim and returns to the center at t = 2R
    for theta in (0.0, 1.0, 2.5):
        point, cover, alive = exp_point(DiskBilliard(1.0), (0.0, 0.0), theta, 2.0)
        assert alive
        assert math.hypot(point[0], point[1]) == pytest.approx(0.0, abs=1e-9)
        assert cover.reflection_count == 1


def test_exp_at_time_zero_is_identity():
    cases = [
        (Torus(1.0, 1.0), (0.2, 0.3)),
        (KleinBottle(), (0.9, 0.1)),
        (RectBilliard(2.0, 1.0), (1.5, 0.5)),
        (DiskBilliard(1.0), (0.3, -0.4)),
    ]
    for surface, p in cases:
        point, _, _ = exp_point(surface, p, 1.234, 0.0)
        assert point[0] == pytest.approx(p[0], abs=1e-15)
        assert point[1] == pytest.approx(p[1], abs=1e-15)
    cp = CubePoint("F", 0.25, 0.5)
    point, _, _ = exp_point(CubeSurface(1.0), cp, 1.234, 0.0)
    assert point.face == "F" and point.u == 0.25 and point.v == 0.5


def test_unit_speed_away_from_events():
    # |d/dt exp| = 1 by central finite differences in the covering plane
    cases = [
        (Torus(1.0, 1.0), (0.2, 0.3)),
        (KleinBottle(), (0.25, 0.5)),
        (RectBilliard(1.0, 1.0), (0.3, 0.7)),
        (DiskBilliard(1.0), (0.3, 0.0)),
    ]
    dt = 1e-6
    for surface, p in cases:
        for theta in (0.123, 2.456, 4.0):
            t = 0.789  # no reflection happens within dt of this time
            _, c1, _ = exp_point(surface, p, theta, t - dt)
            _, c2, _ = exp_point(surface, p, theta, t + dt)
            speed = math.hypot(c2.x - c1.x, c2.y - c1.y) / (2 * dt)
            assert speed == pytest.approx(1.0, abs=1e-6)


# --- disk: independent specular stepper ------------------------------------


def _disk_step(radius, p, theta, t):
    """Specular reflections by explicit events; returns (pos, bounces).

    The position is renormalized onto the rim after each bounce, which the
    naive stepper needs for stability (|pos| drifts exponentially
    otherwise).
    """
    pos = np.array(p, dtype=float)
    d = np.array([math.cos(theta), math.sin(theta)])
    remaining = float(t)
    bounces = 0
    while True:
        b = pos @ d
        c = pos @ pos - radius * radius
        s = -b + math.sqrt(max(b * b - c, 0.0))
        if s >= remaining:
            return pos + remaining * d, bounces
        pos = pos + s * d
        pos *= radius / math.hypot(pos[0], pos[1])
        n = pos / radius
        d = d - 2.0 * (d @ n) * n
        remaining -= s
        bounces += 1


def test_disk_matches_renormalized_stepper():
    disk = DiskBilliard(1.0)
    rng = np.random.default_rng(11)
    for _ in range(25):
        r = 0.85 * math.sqrt(rng.uniform())
        phi = rng.uniform(0, 2 * math.pi)
        p = (r * math.cos(phi), r * math.sin(phi))
        theta = rng.uniform(0, 2 * math.pi)
        t = rng.uniform(1.0, 30.0)
        point, cover, _ = exp_point(disk, p, theta, t)
        ref, bounces = _disk_step(1.0, p, theta, t)
        assert math.hypot(point[0] - ref[0], point[1] - ref[1]) < 1e-7
        assert cover.reflection_count == bounces


def test_disk_positions_stay_inside():
    disk = DiskBilliard(1.0)
    rng = np.random.default_rng(5)
    thetas = rng.uniform(0, 2 * math.pi, 300)
    batch = evaluate_batch(disk, (0.6, 0.1), thetas, 47.0)
    assert np.all(np.hypot(batch.pos[:, 0], batch.pos[:, 1]) <= 1.0 + 1e-9)


# --- cube tracing -----------------------------------------------------------


def test_cube_ray_stays_on_face():
    point, history, group, alive = trace_cube_ray(
        1.0, CubePoint("U", 0.5, 0.5), 0.0, 0.25
    )
    assert alive
    assert point.face == "U"
    assert point.u == pytest.approx(0.75, abs=1e-12)
    assert point.v == pytest.approx(0.5, abs=1e-12)
    assert history == ("U",)
    _, _, g0, _ = trace_cube_ray(1.0, CubePoint("U", 0.5, 0.5), 0.0, 0.0)
    assert group == g0  # no crossing: still the identity rotation


def test_cube_ray_crosses_one_edge():
    src = CubePoint("U", 0.5, 0.5)
    point, history, group, alive = trace_cube_ray(1.0, src, 0.0, 1.0)
    assert alive
    assert len(history) == 2 and history[0] == "U"
    _, _, g0, _ = trace_cube_ray(1.0, src, 0.0, 0.0)
    assert group != g0
    # 0.5 past the shared edge: intrinsic distance 1 from the source
    assert surface_distance(CubeSurface(1.0), src, point) == pytest.approx(
        1.0, abs=1e-9
    )


def test_cube_corner_hit_dies():
    # aimed exactly at a face corner from the face center
    _, _, _, alive = trace_cube_ray(
        1.0, CubePoint("U", 0.5, 0.5), math.pi / 4, math.sqrt(0.5) + 0.1
    )
    assert not alive
    _, _, _, alive = trace_cube_ray(
        1.0, CubePoint("U", 0.5, 0.5), math.pi / 4, 0.5
    )
    assert alive  # not yet reached


def test_cube_straight_loops_close():
    # a straight ray around four faces returns home with identity rotation
    cube = CubeSurface(1.0)
    src = CubePoint("F", 0.5, 0.5)
    _, _, g0, _ = trace_cube_ray(1.0, src, 0.0, 0.0)
    for theta in (0.0, math.pi / 2):
        point, history, group, alive = trace_cube_ray(1.0, src, theta, 4.0)
        assert alive
        assert len(history) == 5
        assert group == g0
        assert surface_distance(cube, src, point) == pytest.approx(0.0, abs=1e-9)


def _eval_cube_by_gather(side, source, thetas, t, on_cross=None):
    """Reference cube walk: full-length state arrays, gathered and scattered
    through the indices of the active rays in every iteration."""
    delta = CORNER_TOL * side
    n = thetas.shape[0]
    face = np.full(n, FACE_INDEX[source.face], dtype=np.int64)
    pu = np.full(n, float(source.u))
    pv = np.full(n, float(source.v))
    du = np.cos(thetas)
    dv = np.sin(thetas)
    rot = np.zeros(n, dtype=np.int64)
    tvu = np.zeros(n)
    tvv = np.zeros(n)
    trem = np.full(n, float(t))
    tgone = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    death = np.full(n, np.inf)
    hh = np.full(n, _HASH_SEED, dtype=np.uint64)
    hh = (hh * _HASH_PRIME) ^ np.uint64(FACE_INDEX[source.face] + 1)
    hl = np.ones(n, dtype=np.int64)
    active = trem > 0.0
    while np.any(active):
        idx = np.nonzero(active)[0]
        fu, fv = pu[idx], pv[idx]
        gu, gv = du[idx], dv[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            su = np.where(gu > 0, (side - fu) / gu, np.where(gu < 0, -fu / gu, np.inf))
            sv = np.where(gv > 0, (side - fv) / gv, np.where(gv < 0, -fv / gv, np.inf))
        s_exit = np.minimum(su, sv)
        cross_u = su <= sv
        rem = trem[idx]
        done = rem <= s_exit
        if np.any(done):
            j = idx[done]
            pu[j] = pu[j] + rem[done] * du[j]
            pv[j] = pv[j] + rem[done] * dv[j]
            tgone[j] += rem[done]
            trem[j] = 0.0
            active[j] = False
        move = ~done
        if not np.any(move):
            continue
        j = idx[move]
        s = s_exit[move]
        cu = cross_u[move]
        peu = np.where(cu, np.where(du[j] > 0, side, 0.0), pu[j] + s * du[j])
        pev = np.where(cu, pv[j] + s * dv[j], np.where(dv[j] > 0, side, 0.0))
        along = np.where(cu, pev, peu)
        hit_corner = (along < delta) | (along > side - delta)
        if np.any(hit_corner):
            k = j[hit_corner]
            pu[k] = peu[hit_corner]
            pv[k] = pev[hit_corner]
            death[k] = tgone[k] + s[hit_corner]
            tgone[k] = death[k]
            trem[k] = 0.0
            alive[k] = False
            active[k] = False
        go = ~hit_corner
        if not np.any(go):
            continue
        j = j[go]
        s = s[go]
        peu, pev = peu[go], pev[go]
        cu = cu[go]
        edge = np.where(cu, np.where(du[j] > 0, 1, 0), np.where(dv[j] > 0, 3, 2))
        f2 = _NEXT_FACE[face[j], edge]
        if on_cross is not None:
            on_cross(f2)
        rt = _TRANS_ROT[face[j], edge]
        cshift = _TRANS_SHIFT[face[j], edge] * side
        c, sn = _ROT2_COS[rt], _ROT2_SIN[rt]
        npu = np.clip(c * peu - sn * pev + cshift[:, 0], 0.0, side)
        npv = np.clip(sn * peu + c * pev + cshift[:, 1], 0.0, side)
        ndu = c * du[j] - sn * dv[j]
        ndv = sn * du[j] + c * dv[j]
        nrot = np.mod(rot[j] - rt, 4)
        rc, rs = _ROT2_COS[nrot], _ROT2_SIN[nrot]
        tvu[j] = tvu[j] - (rc * cshift[:, 0] - rs * cshift[:, 1])
        tvv[j] = tvv[j] - (rs * cshift[:, 0] + rc * cshift[:, 1])
        pu[j], pv[j] = npu, npv
        du[j], dv[j] = ndu, ndv
        rot[j] = nrot
        face[j] = f2
        hh[j] = (hh[j] * _HASH_PRIME) ^ (f2 + 1).astype(np.uint64)
        hl[j] += 1
        tgone[j] += s
        trem[j] -= s
    rc, rs = _ROT2_COS[rot], _ROT2_SIN[rot]
    cover = np.stack([rc * pu - rs * pv + tvu, rs * pu + rc * pv + tvv], axis=1)
    return GeodesicBatch(
        thetas=thetas,
        pos=np.stack([pu, pv], axis=1),
        cover=cover,
        alive=alive,
        death_time=death,
        refl=np.zeros(n, dtype=np.int64),
        group=_GROUP[FACE_INDEX[source.face], face, rot],
        face=face,
        sheet=np.stack([hh, hl.astype(np.uint64)], axis=1),
    )


_WALK_CASES = [
    (1.0, CubePoint("F", 0.5, 0.5)),  # corner-aimed directions among the samples
    (1.0, CubePoint("U", 0.23, 0.61)),
    (2.5, CubePoint("D", 0.1, 2.3)),
    (1.0, CubePoint("L", 0.0, 0.4)),  # on an edge
    (0.3, CubePoint("R", 0.093, 0.201)),  # sums of sides round: 0.3 + 0.3 + 0.3 != 0.9
]


@pytest.mark.parametrize("side,source", _WALK_CASES)
@pytest.mark.parametrize("t", [0.0, 0.3, 2.5, 17.0, 20.0])
def test_cube_walk_matches_gather_scatter_walk(side, source, t):
    thetas = np.concatenate([
        np.linspace(0.0, 2.0 * math.pi, 2049),
        np.arange(8) * (math.pi / 4),  # axis-parallel and diagonal rays
        np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, 500),
    ])
    got = _eval_cube(CubeSurface(side), source, thetas, t)
    want = _eval_cube_by_gather(side, source, thetas, t)
    if t == 17.0 and source.u == 0.5:
        assert not want.alive.all()  # some ray died at a corner
    for name, col in vars(want).items():
        mine = getattr(got, name)
        assert mine.dtype == col.dtype and mine.shape == col.shape, name
        assert mine.tobytes() == col.tobytes(), name


@pytest.mark.parametrize("side,source", _WALK_CASES)
def test_trace_cube_ray_history_matches_gather_scatter_walk(side, source):
    for theta in (0.0, 0.3, math.pi / 4, 1.9, 4.0, 2.0 * math.pi):
        for t in (0.0, 1.0, 9.5):
            history = [FACE_INDEX[source.face]]
            _eval_cube_by_gather(
                side, source, np.array([theta]), t,
                on_cross=lambda faces: history.extend(faces.tolist()),
            )
            _, faces, _, _ = trace_cube_ray(side, source, theta, t)
            assert faces == tuple(FACE_NAMES[f] for f in history), (theta, t)


def test_cube_walk_reports_crossings_in_ray_order():
    side, source, t = 1.0, CubePoint("U", 0.23, 0.61), 6.0
    thetas = np.linspace(0.0, 2.0 * math.pi, 301)
    got, want = [], []
    _eval_cube(CubeSurface(side), source, thetas, t, on_cross=got.append)
    _eval_cube_by_gather(side, source, thetas, t, on_cross=want.append)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_cube_group_is_order_24():
    rng = np.random.default_rng(23)
    groups = set()
    for _ in range(60):
        theta = rng.uniform(0, 2 * math.pi)
        t = rng.uniform(0.5, 12.0)
        _, _, group, alive = trace_cube_ray(
            1.0, CubePoint("F", 0.23, 0.61), theta, t
        )
        if alive:
            groups.add(int(group))
    assert groups <= set(range(24))
    assert len(groups) > 4  # genuinely explores the rotation group


def test_cube_group_table_pinned():
    # sha256 of the table as built from the 24 integer rotation matrices
    # (permutations times signs) and their multiplication table
    assert _GROUP.dtype == np.int64 and _GROUP.shape == (6, 6, 4)
    assert hashlib.sha256(_GROUP.tobytes()).hexdigest() == (
        "0a57e8142228de695476b6cc1d166cd2eb752799d8a25e52207ca4de238ee29d")
    for f0 in range(6):
        # from one source face, the 24 developed frames are the 24 rotations
        assert sorted(_GROUP[f0].ravel().tolist()) == list(range(24))
        assert _GROUP[f0, f0, 0] == 0  # the undeveloped source frame: identity


def test_cube_transition_tables_pinned():
    # sha256 of the edge gluings as built by matching the 3-D corners of each
    # shared edge, and of every face-path column developed from them
    tables = (_NEXT_FACE, _TRANS_ROT, _TRANS_SHIFT)
    assert all(a.dtype == np.int64 for a in tables)
    assert hashlib.sha256(b"".join(a.tobytes() for a in tables)).hexdigest() == (
        "c259b3e6052e551aedb5bc3fcca4e481831bc8303f3afe5eda495aed3b86a3e3")
    columns = [column for paths in _FACE_PATHS for column in paths]
    assert all(c.dtype == np.int64 for c in columns)
    assert hashlib.sha256(b"".join(c.tobytes() for c in columns)).hexdigest() == (
        "4b9d47ad7071185a8bceeffc1fd9b643ae5bdb1609bb6ddaa4026a6f1fca1677")


def test_cube_vertex_source_rejected():
    with pytest.raises(PreconditionError):
        exp_point(CubeSurface(1.0), CubePoint("U", 0.0, 0.0), 0.1, 1.0)


# --- distances ---------------------------------------------------------------


def test_distance_examples():
    assert surface_distance(Torus(1.0, 1.0), (0.1, 0.5), (0.9, 0.5)) == (
        pytest.approx(0.2, abs=1e-12)
    )
    assert surface_distance(DiskBilliard(1.0), (0.0, 0.0), (0.3, 0.4)) == (
        pytest.approx(0.5, abs=1e-12)
    )
    cube = CubeSurface(1.0)
    assert surface_distance(
        cube, CubePoint("F", 0.2, 0.2), CubePoint("F", 0.7, 0.2)
    ) == pytest.approx(0.5, abs=1e-12)


def test_klein_glide_distance():
    # (0.9, 0.95) has the glide preimage (0.1, -0.05): distance 0.1
    d = surface_distance(KleinBottle(), (0.1, 0.05), (0.9, 0.95))
    assert d == pytest.approx(0.1, abs=1e-12)


def test_cube_face_to_face_distances():
    cube = CubeSurface(1.0)
    f = CubePoint("F", 0.5, 0.5)
    u = CubePoint("U", 0.5, 0.5)
    b = CubePoint("B", 0.5, 0.5)
    assert surface_distance(cube, f, u) == pytest.approx(1.0, abs=1e-12)
    # opposite faces: one full side plus half on each end
    assert surface_distance(cube, f, b) == pytest.approx(2.0, abs=1e-9)


# The documented charts: face -> (origin, e_u, e_v) in the unit cube, with
# e_u x e_v the outward normal (cross net L F R B, U above F, D below F).
_CUBE_CHARTS = {
    "U": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    "D": ((0, 1, 0), (1, 0, 0), (0, -1, 0)),
    "F": ((0, 0, 0), (1, 0, 0), (0, 0, 1)),
    "B": ((1, 1, 0), (-1, 0, 0), (0, 0, 1)),
    "L": ((0, 1, 0), (0, -1, 0), (0, 0, 1)),
    "R": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}


def _cube_3d(side, point):
    o, eu, ev = (np.array(v, dtype=float) for v in _CUBE_CHARTS[point.face])
    return side * o + point.u * eu + point.v * ev


def _rolled_unfoldings(side):
    """Every simple face path, unfolded by rolling the cube in 3D.

    The cube hangs below the plane z = 0 with the current face on it, outward
    normal up; the pose x -> m @ x + t places the source face's chart axes on
    x and y.  Rolling a quarter turn about an edge of the current face brings
    the neighbour across it down onto the plane.  Returns, per (first face,
    last face), the poses of the last face and the developed shared edges.
    """
    z = np.array([0.0, 0.0, 1.0])
    normal = {f: np.cross(c[1], c[2]).astype(float) for f, c in _CUBE_CHARTS.items()}
    paths = {}
    for f0, (o, eu, ev) in _CUBE_CHARTS.items():
        m0 = np.array([eu, ev, normal[f0]], dtype=float)
        stack = [((f0,), (), m0, -side * (m0 @ np.array(o, dtype=float)))]
        while stack:
            faces, gates, m, t = stack.pop()
            paths.setdefault((f0, faces[-1]), []).append((gates, m, t))
            centre = m @ np.full(3, 0.5 * side) + t + 0.5 * side * z
            for g in _CUBE_CHARTS:
                out = m @ normal[g]  # horizontal for the four neighbours
                if g in faces or abs(out[2]) > 0.5:
                    continue
                hinge = centre + 0.5 * side * out
                along = 0.5 * side * np.cross(z, out)
                roll = np.eye(3) + np.outer(z - out, out) - np.outer(z + out, z)
                gate = ((hinge - along)[:2], (hinge + along)[:2])
                stack.append((faces + (g,), gates + (gate,), roll @ m,
                              hinge + roll @ (t - hinge)))
    return paths


def _on_faces(side, point):
    """The point in the chart of each face that holds it (an edge point lies
    on two faces, a vertex on three)."""
    x, out = _cube_3d(side, point), []
    for face, (o, eu, ev) in _CUBE_CHARTS.items():
        w = x - side * np.array(o, dtype=float)
        u, v = w @ eu, w @ ev
        if abs(w @ np.cross(eu, ev)) < 1e-12 and -1e-12 <= min(u, v) <= max(u, v) <= side + 1e-12:
            out.append(CubePoint(face, min(max(u, 0.0), side), min(max(v, 0.0), side)))
    return out


def _oracle_chord(paths, side, q1, q2):
    """Shortest unfolded chord from q1 that crosses each shared edge in order."""
    _, m0, t0 = paths[(q1.face, q1.face)][0]
    a, best = (m0 @ _cube_3d(side, q1) + t0)[:2], math.inf
    for gates, m, t in paths[(q1.face, q2.face)]:
        b = (m @ _cube_3d(side, q2) + t)[:2]
        d, s_prev = b - a, 0.0
        for p, q in gates:
            g = q - p
            den = d[0] * g[1] - d[1] * g[0]
            if den == 0.0:
                break
            w = p - a
            s = (w[0] * g[1] - w[1] * g[0]) / den
            u = (w[0] * d[1] - w[1] * d[0]) / den
            if not (s_prev - 1e-9 <= s <= 1 + 1e-9 and -1e-9 <= u <= 1 + 1e-9):
                break
            s_prev = s
        else:
            best = min(best, math.hypot(d[0], d[1]))
    return best


def _oracle_distance(paths, side, q1, q2):
    return min(_oracle_chord(paths, side, a, b)
               for a in _on_faces(side, q1) for b in _on_faces(side, q2))


def test_cube_distance_exact():
    paths = _rolled_unfoldings(1.0)
    assert sum(len(v) for v in paths.values()) == 6 * 133
    cube = CubeSurface(1.0)
    rng = np.random.default_rng(11)
    for k in range(600):
        q1, q2 = (CubePoint("UDFBLR"[rng.integers(6)], *rng.uniform(0, 1, 2))
                  for _ in range(2))
        if k >= 400:  # on edges too, where a chord can run along an edge
            q1 = CubePoint(q1.face, float(rng.integers(2)), q1.v)
            q2 = CubePoint(q2.face, q2.u, float(rng.integers(2)) if k % 2 else q2.v)
        assert surface_distance(cube, q1, q2) == pytest.approx(
            _oracle_distance(paths, 1.0, q1, q2), abs=1e-12)
    # a shortest path across four faces, out of reach of two-edge chains
    q1, q2 = CubePoint("L", 0.03959, 0.52859), CubePoint("R", 0.45934, 0.06235)
    assert surface_distance(cube, q1, q2) == pytest.approx(1.5354371775, abs=1e-10)
    assert _oracle_distance(paths, 1.0, q1, q2) == pytest.approx(1.5354371775, abs=1e-10)
    for side in (1.0, 2.5):
        paths = _rolled_unfoldings(side)
        u, d = CubePoint("U", side / 2, side / 2), CubePoint("D", side / 2, side / 2)
        assert surface_distance(CubeSurface(side), u, d) == 2.0 * side
        assert _oracle_distance(paths, side, u, d) == pytest.approx(2.0 * side, abs=1e-12)


def _cube_distance_one_pair(side, q1, q2):
    """Reference one-way cube distance: the least developed chord over the
    face paths from q1's face to q2's whose chord passes through the path's
    developed faces in turn, for one pair of points."""
    paths = _FACE_PATHS_TO[FACE_INDEX[q1.face]][FACE_INDEX[q2.face]]
    p1 = np.array([q1.u, q1.v], dtype=np.float64)
    img = np.broadcast_to(np.array([q2.u, q2.v], dtype=np.float64), paths.shift.shape)
    for i in range(4, -1, -1):  # innermost step first; padding steps are identities
        img = (paths.step_rot[:, i] @ img[:, :, None])[:, :, 0] + paths.step_shift[:, i] * side
    d = img - p1
    # chord parameters where it enters and leaves each developed face
    lo = paths.corners * side - (p1 + 1e-12 * side)
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = lo / d[:, None, :]
        tb = (lo + side * (1.0 + 2e-12)) / d[:, None, :]
    enter = np.minimum(ta, tb).max(axis=2)
    leave = np.maximum(ta, tb).min(axis=2)
    # the chord passes from face k-1 to face k at the earliest parameter allowed
    s = np.maximum.accumulate(np.maximum(enter, 0.0), axis=1)
    ok = (s[:, 1:] <= leave[:, :-1]).all(axis=1) & (s[:, -1] <= 1.0)
    return float(np.hypot(d[:, 0], d[:, 1])[ok].min())


def test_batched_cube_distance_matches_one_pair_oracle(cube_tear_fronts):
    pairs = 0
    for front in cube_tear_fronts:
        cube, pos, face = front.surface, front.pos, front.face
        i = np.flatnonzero(front.alive[:-1] & front.alive[1:]
                           & (front.sheet[:-1] != front.sheet[1:]).any(axis=1))
        one_way = {}
        for a, b in ((i, i + 1), (i + 1, i)):  # both orders
            for f1, f2 in set(zip(face[a].tolist(), face[b].tolist())):
                k = np.flatnonzero((face[a] == f1) & (face[b] == f2))
                got = cube_geodesic_distance(cube.side, f1, pos[a[k]], f2, pos[b[k]])
                want = [_cube_distance_one_pair(cube.side, cube.point_at(pos, face, p),
                                                cube.point_at(pos, face, q))
                        for p, q in zip(a[k].tolist(), b[k].tolist())]
                assert got.tobytes() == np.array(want).tobytes(), (front.t, f1, f2)
                one_way.update(zip(zip(a[k].tolist(), b[k].tolist()), want))
        # the surface's distance is the lesser of the two orders
        got = cube.distances(pos, face, i, i + 1)
        want = [min(one_way[p, p + 1], one_way[p + 1, p]) for p in i.tolist()]
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes(), front.t
        pairs += i.size
    assert pairs == 432  # 40 to 160 per density front, 8 per components front after t = 0.5


def _sample_clouds_by_path_masks(side, pos, face, live):
    """Reference cube sample clouds: the live samples of a path's last face
    selected by a mask of their own for every face path."""
    pts, faces = pos[live], face[live]
    out = []
    for paths in _FACE_PATHS:
        near = paths.depth <= 2
        out.append(np.concatenate([
            pts[faces == g] @ r.T + c * side
            for g, r, c in zip(paths.end[near], paths.rot[near], paths.shift[near])
        ], axis=0))
    return out


def test_sample_clouds_match_per_path_masks(cube_tear_fronts):
    # each chart's own samples, then every developed one, are the former
    # whole cloud; a finite reach keeps the developed samples within it of
    # the chart's square on both axes, in the same order
    for front in cube_tear_fronts:
        side = front.surface.side
        got = list(front.surface.sample_clouds(front.pos, front.face, front.alive))
        want = _sample_clouds_by_path_masks(side, front.pos, front.face, front.alive)
        assert len(got) == len(want) == 6
        for (own, developed), cloud in zip(got, want):
            n = own.shape[0]
            every = developed(np.inf)
            assert own.dtype == every.dtype == cloud.dtype, front.t
            assert own.shape[0] + every.shape[0] == cloud.shape[0], front.t
            assert own.tobytes() == cloud[:n].tobytes(), front.t
            assert every.tobytes() == cloud[n:].tobytes(), front.t
            x, y = every[:, 0], every[:, 1]
            gap = np.maximum(np.maximum(-x, x - side), np.maximum(-y, y - side))
            for reach in (0.0, 0.05 * side, 0.3 * side, 1.2 * side):
                assert developed(reach).tobytes() == every[gap <= reach].tobytes(), (front.t, reach)


def test_planar_distances_are_the_pairwise_distance():
    torus, rng = Torus(1.0, 0.6), np.random.default_rng(5)
    pos = rng.uniform(0.0, 0.6, (9, 2))
    i, j = np.array([0, 3, 8, 2]), np.array([5, 3, 1, 7])
    want = [surface_distance(torus, tuple(pos[a]), tuple(pos[b])) for a, b in zip(i, j)]
    assert torus.distances(pos, None, i, j).tolist() == want
    assert torus.distances(pos, None, i[:0], j[:0]).shape == (0,)


def _flat_quotient_distance_oracle(surface, q1, q2):
    """Reference torus and Klein distance, one pair: the nearest of the nine
    deck images of each point to the other, the lesser of the two orders."""
    def one_way(a, b):
        imgs = surface.images(np.asarray([b], dtype=np.float64))[:, 0, :]
        return float(np.min(np.hypot(imgs[:, 0] - a[0], imgs[:, 1] - a[1])))

    return min(one_way(q1, q2), one_way(q2, q1))


def _chord_distance_oracle(surface, q1, q2):
    """Reference rectangle and disk distance, one pair: the straight chord."""
    return float(math.hypot(q2[0] - q1[0], q2[1] - q1[1]))


@pytest.mark.parametrize("text,oracle", [
    ("torus:1,1", _flat_quotient_distance_oracle),
    ("torus:1,0.3", _flat_quotient_distance_oracle),
    ("klein", _flat_quotient_distance_oracle),
    ("rect:1,0.4", _chord_distance_oracle),
    ("disk:1.3", _chord_distance_oracle),
])
def test_planar_distances_match_one_pair_oracles(text, oracle):
    surface, rng = parse_surface(text), np.random.default_rng(17)
    lo, w, h = surface.box
    n = 400
    if surface.kind == "disk":
        r, a = surface.radius * np.sqrt(rng.uniform(0.0, 1.0, n)), rng.uniform(0.0, 2 * math.pi, n)
        pos = np.stack([r * np.cos(a), r * np.sin(a)], axis=1)
    else:
        pos = lo + rng.uniform(0.0, 1.0, (n, 2)) * [w, h]
        pos[0:40:2, 1], pos[1:40:2, 1] = lo, lo + h  # pairs on the y seam
    i = np.arange(0, n, 2)
    for a, b in ((i, i + 1), (i + 1, i)):  # both orders
        want = np.array([oracle(surface, tuple(pos[p]), tuple(pos[q]))
                         for p, q in zip(a.tolist(), b.tolist())])
        got = np.array([surface_distance(surface, tuple(pos[p]), tuple(pos[q]))
                        for p, q in zip(a.tolist(), b.tolist())])
        assert _same_bits(got, want), text
        assert _same_bits(surface.distances(pos, None, a, b), want), text


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(2)
    surfaces = [
        (Torus(1.0, 1.0), lambda: tuple(rng.uniform(0, 1, 2))),
        (RectBilliard(1.0, 1.0), lambda: tuple(rng.uniform(0, 1, 2))),
        (
            DiskBilliard(1.0),
            lambda: tuple(0.7 * math.sqrt(rng.uniform())
                          * np.array([math.cos(a), math.sin(a)])
                          for a in [rng.uniform(0, 2 * math.pi)])[0],
        ),
        (
            CubeSurface(1.0),
            lambda: CubePoint("UDFBLR"[rng.integers(6)], *rng.uniform(0, 1, 2)),
        ),
    ]
    for surface, draw in surfaces:
        for _ in range(40):
            p, q, r = draw(), draw(), draw()
            dpq = surface_distance(surface, p, q)
            assert dpq == surface_distance(surface, q, p)
            assert dpq <= (
                surface_distance(surface, p, r)
                + surface_distance(surface, r, q)
                + 1e-9
            )


def test_tent_projection_is_1_lipschitz():
    rect = RectBilliard(1.0, 1.0)
    rng = np.random.default_rng(13)
    for _ in range(60):
        x1 = rng.uniform(-4, 4, 2)
        x2 = rng.uniform(-4, 4, 2)
        fold = lambda w: 1.0 - abs(math.fmod(abs(w), 2.0) - 1.0)
        p1 = (fold(x1[0]), fold(x1[1]))
        p2 = (fold(x2[0]), fold(x2[1]))
        assert surface_distance(rect, p1, p2) <= np.hypot(*(x1 - x2)) + 1e-12


def test_nearest_image_wraparound():
    tor = Torus(1.0, 1.0)
    img = tor.lift_near(np.array([[0.1, 0.5]]), np.array([[0.9, 0.5]]))[0]
    assert abs(np.hypot(img[0] - 0.1, img[1] - 0.5) - 0.2) < 1e-12
    assert img[0] == pytest.approx(-0.1, abs=1e-12)
    imgs = tor.images(np.array([[0.5, 0.5]]))
    assert imgs.shape[0] == 9  # 3x3 translate block


# oracles for the rules derived from a deck declaration: the Klein
# bottle's reduction and cell wrap written out by hand, and the nearest of
# the nine images


def _klein_reduce_oracle(x_lift, y_lift):
    m = np.floor(y_lift)
    y = y_lift - m
    odd = np.mod(m, 2.0) == 1.0
    x = np.mod(np.where(odd, 1.0 - x_lift, x_lift), 1.0)
    return x, y


def _klein_wrap_cells_oracle(i, j, nx, ny):
    m = np.floor_divide(j, ny)
    i = np.where(m % 2 == 1, -1 - i, i)
    return i % nx, j - m * ny


def _argmin_lift_oracle(surface, pa, pb):
    imgs = surface.images(pb)
    d2 = ((imgs - pa[None, :, :]) ** 2).sum(axis=2)
    return imgs[np.argmin(d2, axis=0), np.arange(pb.shape[0])]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == np.float64:
        a, b = a.view(np.uint64), b.view(np.uint64)
    return a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("text", ["klein", "torus:2,0.5"])
def test_deck_rules_match_the_hand_written_oracles(text):
    surface = parse_surface(text)
    rng = np.random.default_rng(8)
    n = 100_000
    x, y = rng.uniform(-1e3, 1e3, (2, n))
    y[::7] = np.round(y[::7])  # lifts on the seams
    x[::11] = np.round(x[::11])
    rx, ry = surface._reduce(x, y)
    if surface.glide:
        ox, oy = _klein_reduce_oracle(x, y)
    else:
        ox, oy = np.mod(x, surface.alpha), np.mod(y, surface.beta)
    assert _same_bits(rx, ox) and _same_bits(ry, oy)

    i, j = rng.integers(-300, 301, (2, n))
    for nx, ny in ((50, 50), (7, 13)):
        wi, wj = surface.wrap_cells(i, j, nx, ny)
        if surface.glide:
            oi, oj = _klein_wrap_cells_oracle(i, j, nx, ny)
        else:
            oi, oj = i % nx, j % ny
        assert _same_bits(wi, oi) and _same_bits(wj, oj)

    # pairs closer than half the shorter period, so the nearest image is unique
    _, w, h = surface.box
    pa = rng.uniform(0.0, 1.0, (n, 2)) * [w, h]
    r = rng.uniform(0.0, 0.999 * 0.5 * min(w, h), n)
    a = rng.uniform(0.0, 2 * math.pi, n)
    pb = np.stack(surface._reduce(pa[:, 0] + r * np.cos(a), pa[:, 1] + r * np.sin(a)), axis=1)
    assert _same_bits(surface.lift_near(pa, pb), _argmin_lift_oracle(surface, pa, pb))


def test_disk_long_time_closed_form():
    # the disk map is closed form in the bounce count, so a near-tangent
    # ray with millions of reflections evaluates instantly and stays on
    # the table
    batch = evaluate_batch(
        DiskBilliard(1.0), (0.999999, 0.0), np.array([math.pi / 2 + 1e-9]), 1e6
    )
    assert bool(batch.alive[0])
    assert np.hypot(batch.pos[0, 0], batch.pos[0, 1]) <= 1.0 + 1e-9
    assert int(batch.refl[0]) > 100_000
