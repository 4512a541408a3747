"""End-to-end acceptance checks for the wave-front toolkit.

Ten scenario tests, one summary line each (echoed at the end of the run
by the conftest hook), plus an independent cross-check of criterion 6.
Tolerances are pinned in the asserts; expected values come either from
closed-form geometry or from an independent recomputation inside the
test, never from the code under test.
"""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.spatial import cKDTree

from wavefront import (
    CubePoint,
    PropagationParams,
    annulus_count,
    component_count,
    density_report,
    error_term,
    front_length,
    gauss_count,
    init_front,
    length_growth_curve,
    parse_surface,
    propagate,
    theorem1_rectangle_check,
    wavefront_return_oracle,
)
from wavefront import cli
from wavefront.frontier import fronts
from wavefront.io import emit_snapshot, render_svg
from wavefront.surfaces import GeodesicBatch


def _covering_radii(surface_desc, source, t_list, eps=0.02, h_max=0.005):
    surf = parse_surface(surface_desc)
    front = init_front(surf, source, params=PropagationParams(h_max=h_max))
    out = []
    for t in t_list:
        front = propagate(front, t)
        out.append(density_report(front, eps).covering_radius)
    return out


def test_criterion_01_torus_density_rate(criterion):
    """Covering radius stays under 3/sqrt(t) on the unit torus."""
    t_list = [25.0, 100.0, 400.0]
    worst = 0.0
    ok = True
    for source in [(0.0, 0.0), (0.37, 0.61)]:
        for t, cov in zip(t_list, _covering_radii("torus:1,1", source, t_list)):
            bound = 3.0 / math.sqrt(t)
            worst = max(worst, cov / bound)
            ok = ok and cov <= bound
    assert criterion(
        1, ok, f"torus covering radius at most {worst:.3f} of the 3/sqrt(t) bound"
    )


def test_criterion_02_rectangle_argument_verifier(criterion, capsys):
    """The density certificate holds on the library and CLI routes."""
    ok = True
    height_100 = None
    for t in (10.0, 25.0, 100.0, 400.0, 1000.0):
        rep = theorem1_rectangle_check(t)
        bound = 3.0 / math.sqrt(t)
        ok = ok and rep.passed
        ok = ok and rep.slope_max <= bound
        ok = ok and abs(rep.height - 1.0) <= bound
        ok = ok and rep.projected_covering_radius <= bound
        if t == 100.0:
            height_100 = rep.height
        ok = ok and cli.run(["verify-theorem1", "--t-grid", f"{t:g}:{t:g}:1"]) == 0
    capsys.readouterr()
    ok = ok and abs(height_100 - 1.0153) <= 1e-3
    assert criterion(
        2, ok, f"all five times pass, height(100) = {height_100:.5f}"
    )


def test_criterion_03_klein_density(criterion):
    worst = 0.0
    ok = True
    t_list = [100.0, 400.0]
    for source in [(0.0, 0.0), (0.37, 0.61)]:
        for t, cov in zip(t_list, _covering_radii("klein", source, t_list)):
            bound = 3.0 / math.sqrt(t)
            worst = max(worst, cov / bound)
            ok = ok and cov <= bound
    assert criterion(
        3, ok, f"klein covering radius at most {worst:.3f} of the 3/sqrt(t) bound"
    )


def test_criterion_04_square_billiard_density(criterion):
    """Simulated covering radius, cross-checked against the folded circle."""
    t = 400.0
    surf = parse_surface("rect:1,1")
    front = propagate(
        init_front(surf, (0.3, 0.7), params=PropagationParams(h_max=0.005)), t
    )
    cov_sim = density_report(front, 0.02).covering_radius

    # independent route: fold the exact radius-t circle into the table
    m = int(math.ceil(2.0 * math.pi * t / 0.005))
    theta = (np.arange(m, dtype=np.float64) + 0.5) * (2.0 * math.pi / m)

    def fold(w):
        r = np.mod(w, 2.0)
        return 1.0 - np.abs(r - 1.0)

    pts = np.column_stack(
        [fold(0.3 + t * np.cos(theta)), fold(0.7 + t * np.sin(theta))]
    )
    axis = (np.arange(50, dtype=np.float64) + 0.5) * 0.02
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    cov_brute = float(cKDTree(pts).query(centers)[0].max())

    ok = cov_sim <= 0.424 and cov_brute <= 0.424
    ok = ok and abs(cov_sim - cov_brute) <= 0.01
    assert criterion(
        4,
        ok,
        f"simulated {cov_sim:.5f} vs folded-circle {cov_brute:.5f}, bound 0.424",
    )


def test_criterion_05_flat_length_law(criterion):
    """Immersed front length at t = 20 is 2*pi*t up to polyline shortfall."""
    t = 20.0
    cases = [
        ("torus:1,1", (0.2, 0.3)),
        ("klein", (0.2, 0.3)),
        ("rect:1,1", (0.3, 0.7)),
        ("cube:1", CubePoint("U", 0.5, 0.5)),
    ]
    ratios = []
    ok = True
    for desc, source in cases:
        surf = parse_surface(desc)
        front = propagate(
            init_front(surf, source, params=PropagationParams(h_max=0.002)), t
        )
        ratio = front_length(front) / (2.0 * math.pi * t)
        ratios.append(f"{desc.split(':')[0]}={ratio:.6f}")
        ok = ok and 0.999 <= ratio <= 1.0
    assert criterion(5, ok, "length/(2*pi*t): " + ", ".join(ratios))


def test_criterion_06_disk_length_asymptotics(criterion):
    """Fitted disk growth slope against the 2*arcsin(|P|) target.

    The ray at angle theta has impact parameter h = |P| sin(theta - phi);
    on its chord of half-length c = sqrt(1 - h^2), at position u, the
    image moves by dx/dh = (t u / c^2) n + O(1). Averaging |u| = c / 2 over
    the two sweeps of h through [-|P|, |P|] gives L(t) / t -> 2 arcsin|P|.
    From the centre (h = 0) the length stays bounded by 2 pi.
    """
    surf = parse_surface("disk:1")
    # step 12.5 walks the period-2 bounce phase through 0, .5, 1, 1.5
    # uniformly, so the fit averages out the length oscillation
    t_list = [250.0 + 12.5 * k for k in range(21)]
    parts = []
    slopes_ok = True
    for r in (0.3, 0.5, 0.8):
        curve = length_growth_curve(surf, (r, 0.0), t_list)
        target = 2.0 * math.asin(r)
        slopes_ok = slopes_ok and abs(curve.slope - target) <= 0.10 * target
        parts.append(f"|P|={r}: slope {curve.slope:.4f} vs target {target:.4f}")
    center = length_growth_curve(surf, (0.0, 0.0), t_list)
    center_max = max(length for _, length in center.points)
    center_ok = center_max <= 2.0 * math.pi + 1e-3
    parts.append(f"origin max length {center_max:.4f}")
    ok = slopes_ok and center_ok
    recorded_ok = criterion(6, ok, "; ".join(parts))
    if not recorded_ok:
        pytest.fail(
            "disk growth slopes or origin length off the 2*arcsin(|P|) law: "
            + "; ".join(parts),
            pytrace=False,
        )


def _unit_disk_rays(source, thetas, t):
    """Endpoints of unit-speed rays in the unit disk after time t.

    Reflects off the rim one chord at a time; shares no code with
    ``wavefront.surfaces``.
    """
    x = np.tile(np.asarray(source, dtype=float), (len(thetas), 1))
    v = np.column_stack([np.cos(thetas), np.sin(thetas)])
    left = np.full(len(thetas), float(t))
    while True:
        xv = np.einsum("ij,ij->i", x, v)
        xx = np.einsum("ij,ij->i", x, x)
        s = np.minimum(-xv + np.sqrt(np.maximum(xv * xv - xx + 1.0, 0.0)), left)
        x = x + s[:, None] * v
        left = left - s
        moving = left > 0.0
        if not moving.any():
            return x
        n = x / np.linalg.norm(x, axis=1, keepdims=True)
        bounced = v - 2.0 * np.einsum("ij,ij->i", v, n)[:, None] * n
        v = np.where(moving[:, None], bounced, v)


def _distinct_cell_ratio(points, delta, pieces=64):
    """Distinct delta-cells the closed curve hits, over the sum per piece.

    A curve whose image is traced once reads ~1; one that retraces its
    image twice reads ~0.5.
    """
    cells = np.floor(points / delta).astype(np.int64)
    keys = cells[:, 0] * (1 << 32) + cells[:, 1]
    with_multiplicity = sum(len(np.unique(k)) for k in np.array_split(keys, pieces))
    return len(np.unique(keys)) / with_multiplicity


def test_disk_front_length_and_image_from_independent_stepper():
    """The 2*arcsin(|P|) rate of criterion 6 is the length of one traversal.

    A reflection stepper written here reproduces ``front_length``, and a
    raster of its image shows the front does not retrace itself, so the
    immersed and embedded lengths agree.
    """
    r, t = 0.5, 20.0
    front = propagate(init_front(parse_surface("disk:1"), (r, 0.0)), t)
    immersed = front_length(front)
    thetas = np.linspace(0.0, 2.0 * math.pi, 1 << 18, endpoint=False)
    points = _unit_disk_rays((r, 0.0), thetas, t)
    closed = np.vstack([points, points[:1]])
    stepper_length = float(np.hypot(*np.diff(closed, axis=0).T).sum())
    assert abs(stepper_length - immersed) <= 2e-3 * immersed
    # the same measure reads a double traversal as one half
    assert _distinct_cell_ratio(np.vstack([points, points]), 5e-4) <= 0.55
    image_length = _distinct_cell_ratio(points, 5e-4) * stepper_length
    assert image_length >= 0.9 * immersed


def test_criterion_07_cube_disconnection(criterion):
    surf = parse_surface("cube:1")
    front = init_front(
        surf, CubePoint("U", 0.5, 0.5), params=PropagationParams(h_max=0.005)
    )
    counts = {}
    seq = []
    for t in (0.5, 0.75, 1.0, 1.25, 1.5):
        front = propagate(front, t)
        counts[t] = component_count(front)
        seq.append(counts[t])
    ok = counts[0.5] == 1 and counts[1.0] == 4
    ok = ok and all(a <= b for a, b in zip(seq, seq[1:]))
    assert criterion(
        7, ok, f"components 1 at t=0.5, {counts[1.0]} at t=1, sequence {seq}"
    )


def _visible_vertices(a, b, den, t):
    """Exact list of the developed cube vertices that rays from the chart
    point (a, b) / den of a unit cube reach before time t, as offsets
    (x, y) / den from the source.

    In the source chart the vertices develop to the integer lattice, and a
    ray dies at the first one on its line.  A lattice point at offset
    (x, y) / den from the source, g = gcd(x, y), is hidden when a lattice
    point sits at m / g of the way for some m in 1..g-1, that is when
    m * x / g = -a and m * y / g = -b (mod den); the least such m is at
    most den.  Also returns the lattice points within 1e-6 of distance t.
    """
    r = round(t * den)
    assert r == t * den
    visible, near = [], []
    for i in range(-math.ceil(t) - 1, math.ceil(t) + 2):
        for j in range(-math.ceil(t) - 1, math.ceil(t) + 2):
            x, y = i * den - a, j * den - b
            if abs(math.hypot(x, y) / den - t) <= 1e-6:
                near.append((i, j))
            if x * x + y * y >= r * r:
                continue
            g = math.gcd(x, y)
            if not any((a + m * x // g) % den == 0 and (b + m * y // g) % den == 0
                       for m in range(1, min(g, den + 1))):
                visible.append((x, y))
    return visible, near


def _least_angle(offsets):
    """Least angle between the directions of two offsets (inf for fewer than two)."""
    angles = sorted(math.atan2(y, x) for x, y in offsets)
    if len(angles) < 2:
        return math.inf
    gaps = [q - p for p, q in zip(angles, angles[1:])]
    return min(gaps + [angles[0] + 2 * math.pi - angles[-1]])


_CUBE_SOURCES = [("U", 31, 47, 100), ("F", 13, 77, 100), ("U", 1, 1, 2),
                 ("L", 20, 35, 100), ("D", 1, 3, 4)]
_CUBE_TIMES = (0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0)


@pytest.fixture(scope="module")
def cube_fronts():
    """Unit-cube fronts from the chart points (a, b) / den of _CUBE_SOURCES,
    keyed (face, a, b, den, t), each source propagated once through _CUBE_TIMES
    with the default parameters (about 1 s per source to t = 20)."""
    fronts = {}
    for face, a, b, den in _CUBE_SOURCES:
        front = init_front(parse_surface("cube:1"), CubePoint(face, a / den, b / den))
        for t in _CUBE_TIMES:
            front = propagate(front, t)
            fronts[face, a, b, den, t] = front
    return fronts


@pytest.mark.parametrize("face,a,b,den", _CUBE_SOURCES)
def test_cube_components_are_the_visible_vertices(cube_fronts, face, a, b, den):
    # one component per visible vertex; a front that has met none is one arc
    for t in _CUBE_TIMES:
        visible, near = _visible_vertices(a, b, den, t)
        assert near == [], t  # no vertex so close to distance t that CORNER_TOL could decide it
        # nor two visible vertices so nearly collinear with the source
        assert _least_angle(visible) >= 1e-5, t
        assert component_count(cube_fronts[face, a, b, den, t]) == max(1, len(visible)), t


@pytest.mark.parametrize("face,a,b,den", _CUBE_SOURCES[:2])
def test_cube_covering_radius_within_the_torus_bound(cube_fronts, face, a, b, den):
    """The paper proves that fronts become dense on the cube, by unfolding
    to the torus; it proves no rate.  This checks the torus rate of
    criterion 1, 3/sqrt(t), as an observation on two sources.  Covering
    radii below one side length are exact: the nearest-sample clouds hold
    every face one or two edges away.  The radius need not fall at every
    step (F/0.13/0.77 rises from t = 10 to t = 15)."""
    times = (5.0, 10.0, 15.0, 20.0)
    reports = [density_report(cube_fronts[face, a, b, den, t], 0.05) for t in times]
    for t, report in zip(times[1:], reports[1:]):
        assert report.covering_radius <= 3.0 / math.sqrt(t), t
        assert report.covering_radius < 1.0, t
    hit = [report.cells_hit / report.cells_total for report in reports]
    assert all(p < q for p, q in zip(hit, hit[1:])), hit
    assert reports[3].covering_radius < reports[1].covering_radius


def test_cube_density_report_memory(cube_fronts):
    """The nearest-sample index is built one chart at a time, and its
    second pass indexes only the developed samples within the chart's
    largest first answer, so the covering radius of a 90,691-sample cube
    front at t = 20 holds 5.1 MB of numpy arrays above what was held before,
    against 14 MB for one whole developed chart cloud and its index and 53
    MB when the six were built together.  10 MB leaves room for numpy
    versions and fails if a whole developed cloud is indexed again."""
    front = cube_fronts["U", 31, 47, 100, 20.0]
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        density_report(front, 0.05)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def test_torus_doubling_step_memory():
    """The walk's step from t = 100 to 125 on the README torus doubles the
    front (130,945 -> 261,889 samples) and measures it at eps = 0.02.  With
    the first refinement round reading the batch by index, the merge
    freeing each input column once merged and int32 cell keys, the step
    holds 1.68 times the new front's column bytes above what was held; it
    held 2.29 times with full-row copies of every pending gap, a merge that
    kept its inputs and int64 keys.  The bound is 2.0 times."""
    parent = propagate(init_front(parse_surface("torus:1,1"), (0.37, 0.61)), 100.0)
    assert parent.sample_count == 130_945
    sizes = []

    def measure(front):
        sizes.append((front.sample_count,
                      sum(getattr(front, f.name).nbytes for f in fields(GeodesicBatch))))
        return density_report(front, 0.02)

    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        list(fronts(parent, [125.0], measure))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    [(count, column_bytes)] = sizes
    assert count == 261_889
    assert peak < 2.0 * column_bytes, peak / column_bytes


def test_criterion_08_gauss_circle_oracle(criterion):
    # independent enumeration: one presorted table of all squared norms
    grid = np.arange(-200, 201, dtype=np.int64)
    norms = np.sort((grid[:, None] ** 2 + grid[None, :] ** 2).ravel())
    ok = gauss_count(5.0) == 81
    for t in range(1, 201):
        dual = int(np.searchsorted(norms, t * t, side="right"))
        ok = ok and gauss_count(float(t)) == dual
        ok = ok and abs(error_term(float(t))) <= math.sqrt(2.0) * 2.0 * math.pi * t
    devs = []
    for t in (25.0, 100.0):
        count, _ = annulus_count(t, 1.0 / math.sqrt(t))
        dev = abs(count - 2.0 * math.pi * math.sqrt(t))
        devs.append(f"t={t:g}: |{count} - 2*pi*sqrt(t)| = {dev:.2f}")
        ok = ok and dev <= 10.0 * t ** (1.0 / 6.0)
    assert criterion(
        8, ok, "N(5)=81, dual enumeration agrees to t=200; " + "; ".join(devs)
    )


def test_criterion_09_oracle_simulator_agreement(criterion):
    rng = np.random.default_rng(3)
    t_list = np.sort(rng.uniform(1.0, 100.0, size=20))
    surf = parse_surface("torus:1,1")
    front = init_front(surf, (0.0, 0.0), params=PropagationParams(h_max=0.005))
    worst = 0.0
    for t in t_list:
        front = propagate(front, float(t))
        pos = front.pos[front.alive]
        dx = np.minimum(pos[:, 0], 1.0 - pos[:, 0])
        dy = np.minimum(pos[:, 1], 1.0 - pos[:, 1])
        measured = float(np.min(np.hypot(dx, dy)))
        predicted = wavefront_return_oracle(float(t), 1.0 / math.sqrt(t))
        worst = max(worst, abs(measured - predicted))
    ok = worst <= 0.005
    assert criterion(
        9, ok, f"worst |measured - predicted| return distance {worst:.2e}"
    )


def test_criterion_10_determinism(criterion, capsys):
    """Byte-identical artifacts across reruns."""

    def snapshot_bytes():
        surf = parse_surface("cube:1")
        front = propagate(init_front(surf, CubePoint("U", 0.5, 0.5)), 1.0)
        return emit_snapshot(front), render_svg(front)

    def density_csv():
        surf = parse_surface("torus:1,1")
        front = init_front(surf, (0.2, 0.3))
        rows = []
        for t in (2.0, 4.0):
            front = propagate(front, t)
            rows.append(density_report(front, 0.05))
        return cli.density_csv(rows)

    def verify_table():
        assert cli.run(["verify-theorem1", "--t-grid", "10:40:15"]) == 0
        return capsys.readouterr().out

    snap1, svg1 = snapshot_bytes()
    csv1 = density_csv()
    table1 = verify_table()
    snap2, svg2 = snapshot_bytes()
    csv2 = density_csv()
    table2 = verify_table()
    ok = snap1 == snap2 and svg1 == svg2 and csv1 == csv2 and table1 == table2
    assert criterion(
        10,
        ok,
        f"snapshot {len(snap1)} B, svg {len(svg1)} B, csv and verify table "
        "identical across reruns",
    )
