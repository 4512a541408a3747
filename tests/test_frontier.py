"""Front propagation, refinement, splitting and length accounting.

Component counts on the cube come from the planar unfolding picture: from
a face center the four nearest vertices sit at intrinsic distance sqrt(.5),
so the circle of directions tears into 4 arcs once t passes that radius
and stays 4-torn until the next vertex ring (beyond t = 1.5).
"""

import gc
import hashlib
import math
import weakref
from dataclasses import fields

import numpy as np
import pytest

import wavefront.frontier as frontier
from wavefront import (
    ArcInterval,
    CubePoint,
    CubeSurface,
    DiskBilliard,
    KleinBottle,
    NumericalFailureError,
    PreconditionError,
    PropagationParams,
    RectBilliard,
    Torus,
    component_count,
    component_lengths,
    default_params,
    front_length,
    init_front,
    propagate,
    surface_distance,
)
from wavefront.frontier import (
    FULL_CIRCLE,
    THETA_MIN,
    Front,
    FrontComponent,
    _assemble_components,
    _merge,
    _needs_bisection,
    _owning_parents,
    _pair_needs_bisection,
    _refine,
    _Rows,
    _sheets_match,
    _unwitnessed_tears,
)
from wavefront.io import emit_snapshot, parse_snapshot
from wavefront.surfaces import FACE_INDEX, GeodesicBatch, evaluate_batch

TWO_PI = 2.0 * math.pi


def test_init_front_time_zero():
    f = init_front(Torus(1.0, 1.0), (0.0, 0.0), n0=8)
    assert f.t == 0.0
    assert f.sample_count == 8
    assert len(f.components) == 1
    assert np.allclose(f.pos, 0.0)


def test_time_grid_is_inclusive_and_budgeted(monkeypatch):
    assert frontier.time_grid(2.5, 2.5, 1.0) == [2.5]
    # 0.9 / 0.3 rounds above 3: the end point counts, rounded to 3 * 0.3
    assert frontier.time_grid(0.0, 0.9, 0.3) == [0.0, 0.3, 0.6, 0.8999999999999999]
    monkeypatch.setattr(frontier, "TIME_GRID_BUDGET", 4)
    assert len(frontier.time_grid(0.0, 0.9, 0.3)) == 4
    monkeypatch.setattr(frontier, "TIME_GRID_BUDGET", 3)
    with pytest.raises(NumericalFailureError, match="TIME_GRID_BUDGET=3"):
        frontier.time_grid(0.0, 0.9, 0.3)


def test_init_front_equal_spacing_on_arc():
    f = init_front(Torus(1.0, 1.0), (0.5, 0.5), arc=ArcInterval(0.0, math.pi), n0=4)
    assert np.allclose(f.thetas, [0.0, math.pi / 3, 2 * math.pi / 3, math.pi])


def test_init_front_rejects_bad_input():
    with pytest.raises(PreconditionError):
        init_front(Torus(1.0, 1.0), (0.0, 0.0), n0=3)
    with pytest.raises(PreconditionError):
        init_front(CubeSurface(1.0), CubePoint("U", 0.0, 0.0))


def test_propagate_backwards_rejected():
    f = propagate(init_front(Torus(1.0, 1.0), (0.2, 0.3)), 2.0)
    with pytest.raises(PreconditionError):
        propagate(f, 1.0)


def test_small_circle_before_wrap():
    # below the injectivity radius the front is the round circle of radius t
    tor = Torus(1.0, 1.0)
    f = propagate(init_front(tor, (0.5, 0.5)), 0.25)
    assert component_count(f) == 1
    for i in np.nonzero(f.alive)[0][::50]:
        d = surface_distance(tor, (0.5, 0.5), (f.pos[i, 0], f.pos[i, 1]))
        assert d == pytest.approx(0.25, abs=1e-9)


def test_resolution_contract_on_torus():
    tor = Torus(1.0, 1.0)
    f = propagate(init_front(tor, (0.37, 0.61)), 10.0)
    gaps = np.diff(f.cover, axis=0)
    chord = np.hypot(gaps[:, 0], gaps[:, 1])
    assert float(chord.max()) <= f.params.h_max + 1e-12


def test_theta_order_strictly_increasing():
    f = propagate(init_front(KleinBottle(), (0.25, 0.5)), 8.0)
    assert np.all(np.diff(f.thetas) > 0)


def test_front_length_examples():
    tor = Torus(1.0, 1.0)
    f = propagate(
        init_front(tor, (0.0, 0.0), params=PropagationParams(h_max=0.01)), 10.0
    )
    assert front_length(f) == pytest.approx(TWO_PI * 10, rel=1e-3)
    assert front_length(f) <= TWO_PI * 10  # inscribed polyline never exceeds

    disk = DiskBilliard(1.0)
    g = propagate(init_front(disk, (0.0, 0.0)), 1.0)
    assert front_length(g) == pytest.approx(TWO_PI, rel=1e-3)

    assert front_length(init_front(tor, (0.2, 0.2))) == 0.0


def test_disk_center_collapses_at_diameter():
    # radial Wiederkehr: at t = 2R every direction is back at the center
    f = propagate(init_front(DiskBilliard(1.0), (0.0, 0.0)), 2.0)
    assert component_count(f) == 1
    assert float(np.abs(f.pos).max()) <= f.params.h_max


def test_flat_length_law_ratio():
    for surface, src in [
        (Torus(1.0, 1.0), (0.2, 0.3)),
        (KleinBottle(), (0.25, 0.5)),
        (RectBilliard(1.0, 1.0), (0.3, 0.7)),
    ]:
        f = propagate(init_front(surface, src), 10.0)
        ratio = front_length(f) / (TWO_PI * 10.0)
        assert 0.999 <= ratio <= 1.0, surface


def test_length_grows_under_refinement():
    tor = Torus(1.0, 1.0)
    coarse = propagate(
        init_front(tor, (0.1, 0.2), params=PropagationParams(h_max=0.02)), 10.0
    )
    fine = propagate(
        init_front(tor, (0.1, 0.2), params=PropagationParams(h_max=0.01)), 10.0
    )
    assert front_length(fine) >= front_length(coarse)


def test_single_component_on_continuous_surfaces():
    for surface, src, arc in [
        (Torus(2.0, 1.0), (0.2, 0.3), FULL_CIRCLE),
        (KleinBottle(), (0.7, 0.1), FULL_CIRCLE),
        (RectBilliard(1.0, 1.0), (0.3, 0.7), FULL_CIRCLE),
        (DiskBilliard(1.0), (0.5, 0.0), FULL_CIRCLE),
        (Torus(1.0, 1.0), (0.2, 0.3), ArcInterval(0.3, 2.9)),
    ]:
        f = propagate(init_front(surface, src, arc=arc), 7.0)
        assert component_count(f) == 1, surface
        (comp,) = f.components
        assert comp.interval == f.arc
        assert comp.split_time == 0.0
        assert comp.segments == ((0, f.sample_count),)


def test_cube_component_counts_face_center():
    cube = CubeSurface(1.0)
    src = CubePoint("F", 0.5, 0.5)
    counts = []
    for t in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5):
        counts.append(component_count(propagate(init_front(cube, src), t)))
    assert counts == [1, 1, 4, 4, 4, 4]


def test_cube_split_times_are_corner_distances():
    # face-center tears happen exactly when the front reaches the four
    # nearest vertices, at distance sqrt(0.5)
    f = propagate(init_front(CubeSurface(1.0), CubePoint("F", 0.5, 0.5)), 1.0)
    for comp in f.components:
        if comp.live_sample_count >= 2:
            assert comp.split_time == pytest.approx(math.sqrt(0.5), abs=1e-9)


def test_cube_two_hop_matches_direct():
    cube = CubeSurface(1.0)
    src = CubePoint("F", 0.5, 0.5)
    direct = propagate(init_front(cube, src), 1.0)
    hopped = propagate(propagate(init_front(cube, src), 0.5), 1.0)
    assert component_count(direct) == component_count(hopped) == 4
    assert front_length(hopped) == pytest.approx(front_length(direct), rel=1e-6)


def test_cube_dead_directions():
    f = propagate(init_front(CubeSurface(1.0), CubePoint("F", 0.5, 0.5)), 1.0)
    dead = f.dead_directions
    assert len(dead) >= 4
    for theta, death in dead:
        assert 0.0 <= theta <= TWO_PI
        assert 0.0 < death <= 1.0
    # dead directions are excluded from every component
    dead_idx = set(np.nonzero(~f.alive)[0].tolist())
    for comp in f.components:
        assert dead_idx.isdisjoint(comp.sample_indices.tolist())


def test_component_intervals_tile_the_arc():
    f = propagate(init_front(CubeSurface(1.0), CubePoint("F", 0.23, 0.61)), 2.0)
    comps = sorted(f.components, key=lambda c: c.interval.theta_lo)
    for a, b in zip(comps, comps[1:]):
        assert a.interval.theta_hi <= b.interval.theta_lo + 1e-12
    los = [c.interval.theta_lo for c in comps]
    assert los[0] >= 0.0
    assert max(c.interval.theta_hi for c in comps) <= 2.0 * TWO_PI


def test_component_lengths_sum_to_front_length():
    f = propagate(init_front(CubeSurface(1.0), CubePoint("F", 0.5, 0.5)), 1.2)
    parts = component_lengths(f)
    assert len(parts) == len(f.components)
    assert sum(parts) == pytest.approx(front_length(f), abs=1e-12)


def test_arc_restricted_front():
    tor = Torus(1.0, 1.0)
    arc = ArcInterval(0.0, math.pi)
    f = propagate(init_front(tor, (0.2, 0.3), arc=arc), 5.0)
    assert f.arc == arc
    assert f.thetas[0] == 0.0 and f.thetas[-1] == math.pi
    # a half arc carries half the immersed length
    assert front_length(f) == pytest.approx(math.pi * 5.0, rel=1e-3)


def test_propagation_is_deterministic():
    cube = CubeSurface(1.0)
    src = CubePoint("F", 0.23, 0.61)
    f1 = propagate(init_front(cube, src), 3.0)
    f2 = propagate(init_front(cube, src), 3.0)
    assert np.array_equal(f1.thetas, f2.thetas)
    assert np.array_equal(f1.pos, f2.pos)
    assert np.array_equal(f1.death_time, f2.death_time)
    assert [c.interval for c in f1.components] == [c.interval for c in f2.components]


def test_sample_budget_enforced(monkeypatch):
    monkeypatch.setattr(frontier, "SAMPLE_BUDGET", 10_000)
    f = init_front(Torus(1.0, 1.0), (0.2, 0.3), params=PropagationParams(h_max=0.005))
    with pytest.raises(NumericalFailureError):
        propagate(f, 50.0)


def _refine_by_rounds(surface, source, tt, thetas, params):
    """Reference refinement: every round re-tests all adjacent pairs and
    inserts that round's midpoints into each column, ``thetas`` included,
    with np.insert.  It evaluates and reads its budget through the frontier
    module, as ``_refine`` does."""
    batch = frontier.evaluate_batch(surface, source, thetas, tt)
    while True:
        idx = np.nonzero(_needs_bisection(surface, tt, batch, params))[0]
        if idx.size == 0:
            return batch
        thetas = batch.thetas
        if thetas.size + idx.size > frontier.SAMPLE_BUDGET:
            j = int(idx[0])
            raise NumericalFailureError(
                f"sample budget {frontier.SAMPLE_BUDGET} exceeded while refining "
                f"near theta in [{float(thetas[j])!r}, {float(thetas[j + 1])!r}] "
                f"at t={float(tt)!r}"
            )
        mids = 0.5 * (thetas[idx] + thetas[idx + 1])
        mid_batch = frontier.evaluate_batch(surface, source, mids, tt)
        batch = GeodesicBatch(**{
            name: None if col is None
            else np.insert(col, idx + 1, getattr(mid_batch, name), axis=0)
            for name, col in vars(batch).items()
        })


def _refine_both(monkeypatch, surface, source, thetas, tt, params):
    """Run both refinements of ``thetas`` at ``tt``; returns each one's
    result and the sizes of its evaluation calls."""
    out = []
    for refine in (_refine, _refine_by_rounds):
        sizes = []

        def counted(surface, source, thetas, t, *walk):
            sizes.append(thetas.size)
            return evaluate_batch(surface, source, thetas, t, *walk)

        monkeypatch.setattr(frontier, "evaluate_batch", counted)
        try:
            out.append((refine(surface, source, tt, thetas, params), sizes))
        finally:
            monkeypatch.undo()
    return out


_REFINE_CASES = [
    # cube fronts with tears, from a face center and from a generic point
    (CubeSurface(1.0), CubePoint("F", 0.5, 0.5), FULL_CIRCLE, (1.0, 2.5)),
    (CubeSurface(1.0), CubePoint("U", 0.23, 0.61), FULL_CIRCLE, (3.0,)),
    # the disk's reflection kinks, and a disk front through the center
    (DiskBilliard(1.0), (0.4, 0.1), FULL_CIRCLE, (2.0, 5.0)),
    (DiskBilliard(1.0), (0.0, 0.0), FULL_CIRCLE, (2.0,)),
    # partial arcs
    (Torus(1.0, 1.0), (0.2, 0.3), ArcInterval(0.3, 2.9), (4.0, 9.0)),
    (CubeSurface(2.0), CubePoint("D", 0.7, 1.1), ArcInterval(1.0, 2.5), (4.0,)),
    (KleinBottle(), (0.25, 0.5), FULL_CIRCLE, (3.0, 6.0)),
    (RectBilliard(1.0, 2.0), (0.3, 0.7), FULL_CIRCLE, (5.0,)),
    # a front that needs no bisection
    (Torus(1.0, 1.0), (0.2, 0.3), FULL_CIRCLE, (1e-3,)),
]


@pytest.mark.parametrize("surface,source,arc,times", _REFINE_CASES)
def test_refine_matches_round_by_round_insertion(monkeypatch, surface, source, arc, times):
    front = init_front(surface, source, arc=arc)
    source, params, thetas = front.source, front.params, front.thetas
    for tt in times:
        (batch, sizes), (ref_batch, ref_sizes) = _refine_both(
            monkeypatch, surface, source, thetas, tt, params
        )
        thetas = batch.thetas
        # the same rays, evaluated in the same rounds
        assert sizes == ref_sizes, (surface, tt)
        assert thetas.tobytes() == ref_batch.thetas.tobytes()
        for name, col in vars(ref_batch).items():
            got = getattr(batch, name)
            if col is None:
                assert got is None, name
            else:
                assert got.dtype == col.dtype and got.shape == col.shape, name
                assert got.tobytes() == col.tobytes(), name
    if times == (1e-3,):
        assert sizes == [front.thetas.size] and thetas.size == front.thetas.size


@pytest.mark.parametrize("surface,source,tt,budget", [
    (CubeSurface(1.0), CubePoint("F", 0.5, 0.5), 2.5, 1500),
    (CubeSurface(1.0), CubePoint("F", 0.5, 0.5), 2.5, 4000),
    (Torus(1.0, 1.0), (0.2, 0.3), 20.0, 10_000),
    (DiskBilliard(1.0), (0.4, 0.1), 20.0, 3000),
])
def test_refine_budget_error_matches_round_by_round(monkeypatch, surface, source, tt, budget):
    monkeypatch.setattr(frontier, "SAMPLE_BUDGET", budget)
    params = PropagationParams(h_max=0.005 * surface.min_extent)
    front = init_front(surface, source, params=params)
    messages = []
    for refine in (_refine, _refine_by_rounds):
        with pytest.raises(NumericalFailureError) as err:
            refine(surface, front.source, tt, front.thetas, params)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert f"sample budget {budget} exceeded" in messages[0]


def _refine_by_gather(surface, source, tt, batch, params):
    """Reference refinement by whole rows: the first round copies every
    column of both ends of every pending gap, later rounds pick whole
    rows, and the merge concatenates each column of the batch and every
    round's midpoints and gathers it in theta order.  Returns the refined
    batch and the number of rounds."""
    pending = np.flatnonzero(_needs_bisection(surface, tt, batch, params))
    lo, hi = batch.rows(pending), batch.rows(pending + 1)
    rounds = []
    while lo.thetas.size:
        mid = frontier.evaluate_batch(surface, source, 0.5 * (lo.thetas + hi.thetas), tt)
        rounds.append(mid)
        halves = np.column_stack((
            frontier._pair_needs_bisection(surface, tt, params, lo, mid),
            frontier._pair_needs_bisection(surface, tt, params, mid, hi),
        ))
        k = np.flatnonzero(halves)
        gap, upper = k >> 1, (k & 1).astype(bool)
        lo, hi = _pick_rows(upper, mid, lo, gap), _pick_rows(upper, hi, mid, gap)
    parts = [batch, *rounds]
    order = np.argsort(np.concatenate([b.thetas for b in parts]), kind="stable")
    return GeodesicBatch(**{name: np.concatenate([getattr(b, name) for b in parts])[order]
                            for name in vars(batch)}), len(rounds)


def _pick_rows(upper, when_upper, otherwise, gap):
    out = otherwise.rows(gap)
    for name, col in vars(out).items():
        col[upper] = getattr(when_upper, name)[gap[upper]]
    return out


@pytest.mark.parametrize("surface,source,tt", [
    # tears bisected over many rounds down to dead witness directions
    (CubeSurface(1.0), CubePoint("U", 0.5, 0.5), 1.0),
    # the disk's reflection kinks
    (DiskBilliard(1.0), (0.4, 0.1), 5.0),
    # a Klein front crossing the glide seam
    (KleinBottle(), (0.2, 0.3), 5.0),
])
def test_refine_matches_the_gather_merge_bitwise(surface, source, tt):
    front = init_front(surface, source)
    got = _refine(surface, front.source, tt, front.thetas, front.params)
    batch = evaluate_batch(surface, front.source, front.thetas, tt)
    want, rounds = _refine_by_gather(surface, front.source, tt, batch, front.params)
    assert rounds >= 3
    for name, col in vars(want).items():
        out = getattr(got, name)
        assert out.dtype == col.dtype and out.shape == col.shape, name
        assert out.tobytes() == col.tobytes(), name
    if isinstance(surface, CubeSurface):
        assert not got.alive.all()
    elif isinstance(surface, DiskBilliard):
        assert (np.diff(got.refl) != 0).any()
    else:  # adjacent samples on either side of the glide seam y = 0 ~ 1
        assert (np.abs(np.diff(got.pos[:, 1])) > 0.5).any()


def _columns(front):
    """Every ``GeodesicBatch`` column of a front as (dtype, shape, bytes), but
    ``walk``, the remaining walk that only ``fronts`` keeps."""
    return {f.name: (col.dtype, col.shape, col.tobytes())
            for f in fields(GeodesicBatch) if f.name != "walk"
            for col in [getattr(front, f.name)]}


@pytest.mark.parametrize("surface,source,times", [
    (Torus(1.0, 1.0), (0.2, 0.3), (1.0, 2.0, 3.0, 4.0)),
    (CubeSurface(1.0), CubePoint("U", 0.5, 0.5), (0.5, 0.75, 1.0, 1.25, 1.5, 1.75)),
])
def test_walk_drops_each_front_once_measured(monkeypatch, surface, source, times):
    """``fronts`` keeps only what ``propagate`` reads of a measured front, so
    the next front is built and measured without it: it is gone before
    the next step evaluates a single direction, collected by reference
    counting alone, with the cycle collector off.  Its fronts are those of
    propagation step by step, every column bit for bit: on the cube each
    step resumes its parent's rays while the parent kept their walk (for
    up to ``RESUME_TIMES`` next times) and walks from the source once it
    kept none.  A flat front keeps no walk."""
    refs, resumed = [], []

    def dropped():
        return [ref() for ref in refs] == [None] * len(refs)

    def evaluate(surface, source, thetas, t, later=(), start=None):
        assert dropped()
        if start is not None:
            resumed.append(t)
        return evaluate_batch(surface, source, thetas, t, later, start)

    def measure(front):
        assert dropped()
        refs.append(weakref.ref(front))
        return _components_digest(front), _columns(front), front.later

    monkeypatch.setattr(frontier, "evaluate_batch", evaluate)
    gc.disable()
    try:
        got = list(frontier.fronts(init_front(surface, source), times, measure))
    finally:
        gc.enable()
    monkeypatch.undo()
    front, want = init_front(surface, source), []
    for t in times:
        front = propagate(front, t)
        want.append((_components_digest(front), _columns(front)))
    assert [g[:2] for g in got] == want
    later = [g[2] for g in got]
    if isinstance(surface, CubeSurface):
        assert frontier.RESUME_TIMES == 3
        assert later == [times[1:4], times[2:4], times[3:4], (), times[5:], ()]
        assert resumed == [times[1], times[2], times[3], times[5]]
    else:
        assert later == [()] * len(times) and resumed == []
    if isinstance(surface, CubeSurface):  # 4 vertices at sqrt(1/2), 8 more at sqrt(5/2)
        assert len(front.components) == 12 and max(c.split_time for c in front.components) > 1.5


def test_batch_rows_take_every_column():
    idx = np.array([3, 0, 3])
    cases = ((Torus(1.0, 1.0), (0.2, 0.3)), (CubeSurface(1.0), CubePoint("U", 0.31, 0.47)))
    for surface, source in cases:
        front = propagate(init_front(surface, source), 2.0)
        batch = evaluate_batch(surface, front.source, front.thetas[:5], 2.0)
        rows = batch.rows(idx)
        for name, col in vars(batch).items():
            got = getattr(rows, name)
            assert got.dtype == col.dtype and got.tobytes() == col[idx].tobytes(), name
        assert rows.face.dtype == rows.group.dtype == np.uint8  # every surface has charts
        # a front gives a plain batch of its columns
        part = front.rows(slice(1, 4))
        assert type(part) is GeodesicBatch
        assert part.thetas.tobytes() == front.thetas[1:4].tobytes()


def _constant_columns(surface, n):
    """The columns a batch of ``n`` rows holds as zero-stride views, each
    as the materialized array it was before: every surface's ``refl`` but
    the disk's, and off the cube ``alive``, ``death_time``, ``group`` and
    ``face``."""
    cols = {} if isinstance(surface, DiskBilliard) else {"refl": np.zeros(n, dtype=np.int64)}
    if not isinstance(surface, CubeSurface):
        cols.update(alive=np.ones(n, dtype=bool), death_time=np.full(n, np.inf),
                    group=np.zeros(n, dtype=np.uint8), face=np.zeros(n, dtype=np.uint8))
    return cols


def _assert_constant_columns(surface, batch):
    n = batch.thetas.shape[0]
    for name, want in _constant_columns(surface, n).items():
        col = getattr(batch, name)
        assert col.strides == (0,) and not col.flags.writeable, name
        assert col.dtype == want.dtype and col.shape == want.shape, name
        assert col.tobytes() == want.tobytes(), name
        with pytest.raises(ValueError, match="read-only"):
            col[:1] = want[:1]
    for name in ("thetas", "pos", "cover"):  # what varies is held row by row
        assert getattr(batch, name).strides[0] != 0, name


_CONSTANT_CASES = [
    (Torus(1.0, 1.0), (0.37, 0.61)),
    (KleinBottle(), (0.2, 0.3)),
    (RectBilliard(1.0, 0.4), (0.3, 0.2)),
    (DiskBilliard(1.0), (0.4, 0.1)),
    (CubeSurface(1.0), CubePoint("U", 0.31, 0.47)),
]


@pytest.mark.parametrize("surface,source", _CONSTANT_CASES,
                         ids=["torus", "klein", "rect", "disk", "cube"])
def test_constant_columns_stay_zero_stride_views_through_a_walk(surface, source):
    """Every front of a walk whose steps double the front (each doubling
    step's columns go through ``_merge``) holds its constant columns as
    read-only zero-stride views, equal bit for bit to the arrays they
    replace; so does the snapshot it reads back as."""
    counts = []

    def measure(front):
        _assert_constant_columns(surface, front)
        counts.append(front.sample_count)
        return front.sample_count

    front = init_front(surface, source)
    _assert_constant_columns(surface, front)
    list(frontier.fronts(front, (0.5, 1.0, 2.0, 4.0, 8.0), measure))
    assert counts == sorted(counts) and counts[-1] > counts[1], counts
    if not isinstance(surface, DiskBilliard):  # the disk's fronts grow, not double
        assert any(b >= 2 * a - 1 for a, b in zip(counts, counts[1:])), counts
    _assert_constant_columns(surface, parse_snapshot(emit_snapshot(propagate(front, 3.0))))
    if isinstance(surface, DiskBilliard):  # reflection counts vary, row by row
        assert propagate(front, 3.0).refl.strides == (8,)


def test_merge_keeps_a_column_constant_only_where_every_part_is():
    """``_merge`` keeps a column a view where it is a zero-stride view of
    one value in every part, and otherwise writes every row, equal to a
    sort of the concatenated columns."""
    surface, source = Torus(1.0, 1.0), (0.37, 0.61)
    thetas = np.linspace(0.0, TWO_PI, 9)
    views = [evaluate_batch(surface, source, th, 2.0)
             for th in (thetas, 0.5 * (thetas[1:] + thetas[:-1]), thetas[:3] + 1e-3)]
    n = sum(b.thetas.size for b in views)
    order = np.argsort(np.concatenate([b.thetas for b in views]), kind="stable")

    def merged(batches):
        want = {name: np.concatenate([getattr(b, name) for b in batches])[order]
                for name in vars(batches[0])}
        return _merge([dict(vars(b)) for b in batches]), want

    got, want = merged(views)
    _assert_constant_columns(surface, got)
    for name, col in want.items():
        assert getattr(got, name).tobytes() == col.tobytes(), name
    # one part materialized, one part a view of another value
    mixed = [GeodesicBatch(**vars(b)) for b in views]
    mixed[1].face = np.zeros(mixed[1].thetas.size, dtype=np.uint8)
    mixed[2].alive = np.broadcast_to(False, mixed[2].thetas.shape)
    mixed[2].death_time = np.broadcast_to(-0.0, mixed[2].thetas.shape)  # not 0.0 bitwise
    mixed[0].death_time = np.broadcast_to(0.0, mixed[0].thetas.shape)
    mixed[1].death_time = np.broadcast_to(0.0, mixed[1].thetas.shape)
    got, want = merged(mixed)
    for name in ("face", "alive", "death_time"):
        col = getattr(got, name)
        assert col.strides == (col.itemsize,) and col.flags.writeable, name
    assert got.refl.strides == got.group.strides == (0,)
    for name, col in want.items():
        out = getattr(got, name)
        assert out.dtype == col.dtype and out.shape == col.shape == (n, *col.shape[1:]), name
        assert out.tobytes() == col.tobytes(), name


def _former_pair_needs_bisection(surface, tt, params, a, b):
    """``_pair_needs_bisection`` as it was written before it built its masks
    from 1-D column differences in place: the reference."""
    h = params.h_max
    alive_a, alive_b = a.alive, b.alive
    alive2 = alive_a & alive_b
    gap = b.thetas - a.thetas
    d = b.cover - a.cover
    chord = np.hypot(d[:, 0], d[:, 1])
    same = _sheets_match(a.sheet, b.sheet)
    need = ((same & (chord > h)) | ~same) & alive2
    kink = (a.refl != b.refl) & ((tt + surface.box[1]) * gap > h)
    need |= kink & alive2
    need |= alive_a ^ alive_b
    return need & (gap > THETA_MIN)


@pytest.mark.parametrize("surface,source,t,front_source", [
    (Torus(1.0, 1.0), (0.37, 0.61), 6.7e11, (0.37, 0.61)),
    (Torus(2.0, 0.5), (-7.3e5, 2.1e6), 25.0, (0.2, 0.3)),  # a source far from the box
    (KleinBottle(), (0.2, 0.3), 6.7e11, (0.2, 0.3)),
    (KleinBottle(), (0.0, 1.0), 3.0, (0.0, 1.0)),
    (RectBilliard(1.0, 0.4), (0.3, 0.2), 1e4, (0.3, 0.2)),
    (DiskBilliard(1.0), (0.4, 0.1), 5.0, (0.4, 0.1)),
    (DiskBilliard(1.0), (0.4, 0.1), 6.7e11, (0.4, 0.1)),
    (CubeSurface(1.0), CubePoint("U", 0.5, 0.5), 1.0, CubePoint("U", 0.5, 0.5)),
    (CubeSurface(2.5), CubePoint("F", 0.3, 1.1), 7.0, CubePoint("F", 0.3, 1.1)),
], ids=["torus-late", "torus-far", "klein-late", "klein-corner", "rect", "disk",
        "disk-late", "cube", "cube-side"])
def test_pair_test_matches_the_former_expressions_bitwise(surface, source, t, front_source):
    """On adjacent rows (views, as ``_needs_bisection`` passes them), on
    random rows (plain batches) and on rows read by index (``_Rows``),
    with directions that include +-0.0, repeats, gaps of about THETA_MIN
    and the directions of a front refined from ``front_source`` to t or
    t = 7 (on the cube, dead witnesses), and three values of h_max."""
    rng = np.random.default_rng(29)
    thetas = np.concatenate([
        rng.uniform(0.0, TWO_PI, 3000),
        [0.0, -0.0, 0.0, 1e-13, 2e-12, math.pi, math.pi, TWO_PI, TWO_PI],
        np.cumsum(rng.uniform(0.0, 3e-12, 50)) + 1.0,
        propagate(init_front(surface, front_source), min(t, 7.0)).thetas,
    ])
    thetas.sort(kind="stable")
    batch = evaluate_batch(surface, source, thetas, t)
    i, j = rng.integers(0, thetas.size, (2, 4000))
    pairs = [
        (batch.rows(slice(None, -1)), batch.rows(slice(1, None))),
        (batch.rows(i), batch.rows(j)),
        (_Rows(batch, i), _Rows(batch, j)),
    ]
    outcomes = set()
    for h in (1e-4, 0.05, 2.0):
        params = PropagationParams(h * surface.min_extent)
        for a, b in pairs:
            got = _pair_needs_bisection(surface, t, params, a, b)
            want = _former_pair_needs_bisection(surface, t, params, a, b)
            assert got.dtype == want.dtype == bool and got.shape == want.shape
            assert np.array_equal(got, want)
            outcomes.update(got.tolist())
    assert outcomes == {False, True}
    if isinstance(surface, CubeSurface):
        assert not batch.alive.all() and not _sheets_match(batch.sheet[i], batch.sheet[j]).all()
    if isinstance(surface, DiskBilliard):
        assert (batch.refl[i] != batch.refl[j]).any()


def test_sheets_match_is_row_wise_on_every_width():
    planar = np.empty((3, 0), dtype=np.uint64)
    same = _sheets_match(planar, planar.copy())
    assert same.shape == (3,) and same.all()
    # on the cube, the hash and the length column each break the match
    sa = np.array([[7, 1], [7, 1], [7, 1]], dtype=np.uint64)
    sb = np.array([[7, 1], [8, 1], [7, 2]], dtype=np.uint64)
    assert _sheets_match(sa, sb).tolist() == [True, False, False]


def test_full_circle_constant():
    assert FULL_CIRCLE.theta_lo == 0.0
    assert FULL_CIRCLE.theta_hi == TWO_PI
    with pytest.raises(PreconditionError):
        ArcInterval(1.0, 0.5)


# --- parent lookup -------------------------------------------------------------


def _scan_parent(parents, theta):
    """Reference rule: linear scan over the parents and the shifts 0, +-2*pi."""
    if not parents:
        return None
    best, best_gap = None, math.inf
    for p in parents:
        lo, hi = p.interval.theta_lo, p.interval.theta_hi
        for shift in (0.0, TWO_PI, -TWO_PI):
            th = theta + shift
            if lo <= th <= hi:
                return p
            gap = min(abs(th - lo), abs(th - hi))
            if gap < best_gap:
                best, best_gap = p, gap
    return best


def test_parent_lookup_matches_scan_on_cube_propagation():
    # each step's children, from the initial front on, find the parent that
    # the interval scan finds for their first direction
    cases = [
        (("U", 0.31, 0.47), FULL_CIRCLE, (5.0, 10.0), (80, 316)),
        (("F", 0.5, 0.5), FULL_CIRCLE, (1.0, 2.5, 4.0), (4, 12, 44)),
        (("L", 0.13, 0.71), FULL_CIRCLE, (2.0, 4.0, 6.0), (12, 51, 109)),
        (("U", 0.5, 0.5), ArcInterval(0.3, 2.9), (0.5, 1.0, 1.5, 2.0, 3.0), (1, 3, 3, 7, 13)),
    ]
    for source, arc, times, counts in cases:
        front = init_front(CubeSurface(1.0), CubePoint(*source), arc=arc)
        for t, count in zip(times, counts):
            child = propagate(front, t)
            assert len(child.components) == count
            firsts = child.thetas[[c.segments[0][0] for c in child.components]]
            found = _owning_parents(front.thetas, front.components, firsts)
            for theta, parent in zip(firsts.tolist(), found):
                assert parent is _scan_parent(front.components, theta), theta
            front = child


# --- component assembly --------------------------------------------------------


def _scan_segments(alive, tear, full_circle):
    """Reference rule: the per-sample run loop, then the wrap-around join."""
    n = alive.shape[0]
    sever = ~alive[:-1] | ~alive[1:] | tear
    runs, start = [], None
    for i in range(n):
        if alive[i] and start is None:
            start = i
        if start is not None:
            end_here = (i == n - 1) or sever[i] or not alive[i]
            if not alive[i]:
                runs.append((start, i))
                start = None
            elif end_here:
                runs.append((start, i + 1))
                start = None
    segments = [(run,) for run in runs]
    if (full_circle and len(runs) >= 2 and runs[0][0] == 0 and runs[-1][1] == n
            and alive[0] and alive[-1]):
        segments = segments[1:-1] + [(runs[-1], runs[0])]
    return segments


def test_component_runs_match_scan_on_cube_propagation():
    cube = CubeSurface(1.0)
    parent_front = propagate(init_front(cube, CubePoint("U", 0.31, 0.47)), 5.0)
    f = propagate(parent_front, 10.0)
    tear = _unwitnessed_tears(f, f.params, cube)
    expected = _scan_segments(f.alive, tear, f.arc.is_full_circle)
    assert [c.segments for c in f.components] == expected
    assert any(len(s) == 2 for s in expected)  # the wrap join is exercised


def _cross_sheet_pair(gap):
    """Two live cube samples less than THETA_MIN apart on different
    development sheets, ``gap`` apart on the surface but far apart in the
    development."""
    cube = CubeSurface(1.0)
    params = default_params(cube)
    thetas = np.array([1.0, 1.0 + 2.0**-40])
    batch = GeodesicBatch(
        thetas=thetas,
        pos=np.array([[0.5, 0.5], [0.5, 0.5 + gap]]),
        cover=np.array([[0.0, 0.0], [5.0, 5.0]]),
        alive=np.ones(2, dtype=bool),
        death_time=np.full(2, np.inf),
        refl=np.zeros(2, dtype=np.int64),
        group=np.zeros(2, dtype=np.int64),
        face=np.full(2, FACE_INDEX["U"]),
        sheet=np.array([[7, 1], [8, 1]], dtype=np.int64),
        walk=np.empty((2, 0)),
    )
    arc = ArcInterval(0.0, 2.0)
    parent = FrontComponent(interval=arc, split_time=0.25, segments=((0, 2),))
    comps = _assemble_components(cube, arc, 3.0, batch, params, thetas, [parent])
    front = Front(surface=cube, source=CubePoint("U", 0.5, 0.5), t=3.0, arc=arc,
                  params=params, components=comps, **vars(batch))
    return cube, params, batch, front


def test_cross_sheet_pair_farther_than_h_max_tears():
    cube, params, batch, f = _cross_sheet_pair(0.05)
    assert _unwitnessed_tears(batch, params, cube).tolist() == [True]
    assert [c.segments for c in f.components] == [((0, 1),), ((1, 2),)]
    assert [c.segments for c in f.components] == _scan_segments(
        f.alive, np.array([True]), False)
    # no witness died: the new boundary is timed at the step's own time
    assert [c.split_time for c in f.components] == [3.0, 3.0]
    assert component_lengths(f) == [0.0, 0.0]


def test_cross_sheet_pair_within_h_max_is_measured_on_the_surface():
    cube, params, batch, f = _cross_sheet_pair(0.004)
    assert _unwitnessed_tears(batch, params, cube).tolist() == [False]
    (comp,) = f.components
    assert comp.segments == ((0, 2),) and comp.split_time == 0.25
    # the development chord (5*sqrt(2)) spans two sheets and is not used
    ends = CubePoint("U", 0.5, 0.5), CubePoint("U", 0.5, 0.5 + 0.004)
    d = surface_distance(cube, *ends)
    assert component_lengths(f) == [d]
    assert d == pytest.approx(0.004, abs=1e-12)


# --- split times across steps ------------------------------------------------


def _components_digest(front):
    """sha256 of every component's interval, split time and index runs."""
    rows = [
        (c.interval.theta_lo.hex(), c.interval.theta_hi.hex(), c.split_time.hex(), c.segments)
        for c in front.components
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# one digest per front: a full-circle cube front through three steps, the t = 10
# front read back from its snapshot and stepped once more, and a partial arc
# stepped across the first two vertex rings
_PINNED_SPLITS = {
    "full t=5": "01c98d6a3911b3f3bf11655b7c33628ddc7b63cccc4157d86859a7afc739cfdd",
    "full t=10": "ee1ab5da0c45e68a4838d0d9465096df6e44215e37fd5ee6c02a6f8fe80336cf",
    "full t=15": "49d455b3fc3ab5c35af8a090fec23de92755e8219607d06ed3625cca37dd96cd",
    "parsed t=10 -> 10.5": "19522ff7ca8de69ae76860ed408916ba1ab5398ba060d3b4b4829418812d779b",
    "arc t=0.5": "f8a272db5be7318129468ee83c18467add2e5ffb021ba0f77bc50acb685f1659",
    "arc t=1": "c7aefafe9bbb5ec0fdbdbbfd09458666a4e3c110f6ed9e64dfcb5987de89f254",
    "arc t=1.5": "1e52f2aeb2b6e45a24505f4597b07ca691b7cf9e798ac3db9ea1798faf2f46a0",
    "arc t=2": "53bfd99662f4647aaf68d8271af26ce6e68901ee2a89ab50b1418a28b8293e0f",
}


def test_split_times_pinned_across_steps():
    cube = CubeSurface(1.0)
    got = {}
    front = init_front(cube, CubePoint("U", 0.31, 0.47))
    for t in (5.0, 10.0, 15.0):
        front = propagate(front, t)
        got[f"full t={t:g}"] = _components_digest(front)
        if t == 10.0:
            parsed = parse_snapshot(emit_snapshot(front))
            got["parsed t=10 -> 10.5"] = _components_digest(propagate(parsed, 10.5))
    front = init_front(cube, CubePoint("U", 0.5, 0.5), arc=ArcInterval(0.3, 2.9))
    for t in (0.5, 1.0, 1.5, 2.0):
        front = propagate(front, t)
        got[f"arc t={t:g}"] = _components_digest(front)
    assert got == _PINNED_SPLITS
