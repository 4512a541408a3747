"""The exact nearest-sample index against brute force, bit for bit.

``CellIndex`` must return exactly ``min np.sqrt(dx*dx + dy*dy)`` over the
cloud: on the sample clouds and deck images of all five surfaces, on
degenerate clouds, far outside the cloud's box, and under a cap wherever
the answer is below it.  ``query_images`` must equal the minimum over images
of brute force and of one capped search per image in turn, and the ring
search's stop bound must be the distance to the cells it has not visited.
The pruned rectangle maximum of ``lattice`` must equal the full evaluation
of every centre.
"""

import numpy as np
import pytest

from wavefront import (
    CubePoint,
    CubeSurface,
    DiskBilliard,
    KleinBottle,
    RectBilliard,
    Torus,
    init_front,
    propagate,
    theorem1_rectangle_check,
)
from wavefront import lattice
from wavefront.metrics import _nearest
from wavefront.nearest import CellIndex, _stable_order


def brute(cloud, q):
    """The reference: every distance, minimised."""
    out = np.full(q.shape[0], np.inf)
    for k, (x, y) in enumerate(q):
        if cloud.shape[0]:
            dx = cloud[:, 0] - x
            dy = cloud[:, 1] - y
            out[k] = np.sqrt(dx * dx + dy * dy).min()
    return out


def sequential_images(index, images):
    """The former ``query_images``: one search per image in turn, each
    capped by the running minimum, starting from the middle image."""
    home = len(images) // 2
    best = index.query(images[home])
    for k, img in enumerate(images):
        if k != home:
            best = np.minimum(best, index.query(img, cap=best))
    return best


FRONTS = [
    (Torus(1.0, 1.0), (0.37, 0.61), 3.0),
    (KleinBottle(), (0.2, 0.3), 3.0),
    (RectBilliard(1.0, 0.7), (0.3, 0.2), 3.0),
    (DiskBilliard(1.0), (0.3, -0.2), 3.0),
    (CubeSurface(1.0), CubePoint("F", 0.23, 0.61), 2.5),
]


@pytest.mark.parametrize("surface,source,t", FRONTS, ids=lambda v: getattr(v, "kind", ""))
def test_sample_clouds_and_images_match_brute_force(surface, source, t):
    front = propagate(init_front(surface, source), t)
    # each chart's whole cloud: its own samples and every developed one
    clouds = [cloud if developed is None else np.concatenate([cloud, developed(np.inf)])
              for cloud, developed in surface.sample_clouds(front.pos, front.face, front.alive)]
    rng = np.random.default_rng(7)
    lo, w, h = surface.box
    q = np.stack([lo + w * rng.random(300), lo + h * rng.random(300)], axis=1)
    charts = rng.integers(0, surface.charts, q.shape[0])
    expect = np.full(q.shape[0], np.inf)
    for chart, cloud in enumerate(clouds):
        index = CellIndex(cloud)
        m = charts == chart
        for img in surface.images(q[m]):
            ref = brute(cloud, img)
            assert np.array_equal(index.query(img), ref)
            expect[m] = np.minimum(expect[m], ref)
    assert np.array_equal(_nearest(front, q, charts), expect)


@pytest.mark.parametrize("cloud", [
    np.array([[0.3, 0.4]]),
    np.repeat([[0.5, 0.5]], 50, axis=0),
    np.concatenate([np.repeat([[0.1, 0.9]], 20, axis=0),
                    np.random.default_rng(1).random((200, 2))]),
    np.stack([np.linspace(-1.0, 2.0, 500), np.full(500, 0.25)], axis=1),
    np.stack([np.full(300, -0.5), np.random.default_rng(2).random(300)], axis=1),
], ids=["one-sample", "duplicates", "clustered-duplicates", "collinear-x", "collinear-y"])
def test_degenerate_clouds_and_far_queries(cloud):
    rng = np.random.default_rng(3)
    near = rng.random((200, 2)) * 3.0 - 1.0
    far = rng.normal(size=(200, 2)) * 1e3
    q = np.concatenate([near, far, cloud[:5]])
    index = CellIndex(cloud)
    assert np.array_equal(index.query(q), brute(cloud, q))
    # a single image, as the cube, rectangle and disk pass
    assert np.array_equal(index.query_images(q[None]), brute(cloud, q))


def test_capped_queries_exact_below_cap():
    rng = np.random.default_rng(4)
    cloud = rng.random((3000, 2)) ** 3  # crowded near one corner
    q = rng.random((2000, 2)) * 4.0 - 1.5
    ref = brute(cloud, q)
    index = CellIndex(cloud)
    for cap in (0.0, 0.01, float(np.median(ref)), rng.random(q.shape[0])):
        got = index.query(q, cap=cap)
        below = ref < cap
        assert np.array_equal(got[below], ref[below])
        assert np.all(got[~below] >= ref[~below])


def test_queries_span_chunks(monkeypatch):
    from wavefront import nearest
    monkeypatch.setattr(nearest, "QUERY_CHUNK", 37)
    monkeypatch.setattr(nearest, "PAIR_CHUNK", 50)
    rng = np.random.default_rng(5)
    cloud = rng.random((400, 2))
    q = rng.random((500, 2)) * 2.0 - 0.5
    index = CellIndex(cloud)
    assert np.array_equal(index.query(q), brute(cloud, q))
    # the capped pass over eight images spans chunks too
    images = KleinBottle().images(q[:100])
    got = index.query_images(images)
    assert np.array_equal(got, np.min([brute(cloud, img) for img in images], axis=0))
    assert np.array_equal(got, sequential_images(index, images))


@pytest.mark.parametrize("cloud", [
    np.random.default_rng(8).random((300_000, 2)),  # more than 2**16 cells
    np.repeat(np.random.default_rng(9).random((5_000, 2)), 40, axis=0),  # duplicates
    np.random.default_rng(10).random((7, 2)),
    np.array([[0.25, 0.75], [0.25, 0.75], [0.0, 0.0]]),
], ids=["many-cells", "duplicates", "seven-points", "three-points"])
def test_stored_order_is_the_stable_argsort(cloud):
    index = CellIndex(cloud)
    nx, ny = index._shape
    ix, iy = index._cells(cloud)
    key = ix * ny + iy
    order = np.argsort(key, kind="stable")
    assert np.array_equal(index._x, cloud[order, 0])
    assert np.array_equal(index._y, cloud[order, 1])
    assert np.array_equal(index._counts, np.bincount(key, minlength=nx * ny))


def test_stable_order_on_wide_keys():
    rng = np.random.default_rng(11)
    for key in (rng.integers(0, 4097**2, 50_000), rng.integers(0, 3, 1_000),
                np.zeros(5, dtype=np.int64), np.arange(70_000)[::-1] * 257):
        assert np.array_equal(_stable_order(key), np.argsort(key, kind="stable"))


def test_empty_cloud_gives_inf():
    empty = CellIndex(np.empty((0, 2)))
    assert np.all(np.isinf(empty.query(np.zeros((3, 2)))))
    images = Torus(1.0, 1.0).images(np.array([[0.5, 0.5], [0.0, 1.0], [2.0, -3.0]]))
    assert np.all(np.isinf(empty.query_images(images)))
    index = CellIndex(np.random.default_rng(14).random((50, 2)))
    for k in (1, 9):  # no query points
        assert index.query_images(np.empty((k, 0, 2))).shape == (0,)
    front = propagate(init_front(Torus(1.0, 1.0), (0.2, 0.3)), 1.0)
    front.alive[:] = False
    q = np.array([[0.5, 0.5], [0.1, 0.9]])
    assert np.all(np.isinf(_nearest(front, q, np.zeros(2, dtype=int))))


@pytest.mark.parametrize("surface,source", [
    (Torus(1.0, 0.7), (0.37, 0.61)),
    (KleinBottle(), (0.2, 0.3)),
], ids=["torus", "klein"])
def test_query_images_is_the_minimum_over_images(surface, source):
    front = propagate(init_front(surface, source), 3.0)
    ((cloud, developed),) = surface.sample_clouds(front.pos, front.face, front.alive)
    assert developed is None
    rng = np.random.default_rng(12)
    lo, w, h = surface.box
    seams = lo + np.stack(np.meshgrid(w * np.array([0.0, 0.5, 1.0]),
                                      h * np.array([0.0, 0.5, 1.0])), axis=-1).reshape(-1, 2)
    inside = lo + rng.random((150, 2)) * [w, h]
    far = rng.normal(size=(40, 2)) * 1e3
    images = surface.images(np.concatenate([seams, inside, far]))
    assert images.shape == (9, 199, 2)
    index = CellIndex(cloud)
    got = index.query_images(images)
    assert np.array_equal(got, np.min([brute(cloud, img) for img in images], axis=0))
    assert np.array_equal(got, sequential_images(index, images))


def _unvisited_cells_distance(index, u, v, hi, hj, r):
    """Brute force: for each query, the least distance in cell sides to a
    cell outside the visited block of rings 0..r, clamped to the grid
    (``inf`` when none is left)."""
    nx, ny = index._shape
    ci, cj = np.divmod(np.arange(nx * ny), ny)
    dx = np.maximum(np.maximum(ci - u[:, None], u[:, None] - (ci + 1)), 0.0)
    dy = np.maximum(np.maximum(cj - v[:, None], v[:, None] - (cj + 1)), 0.0)
    d = np.sqrt(dx * dx + dy * dy)
    visited = ((np.abs(ci - hi[:, None]) <= r) & (np.abs(cj - hj[:, None]) <= r))
    return np.where(visited, np.inf, d).min(axis=1)


@pytest.mark.parametrize("seed", range(6))
def test_unvisited_distance_bounds_every_unvisited_cell(seed, monkeypatch):
    from wavefront import nearest
    rng = np.random.default_rng(seed)
    cloud = rng.random((int(rng.integers(2, 300)), 2)) * rng.random(2) * 4.0
    if seed == 5:  # one row of cells, few enough to visit them all
        cloud[:, 1] = 0.5
        monkeypatch.setattr(nearest, "MAX_CELLS_PER_AXIS", 60)
    index = CellIndex(cloud)
    nx, ny = index._shape
    edges = np.array([[0, 0], [nx, ny], [0, ny], [nx, 0], [nx / 2, 0], [0, ny / 2]])
    inside = rng.random((100, 2)) * [nx, ny]
    outside = rng.normal(size=(100, 2)) * 3 * max(nx, ny)
    u, v = np.concatenate([edges, inside, outside]).T
    hi, hj = index._cells(np.stack([index._lo[0] + u * index._side,
                                    index._lo[1] + v * index._side], axis=1))
    for r in range(-1, max(nx, ny)):
        bound = index._unvisited_distance(u, v, hi, hj, r)
        ref = _unvisited_cells_distance(index, u, v, hi, hj, r)
        assert np.all(bound <= ref), r
        # and no weaker, so inf exactly when no cell is left: a looser bound
        # lets a query far off a one-row grid visit every ring
        assert np.array_equal(bound, ref), r
    assert np.all(np.isinf(bound))


def _full_max(f, m):
    i, j = np.divmod(np.arange(m * m), m)
    return float(f(i, j).max())


@pytest.mark.parametrize("t", [10.0, 100.0, 1000.0])
def test_pruned_rectangle_maximum_is_the_full_maximum(t, monkeypatch):
    pruned = theorem1_rectangle_check(t, h_max=0.02)
    monkeypatch.setattr(lattice, "_lipschitz_max", _full_max)
    assert theorem1_rectangle_check(t, h_max=0.02) == pruned


@pytest.mark.parametrize("m", [2, 5, 33, 70])
def test_lipschitz_max_on_scattered_points(m):
    rng = np.random.default_rng(m)
    pts = rng.random((6, 2))
    c = (np.arange(m) + 0.5) / m

    def f(i, j):
        return brute(pts, np.stack([c[i], c[j]], axis=1))

    assert lattice._lipschitz_max(f, m) == _full_max(f, m)

