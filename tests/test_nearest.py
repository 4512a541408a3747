"""The exact nearest-sample index against brute force, bit for bit.

``CellIndex`` must return exactly ``min np.sqrt(dx*dx + dy*dy)`` over the
cloud: on the sample clouds and deck images of all five surfaces, on
degenerate clouds, far outside the cloud's box, and under a cap wherever
the answer is below it.  The pruned rectangle maximum of ``lattice`` must
equal the full evaluation of every centre.
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
from wavefront.metrics import _NearestFront
from wavefront.nearest import CellIndex


def brute(cloud, q):
    """The reference: every distance, minimised."""
    out = np.full(q.shape[0], np.inf)
    for k, (x, y) in enumerate(q):
        if cloud.shape[0]:
            dx = cloud[:, 0] - x
            dy = cloud[:, 1] - y
            out[k] = np.sqrt(dx * dx + dy * dy).min()
    return out


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
    clouds = surface.sample_clouds(front.pos, front.face, front.alive)
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
    assert np.array_equal(_NearestFront(front).query(q, charts), expect)


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
    assert np.array_equal(CellIndex(cloud).query(q), brute(cloud, q))


def test_empty_cloud_gives_inf():
    assert np.all(np.isinf(CellIndex(np.empty((0, 2))).query(np.zeros((3, 2)))))
    front = propagate(init_front(Torus(1.0, 1.0), (0.2, 0.3)), 1.0)
    front.alive[:] = False
    q = np.array([[0.5, 0.5], [0.1, 0.9]])
    assert np.all(np.isinf(_NearestFront(front).query(q, np.zeros(2, dtype=int))))


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

