"""Exact nearest-sample distances in the plane from a uniform cell grid.

``CellIndex`` buckets a point cloud into square cells, a bucket grid
(Bentley, Weide & Yao, ACM TOMS 6(4), 1980), and answers for each query
point the least Euclidean distance ``np.sqrt(dx*dx + dy*dy)`` to a cloud
point.  It visits the cells around a query in Chebyshev rings and stops once
every unvisited cell lies farther than the best distance found, so each
answer is the minimum over the whole cloud, bit for bit, not an estimate.

A query may carry a cap: the search then also stops once every unvisited
cell lies at least ``cap`` away.  The answer is still exact wherever it is
below the cap; elsewhere it is some distance at least the cap (possibly
``inf``).  ``CellIndex.query_images`` minimises over the deck images of each
query in two passes: the middle (untranslated) image uncapped, then every
other image of every query in one search, capped by that query's first
answer.  The minimum is exact, bit for bit: an image nearer than the first
answer gets its exact distance, and every other answer is at least the first
answer.  Images far from the cloud end without visiting a cell.

The module needs numpy only and knows nothing of surfaces or fronts.
"""

from __future__ import annotations

import numpy as np

# Samples per cell the grid aims at, and the most cells along either axis.
SAMPLES_PER_CELL = 4
MAX_CELLS_PER_AXIS = 4096

# Queries searched at once, and the most (query, cell) or (query, sample)
# pairs one ring step may hold: together they bound a query's memory.
QUERY_CHUNK = 16384
PAIR_CHUNK = 1 << 21

# Relative slack on the stop test, for rounding in the cell bounds.
MARGIN = 1e-12


class CellIndex:
    """Nearest-sample queries against a fixed cloud of planar points.

    The cloud's bounding box is cut into square cells holding about
    ``SAMPLES_PER_CELL`` points each, with at most ``MAX_CELLS_PER_AXIS``
    cells along the longer side.  The points are stored sorted by cell
    (stable, so ties keep their input order), with each cell's start in
    that order: a compressed-row layout.
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        self.size = pts.shape[0]
        if self.size == 0:
            return
        # column by column: a reduction over axis 0 of an (n, 2) array is
        # an order of magnitude slower, and min and max are exact either way
        x, y = pts[:, 0], pts[:, 1]
        self._lo = np.array([x.min(), y.min()])
        ext = np.array([x.max(), y.max()]) - self._lo
        extent = float(ext.max())
        side = max(
            float(np.sqrt(ext[0] * ext[1] * SAMPLES_PER_CELL / self.size)),
            extent / MAX_CELLS_PER_AXIS,
        )
        self._side = side if side > 0 else 1.0
        self._shape = tuple(int(k) + 1 for k in (ext / self._side).astype(np.int64))
        nx, ny = self._shape
        ix, iy = self._cells(pts)
        key = ix * ny + iy
        del ix, iy  # freed before the sort and the gathers below
        order = _stable_order(key)
        self._counts = np.bincount(key, minlength=nx * ny)
        del key
        self._starts = np.concatenate([[0], np.cumsum(self._counts)[:-1]])
        # a take from a contiguous copy beats a fancy index into a column
        self._x = np.ascontiguousarray(x).take(order)
        self._y = np.ascontiguousarray(y).take(order)
        # cell coordinates of a sample are off by at most a few ulps of
        # its coordinates over the cell side; the stop test allows for it
        span = float(np.abs(self._lo).max()) + extent
        self._slack = 8.0 * np.finfo(np.float64).eps * (span / self._side + 1.0)

    def _coords(self, pts):
        """Cell coordinates (in cell sides from the box's low corner)."""
        return (pts[:, 0] - self._lo[0]) / self._side, (pts[:, 1] - self._lo[1]) / self._side

    def _cells(self, pts):
        """Home cell of each point, clamped to the grid."""
        u, v = self._coords(pts)
        nx, ny = self._shape
        return (np.clip(np.floor(u), 0, nx - 1).astype(np.int64),
                np.clip(np.floor(v), 0, ny - 1).astype(np.int64))

    def query(self, q, cap=None) -> np.ndarray:
        """Least distance from each row of ``q`` to the cloud.

        ``cap`` (a scalar or one value per query) lets the search stop once
        no unvisited cell is nearer than it; the result is exact wherever it
        is below ``cap``.  An empty cloud gives ``inf`` everywhere.
        """
        q = np.asarray(q, dtype=np.float64).reshape(-1, 2)
        out = np.full(q.shape[0], np.inf)
        if self.size == 0:
            return out
        cap = np.broadcast_to(np.inf if cap is None else cap, out.shape)
        for s in range(0, q.shape[0], QUERY_CHUNK):
            chunk = slice(s, s + QUERY_CHUNK)
            out[chunk] = self._search(q[chunk], cap[chunk])
        return out

    def query_images(self, images) -> np.ndarray:
        """Least distance from each query point to the cloud over its images.

        ``images`` has shape (k, n, 2): k images of n query points, the
        untranslated one in the middle.  That one is searched first, and
        then every other image of every point in one capped search, each
        capped by its point's first answer.  A capped answer is exact below
        its cap, so the minimum of the two passes is the exact minimum over
        all k images, bit for bit.  Points are taken ``QUERY_CHUNK`` at a
        time, so the copied images and caps stay small.
        """
        k, n = len(images), images.shape[1]
        home = k // 2
        out = np.empty(n)
        for s in range(0, n, QUERY_CHUNK):
            img = images[:, s:s + QUERY_CHUNK]
            best = self.query(img[home])
            rest = self.query(np.delete(img, home, axis=0), cap=np.tile(best, k - 1))
            # initial: a single image leaves no rest
            out[s:s + QUERY_CHUNK] = np.minimum(
                best, rest.reshape(k - 1, best.size).min(axis=0, initial=np.inf))
        return out

    def _search(self, q, cap):
        u, v = self._coords(q)
        hi, hj = self._cells(q)
        best = np.full(q.shape[0], np.inf)
        act = np.arange(q.shape[0])
        r = -1  # rings visited so far: none
        while True:
            bound = self._unvisited_distance(u[act], v[act], hi[act], hj[act], r)
            target = np.minimum(best[act], cap[act]) / self._side
            act = act[bound < target * (1.0 + MARGIN) + self._slack]
            if act.size == 0:
                return best
            r += 1
            self._visit_ring(q, hi, hj, act, r, best)

    def _unvisited_distance(self, u, v, hi, hj, r):
        """Distance, in cell sides, from (u, v) to the cells outside the
        rings 0..r around (hi, hj): the grid minus a block of cells is at
        most four strips.  The home cell is clamped into the grid, so a
        strip that exists lies beyond the block on its side: its distance is
        the coordinate gap to that side, and across the strip the offset of
        (u, v) from the grid.  ``inf`` once every cell has been visited."""
        nx, ny = self._shape
        ox = np.maximum(np.maximum(-u, u - nx), 0.0)
        oy = np.maximum(np.maximum(-v, v - ny), 0.0)
        if r < 0:
            return np.sqrt(ox * ox + oy * oy)
        i0, i1, j0, j1 = hi - r, hi + r + 1, hj - r, hj + r + 1
        gx = np.minimum(np.where(i0 > 0, u - i0, np.inf), np.where(i1 < nx, i1 - u, np.inf))
        gy = np.minimum(np.where(j0 > 0, v - j0, np.inf), np.where(j1 < ny, j1 - v, np.inf))
        return np.minimum(np.sqrt(gx * gx + oy * oy), np.sqrt(gy * gy + ox * ox))

    def _visit_ring(self, q, hi, hj, act, r, best):
        """Lower ``best`` of the queries ``act`` over the samples in the
        cells at Chebyshev distance r from their home cells."""
        k = np.arange(-r, r + 1)
        edge = np.full(k.size, r)
        if r == 0:
            di, dj = k, k
        else:
            di = np.concatenate([k, k, -edge[1:-1], edge[1:-1]])
            dj = np.concatenate([-edge, edge, k[1:-1], k[1:-1]])
        nx, ny = self._shape
        step = max(1, PAIR_CHUNK // di.size)
        for s in range(0, act.size, step):
            a = act[s:s + step]
            ci = hi[a, None] + di
            cj = hj[a, None] + dj
            row, col = np.nonzero((ci >= 0) & (ci < nx) & (cj >= 0) & (cj < ny))
            cell = ci[row, col] * ny + cj[row, col]
            count = self._counts[cell]
            full = count > 0
            self._scan(q, a[row[full]], cell[full], count[full], best)

    def _scan(self, q, who, cell, count, best):
        """Lower ``best[who]`` by the distances to each listed cell's samples.

        ``who`` is sorted; the (query, sample) pairs are expanded in pieces
        of at most about ``PAIR_CHUNK`` pairs (a single cell is never split).
        """
        ends = np.cumsum(count)
        start = 0
        while start < who.size:
            base = ends[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, base + PAIR_CHUNK, side="right")))
            w, c, n = who[start:stop], cell[start:stop], count[start:stop]
            start = stop
            first = np.cumsum(n) - n
            idx = np.arange(int(n.sum())) + np.repeat(self._starts[c] - first, n)
            rep = np.repeat(w, n)
            dx = self._x[idx] - q[rep, 0]
            dy = self._y[idx] - q[rep, 1]
            d = np.sqrt(dx * dx + dy * dy)
            seg = np.flatnonzero(np.concatenate([[True], rep[1:] != rep[:-1]]))
            who_seg = rep[seg]
            best[who_seg] = np.minimum(best[who_seg], np.minimum.reduceat(d, seg))


def _stable_order(key):
    """``np.argsort(key, kind="stable")`` for keys below 2**32, by two
    stable passes over 16-bit digits, low digit first (numpy radix-sorts
    16-bit keys; the cast to uint16 keeps the low digit).  Cell keys are
    below (MAX_CELLS_PER_AXIS + 1)**2."""
    low = np.argsort(key.astype(np.uint16), kind="stable")
    high = (key >> 16).astype(np.uint16)
    return low[np.argsort(high[low], kind="stable")]

