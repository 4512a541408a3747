"""Flat surface models and exact evaluation of their exponential maps.

Five models are supported: a rectangular torus R^2/(aZ x bZ), the flat Klein
bottle (unit square with a glide identification), a rectangular billiard
table, a circular billiard table, and the boundary surface of a cube.  All of
them are flat away from at most finitely many cone points, so a unit-speed
geodesic lifts to a straight line in a suitable cover.  Positions at an
arbitrary time are therefore computed in closed form (torus, Klein bottle,
rectangle, disk) or by walking face crossings of the straight development
(cube).  There is no time stepping and no accumulated integration error, and
every evaluation is a pure function of (source, direction, time).

Each model owns its geometry.  It answers, through the methods of
``_Surface``: its descriptor (a kind plus its dataclass fields) and
``min_extent``; parsing, formatting and validating its points, the surface
point at a row of position arrays and back (``point_at``, ``point_rows``);
``evaluate`` (the exponential map on many directions); deck images of query
points and one geodesic distance on rows, ``distances`` (``surface_distance``
is its one-pair case); the box its eps-grids tile, the charts they are laid
on, and the rule that wraps a cell index back into the grid (torus mod,
Klein glide, clamp elsewhere); and the plane map, viewport, outline and seam
rule of its renders.  ``frontier``, ``metrics`` and ``io`` ask the model and
hold no per-surface branches.  The torus and the Klein bottle declare only
their deck group; ``_FlatQuotient`` derives their box, reduction, deck
images, distance, segment lift and cell wrap from it.  The cube declares its
chart frames, and its edge gluings fold each neighbour flat about an edge.

Conventions:

* Planar surface points are (x, y) pairs inside the fundamental domain.
* Cube points are ``CubePoint(face, u, v)`` with ``face`` one of U, D, F, B,
  L, R and in-face chart coordinates (u, v) in [0, side]^2.  Charts are
  oriented so that e_u x e_v is the outward normal.
* Directions are angles theta measured in the source chart; evaluation
  accepts any angle in [0, 2*pi] (the closed upper end makes a full circle
  of directions expressible with an inclusive endpoint).
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Most face crossings one cube ray may make in a single evaluation.
EVENT_BUDGET = 10**5

# Most face crossings one cube evaluation may be charged for: its rays plus
# WALK_ITERATION_RAYS, each counted at the per-ray bound sqrt(2)*t/side + 2.
WALK_BUDGET = 5 * 10**7

# The fixed cost of one walk iteration, in rays.  A walk's time follows its
# iteration count as well as its ray count: an iteration costs about 55 us
# plus 0.07-0.15 us per active ray (numpy 2.4, 2-CPU x86-64 box).
WALK_ITERATION_RAYS = 500

# A cube ray passing closer than this (times side) to a vertex is discarded.
CORNER_TOL = 1e-9

# Largest surface size (torus and rectangle sides, disk radius, cube side).
# Deck images, cube clouds and renders reach about 4 sizes past the origin,
# and distances square coordinate differences of up to 8 sizes: dx*dx + dy*dy
# overflows once a size passes about 1e153.  This bound leaves a factor of
# 1000 below that.
SIZE_BOUND = 1e150


class PreconditionError(ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(RuntimeError):
    """A computation exceeded its resolution or event budget, or left the
    finite floats."""


# ---------------------------------------------------------------------------
# surface models


class _Surface:
    """What a surface model answers; the defaults describe a planar table.

    A planar surface has one chart, the plane of its fundamental domain, and
    one development sheet: its sample arrays carry no face ids (``face`` is
    None) and sheets of width 0.  ``box`` is ``(lo, width, height)``: the
    domain's bounding box [lo, lo + width] x [lo, lo + height], which
    eps-grids tile and renders show.
    """

    charts = 1  # eps-grids are laid on each chart
    coordinate_width = 2  # snapshot coordinates per sample
    delta_t_check = 0.5  # recorded in snapshots and SVG comments; no computation reads it

    def __post_init__(self):
        values = [getattr(self, f.name) for f in fields(self)]
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise PreconditionError(f"{self.kind} parameters must be positive and finite")
        if max(values, default=0.0) > SIZE_BOUND:
            raise PreconditionError(
                f"{self.kind} parameters must be at most SIZE_BOUND={SIZE_BOUND!r}")

    @property
    def min_extent(self) -> float:
        """Smallest linear extent of the fundamental domain (sets length scales)."""
        return min(self.box[1], self.box[2])

    # -- points

    def parse_point(self, text: str):
        """Parse ``x,y`` (planar surfaces) or ``FACE/u/v`` (cube)."""
        parts = text.strip().split(",")
        if len(parts) != 2:
            raise PreconditionError(f"planar points look like x,y, got {text!r}")
        try:
            point = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise PreconditionError(f"bad coordinates in {text!r}") from None
        return self.validate_point(point)

    def format_point(self, point) -> str:
        return f"{repr(float(point[0]))},{repr(float(point[1]))}"

    def validate_point(self, point, forbid_vertex: bool = False):
        """Check a point lies in the fundamental domain; return it.

        ``forbid_vertex`` additionally rejects cube points within the corner
        tolerance of a vertex (required for geodesic sources, whose direction
        field is undefined at cone points).
        """
        try:
            x, y = float(point[0]), float(point[1])
        except (TypeError, ValueError, IndexError):
            raise PreconditionError(f"bad planar point {point!r}") from None
        if not self._contains(x, y):
            raise PreconditionError(f"point {x!r},{y!r} outside the {self.kind} domain")
        return (x, y)

    def _contains(self, x: float, y: float) -> bool:
        lo, w, h = self.box
        return lo <= x <= lo + w and lo <= y <= lo + h

    def point_at(self, pos: np.ndarray, face, i: int):
        """The surface point of row ``i`` of position (and face) arrays."""
        return (float(pos[i, 0]), float(pos[i, 1]))

    def point_rows(self, points) -> tuple:
        """Position (and face) arrays of surface points, a row each: the
        inverse of ``point_at``."""
        return np.array([(p[0], p[1]) for p in points], dtype=np.float64), None

    def coordinate_columns(self, pos: np.ndarray, face) -> list:
        """Snapshot coordinate columns of sample positions, as Python lists."""
        return [pos[:, 0].tolist(), pos[:, 1].tolist()]

    def split_coordinates(self, columns: list):
        """Chart ids, x and y from snapshot coordinate columns."""
        x, y = columns
        return [0] * len(x), x, y

    def sample_charts(self, face, n: int) -> np.ndarray:
        """Chart id of each of ``n`` samples."""
        return np.zeros(n, dtype=np.int64)

    # -- evaluation

    def evaluate(self, source, thetas: np.ndarray, t: float) -> "GeodesicBatch":
        """Straight lines in the cover, reduced to the fundamental domain."""
        x = source[0] + t * np.cos(thetas)
        y = source[1] + t * np.sin(thetas)
        px, py = self._reduce(x, y)
        return _empty_planar_batch(thetas, np.stack([px, py], axis=1), np.stack([x, y], axis=1))

    # -- distance

    def images(self, pts: np.ndarray) -> np.ndarray:
        """Deck images of query points for exact nearest-distance queries.

        Shape (k, n, 2): each point's k relevant images in the plane of the
        fundamental domain, chord distance to the nearest of which is the
        geodesic distance on the torus and Klein bottle.  The rectangle and
        disk need no images, since a chord inside a convex table is already
        a geodesic.  The cube returns the points themselves: its sample
        clouds are developed into each query chart instead
        (``CubeSurface.sample_clouds``).
        """
        return pts[None, :, :]

    def distances(self, pos: np.ndarray, face, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Distance between rows i[k] and j[k] of position (and face) arrays."""
        dx, dy = (pos[j] - pos[i]).T.tolist()
        return np.array(list(map(math.hypot, dx, dy)), dtype=np.float64)

    def sample_clouds(self, pos: np.ndarray, face, live: np.ndarray):
        """Per chart in turn, the live samples on it and ``developed``: a
        function of a distance r giving the samples of other charts developed
        into it that lie within r of its box on both axes (None here: one
        chart, nothing developed)."""
        yield pos.compress(live, axis=0), None

    # -- eps-grids

    def lift_near(self, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        """The image of each ``pb`` nearest to ``pa`` (segment end points)."""
        return pb

    def wrap_cells(self, i: np.ndarray, j: np.ndarray, nx: int, ny: int):
        """Cell indices of a chart's grid, taken back into the grid."""
        return np.clip(i, 0, nx - 1), np.clip(j, 0, ny - 1)

    def cell_overlap(self, xe: np.ndarray, ye: np.ndarray):
        """Masks of the cells (edges xe x ye) meeting and inside the domain."""
        full = np.ones((xe.size - 1, ye.size - 1), dtype=bool)
        return full, full

    # -- renders

    @property
    def viewport(self) -> tuple:
        return self.box[1], self.box[2]

    def plane(self, pos: np.ndarray, face) -> np.ndarray:
        """Viewport coordinates (y up) of chart positions."""
        return pos - self.box[0]

    def plane_point(self, point) -> np.ndarray:
        return self.plane(*self.point_rows([point]))[0]

    def seam_breaks(self, plane: np.ndarray) -> np.ndarray:
        """Mask of segments that cross an identification seam (drawn as gaps)."""
        return np.zeros(plane.shape[0] - 1, dtype=bool)

    def svg_outline(self, style: str) -> list:
        w, h = self.viewport
        return [f'<rect width="{w!r}" height="{h!r}" {style}/>']


class _FlatQuotient(_Surface):
    """The plane modulo the deck group generated by x -> x + alpha and a step
    y -> y + beta that also mirrors x -> alpha - x when ``glide`` is set.
    Every rule below derives from these three declarations."""

    glide = False

    @property
    def box(self) -> tuple:
        return 0.0, self.alpha, self.beta

    def _mirror(self, steps, x, flip):
        """``flip - x`` where a glide's y-step count is odd, else ``x``."""
        return np.where(steps % 2 == 1, flip - x, x) if self.glide else x

    def _reduce(self, x, y):
        if self.glide:
            steps, y = np.divmod(y, self.beta)
            return np.mod(self._mirror(steps, x, self.alpha), self.alpha), y
        return np.mod(x, self.alpha), np.mod(y, self.beta)

    def images(self, pts):
        out = []
        y = pts[:, 1]
        for j in (-1.0, 0.0, 1.0):
            x = self._mirror(j, pts[:, 0], self.alpha)
            for i in (-1.0, 0.0, 1.0):
                out.append(np.stack([x + i * self.alpha, y + j * self.beta], axis=1))
        return np.stack(out)

    def lift_near(self, pa, pb):
        """The image of each ``pb`` nearest to ``pa``, in closed form.

        Rounds the y step count, mirrors on an odd glide count, then rounds
        the x step count.  Without a glide this is exact at any distance,
        with one for pairs closer than half the shorter period.  Adjacent
        front samples are not always that close: pairs that refinement left
        THETA_MIN apart can be ~0.4 apart (Klein, t ~ 6.7e11).
        """
        j = np.round((pa[:, 1] - pb[:, 1]) / self.beta)
        x = self._mirror(j, pb[:, 0], self.alpha)
        i = np.round((pa[:, 0] - x) / self.alpha)
        return np.stack([x + i * self.alpha, pb[:, 1] + j * self.beta], axis=1)

    def wrap_cells(self, i, j, nx, ny):
        if self.glide:  # a row index past the top re-enters mirrored
            steps, j = np.divmod(j, ny)
            return self._mirror(steps, i, -1) % nx, j
        return i % nx, j % ny

    def distances(self, pos, face, i, j):
        def one_way(a, b):  # from rows a to the nearest image of rows b
            imgs = self.images(pos[b])
            return np.hypot(imgs[:, :, 0] - pos[a, 0], imgs[:, :, 1] - pos[a, 1]).min(axis=0)

        return np.minimum(one_way(i, j), one_way(j, i))

    def seam_breaks(self, plane: np.ndarray) -> np.ndarray:
        d = np.abs(np.diff(plane, axis=0))
        _, w, h = self.box
        return (d[:, 0] > 0.5 * w) | (d[:, 1] > 0.5 * h)


@dataclass(frozen=True)
class Torus(_FlatQuotient):
    """Flat torus R^2 / (alpha*Z x beta*Z)."""

    alpha: float
    beta: float
    kind = "torus"


@dataclass(frozen=True)
class KleinBottle(_FlatQuotient):
    """Flat Klein bottle: unit square, (x, y+1) ~ (1-x, y), (x+1, y) ~ (x, y).

    The orientation double cover is the 1 x 2 torus.
    """

    kind = "klein"
    alpha = beta = 1.0
    glide = True


@dataclass(frozen=True)
class RectBilliard(_Surface):
    """Rectangular billiard table [0, a] x [0, b] with mirror reflection."""

    a: float
    b: float
    kind = "rect"

    @property
    def box(self) -> tuple:
        return 0.0, self.a, self.b

    def _reduce(self, x, y):
        return _fold(x, self.a), _fold(y, self.b)


@dataclass(frozen=True)
class DiskBilliard(_Surface):
    """Circular billiard table of the given radius, centred at the origin."""

    radius: float
    kind = "disk"

    @property
    def box(self) -> tuple:
        return -self.radius, 2.0 * self.radius, 2.0 * self.radius

    @property
    def min_extent(self) -> float:
        return self.radius

    def _contains(self, x, y):
        return x * x + y * y <= self.radius**2 * (1.0 + 1e-12)

    def evaluate(self, source, thetas, t):
        """Closed-form circle billiard flow.

        The disk billiard is integrable: after the first rim hit, consecutive
        bounce points advance by a fixed central angle, so the state after n
        reflections is a single rotation.  This keeps evaluation O(1) per
        direction and bitwise deterministic for any batch size.
        """
        radius = self.radius
        px, py = float(source[0]), float(source[1])
        dx = np.cos(thetas)
        dy = np.sin(thetas)
        pd = px * dx + py * dy
        disc = radius * radius - (px * px + py * py) + pd * pd
        s0 = np.sqrt(np.maximum(disc, 0.0)) - pd

        no_bounce = t <= s0
        # first rim hit and the reflected direction
        qx = px + s0 * dx
        qy = py + s0 * dy
        ndot = np.maximum((qx * dx + qy * dy) / radius, 0.0)  # cos(incidence)
        d1x = dx - 2.0 * ndot * qx / radius
        d1y = dy - 2.0 * ndot * qy / radius
        ell = qx * d1y - qy * d1x  # conserved angular momentum
        chord = 2.0 * radius * ndot
        t1 = np.maximum(t - s0, 0.0)

        tangent = chord <= 0.0
        safe_chord = np.where(tangent, 1.0, chord)
        n = np.floor(t1 / safe_chord)
        resid = t1 - n * safe_chord
        phi = np.arccos(np.clip(ndot, 0.0, 1.0))
        step = np.where(ell >= 0.0, 1.0, -1.0) * (math.pi - 2.0 * phi)
        ang = n * step
        c = np.cos(ang)
        s = np.sin(ang)
        bx = c * qx - s * qy
        by = s * qx + c * qy
        ex = c * d1x - s * d1y
        ey = s * d1x + c * d1y
        x = bx + resid * ex
        y = by + resid * ey

        # degenerate tangent launch from the rim: slide along the boundary
        if np.any(tangent & ~no_bounce):
            slide = np.where(ell >= 0.0, 1.0, -1.0) * t1 / radius
            sx = np.cos(slide) * qx - np.sin(slide) * qy
            sy = np.sin(slide) * qx + np.cos(slide) * qy
            x = np.where(tangent, sx, x)
            y = np.where(tangent, sy, y)

        x = np.where(no_bounce, px + t * dx, x)
        y = np.where(no_bounce, py + t * dy, y)
        refl = np.where(no_bounce, 0, n.astype(np.int64) + 1)
        pos = np.stack([x, y], axis=1)
        return _empty_planar_batch(thetas, pos, pos.copy(), refl=refl)

    def cell_overlap(self, xe, ye):
        # nearest point of each cell box to the origin decides intersection;
        # farthest corner decides full containment
        near = [np.maximum(np.maximum(e[:-1], -e[1:]), 0.0) for e in (xe, ye)]
        far = [np.maximum(np.abs(e[:-1]), np.abs(e[1:])) for e in (xe, ye)]
        near2 = near[0][:, None] ** 2 + near[1][None, :] ** 2
        far2 = far[0][:, None] ** 2 + far[1][None, :] ** 2
        return near2 < self.radius**2, far2 <= self.radius**2 * (1.0 + 1e-12)

    def svg_outline(self, style):
        r = self.radius
        return [f'<circle cx="{r!r}" cy="{r!r}" r="{r!r}" {style}/>']


@dataclass(frozen=True)
class CubeSurface(_Surface):
    """Boundary surface of a cube with the given side length.

    Its six faces are the charts; sample arrays carry each sample's face id,
    and renders lay the faces out as a cross net (L F R B in a row, U above
    F, D below F).
    """

    side: float
    kind = "cube"
    charts = 6
    coordinate_width = 3

    @property
    def box(self) -> tuple:
        return 0.0, self.side, self.side

    @property
    def delta_t_check(self) -> float:  # the value snapshots and SVG comments record
        return 0.1 * self.side

    def parse_point(self, text):
        parts = text.strip().split("/")
        if len(parts) != 3 or parts[0] not in FACE_NAMES:
            raise PreconditionError(f"cube points look like U/0.5/0.5, got {text!r}")
        try:
            point = CubePoint(parts[0], float(parts[1]), float(parts[2]))
        except ValueError:
            raise PreconditionError(f"bad cube coordinates in {text!r}") from None
        return self.validate_point(point)

    def format_point(self, point):
        return f"{point.face}/{repr(float(point.u))}/{repr(float(point.v))}"

    def validate_point(self, point, forbid_vertex=False):
        if not isinstance(point, CubePoint):
            raise PreconditionError("cube surfaces need CubePoint sources")
        if point.face not in FACE_NAMES:
            raise PreconditionError(f"unknown cube face {point.face!r}")
        s = self.side
        if not (0.0 <= point.u <= s and 0.0 <= point.v <= s):
            raise PreconditionError("cube chart coordinates out of range")
        if forbid_vertex:
            delta = CORNER_TOL * s
            corner = min(
                math.hypot(point.u - cu, point.v - cv)
                for cu in (0.0, s)
                for cv in (0.0, s)
            )
            if corner <= delta:
                raise PreconditionError("source sits on a cube vertex")
        return point

    def point_at(self, pos, face, i):
        return CubePoint(FACE_NAMES[int(face[i])], float(pos[i, 0]), float(pos[i, 1]))

    def point_rows(self, points):
        return (np.array([(p.u, p.v) for p in points], dtype=np.float64),
                np.array([FACE_INDEX[p.face] for p in points]))

    def coordinate_columns(self, pos, face):
        return [list(map(FACE_NAMES.__getitem__, face.tolist())),
                *super().coordinate_columns(pos, face)]

    def split_coordinates(self, columns):
        face, x, y = columns
        if not all(f in FACE_NAMES for f in face):
            bad = next(f for f in face if f not in FACE_NAMES)
            raise PreconditionError(f"unknown cube face {reprlib.repr(bad)}")
        return list(map(FACE_NAMES.index, face)), x, y

    def sample_charts(self, face, n):
        return face

    def evaluate(self, source, thetas, t):
        return _eval_cube(self, source, thetas, t)

    def distances(self, pos, face, i, j):
        out, fi, fj = np.empty(len(i)), face[i], face[j]
        for f1, f2 in set(zip(fi.tolist(), fj.tolist())):  # one call per face pair
            k = np.flatnonzero((fi == f1) & (fj == f2))
            p1, p2 = pos[i[k]], pos[j[k]]
            # evaluate both orders: unfolding rounds each direction differently
            # in the last ulp, and the metric must be exactly symmetric
            out[k] = np.minimum(cube_geodesic_distance(self.side, f1, p1, f2, p2),
                                cube_geodesic_distance(self.side, f2, p2, f1, p1))
        return out

    def sample_clouds(self, pos, face, live):
        """Per face in turn, the live samples on it and a function of a
        distance r that develops into its chart the live samples on the faces
        one or two edges away lying within r of its square (``_developed``),
        so queries need no images."""
        on = [pos.compress(live & (face == g), axis=0) for g in range(6)]
        for f, paths in enumerate(_FACE_PATHS):
            yield on[f], functools.partial(self._developed, on, paths)

    def _developed(self, on, paths, reach):
        """The samples ``on[g]`` of each face g one or two edges along
        ``paths``, developed as ``p @ R.T + c * side``, that land within
        ``reach`` of the chart's square [0, side]^2 on both axes.  R is a
        signed permutation, so each developed axis reads one coordinate of a
        sample: the samples are cut on that coordinate before they are
        developed, and a path whose developed square lies wholly beyond
        ``reach`` is not developed.  The cuts are rounded by a few ulps of
        the side and ``reach``; an infinite ``reach`` keeps every sample."""
        s = self.side
        near = (paths.depth >= 1) & (paths.depth <= 2)
        parts = []
        for g, r, c in zip(paths.end[near], paths.rot[near], paths.shift[near]):
            # developed axis i is sign * p[k] + c[i] * side: the interval of
            # p[k] that develops into [-reach, side + reach]
            cuts = []
            for (r0, r1), cs in zip(r.tolist(), (c * s).tolist()):
                k, sign = (0, r0) if r0 else (1, r1)
                cuts.append((k, -reach - cs, s + reach - cs) if sign > 0
                            else (k, cs - s - reach, cs + reach))
            if any(lo > s or hi < 0.0 for _, lo, hi in cuts):
                continue
            pts = on[g]
            for k, lo, hi in cuts:
                if lo > 0.0:
                    pts = pts.compress(pts[:, k] >= lo, axis=0)
                if hi < s:
                    pts = pts.compress(pts[:, k] <= hi, axis=0)
            parts.append(pts @ r.T + c * s)
        return np.concatenate(parts, axis=0)

    @property
    def viewport(self):
        return 4.0 * self.side, 3.0 * self.side

    def plane(self, pos, face):
        return pos + _NET_SLOTS[face] * self.side

    def seam_breaks(self, plane):
        d = np.abs(np.diff(plane, axis=0))
        return np.hypot(d[:, 0], d[:, 1]) > 0.45 * self.side

    def svg_outline(self, style):
        s, h = self.side, self.viewport[1]
        return [
            f'<rect x="{col * s!r}" y="{h - (row + 1) * s!r}" width="{s!r}" '
            f'height="{s!r}" {style}/>'
            for col, row in _NET_SLOT.values()
        ]


SurfaceModel = Torus | KleinBottle | RectBilliard | DiskBilliard | CubeSurface

_KINDS = {cls.kind: cls for cls in SurfaceModel.__args__}


@dataclass(frozen=True)
class CubePoint:
    """A point on the cube surface: face name plus chart coordinates."""

    face: str
    u: float
    v: float


@dataclass(frozen=True)
class CoverPoint:
    """Development-plane image of an evaluated geodesic endpoint.

    ``x`` and ``y`` are coordinates in the development plane (the source
    chart unrolled along the geodesic).  ``group_elem`` indexes the cube
    rotation carried by the development (0, the identity, elsewhere) and
    ``reflection_count`` counts rim reflections on the disk (0 elsewhere).
    """

    x: float
    y: float
    group_elem: int = 0
    reflection_count: int = 0

    @classmethod
    def at(cls, arrays, i: int) -> "CoverPoint":
        """Row ``i`` of the cover, group and refl arrays of a batch or front."""
        return cls(float(arrays.cover[i, 0]), float(arrays.cover[i, 1]),
                   int(arrays.group[i]), int(arrays.refl[i]))


# ---------------------------------------------------------------------------
# descriptor grammar:  torus:a,b | klein | rect:a,b | disk:r | cube:s


def parse_surface(text: str) -> SurfaceModel:
    """Parse a surface descriptor such as ``torus:1,1`` or ``cube:1``."""
    head, sep, tail = text.strip().partition(":")
    cls = _KINDS.get(head)
    if cls is None:
        raise PreconditionError(f"unknown surface kind {head!r}")
    try:
        args = [float(part) for part in tail.split(",")] if sep else []
    except ValueError:
        raise PreconditionError(f"bad surface parameters in {text!r}") from None
    names = [f.name for f in fields(cls)]
    if len(args) != len(names):
        raise PreconditionError(f"{head} takes {', '.join(names) or 'no parameters'}")
    return cls(*args)


def _num(x: float) -> str:
    # shortest decimal that round-trips; integers render without the dot
    return repr(int(x)) if float(x).is_integer() and abs(x) < 1e16 else repr(float(x))


def format_surface(surface: SurfaceModel) -> str:
    values = ",".join(_num(getattr(surface, f.name)) for f in fields(surface))
    return f"{surface.kind}:{values}" if values else surface.kind


# ---------------------------------------------------------------------------
# cube charts, transitions and the order-24 rotation group
#
# Face charts are isometric embeddings of [0, side]^2 into the unit cube
# [0,1]^3 (scaled by side at evaluation time).  The chart data below is
# chosen so that the cross-shaped net L F R B with U above F and D below F
# unfolds with matching edges and no extra rotations.  One fold rule glues
# the edges: leaving face f along the edge's outward normal w enters the
# face whose normal is w, folded flat so that w turns into -n_f
# (``_build_transitions``).  The rotation group is not enumerated on its
# own: its 24 elements are the frames of the six charts developed with the
# four in-plane rotations (``_build_group_table``).

FACE_NAMES = ("U", "D", "F", "B", "L", "R")
FACE_INDEX = {name: i for i, name in enumerate(FACE_NAMES)}

# face -> (origin, e_u, e_v) in cube corner coordinates, side = 1
_CHART_DATA = {
    "U": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    "D": ((0, 1, 0), (1, 0, 0), (0, -1, 0)),
    "F": ((0, 0, 0), (1, 0, 0), (0, 0, 1)),
    "B": ((1, 1, 0), (-1, 0, 0), (0, 0, 1)),
    "L": ((0, 1, 0), (0, -1, 0), (0, 0, 1)),
    "R": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}

_CHART_O = np.array([_CHART_DATA[f][0] for f in FACE_NAMES], dtype=np.int64)
# (6, 3, 2): each chart's axes [e_u | e_v] as columns
_CHART_AXES = np.array([_CHART_DATA[f][1:] for f in FACE_NAMES], dtype=np.int64).transpose(0, 2, 1)
_CHART_N = np.cross(_CHART_AXES[:, :, 0], _CHART_AXES[:, :, 1])  # outward normals

# planar rotations by k*90 degrees, counter-clockwise
_ROT2_COS = np.array([1, 0, -1, 0], dtype=np.int64)
_ROT2_SIN = np.array([0, 1, 0, -1], dtype=np.int64)
_ROT2 = np.array([[[c, -s], [s, c]] for c, s in zip(_ROT2_COS, _ROT2_SIN)])  # (4, 2, 2)

# edge id -> outward chart normal; 0: u=0, 1: u=1, 2: v=0, 3: v=1
_EDGE_OUT = np.array([(-1, 0), (1, 0), (0, -1), (0, 1)], dtype=np.int64)

# face -> (column, row) of its square in the rendered cross net
_NET_SLOT = {"L": (0, 1), "F": (1, 1), "R": (2, 1), "B": (3, 1),
             "U": (1, 2), "D": (1, 0)}
_NET_SLOTS = np.array([_NET_SLOT[f] for f in FACE_NAMES], dtype=np.int64)


def _build_transitions():
    """Derive the (face, edge) -> (next face, rotation, shift) table.

    Leaving face f across edge e heads along w, the edge's outward chart
    normal written in 3-D, and the neighbour g is the face whose outward
    normal is w.  Folding g flat about the edge turns w into -n_f, so the
    rotation R is f's chart axes under x -> x - (x.w)(w + n_f) read in g's
    axes, and the shift c makes p -> R @ p + c fix the edge's corner
    p0 = max(out, 0).  Both are integers because all charts are grid aligned.
    """
    nxt = np.zeros((6, 4), dtype=np.int64)
    rot = np.zeros((6, 4), dtype=np.int64)
    shift = np.zeros((6, 4, 2), dtype=np.int64)
    for f in range(6):
        axes = _CHART_AXES[f]
        for e, out in enumerate(_EDGE_OUT):
            w = axes @ out
            (g,) = [g for g in range(6) if np.array_equal(_CHART_N[g], w)]
            read = _CHART_AXES[g].T
            r = read @ (np.eye(3, dtype=np.int64) - np.outer(w + _CHART_N[f], w)) @ axes
            (k,) = [k for k in range(4) if np.array_equal(_ROT2[k], r)]
            p0 = np.maximum(out, 0)
            c = read @ (_CHART_O[f] + axes @ p0 - _CHART_O[g]) - r @ p0
            # a quarter side past the edge's midpoint must land inside the neighbour chart
            image = r @ (0.5 + 0.75 * out) + c
            assert 0.0 < image[0] < 1.0 and 0.0 < image[1] < 1.0, (f, e)
            nxt[f, e], rot[f, e], shift[f, e] = g, k, c
    return nxt, rot, shift


_NEXT_FACE, _TRANS_ROT, _TRANS_SHIFT = _build_transitions()


class _FacePaths(NamedTuple):
    """The face paths from one source face, a row each (``_build_face_paths``)."""

    end: np.ndarray  # (n,) last face
    depth: np.ndarray  # (n,) edges crossed
    step_rot: np.ndarray  # (n, 5, 2, 2) step i: R, identity past the depth
    step_shift: np.ndarray  # (n, 5, 2) step i: c, zero past the depth
    rot: np.ndarray  # (n, 2, 2) the steps composed
    shift: np.ndarray  # (n, 2)
    corners: np.ndarray  # (n, 6, 2) developed faces, the last one repeated


def _build_face_paths():
    """Every simple face path from each source face, developed into its chart.

    A path is a chain of faces, each entered across an edge of the one before
    and none visited twice; the trivial path comes first, the rest follow in
    depth-first order of edge ids.  Step i develops face i of the path into
    the chart of face i-1 (the inverse of the tracer's crossing transition):
    a point q there sits at R @ q + c * side.  Composed, the steps map the
    last face into the source chart, where each face of the path develops to
    the square [corner, corner + 1] * side.  Integers, in side units.
    """
    # Python ints throughout, each matrix a flat (a, b, c, d) row-major tuple:
    # numpy arrays are made once per column
    eye, zero = (1, 0, 0, 1), (0, 0)
    rot2 = [tuple(r) for r in _ROT2.reshape(4, 4).tolist()]
    step = [[(g, r, (-(r[0] * x + r[1] * y), -(r[2] * x + r[3] * y)))
             for g, k, (x, y) in zip(_NEXT_FACE[f].tolist(), _TRANS_ROT[f].tolist(),
                                     _TRANS_SHIFT[f].tolist())
             for r in [rot2[-k % 4]]] for f in range(6)]
    columns = [[] for _ in _FacePaths._fields]  # every source face's rows, flattened

    def walk(faces, rots, shifts, rot, shift, corners):
        depth = len(faces) - 1
        pad = 5 - depth
        row = ((faces[-1],), (depth,), rots + eye * pad, shifts + zero * pad,
               rot, shift, corners + corners[-2:] * pad)
        for column, values in zip(columns, row):
            column.extend(values)
        a, b, c, d = rot
        for g, (e, f, h, k), (x, y) in step[faces[-1]]:
            if g not in faces:
                r_all = (a * e + b * h, a * f + b * k, c * e + d * h, c * f + d * k)
                c_all = (a * x + b * y + shift[0], c * x + d * y + shift[1])
                corner = (c_all[0] + min(r_all[0], 0) + min(r_all[1], 0),
                          c_all[1] + min(r_all[2], 0) + min(r_all[3], 0))
                walk(faces + [g], rots + (e, f, h, k), shifts + (x, y), r_all, c_all,
                     corners + corner)

    for f0 in range(6):
        walk([f0], (), (), eye, zero, zero)
    assert len(columns[0]) == 6 * 133
    shapes = [(), (), (5, 2, 2), (5, 2), (2, 2), (2,), (6, 2)]
    arrays = [np.array(column, dtype=np.int64).reshape(6, 133, *shape)
              for column, shape in zip(columns, shapes)]
    return [_FacePaths(*(a[f0] for a in arrays)) for f0 in range(6)]


_FACE_PATHS = _build_face_paths()
# [source face][end face]: the paths a distance minimises over
_FACE_PATHS_TO = [[_FacePaths(*(a[t.end == f] for a in t)) for f in range(6)]
                  for t in _FACE_PATHS]


def _build_group_table():
    """``[f0, f, r]``: the cube rotation a ray carries from the source face
    f0 to face f developed with in-plane rotation r.

    A developed chart with in-plane rotation r realises the 3D frame
    [e_u', e_v', n] = [A @ R(-r) | n].  The 24 frames are the 24 rotations of
    the cube, indexed in reverse lexicographic ravel order (which puts the
    identity at 0); the ray carries frame(f, r) composed with the inverse of
    the source frame frame(f0, 0).
    """
    frames = np.zeros((6, 4, 3, 3), dtype=np.int64)
    frames[..., :2] = _CHART_AXES[:, None] @ _ROT2[-np.arange(4) % 4]
    frames[..., 2] = _CHART_N[:, None]
    keys = sorted((tuple(m.ravel()) for m in frames.reshape(24, 3, 3)), reverse=True)
    index = {key: i for i, key in enumerate(keys)}
    assert len(index) == 24 and keys[0] == tuple(np.eye(3, dtype=np.int64).ravel())
    return np.array([[[index[tuple((frames[f, r] @ frames[f0, 0].T).ravel())]
                       for r in range(4)] for f in range(6)] for f0 in range(6)], dtype=np.int64)


_GROUP = _build_group_table()

_HASH_PRIME = np.uint64(1099511628211)
_HASH_SEED = np.uint64(14695981039346656037)


# ---------------------------------------------------------------------------
# batched geodesic evaluation


@dataclass
class GeodesicBatch:
    """Struct-of-arrays result of evaluating many directions at one time.

    ``thetas`` holds the evaluated directions, one row each, and every other
    column is read along it.  ``pos`` holds fundamental-domain coordinates
    ((u, v) for the cube, whose face lives in ``face``; ``face`` is None on
    the other surfaces).  ``cover`` holds development-plane coordinates; for
    the disk the development is the identity, so cover equals pos.
    ``sheet`` identifies the development sheet of each ray: on the cube a
    rolling hash of the face sequence plus its length, shape (n, 2); on the
    other surfaces, which have one sheet, shape (n, 0).  Rays on a common
    sheet have directly comparable cover coordinates.
    """

    thetas: np.ndarray
    pos: np.ndarray
    cover: np.ndarray
    alive: np.ndarray
    death_time: np.ndarray
    refl: np.ndarray
    group: np.ndarray
    sheet: np.ndarray
    face: np.ndarray | None = None

    def rows(self, index) -> GeodesicBatch:
        """Every column taken at ``index``, as a plain batch (also from a
        ``Front``); a ``face`` of None stays None."""
        return GeodesicBatch(**{
            f.name: None if (col := getattr(self, f.name)) is None else col[index]
            for f in fields(GeodesicBatch)
        })


def _empty_planar_batch(thetas, pos, cover, refl=None) -> GeodesicBatch:
    n = pos.shape[0]
    return GeodesicBatch(
        thetas=thetas,
        pos=pos,
        cover=cover,
        alive=np.ones(n, dtype=bool),
        death_time=np.full(n, np.inf),
        refl=np.zeros(n, dtype=np.int64) if refl is None else refl,
        group=np.zeros(n, dtype=np.int64),
        sheet=np.empty((n, 0), dtype=np.uint64),
    )


def _fold(w: np.ndarray, length: float) -> np.ndarray:
    # tent map with period 2*length: identity on [0, L], mirrored on [L, 2L]
    r = np.mod(w, 2.0 * length)
    return length - np.abs(r - length)


def _eval_cube(surface: CubeSurface, source: CubePoint, thetas, t, on_cross=None):
    """Walk face crossings of the straight development, all rays at once.

    Each loop iteration advances every still-active ray across one face.
    Per ray the walk tracks the chart position/direction, the in-plane
    development rotation r and shift (giving cover coordinates), and a
    rolling hash of the face sequence (the development sheet).  Rays whose
    exit point falls within the corner tolerance of a vertex die there.
    The working arrays hold the active rays only, in ray order: a ray's
    final values are written out when it ends, and the arrays are compacted
    in the iterations where some ray ended.  ``on_cross``, if given,
    receives the faces entered at each iteration, in ray order.
    """
    side = surface.side
    # a developed ray crosses at most sqrt(2)*t/side + 2 lines of the side lattice
    per_ray = math.sqrt(2.0) * t / side + 2.0
    delta = CORNER_TOL * side
    n = thetas.shape[0]
    # as WALK_BUDGET = WALK_ITERATION_RAYS * EVENT_BUDGET, this bounds per_ray too
    charge = (n + WALK_ITERATION_RAYS) * per_ray
    if charge > WALK_BUDGET:
        raise NumericalFailureError(
            f"{n} cube rays to t={t!r} cost {charge:.3g} face crossings "
            f"(each iteration counted as {WALK_ITERATION_RAYS} more rays), "
            f"more than WALK_BUDGET={WALK_BUDGET}"
        )

    # final values, per ray
    face0 = FACE_INDEX[source.face]
    end_pu = np.full(n, float(source.u))
    end_pv = np.full(n, float(source.v))
    end_face = np.full(n, face0, dtype=np.int64)
    end_rot = np.zeros(n, dtype=np.int64)
    end_tvu = np.zeros(n)
    end_tvv = np.zeros(n)
    end_hh = (np.full(n, _HASH_SEED, dtype=np.uint64) * _HASH_PRIME) ^ np.uint64(face0 + 1)
    end_hl = np.ones(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    death = np.full(n, np.inf)

    # working values, per active ray
    m = n if t > 0.0 else 0
    ray = np.arange(m)
    face = np.full(m, face0, dtype=np.int64)
    pu = np.full(m, float(source.u))
    pv = np.full(m, float(source.v))
    du = np.cos(thetas[:m])
    dv = np.sin(thetas[:m])
    rot = np.zeros(m, dtype=np.int64)
    tvu = np.zeros(m)
    tvv = np.zeros(m)
    trem = np.full(m, float(t))
    tgone = np.zeros(m)
    hh = end_hh[:m].copy()
    # crossing transitions by code 4 * face + edge; edges 0: u=0, 1: u=1, 2: v=0, 3: v=1
    step_face, step_rot = _NEXT_FACE.ravel(), _TRANS_ROT.ravel()
    step_cos, step_sin = _ROT2_COS.take(step_rot) * 1.0, _ROT2_SIN.take(step_rot) * 1.0
    shift_u, shift_v = (_TRANS_SHIFT.reshape(24, 2) * side).T
    step_hash = (step_face + 1).astype(np.uint64)
    # by key 24 * rotation + code: the development rotation after the crossing
    # and the translation it takes off, each entry computed as a ray's would be
    rot_next = (np.arange(4)[:, None] - step_rot) & 3
    rc, rs = _ROT2_COS.take(rot_next), _ROT2_SIN.take(rot_next)
    rot_next, tvu_step, tvv_step = (
        a.ravel() for a in (rot_next, rc * shift_u - rs * shift_v, rs * shift_u + rc * shift_v))

    events = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while ray.size:
            events += 1
            if events > EVENT_BUDGET:
                raise NumericalFailureError(
                    f"cube tracing exceeded EVENT_BUDGET={EVENT_BUDGET} face crossings per ray"
                )
            upos, vpos = du > 0, dv > 0
            su = np.where(upos, side - pu, -pu)
            su /= du
            np.copyto(su, np.inf, where=du == 0)
            sv = np.where(vpos, side - pv, -pv)
            sv /= dv
            np.copyto(sv, np.inf, where=dv == 0)
            s = np.minimum(su, sv)
            cu = su <= sv
            done = trem <= s
            # exit point, with the crossed coordinate snapped onto the wall
            peu = np.where(cu, upos * side, pu + s * du)
            pev = np.where(cu, pv + s * dv, vpos * side)
            along = np.where(cu, pev, peu)
            hit_corner = ~done & ((along < delta) | (along > side - delta))
            ended = done | hit_corner
            code = 4 * face + np.where(cu, upos, vpos + 2)
            e = np.flatnonzero(ended)
            if e.size:
                k, fin, tr = ray.take(e), done.take(e), trem.take(e)
                end_pu[k] = np.where(fin, pu.take(e) + tr * du.take(e), peu.take(e))
                end_pv[k] = np.where(fin, pv.take(e) + tr * dv.take(e), pev.take(e))
                end_face[k], end_rot[k] = face.take(e), rot.take(e)
                end_tvu[k], end_tvv[k] = tvu.take(e), tvv.take(e)
                end_hh[k], end_hl[k] = hh.take(e), events  # faces entered so far, the source's too
                if not fin.all():
                    c = np.flatnonzero(hit_corner)
                    alive[ray.take(c)] = False
                    death[ray.take(c)] = tgone.take(c) + s.take(c)
                go = np.flatnonzero(~ended)
                if not go.size:
                    break
                ray, code, du, dv = (a.take(go) for a in (ray, code, du, dv))
                rot, tvu, tvv, trem, tgone = (a.take(go) for a in (rot, tvu, tvv, trem, tgone))
                hh, s, peu, pev = (a.take(go) for a in (hh, s, peu, pev))
            face = step_face.take(code)
            if on_cross is not None:
                on_cross(face)
            c, sn = step_cos.take(code), step_sin.take(code)
            shu, shv = shift_u.take(code), shift_v.take(code)
            pu = c * peu - sn * pev + shu
            np.minimum(np.maximum(pu, 0.0, out=pu), side, out=pu)
            pv = sn * peu + c * pev + shv
            np.minimum(np.maximum(pv, 0.0, out=pv), side, out=pv)
            du, dv = c * du - sn * dv, sn * du + c * dv
            key = rot * 24
            key += code
            rot = rot_next.take(key)
            tvu -= tvu_step.take(key)
            tvv -= tvv_step.take(key)
            hh *= _HASH_PRIME
            hh ^= step_hash.take(code)
            tgone += s
            trem -= s

    rc, rs = _ROT2_COS[end_rot], _ROT2_SIN[end_rot]
    cover = np.stack(
        [rc * end_pu - rs * end_pv + end_tvu, rs * end_pu + rc * end_pv + end_tvv], axis=1
    )
    group = _GROUP[face0, end_face, end_rot]
    sheet = np.stack([end_hh, end_hl.astype(np.uint64)], axis=1)
    return GeodesicBatch(
        thetas=thetas,
        pos=np.stack([end_pu, end_pv], axis=1),
        cover=cover,
        alive=alive,
        death_time=death,
        refl=np.zeros(n, dtype=np.int64),
        group=group,
        sheet=sheet,
        face=end_face,
    )


def _require_time(t: float) -> None:
    if not (t >= 0 and math.isfinite(t)):
        raise PreconditionError("time must be finite and nonnegative")


def evaluate_batch(surface: SurfaceModel, source, thetas, t: float) -> GeodesicBatch:
    """Evaluate unit-speed geodesics from ``source`` for an array of angles.

    Pure in (source, thetas, t): identical inputs give bitwise identical
    outputs regardless of how directions are batched, which is what makes
    adaptive refinement reproducible.  A batch with a non-finite position
    (a disk radius so small that the tangent slide overflows) is refused.
    """
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    _require_time(t)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned of
        batch = surface.evaluate(source, thetas, t)
    if not np.isfinite(batch.pos).all():
        bad = np.flatnonzero(~np.isfinite(batch.pos).all(axis=1))[0]
        raise NumericalFailureError(
            f"geodesics at t={t!r} end at non-finite positions, the first at "
            f"theta={float(thetas[bad])!r}"
        )
    return batch


# ---------------------------------------------------------------------------
# scalar API


def exp_point(surface: SurfaceModel, source, theta: float, t: float):
    """Evaluate one geodesic: returns (surface point, CoverPoint, alive).

    ``theta`` is accepted on the closed interval [0, 2*pi] so that a full
    circle of directions, sampled inclusively, stays within the contract.
    """
    if not 0.0 <= theta <= TWO_PI:
        raise PreconditionError("direction angle must lie in [0, 2*pi]")
    source = surface.validate_point(source, forbid_vertex=True)
    batch = evaluate_batch(surface, source, np.array([theta]), t)
    point = surface.point_at(batch.pos, batch.face, 0)
    return point, CoverPoint.at(batch, 0), bool(batch.alive[0])


def trace_cube_ray(side: float, source: CubePoint, theta: float, t: float):
    """Trace a single cube ray; returns (point, face_history, group_elem, alive).

    ``face_history`` is the ordered tuple of faces entered, starting with the
    source face.  ``group_elem`` indexes the rotation mapping the source face
    frame to the final face frame through the development (one of the 24
    orientation-preserving cube rotations).
    """
    surface = CubeSurface(side)
    source = surface.validate_point(source, forbid_vertex=True)
    _require_time(t)
    history = [FACE_INDEX[source.face]]
    batch = _eval_cube(
        surface, source, np.array([theta], dtype=np.float64), t,
        on_cross=lambda faces: history.extend(faces.tolist()),
    )
    point = surface.point_at(batch.pos, batch.face, 0)
    faces = tuple(FACE_NAMES[f] for f in history)
    return point, faces, int(batch.group[0]), bool(batch.alive[0])


# ---------------------------------------------------------------------------
# geodesic distance


def cube_geodesic_distance(side: float, f1: int, p1: np.ndarray, f2: int, p2: np.ndarray):
    """Geodesic distances on the cube from points ``p1[k]`` of face ``f1`` to
    ``p2[k]`` of face ``f2`` ((K, 2) arrays): the shortest straight unfoldings.

    A shortest path visits each face at most once and develops to a straight
    segment that crosses every shared edge in order (Sharir & Schorr, SIAM J.
    Comput. 15(1), 1986).  So this is the least developed chord from p1 to p2
    over the face paths from f1 to f2 whose chord passes through the path's
    developed faces in turn: each such chord is a path on the surface and a
    shortest path is one of them, so the value is exact.  The faces are
    closed (a chord may run along an edge) and widened by 1e-12 * side
    against rounding.  Each row is computed as a one-row call would be.
    """
    paths = _FACE_PATHS_TO[f1][f2]
    # develop p2 along the paths (axes: xy, pair, path); R is 0/+-1, so only adding c rounds
    rot, shift = paths.step_rot.transpose(1, 2, 3, 0), paths.step_shift.transpose(1, 2, 0) * side
    img = p2.T[:, :, None]
    for i in range(4, -1, -1):  # innermost step first; padding steps are identities
        img = rot[i, :, 0, None] * img[0] + rot[i, :, 1, None] * img[1] + shift[i, :, None]
    d = img - p1.T[:, :, None]
    # where the chord enters and leaves each developed face (axes: xy, face, pair, path)
    lo = paths.corners.T[:, :, None, :] * side - (p1 + 1e-12 * side).T[:, None, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = lo / d[:, None]
        tb = (lo + side * (1.0 + 2e-12)) / d[:, None]
    enter, leave = np.maximum(*np.minimum(ta, tb)), np.minimum(*np.maximum(ta, tb))
    # the chord passes from face k-1 to face k at the earliest parameter allowed
    s = np.maximum.accumulate(np.maximum(enter, 0.0), axis=0)
    ok = (s[1:] <= leave[:-1]).all(axis=0) & (s[-1] <= 1.0)
    return np.where(ok, np.hypot(d[0], d[1]), np.inf).min(axis=1)


def surface_distance(surface: SurfaceModel, q1, q2) -> float:
    """Exact geodesic distance between two valid surface points.

    Torus and Klein bottle distances minimise over deck-group images;
    rectangle and disk distances are straight chords (the tables are
    convex); cube distances minimise over the straight unfoldings of every
    face path (see ``cube_geodesic_distance``).
    """
    pos, face = surface.point_rows([surface.validate_point(q1), surface.validate_point(q2)])
    return float(surface.distances(pos, face, np.array([0]), np.array([1]))[0])
