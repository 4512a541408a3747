"""Wave front propagation: adaptive direction sampling and split tracking.

A front is the set of geodesic endpoints exp_P(t * v(theta)) for theta in a
direction arc.  It is represented by an ordered set of sampled directions,
refined by bisection until adjacent surface images are within ``h_max`` of
each other.  Refinement carries the ends of the gaps still open: in the
first round as indices into the evaluated batch, then as the few columns
the pair test reads.  Each round evaluates their midpoints in one batch
and re-tests only the two halves of each bisected gap; the midpoint
batches of all rounds are sorted into the front once, at the end, column
by column, each input column freed once merged.  Because evaluation is
exact at any time (see ``surfaces``), propagation re-evaluates samples
rather than stepping them, so results are pure functions of (surface,
source, arc, parameters, target time).

On the cube the flow is discontinuous at vertex-hitting directions: the
front tears there.  Tears are detected by comparing the development-sheet
identity (face-history hash) of adjacent samples and bisecting divergent
pairs until a dead witness direction is found (or the gap closes to
``THETA_MIN``).  Components are maximal direction runs whose image has
stayed connected; each split is timed by the death time of the ray that
witnessed it, so split times are exact rather than quantized.  A run
inherits split times from the previous front's component that owns the
last previous sample at or below the run's first direction.  This is
exact because propagation only adds directions and never bisects a
previous gap across a cut.

Torus, Klein bottle, rectangle and disk flows are continuous in the
direction, so their fronts are always a single component; only the cube
tears, at the directions that run into a vertex.  Every surface still goes
through the same refinement and assembly: each batch carries its
directions and a sheet column, of width 0 off the cube, so there no pair
is cross-sheet, no tear is declared and the one live run is the whole
front.

Every time series lists its times with ``time_grid`` and walks one front
through them with ``fronts``, so the samples of one time seed the next.
The walk measures each front as it is built and then keeps only what the
next step reads of it, so a series holds one front plus the parent's
directions, never two whole fronts.  On the cube that includes where each
ray's walk stopped, for up to ``RESUME_TIMES`` next times, so the next
step resumes the rays instead of walking them again from the source.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .surfaces import (
    RESUME_COLUMNS,
    TWO_PI,
    GeodesicBatch,
    NumericalFailureError,
    PreconditionError,
    SurfaceModel,
    evaluate_batch,
)

_FULL_TOL = 1e-12

# Smallest direction gap bisection may produce.
THETA_MIN = 1e-12
# Most samples one front may hold.
SAMPLE_BUDGET = 2**22
# Most points one time grid may list.
TIME_GRID_BUDGET = 10**6
# Most later times one step of ``fronts`` keeps each cube ray's remaining
# walk for: a series walks its rays from the source once every
# RESUME_TIMES + 1 steps and resumes them at the others.
RESUME_TIMES = 3


@dataclass(frozen=True)
class ArcInterval:
    """Closed interval of initial directions [theta_lo, theta_hi]."""

    theta_lo: float
    theta_hi: float

    def __post_init__(self):
        if not self.theta_lo <= self.theta_hi:
            raise PreconditionError("arc needs theta_lo <= theta_hi")
        if self.theta_hi - self.theta_lo > TWO_PI + _FULL_TOL:
            raise PreconditionError("arc wider than a full circle")

    @property
    def width(self) -> float:
        return self.theta_hi - self.theta_lo

    @property
    def is_full_circle(self) -> bool:
        return abs(self.width - TWO_PI) <= _FULL_TOL


FULL_CIRCLE = ArcInterval(0.0, TWO_PI)


@dataclass(frozen=True)
class PropagationParams:
    """The one free propagation parameter.

    h_max: target spatial resolution between adjacent samples.

    The direction gap floor ``THETA_MIN`` and the cap ``SAMPLE_BUDGET`` are
    fixed values of this module.
    """

    h_max: float

    def __post_init__(self):
        if not (math.isfinite(self.h_max) and self.h_max > 0):
            raise PreconditionError("h_max must be positive and finite")


def default_params(surface: SurfaceModel) -> PropagationParams:
    """Default parameters scaled to the surface size."""
    return PropagationParams(0.005 * surface.min_extent)


@dataclass
class FrontComponent:
    """A maximal direction run whose image has stayed connected.

    ``interval`` spans the run; wrap-around components (live across the
    theta = 0 seam of a full-circle arc) use theta_hi > 2*pi.  ``segments``
    are index ranges into the front's global sample arrays (two ranges for
    a wrap-around component, otherwise one).  The next step's runs find
    their parent by these segments: it owns the last sample at or below a
    run's first direction, and its segment ends tell inherited boundaries
    from new ones.
    """

    interval: ArcInterval
    split_time: float
    segments: tuple

    @property
    def live_sample_count(self) -> int:
        return sum(stop - start for start, stop in self.segments)

    @property
    def sample_indices(self) -> np.ndarray:
        return np.concatenate(
            [np.arange(start, stop) for start, stop in self.segments]
        )


@dataclass(kw_only=True)
class Front(GeodesicBatch):
    """A propagated wave front: the evaluation of its directions at ``t``.

    The per-sample columns (a ``GeodesicBatch``, directions and sheet
    included) are ordered by ``thetas`` and include dead directions; the
    components index into them.  Every front holds all of them, those read
    back from snapshots included.  Its arc is wider than ``THETA_MIN``,
    however it was built.  ``later`` lists the times its ``walk`` column
    keeps each ray's remaining walk for (none unless ``fronts`` built it
    and another step follows; never in a snapshot).
    """

    surface: SurfaceModel
    source: object
    t: float
    arc: ArcInterval
    params: PropagationParams
    components: list
    later: tuple = ()

    def __post_init__(self):
        if not self.arc.width > THETA_MIN:
            raise PreconditionError(f"arc width must exceed THETA_MIN={THETA_MIN!r}")

    @property
    def sample_count(self) -> int:
        return self.thetas.shape[0]

    @property
    def dead_directions(self) -> list:
        idx = np.nonzero(~self.alive)[0]
        return [(float(self.thetas[i]), float(self.death_time[i])) for i in idx]

    @property
    def resume(self) -> dict:
        """The columns a walk to ``later[0]`` resumes these rays from, in a
        new dict that the walk empties as it reads it (``evaluate_batch``'s
        ``start``); empty when the walk kept no later time."""
        return {name: getattr(self, name) for name in RESUME_COLUMNS} if self.later else {}


# ---------------------------------------------------------------------------
# construction and propagation


def init_front(
    surface: SurfaceModel,
    source,
    arc: ArcInterval = FULL_CIRCLE,
    n0: int = 1024,
    params: PropagationParams | None = None,
) -> Front:
    """Front at t = 0: one component, n0 equally spaced samples over the arc.

    The spacing is inclusive of both arc endpoints; on a full circle the
    first and last samples are the same direction, which closes the polyline.
    """
    if n0 < 4:
        raise PreconditionError("need at least 4 initial samples")
    source = surface.validate_point(source, forbid_vertex=True)
    if params is None:
        params = default_params(surface)
    if n0 > SAMPLE_BUDGET:
        raise NumericalFailureError(f"sample budget {SAMPLE_BUDGET} exceeded by n0={n0}")
    thetas = np.linspace(arc.theta_lo, arc.theta_hi, n0)
    batch = evaluate_batch(surface, source, thetas, 0.0)
    comp = FrontComponent(interval=arc, split_time=0.0, segments=((0, n0),))
    return Front(surface=surface, source=source, t=0.0, arc=arc, params=params,
                 components=[comp], **vars(batch))


def _pair_needs_bisection(surface, tt, params, a, b) -> np.ndarray:
    """Mask of the direction pairs (row i of batch a, row i of batch b) that
    refinement bisects.

    A pair needs bisection when its development chord exceeds h_max (the
    chord bounds the surface distance, and unlike the surface distance it
    cannot alias to a small value when the images wrap close together),
    when its sheets diverge on the cube (bisection then brackets the tear,
    normally ending in a dead witness direction), or across a
    reflection-count change, which only the disk has (the front has a
    corner there that chords can cut; rays a gap apart end at most
    (t + width) * gap apart).  A pair flanking a dead direction is bisected
    toward the tear, so the component's samples extend all the way to the
    vanished direction.  No pair closer than THETA_MIN is bisected.  The
    test reads the pair alone, so its answer does not depend on the rest
    of the front.  Each column is read once, and the masks are built from
    1-D column differences in place: no (n, 2) temporary.
    """
    h = params.h_max
    gap = b.thetas - a.thetas
    wide = gap > THETA_MIN
    gap *= tt + surface.box[1]
    kink = a.refl != b.refl
    kink &= gap > h
    del gap
    ca, cb = a.cover, b.cover
    chord = cb[:, 0] - ca[:, 0]
    dy = cb[:, 1] - ca[:, 1]
    np.hypot(chord, dy, out=chord)
    del ca, cb, dy
    need = chord > h
    del chord
    need |= ~_sheets_match(a.sheet, b.sheet)
    need |= kink
    alive_a, alive_b = a.alive, b.alive
    need &= alive_a & alive_b
    need |= alive_a ^ alive_b
    need &= wide
    return need


def _needs_bisection(surface, tt, batch, params) -> np.ndarray:
    """Mask of the adjacent direction pairs that refinement bisects (the
    rule of ``_pair_needs_bisection``).  A refined front is a fixed point:
    no pair of it needs bisection."""
    return _pair_needs_bisection(
        surface, tt, params, batch.rows(slice(None, -1)), batch.rows(slice(1, None))
    )


# The columns ``_pair_needs_bisection`` reads: all that refinement keeps of
# the ends of a pending gap.
_PAIR_COLUMNS = ("thetas", "alive", "cover", "sheet", "refl")


class _Rows:
    """Rows ``index`` of a batch, each column gathered only when read."""

    def __init__(self, batch, index):
        self._batch, self._index = batch, index

    def __getattr__(self, name):
        return getattr(self._batch, name)[self._index]


def _refine(surface, source, tt, thetas, params, later=(), start=None):
    """Evaluate directions ``thetas`` at ``tt`` and bisect their gaps until no
    adjacent pair needs bisection.

    Every batch keeps the remaining walk of each ray for the times ``later``
    (its ``walk`` column).  The first round resumes the rays of ``thetas``
    from ``start`` where given, and empties it; the midpoints are walked from
    the source (``evaluate_batch``).

    The pending gaps have two ends, ``lo`` and ``hi``.  In the first round
    they are rows of the batch, read by index, so the pair test gathers only
    the columns it reads; from then on they hold those columns alone
    (``_PAIR_COLUMNS``).  Each round evaluates the midpoints of the pending
    gaps in one batch, ``mid``, and re-tests only the two halves of each
    gap: a gap that passed the test keeps passing it, since the test reads
    the pair alone.  The halves that still need bisection, in theta order,
    are the next round's pending gaps.  Midpoints are exact dyadic
    averages, so the refined direction set is independent of the order in
    which gaps are processed.  The batch and the midpoint batches of all
    rounds are handed over to ``_merge`` once, at the end, and no frame
    keeps them, so each column is freed once merged.  (The batch is
    evaluated here: a batch passed in would stay referenced by the caller,
    on Python 3.10 by its argument stack alone.)
    """
    batch = evaluate_batch(surface, source, thetas, tt, later, start)
    pending = np.flatnonzero(_needs_bisection(surface, tt, batch, params))
    lo, hi = _Rows(batch, pending), _Rows(batch, pending + 1)
    parts = [dict(vars(batch))]
    count = batch.thetas.size
    while (mids := 0.5 * (lo.thetas + hi.thetas)).size:
        if count + mids.size > SAMPLE_BUDGET:
            raise NumericalFailureError(
                f"sample budget {SAMPLE_BUDGET} exceeded while refining "
                f"near theta in [{float(lo.thetas[0])!r}, {float(hi.thetas[0])!r}] "
                f"at t={float(tt)!r}"
            )
        count += mids.size
        mid = evaluate_batch(surface, source, mids, tt, later)
        parts.append(dict(vars(mid)))
        halves = np.column_stack((
            _pair_needs_bisection(surface, tt, params, lo, mid),
            _pair_needs_bisection(surface, tt, params, mid, hi),
        ))
        # pending half k is half k % 2 of gap k // 2: (lo, mid) or (mid, hi)
        k = np.flatnonzero(halves)
        gap, upper = k >> 1, (k & 1).astype(bool)
        lo, hi = _pick(upper, mid, lo, gap), _pick(upper, hi, mid, gap)
        del mid  # its columns live on in parts alone
    if len(parts) == 1:
        return batch
    del batch
    return _merge(parts)


def _pick(upper, when_upper, otherwise, gap):
    """The pair-test columns of row ``gap[i]`` of ``when_upper`` where
    ``upper[i]``, else of ``otherwise``."""
    rows = gap[upper]
    out = {}
    for name in _PAIR_COLUMNS:
        col = out[name] = getattr(otherwise, name)[gap]
        col[upper] = getattr(when_upper, name)[rows]
    return SimpleNamespace(**out)


def _merge(parts):
    """One batch of the columns in ``parts`` (a dict of columns per batch:
    the refined batch, then each round's midpoints), in theta order (one
    stable sort: a midpoint lies strictly inside its gap).

    Each merged column is written part by part, each row to its sorted
    place, and each input column is popped from its part once written, so
    inputs that nothing else holds are freed column by column.  The widest
    columns go first, so that the narrower outputs can reuse the memory of
    the wider inputs.  A column that is a zero-stride view of one value in
    every part stays a view of it (the ``GeodesicBatch`` rule).
    """
    order = np.argsort(np.concatenate([p["thetas"] for p in parts]), kind="stable")
    dest = np.empty_like(order)  # the sorted place of each input row
    dest[order] = np.arange(order.size)
    del order
    rows = np.split(dest, np.cumsum([p["thetas"].shape[0] for p in parts[:-1]]))
    merged = {}
    for name in sorted(parts[0], key=lambda k: -parts[0][k].nbytes):
        first = parts[0][name][:1].copy()
        if first.size and all(p[name].strides[0] == 0
                              and p[name][:1].tobytes() == first.tobytes() for p in parts):
            merged[name] = np.broadcast_to(first, (dest.size, *first.shape[1:]))
            for part in parts:
                del part[name]
            continue
        out = merged[name] = np.empty((dest.size, *first.shape[1:]), dtype=first.dtype)
        for part, at in zip(parts, rows):
            out[at] = part.pop(name)
    return GeodesicBatch(**merged)


def _sheets_match(sa, sb):
    """Whether sheet rows ``sa`` and ``sb`` (equal shapes (n, k)) lie on one
    development sheet, shape (n,): always, for sheets of width 0 (off the
    cube)."""
    return (sa == sb).all(axis=-1)


def _gaps(surface, arrays, i, j) -> np.ndarray:
    """Front length between samples i[k] and j[k] of a batch or front: their
    development chord on a common sheet, their surface distance across
    sheets (cover coordinates of different sheets are not comparable)."""
    same = _sheets_match(arrays.sheet[i], arrays.sheet[j])
    gaps = np.empty(i.shape)
    gaps[same] = [math.hypot(*d) for d in (arrays.cover[j[same]] - arrays.cover[i[same]]).tolist()]
    gaps[~same] = surface.distances(arrays.pos, arrays.face, i[~same], j[~same])
    return gaps


def _unwitnessed_tears(batch, params, surface) -> np.ndarray:
    """Mask of live adjacent pairs severed without a dead sample between.

    These are cross-sheet gaps bisected down to THETA_MIN whose images stay
    farther apart than h_max: the tear is declared between the two samples
    even though no witness direction died.  (Cross-sheet pairs whose images
    are within h_max are left connected: the histories diverged but the
    curve shows no gap.)
    """
    tear = batch.alive[:-1] & batch.alive[1:] & (np.diff(batch.thetas) <= THETA_MIN)
    tear &= ~_sheets_match(batch.sheet[:-1], batch.sheet[1:])
    i = np.flatnonzero(tear)
    tear[i] = _gaps(surface, batch, i, i + 1) > params.h_max
    return tear


def _assemble_components(surface, arc, tt, batch, params, prev_thetas=(), parents=()) -> list:
    """Group samples into components and carry split times forward.

    Components are maximal runs of live samples not severed by a dead
    direction or an unwitnessed tear.  On a full-circle arc the first and
    last runs wrap together (theta = 0 and 2*pi are the same direction).
    Each run inherits the split time of its parent: the component of the
    previous front (``prev_thetas``, ``parents``) whose segments hold the
    last previous sample at or below the run's first direction.  That
    direction is a previous sample (live then, as death is permanent) or
    the midpoint of a previous gap bisected now, whose lower end is a live
    sample of the same previous run: refinement never bisects across a
    previous cut, since pairs flanking a dead sample or a tear are at most
    THETA_MIN apart and dead-dead pairs are never bisected.  A run flanked
    by a boundary that did not exist in the parent takes the boundary's
    time (the witness's death time when there is one, the checkpoint time
    for an unwitnessed tear).  A flank at an arc end, or at the parent's
    own first or last live direction, predates this step and is skipped.
    Without parents (a snapshot being read) every split time is 0.
    """
    thetas, alive, death = batch.thetas, batch.alive, batch.death_time
    n = thetas.shape[0]
    tear = _unwitnessed_tears(batch, params, surface)
    cut = np.flatnonzero(tear | ~(alive[:-1] & alive[1:])) + 1
    starts, stops = np.r_[0, cut], np.r_[cut, n]
    live = alive[starts]  # between two cuts: a live run or one dead sample
    runs = list(zip(starts[live].tolist(), stops[live].tolist()))
    children = [(run,) for run in runs]
    if arc.is_full_circle and len(runs) >= 2 and runs[0][0] == 0 and runs[-1][1] == n:
        children = children[1:-1] + [(runs[-1], runs[0])]
    found = _owning_parents(prev_thetas, parents, thetas[[c[0][0] for c in children]])
    comps = []
    for segments, parent in zip(children, found):
        s, e = segments[0][0], segments[-1][1]
        first, last = float(thetas[s]), float(thetas[e - 1])
        split = 0.0
        if parent is not None:
            split = parent.split_time
            if s > 0 and first != prev_thetas[parent.segments[0][0]]:
                split = max(split, tt if tear[s - 1] else float(death[s - 1]))
            if e < n and last != prev_thetas[parent.segments[-1][1] - 1]:
                split = max(split, tt if tear[e - 1] else float(death[e]))
        comps.append(FrontComponent(
            interval=ArcInterval(first, last + TWO_PI if len(segments) == 2 else last),
            split_time=split,
            segments=segments,
        ))
    return comps


def _owning_parents(prev_thetas, parents, firsts) -> list:
    """The parent of each child run with first direction in ``firsts``
    (the rule of ``_assemble_components``), or None, for a split time of 0,
    where no parent owns that previous sample: only hand-built fronts do.
    """
    # owner[i + 1] is the parent holding previous sample i; owner[0] stands
    # for a direction below every previous sample
    owner = np.full(len(prev_thetas) + 1, -1)
    for k, parent in enumerate(parents):
        for start, stop in parent.segments:
            owner[start + 1:stop + 1] = k
    below = owner[np.searchsorted(prev_thetas, firsts, side="right")]
    return [parents[k] if k >= 0 else None for k in below.tolist()]


def propagate(front: Front, t_target: float, later=()) -> Front:
    """Advance a front to a later time; returns a new Front.

    A direction's evaluation at a time does not depend on the checkpoints
    before it, so the front jumps straight to the target time.  Nothing is
    lost in between: every corner passage since t = 0 is recorded in the
    cumulative face-history sheets compared during refinement, and each
    tear is timed by the death time of its bisection witness (the exact
    moment that direction's ray hit the vertex), which is sharper than any
    checkpoint spacing.  The flat surfaces have direction-continuous flows
    and never split at all.

    A cube ray is walked from the source, unless ``front`` kept its
    remaining walk for ``t_target`` and then ``later`` (``front.later``
    begins with them): then each of ``front``'s directions resumes where
    its walk to ``front.t`` stopped, and only the new midpoints are walked
    from the source.  The bytes are the same either way.  The new front
    keeps each ray's remaining walk for ``later`` (times after
    ``t_target``), so that a step to ``later[0]`` resumes it in turn;
    ``fronts`` passes the next times of its grid.  A plain call keeps none.

    Of ``front`` it reads only ``_PARENT_FIELDS``, which is all that
    ``fronts`` keeps of a measured front.
    """
    if t_target < front.t:
        raise PreconditionError("cannot propagate backwards in time")
    surface, source, params = front.surface, front.source, front.params
    tt, later = t_target, tuple(later)
    resume = front.later[:1 + len(later)] == (tt, *later)

    batch = _refine(surface, source, tt, front.thetas, params, later,
                    front.resume if resume else None)
    components = _assemble_components(
        surface, front.arc, tt, batch, params, front.thetas, front.components
    )
    return Front(surface=surface, source=source, t=tt, arc=front.arc, params=params,
                 components=components, later=later if batch.walk.shape[1] else (),
                 **vars(batch))


def time_grid(lo: float, hi: float, step: float) -> list:
    """Every ``lo + k*step`` up to hi, inclusive to within 1e-9 steps; more
    than ``TIME_GRID_BUDGET`` points are refused."""
    span = (hi - lo) / step + 1e-9
    if not span < TIME_GRID_BUDGET:
        raise NumericalFailureError(f"time grid {lo!r}:{hi!r}:{step!r} has more points "
                                    f"than the budget TIME_GRID_BUDGET={TIME_GRID_BUDGET}")
    return [lo + k * step for k in range(int(math.floor(span)) + 1)]


# What ``propagate`` reads of the front it advances: all that ``fronts``
# keeps of a front once it is measured.
_PARENT_FIELDS = ("surface", "source", "t", "arc", "params", "thetas", "components",
                  "later", "resume")


def fronts(front: Front, times, measure):
    """Yield ``measure`` of ``front`` propagated to each of ``times`` in
    turn, step by step.

    A walk holds one front: ``front`` and each front after it are cut down
    to what ``propagate`` reads of a parent (``_PARENT_FIELDS``: its
    directions, components, time, arc, parameters, surface and source, and
    the columns its rays resume from) before the next is built, each
    measured front once it is measured.  So a caller that keeps only the
    measurements holds one front plus the parent's directions, never two
    whole fronts.  The resume columns are dropped as soon as the next
    step's first round has read them.

    Each step keeps each cube ray's remaining walk for up to
    ``RESUME_TIMES`` next times of the grid, so the steps to them resume
    the parent's rays instead of walking them again from the source.  Once
    those times are used up, the next step walks from the source again.
    The last front keeps none.
    """
    times, front = list(times), _parent(front)
    for i, t in enumerate(times):
        if front.later[:1] == (t,):
            later = front.later[1:]
        else:
            later = tuple(times[i + 1:i + 1 + RESUME_TIMES])
        front = propagate(front, t, later)
        value = measure(front)
        front = _parent(front)
        yield value


def _parent(front) -> SimpleNamespace:
    """What ``propagate`` reads of ``front`` (``_PARENT_FIELDS``)."""
    return SimpleNamespace(**{name: getattr(front, name) for name in _PARENT_FIELDS})


# ---------------------------------------------------------------------------
# measurements


def component_lengths(front: Front) -> list:
    """Immersed polyline length of each component, in component order.

    Each segment sums its development chords, then adds the surface
    distance of each connected cross-sheet pair; a wrap-around component
    adds the gap across the theta = 0 seam.  One ``_gaps`` call serves all.
    """
    comps = front.components
    chords = np.hypot(*np.diff(front.cover, axis=0).T)
    same = _sheets_match(front.sheet[:-1], front.sheet[1:])
    inner = np.zeros(chords.shape, dtype=bool)
    for start, stop in (seg for comp in comps for seg in comp.segments):
        inner[start:stop - 1] = True
    cross = np.flatnonzero(inner & ~same).tolist()
    # the seam of a wrap-around component joins the last sample to the first
    seams = [(c.segments[0][1] - 1, c.segments[1][0]) for c in comps if len(c.segments) == 2]
    i, j = np.array([(k, k + 1) for k in cross] + seams, dtype=np.int64).reshape(-1, 2).T
    gaps = _gaps(front.surface, front, i, j).tolist()
    seam_gaps = iter(gaps[len(cross):])
    out = []
    for comp in comps:
        total = 0.0
        for start, stop in comp.segments:
            length = float(chords[start:stop - 1][same[start:stop - 1]].sum())
            for gap in gaps[bisect_left(cross, start):bisect_left(cross, stop - 1)]:
                length += gap
            total += length
        out.append(total + next(seam_gaps) if len(comp.segments) == 2 else total)
    return out


def front_length(front: Front) -> float:
    """Total immersed front length (sum over components, with multiplicity)."""
    return float(sum(component_lengths(front)))


def component_count(front: Front) -> int:
    """Number of components carrying at least two live samples."""
    return sum(1 for c in front.components if c.live_sample_count >= 2)
