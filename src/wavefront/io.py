"""Snapshot serialization, the CSV writer, and SVG rendering.

Snapshots are JSON (schema version 1) with floats written as shortest
round-trip decimals, so parse(emit(front)) reproduces every numeric field
bit for bit.  Sample positions are stored only for live directions; dead
directions carry their death time.  Parsing evaluates the document's
directions at its time (evaluation is pure) and rejects a document whose
alive flags, live positions, cube faces or death times differ from that
evaluation, with a direction outside its arc or a split time outside
[0, t], whose direction gaps refinement would bisect further, or whose
propagation values other than ``h_max`` differ from the fixed ones.  Its
components must be the evaluated front's assembly (the one propagation
uses), listed as ``emit_snapshot`` writes it; only split times are read.
A direction listed twice is refused, except a dead component sample that
is also listed among the dead directions.

Both artifacts are written in blocks of at most ``BLOCK_ROWS`` rows
(samples, dead directions or path points), each through the one encoder,
so a writer holds one block's Python objects at a time.  The CLI writes
``snapshot_blocks`` as they come; ``emit_snapshot`` and ``render_svg``
join their blocks, so the bytes are the same either way.  Parsing drops
the input bytes once decoded (when the caller passed them on) and the
text once parsed, and copies each component's samples into numpy
columns, dropping them from the document as it goes: its peak is the
parsed document, and the evaluation runs after the document's per-sample
objects are gone.

Renders are static SVG: flat surfaces in their rectangular viewport, the
disk in its bounding square with the rim drawn, the cube as a cross net
(L F R B in a row, U above F, D below F).  Identical fronts produce
identical bytes.

The CSV writer knows no report type: callers (the CLI's table
subcommands) pass the header and the rows, and every field is written
with ``str``.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from collections.abc import Iterator

import numpy as np

from .frontier import SAMPLE_BUDGET, THETA_MIN, ArcInterval, Front, PropagationParams
from .frontier import _assemble_components, _needs_bisection
from .surfaces import PreconditionError, evaluate_batch, format_surface, parse_surface

SNAPSHOT_VERSION = 1
# rows (samples, dead directions, path points) serialized per block
BLOCK_ROWS = 4096
# the one JSON encoding of every snapshot block: floats as shortest
# round-trip decimals, no NaN or Infinity
_dumps = functools.partial(json.dumps, separators=(",", ":"), allow_nan=False)

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


class SnapshotError(ValueError):
    """Snapshot document malformed or violating the schema."""


# ---------------------------------------------------------------------------
# snapshots


def _fixed_params(surface) -> dict:
    """The propagation values recorded beside ``h_max``; no one sets them."""
    return {"theta_min": THETA_MIN, "delta_t_check": surface.delta_t_check,
            "sample_budget": SAMPLE_BUDGET}


def _json_items(blocks) -> Iterator[bytes]:
    """The items of one JSON array, written a non-empty block of rows at a
    time; every block after the first opens with its comma."""
    sep = b""
    for rows in blocks:
        yield sep + _dumps(rows)[1:-1].encode()
        sep = b","


def _sample_rows(front: Front, segments) -> Iterator[list]:
    """A component's samples as ``[theta, coordinates, alive]`` rows, in
    blocks of at most ``BLOCK_ROWS``."""
    for start, stop in segments:
        for lo in range(start, stop, BLOCK_ROWS):
            rows = slice(lo, min(lo + BLOCK_ROWS, stop))
            coords = front.surface.coordinate_columns(front.pos[rows], front.face[rows])
            yield list(zip(front.thetas[rows].tolist(), zip(*coords),
                           front.alive[rows].tolist()))


def _dead_rows(front: Front) -> Iterator[list]:
    """The ``[theta, death time]`` rows of the dead directions, in blocks."""
    dead = np.flatnonzero(~front.alive)
    for lo in range(0, dead.size, BLOCK_ROWS):
        rows = dead[lo:lo + BLOCK_ROWS]
        yield list(zip(front.thetas[rows].tolist(), front.death_time[rows].tolist()))


def snapshot_blocks(front: Front) -> Iterator[bytes]:
    """The snapshot's JSON bytes (schema version 1), at most
    ``BLOCK_ROWS`` samples or dead directions to a block."""
    head = {
        "version": SNAPSHOT_VERSION,
        "surface": format_surface(front.surface),
        "source": front.surface.format_point(front.source),
        "t": front.t,
        "arc": [front.arc.theta_lo, front.arc.theta_hi],
        "params": {"h_max": front.params.h_max, **_fixed_params(front.surface)},
    }
    yield _dumps(head)[:-1].encode() + b',"components":['
    comps = sorted(front.components, key=lambda c: c.interval.theta_lo)
    for k, comp in enumerate(comps):
        entry = {"interval": [comp.interval.theta_lo, comp.interval.theta_hi],
                 "split_time": comp.split_time}
        yield (b"," if k else b"") + _dumps(entry)[:-1].encode() + b',"samples":['
        yield from _json_items(_sample_rows(front, comp.segments))
        yield b"]}"
    yield b'],"dead_directions":['
    yield from _json_items(_dead_rows(front))
    yield b"]}"


def emit_snapshot(front: Front) -> bytes:
    """Serialize a front to JSON bytes (schema version 1)."""
    return b"".join(snapshot_blocks(front))


def _require_keys(obj, keys: tuple, where: str):
    if not isinstance(obj, dict):
        raise SnapshotError(f"{where} must be a JSON object")
    unknown = set(obj) - set(keys)
    if unknown:
        raise SnapshotError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    missing = set(keys) - set(obj)
    if missing:
        raise SnapshotError(f"missing key {sorted(missing)[0]!r} in {where}")


def _require_list(obj, length: int | None, what: str) -> list:
    if not isinstance(obj, list) or (length is not None and len(obj) != length):
        shape = "a list" if length is None else f"a list of {length}"
        raise SnapshotError(f"{what} must be {shape}, got {reprlib.repr(obj)}")
    return obj


def _require_lists(items: list, length: int, what: str):
    """Check that every item is a list of ``length``."""
    if not (set(map(type, items)) <= {list} and set(map(len, items)) <= {length}):
        for item in items:
            _require_list(item, length, what)


def _columns(rows: list, width: int) -> list:
    """Transpose checked rows into ``width`` column lists."""
    return [[row[k] for row in rows] for k in range(width)]


def _reals(values, what: str) -> list:
    """Finite JSON numbers as floats (a run of finite floats passes as is)."""
    if set(map(type, values)) <= {float} and all(map(math.isfinite, values)):
        return values
    return [_real(x, what) for x in values]


def _real(x, what: str) -> float:
    """A finite JSON number as a float (a JSON boolean is not a number)."""
    if type(x) in (float, int):
        try:
            v = float(x)
        except OverflowError:
            v = math.inf
        if math.isfinite(v):
            return v
    raise SnapshotError(f"{what} must be a finite number, got {reprlib.repr(x)}")


def parse_snapshot(data: bytes) -> Front:
    """Reconstruct a front from snapshot bytes.

    The front is the evaluation of the document's directions at its time,
    with the components ``frontier`` assembles from it.  Unknown keys,
    values of the wrong shape or type, fixed propagation values other than
    their own, a direction listed twice (a dead component sample may also
    be listed among the dead directions), samples that the evaluation
    contradicts or that lie outside the arc, split times outside [0, t],
    gaps that refinement would bisect and a component list other than the
    assembly raise a SnapshotError.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as e:
        raise SnapshotError(f"snapshot is not UTF-8 (byte {e.start})") from None
    del data  # a caller that passed its bytes on no longer holds them
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SnapshotError(
            f"malformed JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    except RecursionError:
        raise SnapshotError("JSON nested too deeply") from None
    del text
    _require_keys(
        doc,
        (
            "version", "surface", "source", "t", "arc", "params",
            "components", "dead_directions",
        ),
        "snapshot",
    )
    if type(doc["version"]) is not int or doc["version"] != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {doc['version']!r}")
    try:
        return _parse_front(doc)
    except PreconditionError as e:  # a model or interval the document spells
        raise SnapshotError(str(e)) from None


def _sample_columns(surface, samples) -> tuple:
    """Checked theta, x, y, chart and alive columns of one component's
    samples, as lists."""
    _require_lists(samples, 3, "sample")
    theta, coords, live = _columns(samples, 3)
    _require_lists(coords, surface.coordinate_width, "sample coordinates")
    face, x, y = surface.split_coordinates(_columns(coords, surface.coordinate_width))
    if not set(map(type, live)) <= {bool}:
        bad = next(v for v in live if type(v) is not bool)
        raise SnapshotError(f"sample alive flag must be a boolean, got {reprlib.repr(bad)}")
    return (_reals(theta, "sample theta"), _reals(x, "sample x"), _reals(y, "sample y"),
            face, live)


def _listed_rows(surface, entries, pairs) -> tuple:
    """Columns of every direction the document lists, and its components.

    The columns are theta, x, y, chart, alive, death time and owner: each
    component's samples in turn (owner: the component's index), then the
    dead directions (no position, chart 0, owner -1).  The second value
    holds each component's interval ends and split time, a row each.  The
    columns are allocated first and each component's samples leave the
    document once copied, so no object made while it is read outlives it
    and its memory can go back to the system.
    """
    entries = _require_list(entries, None, "components")
    pairs = _require_list(pairs, None, "dead_directions")
    listed, sizes = [], [0]
    for entry in entries:
        _require_keys(entry, ("interval", "split_time", "samples"), "component")
        interval = _require_list(entry["interval"], 2, "component interval")
        listed.append((*_reals(interval, "component interval"),
                       _real(entry["split_time"], "split_time")))
        sizes.append(len(_require_list(entry["samples"], None, "component samples")))
    starts = np.cumsum(sizes).tolist()
    n = starts[-1] + len(pairs)
    thetas, xs, ys = np.empty(n), np.full(n, math.nan), np.full(n, math.nan)
    faces, alive = np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=bool)
    death, owner = np.full(n, math.inf), np.full(n, -1, dtype=np.int32)
    for k, entry in enumerate(entries):
        rows = slice(starts[k], starts[k + 1])
        thetas[rows], xs[rows], ys[rows], faces[rows], alive[rows] = (
            _sample_columns(surface, entry.pop("samples")))
        owner[rows] = k
    _require_lists(pairs, 2, "dead direction")
    theta, when = _columns(pairs, 2)
    thetas[starts[-1]:] = _reals(theta, "dead direction")
    death[starts[-1]:] = _reals(when, "death time")
    # the interval ends and split times leave as an array: the document's
    # own float objects would keep its memory from going back
    columns = thetas, xs, ys, faces, alive, death, owner
    return columns, np.array(listed, dtype=np.float64).reshape(-1, 3)


def _parse_front(doc: dict) -> Front:
    for key in ("surface", "source"):
        if not isinstance(doc[key], str):
            raise SnapshotError(f"{key} must be a string, got {reprlib.repr(doc[key])}")
    surface = parse_surface(doc["surface"])
    source = surface.validate_point(surface.parse_point(doc["source"]), forbid_vertex=True)
    fixed = _fixed_params(surface)
    _require_keys(doc["params"], ("h_max", *fixed), "params")
    for key, value in doc["params"].items():
        _real(value, f"params {key}")
        if key in fixed and value != fixed[key]:
            raise SnapshotError(f"params {key} must be {fixed[key]!r}, got {value!r}")
    params = PropagationParams(doc["params"]["h_max"])
    lo, hi = _require_list(doc["arc"], 2, "arc")
    arc = ArcInterval(_real(lo, "arc"), _real(hi, "arc"))
    t = _real(doc["t"], "t")

    # one row per listed direction, component samples first; the document's
    # per-sample objects are gone before the evaluation below
    (thetas, xs, ys, faces, alive, death, owner), entries = _listed_rows(
        surface, doc.pop("components"), doc.pop("dead_directions"))
    if not thetas.size:
        raise SnapshotError("snapshot has no samples")

    # sorted by theta; a direction listed twice is refused, except a dead
    # component sample that is also a dead direction (-0.0 repeats 0.0)
    order = np.argsort(thetas, kind="stable")
    again = np.flatnonzero(thetas[order[1:]] == thetas[order[:-1]])
    first, second = order[again], order[again + 1]
    if np.any((owner[first] < 0) | (owner[second] >= 0)):
        raise SnapshotError("duplicate sample direction")
    if alive[first].any():
        raise SnapshotError("live sample listed among dead directions")
    death[first] = death[second]
    order = np.delete(order, again + 1)
    thetas, alive, death = thetas[order], alive[order], death[order]
    if np.any(~alive & ~np.isfinite(death)):
        raise SnapshotError("dead sample without a death time")

    # the front is the evaluation; the document must agree with it bitwise,
    # keep to its arc and be refined (a fixed point of bisection)
    batch = evaluate_batch(surface, source, thetas, t)
    live, pos = batch.alive, np.column_stack((xs[order], ys[order]))
    moved = (pos != batch.pos) | (np.signbit(pos) != np.signbit(batch.pos))
    need = _needs_bisection(surface, t, batch, params)
    for what, bad in (
        ("alive flag differs from evaluation", alive != live),
        ("position differs from evaluation", live & moved.any(axis=1)),
        ("face differs from evaluation", live & (faces[order] != batch.face)),
        ("death time differs from evaluation", ~live & (death != batch.death_time)),
        ("outside the arc", (thetas < arc.theta_lo) | (thetas > arc.theta_hi)),
        ("gap to the next sample needs bisection", np.append(need, False)),
    ):
        if bad.any():
            theta = float(thetas[np.argmax(bad)])
            raise SnapshotError(f"sample at theta={theta!r}: {what}")

    # the components are the front's assembly, listed in emit order; only
    # their split times, which depend on history, come from the document
    components = _assemble_components(surface, arc, t, batch, params)
    if len(entries) != len(components):
        raise SnapshotError(
            f"{len(entries)} components listed, {len(components)} assembled")
    assembled = np.full(thetas.shape[0], -1)
    for k, ((lo, hi, split_time), comp) in enumerate(zip(entries.tolist(), components)):
        if [lo.hex(), hi.hex()] != [comp.interval.theta_lo.hex(),
                                    comp.interval.theta_hi.hex()]:
            raise SnapshotError(f"component {k}: interval differs from assembly")
        if not 0.0 <= split_time <= t:
            raise SnapshotError(f"split_time {split_time!r} lies outside [0, t]")
        comp.split_time = split_time
        assembled[comp.sample_indices] = k
    listed = owner[order]
    stray = live & (listed != assembled)
    if stray.any():
        i = int(np.argmax(stray))
        raise SnapshotError(f"sample at theta={float(thetas[i])!r}: listed in "
                            f"component {listed[i]}, assembled into {assembled[i]}")
    return Front(surface=surface, source=source, t=t, arc=arc, params=params,
                 components=components, **vars(batch))


# ---------------------------------------------------------------------------
# CSV series


def _comment(fields: dict) -> str:
    return "# " + " ".join(f"{k}={v}" for k, v in fields.items())


def emit_series(header: str, rows, params: dict | None = None,
                footer: dict | None = None) -> bytes:
    """CSV bytes: the header line, then one line per row.

    Every field is written with ``str`` (for a float, its shortest
    round-trip decimal).  Optional '# k=v ...' lines carry the parameters
    that produced the table, before the header, and a summary such as a
    fitted slope, after the rows.
    """
    lines = [_comment(params)] if params else []
    lines.append(header)
    lines += [",".join(map(str, row)) for row in rows]
    if footer:
        lines.append(_comment(footer))
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# SVG rendering

def _path_blocks(plane: np.ndarray, breaks: np.ndarray, height: float) -> Iterator[bytes]:
    """Path data of one polyline, ``BLOCK_ROWS`` points to a block: a
    move to the first point and past every seam break, else a line."""
    pen_up = np.append(True, breaks)
    for lo in range(0, plane.shape[0], BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        yield "".join(
            f"{'M' if up else 'L'}{x!r} {height - y!r}"
            for (x, y), up in zip(plane[rows].tolist(), pen_up[rows].tolist())
        ).encode()


def _svg_blocks(front: Front, width_px: int) -> Iterator[bytes]:
    """The bytes of ``render_svg``, a component's path ``BLOCK_ROWS``
    points to a block."""
    if not width_px >= 1:
        raise PreconditionError(f"width_px={width_px!r}: need at least 1 pixel")
    surface = front.surface
    w, h = surface.viewport
    height_px = max(1, round(width_px * h / w))
    sw = 1.2 * w / width_px
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height_px}" viewBox="0 0 {w!r} {h!r}">',
        f"<!-- surface={format_surface(surface)} "
        f"source={surface.format_point(front.source)} t={front.t!r} "
        f"h_max={front.params.h_max!r} "
        + "".join(f"{k}={v!r} " for k, v in _fixed_params(surface).items()) + "-->",
        f'<rect width="{w!r}" height="{h!r}" fill="white"/>',
        *surface.svg_outline(f'fill="none" stroke="#cccccc" stroke-width="{sw!r}"'),
    ]
    yield "".join(line + "\n" for line in lines).encode()

    plane_all = surface.plane(front.pos, front.face)
    for k, comp in enumerate(front.components):
        idx = comp.sample_indices
        if idx.size == 0:
            continue
        plane = plane_all[idx]
        color = _PALETTE[k % len(_PALETTE)]
        if idx.size == 1:
            x, y = float(plane[0, 0]), h - float(plane[0, 1])
            yield (f'<circle cx="{x!r}" cy="{y!r}" r="{(2 * sw)!r}" '
                   f'fill="{color}"/>\n').encode()
            continue
        yield b'<path d="'
        yield from _path_blocks(plane, surface.seam_breaks(plane), h)
        yield (f'" fill="none" stroke="{color}" stroke-width="{sw!r}" '
               f'stroke-linejoin="round"/>\n').encode()

    (x, y), = surface.plane(*surface.point_rows([front.source]))
    yield (f'<circle cx="{float(x)!r}" cy="{(h - float(y))!r}" '
           f'r="{(3 * sw)!r}" fill="#000000"/>\n</svg>\n').encode()


def render_svg(front: Front, width_px: int = 1600) -> bytes:
    """Render a front as SVG bytes, one path per component in its own colour.

    Identification seams and the gaps between components are pen-up moves,
    so torn fronts are never visually joined.  The source is marked with a
    dot.  Output bytes are a pure function of the front.
    """
    return b"".join(_svg_blocks(front, width_px))
