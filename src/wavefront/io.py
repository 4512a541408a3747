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

Renders are static SVG: flat surfaces in their rectangular viewport, the
disk in its bounding square with the rim drawn, the cube as a cross net
(L F R B in a row, U above F, D below F).  Identical fronts produce
identical bytes.

The CSV writer knows no report type: callers (the CLI's table
subcommands) pass the header and the rows, and every field is written
with ``str``.
"""

from __future__ import annotations

import json
import math
import reprlib

import numpy as np

from .frontier import SAMPLE_BUDGET, THETA_MIN, ArcInterval, Front, PropagationParams
from .frontier import _assemble_components, _needs_bisection
from .surfaces import PreconditionError, evaluate_batch, format_surface, parse_surface

SNAPSHOT_VERSION = 1

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


def emit_snapshot(front: Front) -> bytes:
    """Serialize a front to JSON bytes (schema version 1)."""
    # plain Python columns; json writes their tuples as arrays
    thetas = front.thetas.tolist()
    alive = front.alive.tolist()
    coords = list(zip(*front.surface.coordinate_columns(front.pos, front.face)))
    comps = []
    for comp in sorted(front.components, key=lambda c: c.interval.theta_lo):
        samples = []
        for start, stop in comp.segments:
            samples += zip(thetas[start:stop], coords[start:stop], alive[start:stop])
        comps.append(
            {
                "interval": [comp.interval.theta_lo, comp.interval.theta_hi],
                "split_time": comp.split_time,
                "samples": samples,
            }
        )
    doc = {
        "version": SNAPSHOT_VERSION,
        "surface": format_surface(front.surface),
        "source": front.surface.format_point(front.source),
        "t": front.t,
        "arc": [front.arc.theta_lo, front.arc.theta_hi],
        "params": {"h_max": front.params.h_max, **_fixed_params(front.surface)},
        "components": comps,
        "dead_directions": [list(pair) for pair in front.dead_directions],
    }
    return json.dumps(doc, separators=(",", ":"), allow_nan=False).encode("utf-8")


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
    their own, samples that the evaluation contradicts or that lie outside
    the arc, split times outside [0, t], gaps that refinement would bisect
    and a component list other than the assembly raise a SnapshotError.
    """
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as e:
        raise SnapshotError(f"snapshot is not UTF-8 (byte {e.start})") from None
    except json.JSONDecodeError as e:
        raise SnapshotError(
            f"malformed JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    except RecursionError:
        raise SnapshotError("JSON nested too deeply") from None
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
    doc_comps = _require_list(doc["components"], None, "components")

    # one row per sample direction, sorted by theta below; each entry's
    # samples are checked and converted a column at a time
    thetas, xs, ys, faces, alive, owner = [], [], [], [], [], []
    for ci, comp in enumerate(doc_comps):
        _require_keys(comp, ("interval", "split_time", "samples"), "component")
        samples = _require_list(comp["samples"], None, "component samples")
        _require_lists(samples, 3, "sample")
        theta, coords, live = _columns(samples, 3)
        _require_lists(coords, surface.coordinate_width, "sample coordinates")
        face, x, y = surface.split_coordinates(_columns(coords, surface.coordinate_width))
        faces.extend(face)
        thetas.extend(_reals(theta, "sample theta"))
        xs.extend(_reals(x, "sample x"))
        ys.extend(_reals(y, "sample y"))
        if not set(map(type, live)) <= {bool}:
            bad = next(v for v in live if type(v) is not bool)
            raise SnapshotError(
                f"sample alive flag must be a boolean, got {reprlib.repr(bad)}"
            )
        alive.extend(live)
        owner.extend([ci] * len(samples))
    death = [math.inf] * len(thetas)
    row_of = dict(zip(thetas, range(len(thetas))))
    if len(row_of) != len(thetas):
        raise SnapshotError("duplicate sample direction")
    for pair in _require_list(doc["dead_directions"], None, "dead_directions"):
        theta, when = _require_list(pair, 2, "dead direction")
        theta, when = _real(theta, "dead direction"), _real(when, "death time")
        i = row_of.get(theta)
        if i is None:
            thetas.append(theta)
            xs.append(math.nan)
            ys.append(math.nan)
            faces.append(0)
            alive.append(False)
            death.append(when)
            owner.append(-1)
        elif alive[i]:
            raise SnapshotError("live sample listed among dead directions")
        else:
            death[i] = when
    if not thetas:
        raise SnapshotError("snapshot has no samples")

    order = np.argsort(np.array(thetas), kind="stable")
    thetas = np.array(thetas)[order]
    alive = np.array(alive, dtype=bool)[order]
    death = np.array(death)[order]
    if np.any(~alive & ~np.isfinite(death)):
        raise SnapshotError("dead sample without a death time")

    # the front is the evaluation; the document must agree with it bitwise,
    # keep to its arc and be refined (a fixed point of bisection)
    batch = evaluate_batch(surface, source, thetas, t)
    live, pos = batch.alive, np.column_stack((xs, ys))[order]
    moved = (pos != batch.pos) | (np.signbit(pos) != np.signbit(batch.pos))
    need = _needs_bisection(surface, t, batch, params)
    for what, bad in (
        ("alive flag differs from evaluation", alive != live),
        ("position differs from evaluation", live & moved.any(axis=1)),
        ("face differs from evaluation", live & (np.array(faces)[order] != batch.face)),
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
    if len(doc_comps) != len(components):
        raise SnapshotError(
            f"{len(doc_comps)} components listed, {len(components)} assembled")
    assembled = np.full(thetas.shape[0], -1)
    for k, (entry, comp) in enumerate(zip(doc_comps, components)):
        lo, hi = _require_list(entry["interval"], 2, "component interval")
        interval = _reals([lo, hi], "component interval")
        if list(map(float.hex, interval)) != [comp.interval.theta_lo.hex(),
                                              comp.interval.theta_hi.hex()]:
            raise SnapshotError(f"component {k}: interval differs from assembly")
        comp.split_time = _real(entry["split_time"], "split_time")
        if not 0.0 <= comp.split_time <= t:
            raise SnapshotError(f"split_time {comp.split_time!r} lies outside [0, t]")
        assembled[comp.sample_indices] = k
    listed = np.array(owner)[order]
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

def _path_data(plane: np.ndarray, breaks: np.ndarray, height: float) -> str:
    parts = []
    pen_up = True
    for (x, y), lift in zip(plane.tolist(), breaks.tolist() + [True]):
        parts.append(f"{'M' if pen_up else 'L'}{x!r} {height - y!r}")
        pen_up = lift
    return "".join(parts)


def render_svg(front: Front, width_px: int = 1600) -> bytes:
    """Render a front as SVG bytes, one path per component in its own colour.

    Identification seams and the gaps between components are pen-up moves,
    so torn fronts are never visually joined.  The source is marked with a
    dot.  Output bytes are a pure function of the front.
    """
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
    ]
    lines += surface.svg_outline(
        f'fill="none" stroke="#cccccc" stroke-width="{sw!r}"'
    )

    plane_all = surface.plane(front.pos, front.face)
    for k, comp in enumerate(front.components):
        idx = comp.sample_indices
        if idx.size == 0:
            continue
        plane = plane_all[idx]
        color = _PALETTE[k % len(_PALETTE)]
        if idx.size == 1:
            x, y = float(plane[0, 0]), h - float(plane[0, 1])
            lines.append(
                f'<circle cx="{x!r}" cy="{y!r}" r="{(2 * sw)!r}" fill="{color}"/>'
            )
            continue
        breaks = surface.seam_breaks(plane)
        lines.append(
            f'<path d="{_path_data(plane, breaks, h)}" fill="none" '
            f'stroke="{color}" stroke-width="{sw!r}" stroke-linejoin="round"/>'
        )

    (x, y), = surface.plane(*surface.point_rows([front.source]))
    lines.append(
        f'<circle cx="{float(x)!r}" cy="{(h - float(y))!r}" '
        f'r="{(3 * sw)!r}" fill="#000000"/>'
    )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
