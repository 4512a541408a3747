"""Output checks: every command's exit, stderr and artifacts.

Two kinds of check, each reported as a list of problem strings (empty
means the output is correct):

* ``command_problems``: exit code 0, no traceback on stderr, every artifact
  present and equal to the reference digests.  The reference is the
  recorded digest at the default seed and the first pass's digest at any
  seed, so reruns, thread settings and tracing must not change a byte.
* ``content_problems``: properties the paper's results must have, checked
  independently of the program (closed forms, bounds, brute-force counts).
* The criterion-6 disk slope is not checked: it is a standing known red of
  the test suite and no workload measures the disk.
"""

from __future__ import annotations

import hashlib
import json
import math


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_problems(cmd_id: str, code, stderr: bytes, digests: dict,
                     reference: dict | None) -> list:
    """Problems with one command's run.

    ``code`` is the exit code (None if the process was killed or never
    reported its timings), ``digests`` maps artifact name to sha256 (None if
    missing) and ``reference`` is the expected digest map, if any.
    """
    out = []
    if code != 0:
        out.append(f"{cmd_id}: exit code {code}")
    if b"Traceback (most recent call last)" in stderr:
        out.append(f"{cmd_id}: traceback on stderr")
    for name, digest in digests.items():
        if digest is None:
            out.append(f"{cmd_id}: artifact {name} missing")
        elif reference is not None and reference.get(name) != digest:
            out.append(f"{cmd_id}: artifact {name} differs from the reference")
    return out


# ---------------------------------------------------------------------------
# content checks


def _csv_rows(data: bytes):
    lines = [ln for ln in data.decode("utf-8").splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _grid(lo: float, hi: float, step: float) -> list:
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(n)]


def _cube_corners_within(point: str, t: float) -> int:
    """U-face corners strictly closer than t to a source ``U/u/v``.

    Within one face the geodesic distance is the planar one.  Each corner
    the front has passed tears it once, so a front with k >= 1 tears has at
    least k components (4 for t >= 1 at the default source U/0.5/0.5).
    """
    _, u, v = point.split("/")
    u, v = float(u), float(v)
    return sum(1 for cu in (0.0, 1.0) for cv in (0.0, 1.0)
               if math.hypot(u - cu, v - cv) < t - 1e-9)


def _density_problems(name, data, surface, point, times) -> list:
    header, rows = _csv_rows(data)
    out = []
    if header != ["t", "covering_radius", "cells_hit_fraction", "length",
                  "components"]:
        return [f"{name}: unexpected header {header}"]
    if [float(r["t"]) for r in rows] != times:
        return [f"{name}: rows do not follow the time grid"]
    for r in rows:
        t = float(r["t"])
        radius, frac = float(r["covering_radius"]), float(r["cells_hit_fraction"])
        length, comps = float(r["length"]), int(r["components"])
        if not 0.0 < frac <= 1.0:
            out.append(f"{name}: t={t}: cells hit fraction {frac} outside (0, 1]")
        if abs(length / (2.0 * math.pi * t) - 1.0) > 1e-6:
            out.append(f"{name}: t={t}: length/(2 pi t) = {length / (2 * math.pi * t)}")
        if surface == "cube":
            need = max(1, _cube_corners_within(point, t))
            if comps < need:
                out.append(f"{name}: t={t}: {comps} components, expected >= {need}")
        else:
            if radius > 3.0 / math.sqrt(t):
                out.append(f"{name}: t={t}: covering radius {radius} > 3/sqrt(t)")
            if comps != 1:
                out.append(f"{name}: t={t}: {comps} components on a flat surface")
    return out


def _components_problems(name, data, point, times) -> list:
    header, rows = _csv_rows(data)
    if header != ["t", "components"] or [float(r["t"]) for r in rows] != times:
        return [f"{name}: unexpected table"]
    out = []
    for r in rows:
        t, comps = float(r["t"]), int(r["components"])
        need = max(1, _cube_corners_within(point, t))
        if comps < need:
            out.append(f"{name}: t={t}: {comps} components, expected >= {need}")
    return out


def _verify_problems(name, data, times) -> list:
    header, rows = _csv_rows(data)
    if header[0] != "t" or header[-1] != "passed":
        return [f"{name}: unexpected header {header}"]
    if [float(r["t"]) for r in rows] != times:
        return [f"{name}: rows do not follow the time grid"]
    return [f"{name}: t={r['t']} not passed" for r in rows if r["passed"] != "True"]


def _brute_count(sq: float) -> int:
    """Integer points with m^2 + n^2 <= sq, over the whole bounding square."""
    r = math.isqrt(math.floor(sq)) + 1
    return sum(1 for m in range(-r, r + 1) for n in range(-r, r + 1)
               if m * m + n * n <= sq)


def _lattice_problems(name, data, times) -> list:
    header, rows = _csv_rows(data)
    if header != ["t", "h", "N_t", "annulus_count", "expected_area", "E_t",
                  "gauss_bound"]:
        return [f"{name}: unexpected header {header}"]
    if [float(r["t"]) for r in rows] != times:
        return [f"{name}: rows do not follow the time grid"]
    out = []
    for r in rows:
        t, h = float(r["t"]), float(r["h"])
        n_t = _brute_count(t * t)
        shell = _brute_count((t + h) * (t + h)) - n_t
        if h != 1.0 / math.sqrt(t):
            out.append(f"{name}: t={t}: h={h} is not 1/sqrt(t)")
        if int(r["N_t"]) != n_t or int(r["annulus_count"]) != shell:
            out.append(f"{name}: t={t}: counts {r['N_t']},{r['annulus_count']}"
                       f" vs brute force {n_t},{shell}")
        if abs(float(r["E_t"]) - (n_t - math.pi * t * t)) > 1e-6:
            out.append(f"{name}: t={t}: E_t {r['E_t']} != N_t - pi t^2")
    return out


def _snapshot_problems(name, data, surface, point, t) -> list:
    doc = json.loads(data)
    out = []
    if doc.get("version") != 1 or doc.get("t") != t:
        out.append(f"{name}: version {doc.get('version')} or t {doc.get('t')} wrong")
    comps = doc["components"]
    if surface == "torus":
        px, py = (float(c) for c in point.split(","))
        if len(comps) != 1:
            out.append(f"{name}: {len(comps)} components on a torus")
        worst = 0.0
        for comp in comps:
            for theta, (x, y), alive in comp["samples"]:
                for got, want in ((x, px + t * math.cos(theta)),
                                  (y, py + t * math.sin(theta))):
                    d = (got - want) % 1.0
                    worst = max(worst, min(d, 1.0 - d))
        if worst > 1e-9:
            out.append(f"{name}: torus positions off the closed form by {worst}")
    else:
        need = max(1, _cube_corners_within(point, t))
        if len(comps) < need:
            out.append(f"{name}: {len(comps)} components, expected >= {need}")
        for comp in comps:
            for _, (face, u, v), _ in comp["samples"]:
                if face not in ("U", "D", "F", "B", "L", "R") or not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
                    out.append(f"{name}: sample {face}/{u}/{v} outside the cube")
                    return out
    return out


def _svg_problems(name, data, snapshot) -> list:
    text = data.decode("utf-8")
    doc = json.loads(snapshot)
    sizes = [len(c["samples"]) for c in doc["components"]]
    out = []
    if not (text.startswith("<?xml") and text.endswith("</svg>\n")):
        out.append(f"{name}: not a complete SVG document")
    if f"source={doc['source']} t={doc['t']!r} " not in text:
        out.append(f"{name}: parameter comment does not match the snapshot")
    paths = text.count("<path ")
    if paths != sum(1 for n in sizes if n >= 2):
        out.append(f"{name}: {paths} paths for {len(sizes)} snapshot components")
    return out


def _guarded(check, name, *args) -> list:
    """Run one artifact's check; an artifact it cannot read is a problem."""
    try:
        return check(name, *args)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return [f"{name}: unreadable ({type(e).__name__}: {e})"]


def content_problems(workload: str, points: dict, artifacts: dict) -> list:
    """Check one pass's artifacts (name -> bytes) of ``workload``.

    Every problem string starts with the name of the artifact at fault.
    """
    a, p = artifacts, points
    if workload == "flat-density":
        plan = [
            (_density_problems, "torus-density.csv", "torus", p["torus"],
             _grid(25, 400, 25)),
            (_density_problems, "klein-density.csv", "klein", p["klein"],
             _grid(100, 400, 100)),
        ]
    elif workload == "cube-tear":
        plan = [
            (_density_problems, "cube-density.csv", "cube", p["density"],
             _grid(5, 20, 5)),
            (_components_problems, "cube-components.stdout", p["components"],
             _grid(0.5, 1.5, 0.25)),
        ]
    elif workload == "snapshot-roundtrip":
        plan = [
            (_snapshot_problems, "cube-front.json", "cube", p["cube"], 20.0),
            (_svg_problems, "cube-front.svg", a["cube-front.json"]),
            (_snapshot_problems, "torus-front.json", "torus", p["torus"], 100.0),
            (_svg_problems, "torus-front.svg", a["torus-front.json"]),
        ]
    else:
        plan = [
            (_verify_problems, "verify-theorem1.stdout", _grid(10, 1000, 90)),
            (_lattice_problems, "lattice.stdout", _grid(25, 100, 25)),
        ]
    return [problem for check, name, *args in plan
            for problem in _guarded(check, name, a[name], *args)]
