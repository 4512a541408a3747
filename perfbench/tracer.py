"""Spans around the calls into each wavefront module, kept in memory.

The benchmark wraps, from outside the program, every public function of
one wavefront module where another module looks it up (for example
``wavefront.frontier.evaluate_batch`` or ``wavefront.cli.density_report``),
plus ``cli.run`` itself.  Private helpers (``_refine``,
``_assemble_components``, ``_NearestFront``) are not wrapped, so their time
shows in their caller's self time.  A span's self time is its duration
minus the part of it that its child spans cover; the layers' self times
therefore add up to the duration of the ``cli.run`` span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("surfaces", "frontier", "metrics", "lattice", "io", "cli")


def _front_counts(args, front):
    return {
        "samples": front.sample_count,
        "components": len(front.components),
        "dead_directions": int(front.alive.size - front.alive.sum()),
    }


# What each span records beyond its times, from its arguments and result.
_ATTRS = {
    "surfaces.evaluate_batch": lambda args, r: {"directions": len(args[2])},
    "frontier.propagate": _front_counts,
    "metrics.density_report": lambda args, r: {
        "cells_total": r.cells_total, "cells_hit": r.cells_hit},
    "io.emit_snapshot": lambda args, r: {"bytes": len(r)},
    "io.parse_snapshot": lambda args, r: {"bytes": len(args[0])},
    "io.render_svg": lambda args, r: {"bytes": len(r)},
    "io.emit_series": lambda args, r: {"bytes": len(r)},
}


class Tracer:
    """Records spans ``[id, parent, name, start, end, attrs]`` of one command."""

    def __init__(self, command: str):
        self.command = command
        self.spans = []
        self._stack = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        attrs = _ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "name": name,
                       "start": start, "end": end, "command": self.command}
                rec.update(attrs or {})
                fh.write(json.dumps(rec) + "\n")


def install(tracer: Tracer):
    """Wrap every cross-module lookup of a public wavefront function.

    Returns ``cli.run`` wrapped as the root span.  Call after importing
    ``wavefront.cli``, which imports every other module.
    """
    cli = sys.modules["wavefront.cli"]
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("wavefront.") or mod is None:
            continue
        for attr, obj in list(vars(mod).items()):
            home = getattr(obj, "__module__", "") or ""
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and home.startswith("wavefront.") and home != modname):
                layer = home.rsplit(".", 1)[1]
                setattr(mod, attr, tracer.wrap(obj, f"{layer}.{obj.__name__}"))
    return tracer.wrap(cli.run, "cli.run")


def load(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# arithmetic over recorded spans (dicts as written by ``Tracer.dump``)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Map ``(command, id)`` to the span's duration minus its children's cover."""
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[(s["command"], s["parent"])].append((s["start"], s["end"]))
    return {
        (s["command"], s["id"]): (s["end"] - s["start"])
        - _covered(kids[(s["command"], s["id"])], s["start"], s["end"])
        for s in spans
    }


def layer_self_times(spans) -> dict:
    """Self time per ``(command, layer)``; layers absent from a command are 0.

    A module outside ``LAYERS`` gets a layer of its own, so the sum over
    layers still equals the duration of the root span.
    """
    own = self_times(spans)
    out = {(s["command"], layer): 0.0 for s in spans for layer in LAYERS}
    for s in spans:
        key = (s["command"], s["name"].split(".", 1)[0])
        out[key] = out.get(key, 0.0) + own[(s["command"], s["id"])]
    return out


# Per-layer metrics: (name, unit).  BENCHMARK.json lists the same names in
# the same order; perfbench/README.md maps each to the end-to-end metric it
# should move.
_CALLS = ("surfaces.evaluate_batch", "surfaces.surface_distance",
          "frontier.propagate", "metrics.density_report",
          "lattice.theorem1_rectangle_check", "lattice.lattice_count")
_BUSY = _CALLS + ("frontier.front_length", "frontier.component_count",
                  "io.emit_snapshot", "io.parse_snapshot", "io.render_svg",
                  "io.emit_series", "cli.run")
_SELF = ("frontier.propagate", "frontier.front_length", "metrics.density_report")
_PEAK = {"frontier.samples": ("frontier.propagate", "samples"),
         "frontier.components": ("frontier.propagate", "components"),
         "frontier.dead_directions": ("frontier.propagate", "dead_directions")}
_SUM = {"surfaces.evaluate_batch.directions": ("surfaces.evaluate_batch", "directions"),
        "metrics.cells_total": ("metrics.density_report", "cells_total"),
        "metrics.cells_hit": ("metrics.density_report", "cells_hit"),
        "io.emit_snapshot.bytes": ("io.emit_snapshot", "bytes"),
        "io.parse_snapshot.bytes": ("io.parse_snapshot", "bytes"),
        "io.render_svg.bytes": ("io.render_svg", "bytes")}

METRICS = (
    [(f"{n}.calls", "count") for n in _CALLS]
    + [(f"{n}.busy_s", "s") for n in _BUSY]
    + [(f"{n}.self_s", "s") for n in _SELF]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(n, "count") for n in _PEAK]
    + [(n, "B" if n.endswith(".bytes") else "count") for n in _SUM]
    + [("trace.spans", "count"), ("trace.run_s", "s"),
       ("trace.untraced_run_s", "s"), ("trace.overhead_s", "s")]
)


def span_metrics(spans) -> dict:
    """Every span-derived metric of ``METRICS`` over the spans of one pass.

    ``busy_s`` counts only outermost spans of a name, so a call nested in a
    call of the same function is not counted twice.
    """
    own = self_times(spans)
    by_id = {(s["command"], s["id"]): s for s in spans}

    def nested_in_same(s):
        p = s["parent"]
        while p is not None:
            anc = by_id[(s["command"], p)]
            if anc["name"] == s["name"]:
                return True
            p = anc["parent"]
        return False

    out = {}
    for n in _CALLS:
        out[f"{n}.calls"] = sum(1 for s in spans if s["name"] == n)
    for n in _BUSY:
        out[f"{n}.busy_s"] = sum(s["end"] - s["start"] for s in spans
                                 if s["name"] == n and not nested_in_same(s))
    for n in _SELF:
        out[f"{n}.self_s"] = sum(own[(s["command"], s["id"])] for s in spans
                                 if s["name"] == n)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for (_, layer), v in layer_self_times(spans).items():
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + v
    for metric, (n, key) in _PEAK.items():
        out[metric] = max((s.get(key, 0) for s in spans if s["name"] == n), default=0)
    for metric, (n, key) in _SUM.items():
        out[metric] = sum(s.get(key, 0) for s in spans if s["name"] == n)
    out["trace.spans"] = len(spans)
    return out
