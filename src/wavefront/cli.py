"""Command-line interface.

One reproducible line per experiment: every subcommand is a pure function
of its flags, outputs embed the parameters that produced them, and
repeated invocations give byte-identical files.

Exit codes: 0 success, 1 invalid arguments, 2 numerical failure,
3 I/O error, 4 verification failure (verify-theorem1 only).  Errors are
a single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

from .frontier import (
    FULL_CIRCLE,
    ArcInterval,
    PropagationParams,
    component_count,
    default_params,
    fronts,
    init_front,
    propagate,
    time_grid,
)
from .io import (
    SnapshotError,
    emit_series,
    emit_snapshot,
    parse_snapshot,
    render_svg,
)
from .lattice import lattice_count, theorem1_rectangle_check
from .metrics import density_report, estimate_tau, length_growth_curve
from .surfaces import (
    NumericalFailureError,
    PreconditionError,
    parse_surface,
)

PROG = "wavefront"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise PreconditionError(message)


def _diag(message: str) -> None:
    sys.stderr.write(f"{PROG}: error: {message}\n")


def _t_grid(text: str) -> list:
    try:  # a wrong number of parts fails the unpacking with a ValueError too
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise PreconditionError(f"bad time grid {text!r}, expected LO:HI:STEP") from None
    if not (all(map(math.isfinite, (lo, hi, step))) and step > 0 and hi >= lo):
        raise PreconditionError(f"bad time grid {text!r}: need finite LO <= HI, STEP > 0")
    return time_grid(lo, hi, step)


def _parse_arc(text: str) -> ArcInterval:
    try:
        lo, hi = (float(p) for p in text.split(","))
    except ValueError:
        raise PreconditionError(f"bad arc {text!r}, expected LO,HI") from None
    return ArcInterval(lo, hi)


def _write_out(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def _front_series(args, measure) -> list:
    """``measure`` of each front over the time grid, the source checked
    before the grid."""
    surface = parse_surface(args.surface)
    front = init_front(surface, surface.parse_point(args.p))
    return list(fronts(front, _t_grid(args.t_grid), measure))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    if not (math.isfinite(args.t) and args.t >= 0.0):
        raise PreconditionError(f"--t must be finite and nonnegative, got {args.t!r}")
    surface = parse_surface(args.surface)
    source = surface.parse_point(args.p)
    params = default_params(surface)
    if args.hmax is not None:
        params = PropagationParams(args.hmax)
    arc = _parse_arc(args.arc) if args.arc is not None else FULL_CIRCLE
    front = init_front(surface, source, arc=arc, n0=args.n0, params=params)
    if args.t > 0.0:
        front = propagate(front, args.t)
    _write_out(emit_snapshot(front), args.out)
    return 0


def density_csv(reports, params: dict | None = None) -> bytes:
    """The density table: one row per ``DensityReport``."""
    return emit_series(
        "t,covering_radius,cells_hit_fraction,length,components",
        [(r.t, r.covering_radius, r.cells_hit / r.cells_total, r.length,
          r.n_components) for r in reports],
        params,
    )


def _cmd_density(args) -> int:
    reports = _front_series(args, lambda front: density_report(front, args.eps))
    params = {"surface": args.surface, "p": args.p, "t_grid": args.t_grid,
              "eps": args.eps}
    _write_out(density_csv(reports, params), args.out)
    return 0


def _cmd_tau(args) -> int:
    surface = parse_surface(args.surface)
    source = surface.parse_point(args.p)
    est = estimate_tau(surface, source, args.r, args.t_max, args.dt)
    row = (est.r, est.tau, est.t_max, est.delta_t, est.first_full_cover_time)
    params = {"surface": args.surface, "p": args.p, "r": args.r,
              "t_max": args.t_max, "dt": args.dt}
    _write_out(emit_series("r,tau,t_max,delta_t,first_full_cover_time", [row],
                           params), None)
    return 0


def _cmd_length(args) -> int:
    surface = parse_surface(args.surface)
    source = surface.parse_point(args.p)
    curve = length_growth_curve(surface, source, _t_grid(args.t_grid))
    params = {"surface": args.surface, "p": args.p, "t_grid": args.t_grid}
    _write_out(emit_series("t,length", curve.points, params,
                           footer={"slope": curve.slope}), None)
    return 0


def _cmd_components(args) -> int:
    rows = _front_series(args, lambda front: (front.t, component_count(front)))
    params = {"surface": args.surface, "p": args.p, "t_grid": args.t_grid}
    _write_out(emit_series("t,components", rows, params), None)
    return 0


def _cmd_lattice(args) -> int:
    rows = []
    for t in _t_grid(args.t_grid):
        # the default h needs t > 0; lattice_count rejects t <= 0 itself
        h = args.h if args.h is not None else 1.0 / math.sqrt(t) if t > 0 else 0.0
        c = lattice_count(t, h)
        rows.append((c.t, c.h, c.N_t, c.annulus_count, 2.0 * math.pi * c.t * c.h,
                     c.E_t, math.sqrt(2.0) * 2.0 * math.pi * c.t))
    params = {"t_grid": args.t_grid, "h": "1/sqrt(t)" if args.h is None else args.h}
    _write_out(emit_series(
        "t,h,N_t,annulus_count,expected_area,E_t,gauss_bound", rows, params), None)
    return 0


def _cmd_verify_theorem1(args) -> int:
    reports = [theorem1_rectangle_check(t) for t in _t_grid(args.t_grid)]
    rows = [(r.t, r.a, r.b, r.height, r.slope_max, r.projected_covering_radius,
             r.passed) for r in reports]
    _write_out(emit_series(
        "t,a,b,height,slope_max,projected_covering_radius,passed", rows), None)
    if not all(r.passed for r in reports):
        _diag("rectangle-argument verification failed")
        return 4
    return 0


def _cmd_render(args) -> int:
    with open(args.infile, "rb") as fh:
        front = parse_snapshot(fh.read())
    _write_out(render_svg(front, width_px=args.width), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def surface_point(p):
        p.add_argument("--surface", required=True,
                       help="torus:a,b | klein | rect:a,b | disk:r | cube:s")
        p.add_argument("--p", required=True, metavar="POINT",
                       help="source point, x,y or FACE/u/v")

    p = sub.add_parser("simulate", help="propagate a front and emit a snapshot")
    surface_point(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--arc", metavar="LO,HI")
    p.add_argument("--hmax", type=float)
    p.add_argument("--n0", type=int, default=1024)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("density", help="coverage metrics over a time grid")
    surface_point(p)
    p.add_argument("--t-grid", required=True, metavar="LO:HI:STEP")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("tau", help="coverage time for a given ball radius")
    surface_point(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("length", help="front length growth and fitted slope")
    surface_point(p)
    p.add_argument("--t-grid", required=True, metavar="LO:HI:STEP")
    p.set_defaults(func=_cmd_length)

    p = sub.add_parser("components", help="connected component counts")
    surface_point(p)
    p.add_argument("--t-grid", required=True, metavar="LO:HI:STEP")
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("lattice", help="lattice-point counts and error terms")
    p.add_argument("--t-grid", required=True, metavar="LO:HI:STEP")
    p.add_argument("--h", type=float)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("verify-theorem1",
                       help="check the rectangle argument on a time grid")
    p.add_argument("--t-grid", required=True, metavar="LO:HI:STEP")
    p.set_defaults(func=_cmd_verify_theorem1)

    p = sub.add_parser("render", help="render a snapshot to SVG")
    p.add_argument("--in", dest="infile", required=True, metavar="SNAPSHOT")
    p.add_argument("--out", required=True, metavar="SVG")
    p.add_argument("--width", type=int, default=1600)
    p.set_defaults(func=_cmd_render)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise PreconditionError("a subcommand is required")
        return args.func(args)
    except SystemExit as e:  # argparse --help
        return 0 if e.code in (0, None) else 1
    except SnapshotError as e:
        _diag(str(e))
        return 3
    except NumericalFailureError as e:
        _diag(str(e))
        return 2
    except OSError as e:
        _diag(str(e))
        return 3
    except (PreconditionError, ValueError) as e:
        _diag(str(e))
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
