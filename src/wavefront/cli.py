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
    init_front,
    propagate,
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

# Most points one LO:HI:STEP time grid may list.
T_GRID_BUDGET = 10**6


class UsageError(ValueError):
    """Invalid command-line arguments."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _diag(message: str) -> None:
    sys.stderr.write(f"{PROG}: error: {message}\n")


def _t_grid(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad time grid {text!r}, expected LO:HI:STEP")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad time grid {text!r}, expected LO:HI:STEP") from None
    if not (all(map(math.isfinite, (lo, hi, step))) and step > 0 and hi >= lo):
        raise UsageError(f"bad time grid {text!r}: need finite LO <= HI, STEP > 0")
    span = (hi - lo) / step + 1e-9
    if not span < T_GRID_BUDGET:
        raise NumericalFailureError(
            f"time grid {text!r} has more points than the budget T_GRID_BUDGET={T_GRID_BUDGET}"
        )
    n = int(math.floor(span)) + 1
    return [lo + k * step for k in range(n)]


def _parse_arc(text: str) -> ArcInterval:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"bad arc {text!r}, expected LO,HI")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"bad arc {text!r}, expected LO,HI") from None
    return ArcInterval(lo, hi)


def _write_out(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def _front_series(args):
    """Yield fronts over the time grid, reusing samples between times."""
    surface = parse_surface(args.surface)
    source = surface.parse_point(args.p)
    front = init_front(surface, source)
    for t in _t_grid(args.t_grid):
        front = propagate(front, t)
        yield t, front


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    if not (math.isfinite(args.t) and args.t >= 0.0):
        raise UsageError(f"--t must be finite and nonnegative, got {args.t!r}")
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


def _cmd_density(args) -> int:
    rows = [density_report(front, args.eps) for _, front in _front_series(args)]
    csv = emit_series(
        rows,
        params={
            "surface": args.surface,
            "p": args.p,
            "t_grid": args.t_grid,
            "eps": repr(args.eps),
        },
    )
    _write_out(csv, args.out)
    return 0


def _cmd_tau(args) -> int:
    surface = parse_surface(args.surface)
    source = surface.parse_point(args.p)
    est = estimate_tau(surface, source, args.r, args.t_max, args.dt)
    lines = [
        f"# surface={args.surface} p={args.p} r={args.r!r} "
        f"t_max={args.t_max!r} dt={args.dt!r}",
        "r,tau,t_max,delta_t,first_full_cover_time",
        f"{est.r!r},"
        + (est.tau if isinstance(est.tau, str) else repr(est.tau))
        + f",{est.t_max!r},{est.delta_t!r},{est.first_full_cover_time!r}",
    ]
    _write_out(("\n".join(lines) + "\n").encode("utf-8"), None)
    return 0


def _cmd_length(args) -> int:
    surface = parse_surface(args.surface)
    source = surface.parse_point(args.p)
    curve = length_growth_curve(surface, source, _t_grid(args.t_grid))
    lines = [f"# surface={args.surface} p={args.p} t_grid={args.t_grid}"]
    lines.append("t,length")
    lines.extend(f"{t!r},{length!r}" for t, length in curve.points)
    lines.append(f"# slope={curve.slope!r}")
    _write_out(("\n".join(lines) + "\n").encode("utf-8"), None)
    return 0


def _cmd_components(args) -> int:
    lines = [f"# surface={args.surface} p={args.p} t_grid={args.t_grid}"]
    lines.append("t,components")
    for t, front in _front_series(args):
        lines.append(f"{t!r},{component_count(front)}")
    _write_out(("\n".join(lines) + "\n").encode("utf-8"), None)
    return 0


def _cmd_lattice(args) -> int:
    rows = []
    for t in _t_grid(args.t_grid):
        # the default h needs t > 0; lattice_count rejects t <= 0 itself
        h = args.h if args.h is not None else 1.0 / math.sqrt(t) if t > 0 else 0.0
        rows.append(lattice_count(t, h))
    csv = emit_series(
        rows,
        params={
            "t_grid": args.t_grid,
            "h": repr(args.h) if args.h is not None else "1/sqrt(t)",
        },
    )
    _write_out(csv, None)
    return 0


def _cmd_verify_theorem1(args) -> int:
    lines = ["t,a,b,height,slope_max,projected_covering_radius,passed"]
    all_passed = True
    for t in _t_grid(args.t_grid):
        rep = theorem1_rectangle_check(t)
        all_passed &= rep.passed
        lines.append(
            f"{rep.t!r},{rep.a!r},{rep.b!r},{rep.height!r},{rep.slope_max!r},"
            f"{rep.projected_covering_radius!r},{rep.passed}"
        )
    _write_out(("\n".join(lines) + "\n").encode("utf-8"), None)
    if not all_passed:
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
            raise UsageError("a subcommand is required")
        return args.func(args)
    except SystemExit as e:  # argparse --help
        return 0 if e.code in (0, None) else 1
    except UsageError as e:
        _diag(str(e))
        return 1
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
