"""Geodesic wave fronts on flat surfaces: simulation and measurement.

A wave front is the set of points reached at time t by unit-speed geodesics
leaving a single source point in every direction.  This package evaluates
such fronts exactly (no time stepping) on five flat models: a rectangular
torus, the flat Klein bottle, rectangular and circular billiard tables, and
the surface of a cube.  On top of the simulator it provides density and
covering-radius measurements, an everywhere-dense-time estimator, length
growth curves, and an independent lattice-point counting oracle used to
cross-check the torus results.
"""

from .surfaces import (
    Torus,
    KleinBottle,
    RectBilliard,
    DiskBilliard,
    CubeSurface,
    CubePoint,
    CoverPoint,
    PreconditionError,
    NumericalFailureError,
    parse_surface,
    format_surface,
    exp_point,
    trace_cube_ray,
    surface_distance,
)
from .frontier import (
    ArcInterval,
    PropagationParams,
    Front,
    FrontComponent,
    default_params,
    init_front,
    propagate,
    front_length,
    component_count,
    component_lengths,
)
from .metrics import (
    DensityReport,
    TauEstimate,
    density_report,
    estimate_tau,
    length_growth_curve,
)
from .lattice import (
    LatticeCount,
    RectCheckReport,
    gauss_count,
    annulus_count,
    error_term,
    lattice_count,
    theorem1_rectangle_check,
    wavefront_return_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "Torus",
    "KleinBottle",
    "RectBilliard",
    "DiskBilliard",
    "CubeSurface",
    "CubePoint",
    "CoverPoint",
    "PreconditionError",
    "NumericalFailureError",
    "parse_surface",
    "format_surface",
    "exp_point",
    "trace_cube_ray",
    "surface_distance",
    "ArcInterval",
    "PropagationParams",
    "Front",
    "FrontComponent",
    "default_params",
    "init_front",
    "propagate",
    "front_length",
    "component_count",
    "component_lengths",
    "DensityReport",
    "TauEstimate",
    "density_report",
    "estimate_tau",
    "length_growth_curve",
    "LatticeCount",
    "RectCheckReport",
    "gauss_count",
    "annulus_count",
    "error_term",
    "lattice_count",
    "theorem1_rectangle_check",
    "wavefront_return_oracle",
    "__version__",
]
