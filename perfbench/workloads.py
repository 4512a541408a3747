"""The benchmark's workloads and their seeded inputs.

Each workload is a fixed list of wavefront CLI commands, run one after the
other in a fresh working directory (``render`` reads what ``simulate``
wrote).  The seed chooses the source points only: seed 0 gives the points
of the README, any other seed draws them from ``random.Random`` seeded by
the seed and the workload name, so the same seed always gives the same
command lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# Why each workload is here; BENCHMARK.json carries the same lines.
WHY = {
    "flat-density": "metrics-heavy: KD trees over fronts of up to ~0.5M samples"
    " and the flat occupancy grid, incl. Klein's 9-image reduction",
    "cube-tear": "surfaces and frontier carry it: cube tracer, bisection toward"
    " ~1,250 tears, component assembly, cross-sheet surface_distance",
    "snapshot-roundtrip": "io write and read paths on a many-component cube"
    " front and a one-component torus front; metrics and lattice idle",
    "lattice-verify": "lattice only, no front at all: the control on which"
    " surfaces/frontier/metrics changes must predict no change",
}

WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``argv`` for ``wavefront.cli.run`` and the files
    it writes into the working directory (its stdout is always kept)."""

    id: str
    argv: tuple
    outputs: tuple = ()

    @property
    def artifacts(self) -> tuple:
        return (f"{self.id}.stdout",) + self.outputs


def _flat_point(rng: random.Random) -> str:
    return f"{rng.uniform(0.1, 0.9):.4f},{rng.uniform(0.1, 0.9):.4f}"


def _cube_point(rng: random.Random) -> str:
    return f"U/{rng.uniform(0.2, 0.8):.4f}/{rng.uniform(0.2, 0.8):.4f}"


def source_points(workload: str, seed: int) -> dict:
    """The source points a workload's commands use at ``seed``."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    if seed == DEFAULT_SEED:
        return {
            "flat-density": {"torus": "0.37,0.61", "klein": "0.2,0.3"},
            "cube-tear": {"density": "U/0.31/0.47", "components": "U/0.5/0.5"},
            "snapshot-roundtrip": {"cube": "U/0.5/0.5", "torus": "0.37,0.61"},
            "lattice-verify": {},
        }[workload]
    rng = random.Random(f"{seed}:{workload}")
    if workload == "flat-density":
        return {"torus": _flat_point(rng), "klein": _flat_point(rng)}
    if workload == "cube-tear":
        return {"density": _cube_point(rng), "components": _cube_point(rng)}
    if workload == "snapshot-roundtrip":
        return {"cube": _cube_point(rng), "torus": _flat_point(rng)}
    return {}


def commands(workload: str, seed: int) -> list:
    """The resolved command list of a workload at ``seed``."""
    p = source_points(workload, seed)
    if workload == "flat-density":
        return [
            Command("torus-density", ("density", "--surface", "torus:1,1",
                    "--p", p["torus"], "--t-grid", "25:400:25", "--eps", "0.02",
                    "--out", "torus-density.csv"), ("torus-density.csv",)),
            Command("klein-density", ("density", "--surface", "klein",
                    "--p", p["klein"], "--t-grid", "100:400:100", "--eps", "0.02",
                    "--out", "klein-density.csv"), ("klein-density.csv",)),
        ]
    if workload == "cube-tear":
        return [
            Command("cube-density", ("density", "--surface", "cube:1",
                    "--p", p["density"], "--t-grid", "5:20:5", "--eps", "0.05",
                    "--out", "cube-density.csv"), ("cube-density.csv",)),
            Command("cube-components", ("components", "--surface", "cube:1",
                    "--p", p["components"], "--t-grid", "0.5:1.5:0.25")),
        ]
    if workload == "snapshot-roundtrip":
        return [
            Command("cube-simulate", ("simulate", "--surface", "cube:1",
                    "--p", p["cube"], "--t", "20", "--out", "cube-front.json"),
                    ("cube-front.json",)),
            Command("cube-render", ("render", "--in", "cube-front.json",
                    "--out", "cube-front.svg"), ("cube-front.svg",)),
            Command("torus-simulate", ("simulate", "--surface", "torus:1,1",
                    "--p", p["torus"], "--t", "100", "--out", "torus-front.json"),
                    ("torus-front.json",)),
            Command("torus-render", ("render", "--in", "torus-front.json",
                    "--out", "torus-front.svg"), ("torus-front.svg",)),
        ]
    return [
        Command("verify-theorem1", ("verify-theorem1", "--t-grid", "10:1000:90")),
        Command("lattice", ("lattice", "--t-grid", "25:100:25")),
    ]
