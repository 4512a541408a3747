"""Tests of the benchmark's own machinery (not of wavefront).

Run with ``python -m pytest perfbench``.  The tracing test spawns the
command runner in separate processes, because installing the tracer
rewrites wavefront's module globals.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# seeded inputs


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        for seed in (0, 1, 7, 12345):
            assert workloads.commands(name, seed) == workloads.commands(name, seed)
    assert workloads.commands("cube-tear", 1) != workloads.commands("cube-tear", 2)


def test_default_seed_gives_the_readme_points():
    argv = [c.argv for c in workloads.commands("flat-density", 0)]
    assert argv[0][:5] == ("density", "--surface", "torus:1,1", "--p", "0.37,0.61")
    assert argv[1][4] == "0.2,0.3"
    cube = [c.argv[4] for c in workloads.commands("cube-tear", 0)]
    assert cube == ["U/0.31/0.47", "U/0.5/0.5"]


def test_other_seeds_stay_in_their_boxes():
    for seed in range(1, 50):
        for name in ("flat-density", "cube-tear", "snapshot-roundtrip"):
            for point in workloads.source_points(name, seed).values():
                if point.startswith("U/"):
                    coords, lo, hi = point[2:].split("/"), 0.2, 0.8
                else:
                    coords, lo, hi = point.split(","), 0.1, 0.9
                assert all(lo <= float(c) <= hi for c in coords), point


# ---------------------------------------------------------------------------
# output checks


def test_check_flags_a_changed_byte_an_exit_code_and_a_traceback():
    data = b"t,components\n0.5,1\n"
    ref = {"x.stdout": checks.sha256(data)}
    assert checks.command_problems("x", 0, b"", ref, ref) == []
    flipped = bytes([data[0] ^ 1]) + data[1:]
    assert checks.command_problems(
        "x", 0, b"", {"x.stdout": checks.sha256(flipped)}, ref)
    assert checks.command_problems("x", 1, b"", ref, ref)
    tb = b'Traceback (most recent call last):\n  File "x"\nTypeError: boom\n'
    assert checks.command_problems("x", 0, tb, ref, ref)
    assert checks.command_problems("x", 0, b"", {"x.stdout": None}, None)


def test_content_check_flags_a_failed_certificate_and_a_wrong_count():
    verify = (b"t,a,b,height,slope_max,projected_covering_radius,passed\n"
              + b"".join(f"{t},0,0,0,0,0,True\n".encode()
                         for t in checks._grid(10, 1000, 90)))
    lattice = (b"t,h,N_t,annulus_count,expected_area,E_t,gauss_bound\n"
               b"25.0,0.2,1961,40,31.4,-2.4954084936207437,222.1\n"
               b"50.0,0.1414213562373095,7845,48,44.4,-8.981633974482975,444.2\n"
               b"75.0,0.11547005383792514,17665,56,54.4,-6.458676442587603,666.4\n"
               b"100.0,0.1,31417,56,62.8,1.073464102068101,888.5\n")
    good = {"verify-theorem1.stdout": verify, "lattice.stdout": lattice}
    assert checks.content_problems("lattice-verify", {}, good) == []
    bad = dict(good, **{"verify-theorem1.stdout": verify.replace(b"True\n", b"False\n", 1)})
    assert checks.content_problems("lattice-verify", {}, bad)
    bad = dict(good, **{"lattice.stdout": lattice.replace(b",1961,", b",1960,")})
    assert checks.content_problems("lattice-verify", {}, bad)
    bad = dict(good, **{"lattice.stdout": b""})
    assert checks.content_problems("lattice-verify", {}, bad)[0].startswith(
        "lattice.stdout: unreadable")


def test_run_command_reports_a_non_zero_exit(tmp_path):
    cmd = workloads.Command("bad", ("simulate", "--surface", "nowhere:1",
                                    "--p", "0,0", "--t", "1"))
    res, artifacts, err = run.run_command(cmd, tmp_path, "1", None,
                                          time.monotonic() + 60.0)
    assert res.code == 1 and err.startswith(b"wavefront: error:")
    assert checks.command_problems(cmd.id, res.code, err, {}, None)


# ---------------------------------------------------------------------------
# tracing


def _span(sid, parent, name, start, end, command="c"):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "command": command}


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        _span(0, None, "cli.run", 0.0, 10.0),
        _span(1, 0, "metrics.density_report", 1.0, 7.0),
        _span(2, 1, "frontier.front_length", 2.0, 4.0),
        _span(3, 2, "surfaces.surface_distance", 2.5, 3.0),
        _span(4, 1, "surfaces.point_images", 5.0, 6.0),
        _span(5, 0, "io.emit_series", 8.0, 8.5),
    ]
    own = tracer.self_times(spans)
    assert own[("c", 0)] == 10.0 - 6.0 - 0.5
    assert own[("c", 1)] == 6.0 - 2.0 - 1.0
    assert own[("c", 2)] == 2.0 - 0.5
    assert own[("c", 3)] == 0.5
    layers = tracer.layer_self_times(spans)
    assert layers[("c", "surfaces")] == 1.5
    assert layers[("c", "lattice")] == 0.0
    assert sum(layers.values()) == 10.0
    m = tracer.span_metrics(spans)
    assert m["metrics.density_report.self_s"] == 3.0
    assert m["frontier.front_length.self_s"] == 1.5
    assert m["cli.self_s"] == 3.5
    assert m["surfaces.surface_distance.calls"] == 1
    spans.append(_span(6, 0, "newmodule.helper", 9.0, 9.5))
    layers = tracer.layer_self_times(spans)
    assert layers[("c", "newmodule")] == 0.5 and sum(layers.values()) == 10.0


def test_children_overlap_is_counted_once():
    assert tracer._covered([(1.0, 3.0), (2.0, 4.0), (6.0, 9.0)], 0.0, 8.0) == 5.0


def test_tracing_leaves_artifact_bytes_unchanged(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    argvs = [["simulate", "--surface", "cube:1", "--p", "U/0.5/0.5", "--t", "1",
              "--out", "front.json"],
             ["render", "--in", "front.json", "--out", "front.svg"]]
    outputs = {}
    for traced in (False, True):
        d = tmp_path / str(traced)
        d.mkdir()
        for i, argv in enumerate(argvs):
            spans = str(d / f"{i}.spans") if traced else "-"
            subprocess.run([sys.executable, str(HERE / "child.py"), str(d),
                            str(d / f"{i}.times"), spans, str(i), "--", *argv],
                           env=env, check=True, timeout=120)
        outputs[traced] = [(d / n).read_bytes() for n in ("front.json", "front.svg")]
    assert outputs[False] == outputs[True]
    spans = tracer.load(tmp_path / "True" / "1.spans")
    names = {s["name"] for s in spans}
    assert {"cli.run", "io.parse_snapshot", "io.render_svg"} <= names
    assert [s["name"] for s in spans if s["parent"] is None] == ["cli.run"]


# ---------------------------------------------------------------------------
# BENCHMARK.json and the compare step


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(
        workloads.WHY.items())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracer.METRICS)


def test_compare_verdicts():
    parent = {s: [10.0 + 0.1 * s] for s in range(10)}
    assert compare.verdict(parent, {s: [v[0] * 0.8] for s, v in parent.items()},
                           0.1, True) == "better"
    assert compare.verdict(parent, {s: [v[0] * 1.3] for s, v in parent.items()},
                           0.1, True) == "worse"
    assert compare.verdict(parent, dict(parent), 0.1, True) == "unchanged"
    noisy = {s: [10.0 * (1 + 0.5 * (s % 2))] for s in range(10)}
    assert compare.verdict(noisy, dict(noisy), 0.1, True) == "unresolved"
