"""Command-line interface: flags, outputs, exit codes, determinism.

Subcommands run in-process through cli.run for speed; one test drives the
installed console script end to end, another ``python -m wavefront``.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wavefront

from wavefront import cli
from wavefront.lattice import RectCheckReport


def run(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_components_cube_face_center(capsys):
    code, out, err = run(
        ["components", "--surface", "cube:1", "--p", "U/0.5/0.5",
         "--t-grid", "0.5:1.5:0.5"],
        capsys,
    )
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[1] == "t,components"
    assert lines[2] == "0.5,1"
    assert lines[3] == "1.0,4"
    assert lines[4] == "1.5,4"


def test_density_csv_shape(capsys):
    code, out, err = run(
        ["density", "--surface", "torus:1,1", "--p", "0,0",
         "--t-grid", "2:4:2", "--eps", "0.05"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# surface=torus:1,1")
    assert lines[1] == "t,covering_radius,cells_hit_fraction,length,components"
    assert len(lines) == 4


def test_tau_csv(capsys):
    code, out, _ = run(
        ["tau", "--surface", "torus:1,1", "--p", "0.2,0.3",
         "--r", "0.5", "--t-max", "6", "--dt", "1"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "r,tau,t_max,delta_t,first_full_cover_time"
    assert lines[2].startswith("0.5,")


def test_length_reports_slope(capsys):
    code, out, _ = run(
        ["length", "--surface", "torus:1,1", "--p", "0.2,0.3",
         "--t-grid", "4:12:4"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "t,length"
    assert lines[-1].startswith("# slope=6.283")


def test_lattice_default_h(capsys):
    code, out, _ = run(["lattice", "--t-grid", "25:25:1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert "h=1/sqrt(t)" in lines[0]
    assert lines[2].split(",")[1] == "0.2"  # 1/sqrt(25)


def test_verify_theorem1_passes(capsys):
    code, out, _ = run(["verify-theorem1", "--t-grid", "10:100:45"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,a,b,height,slope_max,projected_covering_radius,passed"
    assert all(line.endswith(",True") for line in lines[1:])


def test_verify_theorem1_failure_exit_code(monkeypatch, capsys):
    # verification failure is its own exit code; forge a failing report
    # since the argument genuinely holds at every valid t
    def failing(t, h_max=0.005):
        return RectCheckReport(
            t=t, a=-2.0, b=-1.0, height=1.0, slope_max=9.9,
            projected_covering_radius=9.9, passed=False,
        )

    monkeypatch.setattr(cli, "theorem1_rectangle_check", failing)
    code, out, err = run(["verify-theorem1", "--t-grid", "10:10:1"], capsys)
    assert code == 4
    assert "verification failed" in err


# sha256 of the stdout of tables no other test or benchmark digest pins: a
# tau row with tau reached, one with tau never reached (first cover inf),
# tau rows reached on the cube (3 x 3 ball grids on faces with dead
# samples) and on the Klein bottle, a length curve with its slope footer, a
# lattice table with an explicit h, and density tables late enough that
# each centre's nearest sample lies in its own eps cell (non-square torus
# cells, the Klein bottle, the rectangle)
_DISK_DENSITY = "density --surface disk:1 --p 0.4,0.1 --t-grid 5:20:5 --eps 0.05"
_TABLES_PINNED = {
    "tau --surface torus:1,1 --p 0.2,0.3 --r 0.25 --t-max 20 --dt 0.5":
        "97c9705414155be7456a594d9215306297345d4f51c1093e19ac55c52b358933",
    "tau --surface disk:1 --p 0,0 --r 0.3 --t-max 2 --dt 1":
        "c72b1a6bf84fbf258e838dfed05a9c4a24073ecf450c3e5ef1986cd29c4f378b",
    "tau --surface cube:1 --p U/0.31/0.47 --r 0.8 --t-max 8 --dt 1":
        "2e233484760ba9303f7f288e468a1c68f63edbac8afd3be2b24122c16325f58f",
    "tau --surface klein --p 0.2,0.3 --r 0.2 --t-max 20 --dt 2":
        "1bbb9b5d95e4a04e81e4403e7e81b0194a4d0024c75a874897e3ae2c6a27d1c2",
    "length --surface klein --p 0.2,0.3 --t-grid 5:20:5":
        "705ff9c5d5254cd930de291bcabd60a4e7912f29eef25a6e7fb501ecd24b959a",
    "lattice --t-grid 25:100:25 --h 0.5":
        "8660f00d21355d9ad5e5656f898db83b98062040e4796a7b97171a3451aae451",
    "density --surface torus:1,0.3 --p 0.2,0.1 --t-grid 40:60:20 --eps 0.02":
        "0819f18ff4bc2c304fd58720bd8e14b88d84af35888fb9583bb483d7d2e82d6d",
    "density --surface klein --p 0.7,0.45 --t-grid 80:100:20 --eps 0.02":
        "46ab03febb13f797cfa6334c1b656a9cec6480b76fdb8c42c89999fc4e1206d0",
    "density --surface rect:1,0.4 --p 0.3,0.2 --t-grid 60:80:20 --eps 0.02":
        "a6933b9d23a0f1266487ed57e39522db0547a4d053640d279bbaf72a47fad510",
    # the README components command, and the front walk of length and tau
    "components --surface cube:1 --p U/0.5/0.5 --t-grid 0.5:1.5:0.25":
        "16dcc806ef872fbec9c74171909865f11b81e34ab1953c821e64064a969935a0",
    "length --surface disk:1 --p 0.4,0.1 --t-grid 2:6:2":
        "44172a3522fd0bc6d9018ac747203df92b5e8b4b43e514d4ed09ff686dd5fef0",
    # tau is the rounded last checkpoint, 3 * 0.3 = 0.8999999999999999
    "tau --surface torus:1,1 --p 0.2,0.3 --r 0.5 --t-max 0.9 --dt 0.3":
        "d9dc0413096369e3a6fad2df4a94d260eb08a7b51498422b0e7c17541cecd701",
    # a 10 x 4 ball grid, fewer than 5 cells on an axis
    "tau --surface rect:1,0.4 --p 0.3,0.2 --r 0.2 --t-max 15 --dt 1":
        "5c00a242c5f4033cce9300f363df263e817b114354ab112f0e86c78ab9d66e5e",
    # the README grid; its projected covering radius is a nine-image query
    "verify-theorem1 --t-grid 10:1000:90":
        "3b5617b9b6794fb2d5cf07a3d18935b3774ed719925dd6a73a8a17bf58b918cb",
    # disk rays of many bounces, whose phi once read numpy's SIMD arccos
    _DISK_DENSITY:
        "31279d977f6e5cb2b8d5d5f16fac72ffd96a540a2c1d72ddd7ab83868d372997",
}


def test_table_bytes_pinned(capsysbinary):
    digests = {}
    for command in _TABLES_PINNED:
        assert cli.run(command.split()) == 0, command
        captured = capsysbinary.readouterr()
        assert captured.err == b"", command
        digests[command] = hashlib.sha256(captured.out).hexdigest()
    assert digests == _TABLES_PINNED


def test_disk_bytes_do_not_depend_on_simd_dispatch(capsysbinary):
    # the same table in a process with every x86 dispatch target above the
    # X86_V2 baseline disabled (the list must be comma-separated)
    assert cli.run(_DISK_DENSITY.split()) == 0
    here = capsysbinary.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(wavefront.__file__).parents[1]),
               NPY_DISABLE_CPU_FEATURES="X86_V3,X86_V4,AVX512_ICL,AVX512_SPR")
    result = subprocess.run([sys.executable, "-m", "wavefront", *_DISK_DENSITY.split()],
                            capture_output=True, env=env)
    assert result.returncode == 0 and result.stderr == b""
    assert result.stdout == here


def test_simulate_then_render(tmp_path, capsys):
    snap = tmp_path / "front.json"
    svg = tmp_path / "front.svg"
    code, _, _ = run(
        ["simulate", "--surface", "cube:1", "--p", "U/0.5/0.5",
         "--t", "1", "--out", str(snap)],
        capsys,
    )
    assert code == 0
    doc = json.loads(snap.read_bytes())
    assert doc["surface"] == "cube:1" and doc["t"] == 1.0
    assert len(doc["components"]) == 4

    code, _, _ = run(["render", "--in", str(snap), "--out", str(svg)], capsys)
    assert code == 0
    assert svg.read_bytes().startswith(b"<?xml")

    for width in ("0", "-5"):
        bad = tmp_path / f"w{width}.svg"
        code, _, err = run(
            ["render", "--in", str(snap), "--out", str(bad), "--width", width],
            capsys,
        )
        assert code == 1, width
        assert err.startswith("wavefront: error: ") and err.count("\n") == 1
        assert "width" in err and not bad.exists()


def test_artifacts_to_stdout_equal_those_to_out(tmp_path, capsysbinary):
    # a torus front of several row blocks
    snap, svg = tmp_path / "front.json", tmp_path / "front.svg"
    argv = ["simulate", "--surface", "torus:1,1", "--p", "0.37,0.61", "--t", "25"]
    assert cli.run(argv + ["--out", str(snap)]) == 0
    assert cli.run(argv) == 0
    assert capsysbinary.readouterr().out == snap.read_bytes()
    samples = json.loads(snap.read_bytes())["components"][0]["samples"]
    assert len(samples) > 5 * wavefront.io.BLOCK_ROWS
    # render writes the file it is given: /dev/stdout, as from a shell
    assert cli.run(["render", "--in", str(snap), "--out", str(svg)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(wavefront.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "wavefront", "render", "--in", str(snap),
         "--out", "/dev/stdout"], capture_output=True, env=env,
    )
    assert result.returncode == 0 and result.stderr == b""
    assert result.stdout == svg.read_bytes()


def test_simulate_arc_and_hmax_flags(tmp_path, capsys):
    snap = tmp_path / "arc.json"
    code, _, _ = run(
        ["simulate", "--surface", "torus:1,1", "--p", "0.2,0.3", "--t", "2",
         "--arc", "0,1.5", "--hmax", "0.01", "--n0", "64",
         "--out", str(snap)],
        capsys,
    )
    assert code == 0
    doc = json.loads(snap.read_bytes())
    assert doc["arc"] == [0.0, 1.5]
    assert doc["params"]["h_max"] == 0.01


# a numpy warning would print lines of its own before the diagnostic
@pytest.mark.filterwarnings("error")
def test_invalid_arguments_exit_1(capsys):
    cases = [
        ["simulate", "--surface", "torus:1,1", "--p", "0,0"],  # missing --t
        ["density", "--surface", "bogus:1", "--p", "0,0",
         "--t-grid", "1:2:1", "--eps", "0.1"],
        ["density", "--surface", "torus:1,1", "--p", "0,0",
         "--t-grid", "5:1:1", "--eps", "0.1"],  # HI < LO
        ["density", "--surface", "torus:1,1", "--p", "0,0",
         "--t-grid", "1:2:1", "--eps", "0.001"],  # eps below resolution
        ["simulate", "--surface", "torus:1,1", "--p", "9,9", "--t", "1"],
        # non-finite model parameters, h_max and times
        ["simulate", "--surface", "torus:inf,1", "--p", "0,0", "--t", "1"],
        ["simulate", "--surface", "disk:inf", "--p", "0,0", "--t", "1"],
        ["simulate", "--surface", "torus:1,1", "--p", "0,0", "--t", "1",
         "--hmax", "inf"],
        ["simulate", "--surface", "torus:1,1", "--p", "0,0", "--t", "nan"],
        ["simulate", "--surface", "torus:1,1", "--p", "0,0", "--t", "-1"],
        ["simulate", "--surface", "torus:1,1", "--p", "0,0", "--t", "inf"],
        # time grids: t = 0 in a lattice grid, non-finite HI
        ["lattice", "--t-grid", "0:1:1"],
        ["length", "--surface", "torus:1,1", "--p", "0.2,0.3",
         "--t-grid", "1:inf:1"],
        ["length", "--surface", "torus:1,1", "--p", "0.2,0.3",
         "--t-grid", "1:nan:1"],
        # one time at or above the median: no slope to fit
        ["length", "--surface", "klein", "--p", "0.2,0.3", "--t-grid", "5:10:5"],
        ["nonsense"],
        [],
    ]
    # non-finite numeric flags: the diagnostic names the parameter and value
    tau = ["tau", "--surface", "torus:1,1", "--p", "0.2,0.3"]
    named = [
        (tau + ["--r", "0.25", "--t-max", "nan", "--dt", "0.5"], "t_max=nan"),
        (tau + ["--r", "inf", "--t-max", "2", "--dt", "0.5"], "r=inf"),
        (tau + ["--r", "0.25", "--t-max", "2", "--dt", "inf"], "delta_t=inf"),
        (["density", "--surface", "torus:1,1", "--p", "0.2,0.3",
          "--t-grid", "1:1:1", "--eps", "nan"], "eps=nan"),
        (["density", "--surface", "torus:1,1", "--p", "0.2,0.3",
          "--t-grid", "1:1:1", "--eps", "inf"], "eps=inf"),
        (["lattice", "--t-grid", "1:1:1", "--h", "nan"], "h=nan"),
        (["lattice", "--t-grid", "1:1:1", "--h", "inf"], "h=inf"),
        # malformed time grids and arcs: too few parts, parts not numbers
        *[(["lattice", "--t-grid", grid], f"bad time grid {grid!r}, expected LO:HI:STEP")
          for grid in ("1:2", "a:b:c", "1:2:3:4")],
        *[(["simulate", "--surface", "torus:1,1", "--p", "0,0", "--t", "1", "--arc", arc],
           f"bad arc {arc!r}, expected LO,HI") for arc in ("1", "a,b", "0,1,2")],
        # infinite arc ends: an arc of width nan, refused before any walk
        *[(["simulate", "--surface", surface, "--p", p, "--t", "1", f"--arc={arc}"],
           f"arc {arc} needs finite ends")
          for surface, p in (("torus:1,1", "0.2,0.3"), ("cube:1", "U/0.5/0.5"))
          for arc in ("-inf,-inf", "inf,inf")],
        # malformed points and surface parameters
        (["simulate", "--surface", "torus:1,1", "--p", "0.3", "--t", "1"],
         "planar points look like x,y, got '0.3'"),
        (["simulate", "--surface", "torus:1,1", "--p", "a,b", "--t", "1"],
         "bad coordinates in 'a,b'"),
        (["simulate", "--surface", "cube:1", "--p", "U/a/0.5", "--t", "1"],
         "bad cube coordinates in 'U/a/0.5'"),
        (["simulate", "--surface", "torus:a,1", "--p", "0,0", "--t", "1"],
         "bad surface parameters in 'torus:a,1'"),
    ]
    for argv, name in [(argv, "") for argv in cases] + named:
        code, _, err = run(argv, capsys)
        assert code == 1, argv
        assert err.startswith("wavefront: error: "), argv
        assert err.count("\n") == 1  # single diagnostic line
        assert name in err, argv


def test_density_grid_without_an_interior_cell_exit_1(tmp_path, capsys):
    out = tmp_path / "density.csv"
    for eps in ("1", "1.5"):
        code, stdout, err = run(
            ["density", "--surface", "disk:1", "--p", "0.4,0.1", "--t-grid", "1:2:1",
             "--eps", eps, "--out", str(out)],
            capsys,
        )
        assert code == 1 and stdout == "", eps
        assert err.startswith("wavefront: error: eps=") and err.count("\n") == 1, eps
        assert "DiskBilliard" in err and not out.exists(), eps


# a numpy warning would print lines of its own before the diagnostic
@pytest.mark.filterwarnings("error")
def test_numerical_failure_exit_2(monkeypatch, capsys):
    # size budgets, lowered so that no large grid or sample array is built
    # one budget bounds every time grid, tau's checkpoints included
    monkeypatch.setattr(wavefront.frontier, "TIME_GRID_BUDGET", 5)
    monkeypatch.setattr(wavefront.lattice, "RECT_POINT_BUDGET", 1000)
    monkeypatch.setattr(wavefront.surfaces, "WALK_BUDGET", 10**5)
    for argv, budget in (
        (["lattice", "--t-grid", "20000:20000:1"], "budget"),
        # rejected before the initial directions are allocated
        (["simulate", "--surface", "torus:1,1", "--p", "0.2,0.3", "--t", "1",
          "--n0", "2000000000"], "budget"),
        (["lattice", "--t-grid", "1:11:1"], "TIME_GRID_BUDGET=5"),
        (["tau", "--surface", "torus:1,1", "--p", "0.2,0.3", "--r", "0.25",
          "--t-max", "3", "--dt", "0.5"], "TIME_GRID_BUDGET=5"),
        (["verify-theorem1", "--t-grid", "10:10:1"], "RECT_POINT_BUDGET=1000"),
        # refused before t*t overflows
        (["verify-theorem1", "--t-grid", "1e300:1e300:1"], "RECT_POINT_BUDGET=1000"),
        # eps-grids and ball grids are sized before any array is allocated
        (["density", "--surface", "torus:1e9,1", "--p", "0.3,0.3", "--t-grid", "1:1:1",
          "--eps", "0.02"], "2500000000000 cells, more than the budget SAMPLE_BUDGET="),
        (["tau", "--surface", "rect:1e9,1", "--p", "0.3,0.3", "--r", "0.5",
          "--t-max", "1", "--dt", "1"], "cells, more than the budget SAMPLE_BUDGET="),
        # the cube walk is bounded before it starts
        (["simulate", "--surface", "cube:1", "--p", "U/0.5/0.5", "--t", "1e9"],
         "WALK_BUDGET=100000"),
        # so is the total walk: 1024 rays of up to ~99,000 crossings each
        (["simulate", "--surface", "cube:1", "--p", "U/0.5/0.5", "--t", "70000"],
         "WALK_BUDGET=100000"),
    ):
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert budget in err and err.count("\n") == 1, argv


@pytest.mark.filterwarnings("error")
def test_subnormal_disk_radius_exit_2(capsys):
    # the disk's tangent slide t1 / radius overflows, and cos and sin turn
    # it into NaN: the batch is refused with no warning and no output
    for argv in (
        ["length", "--surface", "disk:1e-320", "--p", "0,0", "--t-grid", "1:4:1"],
        ["simulate", "--surface", "disk:1e-320", "--p", "0,0", "--t", "1"],
        ["density", "--surface", "disk:1e-320", "--p", "0,0", "--t-grid", "1:2:1",
         "--eps", "1e-320"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "", argv
        assert err == ("wavefront: error: geodesics at t=1.0 end at non-finite "
                       "positions, the first at theta=0.0\n"), argv


@pytest.mark.filterwarnings("error")
def test_disk_radius_squared_underflow_still_grids_the_disk(capsys):
    # radius**2 underflows to 0, so no cell is nearer than it to the centre,
    # yet the one cell inside the disk meets it: each command prints a row
    for argv, row in (
        (["density", "--surface", "disk:1e-300", "--p", "0,0", "--t-grid", "0.5:0.5:1",
          "--eps", "0.05"], "0.5,0.0,1.0,0.0,1"),
        (["tau", "--surface", "disk:1e-300", "--p", "0,0", "--r", "0.5", "--t-max", "2",
          "--dt", "1"], "0.5,0.0,2.0,1.0,0.0"),
    ):
        code, out, err = run(argv, capsys)
        assert code == 0 and err == "", argv
        assert out.splitlines()[2:] == [row], argv


@pytest.mark.filterwarnings("error")
def test_cube_front_at_a_tiny_time_warns_of_nothing(capsys):
    # cross-sheet distances divide by chords near 1e-300 and overflow to inf,
    # which the face-crossing test reads as intended
    code, out, err = run(["simulate", "--surface", "cube:1", "--p", "F/0/0.5", "--t", "1e-300"],
                         capsys)
    assert code == 0 and err == "" and json.loads(out)["t"] == 1e-300
    code, out, err = run(["density", "--surface", "cube:2.5", "--p", "F/0/0.5",
                          "--t-grid", "1e-300:1e-300:1", "--eps", "0.02"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("wavefront: error: eps=0.02: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_grid_too_large_for_a_float_exit_2(capsys):
    # extent/spacing overflows to inf, which no integer cell count holds
    # (the extent is at SIZE_BOUND, the spacing near the least normal float)
    for argv in (
        ["tau", "--surface", "torus:1e150,1e-300", "--p", "0.3,1e-301", "--r", "1e-300",
         "--t-max", "1", "--dt", "1"],
        ["density", "--surface", "torus:1e150,1e-300", "--p", "0.3,1e-301",
         "--t-grid", "0:0:1", "--eps", "4e-302"],
    ):
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert err.startswith("wavefront: error: grid of spacing "), argv
        assert "SAMPLE_BUDGET=" in err and err.count("\n") == 1, argv


@pytest.mark.filterwarnings("error")
def test_surface_size_past_the_bound_exit_1(tmp_path, capsys):
    # past SIZE_BOUND a squared coordinate difference can overflow; each
    # of these once ended in a traceback or in warnings and an inf radius
    for argv in (
        ["simulate", "--surface", "disk:1e155", "--p", "0,0", "--t", "1"],
        ["density", "--surface", "torus:1e154,1e154", "--p", "0.2,0.3",
         "--t-grid", "1:1:1", "--eps", "1e153"],
        ["tau", "--surface", "torus:1e155,1e155", "--p", "0.2,0.3", "--r", "5e154",
         "--t-max", "1", "--dt", "1"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == "", argv
        kind = argv[2].split(":")[0]
        assert err == (f"wavefront: error: {kind} parameters must be at most "
                       "SIZE_BOUND=1e+150\n"), argv

    # at the bound every distance stays finite
    code, out, err = run(
        ["density", "--surface", "torus:1e150,1e150", "--p", "2e149,3e149",
         "--t-grid", "1e150:2e150:1e150", "--eps", "1e149"],
        capsys,
    )
    assert code == 0 and err == ""
    assert "inf" not in out and "nan" not in out

    # a snapshot that names such a surface is refused as a snapshot
    snap, bad = tmp_path / "front.json", tmp_path / "bad.json"
    code, _, _ = run(["simulate", "--surface", "disk:1", "--p", "0,0", "--t", "1",
                      "--out", str(snap)], capsys)
    assert code == 0
    doc = json.loads(snap.read_bytes())
    doc["surface"] = "disk:1e155"
    bad.write_text(json.dumps(doc))
    code, out, err = run(["render", "--in", str(bad), "--out", str(tmp_path / "x.svg")],
                         capsys)
    assert code == 3 and out == ""
    assert "SIZE_BOUND" in err and err.count("\n") == 1


def test_long_cube_walk_refused_before_it_starts(capsys):
    # with the real WALK_BUDGET: 1024 rays of up to ~42,400 crossings each
    # are charged for their iterations too, so the first walk is refused
    # at once rather than run for tens of seconds
    start = time.perf_counter()
    code, _, err = run(
        ["simulate", "--surface", "cube:1", "--p", "U/0.5/0.5", "--t", "30000"], capsys
    )
    assert code == 2
    assert f"WALK_BUDGET={wavefront.surfaces.WALK_BUDGET}" in err and err.count("\n") == 1
    assert time.perf_counter() - start < 5.0


def test_io_errors_exit_3(tmp_path, capsys):
    code, _, err = run(
        ["render", "--in", str(tmp_path / "missing.json"),
         "--out", str(tmp_path / "x.svg")],
        capsys,
    )
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run(
        ["render", "--in", str(bad), "--out", str(tmp_path / "x.svg")], capsys
    )
    assert code == 3
    assert "malformed JSON" in err
    # a JSON integer past the float range is no finite number
    snap = tmp_path / "front.json"
    code, _, _ = run(["simulate", "--surface", "torus:1,1", "--p", "0.2,0.3", "--t", "1",
                      "--out", str(snap)], capsys)
    assert code == 0
    doc = json.loads(snap.read_bytes())
    doc["t"] = 10**400
    bad.write_text(json.dumps(doc))
    code, _, err = run(["render", "--in", str(bad), "--out", str(tmp_path / "x.svg")], capsys)
    assert code == 3 and err.count("\n") == 1
    assert err.startswith("wavefront: error: t must be a finite number, got 1000")


def test_density_rerun_gives_same_bytes(capsys):
    argv = ["density", "--surface", "torus:1,1", "--p", "0.2,0.3",
            "--t-grid", "2:4:2", "--eps", "0.05"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()


def test_module_entry_point_end_to_end(tmp_path):
    # ``python -m wavefront`` runs from a source checkout, nothing installed
    env = dict(os.environ, PYTHONPATH=str(Path(wavefront.__file__).parents[1]))

    def module_run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "wavefront", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )

    result = module_run("lattice", "--t-grid", "25:50:25")
    assert result.returncode == 0 and result.stderr == ""
    lines = result.stdout.strip().split("\n")
    assert lines[1] == "t,h,N_t,annulus_count,expected_area,E_t,gauss_bound"
    assert [line.split(",")[0] for line in lines[2:]] == ["25.0", "50.0"]

    snap = tmp_path / "front.json"
    assert module_run("simulate", "--surface", "torus:1,1", "--p", "0.2,0.3",
                      "--t", "1", "--out", str(snap)).returncode == 0
    doc = json.loads(snap.read_bytes())
    doc["components"][0]["samples"] = [5]
    snap.write_text(json.dumps(doc))
    bad = module_run("render", "--in", str(snap), "--out", str(tmp_path / "x.svg"))
    assert bad.returncode == 3
    assert bad.stderr.startswith("wavefront: error: ")
    assert "Traceback" not in bad.stderr


def test_cli_import_needs_no_scipy():
    # the runtime depends on numpy alone; scipy is a test-only oracle
    env = dict(os.environ, PYTHONPATH=str(Path(wavefront.__file__).parents[1]))
    code = "import sys, wavefront.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0 and result.stdout.strip() == "False"


def test_console_script_end_to_end():
    # the installed entry point, through a real process
    result = subprocess.run(
        ["wavefront", "lattice", "--t-grid", "5:5:1"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "t,h,N_t" in result.stdout
    bad = subprocess.run(
        ["wavefront", "density", "--surface", "torus:1,1", "--p", "0,0",
         "--t-grid", "oops", "--eps", "0.1"],
        capture_output=True, text=True,
    )
    assert bad.returncode == 1
    assert bad.stderr.startswith("wavefront: error: ")
