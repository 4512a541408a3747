"""The wavefront benchmark: CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--results DIR]
    python3 perfbench/run.py --record-digests

Run from the root of a checkout.  Every command of a workload runs the way
a user runs it: one fresh ``sys.executable`` process per command with the
checkout's ``src`` on PYTHONPATH (nothing is installed), one command at a
time.  A pass runs the workload's commands once in a fresh directory; the
benchmark repeats passes (at least two) while the next one is expected to
end within ``--seconds``, and reports the median over passes of:

* ``wall_s``: process wall time, spawn to exit, summed over the commands;
* ``setup_s``: spawn to the end of ``import wavefront.cli``, summed;
* ``run_s``: end of the import to the return of ``cli.run``, summed;
* ``peak_rss_mb``: the largest peak RSS (VmHWM) of any command process.

Failed commands (non-zero exit, a traceback, or an artifact that fails a
check of ``checks.py``) count in ``failed``; ``fail_ratio`` is
failed/attempted.  Command j of pass k runs with WAVEFRONT_THREADS=1 when
j + k is even and WAVEFRONT_THREADS=nproc otherwise, and every pass must
reproduce the first pass's bytes, so each run checks reruns and both
thread settings.

With ``--trace 1`` every other pass runs with the spans of ``tracer.py``
recorded and the result's metrics are the per-layer ones (medians over
the traced passes), including the tracing overhead against the untraced
passes of the same run.  ``--workload all`` interleaves the workloads pass
by pass and prints every metric of every workload.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"

RUN_SECONDS = 30
MIN_PASSES = 2
# A run stops this long after its time budget, killing the command in
# flight, so that a hung command cannot keep it past 180 s.
OVERRUN_S = 145.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("run_s", "s"),
              ("peak_rss_mb", "MB"))


@dataclass
class CommandResult:
    id: str
    threads: str
    code: int | None
    wall_s: float
    setup_s: float | None
    run_s: float | None
    rss_mb: float | None
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    traced: bool
    commands: list
    spans: list = field(default_factory=list)

    def total(self, key):
        vals = [getattr(c, key) for c in self.commands]
        return None if None in vals else sum(vals)


@dataclass
class WorkloadRun:
    """All passes of one workload at one seed, and what went wrong."""

    name: str
    seed: int
    points: dict
    commands: list
    reference: dict | None
    passes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(p.commands) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.passes for c in p.commands if c.problems)


# ---------------------------------------------------------------------------
# running one command, one pass


def _wait(pid: int, timeout: float) -> int:
    """Wait for ``pid``, killing it after ``timeout`` s; return its exit code."""
    try:
        fd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([fd], [], [], timeout)
        finally:
            os.close(fd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status)


def run_command(cmd, passdir: Path, threads: str, spans_file: Path | None,
                deadline: float):
    """Spawn one command, killed at ``deadline`` (monotonic clock) if still
    running; return its CommandResult, artifacts and stderr."""
    env = dict(os.environ, WAVEFRONT_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                   if p))
    times = passdir / f"{cmd.id}.times"
    stdout = passdir / f"{cmd.id}.stdout"
    stderr = passdir / f"{cmd.id}.stderr"
    argv = [sys.executable, str(CHILD), str(passdir), str(times),
            str(spans_file) if spans_file else "-", cmd.id, "--", *cmd.argv]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    code = _wait(pid, max(0.0, deadline - start))
    end = time.monotonic()
    setup = run = rss = None
    try:
        ready, done, hwm_kb = (float(x) for x in times.read_text().split())
        setup, run, rss = ready - start, done - ready, hwm_kb / 1024.0
    except (OSError, ValueError):
        code = code if code != 0 else None  # exited 0 without finishing
    artifacts = {}
    for name in cmd.artifacts:
        try:
            artifacts[name] = (passdir / name).read_bytes()
        except OSError:
            artifacts[name] = None
    result = CommandResult(cmd.id, threads, code, end - start, setup, run, rss)
    return result, artifacts, stderr.read_bytes()


def run_pass(wr: WorkloadRun, workdir: Path, k: int, traced: bool,
             nproc: int, deadline: float) -> Pass:
    passdir = workdir / f"{wr.name}-pass{k}"
    passdir.mkdir(parents=True)
    p = Pass(traced, [])
    artifacts, errors = {}, []
    try:
        for j, cmd in enumerate(wr.commands):
            threads = "1" if (j + k) % 2 == 0 else str(nproc)
            spans_file = passdir / f"{cmd.id}.spans" if traced else None
            res, arts, err = run_command(cmd, passdir, threads, spans_file,
                                         deadline)
            artifacts.update(arts)
            errors.append(err)
            if spans_file is not None and res.code == 0:
                p.spans.extend(tracer.load(spans_file))
            p.commands.append(res)
    finally:
        shutil.rmtree(passdir)
    _check_pass(wr, p, artifacts, errors)
    wr.passes.append(p)
    return p


def _check_pass(wr: WorkloadRun, p: Pass, artifacts: dict, errors: list):
    digests = {k: None if v is None else checks.sha256(v)
               for k, v in artifacts.items()}
    first = not wr.passes
    if wr.reference is None and first:
        wr.reference = digests
    owner = {a: c for c in wr.commands for a in c.artifacts}
    for res, cmd, err in zip(p.commands, wr.commands, errors):
        own = {a: digests[a] for a in cmd.artifacts}
        res.problems += checks.command_problems(cmd.id, res.code, err, own,
                                                wr.reference)
        if res.code != 0 and err:
            res.problems.append(f"{cmd.id}: stderr: "
                                + err.decode("utf-8", "replace").strip()[-300:])
    if first and all(v is not None for v in artifacts.values()):
        for problem in checks.content_problems(wr.name, wr.points, artifacts):
            cmd = owner[problem.split(":", 1)[0]]
            p.commands[wr.commands.index(cmd)].problems.append(problem)
    if p.traced:
        sums = tracer.layer_self_times(p.spans)
        for res in p.commands:
            roots = [s for s in p.spans
                     if s["command"] == res.id and s["parent"] is None]
            busy = sum(s["end"] - s["start"] for s in roots)
            layers = sum(v for (c, _), v in sums.items() if c == res.id)
            if res.code == 0 and abs(layers - busy) > 1e-6:
                res.problems.append(f"{res.id}: layer self times sum to "
                                    f"{layers} s, cli.run took {busy} s")


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(wr: WorkloadRun) -> dict:
    """Median over untraced passes of each end-to-end metric, and n."""
    plain = [p for p in wr.passes if not p.traced]
    per_pass = {
        "wall_s": [p.total("wall_s") for p in plain],
        "setup_s": [p.total("setup_s") for p in plain],
        "run_s": [p.total("run_s") for p in plain],
        "peak_rss_mb": [max((c.rss_mb or 0.0) for c in p.commands) for p in plain],
    }
    return {k: (_median(v), len([x for x in v if x is not None]))
            for k, v in per_pass.items()}


def per_layer(wr: WorkloadRun) -> dict:
    """Median over traced passes of each span metric, plus the overhead."""
    traced = [p for p in wr.passes if p.traced]
    rows = [tracer.span_metrics(p.spans) for p in traced]
    out = {name: _median([r.get(name) for r in rows]) for name, _ in tracer.METRICS}
    traced_run = _median([p.total("run_s") for p in traced])
    plain_run = _median([p.total("run_s") for p in wr.passes if not p.traced])
    out["trace.run_s"], out["trace.untraced_run_s"] = traced_run, plain_run
    out["trace.overhead_s"] = (None if None in (traced_run, plain_run)
                               else traced_run - plain_run)
    return out


# ---------------------------------------------------------------------------
# environment and result records


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def environment() -> dict:
    cpu = next((ln.split(":", 1)[1].strip()
                for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "WAVEFRONT_THREADS": "alternating 1 and nproc per command "
        f"(inherited setting {os.environ.get('WAVEFRONT_THREADS')!r} overridden)",
        "loadavg_start": _read("/proc/loadavg").strip(),
    }


def bench_digest() -> str:
    """Digest of the benchmark's own code, so compare can spot a mismatch."""
    h = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")) + [DIGESTS]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def result_record(wr: WorkloadRun, args, env: dict) -> dict:
    return {
        "workload": wr.name,
        "seed": wr.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "bench": bench_digest(),
        "environment": env,
        "commands": [["wavefront", *c.argv] for c in wr.commands],
        "passes": [{"traced": p.traced,
                    "commands": [vars(c) for c in p.commands]}
                   for p in wr.passes],
        "end_to_end": {k: {"median": v, "n": n}
                       for k, (v, n) in end_to_end(wr).items()},
        "per_layer": per_layer(wr) if args.trace else {},
        "attempted": wr.attempted,
        "failed": wr.failed,
    }


# ---------------------------------------------------------------------------
# measuring and reporting


def _reference(name: str, seed: int):
    if seed != workloads.DEFAULT_SEED:
        return None
    try:
        return json.loads(DIGESTS.read_text())[name]
    except (OSError, KeyError, ValueError):
        return {}  # matches nothing, so every artifact is flagged


def _enough(runs, trace: int, elapsed: float, budget: float, estimate: float):
    """True once every run has its minimum passes and another round of
    ``estimate`` seconds would end after the budget."""
    for wr in runs:
        plain = sum(1 for p in wr.passes if not p.traced)
        traced = len(wr.passes) - plain
        if (plain < 1 or traced < 1) if trace else plain < MIN_PASSES:
            return False
    return elapsed + estimate > budget


def measure(names, seed: int, seconds: float, trace: int, workdir: Path):
    """Run passes of every named workload, interleaved, for the time budget."""
    nproc = len(os.sched_getaffinity(0))
    runs = [WorkloadRun(n, seed, workloads.source_points(n, seed),
                        workloads.commands(n, seed), _reference(n, seed))
            for n in names]
    start, k, rounds = time.monotonic(), 0, []
    budget = seconds * len(runs)
    deadline = start + budget + OVERRUN_S
    while True:
        t0 = time.monotonic()
        for i in range(len(runs)):
            wr = runs[(i + k) % len(runs)]
            run_pass(wr, workdir, k, bool(trace) and k % 2 == 1, nproc, deadline)
        rounds.append(time.monotonic() - t0)
        k += 1
        now = time.monotonic()
        if now >= deadline or _enough(runs, trace, now - start, budget,
                                      statistics.median(rounds)):
            return runs


def _warm_up(workdir: Path) -> bool:
    """Compile bytecode and load the libraries once, untimed."""
    warm = workloads.Command("warm-up", ("lattice", "--t-grid", "1:1:1"))
    d = workdir / "warm-up"
    d.mkdir(parents=True)
    res, _, err = run_command(warm, d, "1", None, time.monotonic() + 60.0)
    shutil.rmtree(d)
    return not checks.command_problems(warm.id, res.code, err, {}, None)


def _report(wr: WorkloadRun, trace: int) -> None:
    print(f"== {wr.name} (seed {wr.seed}; {workloads.WHY[wr.name]})")
    for c in wr.commands:
        print("   $ wavefront " + " ".join(c.argv))
    for name, (value, n) in end_to_end(wr).items():
        unit = dict(END_TO_END)[name]
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"   {name:<12} {shown:>10} {unit:<3} (median of {n} passes)")
    print(f"   {'fail_ratio':<12} {wr.failed / max(1, wr.attempted):>10.4f}"
          f"     ({wr.failed}/{wr.attempted} commands)")
    if trace:
        for name, value in per_layer(wr).items():
            print(f"   {name:<40} {value}")
    problems = [q for p in wr.passes for c in p.commands for q in c.problems]
    for q in problems[:20]:
        print(f"   FAIL {q}")


def _metrics(runs, trace: int) -> dict:
    units = dict(tracer.METRICS) if trace else dict(END_TO_END)
    out = {}
    for wr in runs:
        values = per_layer(wr) if trace else {k: v for k, (v, _) in
                                               end_to_end(wr).items()}
        for name, value in values.items():
            key = name if len(runs) == 1 else f"{wr.name}.{name}"
            out[key] = {"value": value, "unit": units[name]}
    return out


def record_digests(workdir: Path) -> int:
    nproc = len(os.sched_getaffinity(0))
    recorded = {}
    for name in workloads.WORKLOADS:
        seed = workloads.DEFAULT_SEED
        wr = WorkloadRun(name, seed, workloads.source_points(name, seed),
                         workloads.commands(name, seed), None)
        deadline = time.monotonic() + OVERRUN_S
        run_pass(wr, workdir, 0, False, nproc, deadline)
        run_pass(wr, workdir, 1, False, nproc, deadline)
        _report(wr, 0)
        if wr.failed:
            print(f"not recording: {name} failed", file=sys.stderr)
            return 1
        recorded[name] = wr.reference
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", metavar="DIR",
                    help="also write each workload's full record here")
    ap.add_argument("--record-digests", action="store_true",
                    help="run every workload at the default seed and record "
                    "its artifact digests (only after a deliberate format change)")
    args = ap.parse_args(argv)
    if not args.record_digests and args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "wavefront" / "cli.py").is_file():
        print(f"perfbench: no wavefront sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        if not _warm_up(workdir):
            print("perfbench: wavefront does not run in this checkout",
                  file=sys.stderr)
            return 2
        if args.record_digests:
            return record_digests(workdir)
        env = environment()
        names = (workloads.WORKLOADS if args.workload == "all"
                 else (args.workload,))
        runs = measure(names, args.seed, args.seconds, args.trace, workdir)
        env["loadavg_end"] = _read("/proc/loadavg").strip()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("environment: " + json.dumps(env))
    for wr in runs:
        _report(wr, args.trace)
    if args.results:
        out = Path(args.results)
        out.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        for wr in runs:
            stem = f"{wr.name}-seed{wr.seed}-trace{args.trace}-{stamp}"
            (out / f"{stem}.json").write_text(
                json.dumps(result_record(wr, args, env), indent=1) + "\n")
            if args.trace:
                with open(out / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
                    for p in wr.passes:
                        for s in p.spans:
                            fh.write(json.dumps(s) + "\n")
    attempted = sum(wr.attempted for wr in runs)
    failed = sum(wr.failed for wr in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": _metrics(runs, args.trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
