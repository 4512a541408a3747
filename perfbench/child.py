"""Run one wavefront CLI command in a fresh process, the way a user does.

Usage: child.py WORKDIR TIMES_FILE SPANS_FILE|- COMMAND_ID -- ARGV...

The parent sets PYTHONPATH to the checkout's ``src``.  This process
imports ``wavefront.cli``, runs ``cli.run(ARGV)`` in WORKDIR and exits
with its code.  It writes the monotonic clock at the end of the import
and at the return of ``cli.run`` to TIMES_FILE; the parent took the clock
just before spawning it, so set-up time includes interpreter start.  It
also writes its peak RSS, VmHWM, which counts only this program's own
address space: on Linux the ``ru_maxrss`` that ``wait4`` returns also
carries the spawning parent's peak, which exec does not reset.  With a
SPANS_FILE it also wraps the calls between wavefront's modules and
writes the spans there as JSON lines.
"""

import os
import sys
import time


def main() -> int:
    workdir, times_file, spans_file, command = sys.argv[1:5]
    argv = sys.argv[6:]
    os.chdir(workdir)
    import wavefront.cli

    run = wavefront.cli.run
    tracer = None
    if spans_file != "-":
        import tracer as tracing

        tracer = tracing.Tracer(command)
        run = tracing.install(tracer)
    ready = time.monotonic()
    code = run(argv)
    done = time.monotonic()
    sys.stdout.flush()
    with open("/proc/self/status", encoding="utf-8", errors="replace") as fh:
        hwm_kb = next(ln.split()[1] for ln in fh if ln.startswith("VmHWM:"))
    with open(times_file, "w", encoding="utf-8") as fh:
        fh.write(f"{ready!r} {done!r} {hwm_kb}\n")
    if tracer is not None:
        tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
