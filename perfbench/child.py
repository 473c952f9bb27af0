"""Run one symbetti CLI command in this fresh interpreter and report on it.

Usage: python3 child.py [--setup-only] [--spans PATH] -- <symbetti arguments>

Set-up is interpreter start, ``import symbetti`` and parsing the ideal
file; it ends at ``t_ready_ns``.  The command then runs through
``symbetti.cli.main``, exactly as the ``symbetti`` entry point runs it, with
its standard output captured.  The last line printed is one JSON object
with the exit code, the CLOCK_MONOTONIC stamps (comparable with the
parent's), CPU seconds of this process and its reaped children over the
command, the peak resident set of either, and the captured output.  With
``--spans`` the tracer is installed first, and its summary is added to the
report and the raw spans are written to PATH after the command returns.
"""

import sys
import time

import symbetti.cli


def main(argv):
    sep = argv.index("--")
    opts, command = argv[:sep], argv[sep + 1:]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    symbetti.cli.parse_ideal_file(command[command.index("--ideal") + 1])
    t_ready = time.monotonic_ns()

    import io
    import json
    import resource
    import traceback

    report = {"t_ready_ns": t_ready}
    if "--setup-only" not in opts:
        out = io.StringIO()
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.monotonic_ns()
        root = tracer.begin(tracer._id("cli.main")) if tracer else None
        try:
            code = symbetti.cli.main(command, out=out)
        except Exception:  # an escaped exception is a failed operation, not a crash
            traceback.print_exc()
            code = -1
        if tracer:
            tracer.end(root)
        t_done = time.monotonic_ns()
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = sum(getattr(b, f) - getattr(a, f)
                  for a, b in ((self0, self1), (kids0, kids1))
                  for f in ("ru_utime", "ru_stime"))
        report.update(
            code=code,
            t_start_ns=t0,
            t_done_ns=t_done,
            cpu_s=cpu,
            rss_kb=max(self1.ru_maxrss, kids1.ru_maxrss),
            stdout=out.getvalue(),
        )
        if tracer:
            tracer.active = False
            report["trace"] = tracer.summary()
            tracer.write(spans_path)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
