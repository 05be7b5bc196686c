"""One measured session: a fresh interpreter that imports esacert, then runs ops.

Protocol: the child imports esacert, notes the monotonic time at which it is
ready, then reads one JSON request from stdin:

    {"ops": [...], "trace": bool, "work": "<directory for figure output>"}

and writes one JSON line to stdout with the ready time, each op's duration,
exit code and output, the process's peak RSS and, when tracing, the span
records.  CLI output is captured per op; figure CSVs are read back after the
op's clock stops.  Run by run.py, which checks the outputs.
"""

import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import esacert
import esacert.cli
from esacert import stability

READY = time.monotonic()

# Library calls the workloads use, looked up through the module bindings at
# call time so that installed spans see them.
LIBRARY_CALLS = {
    "disc_q3": lambda n, l: stability.disc_q3(n, l),
    "pi_520": lambda l: stability.quartic_classify(
        stability.hurwitz_assemble(5, 20, l).q_factor).pi,
}


def run_op(op: dict, work: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    result = {"id": op["id"], "code": None, "error": None}
    argv = op.get("argv")
    outdir = None
    if argv is not None and "{out}" in argv:
        outdir = work / op["id"]
        argv = [str(outdir) if a == "{out}" else a for a in argv]
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op["call"] == "cli":
                result["code"] = esacert.cli.run(argv)
            else:
                result["value"] = str(LIBRARY_CALLS[op["call"]](*op["args"]))
    except SystemExit as exc:  # argparse usage errors
        result["code"] = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crash
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["seconds"] = time.perf_counter() - started
    result["stdout"] = out.getvalue()
    if outdir is not None:
        result["files"] = {p.name: p.read_text() for p in sorted(outdir.glob("*.csv"))}
        shutil.rmtree(outdir, ignore_errors=True)
    return result


def main() -> None:
    request = json.loads(sys.stdin.read())
    work = Path(request["work"])
    tracer = None
    if request["trace"]:
        from spans import Tracer
        tracer = Tracer()
        missing = tracer.install()
    results = []
    for op in request["ops"]:
        if tracer is not None:
            tracer.op = op["id"]
        results.append(run_op(op, work))
    import mpmath.libmp
    report = {
        "ready": READY,
        "esacert": esacert.__file__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
    }
    if tracer is not None:
        report["spans"] = tracer.dump()
        report["bindings"] = tracer.bindings
        report["missing_spans"] = missing
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
