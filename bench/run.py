"""esacert benchmark: one command, two seeded workloads, checked outputs.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 55 --trace 0

Run from the repository root.  Every measured session is a fresh
interpreter (child.py) that imports esacert from ./src and runs the
workload's whole op list in one process, so caches and lazy imports start
cold as they do for a CLI call.  Sessions repeat for --seconds (at least
MIN_SESSIONS of them).  Wall time is the median over sessions, the latency
percentiles are taken over every timed run of the workload's small ops, and
set-up time is the median over launches.  The outputs of every session are
checked against closed forms and golden data (oracle.py).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced sessions and prints the per-layer metrics, including the tracing
overhead; it fails if a span the workload must exercise records no calls.

The last line of stdout is the result object; the lines before it describe
the environment, the generated inputs and the per-layer breakdown.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_SESSIONS = 3
MIN_SETUP_SAMPLES = 11
SESSION_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_p95_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def child_env() -> dict:
    env = dict(os.environ)
    # a stray config file or trace switch must not change what is measured
    for key in ("ESACERT_CONFIG", "ESACERT_TRACE"):
        env.pop(key, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@contextlib.contextmanager
def work_dir(name: str):
    """A scratch directory for figure output inside the checkout, removed after."""
    work = ROOT / ".bench_work" / name
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def run_session(ops: list, trace: bool, work: Path, cpu: int | None = None) -> dict:
    """One fresh interpreter running ops, pinned to `cpu` if given; returns
    its report plus setup_s."""
    request = json.dumps({"ops": ops, "trace": trace, "work": str(work)})
    pin = None if cpu is None else functools.partial(os.sched_setaffinity, 0, {cpu})
    launched = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env(), preexec_fn=pin)
    try:
        stdout, stderr = proc.communicate(request, timeout=SESSION_TIMEOUT_S)
    except BaseException as exc:  # never leave the session running
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"session exceeded {SESSION_TIMEOUT_S} s") from exc
        raise
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"session exited with {proc.returncode}: {stderr.strip()[-2000:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    if not Path(report["esacert"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"esacert imported from {report['esacert']}, not {SRC}")
    report["setup_s"] = report["ready"] - launched
    report["wall_s"] = sum(r["seconds"] for r in report["ops"])
    return report


def percentile(values: list, q: int) -> float:
    """The q-th percentile (exclusive method, as statistics.quantiles)."""
    return statistics.quantiles(values, n=100)[q - 1]


def environment(report: dict) -> dict:
    from importlib.metadata import version
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": version("mpmath"),
        "mpmath_backend": report["mpmath_backend"],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "esacert_config": "unset",
    }


def check_sessions(ops: list, sessions: list) -> tuple:
    """(attempted, failed, first failure reasons) over every session's ops."""
    from oracle import check
    by_id = {op["id"]: op for op in ops}
    verdicts = {}
    attempted = failed = 0
    reasons = []
    for report in sessions:
        for out in report["ops"]:
            attempted += 1
            # identical output is judged once
            key = (out["id"], out["code"], out["error"], out.get("value"),
                   out["stdout"], json.dumps(out.get("files"), sort_keys=True))
            if key not in verdicts:
                verdicts[key] = check(by_id[out["id"]], out)
            if verdicts[key] is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{out['id']}: {verdicts[key]}")
    return attempted, failed, reasons


def end_to_end(ops: list, sessions: list, setups: list) -> dict:
    """Medians and percentiles over every session and every timed run, not
    minima: on a machine whose speed switches between states, how often a
    run catches a fast moment varies far more than the share of time it
    spends in each state (see README.md)."""
    small = {op["id"] for op in ops if op.get("latency")}
    latencies = [out["seconds"] * 1000 for report in sessions
                 for out in report["ops"] if out["id"] in small]
    p95 = percentile(latencies, 95)
    print(f"op latency: {len(latencies)} samples ({len(small)} ops x "
          f"{len(sessions)} sessions); {sum(x > p95 for x in latencies)} above p95")
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s["wall_s"] for s in sessions),
        "op_p50_ms": percentile(latencies, 50),
        "op_p95_ms": p95,
        "peak_rss_mb": statistics.median(s["peak_rss_kb"] for s in sessions) / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def span_totals(traced: list) -> dict:
    """Per span, [calls, self_s, failed, extra] summed over ops, each op's
    record taken field by field at its (lower) median across traced
    sessions."""
    from spans import SPAN_NAMES
    per_op = {}
    for report in traced:
        for op in {out["id"] for out in report["ops"]}:
            records = report["spans"].get(op, {})
            for name in SPAN_NAMES:
                per_op.setdefault((op, name), []).append(records.get(name, [0, 0.0, 0, 0]))
    totals = {name: [0, 0.0, 0, 0] for name in SPAN_NAMES}
    for (_, name), recs in per_op.items():
        rec = [statistics.median_low(field) for field in zip(*recs)]
        totals[name] = [a + b for a, b in zip(totals[name], rec)]
    return totals


def per_layer(traced: list, untraced: list, expected: tuple) -> dict:
    from spans import SPAN_NAMES
    for report in traced:
        missing = set(report["missing_spans"]) & set(expected)
        if missing:
            raise BenchError(f"expected spans not found in the program: {sorted(missing)}")
    totals = span_totals(traced)
    zero = [name for name in expected if totals[name][0] == 0]
    if zero:
        raise BenchError(f"span coverage: expected spans recorded no calls: {zero}")

    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s, failed, _ = totals[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.failed"] = (failed, "count")
    calls, _, _, escalated = totals["roots.certified_roots"]
    metrics["roots.certified_roots.escalated"] = (escalated, "count")
    calls, _, _, hits = totals["exact.rational_roots"]
    metrics["exact.rational_roots.hits"] = (hits, "count")
    metrics["exact.rational_roots.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    calls, _, _, cells = totals["esa.esa_region_radial"]
    metrics["esa.esa_region_radial.cells"] = (cells, "count")
    metrics["esa.esa_region_radial.cells_per_call"] = (
        cells / calls if calls else 0.0, "ratio")
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    untraced_wall = statistics.median(s["wall_s"] for s in untraced)
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace_overhead_frac"] = (traced_wall / untraced_wall - 1, "frac")

    print("per-layer self time, top spans:")
    ranked = sorted(SPAN_NAMES, key=lambda n: -totals[n][1])
    for name in ranked[:10]:
        print(f"  {name:36s} calls={totals[name][0]:>8d} self_s={totals[name][1]:.4f}")
    print("span bindings:", json.dumps(traced[0]["bindings"], sort_keys=True))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def measure(ops: list, trace: bool, seconds: int, work: Path) -> tuple:
    """Sessions for `seconds` of elapsed time, at least MIN_SESSIONS of each
    kind, traced and untraced alternating; returns (untraced, traced, setup
    samples).

    Successive rounds run on successive CPUs: on the VM this was tuned on,
    the two vCPUs' slow states overlap only in part, and alternating samples
    both in equal measure.
    """
    cpus = sorted(os.sched_getaffinity(0))
    kinds = (False, True) if trace else (False,)
    run_session([], False, work)  # writes bytecode caches, warms the file cache
    untraced, traced, setups = [], [], []
    started = time.monotonic()
    for i, kind in enumerate(itertools.cycle(kinds)):
        enough = len(untraced) >= MIN_SESSIONS and len(traced) >= MIN_SESSIONS * trace
        if enough and time.monotonic() - started >= seconds:
            break
        report = run_session(ops, kind, work, cpus[i // len(kinds) % len(cpus)])
        (traced if kind else untraced).append(report)
        setups.append(report["setup_s"])
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_session([], False, work, cpus[len(setups) % len(cpus)])["setup_s"])
    return untraced, traced, setups


def main(argv=None) -> int:
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ops = workloads.generate(args.workload, args.seed)
    print("inputs:", json.dumps(workloads.input_properties(ops), sort_keys=True))
    with work_dir(str(os.getpid())) as work:
        untraced, traced, setups = measure(ops, bool(args.trace), args.seconds, work)
    print("env:", json.dumps(environment(untraced[0]), sort_keys=True))
    print(f"sessions: {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(ops)} ops per session")
    attempted, failed, reasons = check_sessions(ops, untraced + traced)
    for reason in reasons:
        print("FAILED", reason)
    print(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted} ops)")
    if args.trace:
        metrics = per_layer(traced, untraced, workloads.EXPECTED_SPANS[args.workload])
    else:
        metrics = end_to_end(ops, untraced, setups)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # on SIGTERM, unwind so that the running session is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "esacert" / "__init__.py").is_file():
        sys.exit(f"bench: no esacert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.exit(f"bench: {exc}")
