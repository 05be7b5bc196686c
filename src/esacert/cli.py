"""Command-line interface.

Subcommands: decide, region, table, figure, basis, conjecture.

Exit codes: 0 success (and ESA for `decide`), 10 NotESA, 20 golden-data
mismatch (`table`), 2 usage error.  JSON payloads carry only exact rational
strings or explicitly enclosed values and are byte-identical across
invocations; wall-clock timing goes to stderr only.  The flags are the only
input: no config file or environment variable is read.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import golden
from .esa import (CONJECTURE_M_CAP, L_MAX, _hurwitz_cached, conjecture_explore,
                  esa_decide_radial, esa_region_full, esa_region_radial,
                  euler_esa_closed_form, gamma_threshold, render_value,
                  value_to_json)
from .indicial import IndicialSpec, euler_quartic, root_trajectories
from .roots import trajectory_csv_rows, trajectory_table
from .stability import quartic_classify

EXIT_OK = 0
EXIT_NOT_ESA = 10
EXIT_TABLE_MISMATCH = 20
EXIT_USAGE = 2


def rational_arg(text: str) -> Fraction:
    """Exact rational from 'p/q', integer, or decimal text (never via floats)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _int_at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


@contextlib.contextmanager
def _task_map(jobs: int):
    """The builtin map for jobs <= 1, else the map of a pool of `jobs` worker
    processes; both return results in task order."""
    if jobs <= 1:
        yield map
        return
    # imported here, so that sequential runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield pool.map


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)


def _envelope(args_echo, spec: dict, result: dict, l_max=None,
              oracle=None) -> dict:
    return {
        "command": [str(a) for a in args_echo],
        "spec": spec,
        "result": result,
        "certification": {
            "l_max": l_max,
            "oracle_crosscheck": oracle,
        },
    }


# -- decide ----------------------------------------------------------------------


def cmd_decide(args) -> int:
    spec = IndicialSpec(m=args.m, n=args.n, l=args.l, c=args.c)
    verdict = esa_decide_radial(spec)
    if args.json:
        print(_dump_json(_envelope(args.argv, spec.to_json(), verdict.to_json())))
    else:
        print(f"operator (m={spec.m}, n={spec.n}, l={spec.l}) at c = {spec.c}: "
              f"{verdict.verdict.value}")
        ct = verdict.count
        print(f"  roots vs Re = -1/2: left={ct.left} axis={ct.axis} "
              f"right={ct.right} (exact)")
        print(f"  criterion: left + axis == m "
              f"({ct.left}+{ct.axis} vs m={spec.m})")
        if verdict.certificate.get("axis_parameters"):
            print(f"  axis root parameters: "
                  f"{verdict.certificate['axis_parameters']}")
        print(f"  Hurwitz determinant at c: "
              f"{verdict.certificate['hurwitz_det_at_c']}")
    return EXIT_OK if verdict.is_esa else EXIT_NOT_ESA


# -- region ----------------------------------------------------------------------


def cmd_region(args) -> int:
    if args.all_l:
        with _task_map(args.jobs) as task_map:
            region = esa_region_full(args.m, args.n, args.lmax, map=task_map)
        spec = {"m": args.m, "n": args.n, "l_max": args.lmax}
    else:
        if args.l is None:
            print("region: provide --l or --all-l", file=sys.stderr)
            return EXIT_USAGE
        region = esa_region_radial(args.m, args.n, args.l)
        spec = {"m": args.m, "n": args.n, "l": args.l}
    rendered = region.render(args.digits)
    if args.json:
        result = region.to_json()
        result["rendered"] = rendered
        print(_dump_json(_envelope(args.argv, spec, result,
                                   l_max=region.certified_up_to_l,
                                   oracle=region.oracle_checked)))
    else:
        print(rendered)
        if region.oracle_checked:
            print(f"  cross-checked against the {region.oracle_checked} oracle")
    return EXIT_OK


# -- table -----------------------------------------------------------------------


def cmd_table(args) -> int:
    mismatches = []
    rows = []
    if args.which == "gamma2":
        for n in range(2, 13):
            got = gamma_threshold(2, n, 0)
            want = golden.GAMMA2_TABLE[n]
            rows.append((n, got, want))
            if got != want:
                mismatches.append(f"n={n}: engine {got} != reference {want}")
        header = f"{'n':>4} {'threshold':>12}"
        print(header)
        for n, got, _ in rows:
            print(f"{n:>4} {str(got):>12}")
    else:   # signs520
        for l in range(31):
            q = _hurwitz_cached(5, 20, l).q_factor
            got = quartic_classify(q).signs()
            want = golden.SIGNS_520_TABLE[l]
            rows.append((l, got, want))
            if got != want:
                mismatches.append(f"l={l}: engine {got} != reference {want}")
        print(f"{'l':>4} {'disc':>5} {'pi':>4} {'lambda':>7}")
        fmt = {1: "+", -1: "-", 0: "0"}
        for l, got, _ in rows:
            print(f"{l:>4} {fmt[got[0]]:>5} {fmt[got[1]]:>4} {fmt[got[2]]:>7}")
    if mismatches:
        print("GOLDEN DATA MISMATCH:", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return EXIT_TABLE_MISMATCH
    print("all entries match the embedded reference data")
    return EXIT_OK


# -- figure ----------------------------------------------------------------------


def _write_csv(path: Path, rows) -> None:
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _write_trajectories(path: Path, rows, highlight_label) -> None:
    table = trajectory_csv_rows(rows)
    table[0].append("highlight")
    for row, pt in zip(table[1:], rows):
        row.append(int(pt.label == highlight_label))
    _write_csv(path, table)


def _grid(lo: Fraction, hi: Fraction, steps: int) -> list:
    step = (hi - lo) / (steps - 1)
    return [lo + step * i for i in range(steps)]


def cmd_figure(args) -> int:
    if args.which == "fig1":
        if args.c1 is None:
            print("figure fig1 requires --c1", file=sys.stderr)
            return EXIT_USAGE
        if args.sweep_min >= args.sweep_max:
            print("figure fig1 requires --sweep-min < --sweep-max", file=sys.stderr)
            return EXIT_USAGE
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        print(f"figure: --out {out} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    written = []
    if args.which == "fig1":
        grid = _grid(args.sweep_min, args.sweep_max, args.steps)
        with _task_map(args.jobs) as task_map:
            rows = trajectory_table(functools.partial(euler_quartic, args.c1),
                                    grid, map=task_map)
        path = out / "fig1_trajectories.csv"
        _write_trajectories(path, rows, highlight_label=2)
        written.append(path)
    elif args.which == "fig3":
        grid = _grid(Fraction(0), Fraction(22, 10) * 10 ** 10, args.steps)
        with _task_map(args.jobs) as task_map:
            for l in range(5):
                rows = root_trajectories(5, 20, l, grid, map=task_map)
                path = out / f"fig3_l{l}.csv"
                _write_trajectories(path, rows,
                                    highlight_label=5 if l == 0 else None)
                written.append(path)
    else:   # fig2
        from .frobenius import locus_samples
        rows = locus_samples()
        path = out / "fig2_loci.csv"
        _write_csv(path, [["locus_id", "k", "c1", "c2", "esa_flag"]]
                   + [[kind, k, str(c1), str(c2), int(flag)]
                      for kind, k, c1, c2, flag in rows])
        written.append(path)
        shade = [["c1", "c2", "esa_flag"]]
        for c1 in _grid(Fraction(-30), Fraction(5), 71):
            for c2 in _grid(Fraction(-40), Fraction(60), 51):
                shade.append([str(c1), str(c2),
                              int(euler_esa_closed_form(c1, c2))])
        path = out / "fig2_region.csv"
        _write_csv(path, shade)
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


# -- basis -----------------------------------------------------------------------


def cmd_basis(args) -> int:
    from .frobenius import select_fundamental_system
    sel = select_fundamental_system(args.c1, args.c2)
    if args.json:
        spec = {"c1": str(args.c1), "c2": str(args.c2)}
        print(_dump_json(_envelope(args.argv, spec, sel.to_json())))
    else:
        cls = sel.classification
        print(f"(c1, c2) = ({args.c1}, {args.c2})")
        if cls.generic:
            print("  resonance: none (generic point)")
        for mem in cls.lines:
            print(f"  on line k={mem.k} ({mem.branch.value} branch), "
                  f"exponent relations {mem.relations}")
        for mem in cls.parabolas:
            print(f"  on parabola k={mem.k} ({mem.branch.value} branch), "
                  f"exponent relations {mem.relations}")
        print(f"  case: {sel.case_tag.value}")
        for i, s in enumerate(sel.solutions, start=1):
            arg = "-z" if s.argument_negated else "z"
            print(f"  y{i}: {s.kind.value} exponent={s.exponent:.6g} "
                  f"arg={arg} params={[format(p, '.6g') for p in s.parameters]}")
    return EXIT_OK


# -- conjecture ---------------------------------------------------------------------


def cmd_conjecture(args) -> int:
    rows = conjecture_explore(args.mmax)
    if args.json:
        result = {"rows": [{
            "m": r["m"],
            "gamma": value_to_json(r["gamma"]),
            "comparison": repr(r["comparison"]),
            "log_ratio": None if r["log_ratio"] is None else repr(r["log_ratio"]),
        } for r in rows]}
        print(_dump_json(_envelope(args.argv, {"m_max": args.mmax}, result)))
    else:
        print(f"{'m':>3} {'threshold':>24} {'(2m^2/pi)^2m':>16} {'log-ratio':>10}")
        print("exploratory table; nothing is asserted beyond the values shown")
        for r in rows:
            g = render_value(r["gamma"], 10)
            ratio = "-" if r["log_ratio"] is None else f"{r['log_ratio']:.4f}"
            print(f"{r['m']:>3} {g:>24} {r['comparison']:>16.6g} {ratio:>10}")
    return EXIT_OK


# -- parser -----------------------------------------------------------------------


# tokens like -9/16 or -1.5e10 are rational values, not option flags
_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+([eE][-+]?\d+)?$"
                             r"|^-\d+(\.\d+)?[eE][-+]?\d+$")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="esacert",
        description="Certified essential self-adjointness decisions for "
                    "Euler-type operators, via exact indicial-root localization.")
    ap._negative_number_matcher = _NEGATIVE_VALUE
    sub = ap.add_subparsers(dest="command", required=True)

    positive, at_least_two, nonnegative = (_int_at_least(1), _int_at_least(2),
                                           _int_at_least(0))

    p = sub.add_parser("decide", help="decide ESA of one radial operator")
    p.add_argument("--m", type=positive, required=True)
    p.add_argument("--n", type=at_least_two, required=True)
    p.add_argument("--l", type=nonnegative, default=0)
    p.add_argument("--c", type=rational_arg, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("region", help="ESA region in the coupling")
    p.add_argument("--m", type=positive, required=True)
    p.add_argument("--n", type=at_least_two, required=True)
    p.add_argument("--l", type=nonnegative, default=None)
    p.add_argument("--all-l", action="store_true", dest="all_l")
    p.add_argument("--lmax", type=nonnegative, default=L_MAX)
    p.add_argument("--digits", type=positive, default=6)
    p.add_argument("--jobs", type=positive, default=1)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table", help="regenerate a reference table and diff it")
    p.add_argument("--which", choices=("gamma2", "signs520"), required=True)

    p = sub.add_parser("figure", help="emit figure data as CSV")
    p.add_argument("--which", choices=("fig1", "fig2", "fig3"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--c1", type=rational_arg, default=None)
    p.add_argument("--sweep-min", type=rational_arg, default=Fraction(-40))
    p.add_argument("--sweep-max", type=rational_arg, default=Fraction(80))
    p.add_argument("--steps", type=at_least_two, default=61)
    p.add_argument("--jobs", type=positive, default=1)

    p = sub.add_parser("basis", help="resonance classification and basis descriptors")
    p.add_argument("--c1", type=rational_arg, required=True)
    p.add_argument("--c2", type=rational_arg, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("conjecture", help="threshold growth exploration table")
    p.add_argument("--mmax", type=int, default=8, metavar="M",
                   choices=range(1, CONJECTURE_M_CAP + 1))
    p.add_argument("--json", action="store_true")

    for choices in sub.choices.values():
        choices._negative_number_matcher = _NEGATIVE_VALUE
    return ap


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser, built on the first `run` and reused by later calls in the
    same process (parse_args does not change it)."""
    return build_parser()


_HANDLERS = {
    "decide": cmd_decide,
    "region": cmd_region,
    "table": cmd_table,
    "figure": cmd_figure,
    "basis": cmd_basis,
    "conjecture": cmd_conjecture,
}


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _shared_parser().parse_args(argv)
    args.argv = argv   # echoed by the handlers that print a JSON envelope
    started = time.perf_counter()
    try:
        code = _HANDLERS[args.command](args)
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()   # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader went away (`esacert ... | head`); point stdout at devnull
        # so that the flush at exit does not fail again, as the `signal`
        # documentation recommends
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
