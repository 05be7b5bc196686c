"""Command-line interface.

Subcommands: decide, region, table, figure, basis, conjecture.

Exit codes: 0 success (and ESA for `decide`), 10 NotESA, 20 golden-data
mismatch (`table`), 2 usage error.  JSON payloads carry only exact rational
strings or explicitly enclosed values and are byte-identical across
invocations; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from . import golden
from .config import EngineConfig, load_config
from .esa import (conjecture_explore, esa_decide_radial,
                  esa_region_full, esa_region_radial, gamma_threshold,
                  render_value, value_to_json)
from .frobenius import locus_samples, select_fundamental_system
from .indicial import IndicialSpec, euler_quartic
from .roots import certified_roots, label_trajectories, trajectory_csv_rows
from .stability import quartic_classify
from .esa import _hurwitz_cached

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


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)


def _envelope(args_echo, spec: dict, result: dict, precision_bits: int,
              l_max=None, oracle=None) -> dict:
    return {
        "command": [str(a) for a in args_echo],
        "spec": spec,
        "result": result,
        "certification": {
            "precision_bits": precision_bits,
            "l_max": l_max,
            "oracle_crosscheck": oracle,
        },
    }


# -- decide ----------------------------------------------------------------------


def cmd_decide(args, cfg: EngineConfig, echo) -> int:
    spec = IndicialSpec(m=args.m, n=args.n, l=args.l, c=args.c)
    verdict = esa_decide_radial(spec)
    if args.json:
        print(_dump_json(_envelope(echo, spec.to_json(), verdict.to_json(),
                                   cfg.precision_start)))
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


def cmd_region(args, cfg: EngineConfig, echo) -> int:
    if args.all_l:
        l_max = args.lmax if args.lmax is not None else cfg.l_max
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                region = esa_region_full(args.m, args.n, l_max, map=pool.map)
        else:
            region = esa_region_full(args.m, args.n, l_max)
        spec = {"m": args.m, "n": args.n, "l_max": l_max}
        l_meta = l_max
    else:
        if args.l is None:
            print("region: provide --l or --all-l", file=sys.stderr)
            return EXIT_USAGE
        region = esa_region_radial(args.m, args.n, args.l)
        spec = {"m": args.m, "n": args.n, "l": args.l}
        l_meta = None
    rendered = region.render(args.digits)
    if args.json:
        result = region.to_json()
        result["rendered"] = rendered
        print(_dump_json(_envelope(echo, spec, result, cfg.precision_start,
                                   l_max=l_meta, oracle=region.oracle_checked)))
    else:
        print(rendered)
        for w in region.warnings:
            print(f"  warning: {w}")
        if region.oracle_checked:
            print(f"  cross-checked against the {region.oracle_checked} oracle")
    return EXIT_OK


# -- table -----------------------------------------------------------------------


def cmd_table(args, cfg: EngineConfig, echo) -> int:
    mismatches = []
    rows = []
    if args.which == "gamma2":
        for n in range(2, 13):
            got = gamma_threshold(2, n, 0).value
            want = golden.GAMMA2_TABLE[n]
            rows.append((n, got, want))
            if got != want:
                mismatches.append(f"n={n}: engine {got} != reference {want}")
        header = f"{'n':>4} {'threshold':>12}"
        print(header)
        for n, got, _ in rows:
            print(f"{n:>4} {str(got):>12}")
    elif args.which == "signs520":
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
    else:
        return EXIT_USAGE
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


def _indicial_rootset_worker(task):
    m, n, l, c, prec = task
    from .indicial import build_indicial
    return certified_roots(build_indicial(IndicialSpec(m=m, n=n, l=l, c=c)),
                           precision_bits=prec)


def _euler_rootset_worker(task):
    c1, c2, prec = task
    return certified_roots(euler_quartic(c1, c2), precision_bits=prec)


def _grid(lo: Fraction, hi: Fraction, steps: int) -> list:
    step = (hi - lo) / (steps - 1)
    return [lo + step * i for i in range(steps)]


def cmd_figure(args, cfg: EngineConfig, echo) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prec = cfg.precision_start
    written = []
    if args.which == "fig1":
        if args.c1 is None:
            print("figure fig1 requires --c1", file=sys.stderr)
            return EXIT_USAGE
        grid = _grid(args.sweep_min, args.sweep_max, args.steps)
        tasks = [(args.c1, c2, prec) for c2 in grid]
        sets = _map_tasks(_euler_rootset_worker, tasks, args.jobs)
        rows = label_trajectories(grid, sets)
        table = trajectory_csv_rows(rows)
        table[0].append("highlight")
        for row, pt in zip(table[1:], rows):
            row.append(int(pt.label == 2))
        path = out / "fig1_trajectories.csv"
        _write_csv(path, table)
        written.append(path)
    elif args.which == "fig3":
        lo, hi = Fraction(0), Fraction(22, 10) * 10 ** 10
        grid = _grid(lo, hi, args.steps)
        for l in range(5):
            tasks = [(5, 20, l, c, prec) for c in grid]
            sets = _map_tasks(_indicial_rootset_worker, tasks, args.jobs)
            rows = label_trajectories(grid, sets)
            table = trajectory_csv_rows(rows)
            table[0].append("highlight")
            for row, pt in zip(table[1:], rows):
                row.append(int(l == 0 and pt.label == 5))
            path = out / f"fig3_l{l}.csv"
            _write_csv(path, table)
            written.append(path)
    elif args.which == "fig2":
        rows = locus_samples()
        path = out / "fig2_loci.csv"
        _write_csv(path, [["locus_id", "k", "c1", "c2", "esa_flag"]]
                   + [[kind, k, str(c1), str(c2), int(flag)]
                      for kind, k, c1, c2, flag in rows])
        written.append(path)
        from .esa import euler_esa_closed_form
        shade = [["c1", "c2", "esa_flag"]]
        for c1 in _grid(Fraction(-30), Fraction(5), 71):
            for c2 in _grid(Fraction(-40), Fraction(60), 51):
                shade.append([str(c1), str(c2),
                              int(euler_esa_closed_form(c1, c2))])
        path = out / "fig2_region.csv"
        _write_csv(path, shade)
        written.append(path)
    else:
        return EXIT_USAGE
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _map_tasks(worker, tasks, jobs: int) -> list:
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, tasks))
    return [worker(t) for t in tasks]


# -- basis -----------------------------------------------------------------------


def cmd_basis(args, cfg: EngineConfig, echo) -> int:
    lam = args.lam if args.lam is not None else Fraction(1)
    sel = select_fundamental_system(args.c1, args.c2, lam,
                                    precision_bits=cfg.precision_start)
    if args.json:
        spec = {"c1": str(args.c1), "c2": str(args.c2), "lambda": str(lam)}
        print(_dump_json(_envelope(echo, spec, sel.to_json(),
                                   cfg.precision_start)))
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
        if sel.solutions is None:
            print(f"  {sel.note}")
        else:
            for i, s in enumerate(sel.solutions, start=1):
                arg = "-z" if s.argument_negated else "z"
                print(f"  y{i}: {s.kind.value} exponent={s.exponent:.6g} "
                      f"arg={arg} params={[format(p, '.6g') for p in s.parameters]}")
    return EXIT_OK


# -- conjecture ---------------------------------------------------------------------


def cmd_conjecture(args, cfg: EngineConfig, echo) -> int:
    rows = conjecture_explore(args.mmax, m_cap=cfg.conjecture_m_cap)
    if args.json:
        result = {"rows": [{
            "m": r["m"],
            "gamma": value_to_json(r["gamma"]),
            "comparison": repr(r["comparison"]),
            "log_ratio": None if r["log_ratio"] is None else repr(r["log_ratio"]),
        } for r in rows]}
        print(_dump_json(_envelope(echo, {"m_max": args.mmax}, result,
                                   cfg.precision_start)))
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
    ap.add_argument("--config", default=None,
                    help="config file path (overrides ESACERT_CONFIG)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide ESA of one radial operator")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--c", type=rational_arg, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("region", help="ESA region in the coupling")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--all-l", action="store_true", dest="all_l")
    p.add_argument("--lmax", type=int, default=None)
    p.add_argument("--digits", type=int, default=6)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table", help="regenerate a reference table and diff it")
    p.add_argument("--which", choices=("gamma2", "signs520"), required=True)

    p = sub.add_parser("figure", help="emit figure data as CSV")
    p.add_argument("--which", choices=("fig1", "fig2", "fig3"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--c1", type=rational_arg, default=None)
    p.add_argument("--sweep-min", type=rational_arg, default=Fraction(-40))
    p.add_argument("--sweep-max", type=rational_arg, default=Fraction(80))
    p.add_argument("--steps", type=int, default=61)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("basis", help="resonance classification and basis descriptors")
    p.add_argument("--c1", type=rational_arg, required=True)
    p.add_argument("--c2", type=rational_arg, required=True)
    p.add_argument("--lambda", dest="lam", type=rational_arg, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("conjecture", help="threshold growth exploration table")
    p.add_argument("--mmax", type=int, default=8)
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
    cfg = load_config(args.config)
    started = time.perf_counter()
    try:
        code = _HANDLERS[args.command](args, cfg, argv)
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
