"""Output checks, run in the benchmark's own process after each run.

Each checker takes an op (with its ``expect``) and the child's outcome for
it, and returns None when the output is right or a one-line reason when it
is not.  The engine's own cross-checks are never consulted: verdicts,
region endpoints, table rows and trajectory rows are read back from what
the program printed or wrote and compared here.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from esacert.exact import AlgebraicReal, RationalPolynomial, value_compare

EXIT_OK, EXIT_NOT_ESA = 0, 10


def _value(doc: dict):
    """Exact value from the JSON form the CLI prints; ("inf", sign) for infinities."""
    kind = doc["type"]
    if kind == "rational":
        return Fraction(doc["value"])
    if kind == "algebraic":
        poly = RationalPolynomial([Fraction(c) for c in doc["defining"]])
        lo, hi = (Fraction(x) for x in doc["interval"])
        return AlgebraicReal(poly, lo, hi)  # validates the isolating interval
    if kind == "infinity":
        return ("inf", doc["sign"])
    raise ValueError(f"unknown value type {kind!r}")


def _same_value(got: dict, want: dict) -> bool:
    a, b = _value(got), _value(want)
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return value_compare(a, b) == 0


def check_decide(op, out) -> str | None:
    want = op["expect"]
    code = EXIT_OK if want["verdict"] == "ESA" else EXIT_NOT_ESA
    if out["code"] != code:
        return f"exit code {out['code']}, expected {code}"
    doc = json.loads(out["stdout"])
    spec = doc["spec"]
    if [spec["m"], spec["n"], spec["l"], Fraction(spec["c"])] != \
            [want["m"], want["n"], want["l"], Fraction(want["c"])]:
        return f"spec echo {spec} does not match the input"
    if doc["result"]["verdict"] != want["verdict"]:
        return f"verdict {doc['result']['verdict']}, expected {want['verdict']}"
    return None


def check_region(op, out) -> str | None:
    want = op["expect"]
    if out["code"] != EXIT_OK:
        return f"exit code {out['code']}"
    result = json.loads(out["stdout"])["result"]
    if (result["m"], result["n"], result.get("certified_up_to_l")) != \
            (want["m"], want["n"], want["l_max"]):
        return "region spec echo does not match the input"
    got = result["pieces"]
    if len(got) != len(want["pieces"]):
        return f"{len(got)} pieces, expected {len(want['pieces'])}"
    for i, (piece, (lo, hi)) in enumerate(zip(got, want["pieces"])):
        if not _same_value(piece["lo"], lo):
            return f"piece {i}: lower endpoint differs from the closed form"
        if not _same_value(piece["hi"], hi):
            return f"piece {i}: upper endpoint differs from the closed form"
    return None


def _table_rows(text: str) -> list:
    """Body rows of a printed table: lines that start with an integer index."""
    rows = []
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0].isdigit():
            rows.append(fields)
    return rows


def check_table_gamma2(op, out) -> str | None:
    if out["code"] != EXIT_OK:
        return f"exit code {out['code']}"
    got = {n: Fraction(v) for n, v in _table_rows(out["stdout"])}
    want = {n: Fraction(v) for n, v in op["expect"].items()}
    return None if got == want else "gamma2 table rows differ from the golden data"


def check_table_signs520(op, out) -> str | None:
    if out["code"] != EXIT_OK:
        return f"exit code {out['code']}"
    sign = {"+": 1, "-": -1, "0": 0}
    got = {l: [sign[s] for s in rest] for l, *rest in _table_rows(out["stdout"])}
    return None if got == op["expect"] else "sign table rows differ from the golden data"


def check_value(op, out) -> str | None:
    if Fraction(out["value"]) != Fraction(op["expect"]):
        return f"value {out['value']}, expected the closed form {op['expect']}"
    return None


def check_trajectory(op, out) -> str | None:
    """Row counts, one label per root at each grid point, and the pairing
    symmetry: sorted roots j and d+1-j have real parts summing to d - 1
    within their certified radii."""
    want = op["expect"]
    if out["code"] != EXIT_OK:
        return f"exit code {out['code']}"
    d = want["degree"]
    for name in want["files"]:
        if name not in out["files"]:
            return f"{name} was not written"
        rows = list(csv.reader(io.StringIO(out["files"][name])))
        if rows[0][:5] != ["c", "j", "re", "im", "radius"]:
            return f"{name}: unexpected header {rows[0]}"
        if len(rows) != 1 + want["steps"] * d:
            return f"{name}: {len(rows) - 1} rows, expected {want['steps'] * d}"
        by_c = {}
        for row in rows[1:]:
            by_c.setdefault(row[0], []).append(row)
        if len(by_c) != want["steps"]:
            return f"{name}: {len(by_c)} grid points, expected {want['steps']}"
        for c, pts in by_c.items():
            if sorted(int(r[1]) for r in pts) != list(range(1, d + 1)):
                return f"{name}: labels at c = {c} are not 1..{d}"
            roots = sorted((float(r[2]), float(r[3]), float(r[4])) for r in pts)
            for j in range(d // 2):
                (ra, _, rada), (rb, _, radb) = roots[j], roots[d - 1 - j]
                slack = rada + radb + 1e-12 * (1 + abs(ra) + abs(rb))
                if abs(ra + rb - (d - 1)) > slack:
                    return f"{name}: roots {j + 1} and {d - j} at c = {c} are not paired"
    return None


CHECKERS = {
    "decide": check_decide,
    "region": check_region,
    "table_gamma2": check_table_gamma2,
    "table_signs520": check_table_signs520,
    "value": check_value,
    "trajectory": check_trajectory,
}


def check(op: dict, out: dict) -> str | None:
    """None if the op's output is right, else the reason it is not."""
    if out["error"]:
        return out["error"]
    try:
        return CHECKERS[op["check"]](op, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
