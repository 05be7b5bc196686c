"""Seeded workload generators.

Each workload is a fixed list of ops built from the seed alone.  An op is a
JSON-ready dict:

* ``id``      unique within the workload;
* ``call``    ``"cli"`` (``argv`` goes to ``esacert.cli.run``) or the name of
              a library call in ``child.LIBRARY_CALLS`` (with ``args``);
* ``check``   which checker in ``oracle.py`` judges the output;
* ``expect``  what that checker compares against, computed here from the
              closed forms and the frozen golden data, never from the engine
              path the op exercises;
* ``m`` and ``sectors``  the (m, nu) sector computations the op implies,
              used only for the reported input properties;
* ``latency`` set on the ops whose latency percentiles are reported.

Two workloads group the op kinds by the layer that dominates them:
``verdicts`` holds everything half-plane counting decides (decide ops,
region sweeps, the gamma2 threshold table); ``tables_trajectories`` holds
Hurwitz-determinant and certified-disk work with no counting and no
repeated sector keys (the signs520 table, cofactor closed forms,
trajectory figures).

Only the generated inputs reach the program; the seed never does.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction

from esacert import golden
from esacert.esa import oracle_threshold, value_to_json
from esacert.exact import AlgebraicReal

# Decide ops per m.  m = 5 is always the (5, 20, 0) island operator.
DECIDE_COUNTS = {1: 104, 2: 70, 3: 26, 5: 20}
# Share of decide couplings placed 1e-30 .. 1e-60 from an exact boundary;
# per m, AT_BOUNDARY of them sit exactly on it where it is rational (the
# verdict is then ESA by closedness, with roots on the decision line).
NEAR_SHARE = Fraction(1, 4)
NEAR_EXPONENTS = (30, 60)
AT_BOUNDARY = 2
# The m <= 3 closed forms are checked against the engine for nu = 2..40 only.
DECIDE_NU_MAX = 40

# region --all-l sweeps: (m, how many distinct n, n range, lmax).
# m = 3 draws one n from each range because its cost falls steeply with n.
REGION_SWEEPS = ((2, 4, (2, 16), 4), (3, 1, (2, 8), 2), (3, 1, (9, 14), 2))
ISLAND_LMAX = 1

# Index ranges where the golden closed forms hold (checked for these ranges).
DISC_Q3_NU = range(2, 150)
PI_520_L = range(29, 101)

FIG3_STEPS = 5
FIG1_OPS = 4
FIG1_STEPS = 12

# Spans that must record calls in a traced run of each workload.  Only spans
# that define what the workload is for are listed, so that an optimisation
# that removes an inner layer from a path does not break the check.
EXPECTED_SPANS = {
    "verdicts": ("cli.run", "esa.esa_decide_radial", "esa.esa_region_full",
                 "esa.esa_region_radial", "esa.gamma_threshold",
                 "esa.intersect_pieces", "stability.halfplane_count",
                 "stability.hurwitz_assemble", "exact.exact_real_roots",
                 "indicial.build_indicial"),
    "tables_trajectories": ("cli.run", "stability.hurwitz_assemble",
                            "stability.quartic_classify", "stability.disc_q3",
                            "roots.certified_roots", "roots.label_trajectories"),
}


def _rational(value):
    """The value as a Fraction, or None if it is irrational."""
    if isinstance(value, AlgebraicReal):
        return value.rational_value if value.is_rational else None
    return value


def _near(value, rng: random.Random) -> tuple:
    """A rational within 10^-k of an exact boundary value, and k."""
    k = rng.randint(*NEAR_EXPONENTS)
    delta = Fraction(rng.choice((-1, 1)), 10 ** k)
    centre = _rational(value)
    if centre is None:
        lo, hi = value.refine(abs(delta) / 1000)
        centre = (lo + hi) / 2
    return centre + delta, k


def _far(value, rng: random.Random) -> Fraction:
    """A small-denominator rational at a relative distance 0.05 .. 2 from value."""
    approx = float(value)
    scale = max(1.0, abs(approx))
    offset = rng.choice((-1, 1)) * rng.uniform(0.05, 2.0) * scale
    return Fraction(round((approx + offset) * 8), 8)


def _decide_op(i, m, n, l, c, expect_esa, near_k):
    """near_k: None far from a boundary, 0 on it, else the distance 10^-near_k."""
    return {"id": f"decide-{i:03d}", "call": "cli", "check": "decide",
            "argv": ["decide", "--m", str(m), "--n", str(n), "--l", str(l),
                     "--c", str(c), "--json"],
            "expect": {"m": m, "n": n, "l": l, "c": str(c),
                       "verdict": "ESA" if expect_esa else "NotESA"},
            "m": m, "sectors": [[m, n + 2 * l]], "near_k": near_k, "latency": True}


def decide_ops(rng: random.Random) -> list:
    keys = []
    for m in (1, 2, 3):
        space = [(n, l) for n in range(2, DECIDE_NU_MAX + 1)
                 for l in range((DECIDE_NU_MAX - n) // 2 + 1)]
        keys += [(m, n, l) for n, l in rng.sample(space, DECIDE_COUNTS[m])]
    keys += [(5, 20, 0)] * DECIDE_COUNTS[5]
    island = oracle_threshold(5, 20)
    beta, gamma = golden.island_roots()
    ops = []
    near_left = {m: round(NEAR_SHARE * count) for m, count in DECIDE_COUNTS.items()}
    on_left = dict.fromkeys(DECIDE_COUNTS, AT_BOUNDARY)
    for m, n, l in keys:
        near = near_left[m] > 0
        near_left[m] -= near
        if m == 5:
            region = island
            boundary = Fraction(0) if on_left[m] else rng.choice((Fraction(0), beta, gamma))
        else:
            # the radial region at nu is [threshold, inf) for m <= 3
            region = oracle_threshold(m, n + 2 * l)
            boundary = region.pieces[0].lo
        if near and on_left[m] and _rational(boundary) is not None:
            on_left[m] -= 1
            c, k = _rational(boundary), 0
        elif near:
            c, k = _near(boundary, rng)
        elif m == 5:
            c, k = Fraction(rng.randint(-5 * 10 ** 9, 3 * 10 ** 10)), None
        else:
            c, k = _far(boundary, rng), None
        ops.append((m, n, l, c, region.contains(c), k))
    return [_decide_op(i, *op) for i, op in enumerate(ops)]


def _region_op(i, m, n, lmax):
    oracle = oracle_threshold(m, n)
    return {"id": f"region-{i:02d}", "call": "cli", "check": "region",
            "argv": ["region", "--m", str(m), "--n", str(n), "--all-l",
                     "--lmax", str(lmax), "--jobs", "1", "--json"],
            "expect": {"m": m, "n": n, "l_max": lmax,
                       "pieces": [[value_to_json(p.lo), value_to_json(p.hi)]
                                  for p in oracle.pieces]},
            "m": m, "sectors": [[m, n + 2 * l] for l in range(lmax + 1)]}


def region_ops(rng: random.Random) -> list:
    specs = []
    for m, count, (lo, hi), lmax in REGION_SWEEPS:
        specs += [(m, n, lmax) for n in rng.sample(range(lo, hi + 1), count)]
    specs.append((5, 20, ISLAND_LMAX))
    return [_region_op(i, *spec) for i, spec in enumerate(specs)]


GAMMA2_TABLE_OP = {
    "id": "table-gamma2", "call": "cli", "check": "table_gamma2",
    "argv": ["table", "--which", "gamma2"],
    "expect": {str(n): str(v) for n, v in golden.GAMMA2_TABLE.items()},
    "m": 2, "sectors": [[2, n] for n in golden.GAMMA2_TABLE]}

SIGNS520_TABLE_OP = {
    "id": "table-signs520", "call": "cli", "check": "table_signs520",
    "argv": ["table", "--which", "signs520"],
    "expect": {str(l): list(s) for l, s in golden.SIGNS_520_TABLE.items()},
    "m": 5, "sectors": [[5, 20 + 2 * l] for l in golden.SIGNS_520_TABLE]}


def closed_form_ops(rng: random.Random) -> list:
    """disc_q3 and the island quartic's Pi over the ranges where the golden
    closed forms hold, one call per index: repeats would hit the cache."""
    ops = []
    for nu in DISC_Q3_NU:
        l = rng.randint(0, (nu - 2) // 2)
        ops.append({"id": f"disc_q3-{nu:03d}", "call": "disc_q3", "check": "value",
                    "args": [nu - 2 * l, l],
                    "expect": str(golden.disc_q3_closed_form(nu)),
                    "m": 3, "sectors": [[3, nu]], "latency": True})
    for l in PI_520_L:
        ops.append({"id": f"pi_520-{l:03d}", "call": "pi_520", "check": "value",
                    "args": [l], "expect": str(golden.pi_520_closed_form(l)),
                    "m": 5, "sectors": [[5, 20 + 2 * l]], "latency": True})
    return ops


def trajectory_ops(rng: random.Random) -> list:
    ops = [{"id": "fig3", "call": "cli", "check": "trajectory",
            "argv": ["figure", "--which", "fig3", "--steps", str(FIG3_STEPS),
                     "--out", "{out}", "--jobs", "1"],
            "expect": {"files": [f"fig3_l{l}.csv" for l in range(5)],
                       "steps": FIG3_STEPS, "degree": 10},
            "m": 5, "sectors": []}]
    for i in range(FIG1_OPS):
        c1 = Fraction(rng.randint(-24, 16), 4)
        lo, hi = rng.randint(-40, -20), rng.randint(40, 80)
        ops.append({"id": f"fig1-{i}", "call": "cli", "check": "trajectory",
                    "argv": ["figure", "--which", "fig1", "--c1", str(c1),
                             "--sweep-min", str(lo), "--sweep-max", str(hi),
                             "--steps", str(FIG1_STEPS), "--out", "{out}",
                             "--jobs", "1"],
                    "expect": {"files": ["fig1_trajectories.csv"],
                               "steps": FIG1_STEPS, "degree": 4},
                    "m": 2, "sectors": []})
    return ops


def _shuffled_after(first: dict, ops: list, rng: random.Random) -> list:
    """The table op first, on a cold Hurwitz cache, then the rest in a seeded
    order, so that each kind of op is spread over the whole session."""
    rng.shuffle(ops)
    return [first] + ops


def verdicts(rng: random.Random) -> list:
    return _shuffled_after(GAMMA2_TABLE_OP, decide_ops(rng) + region_ops(rng), rng)


def tables_trajectories(rng: random.Random) -> list:
    return _shuffled_after(SIGNS520_TABLE_OP,
                           closed_form_ops(rng) + trajectory_ops(rng), rng)


GENERATORS = {"verdicts": verdicts, "tables_trajectories": tables_trajectories}


def generate(name: str, seed: int) -> list:
    """The op list of one workload; the same seed gives the same list."""
    return GENERATORS[name](random.Random(f"{name}:{seed}"))


def input_properties(ops: list) -> dict:
    """Input properties the engine's cost depends on, measured on the ops."""
    seen = set()
    sectors = repeated = 0
    for op in ops:
        for key in map(tuple, op["sectors"]):
            sectors += 1
            repeated += key in seen
            seen.add(key)
    m_hist = {}
    for op in ops:
        m_hist[op["m"]] = m_hist.get(op["m"], 0) + 1
    couplings = [op["near_k"] for op in ops if op["check"] == "decide"]
    near = [k for k in couplings if k]
    on = sum(k == 0 for k in couplings)
    props = {
        "ops": len(ops),
        "sector_computations": sectors,
        "repeated_sector_share": repeated / sectors if sectors else 0.0,
        "m_histogram": {str(m): m_hist[m] for m in sorted(m_hist)},
        "couplings": len(couplings),
        "near_boundary_share": (len(near) + on) / len(couplings) if couplings else 0.0,
        "on_boundary": on,
    }
    if near:
        props["near_boundary_log10_distance"] = {
            "min": -max(near), "median": -statistics.median(near), "max": -min(near)}
    return props
