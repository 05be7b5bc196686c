"""ESA decisions, thresholds and regions for the radial operators.

The decision criterion: the radial operator of order 2m is essentially
self-adjoint iff exactly m roots of its indicial polynomial have real part
<= -1/2 (the remaining m then lie strictly right of the line; the root
multiset is symmetric about m - 1/2, which also makes the ESA set in the
coupling c closed).

Regions in c are computed exactly:

1. the full Hurwitz determinant det(c) supplies the complete list of
   boundary candidates (its real roots) - a root can reach the line
   Re z = -1/2 only where det vanishes;
2. every open interval between consecutive candidates carries a constant
   verdict, decided at one small-denominator rational sample point;
3. rational candidates are decided exactly at the candidate itself;
   irrational candidates adjacent to an ESA interval are included because
   the ESA set is closed; irrational candidates with non-ESA on both sides
   are reported as indeterminate isolated points rather than guessed.

Closed-form oracles cover m <= 3 and the tenth-order operator in dimension
20; the engine cross-checks against them wherever they apply.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exact import (AlgebraicReal, as_fraction, exact_real_roots,
                    simplest_between, value_compare)
from .indicial import IndicialSpec, build_indicial
from .stability import (HalfPlaneCount, HurwitzData, axis_roots_exact,
                        halfplane_count, hurwitz_assemble)
from . import golden

Value = Union[Fraction, AlgebraicReal]


class _PosInf:
    """Sentinel for the +infinity end of a region piece."""

    def __repr__(self):
        return "+inf"

    def __reduce__(self):
        return (_pos_inf, ())


POS_INF = _PosInf()


def _pos_inf():
    return POS_INF


def value_cmp(a, b) -> int:
    """Exact three-way comparison of Fraction/AlgebraicReal values and POS_INF."""
    if a is b:
        return 0
    if b is POS_INF:
        return -1
    if a is POS_INF:
        return 1
    return value_compare(a, b)


def value_eq(a, b) -> bool:
    return value_cmp(a, b) == 0


def value_to_json(v) -> dict:
    if v is POS_INF:
        return {"type": "infinity", "sign": 1}
    if isinstance(v, AlgebraicReal):
        return v.to_json()
    return {"type": "rational", "value": str(as_fraction(v))}


def render_value(v, digits: int = 6) -> str:
    if v is POS_INF:
        return "∞"
    if isinstance(v, AlgebraicReal):
        return v.decimal(digits)
    v = as_fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    return str(v)


# -- verdicts -----------------------------------------------------------------


class Verdict(Enum):
    ESA = "ESA"
    NOT_ESA = "NotESA"


@dataclass(frozen=True)
class EsaVerdict:
    spec: IndicialSpec
    verdict: Verdict
    count: HalfPlaneCount
    certificate: dict

    @property
    def is_esa(self) -> bool:
        return self.verdict is Verdict.ESA

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "verdict": self.verdict.value,
            "count": self.count.to_json(),
            "certificate": self.certificate,
        }


def _hurwitz_cached(m: int, n: int, l: int) -> HurwitzData:
    """Hurwitz data of sector (m, n, l), shared by all sectors with the same
    nu = n + 2l (the data depend on nothing else)."""
    return _hurwitz_by_nu(m, n + 2 * l)


@functools.lru_cache(maxsize=None)
def _hurwitz_by_nu(m: int, nu: int) -> HurwitzData:
    return hurwitz_assemble(m, nu, 0)


def esa_decide_radial(spec: IndicialSpec, with_certificate: bool = True) -> EsaVerdict:
    """Decide ESA of one radial operator at an exact rational coupling."""
    poly = build_indicial(spec)
    count = halfplane_count(poly)
    if count.left + count.axis > spec.m:
        raise AssertionError("more than m roots weakly left of the line; "
                             "pairing symmetry violated")
    esa = (count.left + count.axis == spec.m)
    certificate: dict = {}
    if with_certificate:
        hd = _hurwitz_cached(spec.m, spec.n, spec.l)
        axis = axis_roots_exact(poly) if count.axis else []
        certificate = {
            "criterion": "exactly m roots with Re <= -1/2",
            "m": spec.m,
            "indicial_coefficients": [str(c) for c in poly.coeffs],
            "halfplane": count.to_json(),
            "axis_parameters": [t.to_json() for t in axis],
            "hurwitz_det_at_c": str(hd.det_in_c(spec.c)),
        }
    return EsaVerdict(spec=spec,
                      verdict=Verdict.ESA if esa else Verdict.NOT_ESA,
                      count=count, certificate=certificate)


# -- regions -------------------------------------------------------------------


@dataclass(frozen=True)
class RegionPiece:
    lo: Value
    hi: object  # Value or POS_INF

    def contains(self, c) -> bool:
        return value_cmp(self.lo, c) <= 0 and value_cmp(c, self.hi) <= 0

    def to_json(self) -> dict:
        return {"lo": value_to_json(self.lo), "hi": value_to_json(self.hi)}

    def render(self, digits: int = 6) -> str:
        hi = render_value(self.hi, digits)
        lo = render_value(self.lo, digits)
        if value_eq(self.lo, self.hi):
            return f"{{{lo}}}"
        close = ")" if self.hi is POS_INF else "]"
        return f"[{lo}, {hi}{close}"


@dataclass
class EsaRegion:
    """Maximal closed ESA intervals in the coupling, sorted and disjoint."""

    m: int
    n: int
    pieces: list
    boundary_candidates: list
    l: Optional[int] = None            # set for radial regions
    certified_up_to_l: Optional[int] = None  # set for full-operator regions
    oracle_checked: Optional[str] = None     # "closed-form" when cross-validated
    warnings: list = field(default_factory=list)

    def contains(self, c) -> bool:
        return any(p.contains(as_fraction(c)) for p in self.pieces)

    def render(self, digits: int = 6) -> str:
        if not self.pieces:
            return "∅"
        return " ∪ ".join(p.render(digits) for p in self.pieces)

    def equals(self, other: "EsaRegion") -> bool:
        if len(self.pieces) != len(other.pieces):
            return False
        for a, b in zip(self.pieces, other.pieces):
            if not (value_eq(a.lo, b.lo) and value_eq(a.hi, b.hi)):
                return False
        return True

    def to_json(self) -> dict:
        out = {
            "m": self.m,
            "n": self.n,
            "pieces": [p.to_json() for p in self.pieces],
            "boundary_candidates": [value_to_json(v) for v in self.boundary_candidates],
            "warnings": list(self.warnings),
        }
        if self.l is not None:
            out["l"] = self.l
        if self.certified_up_to_l is not None:
            out["certified_up_to_l"] = self.certified_up_to_l
        out["oracle_checked"] = self.oracle_checked
        return out


def esa_region_radial(m: int, n: int, l: int) -> EsaRegion:
    """Exact ESA region in c for one radial operator.

    Between consecutive real roots of the Hurwitz determinant the verdict is
    constant (a root can only reach the decision line where the determinant
    vanishes), so one exact decision per gap suffices.
    """
    hd = _hurwitz_cached(m, n, l)
    candidates = exact_real_roots(hd.det_in_c)
    bounds = [v.interval if isinstance(v, AlgebraicReal) else (v, v)
              for v in candidates]
    if any(a[1] >= b[0] for a, b in zip(bounds, bounds[1:])):
        raise AssertionError("exact_real_roots returned overlapping intervals")

    def decide(c: Fraction) -> bool:
        return esa_decide_radial(IndicialSpec(m=m, n=n, l=l, c=c),
                                 with_certificate=False).is_esa

    # one sample per open gap, plus the two unbounded gaps
    k = len(candidates)
    samples = []
    lo_edge = math.floor(bounds[0][0]) - 1 if k else Fraction(0)
    samples.append(as_fraction(lo_edge))
    for i in range(k - 1):
        gap_lo, gap_hi = bounds[i][1], bounds[i + 1][0]
        width = gap_hi - gap_lo
        samples.append(simplest_between(gap_lo + width / 8, gap_hi - width / 8))
    if k:
        samples.append(as_fraction(math.ceil(bounds[k - 1][1]) + 1))
    cell_esa = [decide(s) for s in samples]

    if cell_esa[0]:
        raise AssertionError("ESA reported in the c -> -infinity cell")
    if not cell_esa[-1]:
        raise AssertionError("non-ESA reported in the c -> +infinity cell")

    # candidate membership: exact decision at rational candidates,
    # closedness of the ESA set at irrational ones
    member = []
    warnings = []
    for i, v in enumerate(candidates):
        adjacent = cell_esa[i] or cell_esa[i + 1]
        if isinstance(v, AlgebraicReal):
            member.append(adjacent)
            if not adjacent:
                warnings.append(
                    f"indeterminate isolated boundary candidate near {v.decimal(8)}")
        else:
            is_in = decide(v)
            if adjacent and not is_in:
                raise AssertionError("boundary candidate adjacent to an ESA interval "
                                     "must satisfy the criterion (closedness)")
            member.append(is_in)

    pieces = []
    i = 0
    while i <= k:
        if not cell_esa[i]:
            # isolated boundary point: member without an adjacent ESA cell
            if i < k and member[i] and not cell_esa[i + 1]:
                pieces.append(RegionPiece(lo=candidates[i], hi=candidates[i]))
            i += 1
            continue
        run_start = i
        while i <= k and cell_esa[i]:
            i += 1
        lo = candidates[run_start - 1]  # run_start >= 1 since cell 0 is non-ESA
        hi = POS_INF if i == k + 1 else candidates[i - 1]
        pieces.append(RegionPiece(lo=lo, hi=hi))
    return EsaRegion(m=m, n=n, l=l, pieces=pieces,
                     boundary_candidates=candidates, warnings=warnings)


# -- thresholds ------------------------------------------------------------------


def gamma_threshold(m: int, n: int, l: int) -> Value:
    """Largest finite boundary point of the radial ESA region: the +inf cell
    is ESA, so the last piece is [lo, inf) and its lo is that point."""
    return esa_region_radial(m, n, l).pieces[-1].lo


# -- intersections and full-operator regions ----------------------------------------


def intersect_pieces(a: Sequence[RegionPiece], b: Sequence[RegionPiece]) -> list:
    out = []
    i = j = 0
    a, b = list(a), list(b)
    while i < len(a) and j < len(b):
        lo = a[i].lo if value_cmp(a[i].lo, b[j].lo) >= 0 else b[j].lo
        if a[i].hi is POS_INF:
            hi = b[j].hi
        elif b[j].hi is POS_INF:
            hi = a[i].hi
        else:
            hi = a[i].hi if value_cmp(a[i].hi, b[j].hi) <= 0 else b[j].hi
        if hi is POS_INF or value_cmp(lo, hi) <= 0:
            out.append(RegionPiece(lo=lo, hi=hi))
        # advance the piece that ends first
        if a[i].hi is POS_INF:
            j += 1
        elif b[j].hi is POS_INF:
            i += 1
        elif value_cmp(a[i].hi, b[j].hi) <= 0:
            i += 1
        else:
            j += 1
    return out


def esa_region_full(m: int, n: int, l_max: int = 50, map=map) -> EsaRegion:
    """Intersection of the radial ESA regions over 0 <= l <= l_max.

    The full operator is essentially self-adjoint iff every angular sector
    is; the engine certifies up to l_max and always cross-checks against the
    closed-form oracles wherever one covers (m, n), raising AssertionError
    on a disagreement.  The sector regions are computed by ``map`` over l in
    order; pass an executor's ``map`` to spread them over worker processes.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    pieces = None
    all_warnings = []
    for region in map(functools.partial(esa_region_radial, m, n), range(l_max + 1)):
        all_warnings.extend(region.warnings)
        pieces = list(region.pieces) if pieces is None \
            else intersect_pieces(pieces, region.pieces)
    result = EsaRegion(m=m, n=n, pieces=pieces, boundary_candidates=[],
                       certified_up_to_l=l_max, warnings=all_warnings)
    oracle = oracle_threshold(m, n)
    if oracle is not None:
        if not result.equals(oracle):
            raise AssertionError(
                f"engine region {result.render()} disagrees with the "
                f"closed-form region {oracle.render()} for (m, n) = ({m}, {n})")
        result.oracle_checked = "closed-form"
    return result


# -- closed-form oracles ---------------------------------------------------------


def euler_esa_closed_form(c1, c2) -> bool:
    """Closed-form ESA test for the fourth-order two-parameter family."""
    c1, c2 = as_fraction(c1), as_fraction(c2)
    if c1 >= Fraction(-11, 4):
        return c2 >= 45 + 12 * c1 + c1 * c1
    return c2 >= -Fraction(105, 16) - Fraction(19, 2) * c1


def gamma2_closed_form(n: int, l: int = 0) -> Fraction:
    """Closed-form radial threshold for the fourth-order family."""
    nu = n + 2 * l
    if (nu - 1) * (nu - 3) <= 11:
        return Fraction(-3 * (nu + 2) * (nu - 6))
    return -Fraction((nu + 4) * nu * (nu - 4) * (nu - 8), 16)


def gamma3_closed_form(n: int) -> Value:
    """Closed-form full-operator threshold for the sixth-order family."""
    if n >= 10:
        return -Fraction((n + 8) * (n + 4) * n * (n - 4) * (n - 8) * (n - 12), 64)
    p = 7112 + 504 * n - 126 * n * n
    q = 236 + 12 * n - 3 * n * n
    c = 964 + 60 * n - 15 * n * n
    surd = AlgebraicReal.from_quadratic_surd(Fraction(64 * p, 27), Fraction(64 * q, 27), c)
    if surd.is_rational:
        return surd.rational_value
    return surd


def oracle_threshold(m: int, n: int) -> Optional[EsaRegion]:
    """Closed-form full-operator ESA region, where one is known.

    Covers m <= 3 for every n >= 2, and (m, n) = (5, 20).  Returns None when
    no closed form applies.
    """
    if m == 1:
        thr = -Fraction(n * (n - 4), 4)
        pieces = [RegionPiece(lo=thr, hi=POS_INF)]
    elif m == 2:
        pieces = [RegionPiece(lo=gamma2_closed_form(n, 0), hi=POS_INF)]
    elif m == 3:
        pieces = [RegionPiece(lo=gamma3_closed_form(n), hi=POS_INF)]
    elif (m, n) == (5, 20):
        beta, gamma = golden.island_roots()
        pieces = [RegionPiece(lo=Fraction(0), hi=beta),
                  RegionPiece(lo=gamma, hi=POS_INF)]
    else:
        return None
    return EsaRegion(m=m, n=n, pieces=pieces, boundary_candidates=[],
                     oracle_checked="closed-form")


# -- whole-operator cross-checks -----------------------------------------------------


def power_zero_coupling(m: int, n: int, l_max: int = 50) -> bool:
    """Engine ESA decision at zero coupling across all sectors l <= l_max.

    Expected to equal (n >= 4m); the comparison itself lives in the tests.
    """
    if m < 1 or n < 2:
        raise ValueError("need m >= 1, n >= 2")
    for l in range(l_max + 1):
        if not esa_decide_radial(IndicialSpec(m=m, n=n, l=l, c=Fraction(0)),
                                 with_certificate=False).is_esa:
            return False
    return True


def conjecture_explore(m_max: int = 12, m_cap: int = 12) -> list:
    """Numeric exploration of the dimension-3 threshold growth.

    For each m: the engine threshold gamma(m), the comparison value
    (2 m^2 / pi)^(2m), and the ratio log(gamma) / log((2 m^2 / pi)^(2m)).
    Exploratory output only; nothing is asserted beyond the table itself.
    """
    import mpmath as mp

    if m_max > m_cap:
        raise ValueError(f"m_max exceeds the configured cap {m_cap} "
                         "(degree-2m determinants grow quickly)")
    rows = []
    for m in range(1, m_max + 1):
        thr = gamma_threshold(m, 3, 0)
        approx_scale = mp.mpf(2 * m * m) / mp.pi
        approx = approx_scale ** (2 * m)
        if isinstance(thr, AlgebraicReal):
            g = mp.mpf(float(thr))
        else:
            g = mp.mpf(thr.numerator) / mp.mpf(thr.denominator)
        ratio = None
        if g > 0:
            ratio = float(mp.log(g) / mp.log(approx))
        rows.append({
            "m": m,
            "gamma": thr,
            "comparison": float(approx),
            "log_ratio": ratio,
        })
    return rows
