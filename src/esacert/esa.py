"""ESA decisions, thresholds and regions for the radial operators.

The decision criterion: the radial operator of order 2m is essentially
self-adjoint iff exactly m roots of its indicial polynomial have real part
<= -1/2 (the remaining m then lie strictly right of the line; the root
multiset is symmetric about m - 1/2, which also makes the ESA set in the
coupling c closed).

Regions in c come from one sweep over the crossings of the line.  In
w = z + 1/2 the centered polynomial is E0(w^2) + w O(w^2) + c, so a root
lies on Re w = 0 only at c = r = -E0(0) (the root w = 0, moving left as c
grows iff O(0) > 0) and at c = -E0(u) for each negative root u of O (the
pair w = +-i sqrt(-u), moving left iff O'(u) < 0), by dw/dc = -1/f'(w).
O(0) = 0 or O'(u) = 0 is a tangential contact: TangentialCrossingError.
Each crossing is a real root of the Hurwitz determinant det(c) (Orlando),
that is a boundary candidate.  With left(c) the roots strictly left of the
line and inc / dec those crossing leftward / rightward at a candidate c*,
c* is in the region iff left(c*+) + dec = m, and the cell below has
left(c*+) - inc + dec; the sweep runs down from one exact count above the
candidates, emits the region's pieces as it walks, and is checked by one
exact count below them.

Closed-form oracles cover m <= 3 and the tenth-order operator in dimension
20; the engine cross-checks against them wherever they apply.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exact import (AlgebraicReal, RationalPolynomial, as_fraction,
                    count_real_roots, exact_real_roots, poly_gcd,
                    value_compare)
from .indicial import IndicialSpec, build_indicial
from .stability import (HalfPlaneCount, HurwitzData, axis_roots_exact,
                        halfplane_count, hurwitz_assemble)
from . import golden

Value = Union[Fraction, AlgebraicReal]
L_MAX = 50             # default top sector of a whole-operator region
CONJECTURE_M_CAP = 12  # degree-2m determinants grow quickly


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
            "axis_parameters": [value_to_json(t) for t in axis],
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

    def contains(self, c) -> bool:
        return any(p.contains(c) for p in self.pieces)

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
            "warnings": [],
        }
        if self.l is not None:
            out["l"] = self.l
        if self.certified_up_to_l is not None:
            out["certified_up_to_l"] = self.certified_up_to_l
        out["oracle_checked"] = self.oracle_checked
        return out


class TangentialCrossingError(ArithmeticError):
    """A root touches the line Re z = -1/2 without crossing it to first
    order (O(0) = 0, or O'(u) = 0 at a negative root u of the odd part), so
    the crossing sweep cannot tell on which side it goes on."""


def _horner_range(p: RationalPolynomial, lo: Fraction, hi: Fraction) -> tuple:
    """(a, b) with a <= p(x) <= b for every x in [lo, hi], by interval Horner."""
    a = b = Fraction(0)
    for c in reversed(p.coeffs):
        ends = (a * lo, a * hi, b * lo, b * hi)
        a, b = min(ends) + c, max(ends) + c
    return a, b


def _crossings(hd: HurwitzData, bounds: list) -> list:
    """[inc, dec] per boundary candidate, given their isolating intervals
    `bounds` (sorted, disjoint; a point for a rational one).  The crossing
    at -E0(u) lies in exactly one of them; u, a root of O that is never
    printed, is refined until the range of -E0 over it meets only that one.
    """
    even, odd = hd.shifted_base.even_odd_split()
    slope = odd.derivative()
    if odd.coefficient(0) == 0 or count_real_roots(poly_gcd(odd, slope), hi=0):
        raise TangentialCrossingError(
            f"a root touches Re z = -1/2 without crossing it (m={hd.m}, nu={hd.nu})")

    def slot(lo: Fraction, hi: Fraction):
        hits = [i for i, (a, b) in enumerate(bounds) if a <= hi and lo <= b]
        if not hits:
            raise AssertionError("a crossing coupling is not a root of det_in_c")
        return hits[0] if len(hits) == 1 else None

    moves = [[0, 0] for _ in bounds]
    moves[slot(hd.linear_root, hd.linear_root)][odd.coefficient(0) < 0] += 1
    for u in exact_real_roots(odd):
        if value_compare(u, 0) >= 0:
            break
        while True:
            lo, hi = u.interval if isinstance(u, AlgebraicReal) else (u, u)
            e_lo, e_hi = _horner_range(even, lo, hi)
            s_lo, s_hi = _horner_range(slope, lo, hi)
            i = slot(-e_hi, -e_lo)
            if i is not None and (s_lo > 0 or s_hi < 0):
                break
            u.refine((hi - lo) / 4)
        moves[i][s_lo > 0] += 2
    return moves


def esa_region_radial(m: int, n: int, l: int) -> EsaRegion:
    """Exact ESA region in c for one radial operator, by the crossing sweep
    of the module docstring: two exact counts, whatever the candidates."""
    hd = _hurwitz_cached(m, n, l)
    candidates = exact_real_roots(hd.det_in_c)   # never empty: r is one
    bounds = [v.interval if isinstance(v, AlgebraicReal) else (v, v)
              for v in candidates]
    if any(a[1] >= b[0] for a, b in zip(bounds, bounds[1:])):
        raise AssertionError("exact_real_roots returned overlapping intervals")
    moves = _crossings(hd, bounds)

    def left_at(c) -> int:
        spec = IndicialSpec(m=m, n=n, l=l, c=Fraction(c))
        return halfplane_count(build_indicial(spec)).left

    left = left_at(math.ceil(bounds[-1][1]) + 1)
    if left != m:
        raise AssertionError("non-ESA reported in the c -> +infinity cell")
    pieces, hi = [], POS_INF   # hi: top of the ESA run the walk is in, or None
    for c, (inc, dec) in zip(reversed(candidates), reversed(moves)):
        if left + dec > m:
            raise AssertionError("more than m roots weakly left of the line; "
                                 "pairing symmetry violated")
        member = left + dec == m
        left += dec - inc
        if left == m:            # the cell below c is ESA
            if hi is None:
                hi = c
        elif hi is not None:
            pieces.append(RegionPiece(lo=c, hi=hi))
            hi = None
        elif member:             # no ESA cell on either side
            pieces.append(RegionPiece(lo=c, hi=c))
    if left != left_at(math.floor(bounds[0][0]) - 1):
        raise AssertionError("crossing sweep disagrees with the count below "
                             "the boundary candidates")
    if left == m:
        raise AssertionError("ESA reported in the c -> -infinity cell")
    pieces.reverse()
    return EsaRegion(m=m, n=n, l=l, pieces=pieces,
                     boundary_candidates=candidates)


# -- thresholds ------------------------------------------------------------------


def gamma_threshold(m: int, n: int, l: int) -> Value:
    """Largest finite boundary point of the radial ESA region: the +inf cell
    is ESA, so the last piece is [lo, inf) and its lo is that point."""
    return esa_region_radial(m, n, l).pieces[-1].lo


# -- intersections and full-operator regions ----------------------------------------


def intersect_pieces(a: Sequence[RegionPiece], b: Sequence[RegionPiece]) -> list:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = a[i].lo if value_cmp(a[i].lo, b[j].lo) >= 0 else b[j].lo
        a_first = value_cmp(a[i].hi, b[j].hi) <= 0   # POS_INF orders last
        hi = a[i].hi if a_first else b[j].hi
        if value_cmp(lo, hi) <= 0:
            out.append(RegionPiece(lo=lo, hi=hi))
        # advance the piece that ends first
        if a_first:
            i += 1
        else:
            j += 1
    return out


def esa_region_full(m: int, n: int, l_max: int = L_MAX, map=map) -> EsaRegion:
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
    for region in map(functools.partial(esa_region_radial, m, n), range(l_max + 1)):
        pieces = list(region.pieces) if pieces is None \
            else intersect_pieces(pieces, region.pieces)
    result = EsaRegion(m=m, n=n, pieces=pieces, boundary_candidates=[],
                       certified_up_to_l=l_max)
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
    return AlgebraicReal.from_quadratic_surd(Fraction(64 * p, 27), Fraction(64 * q, 27), c)


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


def power_zero_coupling(m: int, n: int, l_max: int = L_MAX) -> bool:
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


def conjecture_explore(m_max: int = CONJECTURE_M_CAP) -> list:
    """Numeric exploration of the dimension-3 threshold growth.

    For each m: the engine threshold gamma(m), the comparison value
    (2 m^2 / pi)^(2m), and the ratio log(gamma) / log((2 m^2 / pi)^(2m)),
    both in hardware floats.  Exploratory output only; nothing is asserted
    beyond the table itself.
    """
    if m_max > CONJECTURE_M_CAP:
        raise ValueError(f"m_max exceeds the cap {CONJECTURE_M_CAP}")
    rows = []
    for m in range(1, m_max + 1):
        thr = gamma_threshold(m, 3, 0)
        approx = (2 * m * m / math.pi) ** (2 * m)
        g = float(thr)
        rows.append({
            "m": m,
            "gamma": thr,
            "comparison": approx,
            "log_ratio": math.log(g) / math.log(approx) if g > 0 else None,
        })
    return rows
