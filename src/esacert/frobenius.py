"""Resonance geometry and Frobenius fundamental systems for the fourth-order
two-parameter family.

The generalized eigenvalue equation of the family (operator applied to y
equals lambda * y) has, at a generic parameter point, a basis of four
solutions r^(a_i) * 0F3(1 + (a_i - a_j)/4 ; lambda r^4 / 256), where the
a_i are the characteristic exponents.  The basis degenerates exactly when
some exponent difference is a nonpositive multiple of 4; in the parameter
plane those resonances trace two families of curves indexed by k >= 0:

* lines  L_k:   16 c2 = -9 - 24 c1 - 128 c1 k^2 + 160 k^2 - 256 k^4
  (resonance between the symmetric exponent pairs: a2 - a3 = -4k for
  c1 < 5/4 - 4k^2, a1 - a4 = -4k for c1 > 5/4 - 4k^2, both with the double
  pairs a1 = a2, a3 = a4 at equality);
* parabolas P_k: c2 = 1 - 4 c1 + c1^2 + 16 c1 k^2 - 20 k^2 + 64 k^4
  (resonance between adjacent pairs: a1 - a2 = a3 - a4 = -4k for
  c1 < 5/4 - 8k^2, a1 - a3 = a2 - a4 = -4k for c1 > 5/4 - 8k^2, with
  a2 = a3 at equality).

Membership is decided exactly: for rational (c1, c2) the locus equations
are quadratics in K = k^2 with rational coefficients, so all integer k with
(c1, c2) on L_k or P_k are found by solving for K and testing for perfect
squares.  No tolerance is involved; irrational inputs are rejected.

The curve families satisfy exact incidence identities (every L_k is tangent
to P_0, every P_k to L_0, and pairwise intersections have closed-form c1
values); `resonance_geometry_table` verifies them all in rational
arithmetic.  One of them shapes the case analysis: P_h and P_k (h != k)
meet only at c1 = 5/4 - 4h^2 - 4k^2, and that point lies on L_|h-k| and on
L_(h+k), so no point lies on two parabolas without lying on a line.

In resonant cases the broken series solutions are replaced by Meijer
G-function solutions G^{2,0}/G^{3,0}/G^{4,0} of order 0,4, read off the
exact exponent relations of the memberships (`select_fundamental_system`).
This module only emits structural descriptors (kind, exponent, parameter
order, argument sign); numeric evaluation of the G-functions is out of
scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .exact import RationalPolynomial, as_fraction, rational_sqrt
from .indicial import EulerParams

# -- locus equations -------------------------------------------------------------


def _line_poly(k: int) -> RationalPolynomial:
    """c2 on L_k as a degree-1 polynomial in c1."""
    kk = k * k
    return RationalPolynomial((Fraction(-9 + 160 * kk - 256 * kk * kk, 16),
                               Fraction(-24 - 128 * kk, 16)))


def _parabola_poly(k: int) -> RationalPolynomial:
    """c2 on P_k as a degree-2 polynomial in c1."""
    kk = k * k
    return RationalPolynomial((Fraction(1 - 20 * kk + 64 * kk * kk),
                               Fraction(-4 + 16 * kk), Fraction(1)))


def line_c2(c1: Fraction, k: int) -> Fraction:
    """c2 with (c1, c2) on the line L_k."""
    return _line_poly(k)(as_fraction(c1))


def parabola_c2(c1: Fraction, k: int) -> Fraction:
    """c2 with (c1, c2) on the parabola P_k."""
    return _parabola_poly(k)(as_fraction(c1))


def line_pivot(k: int) -> Fraction:
    return Fraction(5, 4) - 4 * k * k


def parabola_pivot(k: int) -> Fraction:
    return Fraction(5, 4) - 8 * k * k


def _square_indices(a: Fraction, b: Fraction, c: Fraction) -> list:
    """Integers k >= 0 with a*k^4 + b*k^2 + c = 0, found exactly."""
    disc = b * b - 4 * a * c
    s = rational_sqrt(disc)
    if s is None:
        return []
    out = set()
    for root in ((-b + s) / (2 * a), (-b - s) / (2 * a)):
        if root < 0 or root.denominator != 1:
            continue
        k = math.isqrt(root.numerator)
        if k * k == root.numerator:
            out.add(k)
    return sorted(out)


class Branch(Enum):
    LOWER = "lower"    # c1 below the pivot
    UPPER = "upper"    # c1 above the pivot
    PIVOT = "pivot"    # c1 exactly at the pivot (degenerate double pairs)


@dataclass(frozen=True)
class LocusMembership:
    kind: str          # "line" or "parabola"
    k: int
    branch: Branch
    relations: tuple   # pairs (i, j) with a_i - a_j = -4k (1-based)

    def to_json(self) -> dict:
        return {"kind": self.kind, "k": self.k, "branch": self.branch.value,
                "relations": [list(r) for r in self.relations]}


@dataclass(frozen=True)
class ResonanceClassification:
    params: EulerParams
    lines: tuple
    parabolas: tuple

    @property
    def generic(self) -> bool:
        return not self.lines and not self.parabolas

    def to_json(self) -> dict:
        return {"params": self.params.to_json(),
                "lines": [m.to_json() for m in self.lines],
                "parabolas": [m.to_json() for m in self.parabolas],
                "generic": self.generic}


def _membership(kind: str, c1: Fraction, k: int) -> LocusMembership:
    pivot = line_pivot(k) if kind == "line" else parabola_pivot(k)
    branch = (Branch.LOWER if c1 < pivot
              else (Branch.UPPER if c1 > pivot else Branch.PIVOT))
    lower = branch is Branch.LOWER
    if kind == "line":
        relations = ((2, 3),) if lower else ((1, 4),)
    else:
        # k = 0 collapses the inner radicand, so the coincidences are a1 = a2
        # and a3 = a4 on both sides of the pivot
        relations = ((1, 2), (3, 4)) if lower or k == 0 else ((1, 3), (2, 4))
    return LocusMembership(kind, k, branch, relations)


def classify_resonance(c1, c2) -> ResonanceClassification:
    """Every line/parabola membership of the rational point (c1, c2), found
    exactly and completely: memberships solve a rational quadratic in k^2."""
    c1, c2 = as_fraction(c1), as_fraction(c2)
    # line L_k: 256 K^2 + (128 c1 - 160) K + (16 c2 + 24 c1 + 9) = 0, K = k^2
    line_ks = _square_indices(Fraction(256), 128 * c1 - 160, 16 * c2 + 24 * c1 + 9)
    # parabola P_k: 64 K^2 + (16 c1 - 20) K + (1 - 4 c1 + c1^2 - c2) = 0
    par_ks = _square_indices(Fraction(64), 16 * c1 - 20, 1 - 4 * c1 + c1 * c1 - c2)
    params = EulerParams(c1=c1, c2=c2)
    return ResonanceClassification(
        params=params,
        lines=tuple(_membership("line", c1, k) for k in line_ks),
        parabolas=tuple(_membership("parabola", c1, k) for k in par_ks))


# -- fundamental systems ------------------------------------------------------------


class SolutionKind(Enum):
    SERIES_F03 = "0F3"
    MEIJER_G20 = "G20"
    MEIJER_G30 = "G30"
    MEIJER_G40 = "G40"


class CaseTag(Enum):
    GENERIC = "generic"
    ONE_LINE_UPPER = "one-line-upper"
    ONE_LINE_LOWER = "one-line-lower"
    ONE_PARABOLA_UPPER = "one-parabola-upper"
    ONE_PARABOLA_LOWER = "one-parabola-lower"
    TWO_LINES = "two-lines"
    LINE_AND_PARABOLA = "line-and-parabola"


@dataclass(frozen=True)
class SolutionDescriptor:
    kind: SolutionKind
    exponent: complex             # leading characteristic exponent
    parameters: tuple             # 0F3 triple, or the four G parameters a_i/4
    argument_negated: bool = False  # argument is -(lambda r^4)/256 when True

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "exponent": [float(self.exponent.real), float(self.exponent.imag)],
            "parameters": [[float(p.real), float(p.imag)] for p in self.parameters],
            "argument": "-lambda*r^4/256" if self.argument_negated else "lambda*r^4/256",
        }


@dataclass(frozen=True)
class BasisSelection:
    case_tag: CaseTag
    classification: ResonanceClassification
    solutions: tuple              # four descriptors

    def to_json(self) -> dict:
        return {
            "case": self.case_tag.value,
            "classification": self.classification.to_json(),
            "solutions": [s.to_json() for s in self.solutions],
            "note": "",   # every case has descriptors; kept for stable payloads
        }


def _outer_radicand_sign(s: Fraction, inner_radicand: Fraction, plus: bool) -> int:
    """Exact sign of s +- 4*sqrt(b) for rational s and b >= 0."""
    b16 = 16 * inner_radicand
    s2 = s * s
    if plus:
        if s >= 0:
            return 0 if (s == 0 and inner_radicand == 0) else 1
        # s < 0: sign of 16 b - s^2
        return (b16 > s2) - (b16 < s2)
    if s < 0:
        return -1
    # s >= 0: sign of s^2 - 16 b
    return (s2 > b16) - (s2 < b16)


_SQRT_BITS = 200   # relative precision of an irrational square root


def _sqrt(q: Fraction) -> Fraction:
    """sqrt(q) for rational q >= 0: exact when q is a rational square, else
    rounded down, within 2^-199 of it relative to its size."""
    exact = rational_sqrt(q)
    if exact is not None:
        return exact
    shift = max(0, _SQRT_BITS
                - (q.numerator.bit_length() - q.denominator.bit_length()) // 2)
    return Fraction(math.isqrt((q.numerator << 2 * shift) // q.denominator),
                    1 << shift)


def characteristic_exponents(c1, c2) -> tuple:
    """The four roots a1..a4 of the indicial quartic `euler_quartic` at the
    rational point (c1, c2), as pairs (re, im) of Fractions.

    They are 3/2 -+ S+/2 and 3/2 -+ S-/2 with
    S+- = sqrt(s +- 4 sqrt(b)), s = 5 - 4 c1, b = 1 - 4 c1 + c1^2 - c2,
    ordered a1 = 3/2 - S+/2, a2 = 3/2 - S-/2, a3 = 3/2 + S-/2,
    a4 = 3/2 + S+/2, so a1 + a4 = a2 + a3 = 3.  Both square roots take the
    principal branch (sqrt(r e^{i phi}) = sqrt(r) e^{i phi/2}, -pi < phi <= pi,
    a negative real radicand takes phi = pi).  Every branch is decided in
    rational arithmetic.  Every square root is a `_sqrt` of a rational formed
    without cancellation, so each part of S+- is exact where it is rational
    and otherwise within 2^-197 of it relative to its size.
    """
    c1, c2 = as_fraction(c1), as_fraction(c2)
    s = 5 - 4 * c1
    b = 1 - 4 * c1 + c1 * c1 - c2
    d = s * s - 16 * b           # (s + 4 sqrt b)(s - 4 sqrt b)
    if b >= 0:
        root_b = _sqrt(b)
        # the outer radicand of sign s has no cancellation; the other is d / it
        big = s + 4 * root_b if s >= 0 else s - 4 * root_b
        small = d / big if big else Fraction(0)
        r_plus, r_minus = (big, small) if s >= 0 else (small, big)
        sqrts = []
        for plus, rad in ((True, r_plus), (False, r_minus)):
            root = _sqrt(abs(rad))
            real = _outer_radicand_sign(s, b, plus) >= 0
            sqrts.append((root, Fraction(0)) if real else (Fraction(0), root))
        (x_p, y_p), (x_m, y_m) = sqrts
    else:
        # sqrt(s +- 4i sqrt(-b)) = x +- i y with x^2 - y^2 = s, x y = 2 sqrt(-b);
        # the radicand has modulus |w| = sqrt(d), and {x, y} = {t, u} with
        # t^2 = (|w| + |s|)/2 and u^2 = (|w| - |s|)/2 = -8b / (|w| + |s|)
        big = _sqrt(d) + abs(s)
        t, u = _sqrt(big / 2), _sqrt(-8 * b / big)
        x_p, y_p = (t, u) if s >= 0 else (u, t)
        x_m, y_m = x_p, -y_p
    mid = Fraction(3, 2)
    return ((mid - x_p / 2, -y_p / 2), (mid - x_m / 2, -y_m / 2),
            (mid + x_m / 2, y_m / 2), (mid + x_p / 2, y_p / 2))


def _display(cls: ResonanceClassification) -> tuple:
    """The case tag and the four (kind, order, negated) entries of the
    fundamental system at a classified point; order lists 1-based exponent
    indices, led by the exponent of the member (see
    `select_fundamental_system`)."""
    if cls.lines and cls.parabolas:
        return CaseTag.LINE_AND_PARABOLA, (
            (SolutionKind.MEIJER_G40, (1, 2, 3, 4), False),
            (SolutionKind.MEIJER_G30, (2, 3, 4, 1), True),
            (SolutionKind.MEIJER_G20, (3, 4, 1, 2), False),
            (SolutionKind.SERIES_F03, (4, 1, 2, 3), False))
    mems = cls.lines + cls.parabolas
    if not mems:
        tag = CaseTag.GENERIC
    elif len(cls.lines) == 2:
        tag = CaseTag.TWO_LINES
    elif len(mems) == 1 and mems[0].branch is not Branch.PIVOT:
        tag = CaseTag(f"one-{mems[0].kind}-{mems[0].branch.value}")
    else:
        raise AssertionError(f"impossible membership pattern: {len(cls.lines)} "
                             f"lines, {len(cls.parabolas)} parabolas")
    partner = dict(rel for mem in mems for rel in mem.relations)
    entries = []
    for i in range(1, 5):
        head = (i, partner[i]) if i in partner else (i,)
        order = head + tuple(n for n in range(1, 5) if n not in head)
        kind = SolutionKind.MEIJER_G20 if i in partner else SolutionKind.SERIES_F03
        entries.append((kind, order, False))
    return tag, tuple(entries)


def _descriptor(kind: SolutionKind, order: Sequence, negated: bool,
                a: Sequence) -> SolutionDescriptor:
    """A member built from the exponents `a` of `characteristic_exponents`:
    0F3 parameters 1 + (a_i - a_j)/4 with i = order[0] and j over order[1:],
    or G parameters a_j/4 over order.  The exponent, each difference
    a_i - a_j and each a_j are rounded to a double once; the quarter and the
    1 are then taken in double arithmetic, as `basis` has always printed
    them."""
    re, im = a[order[0] - 1]
    if kind is SolutionKind.SERIES_F03:
        params = tuple(complex(1 + float(re - a[j - 1][0]) / 4,
                               float(im - a[j - 1][1]) / 4) for j in order[1:])
    else:
        params = tuple(complex(float(a[j - 1][0]) / 4, float(a[j - 1][1]) / 4)
                       for j in order)
    return SolutionDescriptor(kind=kind, exponent=complex(float(re), float(im)),
                              parameters=params, argument_negated=negated)


def select_fundamental_system(c1, c2) -> BasisSelection:
    """Fundamental-system descriptors for the eigenvalue equation at (c1, c2).

    One rule reads the display off the exact exponent relations of the
    memberships: a relation (i, j), a_i - a_j = -4k, puts a G20 at position
    i with parameters a_i, a_j and then the other two exponents in
    ascending index order; every other position keeps its 0F3 series.  Only
    a point on both a line and a parabola takes the written-out chain
    G40, G30 (negated argument), G20, 0F3.  A point on two parabolas also
    lies on a line, and every pivot lies on P_0 or L_0, so one membership
    alone is never at its pivot.  The spectral parameter lambda only scales
    the common argument and does not influence the selection, so it is not
    a parameter.
    """
    cls = classify_resonance(c1, c2)
    tag, entries = _display(cls)
    a = characteristic_exponents(cls.params.c1, cls.params.c2)
    return BasisSelection(tag, cls, tuple(_descriptor(kind, order, negated, a)
                                          for kind, order, negated in entries))


# -- exact incidence identities ------------------------------------------------------


@dataclass(frozen=True)
class GeometryIdentity:
    description: str
    holds: bool
    detail: str = ""


def resonance_geometry_table(h_max: int = 5, k_max: int = 5) -> list:
    """Exact verification of the incidence identities of the locus families.

    * L_k is tangent to P_0 (unique contact, at c1 = 5/4 - 4k^2);
    * P_k is tangent to L_0 (unique contact, at c1 = 5/4 - 8k^2);
    * L_h and L_k (h != k) meet at c1 = 5/4 - 2h^2 - 2k^2;
    * P_h and P_k (h != k) meet only at c1 = 5/4 - 4h^2 - 4k^2, and that
      point lies on L_|h-k| and on L_(h+k);
    * L_h and P_k meet at c1 = 5/4 - 4h^2 +- 8hk - 8k^2.

    Everything is checked in exact rational arithmetic.
    """
    tangencies = (
        [(f"L_{k} tangent to P_0", _parabola_poly(0) - _line_poly(k), line_pivot(k))
         for k in range(k_max + 1)]
        + [(f"P_{k} tangent to L_0", _parabola_poly(k) - _line_poly(0), parabola_pivot(k))
           for k in range(k_max + 1)])
    out = []
    for description, diff, pivot in tangencies:
        a2, a1, a0 = diff.descending()
        contact = -a1 / (2 * a2)
        ok = a1 * a1 == 4 * a2 * a0 and contact == pivot
        out.append(GeometryIdentity(description, ok, f"contact c1 = {contact}"))
    for h in range(h_max + 1):
        for k in range(k_max + 1):
            if h == k:
                continue
            diff = _line_poly(h) - _line_poly(k)
            root = -diff.coeffs[0] / diff.coeffs[1]
            expect = Fraction(5, 4) - 2 * h * h - 2 * k * k
            out.append(GeometryIdentity(
                f"L_{h} meets L_{k}", root == expect, f"c1 = {root}"))
            # the difference is linear in c1, so the meeting point is unique
            diffp = _parabola_poly(h) - _parabola_poly(k)
            rootp = -diffp.coeffs[0] / diffp.coeffs[1]
            expectp = Fraction(5, 4) - 4 * h * h - 4 * k * k
            out.append(GeometryIdentity(
                f"P_{h} meets P_{k}", rootp == expectp, f"c1 = {rootp}"))
            c2 = _parabola_poly(h)(rootp)
            on_lines = _line_poly(abs(h - k))(rootp) == c2 == _line_poly(h + k)(rootp)
            out.append(GeometryIdentity(
                f"P_{h} meets P_{k} on L_{abs(h - k)} and L_{h + k}", on_lines,
                f"(c1, c2) = ({rootp}, {c2})"))
    for h in range(h_max + 1):
        for k in range(k_max + 1):
            diff = _parabola_poly(k) - _line_poly(h)
            plus = Fraction(5, 4) - 4 * h * h + 8 * h * k - 8 * k * k
            minus = Fraction(5, 4) - 4 * h * h - 8 * h * k - 8 * k * k
            ok = diff(plus) == 0 and diff(minus) == 0
            out.append(GeometryIdentity(
                f"L_{h} meets P_{k}", ok, f"c1 in {{{plus}, {minus}}}"))
    return out


def locus_samples() -> list:
    """Point samples of L_0..L_5 and P_0..P_3 with a closed-form ESA flag,
    at the 141 points c1 = -30 + i/4, i = 0..140.

    Rows: (locus_id, k, c1, c2, esa_flag); used for plotting the resonance
    geometry on top of the ESA region of the two-parameter family.
    """
    from .esa import euler_esa_closed_form

    rows = []
    for kind, k_top, c2_of in (("line", 5, line_c2), ("parabola", 3, parabola_c2)):
        for k in range(k_top + 1):
            for i in range(141):
                c1 = Fraction(i - 120, 4)   # -30 + i/4
                c2 = c2_of(c1, k)
                rows.append((kind, k, c1, c2, euler_esa_closed_form(c1, c2)))
    return rows
