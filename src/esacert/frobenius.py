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

import mpmath as mp

from .exact import RationalPolynomial, as_fraction, rational_sqrt
from .indicial import EulerParams, euler_quartic, quartic_roots_closed_form
from .roots import START_BITS


# term budget of a series before it gives up on certifying its tail
MAX_SERIES_TERMS = 10 ** 6


class ResonanceError(ValueError):
    """A series parameter hit a nonpositive integer; the basis degenerates."""


def _mpf_of(x):
    """mpf at the current working precision; Fractions convert exactly."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def _mpc_of(x):
    if isinstance(x, Fraction):
        return mp.mpc(_mpf_of(x))
    return mp.mpc(x)


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


def _series_descriptor(alphas: Sequence, i: int) -> SolutionDescriptor:
    """Frobenius series solution with exponent alphas[i] (0-based index)."""
    params = tuple(1 + (alphas[i] - alphas[j]) / 4
                   for j in range(4) if j != i)
    return SolutionDescriptor(kind=SolutionKind.SERIES_F03,
                              exponent=complex(alphas[i]),
                              parameters=tuple(complex(p) for p in params))


def _g_descriptor(kind: SolutionKind, alphas: Sequence, order: Sequence,
                  negated: bool = False) -> SolutionDescriptor:
    params = tuple(complex(alphas[j - 1] / 4) for j in order)
    return SolutionDescriptor(kind=kind, exponent=complex(alphas[order[0] - 1]),
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
    a = quartic_roots_closed_form(cls.params)
    if cls.lines and cls.parabolas:
        sols = (
            _g_descriptor(SolutionKind.MEIJER_G40, a, (1, 2, 3, 4)),
            _g_descriptor(SolutionKind.MEIJER_G30, a, (2, 3, 4, 1), negated=True),
            _g_descriptor(SolutionKind.MEIJER_G20, a, (3, 4, 1, 2)),
            _series_descriptor(a, 3),
        )
        return BasisSelection(CaseTag.LINE_AND_PARABOLA, cls, sols)
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
    sols = []
    for i in range(1, 5):
        if i in partner:
            rest = tuple(n for n in range(1, 5) if n not in (i, partner[i]))
            sols.append(_g_descriptor(SolutionKind.MEIJER_G20, a,
                                      (i, partner[i]) + rest))
        else:
            sols.append(_series_descriptor(a, i - 1))
    return BasisSelection(tag, cls, tuple(sols))


# -- series evaluation and residuals -----------------------------------------------


def _check_parameters(params: Sequence):
    """Raise ResonanceError at a nonpositive-integer series parameter: exactly
    for a rational (int or Fraction) parameter, within 1e-9 otherwise."""
    for p in params:
        if isinstance(p, (int, Fraction)):
            resonant = p.denominator == 1 and p <= 0
        else:
            p = complex(p)
            nearest = round(p.real)
            resonant = (abs(p.imag) < 1e-9 and nearest <= 0
                        and abs(p.real - nearest) < 1e-9)
        if resonant:
            raise ResonanceError(
                f"series parameter {p} is a nonpositive integer; "
                "use select_fundamental_system for a valid basis")


def _0F3_terms(p1, p2, p3, z, tol: float):
    """The terms t_0 = 1, t_1, ..., t_K of sum z^k / ((p1)_k (p2)_k (p3)_k k!),
    with t_(k+1) = t_k z / ((p1 + k)(p2 + k)(p3 + k)(k + 1)), at the working
    precision.

    Ends at the first t_K with |t_K| < tol after which a geometric ratio
    bound certifies the dropped tail to be at most tol in absolute value;
    raises if MAX_SERIES_TERMS terms do not get there.  The caller rejects
    nonpositive-integer parameters (the series degenerates) by
    `_check_parameters`.
    """
    # |p + k| grows monotonically once k exceeds -Re p, making the term
    # ratio decreasing and the geometric tail bound valid
    k_safe = max(8, 2 + math.ceil(max(0.0, -min(p.real for p in (p1, p2, p3)))))
    term = mp.mpc(1)
    yield term
    k = 0
    while k < MAX_SERIES_TERMS:
        denom = (p1 + k) * (p2 + k) * (p3 + k) * (k + 1)
        if denom == 0:
            raise ResonanceError("series recurrence hit a zero denominator")
        term = term * z / denom
        yield term
        k += 1
        if k < k_safe:
            continue
        ratio = abs(z) / abs((p1 + k) * (p2 + k) * (p3 + k) * (k + 1))
        if ratio < 0.5 and abs(term) * ratio / (1 - ratio) < tol and abs(term) < tol:
            return
    raise ResonanceError(
        f"series did not certify its tail within {MAX_SERIES_TERMS} terms")


def eval_0F3(p1, p2, p3, z, tol: float = 1e-20):
    """Truncated hypergeometric series sum z^k / ((p1)_k (p2)_k (p3)_k k!),
    with the dropped tail certified to be at most tol (see `_0F3_terms`)."""
    _check_parameters((p1, p2, p3))
    prec = max(96, int(-math.log2(tol)) + 64)
    with mp.workprec(prec):
        total = mp.mpc(0)
        for term in _0F3_terms(_mpc_of(p1), _mpc_of(p2), _mpc_of(p3), _mpc_of(z),
                               tol):
            total += term
        return total


def ode_defect(sel: BasisSelection, index: int, c1, c2, lam, r,
               tol: float = 1e-20):
    """(tau y - lambda y)(r) for series member `index` (1-based), as mpc.

    The truncated series is differentiated term by term: the operator maps
    the monomial r^s to E(c1, c2; s) r^(s-4) exactly, where E is the
    indicial quartic, so no finite differences enter.  The series is cut
    where `eval_0F3` cuts it, after a term t_K with |t_K| < tol.  Since
    E(alpha + 4k) t_k = lambda r^4 t_(k-1), the defect of the cut series
    telescopes to -lambda r^alpha t_K, so it is at most
    |lambda| r^(Re alpha) tol up to rounding.  G-function members are
    rejected (no numeric evaluator in scope).
    """
    desc = sel.solutions[index - 1]
    if desc.kind is not SolutionKind.SERIES_F03:
        raise ResonanceError("residual evaluation supports series members only")
    if not float(r) > 0:
        raise ValueError("need r > 0")
    quartic = euler_quartic(c1, c2)
    prec = max(START_BITS, int(-math.log2(tol)) + 80)
    # re-derive the exponents at working precision; the descriptor stores
    # them as doubles, which would floor the residual near 1e-15
    hi = quartic_roots_closed_form(EulerParams(c1=as_fraction(c1), c2=as_fraction(c2)),
                                   precision_bits=prec)
    with mp.workprec(prec):
        lam_mp = _mpc_of(lam)
        r_mp = _mpf_of(r)
        # the member at position i has exponent a_i (`select_fundamental_system`)
        alpha = hi[index - 1]
        ps = [1 + (alpha - w) / 4 for j, w in enumerate(hi) if j != index - 1]
        _check_parameters(ps)
        coeffs = [_mpf_of(c) for c in quartic.descending()]
        x = lam_mp * r_mp ** 4 / 256
        # t_k = u_k x^k, with tau(r^(alpha+4k)) = E(alpha + 4k) r^(alpha+4k-4)
        op_sum = mp.mpc(0)    # sum t_k E(alpha+4k) r^(-4)
        fn_sum = mp.mpc(0)    # sum t_k
        for k, term in enumerate(_0F3_terms(*ps, x, tol)):
            op_sum += term * mp.polyval(coeffs, alpha + 4 * k) / r_mp ** 4
            fn_sum += term
        return r_mp ** mp.mpc(alpha) * (op_sum - lam_mp * fn_sum)


def ode_residual(sel: BasisSelection, index: int, c1, c2, lam, r,
                 tol: float = 1e-20) -> float:
    """|tau y - lambda y| at radius r for series member `index` (1-based)."""
    return float(abs(ode_defect(sel, index, c1, c2, lam, r, tol=tol)))


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
