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
arithmetic.

In resonant cases the broken series solutions are replaced by Meijer
G-function solutions G^{2,0}/G^{3,0}/G^{4,0} of order 0,4.  This module
only emits structural descriptors (kind, exponent, parameter order,
argument sign); numeric evaluation of the G-functions is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp

from .exact import RationalPolynomial, as_fraction, rational_sqrt
from .indicial import EulerParams, euler_quartic, quartic_roots_closed_form
from .roots import START_BITS


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


def line_c2(c1: Fraction, k: int) -> Fraction:
    """c2 with (c1, c2) on the line L_k."""
    c1 = as_fraction(c1)
    return Fraction(-9 - 24 * c1 - 128 * c1 * k * k + 160 * k * k - 256 * k ** 4, 16)


def parabola_c2(c1: Fraction, k: int) -> Fraction:
    """c2 with (c1, c2) on the parabola P_k."""
    c1 = as_fraction(c1)
    return 1 - 4 * c1 + c1 * c1 + 16 * c1 * k * k - 20 * k * k + 64 * k ** 4


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


def _line_membership(c1: Fraction, k: int) -> LocusMembership:
    pivot = line_pivot(k)
    if c1 < pivot:
        return LocusMembership("line", k, Branch.LOWER, ((2, 3),))
    if c1 > pivot:
        return LocusMembership("line", k, Branch.UPPER, ((1, 4),))
    return LocusMembership("line", k, Branch.PIVOT, ((1, 4),))


def _parabola_membership(c1: Fraction, k: int) -> LocusMembership:
    pivot = parabola_pivot(k)
    # k = 0 collapses the inner radicand, so the coincidences are a1 = a2 and
    # a3 = a4 on both sides of the pivot
    if c1 < pivot or k == 0:
        branch = (Branch.LOWER if c1 < pivot
                  else (Branch.UPPER if c1 > pivot else Branch.PIVOT))
        return LocusMembership("parabola", k, branch, ((1, 2), (3, 4)))
    if c1 > pivot:
        return LocusMembership("parabola", k, Branch.UPPER, ((1, 3), (2, 4)))
    return LocusMembership("parabola", k, Branch.PIVOT, ((1, 3), (2, 4)))


def classify_resonance(c1, c2, k_max: Optional[int] = None) -> ResonanceClassification:
    """Every line/parabola membership of the rational point (c1, c2).

    The search is exact and complete: memberships solve a rational quadratic
    in k^2, so no index bound is needed.  A k_max may still be passed to
    assert that no membership beyond it exists.
    """
    c1, c2 = as_fraction(c1), as_fraction(c2)
    # line L_k: 256 K^2 + (128 c1 - 160) K + (16 c2 + 24 c1 + 9) = 0, K = k^2
    line_ks = _square_indices(Fraction(256), 128 * c1 - 160, 16 * c2 + 24 * c1 + 9)
    # parabola P_k: 64 K^2 + (16 c1 - 20) K + (1 - 4 c1 + c1^2 - c2) = 0
    par_ks = _square_indices(Fraction(64), 16 * c1 - 20, 1 - 4 * c1 + c1 * c1 - c2)
    if k_max is not None:
        beyond = [k for k in line_ks + par_ks if k > k_max]
        if beyond:
            raise ValueError(f"membership at k={beyond} exceeds the requested bound")
    params = EulerParams(c1=c1, c2=c2)
    return ResonanceClassification(
        params=params,
        lines=tuple(_line_membership(c1, k) for k in line_ks),
        parabolas=tuple(_parabola_membership(c1, k) for k in par_ks))


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
    TWO_PARABOLAS = "two-parabolas-uncovered"


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
    solutions: Optional[tuple]    # four descriptors; None for the uncovered tag
    note: str = ""

    def to_json(self) -> dict:
        return {
            "case": self.case_tag.value,
            "classification": self.classification.to_json(),
            "solutions": None if self.solutions is None
            else [s.to_json() for s in self.solutions],
            "note": self.note,
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

    The case analysis follows the resonance classification; G-function
    parameter orderings are fixed structural data per case.  The spectral
    parameter lambda only scales the common argument and does not influence
    the selection, so it is not a parameter.
    """
    cls = classify_resonance(c1, c2)
    a = quartic_roots_closed_form(EulerParams(c1=as_fraction(c1), c2=as_fraction(c2)))
    nl, np_ = len(cls.lines), len(cls.parabolas)
    if nl == 0 and np_ == 0:
        sols = tuple(_series_descriptor(a, i) for i in range(4))
        return BasisSelection(CaseTag.GENERIC, cls, sols)
    if nl >= 1 and np_ >= 1:
        sols = (
            _g_descriptor(SolutionKind.MEIJER_G40, a, (1, 2, 3, 4)),
            _g_descriptor(SolutionKind.MEIJER_G30, a, (2, 3, 4, 1), negated=True),
            _g_descriptor(SolutionKind.MEIJER_G20, a, (3, 4, 1, 2)),
            _series_descriptor(a, 3),
        )
        return BasisSelection(CaseTag.LINE_AND_PARABOLA, cls, sols)
    if nl == 1 and np_ == 0:
        mem = cls.lines[0]
        if mem.branch is Branch.UPPER:
            sols = (
                _g_descriptor(SolutionKind.MEIJER_G20, a, (1, 4, 2, 3)),
                _series_descriptor(a, 1),
                _series_descriptor(a, 2),
                _series_descriptor(a, 3),
            )
            return BasisSelection(CaseTag.ONE_LINE_UPPER, cls, sols)
        sols = (
            _series_descriptor(a, 0),
            _g_descriptor(SolutionKind.MEIJER_G20, a, (2, 3, 1, 4)),
            _series_descriptor(a, 2),
            _series_descriptor(a, 3),
        )
        return BasisSelection(CaseTag.ONE_LINE_LOWER, cls, sols)
    if nl == 0 and np_ == 1:
        mem = cls.parabolas[0]
        if mem.branch is Branch.UPPER:
            sols = (
                _g_descriptor(SolutionKind.MEIJER_G20, a, (1, 3, 2, 4)),
                _g_descriptor(SolutionKind.MEIJER_G20, a, (2, 4, 1, 3)),
                _series_descriptor(a, 2),
                _series_descriptor(a, 3),
            )
            return BasisSelection(CaseTag.ONE_PARABOLA_UPPER, cls, sols)
        sols = (
            _g_descriptor(SolutionKind.MEIJER_G20, a, (1, 2, 3, 4)),
            _series_descriptor(a, 1),
            _g_descriptor(SolutionKind.MEIJER_G20, a, (3, 4, 1, 2)),
            _series_descriptor(a, 3),
        )
        return BasisSelection(CaseTag.ONE_PARABOLA_LOWER, cls, sols)
    if nl == 2 and np_ == 0:
        sols = (
            _g_descriptor(SolutionKind.MEIJER_G20, a, (1, 4, 2, 3)),
            _g_descriptor(SolutionKind.MEIJER_G20, a, (2, 3, 1, 4)),
            _series_descriptor(a, 2),
            _series_descriptor(a, 3),
        )
        return BasisSelection(CaseTag.TWO_LINES, cls, sols)
    if nl == 0 and np_ == 2:
        return BasisSelection(
            CaseTag.TWO_PARABOLAS, cls, None,
            note="membership pattern (two parabolas, no line) has no published "
                 "fundamental-system display; descriptors withheld")
    raise AssertionError(f"impossible membership pattern: {nl} lines, {np_} parabolas")


# -- series evaluation and residuals -----------------------------------------------


def _check_parameters(params: Sequence, tol: float = 1e-9):
    for p in params:
        p = complex(p)
        if abs(p.imag) < tol:
            nearest = round(p.real)
            if nearest <= 0 and abs(p.real - nearest) < tol:
                raise ResonanceError(
                    f"series parameter {p} is a nonpositive integer; "
                    "use select_fundamental_system for a valid basis")


def eval_0F3(p1, p2, p3, z, tol: float = 1e-20, max_terms: int = 10 ** 6):
    """Truncated hypergeometric series sum z^k / ((p1)_k (p2)_k (p3)_k k!).

    Stops once a geometric ratio bound certifies the dropped tail is at most
    tol in absolute value; raises if the term budget is exhausted first.
    Nonpositive-integer parameters are rejected (the series degenerates).
    """
    _check_parameters((p1, p2, p3))
    prec = max(96, int(-math.log2(tol)) + 64)
    with mp.workprec(prec):
        p1, p2, p3, z = _mpc_of(p1), _mpc_of(p2), _mpc_of(p3), _mpc_of(z)
        # |p + k| grows monotonically once k exceeds -Re p, making the term
        # ratio decreasing and the geometric tail bound valid
        k_safe = max(8, 2 + math.ceil(max(0.0, -min(p.real for p in (p1, p2, p3)))))
        total = mp.mpc(1)
        term = mp.mpc(1)
        k = 0
        while k < max_terms:
            denom = (p1 + k) * (p2 + k) * (p3 + k) * (k + 1)
            if denom == 0:
                raise ResonanceError("series recurrence hit a zero denominator")
            term = term * z / denom
            total += term
            k += 1
            if k < k_safe:
                continue
            ratio = abs(z) / abs((p1 + k) * (p2 + k) * (p3 + k) * (k + 1))
            if ratio < 0.5 and abs(term) * ratio / (1 - ratio) < tol and abs(term) < tol:
                return total
        raise ResonanceError(f"series did not certify its tail within {max_terms} terms")


def ode_defect(sel: BasisSelection, index: int, c1, c2, lam, r,
               tol: float = 1e-20):
    """(tau y - lambda y)(r) for series member `index` (1-based), as mpc.

    The truncated series is differentiated term by term: the operator maps
    the monomial r^s to E(c1, c2; s) r^(s-4) exactly, where E is the
    indicial quartic, so no finite differences enter.  G-function members
    are rejected (no numeric evaluator in scope).
    """
    if sel.solutions is None:
        raise ResonanceError("the selected case carries no descriptors")
    desc = sel.solutions[index - 1]
    if desc.kind is not SolutionKind.SERIES_F03:
        raise ResonanceError("residual evaluation supports series members only")
    if not float(r) > 0:
        raise ValueError("need r > 0")
    _check_parameters(desc.parameters)
    quartic = euler_quartic(c1, c2)
    prec = max(START_BITS, int(-math.log2(tol)) + 80)
    # re-derive the exponents at working precision; the descriptor stores
    # them as doubles, which would floor the residual near 1e-15
    hi = quartic_roots_closed_form(EulerParams(c1=as_fraction(c1), c2=as_fraction(c2)),
                                   precision_bits=prec)
    with mp.workprec(prec):
        lam_mp = _mpc_of(lam)
        r_mp = _mpf_of(r)
        alpha = min(hi, key=lambda w: abs(w - mp.mpc(desc.exponent)))
        others = sorted((w for w in hi if w is not alpha),
                        key=lambda w: (float(w.real), float(w.imag)))
        ps = [1 + (alpha - w) / 4 for w in others]
        x = lam_mp * r_mp ** 4 / 256
        k_safe = max(8, 2 + math.ceil(max(0.0, -min(float(p.real) for p in ps))))
        # u_k x^k, with tau(r^(alpha+4k)) = E(alpha + 4k) r^(alpha+4k-4)
        op_sum = mp.mpc(0)    # sum u_k x^k E(alpha+4k) r^(-4)
        fn_sum = mp.mpc(0)    # sum u_k x^k
        coeff = mp.mpc(1)
        k = 0
        while True:
            s = alpha + 4 * k
            op_sum += coeff * quartic.eval_mp(mp, s) / r_mp ** 4
            fn_sum += coeff
            nxt = coeff * x / ((ps[0] + k) * (ps[1] + k) * (ps[2] + k) * (k + 1))
            k += 1
            if k >= k_safe and abs(nxt) < tol:
                break
            if k > 10 ** 6:
                raise ResonanceError("series truncation failed to converge")
            coeff = nxt
        return r_mp ** mp.mpc(alpha) * (op_sum - lam_mp * fn_sum)


def ode_residual(sel: BasisSelection, index: int, c1, c2, lam, r,
                 tol: float = 1e-20) -> float:
    """|tau y - lambda y| at radius r for series member `index` (1-based)."""
    return float(abs(ode_defect(sel, index, c1, c2, lam, r, tol=tol)))


# -- exact incidence identities ------------------------------------------------------


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
    * P_h and P_k (h != k) meet at c1 = 5/4 - 4h^2 - 4k^2;
    * L_h and P_k meet at c1 = 5/4 - 4h^2 +- 8hk - 8k^2.

    Everything is checked in exact rational arithmetic.
    """
    out = []
    for k in range(k_max + 1):
        diff = _parabola_poly(0) - _line_poly(k)
        a2, a1, a0 = diff.descending()
        disc = a1 * a1 - 4 * a2 * a0
        contact = -a1 / (2 * a2)
        ok = disc == 0 and contact == line_pivot(k)
        out.append(GeometryIdentity(
            f"L_{k} tangent to P_0", ok, f"contact c1 = {contact}"))
    for k in range(k_max + 1):
        diff = _parabola_poly(k) - _line_poly(0)
        a2, a1, a0 = diff.descending()
        disc = a1 * a1 - 4 * a2 * a0
        contact = -a1 / (2 * a2)
        ok = disc == 0 and contact == parabola_pivot(k)
        out.append(GeometryIdentity(
            f"P_{k} tangent to L_0", ok, f"contact c1 = {contact}"))
    for h in range(h_max + 1):
        for k in range(k_max + 1):
            if h == k:
                continue
            diff = _line_poly(h) - _line_poly(k)
            if diff.degree != 1:
                out.append(GeometryIdentity(f"L_{h} meets L_{k}", False, "not linear"))
                continue
            root = -diff.coeffs[0] / diff.coeffs[1]
            expect = Fraction(5, 4) - 2 * h * h - 2 * k * k
            out.append(GeometryIdentity(
                f"L_{h} meets L_{k}", root == expect, f"c1 = {root}"))
            diffp = _parabola_poly(h) - _parabola_poly(k)
            rootp = -diffp.coeffs[0] / diffp.coeffs[1]
            expectp = Fraction(5, 4) - 4 * h * h - 4 * k * k
            out.append(GeometryIdentity(
                f"P_{h} meets P_{k}", rootp == expectp, f"c1 = {rootp}"))
    for h in range(h_max + 1):
        for k in range(k_max + 1):
            diff = _parabola_poly(k) - _line_poly(h)
            plus = Fraction(5, 4) - 4 * h * h + 8 * h * k - 8 * k * k
            minus = Fraction(5, 4) - 4 * h * h - 8 * h * k - 8 * k * k
            ok = diff(plus) == 0 and diff(minus) == 0
            out.append(GeometryIdentity(
                f"L_{h} meets P_{k}", ok, f"c1 in {{{plus}, {minus}}}"))
    return out


def locus_samples(line_k_max: int = 5, parabola_k_max: int = 3,
                  c1_lo: Fraction = Fraction(-30), c1_hi: Fraction = Fraction(5),
                  samples: int = 141) -> list:
    """Point samples of the locus families with a closed-form ESA flag.

    Rows: (locus_id, k, c1, c2, esa_flag); used for plotting the resonance
    geometry on top of the ESA region of the two-parameter family.
    """
    from .esa import euler_esa_closed_form

    c1_lo, c1_hi = as_fraction(c1_lo), as_fraction(c1_hi)
    step = (c1_hi - c1_lo) / (samples - 1)
    rows = []
    for k in range(line_k_max + 1):
        for i in range(samples):
            c1 = c1_lo + step * i
            c2 = line_c2(c1, k)
            rows.append(("line", k, c1, c2, euler_esa_closed_form(c1, c2)))
    for k in range(parabola_k_max + 1):
        for i in range(samples):
            c1 = c1_lo + step * i
            c2 = parabola_c2(c1, k)
            rows.append(("parabola", k, c1, c2, euler_esa_closed_form(c1, c2)))
    return rows
