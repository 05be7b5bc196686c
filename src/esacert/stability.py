"""Hurwitz matrices, exact axis-root detection and half-plane root counting.

All counting is relative to the vertical line Re z = -1/2 (the decision line
for essential self-adjointness of the radial operators).

Half-plane counting is exact and uses no floating point (a Routh-Hurwitz
count by Cauchy index; Gantmacher, Theory of Matrices II, ch. XV).  For each
square-free factor f of the input polynomial, write f(-1/2 + it) =
P(t) + i Q(t) with P, Q in Q[t]:

* g = gcd(P, Q) holds the roots of f that are reflected into roots of f
  through -1/2.  Its real roots are the axis roots, counted by Sturm; its
  non-real roots come in pairs with one root strictly left of the line and
  one strictly right;
* the remaining roots are off the line and split by the Cauchy index of
  Q/P (or P/Q for odd degree), read off the signed remainder sequence of
  (P, Q) at +-infinity.

Certified numeric root disks (esacert.roots) never enter a count; they
serve the numeric trajectory output and the tests.

The Hurwitz matrix convention is H[i][j] = a_{2j-i} (1-based), with a_0 the
leading coefficient of the centered polynomial and a_k = 0 outside 0..deg.
The full Hurwitz determinant vanishes whenever some pair of roots of the
centered polynomial sums to zero (Orlando), which makes its real roots in
the coupling the complete list of boundary candidates for the decision
problem; candidates are always confirmed by counting, never trusted alone.
The determinant in the coupling c is assembled as (c - r) times a degree
m-1 cofactor given by Orlando's formula, a resultant of the even and odd
parts of the centered polynomial (see hurwitz_assemble); the 2m x 2m
matrix is only evaluated once, at one rational c, as a check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from .exact import (AlgebraicReal, PolynomialMatrix, RationalPolynomial,
                    as_fraction, cauchy_index, char_poly, count_real_roots,
                    det_fractions, discriminant, exact_real_roots, poly_gcd,
                    square_free_decomposition, sturm_isolate)
from .indicial import euler_quartic, indicial_base

CRITICAL_RE = Fraction(-1, 2)


# -- Hurwitz assembly ---------------------------------------------------------


def hurwitz_matrix(descending_coeffs) -> list:
    """Rows of the Hurwitz matrix for the given descending coefficients.

    Entry (i, j) (1-based) is a_{2j-i}; works for numeric (Fraction) and
    symbolic (RationalPolynomial) coefficient entries alike.
    """
    n = len(descending_coeffs) - 1
    zero = (RationalPolynomial.zero()
            if isinstance(descending_coeffs[0], RationalPolynomial) else Fraction(0))

    def a(k: int):
        return descending_coeffs[k] if 0 <= k <= n else zero

    return [[a(2 * j - i) for j in range(1, n + 1)] for i in range(1, n + 1)]


def euler_hurwitz_matrix(c1, c2=None):
    """Hurwitz matrix of the centered indicial quartic.

    With c2 given: a numeric 4x4 Fraction matrix.  With c2 = None: a
    PolynomialMatrix in c2 (which enters the constant coefficient only).
    """
    c1 = as_fraction(c1)
    base = euler_quartic(c1, 0).shift(CRITICAL_RE)
    if c2 is not None:
        shifted = euler_quartic(c1, c2).shift(CRITICAL_RE)
        return hurwitz_matrix(shifted.descending())
    desc = list(base.descending())
    entries = [RationalPolynomial.constant(c) for c in desc]
    entries[-1] = RationalPolynomial((desc[-1], 1))  # constant coefficient + c2
    return PolynomialMatrix(hurwitz_matrix(entries))


@dataclass(frozen=True)
class HurwitzData:
    """Hurwitz data of one radial operator with the coupling left symbolic.

    The data depend on (m, n, l) only through nu = n + 2l.
    """

    m: int
    nu: int
    shifted_base: RationalPolynomial      # coupling-free centered polynomial
    det_in_c: RationalPolynomial
    linear_root: Fraction                 # the rational root of det_in_c
    q_factor: RationalPolynomial          # degree m-1 cofactor


def _orlando_sign(m: int) -> int:
    """(-1)^(m(m-1)/2), the sign in Orlando's formula for the cofactor."""
    return -1 if (m * (m - 1) // 2) % 2 else 1


def _multiplication_matrix(a: RationalPolynomial, mod: RationalPolynomial) -> list:
    """Rows of the matrix of multiplication by a on Q[u]/(mod), in the basis
    1, u, ..., u^(d-1) with d = deg mod (column j holds a * u^j mod mod)."""
    d = mod.degree
    u = RationalPolynomial.variable()
    cols = []
    r = a % mod
    for _ in range(d):
        cols.append([r.coefficient(i) for i in range(d)])
        r = (r * u) % mod
    return [[col[i] for col in cols] for i in range(d)]


def hurwitz_assemble(m: int, n: int, l: int) -> HurwitzData:
    """Hurwitz determinant in c of the centered polynomial shifted(w) + c,
    with its exact split det = (c - r) * q_factor.

    r = -shifted(0) is the boundary candidate at which z = -1/2 itself is a
    root: the last column of the Hurwitz matrix holds only the constant
    coefficient c - r.  The cofactor comes from Orlando's formula
    (Gantmacher, Theory of Matrices II, XV.7) instead of a 2m x 2m
    determinant over Q[c]: with shifted(w) = E0(w^2) + w O(w^2) and
    deg O = m - 1,

        q_factor = (-1)^(m(m-1)/2) * lc(O)^m * prod_{O(u) = 0} (c + E0(u)),

    and the product is det(c I - M), M the matrix of multiplication by -E0
    on Q[u]/(O).  One probe compares det_in_c with the numeric 2m x 2m
    Hurwitz determinant at c = r + 1; a mismatch is a construction bug and
    raises AssertionError.
    """
    nu = n + 2 * l
    shifted = indicial_base(m, nu).shift(CRITICAL_RE)
    even, odd = shifted.even_odd_split()
    q_factor = (char_poly(_multiplication_matrix(-even, odd))
                * (_orlando_sign(m) * odd.leading ** m))
    linear_root = -shifted(Fraction(0))
    det = RationalPolynomial((-linear_root, 1)) * q_factor
    probe = linear_root + 1
    desc = list(shifted.descending())
    desc[-1] += probe
    if det(probe) != det_fractions(hurwitz_matrix(desc)):
        raise AssertionError("Hurwitz cofactor failed the validation probe "
                             "against the 2m x 2m determinant")
    return HurwitzData(m=m, nu=nu, shifted_base=shifted, det_in_c=det,
                       linear_root=linear_root, q_factor=q_factor)


# -- exact axis-root detection ---------------------------------------------------


def critical_line_parts(p: RationalPolynomial) -> tuple:
    """Real and imaginary parts of p(-1/2 + i t) as polynomials in t."""
    b = p.shift(CRITICAL_RE).coeffs  # p(-1/2 + it) = sum b_k (it)^k
    re, im = [], []
    for k, c in enumerate(b):
        if k % 2 == 0:
            sign = -1 if (k // 2) % 2 else 1
            while len(re) <= k:
                re.append(Fraction(0))
            re[k] = sign * c
        else:
            sign = -1 if (k // 2) % 2 else 1
            while len(im) <= k:
                im.append(Fraction(0))
            im[k] = sign * c
    return RationalPolynomial(re), RationalPolynomial(im)


def axis_roots_exact(p: RationalPolynomial) -> list:
    """All real t with p(-1/2 + i t) = 0, as exact AlgebraicReal values.

    Substitutes z = -1/2 + i t, splits into real and imaginary parts P, Q
    in Q[t]; the axis parameters are the real roots of gcd(P, Q).
    """
    P, Q = critical_line_parts(p)
    if P.is_zero and Q.is_zero:
        raise ValueError("zero polynomial")
    g = poly_gcd(P, Q)
    if g.degree < 1:
        return []
    return [v if isinstance(v, AlgebraicReal) else AlgebraicReal.from_rational(v)
            for v in exact_real_roots(g)]


# -- half-plane counting -----------------------------------------------------------


@dataclass(frozen=True)
class HalfPlaneCount:
    left: int    # Re < -1/2
    axis: int    # Re = -1/2
    right: int   # Re > -1/2
    exact: bool = True

    @property
    def degree(self) -> int:
        return self.left + self.axis + self.right

    def to_json(self) -> dict:
        return {"left": self.left, "axis": self.axis, "right": self.right,
                "exact": self.exact}


def _count_square_free(f: RationalPolynomial) -> tuple:
    """(left, axis, right) for a square-free polynomial, exactly.

    With f(-1/2 + it) = P(t) + i Q(t) and g = gcd(P, Q): the real roots of g
    are the axis roots (simple, since f is square-free), and its non-real
    roots belong to root pairs z, -1 - z reflected through -1/2, one strictly
    left of the line and one strictly right.  The other deg f - deg g roots
    split by the argument principle along the line: left - right is
    -Ind(Q/P) when deg P >= deg Q (f of even degree) and +Ind(P/Q) when
    deg Q > deg P (odd degree).  P or Q may vanish identically; the index
    of 0 over the other part is 0.
    """
    P, Q = critical_line_parts(f)
    g = poly_gcd(P, Q)
    axis = count_real_roots(g)
    pairs, odd_pairs = divmod(g.degree - axis, 2)
    if P.degree >= Q.degree:
        diff = -cauchy_index(P, Q)
    else:
        diff = cauchy_index(Q, P)
    rest = f.degree - g.degree
    if odd_pairs or (rest - diff) % 2 or abs(diff) > rest:
        raise AssertionError("Cauchy index inconsistent with the degree")
    return pairs + (rest + diff) // 2, axis, pairs + (rest - diff) // 2


def halfplane_count(p: RationalPolynomial) -> HalfPlaneCount:
    """Exact root count of p relative to Re z = -1/2, with multiplicity."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return HalfPlaneCount(0, 0, 0)
    left = axis = right = 0
    for f, mult in square_free_decomposition(p):
        fl, fa, fr = _count_square_free(f)
        left += mult * fl
        axis += mult * fa
        right += mult * fr
    return HalfPlaneCount(left=left, axis=axis, right=right, exact=True)


# -- quartic real-root classification ------------------------------------------------


class QuarticRootClass(Enum):
    TWO_REAL_TWO_IMAGINARY = "two_real_two_imaginary"
    NO_REAL_ROOTS = "no_real_roots"
    FOUR_REAL = "four_real"
    OTHER = "other"


@dataclass(frozen=True)
class QuarticInvariants:
    disc: Fraction
    pi: Fraction
    lam: Fraction
    real_root_class: QuarticRootClass

    def signs(self) -> tuple:
        s = lambda x: (x > 0) - (x < 0)
        return s(self.disc), s(self.pi), s(self.lam)

    def to_json(self) -> dict:
        return {"disc": str(self.disc), "pi": str(self.pi), "lambda": str(self.lam),
                "class": self.real_root_class.value}


def quartic_classify(q: RationalPolynomial) -> QuarticInvariants:
    """Discriminant-based real-root classification of a rational quartic.

    disc < 0 forces exactly two real roots; disc > 0 together with
    pi = 8ac - 3b^2 >= 0 or lam = 64a^3 e - 16a^2 bd - 16a^2 c^2 + 16ab^2 c - 3b^4 >= 0
    forces none.  Any remaining pattern is settled by an exact Sturm count
    (with multiplicity).
    """
    if q.degree != 4:
        raise ValueError("need degree exactly 4")
    a, b, c, d, e = q.descending()
    disc = discriminant(q)
    pi = 8 * a * c - 3 * b * b
    lam = (64 * a ** 3 * e - 16 * a ** 2 * b * d - 16 * a ** 2 * c ** 2
           + 16 * a * b ** 2 * c - 3 * b ** 4)
    if disc < 0:
        cls = QuarticRootClass.TWO_REAL_TWO_IMAGINARY
    elif disc > 0 and (pi >= 0 or lam >= 0):
        cls = QuarticRootClass.NO_REAL_ROOTS
    else:
        with_mult = sum(m for _iv, m in sturm_isolate(q))
        cls = {0: QuarticRootClass.NO_REAL_ROOTS,
               2: QuarticRootClass.TWO_REAL_TWO_IMAGINARY,
               4: QuarticRootClass.FOUR_REAL}.get(with_mult, QuarticRootClass.OTHER)
    return QuarticInvariants(disc=disc, pi=pi, lam=lam, real_root_class=cls)


def disc_q3(n: int, l: int) -> Fraction:
    """Discriminant of the quadratic Hurwitz cofactor of the sixth-order family."""
    q = hurwitz_assemble(3, n, l).q_factor
    if q.degree != 2:
        raise AssertionError("cofactor of the m=3 family must be quadratic")
    a2, a1, a0 = q.descending()
    return a1 * a1 - 4 * a2 * a0
