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
parts of the centered polynomial (see hurwitz_assemble).  It is built in
integers: the centered polynomial is (-1)^m 4^-m times an integer
polynomial A, the substitution u = v/a (a the leading coefficient of A's
odd part) makes that odd part monic, and the cofactor is the integer
Berkowitz characteristic polynomial of a multiplication matrix over Z.
Its coefficients are kept as integer numerators over one common
denominator; HurwitzData holds them, A and the numerator of r, and builds
its Fraction polynomials only when a caller reads them.
The 2m x 2m matrix is only evaluated once, at one rational c, as a check:
its determinant, the last leading minor of the fraction-free Routh scheme
(hurwitz_minors, O(m^2) ring operations; integer Bareiss only when a Routh
divisor vanishes), is compared, in integers, with an integer Horner value
of the cofactor.  quartic_classify takes its invariants on cleared integer
coefficients, and disc_q3 on the cofactor's numerators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from .exact import (RationalPolynomial, bareiss_det, char_poly_coeffs,
                    count_real_roots, exact_real_roots, gcd_and_cauchy_index,
                    poly_gcd, real_root_factors, square_free_decomposition)
from .exact.poly import clear_denominators
from .indicial import euler_quartic, indicial_product, indicial_scale

CRITICAL_RE = Fraction(-1, 2)


# -- Hurwitz assembly ---------------------------------------------------------


def hurwitz_matrix(descending_coeffs) -> list:
    """Rows of the Hurwitz matrix for the given descending coefficients.

    Entry (i, j) (1-based) is a_{2j-i}, and 0 outside 0..n.
    """
    n = len(descending_coeffs) - 1
    padded = [0] * n + list(descending_coeffs) + [0] * n   # a_k at k + n
    return [padded[n + 2 - i:3 * n + 1 - i:2] for i in range(1, n + 1)]


def hurwitz_minors(desc) -> list | None:
    """Leading principal minors Delta_1..Delta_n of hurwitz_matrix(desc), for
    descending integer coefficients, by the fraction-free Routh scheme.

    Routh's array (Gantmacher, Theory of Matrices II, XV.6) starts from the
    rows (a0, a2, a4, ...) and (a1, a3, ...); scaled by Sylvester's identity
    as in Bareiss's elimination, each further row is built from the last
    two, y and the one before it x, as

        (y[0] x[j + 1] - x[0] y[j + 1]) // Delta_(k-3)

    with Delta_-1 = Delta_0 = 1, every division exact, and row k leading
    with Delta_k.  That is O(n^2) ring operations for all n minors.  Returns
    None when a divisor Delta_1..Delta_(n-3) vanishes; the minors are then
    left to a determinant.
    """
    n = len(desc) - 1
    if n < 1:
        return []
    width = n // 2 + 2
    x = list(desc[0::2]) + [0] * (width - len(desc[0::2]))
    y = list(desc[1::2]) + [0] * (width - len(desc[1::2]))
    minors = [1, 1, y[0]]               # Delta_-1, Delta_0, Delta_1
    for k in range(2, n + 1):
        div = minors[k - 2]             # Delta_(k-3)
        if not div:
            return None
        p, q = y[0], x[0]
        x, y = y, [(p * x[j] - q * y[j]) // div for j in range(1, width)] + [0]
        minors.append(y[0])
    return minors[2:]


def euler_hurwitz_matrix(c1, c2) -> list:
    """Numeric 4x4 Hurwitz matrix of the centered indicial quartic."""
    shifted = euler_quartic(c1, c2).shift(CRITICAL_RE)
    return hurwitz_matrix(shifted.descending())


@dataclass(frozen=True)
class HurwitzData:
    """Hurwitz data of one radial operator with the coupling left symbolic.

    The data depend on (m, n, l) only through nu = n + 2l.  They are held in
    integers, ascending: the centered polynomial is (-1)^m 4^-m big_a, the
    cofactor is q_nums over den, and r = r_num / 4^m.  The Fraction views
    below are built on first use and then kept.
    """

    m: int
    nu: int
    big_a: tuple
    q_nums: tuple
    den: int
    r_num: int

    @functools.cached_property
    def shifted_base(self) -> RationalPolynomial:   # coupling-free, centered
        scale = indicial_scale(self.m)
        return RationalPolynomial(scale * c for c in self.big_a)

    @functools.cached_property
    def q_factor(self) -> RationalPolynomial:       # degree m-1 cofactor
        return RationalPolynomial(Fraction(x, self.den) for x in self.q_nums)

    @functools.cached_property
    def linear_root(self) -> Fraction:              # the rational root r
        return Fraction(self.r_num, 4 ** self.m)

    @functools.cached_property
    def det_in_c(self) -> RationalPolynomial:
        """(c - r) q_factor, the product (4^m c - r_num) q_nums over 4^m den."""
        four_m = 4 ** self.m
        nums = [0] + [four_m * x for x in self.q_nums]
        for k, x in enumerate(self.q_nums):
            nums[k] -= self.r_num * x
        return RationalPolynomial(Fraction(x, four_m * self.den) for x in nums)


def _orlando_sign(m: int) -> int:
    """(-1)^(m(m-1)/2), the sign in Orlando's formula for the cofactor."""
    return -1 if (m * (m - 1) // 2) % 2 else 1


def _reduce_monic(p: list, mod: list) -> list:
    """p mod a monic mod, as ascending integer lists with len(p) > deg mod;
    the remainder has deg mod coefficients."""
    d = len(mod) - 1
    p = list(p)
    for k in range(len(p) - 1, d - 1, -1):
        c = p[k]
        if c:
            for i in range(d):
                p[k - d + i] -= c * mod[i]
    return p[:d]


def hurwitz_assemble(m: int, n: int, l: int) -> HurwitzData:
    """Hurwitz determinant in c of the centered polynomial shifted(w) + c,
    with its exact split det = (c - r) * q_factor.

    r = -shifted(0) is the boundary candidate at which z = -1/2 itself is a
    root: the last column of the Hurwitz matrix holds only the constant
    coefficient c - r.  The cofactor comes from Orlando's formula
    (Gantmacher, Theory of Matrices II, XV.7) instead of a 2m x 2m
    determinant over Q[c]: with shifted(w) = E0(w^2) + w O(w^2) and
    deg O = m - 1,

        q_factor = (-1)^(m(m-1)/2) * lc(O)^m * prod_{O(u) = 0} (c + E0(u)).

    The product is taken in integers.  shifted = s A with A in Z[w] and
    s = (-1)^m 4^-m (see indicial_product); split A = Ae(w^2) + w Ao(w^2)
    and let a = lc(Ao).  The substitution u = v / a makes
    Ao~(v) = a^(m-2) Ao(v/a) monic in Z[v] and Ae~(v) = a^m Ae(v/a)
    integer, with the roots v = a u.  So multiplication by Ae~ on
    Z[v]/(Ao~) is an integer (m-1) x (m-1) matrix N, chi(X) = det(X I + N)
    comes from the integer Berkowitz, and

        q_factor(c) = (-1)^(m(m-1)/2) s^(2m-1) a^(m-m(m-1)) chi(a^m c / s).

    Its coefficient k, (-1)^(m(m-1)/2) s^(2m-1-k) a^(m(k-m+2)) chi_k, is
    kept as an integer numerator over the one denominator
    D = 4^(m(2m-1)) |a|^e, e = max(0, m(m-2)) (for m = 1 the power of a is
    positive), and r = r_num / 4^m.  No Fraction is built here: HurwitzData
    holds A, these numerators, D and r_num.  One probe compares
    q_factor(r + 1) = det_in_c(r + 1), as an integer Horner value
    cross-multiplied with its denominator, with the determinant of the
    2m x 2m Hurwitz matrix of (-1)^m (A - A(0)) + 4^m, which is 4^(2m^2)
    times the numeric determinant there; a mismatch is a construction bug
    and raises AssertionError.  That determinant is the
    last minor Delta_2m of hurwitz_minors, or the integer Bareiss
    determinant of the matrix when a Routh divisor vanishes.
    """
    nu = n + 2 * l
    big_a = indicial_product(m, nu, CRITICAL_RE)
    sign, four_m = (-1) ** m, 4 ** m
    a_even, a_odd = big_a[0::2], big_a[1::2]
    a = a_odd[-1]
    # Ao~, and -Ae~ mod Ao~: the coefficient of v^k of Ao (of Ae) times
    # a^(m-2-k) (a^(m-k)); column j of -N holds -Ae~ v^j mod Ao~
    mod = [c * a ** (m - 2 - k) for k, c in enumerate(a_odd[:-1])] + [1]
    col = _reduce_monic([-c * a ** (m - k) for k, c in enumerate(a_even)], mod)
    cols = []
    for _ in range(m - 1):
        cols.append(col)
        col = _reduce_monic([0] + col, mod)
    chi = char_poly_coeffs([list(row) for row in zip(*cols)])   # det(X I + N)
    # numerator k of q_factor over D: (-1)^(m(m-1)/2) (-1)^m sgn(a)^e
    # a^(m(2-m)+e) ((-4a)^m)^k chi_k, as (-1)^(m(2m-1-k)) = (-1)^m (-1)^(mk)
    e = max(0, m * (m - 2))
    den = 4 ** (m * (2 * m - 1)) * abs(a) ** e
    factor = _orlando_sign(m) * sign * (-1 if a < 0 else 1) ** e * a ** (m * (2 - m) + e)
    step = (-4 * a) ** m
    q_nums = []
    for x in chi:
        q_nums.append(factor * x)
        factor *= step
    r_num = -sign * big_a[0]            # r = -s A(0) = r_num / 4^m
    # q_factor(t / 4^m) 4^(m(m-1)) D at t = r_num + 4^m, by homogeneous Horner
    t, value, power = r_num + four_m, 0, 1
    for x in reversed(q_nums):
        value = value * t + x * power
        power *= four_m
    probe = [sign * c for c in reversed(big_a[1:])] + [four_m]
    minors = hurwitz_minors(probe)
    full = minors[-1] if minors is not None else bareiss_det(hurwitz_matrix(probe))
    if 4 ** (2 * m * m) * value != full * den * four_m ** (m - 1):
        raise AssertionError("Hurwitz cofactor failed the validation probe "
                             "against the 2m x 2m determinant")
    return HurwitzData(m=m, nu=nu, big_a=tuple(big_a), q_nums=tuple(q_nums),
                       den=den, r_num=r_num)


# -- exact axis-root detection ---------------------------------------------------


def critical_line_parts(p: RationalPolynomial) -> tuple:
    """Real and imaginary parts of p(-1/2 + i t) as polynomials in t."""
    b = p.shift(CRITICAL_RE).coeffs  # p(-1/2 + it) = sum b_k (it)^k
    re, im = [0] * len(b), [0] * len(b)
    for k, c in enumerate(b):
        # i^k is 1, i, -1, -i as k is 0, 1, 2, 3 mod 4
        (im if k % 2 else re)[k] = -c if k % 4 >= 2 else c
    return RationalPolynomial(re), RationalPolynomial(im)


def axis_roots_exact(p: RationalPolynomial) -> list:
    """All real t with p(-1/2 + i t) = 0, sorted: a Fraction for a rational
    t, an AlgebraicReal otherwise.

    Substitutes z = -1/2 + i t, splits into real and imaginary parts P, Q
    in Q[t]; the axis parameters are the real roots of gcd(P, Q).
    """
    P, Q = critical_line_parts(p)
    if P.is_zero and Q.is_zero:
        raise ValueError("zero polynomial")
    g = poly_gcd(P, Q)
    if g.degree < 1:
        return []
    return exact_real_roots(g)


# -- half-plane counting -----------------------------------------------------------


@dataclass(frozen=True)
class HalfPlaneCount:
    left: int    # Re < -1/2
    axis: int    # Re = -1/2
    right: int   # Re > -1/2

    @property
    def degree(self) -> int:
        return self.left + self.axis + self.right

    def to_json(self) -> dict:
        return {"left": self.left, "axis": self.axis, "right": self.right,
                "exact": True}


def _count_square_free(f: RationalPolynomial) -> tuple:
    """(left, axis, right) for a square-free polynomial, exactly.

    With f(-1/2 + it) = P(t) + i Q(t) and g = gcd(P, Q): the real roots of g
    are the axis roots (simple, since f is square-free), and its non-real
    roots belong to root pairs z, -1 - z reflected through -1/2, one strictly
    left of the line and one strictly right.  The other deg f - deg g roots
    split by the argument principle along the line: left - right is
    -Ind(Q/P) when deg P >= deg Q (f of even degree) and +Ind(P/Q) when
    deg Q > deg P (odd degree).  P or Q may vanish identically; the index
    of 0 over the other part is 0.  g and the index come from one signed
    remainder sequence.
    """
    P, Q = critical_line_parts(f)
    if P.degree >= Q.degree:
        g, index = gcd_and_cauchy_index(P, Q)
        diff = -index
    else:
        g, diff = gcd_and_cauchy_index(Q, P)
    axis = count_real_roots(g)
    pairs, odd_pairs = divmod(g.degree - axis, 2)
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
    return HalfPlaneCount(left=left, axis=axis, right=right)


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
    (with multiplicity).  The invariants are taken on the integer
    coefficients L q, L the least common denominator; they are homogeneous
    of degrees 6, 2 and 4, so each is one Fraction over that power of L.
    """
    if q.degree != 4:
        raise ValueError("need degree exactly 4")
    (a, b, c, d, e), den = clear_denominators(q.descending())
    # disc = (4 I^3 - J^2) / 27 with the invariants I and J of the quartic
    i = 12 * a * e - 3 * b * d + c * c
    j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * e * b * b - 2 * c ** 3
    den2 = den * den
    disc = Fraction((4 * i ** 3 - j * j) // 27, den2 ** 3)
    pi = Fraction(8 * a * c - 3 * b * b, den2)
    lam = Fraction(64 * a ** 3 * e - 16 * a * a * b * d - 16 * a * a * c * c
                   + 16 * a * b * b * c - 3 * b ** 4, den2 * den2)
    if disc < 0:
        cls = QuarticRootClass.TWO_REAL_TWO_IMAGINARY
    elif disc > 0 and (pi >= 0 or lam >= 0):
        cls = QuarticRootClass.NO_REAL_ROOTS
    else:
        with_mult = sum(m * len(ivs) for _f, m, ivs in real_root_factors(q))
        cls = {0: QuarticRootClass.NO_REAL_ROOTS,
               2: QuarticRootClass.TWO_REAL_TWO_IMAGINARY,
               4: QuarticRootClass.FOUR_REAL}.get(with_mult, QuarticRootClass.OTHER)
    return QuarticInvariants(disc=disc, pi=pi, lam=lam, real_root_class=cls)


def disc_q3(n: int, l: int) -> Fraction:
    """Discriminant of the quadratic Hurwitz cofactor of the sixth-order
    family, a1^2 - 4 a2 a0 taken on its integer numerators over den^2."""
    hd = hurwitz_assemble(3, n, l)
    if len(hd.q_nums) != 3 or not hd.q_nums[2]:
        raise AssertionError("cofactor of the m=3 family must be quadratic")
    a0, a1, a2 = hd.q_nums
    return Fraction(a1 * a1 - 4 * a2 * a0, hd.den * hd.den)
