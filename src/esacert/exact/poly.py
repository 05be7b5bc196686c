"""Exact univariate polynomial algebra over the rationals.

Coefficients are ``fractions.Fraction`` values stored densely in ascending
order (index = power).  Everything in this module is exact; no floating
point enters any code path.  Provided machinery:

* ring arithmetic, Taylor shift ``p(z + a)`` (in integers: with p = P/L
  and a = h/k, the O(d^2) synthetic-division loop shifts
  R_j = P_j k^(d-j) by h), even/odd splitting,
* exact Euclidean division; one signed remainder sequence per polynomial
  pair (primitive, sign-preserving; the only remainder loop) gives its gcd
  and Cauchy index, and for (p, p') the Sturm chain; Yun square-free
  decomposition; `real_root_factors`, the one place that isolates real
  roots in rational intervals; counting, bisection refinement,
* fraction-free Bareiss determinants of integer matrices, characteristic
  polynomials (Berkowitz, over the integers or Q),
* complete rational-root detection (rational root theorem on refined
  isolating intervals, each candidate tested by the integer sign of the
  primitive polynomial).

Sign evaluation of an integer polynomial at a rational point is done with
integer arithmetic only (clearing the denominator), which keeps Sturm
bisection cheap even when coefficients have hundreds of digits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence


def as_fraction(x) -> Fraction:
    """Coerce ints, strings and Fractions to Fraction (floats are rejected)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class RationalPolynomial:
    """Dense univariate polynomial over Fraction, ascending coefficients.

    Immutable.  The zero polynomial has ``coeffs == ()`` and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

    def __reduce__(self):
        return (RationalPolynomial, (self.coeffs,))

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "RationalPolynomial":
        return cls((1,))

    @classmethod
    def variable(cls) -> "RationalPolynomial":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "RationalPolynomial":
        return cls((c,))

    @classmethod
    def from_roots(cls, roots: Sequence) -> "RationalPolynomial":
        p = cls.one()
        for r in roots:
            p = p * cls((-as_fraction(r), 1))
        return p

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def descending(self) -> tuple:
        """Coefficients from the leading one down to the constant term."""
        return tuple(reversed(self.coeffs))

    # -- ring arithmetic ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            other = RationalPolynomial.constant(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            other = RationalPolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "RationalPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "RationalPolynomial":
        if not isinstance(other, RationalPolynomial):
            c = as_fraction(other)
            return RationalPolynomial(tuple(c * x for x in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RationalPolynomial.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RationalPolynomial":
        if n < 0:
            raise ValueError("negative power")
        result = RationalPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monic(self) -> "RationalPolynomial":
        if self.is_zero:
            return self
        lc = self.leading
        return RationalPolynomial(tuple(c / lc for c in self.coeffs))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int input."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_complex_exact(self, re: Fraction, im: Fraction) -> tuple:
        """Exact evaluation at re + i*im; returns (real, imag) Fractions."""
        ar, ai = Fraction(0), Fraction(0)
        for c in reversed(self.coeffs):
            ar, ai = ar * re - ai * im + c, ar * im + ai * re
        return ar, ai

    # -- calculus and substitutions ------------------------------------------

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def shift(self, a) -> "RationalPolynomial":
        """Taylor shift: returns q with q(z) = p(z + a), exactly.

        With p = P/L for integer P and a = h/k, R_j = P_j k^(d-j) gives
        p(z + a) = R(kz + h)/(L k^d); R is shifted by h with the O(d^2)
        synthetic-division loop on ints, and coefficient j of q is
        R(u + h)_j / (L k^(d-j)).
        """
        a = as_fraction(a)
        d = self.degree
        if d < 1 or not a:
            return self
        h, k = a.numerator, a.denominator
        ints, den = clear_denominators(self.coeffs)
        kpow = [1] * (d + 1)   # kpow[i] = k^i
        for i in range(1, d + 1):
            kpow[i] = kpow[i - 1] * k
        r = [c * kpow[d - j] for j, c in enumerate(ints)]
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                r[j] += h * r[j + 1]
        return RationalPolynomial([Fraction(c, den * kpow[d - j])
                                   for j, c in enumerate(r)])

    def even_odd_split(self) -> tuple:
        """Returns (E, O) with p(z) = E(z^2) + z*O(z^2)."""
        even = RationalPolynomial(self.coeffs[0::2])
        odd = RationalPolynomial(self.coeffs[1::2])
        return even, odd

    # -- division -------------------------------------------------------------

    def __divmod__(self, other: "RationalPolynomial") -> tuple:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv, dd = other.degree, self.degree
        if dd < dv:
            return RationalPolynomial.zero(), self
        quot = [Fraction(0)] * (dd - dv + 1)
        lcv = other.leading
        for k in range(dd - dv, -1, -1):
            c = rem[k + dv] / lcv
            if c:
                quot[k] = c
                for i, oc in enumerate(other.coeffs):
                    rem[k + i] -= c * oc
        return RationalPolynomial(quot), RationalPolynomial(rem[:dv])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divide_exact(self, other: "RationalPolynomial") -> "RationalPolynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    # -- rendering --------------------------------------------------------------

    def __repr__(self):
        if self.is_zero:
            return "RationalPolynomial(0)"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{k}")
        return "RationalPolynomial(" + " + ".join(terms) + ")"


# -- module-level helpers -----------------------------------------------------


def clear_denominators(coeffs: Sequence) -> tuple:
    """(the integers d*c, d) for the least common denominator d of the
    rationals `coeffs`, order kept."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def primitive_coeffs(coeffs: Sequence) -> list:
    """The rationals `coeffs` times the positive rational that makes them
    coprime integers, order kept."""
    ints = clear_denominators(coeffs)[0]
    g = math.gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def primitive_part(p: RationalPolynomial) -> RationalPolynomial:
    """Integer-coefficient polynomial equal to p up to a positive rational factor."""
    if p.is_zero:
        return p
    return RationalPolynomial(primitive_coeffs(p.coeffs))


def _sign_at(int_coeffs: list, num: int, den: int) -> int:
    """Sign of sum(c_k * (num/den)^k) for den > 0, via integer Horner.

    Evaluates p(num/den) * den^deg, which has the same sign.
    """
    d = len(int_coeffs) - 1
    acc = int_coeffs[-1]
    dpow = 1
    for k in range(d - 1, -1, -1):
        dpow *= den
        acc = acc * num + int_coeffs[k] * dpow
    return (acc > 0) - (acc < 0)


def poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd, the last entry of the signed remainder sequence of (a, b);
    gcd(p, 0) = monic(p)."""
    if a.is_zero:
        return b.monic()
    return RationalPolynomial(_signed_remainder_chain(a, b)[-1]).monic()


def square_free_part(p: RationalPolynomial) -> RationalPolynomial:
    """p with all root multiplicities reduced to one (monic)."""
    if p.degree <= 0:
        return p.monic() if not p.is_zero else p
    g = poly_gcd(p, p.derivative())
    return p.divide_exact(g).monic()


def _decompose(p: RationalPolynomial) -> tuple:
    """(`square_free_decomposition(p)`, the Sturm chain of the monic p if p
    is square-free, else None)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return [], None
    q = p.monic()
    chain = sturm_chain(q)   # its last entry is a gcd of q and q'
    g = RationalPolynomial(chain[-1]).monic()
    if g.degree == 0:
        return [(q, 1)], chain
    w = q.divide_exact(g)
    y = q.derivative().divide_exact(g)
    z = y - w.derivative()
    out = []
    i = 1
    while w.degree > 0:
        gi = poly_gcd(w, z)
        if gi.degree > 0:
            out.append((gi.monic(), i))
            w = w.divide_exact(gi)
            z = z.divide_exact(gi)
        y = z
        z = y - w.derivative()
        i += 1
    # exact reconstruction check
    check = RationalPolynomial.one()
    for f, m in out:
        check = check * f ** m
    if check != q:
        raise AssertionError("square-free decomposition failed to reconstruct input")
    return out, None


def square_free_decomposition(p: RationalPolynomial) -> list:
    """Yun's algorithm.  Returns [(f_i, i)] with p = lc * prod f_i^i, the
    f_i monic, square-free and pairwise coprime; gcd(p, p') is read off the
    Sturm chain of the monic p."""
    return _decompose(p)[0]


# -- Sturm machinery -----------------------------------------------------------


def _signed_remainder_chain(a: RationalPolynomial, b: RationalPolynomial) -> list:
    """Signed remainder sequence a, b, -rem(a, b), ... as primitive integer
    coefficient lists (ascending); a must be nonzero.

    Remainders are rescaled by positive rational factors only, which keeps
    the sign pattern of the canonical sequence while bounding coefficient
    growth.  The last entry is a gcd of a and b.
    """
    chain = [primitive_coeffs(a.coeffs)]
    if b.is_zero:
        return chain
    chain.append(primitive_coeffs(b.coeffs))
    a = RationalPolynomial(chain[0])
    b = RationalPolynomial(chain[1])
    while b.degree > 0:
        r = a % b
        if r.is_zero:
            break
        chain.append(primitive_coeffs((-r).coeffs))
        a, b = b, RationalPolynomial(chain[-1])
    return chain


def sturm_chain(p: RationalPolynomial) -> list:
    """Sturm chain of p: the signed remainder sequence of (p, p')."""
    return _signed_remainder_chain(p, p.derivative())


def _variations(signs: list) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _chain_variations_at(chain: list, x: Fraction) -> int:
    num, den = x.numerator, x.denominator
    return _variations([_sign_at(cs, num, den) for cs in chain])


def _chain_variations_at_inf(chain: list, positive: bool) -> int:
    signs = []
    for cs in chain:
        lc = cs[-1]
        d = len(cs) - 1
        s = (lc > 0) - (lc < 0)
        if not positive and d % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def count_real_roots(p: RationalPolynomial, lo=None, hi=None) -> int:
    """Number of distinct real roots of p in (lo, hi] (whole line if omitted)."""
    if p.degree <= 0:
        return 0
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:   # p is not square-free: count on p / gcd(p, p')
        chain = sturm_chain(p.divide_exact(RationalPolynomial(chain[-1])))
    vlo = _chain_variations_at(chain, as_fraction(lo)) if lo is not None \
        else _chain_variations_at_inf(chain, positive=False)
    vhi = _chain_variations_at(chain, as_fraction(hi)) if hi is not None \
        else _chain_variations_at_inf(chain, positive=True)
    return vlo - vhi


def gcd_and_cauchy_index(a: RationalPolynomial, b: RationalPolynomial) -> tuple:
    """(monic gcd(a, b), Ind(b/a)) from one signed remainder sequence of (a, b).

    Ind(b/a), the Cauchy index over the whole real line, is the number of
    real poles where b/a (in lowest terms) jumps from -inf to +inf minus the
    number where it jumps from +inf to -inf: V(-inf) - V(+inf) on the
    sequence (Basu-Pollack-Roy, Thm 2.58).  Ind(p'/p) is the number of
    distinct real roots of p; Ind(0/a) = 0.  The gcd is the last entry.
    """
    if a.is_zero:
        raise ValueError("Cauchy index of b/0 is undefined")
    chain = _signed_remainder_chain(a, b)
    return (RationalPolynomial(chain[-1]).monic(),
            _chain_variations_at_inf(chain, positive=False)
            - _chain_variations_at_inf(chain, positive=True))


def cauchy_root_bound(p: RationalPolynomial) -> Fraction:
    """B with every complex root of p satisfying |root| < B."""
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    lc = abs(p.leading)
    m = max(abs(c) for c in p.coeffs[:-1])
    b = 1 + m / lc
    return Fraction(math.floor(b) + 1)


def isolate_real_roots(p: RationalPolynomial, chain=None) -> list:
    """Isolating intervals for ALL real roots of a square-free polynomial.

    Returns a sorted list of (lo, hi) Fractions; lo == hi marks an exact
    rational root, otherwise the unique root lies in the open interval and
    sign(p(lo)) != sign(p(hi)).  `chain`, if given, is `sturm_chain(p)`.
    """
    if p.degree < 1:
        return []
    if chain is None:
        chain = sturm_chain(p)
    ic = primitive_coeffs(p.coeffs)
    bound = cauchy_root_bound(p)
    lo0, hi0 = -bound, bound

    def var(x: Fraction) -> int:
        return _chain_variations_at(chain, x)

    def count(a: Fraction, b: Fraction) -> int:
        return var(a) - var(b)

    def is_root(x: Fraction) -> bool:
        return _sign_at(ic, x.numerator, x.denominator) == 0

    # no left end is a root: -bound is not, a pushed mid failed is_root, and
    # (mid - w, mid + w] holds the root mid only
    out = []
    stack = [(lo0, hi0, var(lo0), var(hi0))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        n = vlo - vhi
        if n == 0:
            continue
        if n == 1:
            out.append((hi, hi) if is_root(hi) else (lo, hi))
            continue
        mid = (lo + hi) / 2
        if is_root(mid):
            out.append((mid, mid))
            w = (hi - lo) / 4
            while count(mid - w, mid + w) != 1:
                w /= 2
            vl, vr = var(mid - w), var(mid + w)
            stack.append((lo, mid - w, vlo, vl))
            stack.append((mid + w, hi, vr, vhi))
        else:
            vm = var(mid)
            stack.append((lo, mid, vlo, vm))
            stack.append((mid, hi, vm, vhi))
    out.sort(key=lambda iv: (iv[0], iv[1]))
    return out


def _refine(ic: list, lo: Fraction, hi: Fraction, max_width: Fraction) -> tuple:
    """Bisect the sign-change interval (lo, hi) of the integer polynomial
    `ic` (ascending) until its width is <= max_width, or to (x, x) at a
    midpoint x that is a root."""
    if hi - lo <= max_width:
        return lo, hi
    slo = _sign_at(ic, lo.numerator, lo.denominator)
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        sm = _sign_at(ic, mid.numerator, mid.denominator)
        if sm == 0:
            return mid, mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def real_root_factors(p: RationalPolynomial) -> list:
    """[(f, multiplicity, isolating intervals of f)] over the square-free
    decomposition of p, the intervals as from `isolate_real_roots(f)`.

    The one place that decides how real roots are isolated: for a
    square-free p, the Sturm chain that shows it square-free also isolates
    its roots, so the sequence of (p, p') is built once.
    """
    factors, chain = _decompose(p)
    return [(f, mult, isolate_real_roots(f, chain)) for f, mult in factors]


# -- determinants ---------------------------------------------------------------


def bareiss_det(rows: list) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    a = [row[:] for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def char_poly_coeffs(rows: list) -> list:
    """Ascending coefficients of det(x I - A), by Berkowitz's division-free
    algorithm (exact, O(n^4) ring operations).  The entries may be ints or
    Fractions: only ring operations are used, so an integer matrix gives
    ints throughout.  Each step slices its leading block once, and its
    Toeplitz product is a convolution that skips zero coefficients."""
    desc = [1]  # descending coefficients for the empty leading block
    for r in range(len(rows)):
        # with A_r the leading r x r block, R = A[r][:r] and S = A[:r][r], the
        # Toeplitz column is 1, -a_rr, -R S, -R A_r S, ..., -R A_r^(r-1) S
        block = [row[:r] for row in rows[:r]]
        head = rows[r][:r]
        col = [1, -rows[r][r]]
        x = [row[r] for row in rows[:r]]
        for _ in range(r):
            col.append(-sum(map(mul, head, x)))
            x = [sum(map(mul, row, x)) for row in block]
        new = col[:]   # the j = 0 term, as desc[0] = 1
        for j, d in enumerate(desc[1:], 1):
            if d:
                new[j:] = [y + c * d for y, c in zip(new[j:], col)]
        desc = new
    return desc[::-1]


def rational_roots(p: RationalPolynomial, intervals=None) -> list:
    """All rational roots of a square-free polynomial, found exactly.

    A root u/v in lowest terms of the primitive integer polynomial with
    leading coefficient lc has v | lc (rational root theorem), so it is a
    multiple of 1/|lc|.  Each isolating interval is bisected to width
    <= 1/|lc|; its endpoints are not roots, so the open interval then holds
    at most one multiple of 1/|lc|, which is tested exactly by the integer
    sign of the primitive polynomial.
    `intervals`, if given, replace `isolate_real_roots(p)`: each is (r, r)
    for a root r, or an open interval whose ends are not roots and which
    holds at most one root of p, and together they hold every real root.
    """
    if p.degree < 1:
        return []
    ic = primitive_coeffs(p.coeffs)
    lc = abs(ic[-1])
    step = Fraction(1, lc)
    out = []
    if intervals is None:
        intervals = isolate_real_roots(p)
    for lo, hi in intervals:
        lo, hi = _refine(ic, lo, hi, step)
        if lo < hi:
            k = math.floor(lo * lc) + 1
            if k < hi * lc and not _sign_at(ic, k, lc):
                lo = hi = Fraction(k, lc)
        if lo == hi:
            out.append(lo)
    return sorted(out)
