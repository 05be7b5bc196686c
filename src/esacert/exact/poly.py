"""Exact univariate polynomial algebra over the rationals.

Coefficients are ``fractions.Fraction`` values stored densely in ascending
order (index = power).  Everything in this module is exact; no floating
point enters any code path.  Provided machinery:

* ring arithmetic, Taylor shift ``p(z + a)``, affine substitution
  ``p(b0 + b1*z)``, even/odd splitting,
* exact Euclidean division, gcd with primitive-part normalization,
  Yun square-free decomposition,
* Sturm chains and signed remainder sequences (primitive,
  sign-preserving), Cauchy indices, real-root counting, isolation into
  disjoint rational intervals, bisection refinement,
* resultants and discriminants via exact Sylvester determinants,
  characteristic polynomials (Berkowitz),
* rational-root detection by continued-fraction probing of isolating
  intervals.

Sign evaluation of an integer polynomial at a rational point is done with
integer arithmetic only (clearing the denominator), which keeps Sturm
bisection cheap even when coefficients have hundreds of digits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction


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

    def eval_mp(self, ctx, z):
        """Horner evaluation under an mpmath context at current precision."""
        acc = ctx.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * z + ctx.mpf(c.numerator) / ctx.mpf(c.denominator)
        return acc

    # -- calculus and substitutions ------------------------------------------

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def shift(self, a) -> "RationalPolynomial":
        """Taylor shift: returns q with q(z) = p(z + a), exactly."""
        a = as_fraction(a)
        d = self.degree
        if d < 0:
            return self
        # q_k = sum_{j>=k} c_j * C(j, k) * a^(j-k)
        out = [Fraction(0)] * (d + 1)
        apow = [Fraction(1)]
        for _ in range(d):
            apow.append(apow[-1] * a)
        for j, cj in enumerate(self.coeffs):
            if not cj:
                continue
            binom = 1
            for k in range(j + 1):
                out[k] += cj * binom * apow[j - k]
                binom = binom * (j - k) // (k + 1)
        return RationalPolynomial(out)

    def compose_affine(self, b0, b1) -> "RationalPolynomial":
        """Returns q with q(z) = p(b0 + b1*z), exactly."""
        arg = RationalPolynomial((b0, b1))
        acc = RationalPolynomial.zero()
        for c in reversed(self.coeffs):
            acc = acc * arg + RationalPolynomial.constant(c)
        return acc

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


def poly_shift(p: RationalPolynomial, a) -> RationalPolynomial:
    """q(z) = p(z + a), exactly."""
    return p.shift(a)


def _int_coeffs(p: RationalPolynomial) -> list:
    """Clear denominators; returns integer coefficient list (ascending)."""
    if p.is_zero:
        return []
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [int(c * den) for c in p.coeffs]


def _primitive_int(cs: list) -> list:
    """Divide an integer coefficient list by its positive content."""
    g = 0
    for c in cs:
        g = math.gcd(g, abs(c))
        if g == 1:
            break
    if g > 1:
        cs = [c // g for c in cs]
    return cs


def primitive_part(p: RationalPolynomial) -> RationalPolynomial:
    """Integer-coefficient polynomial equal to p up to a positive rational factor."""
    if p.is_zero:
        return p
    return RationalPolynomial(_primitive_int(_int_coeffs(p)))


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
    """Monic gcd; gcd(p, 0) = monic(p)."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    x, y = primitive_part(a), primitive_part(b)
    while not y.is_zero:
        r = x % y
        if r.is_zero:
            return y.monic()
        x, y = y, primitive_part(r)
    return x.monic()


def square_free_part(p: RationalPolynomial) -> RationalPolynomial:
    """p with all root multiplicities reduced to one (monic)."""
    if p.degree <= 0:
        return p.monic() if not p.is_zero else p
    g = poly_gcd(p, p.derivative())
    return p.divide_exact(g).monic()


def square_free_decomposition(p: RationalPolynomial) -> list:
    """Yun's algorithm.  Returns [(f_i, i)] with p = lc * prod f_i^i,
    the f_i monic, square-free and pairwise coprime."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    q = p.monic()
    dq = q.derivative()
    g = poly_gcd(q, dq)
    if g.degree == 0:
        return [(q, 1)]
    w = q.divide_exact(g)
    y = dq.divide_exact(g)
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
    return out


# -- Sturm machinery -----------------------------------------------------------


def _signed_remainder_chain(a: RationalPolynomial, b: RationalPolynomial) -> list:
    """Signed remainder sequence a, b, -rem(a, b), ... as primitive integer
    coefficient lists (ascending); a must be nonzero.

    Remainders are rescaled by positive rational factors only, which keeps
    the sign pattern of the canonical sequence while bounding coefficient
    growth.  The last entry is a gcd of a and b.
    """
    chain = [_primitive_int(_int_coeffs(a))]
    if b.is_zero:
        return chain
    chain.append(_primitive_int(_int_coeffs(b)))
    a = RationalPolynomial(chain[0])
    b = RationalPolynomial(chain[1])
    while b.degree > 0:
        r = a % b
        if r.is_zero:
            break
        chain.append(_primitive_int(_int_coeffs(-r)))
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
    sf = square_free_part(p)
    if sf.degree <= 0:
        return 0
    chain = sturm_chain(sf)
    vlo = _chain_variations_at(chain, as_fraction(lo)) if lo is not None \
        else _chain_variations_at_inf(chain, positive=False)
    vhi = _chain_variations_at(chain, as_fraction(hi)) if hi is not None \
        else _chain_variations_at_inf(chain, positive=True)
    return vlo - vhi


def cauchy_index(a: RationalPolynomial, b: RationalPolynomial) -> int:
    """Cauchy index of b/a over the whole real line, exactly.

    The number of real poles where b/a (in lowest terms) jumps from -inf to
    +inf minus the number where it jumps from +inf to -inf.  Equals
    V(-inf) - V(+inf) on the signed remainder sequence of (a, b) (Sturm's
    theorem generalised; Basu-Pollack-Roy, Thm 2.58); Ind(p'/p) is the
    number of distinct real roots of p.  Ind(0/a) = 0.
    """
    if a.is_zero:
        raise ValueError("Cauchy index of b/0 is undefined")
    chain = _signed_remainder_chain(a, b)
    return (_chain_variations_at_inf(chain, positive=False)
            - _chain_variations_at_inf(chain, positive=True))


def cauchy_root_bound(p: RationalPolynomial) -> Fraction:
    """B with every complex root of p satisfying |root| < B."""
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    lc = abs(p.leading)
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree > 0 else Fraction(0)
    b = 1 + m / lc
    return Fraction(math.floor(b) + 1)


def isolate_real_roots(p: RationalPolynomial) -> list:
    """Isolating intervals for ALL real roots of a square-free polynomial.

    Returns a sorted list of (lo, hi) Fractions; lo == hi marks an exact
    rational root, otherwise the unique root lies in the open interval and
    sign(p(lo)) != sign(p(hi)).
    """
    if p.degree < 1:
        return []
    chain = sturm_chain(p)
    bound = cauchy_root_bound(p)
    lo0, hi0 = -bound, bound

    def var(x: Fraction) -> int:
        return _chain_variations_at(chain, x)

    def count(a: Fraction, b: Fraction) -> int:
        return var(a) - var(b)

    out = []
    stack = [(lo0, hi0, var(lo0), var(hi0))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        n = vlo - vhi
        if n == 0:
            continue
        if n == 1:
            if p(hi) == 0:
                out.append((hi, hi))
                continue
            # make sure the left endpoint is not itself a root of p
            while p(lo) == 0:
                step = (hi - lo) / 4
                cand = lo + step
                while not (count(cand, hi) == 1 and p(cand) != 0):
                    step /= 2
                    cand = lo + step
                lo = cand
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if p(mid) == 0:
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


def refine_isolating_interval(p: RationalPolynomial, lo: Fraction, hi: Fraction,
                              max_width: Fraction) -> tuple:
    """Bisect a sign-change interval of p until its width is <= max_width.

    Sign evaluations run on the integer-cleared coefficients, so bisection
    stays in integer arithmetic throughout.
    """
    if lo == hi:
        return lo, hi
    ic = _primitive_int(_int_coeffs(p))
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


def _sign_of(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def sturm_isolate(p: RationalPolynomial) -> list:
    """Disjoint isolating intervals for all real roots of p, with multiplicity.

    Returns a sorted list of ((lo, hi), multiplicity).  Multiplicities come
    from an exact square-free decomposition; intervals from different
    square-free factors are refined until pairwise disjoint.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    items = []  # [lo, hi, mult, factor]
    for f, m in square_free_decomposition(p):
        for lo, hi in isolate_real_roots(f):
            items.append([lo, hi, m, f])

    def disjoint(a, b) -> bool:
        # intervals are closed; distinct exact roots never collide
        if a[0] == a[1] and b[0] == b[1]:
            return a[0] != b[0]
        return a[1] < b[0] or b[1] < a[0]

    # Roots from distinct square-free factors are distinct, so bisection
    # separates any pair of overlapping closed intervals in finitely many steps.
    changed = True
    while changed:
        changed = False
        items.sort(key=lambda t: (t[0], t[1]))
        for a, b in zip(items, items[1:]):
            if disjoint(a, b):
                continue
            changed = True
            target = max(a[1] - a[0], b[1] - b[0]) / 4
            if target == 0:
                target = Fraction(1, 2 ** 20)
            if a[1] > a[0]:
                a[0], a[1] = refine_isolating_interval(a[3], a[0], a[1], target)
            if b[1] > b[0]:
                b[0], b[1] = refine_isolating_interval(b[3], b[0], b[1], target)
    items.sort(key=lambda t: (t[0], t[1]))
    return [((lo, hi), m) for lo, hi, m, _ in items]


# -- resultants -----------------------------------------------------------------


def _bareiss_det_int(rows: list) -> int:
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


def det_fractions(rows: list) -> Fraction:
    """Exact determinant of a square matrix of Fractions."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    int_rows = []
    scale = Fraction(1)
    for row in rows:
        den = 1
        for c in row:
            c = as_fraction(c)
            den = den * c.denominator // math.gcd(den, c.denominator)
        int_rows.append([int(as_fraction(c) * den) for c in row])
        scale *= den
    return Fraction(_bareiss_det_int(int_rows)) / scale


def char_poly(rows: list) -> RationalPolynomial:
    """det(x I - A) of a square matrix of Fractions, by Berkowitz's
    division-free algorithm (exact, O(n^4) ring operations)."""
    desc = [Fraction(1)]  # descending coefficients for the empty leading block
    for r in range(len(rows)):
        # with A_r the leading r x r block, R = A[r][:r] and S = A[:r][r], the
        # Toeplitz column is 1, -a_rr, -R S, -R A_r S, ..., -R A_r^(r-1) S
        head = rows[r][:r]
        col = [Fraction(1), -rows[r][r]]
        x = [rows[i][r] for i in range(r)]
        for _ in range(r):
            col.append(-sum(a * b for a, b in zip(head, x)))
            x = [sum(a * b for a, b in zip(rows[i][:r], x)) for i in range(r)]
        desc = [sum(col[i - j] * desc[j] for j in range(min(i, r) + 1))
                for i in range(r + 2)]
    return RationalPolynomial(reversed(desc))


def resultant(p: RationalPolynomial, q: RationalPolynomial) -> Fraction:
    """Resultant via the Sylvester matrix (exact)."""
    m, n = p.degree, q.degree
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    size = m + n
    rows = []
    pd = list(p.descending())
    qd = list(q.descending())
    for i in range(n):
        rows.append([Fraction(0)] * i + pd + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + qd + [Fraction(0)] * (size - n - 1 - i))
    return det_fractions(rows)


def discriminant(p: RationalPolynomial) -> Fraction:
    """disc(p) = (-1)^(d(d-1)/2) * res(p, p') / lc(p)."""
    d = p.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.leading


# -- continued-fraction utilities -------------------------------------------------


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator (then numerator) in [lo, hi]."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_between(-hi, -lo)
    # now 0 < lo < hi
    fl = math.floor(lo)
    if fl + 1 <= hi:
        return Fraction(fl + 1) if lo > fl else Fraction(fl)
    frac_lo = lo - fl
    if frac_lo == 0:
        return Fraction(fl)
    return fl + 1 / simplest_between(1 / (hi - fl), 1 / frac_lo)


def rational_roots(p: RationalPolynomial, max_rounds: int = 4,
                   bisections_per_round: int = 8) -> list:
    """Rational roots of a square-free polynomial, found exactly.

    Real roots are isolated and their intervals probed with the simplest
    rational they contain; a candidate counts only if p vanishes at it
    exactly.  Roots with denominators beyond the refinement reach (about
    2^-32 interval width) are simply not reported; callers treat the
    remainder numerically.
    """
    out = []
    ic = None
    for lo, hi in isolate_real_roots(p):
        if lo == hi:
            out.append(lo)
            continue
        if ic is None:
            ic = _primitive_int(_int_coeffs(p))
        slo = _sign_at(ic, lo.numerator, lo.denominator)
        found = None
        for _ in range(max_rounds):
            w = hi - lo
            cand = simplest_between(lo + w / 8, hi - w / 8)
            sc = _sign_at(ic, cand.numerator, cand.denominator)
            if sc == 0:
                found = cand
                break
            target = w / 2 ** bisections_per_round
            while hi - lo > target:
                mid = (lo + hi) / 2
                sm = _sign_at(ic, mid.numerator, mid.denominator)
                if sm == 0:
                    found = mid
                    break
                if sm == slo:
                    lo = mid
                else:
                    hi = mid
            if found is not None:
                break
        if found is not None:
            out.append(found)
    return sorted(out)
