"""Real algebraic numbers as (square-free defining polynomial, isolating interval).

An AlgebraicReal carries an integer-primitive square-free polynomial and a
rational interval [lo, hi] containing exactly one of its real roots.  The
interval is the mutable refinement cache; everything else is frozen.  A
rational value is represented by a collapsed interval lo == hi.

Comparisons against rationals and other AlgebraicReals are exact: equality is
decided through a gcd of the defining polynomials, inequality by refining the
isolating intervals until they separate.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import (RationalPolynomial, as_fraction, count_real_roots,
                   isolate_real_roots, poly_gcd, primitive_part,
                   rational_roots, real_root_factors,
                   refine_isolating_interval, square_free_part)


def sqrt_bounds(q: Fraction, max_width: Fraction) -> tuple:
    """Rational lo <= sqrt(q) <= hi with hi - lo <= max_width, for q >= 0."""
    q = as_fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0), Fraction(0)
    # scale so that the integer square root gives the needed resolution
    shift = 0
    while Fraction(1, 1 << shift) > max_width:
        shift += 2
    shift += 4
    scaled = q * (1 << (2 * shift))
    n = scaled.numerator // scaled.denominator
    r = math.isqrt(n)
    lo = Fraction(r, 1 << shift)
    hi = Fraction(r + 2, 1 << shift)
    if lo * lo > q:
        lo = Fraction(r - 1, 1 << shift)
    return lo, hi


def rational_sqrt(q: Fraction):
    """The rational square root of q >= 0, or None if q is not a square."""
    if q < 0:
        return None
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


class AlgebraicReal:
    """Exact real algebraic number with on-demand interval refinement."""

    __slots__ = ("defining", "_lo", "_hi")

    def __init__(self, defining: RationalPolynomial, lo, hi, validate: bool = True):
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise ValueError("empty isolating interval")
        # unvalidated input is square-free by contract (`exact_real_roots`,
        # pickles); .monic() makes the leading coefficient positive, as
        # square_free_part does
        defining = primitive_part(square_free_part(defining) if validate
                                  else defining.monic())
        if validate:
            if lo == hi:
                if defining(lo) != 0:
                    raise ValueError("collapsed interval is not a root")
            else:
                inside = count_real_roots(defining, lo, hi)
                if defining(lo) == 0:
                    inside += 1
                if inside != 1:
                    raise ValueError("interval does not isolate exactly one root")
        object.__setattr__(self, "defining", defining)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("use refine(); AlgebraicReal is otherwise immutable")

    def __reduce__(self):
        return (AlgebraicReal, (self.defining, self._lo, self._hi, False))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "AlgebraicReal":
        q = as_fraction(q)
        return cls(RationalPolynomial((-q, 1)), q, q, validate=False)

    @classmethod
    def from_quadratic_surd(cls, a, b, c) -> "AlgebraicReal":
        """The number a + b*sqrt(c) with a, b, c rational and c >= 0."""
        a, b, c = as_fraction(a), as_fraction(b), as_fraction(c)
        slo, shi = sqrt_bounds(c, Fraction(1, 1 << 24))
        if slo * slo == c:
            return cls.from_rational(a + b * slo)
        lo = a + (b * slo if b >= 0 else b * shi)
        hi = a + (b * shi if b >= 0 else b * slo)
        # minimal polynomial: (z - a)^2 - b^2 c
        z = RationalPolynomial.variable()
        poly = (z - a) * (z - a) - RationalPolynomial.constant(b * b * c)
        return cls(poly, lo, hi)

    # -- interval access -----------------------------------------------------

    @property
    def interval(self) -> tuple:
        return self._lo, self._hi

    @property
    def is_rational(self) -> bool:
        return self._lo == self._hi

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not known to be rational")
        return self._lo

    def refine(self, max_width) -> tuple:
        """Shrink the isolating interval to width <= max_width; returns it.

        Successive calls nest: the cached interval only ever shrinks.
        """
        max_width = as_fraction(max_width)
        if max_width <= 0:
            raise ValueError("width must be positive")
        lo, hi = refine_isolating_interval(self.defining, self._lo, self._hi, max_width)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)
        return lo, hi

    # -- comparisons ----------------------------------------------------------

    def _cmp_rational(self, q: Fraction) -> int:
        if self.is_rational:
            v = self._lo
            return (v > q) - (v < q)
        if self.defining(q) == 0 and self._lo <= q <= self._hi:
            return 0
        lo, hi = self._lo, self._hi
        while lo <= q <= hi:
            lo, hi = self.refine((hi - lo) / 4)
            if lo == hi:
                break
        if self.is_rational:
            v = self._lo
            return (v > q) - (v < q)
        if q <= lo:
            return 1
        return -1

    def compare(self, other) -> int:
        """Exact three-way comparison with a rational or AlgebraicReal."""
        if isinstance(other, AlgebraicReal):
            if other.is_rational:
                return self._cmp_rational(other.rational_value)
            if self.is_rational:
                return -other._cmp_rational(self.rational_value)
            if self.equals(other):
                return 0
            while True:
                alo, ahi = self.interval
                blo, bhi = other.interval
                if ahi < blo:
                    return -1
                if bhi < alo:
                    return 1
                self.refine((ahi - alo) / 4 if ahi > alo else Fraction(1, 4))
                other.refine((bhi - blo) / 4 if bhi > blo else Fraction(1, 4))
        return self._cmp_rational(as_fraction(other))

    def equals(self, other) -> bool:
        if isinstance(other, AlgebraicReal):
            if self.is_rational or other.is_rational:
                return self.compare(other) == 0 if not (self.is_rational and other.is_rational) \
                    else self._lo == other._lo
            lo = max(self._lo, other._lo)
            hi = min(self._hi, other._hi)
            if lo > hi:
                return False
            g = poly_gcd(self.defining, other.defining)
            if g.degree < 1:
                return False
            # any root of g inside both isolating intervals must be the root
            # each interval isolates, hence the two numbers coincide
            inside = count_real_roots(g, lo, hi)
            if g(lo) == 0 and self._lo <= lo <= self._hi and other._lo <= lo <= other._hi:
                inside += 1
            return inside >= 1
        return self._cmp_rational(as_fraction(other)) == 0

    def __eq__(self, other):
        if isinstance(other, (AlgebraicReal, Fraction, int)):
            return self.equals(other)
        return NotImplemented

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- rendering ---------------------------------------------------------------

    def __float__(self):
        lo, hi = self.refine(Fraction(1, 1 << 80)) if not self.is_rational else self.interval
        return float((lo + hi) / 2)

    def approx(self, digits: int = 12) -> Fraction:
        """Rational midpoint approximation accurate to the requested decimals."""
        if self.is_rational:
            return self._lo
        scale = max(1, abs(math.floor(float(self))))
        lo, hi = self.refine(Fraction(scale, 10 ** (digits + 2)))
        return (lo + hi) / 2

    def decimal(self, significant: int = 6) -> str:
        """Decimal rendering with the requested number of significant digits."""
        if self.is_rational and self._lo.denominator == 1:
            return str(self._lo.numerator)
        mid = self.approx(significant + 4)
        if mid == 0:
            return "0"
        exp = math.floor(math.log10(abs(float(mid))))
        mant = mid / Fraction(10) ** exp
        mant_f = float(mant)
        body = f"{mant_f:.{significant - 1}f}"
        if -4 <= exp < significant:
            return f"{float(mid):.{max(significant - 1 - exp, 0)}f}"
        return f"{body}e{exp}"

    def __repr__(self):
        lo, hi = self.interval
        if self.is_rational:
            return f"AlgebraicReal({lo})"
        return f"AlgebraicReal(deg={self.defining.degree}, in [{lo}, {hi}])"

    def to_json(self) -> dict:
        lo, hi = self.interval
        if self.is_rational:
            return {"type": "rational", "value": str(self._lo)}
        return {
            "type": "algebraic",
            "defining": [str(c) for c in self.defining.coeffs],
            "interval": [str(lo), str(hi)],
            "approx": self.decimal(10),
        }


def value_compare(a, b) -> int:
    """Exact three-way comparison of Fraction/AlgebraicReal values."""
    if isinstance(a, AlgebraicReal):
        return a.compare(b)
    if isinstance(b, AlgebraicReal):
        return -b.compare(a)
    a, b = as_fraction(a), as_fraction(b)
    return (a > b) - (a < b)


def exact_real_roots(p: RationalPolynomial) -> list:
    """Distinct real roots of p, sorted; Fraction for the rational ones,
    AlgebraicReal (never rational) for the others.

    Per factor of `real_root_factors`, the rational roots are split off on
    its isolating intervals.  A factor that had some is re-isolated once
    they are divided out; one that had none keeps its intervals.  The
    isolating intervals of the result (a point for a Fraction) are strictly
    increasing and pairwise disjoint.  The comparison sort compares every
    pair that ends up adjacent, and `value_compare` returns only once the
    two intervals (or the point and the interval) are strictly apart;
    intervals only shrink afterwards.
    """
    import functools as _ft

    out = []
    for f, _mult, intervals in real_root_factors(p):
        g = f
        for r in rational_roots(f, intervals):
            g = g.divide_exact(RationalPolynomial((-r, 1)))
            out.append(r)
        if g.degree < f.degree:
            intervals = isolate_real_roots(g)
        out.extend(AlgebraicReal(g, lo, hi, validate=False) for lo, hi in intervals)
    out.sort(key=_ft.cmp_to_key(value_compare))
    return out
