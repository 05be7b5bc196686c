"""Irrational real algebraic numbers as (square-free defining polynomial,
isolating interval).

An AlgebraicReal carries an integer-primitive square-free polynomial and a
rational interval (lo, hi), lo < hi, holding exactly one of its real roots,
which is irrational; neither end is a root.  The interval is the mutable
refinement cache; everything else is frozen.  A rational value is always a
plain Fraction: `exact_real_roots` and `from_quadratic_surd` return one, and
the validating constructor rejects an interval around a rational root.  So
no bisection point ever hits the root, and refinement keeps both ends off
the roots of the defining polynomial.

Comparisons against rationals and other AlgebraicReals are exact: equality
with an AlgebraicReal is decided through a gcd of the defining polynomials
(a rational is never equal), inequality by refining the isolating intervals
until they separate.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import (RationalPolynomial, _refine, as_fraction, count_real_roots,
                   isolate_real_roots, poly_gcd, primitive_part,
                   rational_roots, real_root_factors, square_free_part)


def rational_sqrt(q: Fraction):
    """The rational square root of q >= 0, or None if q is not a square."""
    if q < 0:
        return None
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


class AlgebraicReal:
    """Exact irrational real algebraic number with on-demand interval refinement."""

    __slots__ = ("defining", "_lo", "_hi")
    is_rational = False

    def __init__(self, defining: RationalPolynomial, lo, hi, validate: bool = True):
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo >= hi:
            raise ValueError("isolating interval needs lo < hi")
        # unvalidated input is square-free with no rational root in (lo, hi)
        # by contract (`exact_real_roots`, pickles); .monic() makes the
        # leading coefficient positive, as square_free_part does
        defining = primitive_part(square_free_part(defining) if validate
                                  else defining.monic())
        if validate:
            if defining(lo) == 0 or defining(hi) == 0:
                raise ValueError("an end of the interval is a root")
            if count_real_roots(defining, lo, hi) != 1:
                raise ValueError("interval does not isolate exactly one root")
            if rational_roots(defining, [(lo, hi)]):
                raise ValueError("the isolated root is rational; use a Fraction")
        object.__setattr__(self, "defining", defining)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("use refine(); AlgebraicReal is otherwise immutable")

    def __reduce__(self):
        return (AlgebraicReal, (self.defining, self._lo, self._hi, False))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_quadratic_surd(cls, a, b, c):
        """The number a + b*sqrt(c) with a, b, c rational and c >= 0: a
        Fraction when b = 0 or c is a square, else an AlgebraicReal."""
        a, b, c = as_fraction(a), as_fraction(b), as_fraction(c)
        if c < 0:
            raise ValueError("negative radicand")
        root = rational_sqrt(c)
        if root is not None:
            return a + b * root
        if b == 0:
            return a
        r = math.isqrt(math.floor(c * (1 << 56)))   # sqrt(c) in [r, r + 2] / 2^28
        slo, shi = Fraction(r, 1 << 28), Fraction(r + 2, 1 << 28)
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

    def refine(self, max_width) -> tuple:
        """Shrink the isolating interval to width <= max_width; returns it.

        Successive calls nest: the cached interval only ever shrinks.
        """
        max_width = as_fraction(max_width)
        if max_width <= 0:
            raise ValueError("width must be positive")
        # the defining polynomial is integer-primitive, so its numerators are
        # the integer coefficients that `_refine` takes
        lo, hi = _refine([c.numerator for c in self.defining.coeffs],
                         self._lo, self._hi, max_width)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)
        return lo, hi

    # -- comparisons ----------------------------------------------------------

    def _cmp_rational(self, q: Fraction) -> int:
        lo, hi = self._lo, self._hi
        while lo <= q <= hi:   # ends, since the value is not q
            lo, hi = self.refine((hi - lo) / 4)
        return 1 if q < lo else -1

    def compare(self, other) -> int:
        """Exact three-way comparison with a rational or AlgebraicReal."""
        if not isinstance(other, AlgebraicReal):
            return self._cmp_rational(as_fraction(other))
        if self.equals(other):
            return 0
        while True:
            alo, ahi = self.interval
            blo, bhi = other.interval
            if ahi < blo:
                return -1
            if bhi < alo:
                return 1
            self.refine((ahi - alo) / 4)
            other.refine((bhi - blo) / 4)

    def equals(self, other) -> bool:
        """Exact equality; never true for a rational `other`."""
        if not isinstance(other, AlgebraicReal):
            return False
        lo = max(self._lo, other._lo)
        hi = min(self._hi, other._hi)
        if lo >= hi:
            return False
        g = poly_gcd(self.defining, other.defining)
        # a root of g in (lo, hi] lies inside both isolating intervals (hi is
        # an end of one of them, so not a root), hence it is the root each
        # interval isolates and the two numbers coincide
        return g.degree >= 1 and count_real_roots(g, lo, hi) >= 1

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
        lo, hi = self.refine(Fraction(1, 1 << 80))
        return float((lo + hi) / 2)

    def approx(self, digits: int = 12) -> Fraction:
        """Rational midpoint approximation accurate to the requested decimals."""
        scale = max(1, abs(math.floor(float(self))))
        lo, hi = self.refine(Fraction(scale, 10 ** (digits + 2)))
        return (lo + hi) / 2

    def decimal(self, significant: int = 6) -> str:
        """Decimal rendering with the requested number of significant digits."""
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
        return f"AlgebraicReal(deg={self.defining.degree}, in [{lo}, {hi}])"

    def to_json(self) -> dict:
        lo, hi = self.interval
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
