"""Indicial polynomials of the radial Euler-type operators.

The radial reduction of the 2m-th order operator in dimension n at angular
sector l acts on powers as  tau r^z = D(c; z) r^(z-2m), with

    D(c; z) = (-1)^m * prod_{j=1..m} (z - (nu + 4j - 5)/2) (z + (nu - 4j + 1)/2) + c,

where nu = n + 2l.  The fourth-order two-parameter family

    d^4/dr^4 + c1 (r^-2 d^2/dr^2 + d^2/dr^2 r^-2) + c2 r^-4

has indicial quartic

    E(c1, c2; z) = z(z-1)(z-2)(z-3) + c1 [z(z-1) + (z-2)(z-3)] + c2,

and the radial family maps onto it through
c1 = -(nu-1)(nu-3)/4,  c2 = c1^2 + c.

The m = 2 characteristic exponents have closed forms

    3/2 -+ (1/2) sqrt(5 - 4 c1 +- 4 sqrt(1 - 4 c1 + c1^2 - c2)),

evaluated with the principal branch of the complex square root throughout
(sqrt(r e^{i phi}) = sqrt(r) e^{i phi/2} with -pi < phi <= pi; a negative
real radicand takes phi = pi).  They satisfy a1 + a4 = a2 + a3 = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import RationalPolynomial, as_fraction
from .roots import START_BITS, trajectory_table


@dataclass(frozen=True)
class IndicialSpec:
    """Radial operator indices: Laplacian power m, dimension n, sector l, coupling c."""

    m: int
    n: int
    l: int
    c: Fraction

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.n < 2:
            raise ValueError("n must be an integer >= 2")
        if self.l < 0:
            raise ValueError("l must be a nonnegative integer")
        object.__setattr__(self, "c", as_fraction(self.c))

    @property
    def nu(self) -> int:
        return self.n + 2 * self.l

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "l": self.l, "c": str(self.c)}


@dataclass(frozen=True)
class EulerParams:
    """Parameters (c1, c2) of the fourth-order two-parameter family."""

    c1: Fraction
    c2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c1", as_fraction(self.c1))
        object.__setattr__(self, "c2", as_fraction(self.c2))

    def to_json(self) -> dict:
        return {"c1": str(self.c1), "c2": str(self.c2)}


def euler_params(n: int, l: int, c) -> EulerParams:
    """Map (n, l, c) of the radial family to the quartic parameters (c1, c2)."""
    if n < 2 or l < 0:
        raise ValueError("need n >= 2 and l >= 0")
    nu = n + 2 * l
    c1 = -Fraction((nu - 1) * (nu - 3), 4)
    return EulerParams(c1=c1, c2=c1 * c1 + as_fraction(c))


def indicial_scale(m: int) -> Fraction:
    """(-1)^m 4^-m, the factor between indicial_product and indicial_base."""
    return Fraction((-1) ** m, 4 ** m)


def indicial_product(m: int, nu: int, shift=0) -> list:
    """Ascending integer coefficients of prod_k (2w + 2 shift - k), taken
    over the 2m half-integer roots k/2 of indicial_base (same arguments).

    Step j multiplies by (2w + a)(2w + b) = 4w^2 + 2(a + b)w + ab, the pair
    a = 2 shift - (nu + 4j - 5), b = 2 shift + nu - 4j + 1.  The leading
    coefficient is 4^m.
    """
    twice = 2 * as_fraction(shift)
    if twice.denominator != 1:
        raise ValueError("shift must be a half-integer")
    t = twice.numerator
    coeffs = [1]
    for j in range(1, m + 1):
        a, b = t - (nu + 4 * j - 5), t + nu - 4 * j + 1
        ab, mid = a * b, 2 * (a + b)
        pad = [0, 0] + coeffs + [0, 0]
        coeffs = [ab * x + mid * y + 4 * z
                  for x, y, z in zip(pad[2:], pad[1:], pad)]
    return coeffs


def indicial_base(m: int, nu: int, shift=0) -> RationalPolynomial:
    """The coupling-free part of the indicial polynomial, for nu = n + 2l,
    as a polynomial in w with z = w + shift for a half-integer shift.

    Its roots are the half-integers k/2 for k = nu + 4j - 5 and
    k = -(nu - 4j + 1), j = 1..m, so it equals
    (-1)^m 4^-m prod_k (2w + 2 shift - k), a product taken in integers
    (indicial_product).
    """
    scale = indicial_scale(m)
    return RationalPolynomial([scale * c for c in indicial_product(m, nu, shift)])


def build_indicial(spec: IndicialSpec) -> RationalPolynomial:
    """Indicial polynomial D(c; z) of degree 2m (leading coefficient (-1)^m)."""
    return indicial_base(spec.m, spec.nu) + RationalPolynomial.constant(spec.c)


def root_trajectories(m: int, n: int, l: int, c_grid: Sequence, map=map) -> list:
    """Trajectories of the indicial roots of the radial operator over a c-grid,
    with the root sets computed by ``map`` (see `roots.trajectory_table`)."""
    return trajectory_table(
        lambda c: build_indicial(IndicialSpec(m=m, n=n, l=l, c=c)), c_grid, map=map)


def euler_quartic(c1, c2) -> RationalPolynomial:
    """Indicial quartic z(z-1)(z-2)(z-3) + c1 [z(z-1) + (z-2)(z-3)] + c2,
    expanded: z^4 - 6z^3 + (11 + 2c1) z^2 - (6 + 6c1) z + 6c1 + c2."""
    c1, c2 = as_fraction(c1), as_fraction(c2)
    return RationalPolynomial((6 * c1 + c2, -6 - 6 * c1, 11 + 2 * c1, -6, 1))


def _principal_sqrt_exact_real(q: Fraction, ctx):
    """Principal square root of an exact real rational, as mpf/mpc.

    Negative real input sits on the branch cut and takes phi = pi, so the
    result is +i sqrt(|q|) exactly.
    """
    if q >= 0:
        return ctx.sqrt(ctx.mpf(q.numerator) / ctx.mpf(q.denominator))
    return ctx.mpc(0, ctx.sqrt(ctx.mpf(-q.numerator) / ctx.mpf(q.denominator)))


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


def quartic_roots_closed_form(params: EulerParams,
                              precision_bits: int = START_BITS) -> tuple:
    """The four characteristic exponents of the quartic family, closed form.

    Returns (a1, a2, a3, a4) as mpmath complex numbers with
    a1 + a4 = a2 + a3 = 3.  Both nested square roots use the principal
    branch (sqrt(r e^{i phi}) = sqrt(r) e^{i phi/2}, -pi < phi <= pi), and
    every branch decision is taken in exact rational arithmetic: the inner
    radicand 1 - 4 c1 + c1^2 - c2 is rational, and when it is nonnegative
    the outer radicands (5 - 4 c1) -+ 4 sqrt(inner) have exactly decidable
    signs.  Floating point never gets to choose a branch.
    """
    import mpmath as mp

    c1, c2 = params.c1, params.c2
    inner_radicand = 1 - 4 * c1 + c1 * c1 - c2
    s = 5 - 4 * c1
    with mp.workprec(precision_bits):
        s_mp = mp.mpf(s.numerator) / mp.mpf(s.denominator)
        if inner_radicand >= 0:
            inner = _principal_sqrt_exact_real(inner_radicand, mp)
            sqrts = []
            for plus in (True, False):
                rad = s_mp + 4 * inner if plus else s_mp - 4 * inner
                sign = _outer_radicand_sign(s, inner_radicand, plus)
                if sign == 0:
                    sqrts.append(mp.mpc(0))
                elif sign > 0:
                    sqrts.append(mp.mpc(mp.sqrt(rad if rad > 0 else mp.mpf(0))))
                else:
                    sqrts.append(mp.mpc(0, mp.sqrt(-rad if rad < 0 else mp.mpf(0))))
            s_plus, s_minus = sqrts
        else:
            inner = _principal_sqrt_exact_real(inner_radicand, mp)
            s_plus = mp.sqrt(mp.mpc(s_mp) + 4 * inner)
            s_minus = mp.sqrt(mp.mpc(s_mp) - 4 * inner)
        half = mp.mpf(1) / 2
        three_half = mp.mpf(3) / 2
        a1 = three_half - half * s_plus
        a2 = three_half - half * s_minus
        a3 = three_half + half * s_minus
        a4 = three_half + half * s_plus
        return (mp.mpc(a1), mp.mpc(a2), mp.mpc(a3), mp.mpc(a4))
