"""Certified complex root enclosures for rational polynomials.

Strategy: when p is even about its centroid a, that is p(a + w) = G(w^2)
as for every indicial polynomial (roots pair to 2m - 1) and every Euler
quartic (pairs sum to 3), the exact steps run on G at half the degree;
any other p takes them itself, factor by factor, with no halving.

1. the square-free decomposition runs on one Sturm chain (`_decompose`),
   which also gives each factor of G its real-root count at +-infinity; a
   root at 0 (y = 0 on G, giving a with twice the multiplicity) is split
   off exactly first, since the Newton polygon seeds no iterate at 0.
   Rational roots already found (step 4) are divided out of their factors
   and reported with radius zero (on G, y = (x - a)^2 gives a +- |x - a|);
2. each factor f is handed to an Aberth-Ehrlich simultaneous
   iteration from deterministic Newton-polygon initial points, run first in
   hardware floats.  At FLOAT_BITS the float iterates are the candidates as
   they are; at START_BITS they are polished on dyadic iterates at the
   working precision (from the initial points themselves at escalated
   precision, or when the floats overflow or collide).  A dyadic step
   takes f/f' exactly by integer Horner and only the repulsion sum in
   floats, from the exact iterate differences; each iterate is rounded to
   the working precision relative to its modulus.  If f(a + w) = g(w^2),
   the iteration runs on g and each root y of g gives the two centers
   a +- sqrt(y), the square root taken by `math.isqrt` and the sum with a
   exactly; the iterates of g nearest the real axis, as many as g has real
   roots, are made real, so their centers lie on the real axis (y > 0) or
   on the line Re z = a (y < 0);
3. every candidate center is certified on f itself by the exact bound
   |x - nearest root| <= deg * |f(x)| / |f'(x)|, evaluated in integer
   arithmetic at the rational center (the iteration supplies candidates
   only, never the certificate); the centers a +- t share one evaluation,
   since |f(a + t)| = |f(a - t)| and |f'(a + t)| = |f'(a - t)|;
4. precision rises until all disks are pairwise disjoint (compared in
   integers over the common denominator), in which case each disk provably
   contains exactly one root: from FLOAT_BITS, where `trajectory_table`
   starts, to START_BITS, where every other caller starts, and from there
   by doubling up to MAX_BITS.  A disk centred on the real axis (or on
   Re z = a) then holds a real root (one on that line): the mirror image
   of its root is a root in the same disk.
   The rational roots of each factor are then found exactly on the shadows
   of its disks that meet the real axis (`_rational_roots_in_disks`); if
   there are any, they are divided out (step 1) and steps 2-4 run again
   on what is left, with no rational root.

The disks feed the numeric trajectory output only (`trajectory_table`; the
indicial family is built by `indicial.root_trajectories`, and this module
imports nothing from `indicial`), and serve the tests as an oracle
independent of the exact half-plane count in the stability layer; no
verdict is taken from them.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exact import (RationalPolynomial, as_fraction, count_real_roots,
                    rational_roots)
from .exact.poly import (_chain_variations_at_inf, _decompose, _sign_at,
                         primitive_coeffs)

FLOAT_BITS = 53    # the hardware-float rung below START_BITS (trajectory_table)
START_BITS = 128   # first dyadic working precision, and the default one
MAX_BITS = 4096    # certified_roots gives up beyond this precision
FLOAT_TOL = 2.0 ** -45  # relative step at which the float iteration stops


class PrecisionExceededError(RuntimeError):
    """Raised when root disks are still not separated at MAX_BITS."""


def _sqrt_upper_pow2(q: Fraction) -> Fraction:
    """A power of two >= sqrt(q), for q >= 0 (within a factor of ~2.8)."""
    if q == 0:
        return Fraction(0)
    nb = q.numerator.bit_length()
    db = q.denominator.bit_length()
    e = (nb + 1) // 2 - (db - 1) // 2
    return Fraction(2) ** e


@dataclass(frozen=True)
class CertifiedRoot:
    """Closed disk certified to contain exactly `multiplicity` roots."""

    re: Fraction
    im: Fraction
    radius: Fraction
    multiplicity: int

    @property
    def exact(self) -> bool:
        return self.radius == 0

    def to_json(self) -> dict:
        return {
            "re": str(self.re),
            "im": str(self.im),
            "radius": str(self.radius),
            "multiplicity": self.multiplicity,
        }


@dataclass
class OrderedRootSet:
    """Roots sorted by (real part, imaginary part)."""

    roots: tuple
    precision_bits: int

    @property
    def degree(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def expanded(self) -> list:
        """Roots repeated by multiplicity, in sorted order."""
        out = []
        for r in self.roots:
            out.extend([r] * r.multiplicity)
        return out


@dataclass(frozen=True)
class Unresolved:
    """Disk/line separation failed at the current precision."""

    straddling: tuple  # indices into OrderedRootSet.roots


@dataclass(frozen=True)
class RealPartPosition:
    left: int
    axis: int
    right: int


def _log_abs(fr: Fraction) -> float:
    """log|fr| for nonzero Fraction, safe for arbitrarily large integers."""
    return math.log(abs(fr.numerator)) - math.log(fr.denominator)


def _initial_log_radii(coeffs: Sequence[Fraction]) -> list:
    """Per-root log-modulus estimates from the Newton polygon of the coefficients.

    Upper convex hull of (k, log|a_k|); each hull edge of horizontal span s
    contributes s starting log-moduli -slope.  This respects mixed root
    scales, which matter here: couplings around 1e10 put some roots at
    modulus ~10 and the constant term at ~1e10.  Logarithms, because a
    modulus may lie beyond the float range.
    """
    pts = [(k, _log_abs(c)) for k, c in enumerate(coeffs) if c != 0]
    hull = []  # upper hull, left to right
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) <= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    logs = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        logs.extend([(y1 - y2) / (x2 - x1)] * (x2 - x1))
    return logs


def _iterate(n: int, step: Callable, steps: int, nudge=None) -> bool:
    """At most `steps` Aberth-Ehrlich sweeps over the iterates 0..n-1.

    step(i) moves iterate i in place and returns whether it is still
    moving, i.e. whether its step was at least the tolerance relative to
    1 + |z|; a root is frozen once it is not, so the roots already found
    stop moving while a cluster converges.  Where step(i) returns None
    (the correction is undefined), nudge(i) moves iterate i on; without a
    nudge the iteration gives up and returns False.
    """
    active = range(n)
    for _ in range(steps):
        moving = []
        for i in active:
            moved = step(i)
            if moved is None:
                if nudge is None:
                    return False
                nudge(i)
                moved = True
            if moved:
                moving.append(i)
        active = moving
        if not active:
            break
    return True


def _aberth_step(i: int, z: list, cs: Sequence):
    """The Aberth-Ehrlich correction of z[i] in hardware floats for the
    polynomial with ascending coefficients cs; None at a zero of the
    derivative or where z[i] meets another iterate."""
    zi = z[i]
    pv, dv = cs[-1], 0j
    for c in reversed(cs[:-1]):
        dv = dv * zi + pv
        pv = pv * zi + c
    if dv == 0:
        return None
    s = 0j
    for j, zj in enumerate(z):
        if j != i:
            dz = zi - zj
            if dz == 0:
                return None
            s += 1 / dz
    newton = pv / dv
    denom = 1 - newton * s
    return newton if denom == 0 else newton / denom


def _float_seeds(coeffs: Sequence[Fraction], start: list, steps: int):
    """The Aberth iterates from `start` in hardware floats, or None when the
    floats overflow or two iterates collide."""
    try:
        z = list(start)
        cs = [float(c) for c in coeffs]

        def step(i):
            s = _aberth_step(i, z, cs)
            if s is None:
                return None
            z[i] -= s
            return abs(s) >= FLOAT_TOL * (1 + abs(z[i]))

        if not _iterate(len(z), step, steps):
            return None
    except (OverflowError, ZeroDivisionError):
        return None
    return z if all(cmath.isfinite(w) for w in z) else None


# A dyadic is a triple (a, b, e) of integers standing for (a + ib) * 2^e.

def _from_complex(w: complex, e: int = 0) -> tuple:
    """The dyadic w * 2^e: exact in the larger part of w, and to 53 bits
    relative to |w| in the other."""
    if w == 0:
        return 0, 0, 0
    k = math.frexp(max(abs(w.real), abs(w.imag)))[1] - 53
    return int(math.ldexp(w.real, -k)), int(math.ldexp(w.imag, -k)), e + k


def _add(z: tuple, w: tuple) -> tuple:
    (a, b, e), (c, d, f) = z, w
    if e > f:
        a, b, e = a << (e - f), b << (e - f), f
    else:
        c, d = c << (f - e), d << (f - e)
    return a + c, b + d, e


def _sub(z: tuple, w: tuple) -> tuple:
    return _add(z, (-w[0], -w[1], w[2]))


def _mul(z: tuple, w: tuple) -> tuple:
    (a, b, e), (c, d, f) = z, w
    return a * c - b * d, a * d + b * c, e + f


def _round(z: tuple, bits: int) -> tuple:
    """z rounded to `bits` bits relative to |z|."""
    a, b, e = z
    excess = max(abs(a), abs(b)).bit_length() - bits
    if excess <= 0:
        return z
    half = 1 << (excess - 1)
    return (a + half) >> excess, (b + half) >> excess, e + excess


def _scaled(z: tuple) -> tuple:
    """(c, k) with z = c * 2^k and c a complex float of modulus about 2^60."""
    a, b, e = z
    k = max(abs(a), abs(b)).bit_length() - 60
    if k >= 0:
        return complex(a >> k, b >> k), e + k
    return complex(a << -k, b << -k), e + k


def _log2_abs(z: tuple) -> float:
    """log2|z|, -inf at zero."""
    c, k = _scaled(z)
    return math.log2(abs(c)) + k if c else -math.inf


def _log2_one_plus(x: float) -> float:
    """log2(1 + 2^x)."""
    return x if x > 60 else math.log2(1 + 2.0 ** x)


def _fractions(z: tuple) -> tuple:
    a, b, e = z
    if e >= 0:
        return Fraction(a << e), Fraction(b << e)
    return Fraction(a, 1 << -e), Fraction(b, 1 << -e)


def _dyadic(re: Fraction, im: Fraction) -> tuple:
    """The dyadic re + i*im, for Fractions with power-of-two denominators."""
    k = max(re.denominator, im.denominator).bit_length() - 1
    return (re.numerator << (k + 1 - re.denominator.bit_length()),
            im.numerator << (k + 1 - im.denominator.bit_length()), -k)


def _horner(desc: Sequence[int], a: int, b: int, s: int) -> tuple:
    """(Re, Im) of H = s^d F(x) and of H' = s^(d-1) F'(x) at x = (a + ib)/s,
    for F of degree d with integer coefficients `desc` (descending), by
    homogenised Horner in integers."""
    hr, hi, dr, di = desc[0], 0, 0, 0
    spow = 1
    for c in desc[1:]:
        spow *= s
        dr, di = dr * a - di * b + hr, dr * b + di * a + hi
        hr, hi = hr * a - hi * b + c * spow, hr * b + hi * a
    return hr, hi, dr, di


def _newton(desc: Sequence[int], z: tuple, bits: int):
    """F(z)/F'(z) to `bits` bits relative to its modulus, F(z) and F'(z)
    exact by `_horner`; None where F' vanishes."""
    a, b, e = z
    s = 1
    if e >= 0:
        a, b = a << e, b << e
    else:
        s = 1 << -e
    hr, hi, dr, di = _horner(desc, a, b, s)
    den = s * (dr * dr + di * di)   # F/F' = H conj(H') / (s |H'|^2)
    if den == 0:
        return None
    nr, ni = hr * dr + hi * di, hi * dr - hr * di
    k = bits - max(abs(nr), abs(ni)).bit_length() + den.bit_length()
    if k >= 0:
        return (nr << k) // den, (ni << k) // den, -k
    den <<= -k
    return nr // den, ni // den, -k


def _dyadic_step(i: int, z: list, desc: Sequence[int], bits: int,
                 tol_bits: int):
    """The Aberth-Ehrlich correction of the dyadic z[i], in place, with z[i]
    rounded to `bits` bits; whether the step was at least 2^-tol_bits
    relative to 1 + |z[i]|, or None at a zero of the derivative or where
    z[i] (all but) meets another iterate.

    The Newton correction N = F/F' is exact up to its rounding.  The
    repulsion w = N * sum 1/(z[i] - z[j]) is summed in floats from the
    exact differences, and the step N/(1 - w) is taken as N + N*w/(1 - w)
    while |w| <= 1/2, so that near a root the float rounding enters only
    at second order.
    """
    zi = z[i]
    newton = _newton(desc, zi, bits + 4)
    if newton is None:
        return None
    if newton[0] == newton[1] == 0:
        return False
    nc, nk = _scaled(newton)
    w = 0j
    for j, zj in enumerate(z):
        if j != i:
            dz = _sub(zi, zj)
            if dz[0] == dz[1] == 0:
                return None
            c, k = _scaled(dz)
            if nk - k > 1000:
                return None
            w += nc / c * math.ldexp(1.0, nk - k)
    if abs(w) <= 0.5:
        q = _add((1, 0, 0), _from_complex(w / (1 - w)))
    else:
        q = (1, 0, 0) if w == 1 else _from_complex(1 / (1 - w))
    step = _mul(newton, q)
    z[i] = _round(_sub(zi, step), bits)
    return _log2_abs(step) + tol_bits >= _log2_one_plus(_log2_abs(z[i]))


def _aberth(coeffs: Sequence[Fraction], prec_bits: int, steps: int):
    """Aberth-Ehrlich candidates for a square-free polynomial (ascending coeffs),
    after at most `steps` sweeps.

    The iteration starts from the Newton-polygon points and runs first in
    hardware floats at FLOAT_BITS and START_BITS.  At FLOAT_BITS its
    iterates are the candidates as they are, or None when the floats
    overflow or two iterates collide; at START_BITS the dyadic sweeps
    (`_dyadic_step`) only polish them.  At escalated precision, or when the
    floats fail, the dyadic sweeps start from the points themselves.  Each
    iterate is kept to `prec_bits` bits relative to its modulus, so a part
    below that is zero.
    """
    d = len(coeffs) - 1
    logs = _initial_log_radii(coeffs)
    angles = [2 * math.pi * k / d + 0.7 for k in range(d)]
    seeds = None
    if prec_bits in (FLOAT_BITS, START_BITS):
        try:
            start = [math.exp(t) * cmath.exp(1j * phi) for t, phi in zip(logs, angles)]
        except OverflowError:
            start = None
        seeds = start and _float_seeds(coeffs, start, steps)
        if prec_bits == FLOAT_BITS:
            return seeds and [_fractions(_from_complex(w)) for w in seeds]
    if seeds:
        z = [_from_complex(w) for w in seeds]
    else:
        z = []
        for t, phi in zip(logs, angles):
            t2 = t / math.log(2)
            e = math.floor(t2)
            z.append(_from_complex(2.0 ** (t2 - e) * cmath.exp(1j * phi), e))
    desc = primitive_coeffs(coeffs[::-1])
    # centers only need to be good enough for the exact certificates to
    # separate; three quarters of the working precision leaves ample slack
    tol_bits = 3 * prec_bits // 4

    def nudge(i):
        k = math.ceil(_log2_one_plus(_log2_abs(z[i]))) - tol_bits
        z[i] = _round(_add(z[i], (i + 1, i + 1, k)), prec_bits)

    _iterate(d, lambda i: _dyadic_step(i, z, desc, prec_bits, tol_bits),
             steps, nudge)
    return [_fractions(w) for w in z]


def _sqrt(y: tuple, bits: int) -> tuple:
    """The principal square root of the dyadic y to about `bits` bits, with
    8 guard bits so that the centers a +- sqrt(y) lose nothing to it.

    The larger part is sqrt((|y| + |Re y|)/2) by `math.isqrt` and the smaller
    is Im y / (2 * larger), so nothing cancels; a real y gives a root that
    is real (y > 0) or purely imaginary (y < 0).
    """
    a, b, e = y
    if e % 2:
        a, b, e = a << 1, b << 1, e - 1
    u = max(bits + 8 - max(abs(a), abs(b)).bit_length() // 2, 0)
    m = math.isqrt((a * a + b * b) << (2 * u))                # |y| 2^u
    big = math.isqrt(((m + (abs(a) << u)) << u) >> 1)
    small = (abs(b) << (2 * u)) // (2 * big) if big else 0
    if a >= 0:
        return big, small if b >= 0 else -small, e // 2 - u
    return small, big if b >= 0 else -big, e // 2 - u


@dataclass(frozen=True)
class _NumericFactor:
    """A monic square-free factor f of the input, to be enclosed
    numerically; each of its roots has multiplicity `mult`.

    With a centre a (p even about its centroid), f(a + w) = g(w^2): the
    iteration runs on g, and `real` of its iterates, g's real-root count,
    are put on the real axis.  Without one, the iteration runs on f.
    """

    f: RationalPolynomial
    mult: int
    a: Fraction | None = None
    g: RationalPolynomial | None = None
    real: int = 0


def _even_about_centroid(p: RationalPolynomial):
    """(a, G) with p(a + w) = G(w^2) and a the centroid of p's roots, or None
    if p has no such symmetry."""
    d = p.degree
    if d % 2:
        return None
    a = -p.coeffs[-2] / (d * p.coeffs[-1])
    even, odd = p.shift(a).even_odd_split()
    return None if not odd.is_zero else (a, even)


def _divide_out_zero(p: RationalPolynomial) -> tuple:
    """(k, p / z^k) for the multiplicity k of the root 0 of p."""
    k = next(i for i, c in enumerate(p.coeffs) if c)
    return k, RationalPolynomial(p.coeffs[k:]) if k else p


def _split(p: RationalPolynomial, known=frozenset()) -> tuple:
    """The exact roots [(value, multiplicity)] and the `_NumericFactor`s of
    p, given the set `known` of p's rational roots found so far.

    Only the square-free decomposition runs here, on one Sturm chain.  If
    p(a + w) = G(w^2), it runs on G at half the degree, and each factor
    G_i of multiplicity i gets its real-root count from the chain's signs
    at +-infinity (from `count_real_roots` when G is not square-free).  A
    root y = 0 of G of multiplicity k gives a, of multiplicity 2k, and is
    split off first, since the Newton polygon seeds no iterate at 0.  A known root x gives
    the root y = (x - a)^2 of some G_i and the exact roots a +- |x - a| of
    multiplicity i.  What is left of G_i is enclosed through
    G_i((z - a)^2).  Otherwise the decomposition runs on p, after a root
    at 0 is split off, and each known root is divided out of its factor.
    """
    half = _even_about_centroid(p)
    exact, numeric = [], []
    if half is None:
        k, p = _divide_out_zero(p)
        if k:
            exact.append((Fraction(0), k))
        for f, mult in _decompose(p)[0]:
            for r in sorted(known):
                if not f(r):
                    f = f.divide_exact(RationalPolynomial((-r, 1)))
                    exact.append((r, mult))
            if f.degree >= 1:
                numeric.append(_NumericFactor(f.monic(), mult))
        return exact, numeric
    a, big_g = half
    k, big_g = _divide_out_zero(big_g)
    if k:
        exact.append((a, 2 * k))
    roots_of = {(x - a) ** 2: abs(x - a) for x in known}
    factors, chain = _decompose(big_g)
    for g, mult in factors:
        real = (_chain_variations_at_inf(chain, positive=False)
                - _chain_variations_at_inf(chain, positive=True)
                if chain is not None else count_real_roots(g))
        for y, s in sorted(roots_of.items()):
            if not g(y):
                g = g.divide_exact(RationalPolynomial((-y, 1)))
                real -= 1
                exact += [(a - s, mult), (a + s, mult)]
        if g.degree >= 1:
            g = g.monic()
            if 2 * g.degree == p.degree:   # g is G, so g((z - a)^2) is p
                f = p.monic()
            else:
                f = RationalPolynomial([c for gk in g.coeffs for c in (gk, 0)][:-1])
                f = f.shift(-a)
            numeric.append(_NumericFactor(f, mult, a, g, real))
    return exact, numeric


def _centers(job: _NumericFactor, prec_bits: int):
    """Candidate centers for the roots of job.f, or None where `_aberth`
    gives none (the floats failed at FLOAT_BITS).

    With a centre a, Aberth runs on g at half the degree and each root y of
    g gives a +- sqrt(y), the square root taken by `_sqrt` in integers and
    the sum with a exactly, so the pairs are exactly symmetric about a.  A
    real y gives centers on the real axis (y > 0) or on the line Re z = a
    (y < 0).
    """
    # the step budget of the full degree, also for g: the iterates close in
    # on a cluster of roots of g no faster than on the matching roots of f
    steps = 40 + 10 * job.f.degree + prec_bits // 2
    if job.a is None:
        return _aberth(job.f.coeffs, prec_bits, steps)
    ys = _aberth(job.g.coeffs, prec_bits, steps)
    if ys is None:
        return None
    # g has `real` real roots, and its iterates nearest the axis are those
    for k in sorted(range(len(ys)), key=lambda k: abs(ys[k][1]))[:job.real]:
        ys[k] = (ys[k][0], Fraction(0))
    out = []
    for y in ys:
        sr, si = _fractions(_sqrt(_dyadic(*y), prec_bits))
        out += [(job.a + sr, si), (job.a - sr, -si)]
    return out


def _certify(f: RationalPolynomial, centers: list, paired: bool = False):
    """Exact disk radii deg*|f(x)/f'(x)| at rational centers; None if any f' vanishes.

    Let F be the integer polynomial that is a rational multiple of f, of
    degree d, and x = (a + ib)/s.  `_horner` gives H = s^d*F(x) and
    H' = s^(d-1)*F'(x), so |f/f'|^2 = |H|^2/(s^2*|H'|^2), reduced as one
    Fraction at the end.  With `paired`, the centers come in pairs a +- t
    for an f with f(a + w) = g(w^2); then |f(a + t)| = |f(a - t)| and
    |f'(a + t)| = |f'(a - t)|, so each pair is evaluated once and shares
    its radius.
    """
    d = f.degree
    desc = primitive_coeffs(f.descending())
    radii = []
    for re, im in centers[::2] if paired else centers:
        s = math.lcm(re.denominator, im.denominator)
        hr, hi, dr, di = _horner(desc, re.numerator * (s // re.denominator),
                                 im.numerator * (s // im.denominator), s)
        den = dr * dr + di * di
        if den == 0:
            return None
        radius = d * _sqrt_upper_pow2(Fraction(hr * hr + hi * hi, s * s * den))
        radii += [radius, radius] if paired else [radius]
    return radii


def _pairwise_disjoint(disks: list) -> bool:
    """Exact check that closed disks (re, im, radius) are pairwise disjoint.

    Every coordinate is scaled by their common denominator, so the
    comparisons run on ints; all pairs are compared.
    """
    den = math.lcm(*(x.denominator for disk in disks for x in disk))
    ints = [[x.numerator * (den // x.denominator) for x in disk] for disk in disks]
    for i, (ri, ii, pi) in enumerate(ints):
        for rj, ij, pj in ints[i + 1:]:
            if (ri - rj) ** 2 + (ii - ij) ** 2 <= (pi + pj) ** 2:
                return False
    return True


def _enclose(exact_roots: list, numeric: list, prec: int, degree: int) -> tuple:
    """(the disks (re, im, radius) of each numeric factor, the precision):
    the working precision starts at `prec` and goes up until these disks
    and the exact roots are pairwise disjoint, from FLOAT_BITS to
    START_BITS and from there by doubling; PrecisionExceededError past
    MAX_BITS."""
    points = [(r, Fraction(0), Fraction(0)) for r, _ in exact_roots]
    while True:
        disks = []
        for job in numeric:
            centers = _centers(job, prec)
            if centers is None:
                break
            radii = _certify(job.f, centers, paired=job.a is not None)
            if radii is None:
                break
            disks.append([(re, im, rad) for (re, im), rad in zip(centers, radii)])
        else:
            if _pairwise_disjoint(points + [d for ds in disks for d in ds]):
                return disks, prec
        if prec >= MAX_BITS:
            raise PrecisionExceededError(
                f"root disks not separated at {prec} bits "
                f"(degree {degree}); inputs may have clustered roots")
        prec = START_BITS if prec == FLOAT_BITS else 2 * prec


def _rational_roots_in_disks(f: RationalPolynomial, disks: list) -> list:
    """The rational roots of the square-free f, given disks (re, im, radius)
    that hold one root of f each and every root between them.

    A real root lies in a disk that meets the real axis, so in that disk's
    shadow [re - radius, re + radius].  When these shadows are pairwise
    disjoint, each holds no real root but its own disk's: a second one
    would lie in a second disk, whose shadow it would share.  Both ends of
    each shadow are tested exactly, and `rational_roots` takes the open
    intervals, which are isolating or hold no root (a centre on the real
    axis has its root real, since the mirror image of the disk holds the
    same root).  Overlapping shadows, a case the precision loop leaves
    only for disks far wider than their distance to the axis, fall back to
    `rational_roots` on f's own isolation.
    """
    shadows = sorted((re - rad, re + rad) for re, im, rad in disks if abs(im) <= rad)
    if any(lo <= hi for (_, hi), (lo, _) in zip(shadows, shadows[1:])):
        return rational_roots(f)
    ic = primitive_coeffs(f.coeffs)
    found, intervals = [], []
    for lo, hi in shadows:
        ends = [x for x in (lo, hi) if not _sign_at(ic, x.numerator, x.denominator)]
        if ends:
            found += ends
        elif lo < hi:
            intervals.append((lo, hi))
    return found + rational_roots(f, intervals) if intervals else found


def certified_roots(p: RationalPolynomial,
                    precision_bits: int = START_BITS) -> OrderedRootSet:
    """All complex roots of p as certified disks covering every root.

    The working precision starts at `precision_bits` and doubles until the
    disks are pairwise disjoint.  At FLOAT_BITS the candidates are the
    hardware-float Aberth iterates as they are, certified like any others;
    when those disks do not separate, or the floats overflow or collide,
    the precision goes on to START_BITS.  The default START_BITS skips
    that rung.  `precision_bits` of the result is the rung at which the
    disks separated, and the radii are the bounds certified there: about
    2^-FLOAT_BITS relative to a root at the float rung.  Raises
    PrecisionExceededError if the disks do not separate by MAX_BITS
    (never returns silently inexact output).
    Rational roots are found exactly and carry radius zero: once the disks
    are disjoint, the rational roots of each numeric factor are read off
    the disks that meet the real axis (`_rational_roots_in_disks`).  If
    any is found, `_split` divides them out and the precision loop runs
    again from `precision_bits` on the rest.  If p is even about its
    centroid, the decomposition and the iteration run at half the degree
    (see `_split` and `_centers`); otherwise they run on p's own
    square-free factors.  Either way the disks are certified on the
    numeric factor itself.  A cluster (in the half-degree case, two roots
    of g close together) only raises the precision.  So does a rational
    root clustered with another root, since it is iterated before it is
    split off: one closer than about 2^-MAX_BITS * |x| to another root
    raises PrecisionExceededError.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    known = set()
    while True:
        exact_roots, numeric = _split(p, known)
        disks, prec = _enclose(exact_roots, numeric, precision_bits, p.degree)
        found = [x for job, ds in zip(numeric, disks)
                 for x in _rational_roots_in_disks(job.f, ds)]
        if found:
            known.update(found)
            continue
        roots = [CertifiedRoot(re=r, im=Fraction(0), radius=Fraction(0),
                               multiplicity=m) for r, m in exact_roots]
        roots += [CertifiedRoot(re=re, im=im, radius=rad, multiplicity=job.mult)
                  for job, ds in zip(numeric, disks) for re, im, rad in ds]
        roots.sort(key=lambda r: (r.re, r.im))
        return OrderedRootSet(roots=tuple(roots), precision_bits=prec)


def real_part_position(root_set: OrderedRootSet, threshold):
    """Count roots with real part <, =, > threshold, from disk positions.

    Exact-radius roots compare exactly.  If any positive-radius disk meets
    the vertical line Re = threshold the result is Unresolved: a root
    exactly on the line can never be separated numerically, so escalating
    precision blindly is no answer; the exact count is
    `stability.halfplane_count`.
    """
    thr = as_fraction(threshold)
    left = axis = right = 0
    straddling = []
    for idx, r in enumerate(root_set.roots):
        if r.radius == 0:
            if r.re < thr:
                left += r.multiplicity
            elif r.re > thr:
                right += r.multiplicity
            else:
                axis += r.multiplicity
        elif r.re + r.radius < thr:
            left += r.multiplicity
        elif r.re - r.radius > thr:
            right += r.multiplicity
        else:
            straddling.append(idx)
    if straddling:
        return Unresolved(straddling=tuple(straddling))
    return RealPartPosition(left=left, axis=axis, right=right)


@dataclass(frozen=True)
class TrajectoryPoint:
    c: Fraction
    label: int           # 1-based branch label
    re: Fraction
    im: Fraction
    radius: Fraction
    ambiguous: bool


def trajectory_table(poly_family: Callable[[Fraction], RationalPolynomial],
                     grid: Sequence, map=map) -> list:
    """Root trajectories of a one-parameter polynomial family over a grid.

    Labels are assigned by sorted order at the first grid point and carried
    forward by optimal nearest-neighbor assignment between consecutive grid
    points.  Crossings are not resolved analytically; a point is flagged
    ambiguous when a competing assignment would have been nearly as close
    (within the certified radii plus 25% of the matched distance).

    The polynomials are built in order; their root sets are computed by
    ``map``, which returns them in grid order.  Pass an executor's ``map`` to
    spread them over worker processes.  The labeling pass is sequential by
    construction.

    The root sets start at FLOAT_BITS: the rows print their coordinates as
    doubles, so the disks need to separate only at the precision that prints.
    A grid point whose float disks do not separate goes on to START_BITS
    and up.
    """
    grid = [as_fraction(c) for c in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    polys = [poly_family(c) for c in grid]
    # a partial of the module-level function pickles for worker processes
    at_float = functools.partial(certified_roots, precision_bits=FLOAT_BITS)
    return label_trajectories(grid, list(map(at_float, polys)))


def _min_cost_assignment(cost: Sequence[Sequence[float]]) -> list:
    """col_of_row of a minimum-cost perfect matching for a square cost matrix.

    The shortest augmenting path method (Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016), kept step for step
    as in its reference C++ implementation (``rectangular_lsap``), with the
    same floating-point operations and tie-breaking: conjugate and mirrored
    roots give exactly tied costs, and the labels must not change with the
    solver.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        # reversed, so that a constant matrix is matched to the identity
        remaining = list(range(n - 1, -1, -1))
        spc = [math.inf] * n
        rows_seen, cols_seen = [], []
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                # on a tie prefer a free column: it ends the path
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
                rows_seen.append(i)
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def label_trajectories(grid: Sequence, root_sets: Sequence) -> list:
    """Sequential nearest-neighbor labeling pass over root sets, one per grid point."""
    rows: list = []
    prev_pos = None  # label -> (x, y, radius) floats
    for c, rs in zip(grid, root_sets):
        pts = [(float(r.re), float(r.im), float(r.radius), r) for r in rs.expanded()]
        if prev_pos is None:
            labels = list(range(1, len(pts) + 1))
            flags = [False] * len(pts)
        else:
            if len(pts) != len(prev_pos):
                raise ValueError(f"root count changes from {len(prev_pos)} "
                                 f"to {len(pts)} at c = {c}")
            cost = [[math.hypot(px - qx, py - qy) for (qx, qy, _, _) in pts]
                    for (px, py, _) in prev_pos]
            labels = [0] * len(pts)
            flags = [False] * len(pts)
            for i, j in enumerate(_min_cost_assignment(cost)):
                labels[j] = i + 1
                d_best = cost[i][j]
                others = [cost[k][j] for k in range(len(prev_pos)) if k != i]
                if others:
                    d_second = min(others)
                    slack = prev_pos[i][2] + pts[j][2]
                    if d_second <= 1.25 * d_best + slack:
                        flags[j] = True
        order = sorted(range(len(pts)), key=lambda k: labels[k])
        prev_pos = [None] * len(pts)
        for k in order:
            x, y, rad, root = pts[k]
            prev_pos[labels[k] - 1] = (x, y, rad)
            rows.append(TrajectoryPoint(c=c, label=labels[k], re=root.re,
                                        im=root.im, radius=root.radius,
                                        ambiguous=flags[k]))
    return rows


def trajectory_csv_rows(points: Sequence[TrajectoryPoint]) -> list:
    header = ["c", "j", "re", "im", "radius", "ambiguous_flag"]
    body = [[str(pt.c), pt.label, repr(float(pt.re)), repr(float(pt.im)),
             repr(float(pt.radius)), int(pt.ambiguous)] for pt in points]
    return [header] + body
