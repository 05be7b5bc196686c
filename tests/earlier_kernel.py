"""Earlier orchestrations of the exact kernel and of the radial regions,
kept as test oracles.

The kernel's orchestration as it was before one signed remainder sequence
served each polynomial pair.  Only the orchestration is copied: the Fraction
Euclid gcd, the Yun decomposition, real-root count and half-plane count
built on it (the count builds the sequence of (P, Q) once for the gcd and
once more for the Cauchy index), and `exact_real_roots` with its own
decomposition-and-isolation loop.  The primitives they call (Sturm chains,
isolation, rational roots, Cauchy index, the critical-line split) are the
kernel's own.

The radial region as it was before the crossing sweep: one exact decision
at a simple rational inside every gap between boundary candidates and at
every rational candidate.  An irrational candidate with non-ESA gaps on
both sides is left undecided there.  The crossing sweep's piece assembly as
it was before the walk emitted the pieces itself: a list of cell verdicts
and one of candidate memberships, reversed and walked by index.

`sqrt_bounds`, the bracket of a square root that `from_quadratic_surd`
took before it computed its bracket inline.

`simplest_between`, the simplest rational in an interval, with which
`rational_roots` once probed every isolating interval before bisecting it;
here it picks the sample point inside a gap.

The quartic invariants as they were before they were taken on cleared
integer coefficients: the discriminant by `discriminant` (a Sylvester
resultant) and Pi and Lambda by Fraction arithmetic on the coefficients.

The Fraction determinant, the Sylvester resultant and the discriminant
built on it, which the program no longer uses: the Hurwitz data and the
quartic invariants are taken on cleared integers.

`char_poly`, the RationalPolynomial wrapper of the kernel's
`char_poly_coeffs`, which no caller in the program uses.  The kernels as
they were before the Hurwitz data stayed in integers: Berkowitz with
generator sums and a full Toeplitz product, the indicial product as a loop
over 2m linear factors, and `disc_q3` on the cleared coefficients of the
cofactor polynomial.
"""

import functools
import math
from fractions import Fraction

from esacert import esa
from esacert.exact import (AlgebraicReal, RationalPolynomial, as_fraction,
                           bareiss_det, char_poly_coeffs, gcd_and_cauchy_index,
                           isolate_real_roots, primitive_part, rational_roots,
                           real_root_factors, value_compare)
from esacert.exact.poly import (_chain_variations_at, _chain_variations_at_inf,
                                clear_denominators, sturm_chain)
from esacert.indicial import IndicialSpec
from esacert.stability import (QuarticInvariants, QuarticRootClass,
                               critical_line_parts, hurwitz_assemble)


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


def poly_gcd(a, b):
    """Monic gcd by Euclid on primitive parts; gcd(p, 0) = monic(p)."""
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


def square_free_part(p):
    if p.degree <= 0:
        return p.monic() if not p.is_zero else p
    return p.divide_exact(poly_gcd(p, p.derivative())).monic()


def square_free_decomposition(p):
    """Yun's algorithm with every gcd taken by `poly_gcd`."""
    if p.degree == 0:
        return []
    q = p.monic()
    dq = q.derivative()
    g = poly_gcd(q, dq)
    if g.degree == 0:
        return [(q, 1)]
    w = q.divide_exact(g)
    z = dq.divide_exact(g) - w.derivative()
    out = []
    i = 1
    while w.degree > 0:
        gi = poly_gcd(w, z)
        if gi.degree > 0:
            out.append((gi.monic(), i))
            w = w.divide_exact(gi)
            z = z.divide_exact(gi)
        z = z - w.derivative()
        i += 1
    return out


def count_real_roots(p, lo=None, hi=None):
    sf = square_free_part(p)
    if sf.degree <= 0:
        return 0
    chain = sturm_chain(sf)
    vlo = _chain_variations_at(chain, lo) if lo is not None \
        else _chain_variations_at_inf(chain, positive=False)
    vhi = _chain_variations_at(chain, hi) if hi is not None \
        else _chain_variations_at_inf(chain, positive=True)
    return vlo - vhi


def _count_square_free(f):
    P, Q = critical_line_parts(f)
    g = poly_gcd(P, Q)
    axis = count_real_roots(g)
    pairs = (g.degree - axis) // 2
    diff = -gcd_and_cauchy_index(P, Q)[1] if P.degree >= Q.degree \
        else gcd_and_cauchy_index(Q, P)[1]
    rest = f.degree - g.degree
    return pairs + (rest + diff) // 2, axis, pairs + (rest - diff) // 2


def halfplane_count(p):
    """(left, axis, right) of p relative to Re z = -1/2, with multiplicity."""
    left = axis = right = 0
    for f, mult in square_free_decomposition(p):
        fl, fa, fr = _count_square_free(f)
        left += mult * fl
        axis += mult * fa
        right += mult * fr
    return left, axis, right


def exact_real_roots(p):
    out = []
    for f, _mult in square_free_decomposition(p):
        g = f
        for r in rational_roots(f):
            g = g.divide_exact(RationalPolynomial((-r, 1)))
            out.append(r)
        if g.degree > 0:
            out.extend(AlgebraicReal(g, lo, hi, validate=False)
                       for lo, hi in isolate_real_roots(g))
    out.sort(key=functools.cmp_to_key(value_compare))
    return out


def sampled_region(m, n, l):
    """(candidates, membership per candidate, pieces) of the radial region;
    the membership is None where an irrational candidate has non-ESA gaps
    on both sides."""
    candidates = esa.exact_real_roots(esa._hurwitz_cached(m, n, l).det_in_c)
    bounds = [v.interval if isinstance(v, AlgebraicReal) else (v, v)
              for v in candidates]

    def decide(c):
        return esa.esa_decide_radial(IndicialSpec(m=m, n=n, l=l, c=c),
                                     with_certificate=False).is_esa

    k = len(candidates)
    samples = [Fraction(math.floor(bounds[0][0]) - 1)]
    for (_, gap_lo), (gap_hi, _) in zip(bounds, bounds[1:]):
        width = gap_hi - gap_lo
        samples.append(simplest_between(gap_lo + width / 8, gap_hi - width / 8))
    samples.append(Fraction(math.ceil(bounds[-1][1]) + 1))
    cell_esa = [decide(s) for s in samples]
    assert not cell_esa[0] and cell_esa[-1]

    member = []
    for i, v in enumerate(candidates):
        adjacent = cell_esa[i] or cell_esa[i + 1]
        if isinstance(v, AlgebraicReal):
            member.append(True if adjacent else None)
        else:
            is_in = decide(v)
            assert is_in or not adjacent, "closedness"
            member.append(is_in)
    return candidates, member, _assemble(candidates, cell_esa, member)


def swept_pieces(m, candidates, moves):
    """The pieces of the crossing sweep as it was before it emitted them
    while walking: the walk down from m roots left in the top cell fills
    the cell and membership lists, which are reversed and assembled."""
    left = m
    cell_esa, member = [True], []
    for inc, dec in reversed(moves):
        member.append(left + dec == m)
        left += dec - inc
        cell_esa.append(left == m)
    cell_esa.reverse()
    member.reverse()
    return _assemble(candidates, cell_esa, member)


def _assemble(candidates, cell_esa, member):
    """Maximal runs of ESA cells (cell i lies below candidate i), and each
    member candidate with non-ESA cells on both sides as a point."""
    k = len(candidates)
    pieces = []
    i = 0
    while i <= k:
        if not cell_esa[i]:
            if i < k and member[i] and not cell_esa[i + 1]:
                pieces.append(esa.RegionPiece(lo=candidates[i], hi=candidates[i]))
            i += 1
            continue
        run_start = i
        while i <= k and cell_esa[i]:
            i += 1
        hi = esa.POS_INF if i == k + 1 else candidates[i - 1]
        pieces.append(esa.RegionPiece(lo=candidates[run_start - 1], hi=hi))
    return pieces


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


def quartic_invariants(q):
    """QuarticInvariants of a rational quartic, every step in Fractions."""
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
        with_mult = sum(m * len(ivs) for _f, m, ivs in real_root_factors(q))
        cls = {0: QuarticRootClass.NO_REAL_ROOTS,
               2: QuarticRootClass.TWO_REAL_TWO_IMAGINARY,
               4: QuarticRootClass.FOUR_REAL}.get(with_mult, QuarticRootClass.OTHER)
    return QuarticInvariants(disc=disc, pi=pi, lam=lam, real_root_class=cls)


def det_fractions(rows: list) -> Fraction:
    """Exact determinant of a square matrix of Fractions."""
    if not rows:
        return Fraction(1)
    rows = [clear_denominators([as_fraction(c) for c in row]) for row in rows]
    return Fraction(bareiss_det([ints for ints, _ in rows]),
                    math.prod(den for _, den in rows))


def resultant(p: RationalPolynomial, q: RationalPolynomial) -> Fraction:
    """Resultant via the Sylvester matrix, exactly.

    With p = P / d_p and q = Q / d_q for integer P, Q and the least common
    denominators d_p, d_q, res(p, q) = res(P, Q) / (d_p^deg q * d_q^deg p),
    and res(P, Q) is the Bareiss determinant of an integer matrix.
    """
    m, n = p.degree, q.degree
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    size = m + n
    pd, dp = clear_denominators(p.descending())
    qd, dq = clear_denominators(q.descending())
    rows = [[0] * i + pd + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + qd + [0] * (size - n - 1 - i) for i in range(m)]
    return Fraction(bareiss_det(rows), dp ** n * dq ** m)


def discriminant(p: RationalPolynomial) -> Fraction:
    """disc(p) = (-1)^(d(d-1)/2) * res(p, p') / lc(p)."""
    d = p.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.leading


def char_poly(rows: list) -> RationalPolynomial:
    """det(x I - A) of a square matrix of ints or Fractions
    (char_poly_coeffs)."""
    return RationalPolynomial(char_poly_coeffs(rows))


def berkowitz_coeffs(rows: list) -> list:
    """Ascending coefficients of det(x I - A), by Berkowitz's algorithm."""
    desc = [1]  # descending coefficients for the empty leading block
    for r in range(len(rows)):
        head = rows[r][:r]
        col = [1, -rows[r][r]]
        x = [rows[i][r] for i in range(r)]
        for _ in range(r):
            col.append(-sum(a * b for a, b in zip(head, x)))
            x = [sum(a * b for a, b in zip(rows[i][:r], x)) for i in range(r)]
        desc = [sum(col[i - j] * desc[j] for j in range(min(i, r) + 1))
                for i in range(r + 2)]
    return desc[::-1]


def indicial_product(m: int, nu: int, shift=0) -> list:
    """Ascending integer coefficients of prod_k (2w + 2 shift - k), one
    linear factor at a time."""
    twice = 2 * as_fraction(shift)
    if twice.denominator != 1:
        raise ValueError("shift must be a half-integer")
    coeffs = [1]
    for j in range(1, m + 1):
        for k in (nu + 4 * j - 5, -(nu - 4 * j + 1)):
            c0 = twice.numerator - k   # multiply by 2w + c0
            coeffs = ([c0 * coeffs[0]]
                      + [c0 * hi + 2 * lo for lo, hi in zip(coeffs, coeffs[1:])]
                      + [2 * coeffs[-1]])
    return coeffs


def disc_q3(n: int, l: int) -> Fraction:
    """a1^2 - 4 a2 a0 on the cleared coefficients of the m = 3 cofactor."""
    q = hurwitz_assemble(3, n, l).q_factor
    if q.degree != 2:
        raise AssertionError("cofactor of the m=3 family must be quadratic")
    (a2, a1, a0), den = clear_denominators(q.descending())
    return Fraction(a1 * a1 - 4 * a2 * a0, den * den)
