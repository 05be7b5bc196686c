import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esacert.exact import (AlgebraicReal, RationalPolynomial, bareiss_det,
                           cauchy_root_bound, char_poly_coeffs, count_real_roots,
                           gcd_and_cauchy_index, isolate_real_roots,
                           poly_gcd, rational_roots,
                           square_free_decomposition, square_free_part)
from esacert.exact import poly
from esacert.exact.poly import real_root_factors, sturm_chain
from conftest import binomial_shift, rand_fraction, rand_poly
from earlier_kernel import (berkowitz_coeffs, char_poly, det_fractions,
                            discriminant, resultant, simplest_between)

Z = RationalPolynomial.variable()


class TestArithmetic:
    def test_trim_and_degree(self):
        assert RationalPolynomial((1, 2, 0, 0)).degree == 1
        assert RationalPolynomial(()).is_zero
        assert RationalPolynomial((0,)).is_zero

    def test_ring_identities(self, rng):
        for _ in range(30):
            a = rand_poly(rng, rng.randint(0, 5))
            b = rand_poly(rng, rng.randint(0, 5))
            c = rand_poly(rng, rng.randint(0, 5))
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)

    def test_divmod_roundtrip(self, rng):
        for _ in range(25):
            a = rand_poly(rng, rng.randint(2, 7))
            b = rand_poly(rng, rng.randint(1, 3))
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree

    def test_divide_exact_raises_on_remainder(self):
        with pytest.raises(ValueError):
            (Z * Z + 1).divide_exact(Z - 1)

    def test_evaluation_matches_expansion(self, rng):
        p = (Z - 2) * (Z + F(1, 3)) * (Z - F(7, 2))
        for _ in range(10):
            x = rand_fraction(rng)
            assert p(x) == (x - 2) * (x + F(1, 3)) * (x - F(7, 2))


def fraction_rational_roots(p, intervals):
    """`rational_roots` with every candidate tested by Fraction Horner and
    every interval of positive width probed with its simplest rational
    before it is bisected."""
    ic = poly.primitive_coeffs(p.coeffs)
    lc = abs(ic[-1])
    out = []
    for lo, hi in intervals:
        if lo < hi:
            w = hi - lo
            cand = simplest_between(lo + w / 8, hi - w / 8)
            if p(cand) == 0:
                lo = hi = cand
            else:
                lo, hi = poly._refine(ic, lo, hi, F(1, lc))
        if lo < hi:
            cand = F(math.floor(lo * lc) + 1, lc)
            if cand < hi and p(cand) == 0:
                lo = hi = cand
        if lo == hi:
            out.append(lo)
    return sorted(out)


class TestShift:
    def test_identity_shift(self):
        p = Z ** 2
        assert p.shift(0) == p

    def test_roots_translate(self, rng):
        # roots(p(z + a)) = roots(p) - a, on products of rational-root factors
        for _ in range(20):
            roots = [rand_fraction(rng, -6, 6, 5) for _ in range(rng.randint(1, 5))]
            p = RationalPolynomial.from_roots(roots)
            a = rand_fraction(rng, -4, 4, 5)
            q = p.shift(a)
            for r in roots:
                assert q(r - a) == 0

    def test_quartic_family_centering_pattern(self, rng):
        # centering the two-parameter quartic at -1/2 produces the pattern
        # z^4 - 8 z^3 + (43/2 + 2c1) z^2 - (22 + 8c1) z + (105/16 + 19c1/2 + c2)
        from esacert.indicial import euler_quartic
        for _ in range(10):
            c1 = rand_fraction(rng)
            c2 = rand_fraction(rng)
            got = euler_quartic(c1, c2).shift(F(-1, 2)).descending()
            want = (F(1), F(-8), F(43, 2) + 2 * c1, F(-22) - 8 * c1,
                    F(105, 16) + F(19, 2) * c1 + c2)
            assert got == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.fractions(-10 ** 9, 10 ** 9, max_denominator=10 ** 6),
                    max_size=13),
           st.fractions(-10 ** 4, 10 ** 4, max_denominator=999).filter(
               lambda a: a.denominator & (a.denominator - 1)))
    def test_integer_shift_matches_binomial_sum(self, coeffs, a):
        # a has a denominator that is not a power of two
        p = RationalPolynomial(coeffs)
        assert p.shift(a).coeffs == binomial_shift(p, a).coeffs

    def test_even_odd_split(self, rng):
        for _ in range(10):
            p = rand_poly(rng, rng.randint(0, 7))
            e, o = p.even_odd_split()
            x = rand_fraction(rng)
            assert e(x * x) + x * o(x * x) == p(x)


class TestGcdAndSquareFree:
    def test_gcd_common_factor(self, rng):
        for _ in range(15):
            g = rand_poly(rng, rng.randint(1, 3))
            a = g * rand_poly(rng, rng.randint(0, 3))
            b = g * rand_poly(rng, rng.randint(0, 3))
            d = poly_gcd(a, b)
            assert d.degree >= g.degree
            assert a % d == RationalPolynomial.zero()
            assert b % d == RationalPolynomial.zero()

    def test_gcd_coprime(self):
        assert poly_gcd(Z - 1, Z + 1).degree == 0

    def test_square_free_decomposition_example(self):
        p = (Z - 1) ** 2 * (Z + 3)
        dec = square_free_decomposition(p)
        assert sorted((f.degree, m) for f, m in dec) == [(1, 1), (1, 2)]
        by_mult = {m: f for f, m in dec}
        assert by_mult[2](F(1)) == 0
        assert by_mult[1](F(-3)) == 0

    def test_real_root_factors_isolate_the_decomposition(self, rng, monkeypatch):
        for _ in range(25):
            p = RationalPolynomial.one()
            for mult in range(1, rng.randint(2, 4)):
                p = p * rand_poly(rng, rng.randint(1, 3)) ** mult
            factors = real_root_factors(p)
            assert [(f, m) for f, m, _ivs in factors] == square_free_decomposition(p)
            for f, _m, intervals in factors:
                assert intervals == isolate_real_roots(f)
        # a square-free p: the chain that shows it square-free also isolates
        runs = []

        def spy(q):
            runs.append(q)
            return sturm_chain(q)

        monkeypatch.setattr(poly, "sturm_chain", spy)
        p = (Z - 1) * (Z * Z - 2) * (3 * Z + 5)
        [(f, m, intervals)] = real_root_factors(p)
        assert (f, m, len(intervals)) == (p.monic(), 1, 4)
        assert runs == [p.monic()]

    def test_square_free_part(self):
        p = (Z - 2) ** 3 * (Z ** 2 + 1)
        sf = square_free_part(p)
        assert sf.degree == 3
        assert sf(F(2)) == 0


class TestSturm:
    def test_isolate_sqrt2(self):
        [(_f, _m, intervals)] = real_root_factors(Z * Z - 2)
        assert len(intervals) == 2
        neg, pos = intervals
        assert neg[0] <= neg[1] <= pos[0] <= pos[1]  # sorted, not overlapping
        assert pos[0] < F(1414214, 1000000) < pos[1] or pos[0] == pos[1]
        assert neg[0] < F(-1414214, 1000000) < neg[1] or neg[0] == neg[1]

    def test_multiplicities(self):
        res = real_root_factors((Z - 1) ** 2 * (Z + 3))
        mults = sorted(m for _f, m, intervals in res for _iv in intervals)
        assert mults == [1, 2]

    def test_count_matches_isolation(self, rng):
        for _ in range(20):
            p = rand_poly(rng, rng.randint(1, 8))
            got = sum(1 for _ in isolate_real_roots(square_free_part(p)))
            assert got == count_real_roots(p)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            real_root_factors(RationalPolynomial.zero())

    def test_refine_nests(self):
        widths = [F(1, 10), F(1, 100), F(1, 10 ** 6)]
        root = AlgebraicReal(Z * Z - 2, 1, 2)
        prev = root.interval
        for w in widths:
            cur = root.refine(w)
            assert prev[0] <= cur[0] and cur[1] <= prev[1]
            assert cur[1] - cur[0] <= w
            prev = cur
        lo, hi = prev
        assert lo < F(141421356, 10 ** 8) < hi

    def test_cauchy_bound_contains_roots(self, rng):
        for _ in range(10):
            roots = [rand_fraction(rng, -9, 9, 4) for _ in range(4)]
            p = RationalPolynomial.from_roots(roots)
            b = cauchy_root_bound(p)
            assert all(abs(r) < b for r in roots)


class TestCauchyIndex:
    def test_simple_poles(self):
        # 1/z jumps from -inf to +inf at 0; -1/z the other way
        assert gcd_and_cauchy_index(Z, RationalPolynomial.one())[1] == 1
        assert gcd_and_cauchy_index(Z, RationalPolynomial.constant(-1))[1] == -1
        # 1/z^2 has a pole without a jump
        assert gcd_and_cauchy_index(Z * Z, RationalPolynomial.one())[1] == 0

    def test_derivative_quotient_counts_real_roots(self, rng):
        for _ in range(30):
            p = rand_poly(rng, rng.randint(1, 7))
            assert gcd_and_cauchy_index(p, p.derivative())[1] == count_real_roots(p)

    def test_common_factor_cancels(self, rng):
        for _ in range(20):
            a = rand_poly(rng, rng.randint(1, 5))
            b = rand_poly(rng, rng.randint(0, 4))
            g = Z - rand_fraction(rng)
            assert gcd_and_cauchy_index(a * g, b * g)[1] == \
                gcd_and_cauchy_index(a, b)[1]

    def test_numerator_of_higher_degree(self):
        # (z^2 + 1)/z = z + 1/z: same jump at 0 as 1/z
        assert gcd_and_cauchy_index(Z, Z * Z + 1)[1] == 1

    def test_zero_numerator_and_denominator(self):
        assert gcd_and_cauchy_index(Z ** 3 - Z, RationalPolynomial.zero())[1] == 0
        with pytest.raises(ValueError):
            gcd_and_cauchy_index(RationalPolynomial.zero(), Z)


@st.composite
def rational_polys(draw, max_degree=6):
    coeff = st.fractions(-50, 50, max_denominator=12)
    cs = draw(st.lists(coeff, min_size=1, max_size=max_degree))
    return RationalPolynomial(cs + [draw(coeff.filter(bool))])


def _fraction_sylvester(p, q) -> list:
    """The Sylvester matrix of p and q, with Fraction entries."""
    m, n = p.degree, q.degree
    pd, qd = list(p.descending()), list(q.descending())
    return ([[F(0)] * i + pd + [F(0)] * (n - 1 - i) for i in range(n)]
            + [[F(0)] * i + qd + [F(0)] * (m - 1 - i) for i in range(m)])


class TestResultant:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(rational_polys(), rational_polys(),
           st.fractions(-30, 30, max_denominator=9).filter(bool),
           st.fractions(-30, 30, max_denominator=9).filter(bool))
    def test_integer_sylvester_matches_fraction_determinant(self, p, q, lam, mu):
        res = resultant(p, q)
        assert res == det_fractions(_fraction_sylvester(p, q))
        assert resultant(p * lam, q * mu) == lam ** q.degree * mu ** p.degree * res

    def test_quadratic_discriminant(self, rng):
        for _ in range(15):
            b, c = rand_fraction(rng), rand_fraction(rng)
            p = RationalPolynomial((c, b, 1))
            assert discriminant(p) == b * b - 4 * c

    def test_resultant_vanishes_iff_common_root(self):
        assert resultant((Z - 1) * (Z + 2), (Z - 1) * (Z - 5)) == 0
        assert resultant(Z - 1, Z - 2) != 0

    def test_quartic_discriminant_explicit_formula(self, rng):
        # independent oracle: the full 16-term expansion in the coefficients
        def explicit(a, b, c, d, e):
            return (256 * a ** 3 * e ** 3 - 192 * a ** 2 * b * d * e ** 2
                    - 128 * a ** 2 * c ** 2 * e ** 2 + 144 * a ** 2 * c * d ** 2 * e
                    - 27 * a ** 2 * d ** 4 + 144 * a * b ** 2 * c * e ** 2
                    - 6 * a * b ** 2 * d ** 2 * e - 80 * a * b * c ** 2 * d * e
                    + 18 * a * b * c * d ** 3 + 16 * a * c ** 4 * e
                    - 4 * a * c ** 3 * d ** 2 - 27 * b ** 4 * e ** 2
                    + 18 * b ** 3 * c * d * e - 4 * b ** 3 * d ** 3
                    - 4 * b ** 2 * c ** 3 * e + b ** 2 * c ** 2 * d ** 2)

        for _ in range(20):
            q = rand_poly(rng, 4)
            a, b, c, d, e = q.descending()
            assert discriminant(q) == explicit(a, b, c, d, e)


class TestDeterminant:
    def test_det_fractions_3x3_rule_of_sarrus(self, rng):
        for _ in range(10):
            a = [[rand_fraction(rng) for _ in range(3)] for _ in range(3)]
            sarrus = (a[0][0] * a[1][1] * a[2][2] + a[0][1] * a[1][2] * a[2][0]
                      + a[0][2] * a[1][0] * a[2][1] - a[0][2] * a[1][1] * a[2][0]
                      - a[0][0] * a[1][2] * a[2][1] - a[0][1] * a[1][0] * a[2][2])
            assert det_fractions(a) == sarrus


class TestCharPoly:
    def test_empty_matrix(self):
        assert char_poly([]) == RationalPolynomial.one()

    def test_matches_determinants_at_enough_points(self, rng):
        # det(x I - A) has degree n, so agreement at n + 1 points is identity
        for n in range(1, 7):
            a = [[rand_fraction(rng, -6, 6, 5) for _ in range(n)] for _ in range(n)]
            chi = char_poly(a)
            assert chi.degree == n and chi.leading == 1
            for x in [F(k) for k in range(n + 1)]:
                shifted = [[(x if i == j else 0) - e for j, e in enumerate(row)]
                           for i, row in enumerate(a)]
                assert chi(x) == det_fractions(shifted)

    def test_integer_matrix_stays_in_integers(self, rng):
        for n in range(1, 7):
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            chi = char_poly(a)
            assert chi == char_poly([[F(e) for e in row] for row in a])
            assert all(c.denominator == 1 for c in chi.coeffs)
            assert chi(F(0)) == (-1) ** n * bareiss_det(a)

    def test_companion_matrix(self, rng):
        for degree in range(1, 7):
            p = rand_poly(rng, degree).monic()
            companion = [[F(0)] * degree for _ in range(degree)]
            for i in range(1, degree):
                companion[i][i - 1] = F(1)
            for i in range(degree):
                companion[i][degree - 1] = -p.coeffs[i]
            assert char_poly(companion) == p

    @staticmethod
    def _sparse_matrix(rng, n, entry):
        # about half the entries zero, and now and then a zero row
        a = [[entry() if rng.random() < 0.5 else 0 for _ in range(n)]
             for _ in range(n)]
        if n and rng.random() < 0.3:
            a[rng.randrange(n)] = [0] * n
        return a

    def test_matches_earlier_berkowitz(self, rng):
        for n in range(9):
            for _ in range(12):
                ints = self._sparse_matrix(rng, n, lambda: rng.randint(-9, 9))
                got = char_poly_coeffs(ints)
                assert got == berkowitz_coeffs(ints)
                assert all(type(c) is int for c in got)
                fracs = self._sparse_matrix(rng, n, lambda: rand_fraction(rng, -6, 6, 5))
                assert (RationalPolynomial(char_poly_coeffs(fracs))
                        == RationalPolynomial(berkowitz_coeffs(fracs)))

    def test_matches_determinants_of_x_minus_a(self, rng):
        # degree n, so agreement at n + 1 integer points is identity
        for n in range(9):
            for entry in (lambda: rng.randint(-9, 9),
                          lambda: rand_fraction(rng, -6, 6, 5)):
                a = self._sparse_matrix(rng, n, entry)
                chi = RationalPolynomial(char_poly_coeffs(a))
                assert chi.degree == n and chi.leading == 1
                for x in range(-n // 2, n + 1 - n // 2):
                    shifted = [[(x if i == j else 0) - e for j, e in enumerate(row)]
                               for i, row in enumerate(a)]
                    if any(isinstance(e, F) for row in a for e in row):
                        want = det_fractions(shifted)
                    else:
                        want = bareiss_det(shifted) if n else 1
                    assert chi(F(x)) == want


class TestRationalRecognition:
    def test_simplest_between(self):
        assert simplest_between(F(3, 10), F(6, 10)) == F(1, 2)
        assert simplest_between(F(31, 10), F(39, 10)) == F(7, 2)
        assert simplest_between(F(-1, 2), F(1, 3)) == 0
        assert simplest_between(F(2), F(3)) == 2
        assert simplest_between(F(-39, 10), F(-31, 10)) == F(-7, 2)

    def test_rational_roots_found(self):
        p = RationalPolynomial.from_roots([F(19, 2), F(-105, 16), F(36864), F(-20480, 27)])
        assert rational_roots(p) == sorted([F(19, 2), F(-105, 16), F(36864), F(-20480, 27)])
        assert rational_roots(p) == fraction_rational_roots(p, isolate_real_roots(p))

    def test_rational_roots_no_false_positives(self, rng):
        for _ in range(10):
            p = rand_poly(rng, rng.randint(2, 6))
            sf = square_free_part(p)
            for r in rational_roots(sf):
                assert sf(r) == 0
            assert rational_roots(sf) == fraction_rational_roots(sf, isolate_real_roots(sf))

    def test_irrational_roots_simply_omitted(self):
        assert rational_roots(Z * Z - 2) == []
        assert fraction_rational_roots(Z * Z - 2, isolate_real_roots(Z * Z - 2)) == []

    @pytest.mark.parametrize("root", [F(-3, 7), F(2, 5), F(5, 3)])
    def test_small_denominator_root_in_a_wide_interval(self, root):
        # the case a simplest-rational probe finds at once: a root with a
        # small denominator in an isolating interval far wider than 1/|lc|;
        # bisection alone must find it too
        p = (Z - root) * (10 ** 12 * Z * Z - 2)
        intervals = isolate_real_roots(p)
        lc = abs(poly.primitive_coeffs(p.coeffs)[-1])
        (lo, hi), = [iv for iv in intervals if iv[0] <= root <= iv[1]]
        assert (hi - lo) * lc > 10 ** 9
        assert fraction_rational_roots(p, intervals) == [root]
        assert rational_roots(p, intervals) == [root]
        assert rational_roots(p, [(lo, hi)]) == [root]

    def test_root_off_the_probe_points(self):
        # -15 sits 1/17 of the way along the Cauchy interval [-17, 17], so
        # no bisection point of that interval is -15
        assert rational_roots(Z + 15) == [F(-15)]
        assert fraction_rational_roots(Z + 15, isolate_real_roots(Z + 15)) == [F(-15)]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sets(st.builds(F, st.integers(-10 ** 12, 10 ** 12),
                             st.integers(1, 10 ** 9)), min_size=1, max_size=4),
           st.integers(-50, 50), st.integers(-10 ** 6, 10 ** 6),
           st.integers(0, 3))
    def test_same_roots_as_fraction_tests(self, roots, a, b, squeeze):
        # on the isolating intervals and on the same intervals bisected to
        # 2/lc or below 1/lc, the integer sign tests give the list the
        # Fraction Horner tests (with the probe at every width) give
        if b >= 0 and math.isqrt(b) ** 2 == b:
            b = -b - 1
        p = RationalPolynomial.from_roots(roots) * ((Z - a) ** 2 - b)
        intervals = isolate_real_roots(p)
        lc = abs(poly.primitive_coeffs(p.coeffs)[-1])
        ic = poly.primitive_coeffs(p.coeffs)
        near = [poly._refine(ic, lo, hi, F(2, lc)) for lo, hi in intervals]
        narrow = [poly._refine(ic, lo, hi, F(1, lc * 2 ** squeeze))
                  for lo, hi in intervals]
        for ivs in (intervals, near, narrow):
            assert rational_roots(p, ivs) == fraction_rational_roots(p, ivs)
        assert rational_roots(p) == sorted(roots)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sets(st.builds(F, st.integers(-10 ** 12, 10 ** 12),
                             st.integers(1, 10 ** 9)), min_size=1, max_size=4),
           st.integers(-50, 50), st.integers(-10 ** 6, 10 ** 6))
    def test_complete_on_products_with_large_denominators(self, roots, a, b):
        # the quadratic (z - a)^2 - b has no rational root for non-square b
        if b >= 0 and math.isqrt(b) ** 2 == b:
            b = -b - 1
        p = RationalPolynomial.from_roots(roots) * ((Z - a) ** 2 - b)
        assert rational_roots(p) == sorted(roots)
