import random
from fractions import Fraction as F

import pytest

from esacert.exact import (RationalPolynomial, cauchy_index, cauchy_root_bound,
                           char_poly, count_real_roots, det_fractions,
                           discriminant, isolate_real_roots,
                           poly_gcd, poly_shift, rational_roots,
                           refine_isolating_interval, resultant,
                           simplest_between, square_free_decomposition,
                           square_free_part, sturm_isolate)
from conftest import rand_fraction, rand_poly

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


class TestShift:
    def test_identity_shift(self):
        p = Z ** 2
        assert poly_shift(p, 0) == p

    def test_roots_translate(self, rng):
        # roots(p(z + a)) = roots(p) - a, on products of rational-root factors
        for _ in range(20):
            roots = [rand_fraction(rng, -6, 6, 5) for _ in range(rng.randint(1, 5))]
            p = RationalPolynomial.from_roots(roots)
            a = rand_fraction(rng, -4, 4, 5)
            q = poly_shift(p, a)
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

    def test_compose_affine_consistent_with_shift(self, rng):
        for _ in range(10):
            p = rand_poly(rng, 5)
            a = rand_fraction(rng)
            assert p.compose_affine(a, F(1)) == p.shift(a)
            x = rand_fraction(rng)
            assert p.compose_affine(F(2), F(-3))(x) == p(2 - 3 * x)

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

    def test_square_free_part(self):
        p = (Z - 2) ** 3 * (Z ** 2 + 1)
        sf = square_free_part(p)
        assert sf.degree == 3
        assert sf(F(2)) == 0


class TestSturm:
    def test_isolate_sqrt2(self):
        intervals = [iv for iv, _m in sturm_isolate(Z * Z - 2)]
        assert len(intervals) == 2
        neg, pos = intervals
        assert neg[0] <= -1 and neg[1] >= -2 or True  # containment checked below
        assert pos[0] < F(1414214, 1000000) < pos[1] or pos[0] == pos[1]
        assert neg[0] < F(-1414214, 1000000) < neg[1] or neg[0] == neg[1]

    def test_multiplicities(self):
        res = sturm_isolate((Z - 1) ** 2 * (Z + 3))
        mults = sorted(m for _iv, m in res)
        assert mults == [1, 2]

    def test_count_matches_isolation(self, rng):
        for _ in range(20):
            p = rand_poly(rng, rng.randint(1, 8))
            got = sum(1 for _ in isolate_real_roots(square_free_part(p)))
            assert got == count_real_roots(p)

    def test_disjoint_intervals_for_close_roots(self):
        p = (Z - F(1, 1000)) * (Z - F(2, 1000)) * (Z + 5)
        res = sturm_isolate(p)
        assert len(res) == 3
        ivs = [iv for iv, _m in res]
        for (a, b), (c, d) in zip(ivs, ivs[1:]):
            assert b < c or (a == b and c == d and b != c)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sturm_isolate(RationalPolynomial.zero())

    def test_refine_nests(self):
        lo, hi = F(1), F(2)
        widths = [F(1, 10), F(1, 100), F(1, 10 ** 6)]
        p = Z * Z - 2
        prev = (lo, hi)
        for w in widths:
            cur = refine_isolating_interval(p, *prev, w)
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
        assert cauchy_index(Z, RationalPolynomial.one()) == 1
        assert cauchy_index(Z, RationalPolynomial.constant(-1)) == -1
        # 1/z^2 has a pole without a jump
        assert cauchy_index(Z * Z, RationalPolynomial.one()) == 0

    def test_derivative_quotient_counts_real_roots(self, rng):
        for _ in range(30):
            p = rand_poly(rng, rng.randint(1, 7))
            assert cauchy_index(p, p.derivative()) == count_real_roots(p)

    def test_common_factor_cancels(self, rng):
        for _ in range(20):
            a = rand_poly(rng, rng.randint(1, 5))
            b = rand_poly(rng, rng.randint(0, 4))
            g = Z - rand_fraction(rng)
            assert cauchy_index(a * g, b * g) == cauchy_index(a, b)

    def test_numerator_of_higher_degree(self):
        # (z^2 + 1)/z = z + 1/z: same jump at 0 as 1/z
        assert cauchy_index(Z, Z * Z + 1) == 1

    def test_zero_numerator_and_denominator(self):
        assert cauchy_index(Z ** 3 - Z, RationalPolynomial.zero()) == 0
        with pytest.raises(ValueError):
            cauchy_index(RationalPolynomial.zero(), Z)


class TestResultant:
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

    def test_companion_matrix(self, rng):
        for degree in range(1, 7):
            p = rand_poly(rng, degree).monic()
            companion = [[F(0)] * degree for _ in range(degree)]
            for i in range(1, degree):
                companion[i][i - 1] = F(1)
            for i in range(degree):
                companion[i][degree - 1] = -p.coeffs[i]
            assert char_poly(companion) == p


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

    def test_rational_roots_no_false_positives(self, rng):
        for _ in range(10):
            p = rand_poly(rng, rng.randint(2, 6))
            sf = square_free_part(p)
            for r in rational_roots(sf):
                assert sf(r) == 0

    def test_irrational_roots_simply_omitted(self):
        assert rational_roots(Z * Z - 2) == []
