import math
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esacert.exact import RationalPolynomial
from esacert.frobenius import characteristic_exponents
from esacert.indicial import (EulerParams, IndicialSpec, build_indicial,
                              euler_params, euler_quartic, indicial_base,
                              indicial_product)
from esacert.roots import certified_roots
from series_oracle import _mpf_of, quartic_roots_closed_form
import earlier_kernel
from conftest import rand_fraction


class TestBuildIndicial:
    def test_dimension_three_matches_quartic_family(self, rng):
        # (m, n, l) = (2, 3, 0) maps to (c1, c2) = (0, c)
        for _ in range(8):
            c = rand_fraction(rng)
            assert build_indicial(IndicialSpec(2, 3, 0, c)) == euler_quartic(0, c)

    def test_tenth_order_zero_coupling(self):
        p = build_indicial(IndicialSpec(5, 20, 0, F(0)))
        for r in (F(-17, 2), F(-13, 2), F(-9, 2), F(-5, 2), F(-1, 2),
                  F(19, 2), F(23, 2), F(27, 2), F(31, 2), F(35, 2)):
            assert p(r) == 0
        assert p(F(-1, 2)) == 0

    def test_coupling_enters_only_the_constant(self, rng):
        for _ in range(8):
            m = rng.randint(1, 5)
            n = rng.randint(2, 20)
            l = rng.randint(0, 5)
            c = rand_fraction(rng)
            diff = build_indicial(IndicialSpec(m, n, l, c)) \
                - build_indicial(IndicialSpec(m, n, l, F(0)))
            assert diff == RationalPolynomial.constant(c)

    def test_degree_and_leading_sign(self, rng):
        for m in range(1, 6):
            p = build_indicial(IndicialSpec(m, 7, 1, F(3)))
            assert p.degree == 2 * m
            assert p.leading == (1 if m % 2 == 0 else -1)

    def test_root_sum_is_m_times_2m_minus_1(self, rng):
        # exact coefficient identity: sum of exponents = m(2m - 1)
        for _ in range(10):
            m = rng.randint(1, 6)
            n = rng.randint(2, 20)
            l = rng.randint(0, 8)
            p = build_indicial(IndicialSpec(m, n, l, rand_fraction(rng)))
            s = -p.coeffs[2 * m - 1] / p.leading
            assert s == m * (2 * m - 1)

    def test_zero_coupling_roots_real_symmetric(self, rng):
        # at c = 0 the exponent multiset is real and symmetric about m - 1/2
        for _ in range(10):
            m = rng.randint(1, 5)
            n = rng.randint(2, 18)
            l = rng.randint(0, 6)
            rs = certified_roots(build_indicial(IndicialSpec(m, n, l, F(0))))
            assert all(r.exact and r.im == 0 for r in rs.roots)
            res = sorted(r.re for r in rs.expanded())
            for a, b in zip(res, reversed(res)):
                assert a + b == 2 * m - 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(2, 150),
           st.one_of(st.none(), st.integers(-40, 40).map(lambda k: F(k, 2))))
    def test_integer_base_matches_fraction_product(self, m, nu, shift):
        # the product over the exponents (nu + 4j - 5)/2 and -(nu - 4j + 1)/2
        # in Fractions, as written in the module docstring
        z = RationalPolynomial.variable() + (shift or 0)
        want = RationalPolynomial.one()
        for j in range(1, m + 1):
            want = want * (z - F(nu + 4 * j - 5, 2)) * (z + F(nu - 4 * j + 1, 2))
        if m % 2:
            want = -want
        got = indicial_base(m, nu) if shift is None else indicial_base(m, nu, shift)
        assert got == want

    def test_shift_must_be_half_integer(self):
        with pytest.raises(ValueError, match="half-integer"):
            indicial_base(2, 5, F(1, 3))
        with pytest.raises(ValueError, match="half-integer"):
            indicial_product(2, 5, F(1, 3))

    def test_quadratic_steps_match_linear_factors(self):
        for m in range(1, 9):
            for nu in range(2, 81):
                for shift in (0, F(-1, 2), F(3, 2), F(-7, 2)):
                    assert (indicial_product(m, nu, shift)
                            == earlier_kernel.indicial_product(m, nu, shift))

    def test_validation(self):
        with pytest.raises(ValueError):
            IndicialSpec(0, 3, 0, F(0))
        with pytest.raises(ValueError):
            IndicialSpec(2, 1, 0, F(0))
        with pytest.raises(ValueError):
            IndicialSpec(2, 3, -1, F(0))


class TestEulerQuartic:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.fractions(-10 ** 4, 10 ** 4, max_denominator=1000),
           st.fractions(-10 ** 4, 10 ** 4, max_denominator=1000))
    def test_closed_form_matches_product(self, c1, c2):
        z = RationalPolynomial.variable()
        base = z * (z - 1) * (z - 2) * (z - 3)
        mid = z * (z - 1) + (z - 2) * (z - 3)
        assert euler_quartic(c1, c2) == base + mid * c1 + RationalPolynomial.constant(c2)


class TestEulerParams:
    def test_examples(self):
        assert euler_params(3, 0, F(5)) == EulerParams(F(0), F(5))
        assert euler_params(2, 0, F(48)) == EulerParams(F(1, 4), F(1, 16) + 48)
        assert euler_params(8, 0, F(0)) == EulerParams(F(-35, 4), F(1225, 16))

    def test_consistency_with_indicial(self, rng):
        # the quartic under the parameter map equals the m = 2 polynomial
        for _ in range(10):
            n = rng.randint(2, 15)
            l = rng.randint(0, 5)
            c = rand_fraction(rng)
            ep = euler_params(n, l, c)
            assert euler_quartic(ep.c1, ep.c2) == build_indicial(IndicialSpec(2, n, l, c))


class TestClosedFormRoots:
    # `frobenius.characteristic_exponents`, against 128-bit mpmath
    # (`series_oracle.quartic_roots_closed_form`) and certified root disks

    def test_unit_exponents(self):
        a = characteristic_exponents(F(0), F(0))
        assert a == ((0, 0), (1, 0), (2, 0), (3, 0))
        assert [complex(x) for x in quartic_roots_closed_form(
            EulerParams(F(0), F(0)))] == [0, 1, 2, 3]

    def test_double_roots_on_inner_cut(self):
        # inner radicand vanishes at (0, 1): exponents (3 +- sqrt5)/2, doubled
        a = characteristic_exponents(F(0), F(1))
        assert a[0] == a[1] and a[2] == a[3]
        with mp.workprec(128):
            lo = (3 - mp.sqrt(5)) / 2
            hi = (3 + mp.sqrt(5)) / 2
            assert abs(_mpf_of(a[0][0]) - lo) < mp.mpf(2) ** -100
            assert abs(_mpf_of(a[2][0]) - hi) < mp.mpf(2) ** -100
            assert a[0][1] == a[2][1] == 0

    def test_pair_sums_exact(self, rng):
        for _ in range(40):
            c1 = rand_fraction(rng)
            c2 = rand_fraction(rng)
            a = characteristic_exponents(c1, c2)
            assert (a[0][0] + a[3][0], a[0][1] + a[3][1]) == (3, 0)
            assert (a[1][0] + a[2][0], a[1][1] + a[2][1]) == (3, 0)

    def test_ordering_re_a1_le_re_a2_le_three_halves(self, rng):
        for _ in range(40):
            c1 = rand_fraction(rng)
            c2 = rand_fraction(rng)
            a = characteristic_exponents(c1, c2)
            assert a[0][0] <= a[1][0] <= F(3, 2)

    def test_matches_certified_roots(self, rng):
        # closed-form multiset vs certified disks under the parameter map:
        # every disk must hold exactly `multiplicity` of the closed-form roots
        for _ in range(25):
            c1 = rand_fraction(rng, -10, 10, 6)
            c2 = rand_fraction(rng, -10, 10, 6)
            closed = characteristic_exponents(c1, c2)
            rs = certified_roots(euler_quartic(c1, c2))
            assigned = 0
            for d in rs.roots:
                inside = sum(
                    1 for re, im in closed
                    if math.hypot(float(re) - float(d.re),
                                  float(im) - float(d.im))
                    <= float(d.radius) + 1e-25)
                assert inside == d.multiplicity
                assigned += inside
            assert assigned == 4

    def test_boundary_point_real_part_on_decision_line(self):
        # dimension-2 threshold: at (c1, c2) = (1/4, 1/16 + 48) the middle
        # exponent pair sits exactly on the decision line
        a = characteristic_exponents(F(1, 4), F(1, 16) + 48)
        assert a[1][0] == F(-1, 2) and a[2][0] == F(7, 2)
        hi = quartic_roots_closed_form(EulerParams(F(1, 4), F(1, 16) + 48))
        assert float(hi[1].real) == pytest.approx(-0.5, abs=1e-25)
        assert float(hi[2].real) == pytest.approx(3.5, abs=1e-25)
