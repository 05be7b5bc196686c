import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from esacert import golden, stability
from esacert.esa import _hurwitz_cached
from esacert.exact import (PolynomialMatrix, RationalPolynomial,
                           count_real_roots, det_cofactor, det_fractions,
                           poly_gcd, polymatrix_det, primitive_part,
                           sturm_isolate)
from esacert.indicial import (IndicialSpec, build_indicial, euler_quartic,
                              indicial_base)
from esacert.roots import Unresolved, certified_roots, real_part_position
from esacert.stability import (CRITICAL_RE, HalfPlaneCount, QuarticRootClass,
                               axis_roots_exact, critical_line_parts, disc_q3,
                               euler_hurwitz_matrix, halfplane_count,
                               hurwitz_assemble, hurwitz_matrix,
                               quartic_classify)
from conftest import rand_fraction, rand_poly

Z = RationalPolynomial.variable()
HALF = F(1, 2)


def det_formula(c1: F, c2: F) -> F:
    return 64 * (45 + 12 * c1 + c1 * c1 - c2) * (F(105, 16) + F(19, 2) * c1 + c2)


class TestHurwitzMatrix:
    def test_layout_matches_displayed_4x4(self, rng):
        for _ in range(20):
            c1, c2 = rand_fraction(rng), rand_fraction(rng)
            got = euler_hurwitz_matrix(c1, c2)
            a0 = F(105, 16) + F(19, 2) * c1 + c2
            want = [
                [F(-8), F(-22) - 8 * c1, F(0), F(0)],
                [F(1), F(43, 2) + 2 * c1, a0, F(0)],
                [F(0), F(-8), F(-22) - 8 * c1, F(0)],
                [F(0), F(1), F(43, 2) + 2 * c1, a0],
            ]
            assert got == want

    def test_determinant_product_formula(self, rng):
        for _ in range(20):
            c1, c2 = rand_fraction(rng), rand_fraction(rng)
            assert det_fractions(euler_hurwitz_matrix(c1, c2)) == det_formula(c1, c2)

    def test_zero_parameters_determinant(self):
        assert det_fractions(euler_hurwitz_matrix(F(0), F(0))) == 18900

    def test_symbolic_second_parameter(self, rng):
        from esacert.exact import polymatrix_det
        for _ in range(6):
            c1 = rand_fraction(rng)
            det = polymatrix_det(euler_hurwitz_matrix(c1))
            for _ in range(4):
                c2 = rand_fraction(rng)
                assert det(c2) == det_formula(c1, c2)

    def test_generic_layout_convention(self):
        # entry (i, j) = a_{2j-i} with descending coefficients a_0..a_n
        rows = hurwitz_matrix([F(k) for k in range(1, 8)])
        assert rows[0] == [F(2), F(4), F(6), F(0), F(0), F(0)]
        assert rows[1] == [F(1), F(3), F(5), F(7), F(0), F(0)]
        assert rows[2] == [F(0), F(2), F(4), F(6), F(0), F(0)]
        assert rows[3] == [F(0), F(1), F(3), F(5), F(7), F(0)]
        assert rows[4] == [F(0), F(0), F(2), F(4), F(6), F(0)]
        assert rows[5] == [F(0), F(0), F(1), F(3), F(5), F(7)]


class TestHurwitzAssemble:
    def test_linear_root_examples(self):
        assert hurwitz_assemble(5, 20, 0).linear_root == 0
        assert hurwitz_assemble(2, 3, 0).linear_root == F(-105, 16)

    def test_island_cofactor_primitive_coefficients(self):
        q = hurwitz_assemble(5, 20, 0).q_factor
        assert primitive_part(q).descending() == tuple(
            F(c) for c in golden.ISLAND_QUARTIC_DESC)

    def test_factorization_exact_across_family(self):
        # det(c) = (c - r) * q(c), verified by reconstruction
        for m in range(1, 6):
            for n in (2, 5, 8, 13, 20, 24):
                for l in (0, 1, 4, 10):
                    hd = hurwitz_assemble(m, n, l)
                    linear = RationalPolynomial((-hd.linear_root, 1))
                    assert linear * hd.q_factor == hd.det_in_c
                    assert hd.q_factor.degree == m - 1
                    assert hd.det_in_c(hd.linear_root) == 0

    def test_dimension_three_determinant_roots(self):
        hd = hurwitz_assemble(2, 3, 0)
        roots = sturm_isolate(hd.det_in_c)
        vals = []
        for (lo, hi), mult in roots:
            assert mult == 1
            vals.append((lo, hi))
        assert len(vals) == 2
        assert vals[0][0] <= F(-105, 16) <= vals[0][1]
        assert vals[1][0] <= F(45) <= vals[1][1]
        assert hd.det_in_c(F(45)) == 0
        assert hd.det_in_c(F(-105, 16)) == 0


def _hurwitz_polymatrix(m: int, nu: int) -> PolynomialMatrix:
    """The 2m x 2m Hurwitz matrix of the centered indicial polynomial over
    Q[c] (c in the constant coefficient)."""
    desc = list(indicial_base(m, nu).shift(CRITICAL_RE).descending())
    entries = [RationalPolynomial.constant(a) for a in desc]
    entries[-1] = RationalPolynomial((desc[-1], 1))
    return PolynomialMatrix(hurwitz_matrix(entries))


@st.composite
def sectors(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(2, 60))
    l = draw(st.integers(0, (60 - n) // 2))
    return m, n, l


class TestOrlandoCofactor:
    """The resultant cofactor against determinants of the full 2m x 2m
    Hurwitz matrix over Q[c]."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(sectors())
    def test_matches_polynomial_matrix_determinant(self, sector):
        m, n, l = sector
        hd = hurwitz_assemble(m, n, l)
        matrix = _hurwitz_polymatrix(m, n + 2 * l)
        assert hd.det_in_c == polymatrix_det(matrix)
        if m <= 3:
            assert hd.det_in_c == det_cofactor(matrix)

    def test_wrong_sign_trips_the_probe(self, monkeypatch):
        flipped = stability._orlando_sign
        monkeypatch.setattr(stability, "_orlando_sign", lambda m: -flipped(m))
        for m, n, l in ((1, 4, 0), (2, 5, 0), (3, 7, 1), (5, 20, 0)):
            with pytest.raises(AssertionError, match="validation probe"):
                hurwitz_assemble(m, n, l)

    def test_cache_keyed_by_nu(self):
        for m, n, l in ((2, 7, 0), (3, 12, 4), (5, 22, 0)):
            hd = _hurwitz_cached(m, n, l)
            assert _hurwitz_cached(m, n - 2, l + 1) is hd
            assert (hd.m, hd.nu) == (m, n + 2 * l)
            with pytest.raises(dataclasses.FrozenInstanceError):
                hd.q_factor = RationalPolynomial.one()


class TestAxisRoots:
    def test_boundary_coupling_has_axis_roots(self):
        # c2 = 45 + 12 c1 + c1^2 at c1 = 0 is on the decision boundary
        roots = axis_roots_exact(euler_quartic(F(0), F(45)))
        assert len(roots) >= 1

    def test_plain_quartic_has_none(self):
        assert axis_roots_exact(euler_quartic(F(0), F(0))) == []

    def test_boundary_dimension_axis_parameter_zero(self):
        roots = axis_roots_exact(build_indicial(IndicialSpec(2, 8, 0, F(0))))
        assert len(roots) == 1
        assert roots[0].is_rational and roots[0].rational_value == 0

    def test_critical_line_parts_consistency(self, rng):
        # P(t) + i Q(t) must reproduce p(-1/2 + i t) at sample points
        import mpmath as mp
        for _ in range(6):
            p = rand_poly(rng, rng.randint(1, 6))
            P, Q = critical_line_parts(p)
            for tv in (F(0), F(1, 3), F(-2)):
                z = mp.mpc(-0.5, float(tv))
                lhs = p.eval_mp(mp.mp, z)
                assert abs(lhs.real - float(P(tv))) < 1e-9 * (1 + abs(lhs.real))
                assert abs(lhs.imag - float(Q(tv))) < 1e-9 * (1 + abs(lhs.imag))

    def test_conjugate_axis_pair(self):
        roots = axis_roots_exact((Z + F(1, 2)) * (Z + F(1, 2)) + 2)
        assert len(roots) == 2  # t = +- sqrt2


class TestHalfPlaneCount:
    def test_unit_exponents(self):
        assert halfplane_count(euler_quartic(F(0), F(0))) == HalfPlaneCount(0, 0, 4)

    def test_boundary_dimension(self):
        got = halfplane_count(build_indicial(IndicialSpec(2, 8, 0, F(0))))
        assert got == HalfPlaneCount(1, 1, 2)

    def test_island_interior(self):
        # real parts (-10.03, -7.326 x2, -0.496 x2, ...): three strictly left
        got = halfplane_count(build_indicial(IndicialSpec(5, 20, 0, F(15 * 10 ** 9))))
        assert got == HalfPlaneCount(3, 0, 7)

    def test_symmetric_irrational_axis_pair(self):
        got = halfplane_count((Z + F(1, 2)) * (Z + F(1, 2)) + 2)
        assert got == HalfPlaneCount(0, 2, 0)

    def test_multiplicity_handling(self):
        p = (Z + F(1, 2)) ** 2 * (Z - 1)
        assert halfplane_count(p) == HalfPlaneCount(0, 2, 1)

    def test_symmetric_real_pair_not_axis(self):
        # roots 1 and -2 reflect into each other across -1/2 but sit off the line
        p = (Z - 1) * (Z + 2)
        assert halfplane_count(p) == HalfPlaneCount(1, 0, 1)

    def test_degree_is_preserved(self, rng):
        for _ in range(20):
            p = rand_poly(rng, rng.randint(1, 8))
            hp = halfplane_count(p)
            assert hp.degree == p.degree
            assert hp.exact


class TestHalfPlaneCountShapes:
    """Factor shapes on which the plain formula left - right = -Ind(Q/P) fails
    or that reach the degenerate branches of the exact count."""

    def test_single_root_right_of_line(self):
        # odd degree: deg Q > deg P, the index must be taken of P/Q
        assert halfplane_count(Z - 1) == HalfPlaneCount(0, 0, 1)
        assert halfplane_count(Z + 3) == HalfPlaneCount(1, 0, 0)

    def test_real_part_vanishes_identically(self):
        # centred at -1/2 the polynomial is odd, so P = 0: the root -1/2 and
        # the reflected pair 1, -2
        f = (Z + HALF) * (Z - 1) * (Z + 2)
        P, Q = critical_line_parts(f)
        assert P.is_zero and not Q.is_zero
        assert halfplane_count(f) == HalfPlaneCount(1, 1, 1)
        assert halfplane_count(Z + HALF) == HalfPlaneCount(0, 1, 0)

    def test_imaginary_part_vanishes_identically(self):
        f = (Z + HALF) ** 2 + 1          # roots -1/2 +- i, both on the line
        P, Q = critical_line_parts(f)
        assert Q.is_zero and not P.is_zero
        assert halfplane_count(f) == HalfPlaneCount(0, 2, 0)
        # (z + 1/2)^4 + 1: Q = 0 again, but no root on the line
        g = (Z + HALF) ** 4 + 1
        assert critical_line_parts(g)[1].is_zero
        assert halfplane_count(g) == HalfPlaneCount(2, 0, 2)

    def test_gcd_holds_reflected_nonreal_pair(self):
        # a +- bi and -1 - a +- bi reflect into each other through -1/2
        a, b = F(1), F(2)
        pairs = ((Z - a) ** 2 + b * b) * ((Z + 1 + a) ** 2 + b * b)
        f = pairs * (Z - 3)
        g = poly_gcd(*critical_line_parts(f))
        assert g.degree == 4 and count_real_roots(g) == 0
        assert halfplane_count(pairs) == HalfPlaneCount(2, 0, 2)
        assert halfplane_count(f) == HalfPlaneCount(2, 0, 3)

    def test_odd_degree_on_both_sides(self):
        assert halfplane_count((Z + 3) * (Z - 2) * (Z - 5)) == HalfPlaneCount(1, 0, 2)
        # z^3 - 2: real root 2^(1/3), complex pair at real part -2^(1/3)/2
        assert halfplane_count(Z ** 3 - 2) == HalfPlaneCount(2, 0, 1)
        assert halfplane_count(Z ** 3 + 2) == HalfPlaneCount(1, 0, 2)
        f = (Z + 7) * (Z + 3) * ((Z - 1) ** 2 + 1) * (Z - 2)
        assert halfplane_count(f) == HalfPlaneCount(2, 0, 3)


def _disk_count(p: RationalPolynomial) -> HalfPlaneCount:
    """Half-plane count read off certified root disks, raising the precision
    until no disk meets the line (so p must have no non-rational root on it)."""
    prec = 128
    while True:
        rs = certified_roots(p, precision_bits=prec)
        pos = real_part_position(rs, CRITICAL_RE)
        if not isinstance(pos, Unresolved):
            return HalfPlaneCount(pos.left, pos.axis, pos.right)
        prec = rs.precision_bits * 2
        if prec > 4096:
            pytest.fail(f"disks still meet the line at 4096 bits: {p}")


@st.composite
def off_boundary_specs(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(2, 24))
    l = draw(st.integers(0, 4))
    scale = 10 ** draw(st.integers(0, 2 * m))
    c = F(draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.integers(1, 64))) * scale
    assume(_hurwitz_cached(m, n, l).det_in_c(c) != 0)
    return IndicialSpec(m, n, l, c)


_rationals = st.builds(F, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 9))
_offsets = st.builds(F, st.integers(1, 10 ** 6), st.integers(1, 10 ** 3))


@st.composite
def known_root_polynomials(draw):
    """(polynomial, count by construction, whether a non-real root is on the line)."""
    p = RationalPolynomial.one()
    left = axis = right = 0
    nonreal_axis = False
    for _ in range(draw(st.integers(1, 4))):
        mult = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(("real", "half", "pair", "axis_pair", "reflected")))
        if kind in ("real", "half"):
            r = draw(_rationals) if kind == "real" else CRITICAL_RE
            factor, roots = Z - r, [r]
        elif kind == "axis_pair":
            b = draw(_offsets)
            factor, roots = (Z - CRITICAL_RE) ** 2 + b * b, [CRITICAL_RE] * 2
            nonreal_axis = True
        else:
            a, b = draw(_rationals), draw(_offsets)
            factor, roots = (Z - a) ** 2 + b * b, [a, a]
            if kind == "reflected":
                factor = factor * ((Z + 1 + a) ** 2 + b * b)
                roots += [-1 - a, -1 - a]
            nonreal_axis |= a == CRITICAL_RE
        p = p * factor ** mult
        left += mult * sum(r < CRITICAL_RE for r in roots)
        axis += mult * sum(r == CRITICAL_RE for r in roots)
        right += mult * sum(r > CRITICAL_RE for r in roots)
    return p, HalfPlaneCount(left, axis, right), nonreal_axis


class TestExactCountAgainstDisks:
    """Differential check: the exact count against certified numeric disks."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(off_boundary_specs())
    def test_radial_specs_off_the_boundary(self, spec):
        p = build_indicial(spec)
        got = halfplane_count(p)
        assert got.axis == 0
        assert got == _disk_count(p)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(known_root_polynomials())
    def test_polynomials_from_known_roots(self, case):
        p, want, nonreal_axis = case
        assert halfplane_count(p) == want
        if not nonreal_axis:
            assert _disk_count(p) == want


class TestQuarticClassifier:
    def test_biquadratic(self):
        inv = quartic_classify(Z ** 4 - 1)
        assert inv.disc == -256
        assert inv.real_root_class is QuarticRootClass.TWO_REAL_TWO_IMAGINARY

    def test_island_cofactor_two_real(self):
        inv = quartic_classify(hurwitz_assemble(5, 20, 0).q_factor)
        assert inv.disc < 0
        assert inv.real_root_class is QuarticRootClass.TWO_REAL_TWO_IMAGINARY

    def test_first_sector_no_real(self):
        inv = quartic_classify(hurwitz_assemble(5, 20, 1).q_factor)
        assert inv.signs() == (1, -1, 1)
        assert inv.real_root_class is QuarticRootClass.NO_REAL_ROOTS

    def test_four_real(self):
        inv = quartic_classify(RationalPolynomial.from_roots([1, 2, 3, 4]))
        assert inv.disc > 0
        assert inv.real_root_class is QuarticRootClass.FOUR_REAL

    def test_against_sturm_on_random_quartics(self, rng):
        count_for = {
            QuarticRootClass.NO_REAL_ROOTS: 0,
            QuarticRootClass.TWO_REAL_TWO_IMAGINARY: 2,
            QuarticRootClass.FOUR_REAL: 4,
        }
        for _ in range(200):
            q = rand_poly(rng, 4)
            inv = quartic_classify(q)
            with_mult = sum(mult for _iv, mult in sturm_isolate(q))
            assert count_for[inv.real_root_class] == with_mult

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            quartic_classify(Z ** 3)


class TestDiscQ3:
    def test_reference_values(self):
        # closed form -764411904 (3k^2+60k+52)^2 (15k^2+300k+476) at
        # k = n + 2l - 12 (index verified against the assembled cofactors)
        assert disc_q3(12, 0) == -764411904 * 52 ** 2 * 476
        assert disc_q3(13, 0) == -764411904 * 115 ** 2 * 791
        assert disc_q3(11, 0) == golden.disc_q3_closed_form(11)

    def test_depends_only_on_nu(self):
        assert disc_q3(11, 3) == disc_q3(17, 0) == disc_q3(13, 2)

    def test_negative_for_all_relevant_sectors(self):
        for nu in range(11, 62):
            assert disc_q3(nu, 0) < 0


class TestIslandPiExpansion:
    def test_high_sector_expansion_exact(self):
        for l in range(29, 41):
            inv = quartic_classify(hurwitz_assemble(5, 20, l).q_factor)
            assert inv.pi == golden.pi_520_closed_form(l)
            assert inv.pi > 0


class TestOrlandoNecessity:
    def test_axis_roots_force_vanishing_determinant(self, rng):
        # on the closed-form boundary: axis roots exist and det vanishes
        for _ in range(12):
            c1 = rand_fraction(rng, -10, 10, 4)
            for c2 in (45 + 12 * c1 + c1 * c1, -F(105, 16) - F(19, 2) * c1):
                hp = halfplane_count(euler_quartic(c1, c2))
                if hp.axis > 0:
                    assert det_formula(c1, c2) == 0

    def test_radial_thresholds_are_determinant_roots(self):
        from esacert.esa import gamma2_closed_form
        for n in range(2, 13):
            hd = hurwitz_assemble(2, n, 0)
            g = gamma2_closed_form(n, 0)
            assert hd.det_in_c(g) == 0
            hp = halfplane_count(build_indicial(IndicialSpec(2, n, 0, g)))
            assert hp.axis > 0
