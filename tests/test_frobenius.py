import json
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esacert.frobenius import (Branch, CaseTag, SolutionKind,
                               characteristic_exponents, classify_resonance,
                               line_c2, line_pivot, locus_samples, parabola_c2,
                               parabola_pivot, resonance_geometry_table,
                               select_fundamental_system)
from esacert.indicial import EulerParams, euler_quartic
from conftest import rand_fraction
from series_oracle import (ResonanceError, basis_payload, eval_0F3, ode_defect,
                           ode_residual, quartic_roots_closed_form)


def _double(z) -> complex:
    """An exponent (re, im) of `characteristic_exponents`, as a double."""
    return complex(float(z[0]), float(z[1]))


def _diff(a, i, j):
    """a_i - a_j (0-based) as an exact pair."""
    return a[i][0] - a[j][0], a[i][1] - a[j][1]


class TestClassification:
    def test_parabola_point(self):
        # (0, 1) sits on the k = 0 parabola; the exponents pair up as
        # a1 = a2 and a3 = a4 (verified against the closed forms below)
        cls = classify_resonance(F(0), F(1))
        assert not cls.lines
        assert len(cls.parabolas) == 1
        mem = cls.parabolas[0]
        assert mem.k == 0 and mem.branch is Branch.LOWER
        assert mem.relations == ((1, 2), (3, 4))
        a = characteristic_exponents(F(0), F(1))
        assert a[0] == a[1] and a[2] == a[3]

    def test_line_point(self):
        # (0, -9/16) sits on the k = 0 line; the middle exponents coincide
        cls = classify_resonance(F(0), F(-9, 16))
        assert not cls.parabolas
        assert len(cls.lines) == 1
        mem = cls.lines[0]
        assert mem.k == 0 and mem.branch is Branch.LOWER
        assert mem.relations == ((2, 3),)
        a = characteristic_exponents(F(0), F(-9, 16))
        assert a[1] == a[2]

    def test_generic_point(self):
        cls = classify_resonance(F(0), F(-1))
        assert cls.generic

    def test_memberships_found_for_constructed_points(self, rng):
        for _ in range(30):
            k = rng.randint(0, 5)
            c1 = rand_fraction(rng, -30, 10, 6)
            on_line = classify_resonance(c1, line_c2(c1, k))
            assert any(m.k == k for m in on_line.lines)
            on_par = classify_resonance(c1, parabola_c2(c1, k))
            assert any(m.k == k for m in on_par.parabolas)

    def test_branch_relations_match_closed_forms(self, rng):
        # the asserted exponent-difference relations hold at random points of
        # every locus with k <= 5, for the exact exponents and for 192-bit
        # mpmath
        checked = 0
        eps = F(1, 2 ** 120)
        for k in range(6):
            for _ in range(20):
                c1 = rand_fraction(rng, -40, 12, 8)
                for kind, c2 in (("line", line_c2(c1, k)),
                                 ("parabola", parabola_c2(c1, k))):
                    cls = classify_resonance(c1, c2)
                    mems = cls.lines if kind == "line" else cls.parabolas
                    mem = next(m for m in mems if m.k == k)
                    a = characteristic_exponents(c1, c2)
                    hi = quartic_roots_closed_form(EulerParams(c1, c2),
                                                   precision_bits=192)
                    for i, j in mem.relations:
                        re, im = _diff(a, i - 1, j - 1)
                        assert abs(re + 4 * k) < eps and abs(im) < eps
                        with mp.workprec(160):
                            assert (abs((hi[i - 1] - hi[j - 1]) - (-4 * k))
                                    < mp.mpf(2) ** -120)
                    checked += 1
        assert checked == 6 * 20 * 2

    def test_off_locus_no_resonant_differences(self, rng):
        count = 0
        while count < 60:
            c1 = rand_fraction(rng, -20, 20, 7)
            c2 = rand_fraction(rng, -20, 20, 7)
            cls = classify_resonance(c1, c2)
            if not cls.generic:
                continue
            count += 1
            a = characteristic_exponents(c1, c2)
            for i in range(4):
                for j in range(4):
                    if i == j:
                        continue
                    d = _double(_diff(a, i, j)) / 4
                    if abs(d.imag) < 1e-20:
                        near = round(d.real)
                        if near <= 0:
                            assert abs(d.real - near) > 1e-20

    def test_two_parabola_points_always_carry_a_line(self):
        # intersections of two parabolas force a line membership (the
        # adjacent-pair resonances compose to a symmetric-pair resonance),
        # so the uncovered display pattern never materializes
        for h in range(0, 4):
            for k in range(h + 1, 5):
                c1 = F(5, 4) - 4 * h * h - 4 * k * k
                c2 = parabola_c2(c1, h)
                assert parabola_c2(c1, k) == c2
                cls = classify_resonance(c1, c2)
                assert len(cls.parabolas) == 2
                assert len(cls.lines) >= 1
                sel = select_fundamental_system(c1, c2)
                assert sel.case_tag is CaseTag.LINE_AND_PARABOLA


class TestCaseSelection:
    @pytest.mark.parametrize("c1,c2,tag", [
        (F(0), F(-1), CaseTag.GENERIC),
        (F(0), F(-9, 16), CaseTag.ONE_LINE_LOWER),
        (F(0), F(-105, 16), CaseTag.ONE_LINE_UPPER),      # line k = 1, c1 > pivot
        (F(0), F(1), CaseTag.ONE_PARABOLA_LOWER),
        (F(2), F(-3), CaseTag.ONE_PARABOLA_UPPER),
        (F(-3, 4), F(9, 16), CaseTag.TWO_LINES),
        (F(5, 4), F(-39, 16), CaseTag.LINE_AND_PARABOLA),
    ])
    def test_tags(self, c1, c2, tag):
        assert select_fundamental_system(c1, c2).case_tag is tag

    def test_selection_total_on_random_points(self, rng):
        for _ in range(40):
            c1 = rand_fraction(rng, -15, 15, 6)
            c2 = rand_fraction(rng, -15, 15, 6)
            sel = select_fundamental_system(c1, c2)
            assert isinstance(sel.case_tag, CaseTag)

    def test_generic_kinds(self):
        sel = select_fundamental_system(F(0), F(-1))
        assert [s.kind for s in sel.solutions] == [SolutionKind.SERIES_F03] * 4

    def test_one_line_lower_kinds(self):
        sel = select_fundamental_system(F(0), F(-9, 16))
        kinds = [s.kind for s in sel.solutions]
        assert kinds == [SolutionKind.SERIES_F03, SolutionKind.MEIJER_G20,
                         SolutionKind.SERIES_F03, SolutionKind.SERIES_F03]
        g = sel.solutions[1]
        # resonant middle pair leads the G parameters
        a = characteristic_exponents(F(0), F(-9, 16))
        assert abs(g.parameters[0] - _double(a[1]) / 4) < 1e-12
        assert abs(g.parameters[1] - _double(a[2]) / 4) < 1e-12

    def test_mixed_case_kinds_and_argument_sign(self):
        sel = select_fundamental_system(F(5, 4), F(-39, 16))
        kinds = [s.kind for s in sel.solutions]
        assert kinds == [SolutionKind.MEIJER_G40, SolutionKind.MEIJER_G30,
                         SolutionKind.MEIJER_G20, SolutionKind.SERIES_F03]
        assert not sel.solutions[0].argument_negated
        assert sel.solutions[1].argument_negated
        assert not sel.solutions[2].argument_negated

    @staticmethod
    def _integer_param_hits(a, bound):
        hits = 0
        for i in range(4):
            for j in range(4):
                if i != j:
                    re, im = _diff(a, i, j)
                    p = complex(1 + float(re) / 4, float(im) / 4)
                    if abs(p.imag) < 1e-18 and abs(p.real - round(p.real)) < 1e-18 \
                            and round(p.real) <= bound:
                        hits += 1
        return hits

    def test_positive_resonance_order_breaks_a_parameter(self, rng):
        # k >= 1 memberships force a nonpositive-integer series parameter
        for _ in range(12):
            k = rng.randint(1, 3)
            c1 = rand_fraction(rng, -20, 8, 5)
            a = characteristic_exponents(c1, line_c2(c1, k))
            assert self._integer_param_hits(a, bound=0) >= 1

    def test_zero_resonance_order_duplicates_an_exponent(self, rng):
        # k = 0 memberships give a parameter exactly 1 (coincident exponents)
        for _ in range(8):
            c1 = rand_fraction(rng, -20, 0, 5)
            a = characteristic_exponents(c1, parabola_c2(c1, 0))
            assert self._integer_param_hits(a, bound=1) >= 1
            assert self._integer_param_hits(a, bound=0) == 0

    def test_generic_parameters_avoid_small_integers(self, rng):
        # no membership -> no series parameter is an integer <= 1
        done = 0
        while done < 20:
            c1 = rand_fraction(rng, -15, 15, 6)
            c2 = rand_fraction(rng, -15, 15, 6)
            if not classify_resonance(c1, c2).generic:
                continue
            done += 1
            a = characteristic_exponents(c1, c2)
            assert self._integer_param_hits(a, bound=1) == 0


class TestSeries:
    def test_empty_argument(self):
        assert eval_0F3(1, 2, 3, 0) == 1

    def test_against_direct_summation(self):
        with mp.workprec(200):
            brute = sum(mp.mpf(1) / mp.factorial(k) ** 4 for k in range(60))
            got = eval_0F3(1, 1, 1, 1, tol=1e-40)
            assert abs(got - brute) < mp.mpf(10) ** -38

    def test_resonant_parameters_rejected(self):
        with pytest.raises(ResonanceError):
            eval_0F3(0, 1, 1, 1)
        with pytest.raises(ResonanceError):
            eval_0F3(-2, 1, 1, 1)

    def test_rational_parameters_checked_exactly(self):
        # 10^-12 from -1 is within any float tolerance of a pole, yet the
        # series is well defined; -1, 0 and -3 themselves are refused
        near = eval_0F3(F(-1) + F(1, 10 ** 12), 1, 1, F(1, 2))
        assert mp.isfinite(near) and abs(near) > 10 ** 10
        for p in (F(-1), 0, -3):
            with pytest.raises(ResonanceError):
                eval_0F3(p, 1, 1, F(1, 2))

    def test_tolerance_certification(self):
        rough = eval_0F3(F(3, 2), F(5, 4), 2, 3, tol=1e-12)
        sharp = eval_0F3(F(3, 2), F(5, 4), 2, 3, tol=1e-35)
        assert abs(rough - sharp) < 1e-11


class TestOdeResidual:
    def test_generic_point_all_members(self):
        sel = select_fundamental_system(F(0), F(-1))
        for j in range(1, 5):
            assert ode_residual(sel, j, F(0), F(-1), 1, F(1, 2), tol=1e-20) < 1e-12

    def test_polynomial_solution_zero_residual(self):
        # at (0, 0) with lambda = 0 the first basis member is r^0 = 1
        sel = select_fundamental_system(F(0), F(0))
        assert sel.case_tag is CaseTag.GENERIC
        assert ode_residual(sel, 1, F(0), F(0), 0, F(1, 2), tol=1e-25) < 1e-30

    def test_resonant_series_members_still_solve(self):
        # series members of a resonant basis satisfy the equation too
        sel = select_fundamental_system(F(0), F(-9, 16))
        for j in (1, 3, 4):
            assert ode_residual(sel, j, F(0), F(-9, 16), 2, F(3, 4), tol=1e-20) < 1e-12

    def test_g_members_rejected(self):
        sel = select_fundamental_system(F(0), F(-9, 16))
        with pytest.raises(ResonanceError):
            ode_residual(sel, 2, F(0), F(-9, 16), 1, F(1, 2))

    def test_linearity_of_the_defect(self):
        sel = select_fundamental_system(F(0), F(-1))
        d1 = ode_defect(sel, 1, F(0), F(-1), 1, F(1, 2))
        d2 = ode_defect(sel, 2, F(0), F(-1), 1, F(1, 2))
        assert abs(d1 + d2) <= abs(d1) + abs(d2) + 1e-40

    def test_invalid_radius(self):
        sel = select_fundamental_system(F(0), F(-1))
        with pytest.raises(ValueError):
            ode_residual(sel, 1, F(0), F(-1), 1, 0)


class TestGeometry:
    def test_all_identities_hold(self):
        table = resonance_geometry_table(5, 5)
        assert table and all(g.holds for g in table)

    def test_tangency_contacts(self):
        table = resonance_geometry_table(3, 3)
        contacts = {g.description: g.detail for g in table}
        assert contacts["L_2 tangent to P_0"] == f"contact c1 = {line_pivot(2)}"
        assert contacts["P_2 tangent to L_0"] == f"contact c1 = {parabola_pivot(2)}"

    def test_line_line_meeting_point(self):
        # L_1 and L_0 meet at c1 = -3/4
        c1 = F(-3, 4)
        assert line_c2(c1, 0) == line_c2(c1, 1)
        cls = classify_resonance(c1, line_c2(c1, 0))
        assert sorted(m.k for m in cls.lines) == [0, 1]

    def test_parabola_parabola_meeting_point(self):
        c1 = F(5, 4) - 4 - 4  # h = k = 1 formula instance
        assert c1 == F(-27, 4)

    def test_locus_samples_shape(self):
        # L_0..L_5 and P_0..P_3, each at c1 = -30 + i/4 for i = 0..140
        rows = locus_samples()
        assert len(rows) == (6 + 4) * 141
        assert sorted({(r[0], r[1]) for r in rows}) == (
            [("line", k) for k in range(6)] + [("parabola", k) for k in range(4)])
        assert [r[2] for r in rows[:141]] == [F(-30) + F(i, 4) for i in range(141)]
        for kind, k, c1, c2, flag in rows:
            assert isinstance(flag, bool)
            if kind == "line":
                assert c2 == line_c2(c1, k)
            else:
                assert c2 == parabola_c2(c1, k)


def _display_points():
    """Points of L_k and P_k (k <= 5) on both sides of each pivot and at it,
    every pairwise intersection with h < k <= 4, and points of P_0 above
    its pivot, whose exponent relations are those of the lower branch."""
    pts = [(F(2), F(-3)), (F(3), F(-2)), (F(17, 2), F(157, 4)),
           (F(39, 28), F(-2063, 784))]
    for k in range(6):
        for off in (F(-3), F(-1, 2), F(0), F(1, 2), F(3)):
            c1 = line_pivot(k) + off
            pts.append((c1, line_c2(c1, k)))
            c1 = parabola_pivot(k) + off
            pts.append((c1, parabola_c2(c1, k)))
    for h in range(5):
        for k in range(h + 1, 5):
            c1 = F(5, 4) - 2 * h * h - 2 * k * k
            pts.append((c1, line_c2(c1, h)))
            c1 = F(5, 4) - 4 * h * h - 4 * k * k
            pts.append((c1, parabola_c2(c1, h)))
            for a, b in ((h, k), (k, h)):     # L_a meets P_b at two points
                for sign in (1, -1):
                    c1 = F(5, 4) - 4 * a * a + sign * 8 * a * b - 8 * b * b
                    pts.append((c1, line_c2(c1, a)))
    return pts


class TestDisplayRule:
    @pytest.mark.parametrize("c1,c2", _display_points())
    def test_descriptors_distinct_and_g20_pairs_resonant(self, c1, c2):
        sel = select_fundamental_system(c1, c2)
        sols = sel.solutions
        assert len(sols) == 4 and len(set(sols)) == 4
        assert sel.to_json()["note"] == ""
        for s in sols:
            if s.kind is SolutionKind.MEIJER_G20:
                d = s.parameters[0] - s.parameters[1]
                assert abs(d.imag) < 1e-9
                assert abs(d.real - round(d.real)) < 1e-9 and round(d.real) <= 0

    @pytest.mark.parametrize("c1,c2", _display_points())
    def test_g20_positions_are_the_relation_heads(self, c1, c2):
        # outside the line-and-parabola chain, G20s sit exactly at the first
        # index of each exponent relation, led by that relation's pair
        sel = select_fundamental_system(c1, c2)
        if sel.case_tag is CaseTag.LINE_AND_PARABOLA:
            return
        cls = sel.classification
        rels = [r for m in cls.lines + cls.parabolas for r in m.relations]
        a = [complex(float(re) / 4, float(im) / 4)
             for re, im in characteristic_exponents(cls.params.c1, cls.params.c2)]
        heads = {i for i, _ in rels}
        for pos, s in enumerate(sel.solutions, start=1):
            assert (s.kind is SolutionKind.MEIJER_G20) == (pos in heads)
        for i, j in rels:
            g = sel.solutions[i - 1]
            assert g.parameters[:2] == (a[i - 1], a[j - 1])

    @pytest.mark.parametrize("c1,c2", _display_points())
    def test_series_member_at_i_has_exponent_a_i(self, c1, c2):
        # `ode_defect` reads the exponent of member i as a_i
        sel = select_fundamental_system(c1, c2)
        a = characteristic_exponents(c1, c2)
        for i, s in enumerate(sel.solutions, start=1):
            if s.kind is SolutionKind.SERIES_F03:
                assert s.exponent == _double(a[i - 1])

    def test_p0_above_pivot_prints_the_lower_display(self):
        above = select_fundamental_system(F(2), F(-3))
        below = select_fundamental_system(F(0), F(1))
        assert above.classification.parabolas[0].branch is Branch.UPPER
        assert ([s.kind for s in above.solutions]
                == [s.kind for s in below.solutions]
                == [SolutionKind.MEIJER_G20, SolutionKind.SERIES_F03,
                    SolutionKind.MEIJER_G20, SolutionKind.SERIES_F03])


class TestCertifiedResidual:
    POINTS = ((F(0), F(-1)), (F(0), F(-9, 16)), (F(0), F(-105, 16)), (F(0), F(1)))
    EVALS = ((complex(3.5, -1), F(2)), (complex(1, 0), F(1, 2)),
             (complex(-2, 0.5), F(3, 2)), (complex(0, 4), F(1)))

    def test_defect_within_the_telescoped_bound(self):
        # the defect of the series cut after t_K is -lambda r^alpha t_K with
        # |t_K| < tol, so |defect| <= |lambda| r^(Re alpha) tol
        tol = 1e-20
        checked = 0
        for c1, c2 in self.POINTS:
            sel = select_fundamental_system(c1, c2)
            for index, desc in enumerate(sel.solutions, start=1):
                if desc.kind is not SolutionKind.SERIES_F03:
                    continue
                for lam, r in self.EVALS:
                    res = ode_residual(sel, index, c1, c2, lam, r, tol=tol)
                    bound = abs(lam) * float(r) ** desc.exponent.real * tol
                    assert res <= bound * (1 + 1e-6), (c1, c2, index, lam, r, res)
                    checked += 1
        assert checked == 4 * (4 + 3 + 3 + 2)


class TestParabolaPairIdentity:
    def test_table_rows_hold(self):
        table = resonance_geometry_table(5, 5)
        rows = [g for g in table if " on L_" in g.description]
        assert len(rows) == 6 * 5
        assert all(g.holds for g in rows)
        assert "P_1 meets P_3 on L_2 and L_4" in {g.description for g in rows}


# -- the standard-library exponents against the mpmath oracle ------------------------


def _on_imaginary_axis(c1, c2) -> bool:
    """Whether the indicial quartic has a root with real part exactly 0:
    E(0) = 6 c1 + c2 = 0, or E(+-iy) = 0, which needs y^2 = 1 + c1 > 0 (the
    imaginary part of E(iy)) and y^4 - (11 + 2 c1) y^2 + 6 c1 + c2 = 0."""
    y2 = 1 + c1
    return 6 * c1 + c2 == 0 or (y2 > 0 and
                                y2 * y2 - (11 + 2 * c1) * y2 + 6 * c1 + c2 == 0)


def _oracle_json(c1, c2) -> str:
    """`series_oracle.basis_payload` as `basis` prints it.  Where the quartic
    has a root on the imaginary axis, a value below 2^-100, which 128-bit
    mpmath can leave as the residue of an exact zero real part, reads 0.0."""
    payload = basis_payload(c1, c2)
    if _on_imaginary_axis(F(c1), F(c2)):
        for sol in payload["solutions"]:
            for pair in [sol["exponent"]] + sol["parameters"]:
                pair[:] = [0.0 if abs(v) < 2.0 ** -100 else v for v in pair]
    return json.dumps(payload)


_RATIONAL = st.fractions(min_value=-40, max_value=40, max_denominator=10 ** 6)


@st.composite
def _basis_points(draw):
    """Rational (c1, c2): off every locus, on one locus on either side of its
    pivot, at line-line and line-parabola crossings, and with a root on the
    imaginary axis."""
    kind = draw(st.sampled_from(("generic", "line", "parabola", "two-lines",
                                 "line-and-parabola", "zero-root", "axis-pair")))
    c1 = draw(_RATIONAL)
    h, k = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if kind == "generic":
        return c1, draw(_RATIONAL)
    if kind == "line":
        c1 = line_pivot(k) + c1 / 2
        return c1, line_c2(c1, k)
    if kind == "parabola":
        c1 = parabola_pivot(k) + c1 / 2
        return c1, parabola_c2(c1, k)
    if kind == "two-lines":
        c1 = F(5, 4) - 2 * h * h - 2 * (h + k + 1) ** 2
        return c1, line_c2(c1, h)
    if kind == "line-and-parabola":
        c1 = F(5, 4) - 4 * h * h + draw(st.sampled_from((8, -8))) * h * k - 8 * k * k
        return c1, line_c2(c1, h)
    if kind == "zero-root":
        return c1, -6 * c1
    c1 = abs(c1)     # roots +-i sqrt(1 + c1)
    y2 = 1 + c1
    return c1, (11 + 2 * c1) * y2 - y2 * y2 - 6 * c1


class TestBasisAgainstMpmath:
    def test_locus_samples_byte_identical(self):
        for _kind, _k, c1, c2, _flag in locus_samples():
            got = json.dumps(select_fundamental_system(c1, c2).to_json())
            assert got == json.dumps(basis_payload(c1, c2)), (c1, c2)

    def test_hypothesis_points_byte_identical(self):
        tags = set()

        @settings(max_examples=350, deadline=None, derandomize=True,
                  database=None)
        @given(_basis_points())
        def check(point):
            c1, c2 = point
            sel = select_fundamental_system(c1, c2)
            assert json.dumps(sel.to_json()) == _oracle_json(c1, c2)
            tags.add(sel.case_tag)

        check()
        assert tags == set(CaseTag)

    def test_exact_zero_exponent_prints_zero(self):
        # z = 0 solves the quartic when c2 = -6 c1; 128-bit mpmath leaves
        # a residue of 2^-127 there, the exact exponent is 0
        c1 = F(-364047, 40796)
        a = characteristic_exponents(c1, -6 * c1)
        assert a[1] == (0, 0)
        sel = select_fundamental_system(c1, -6 * c1)
        assert sel.solutions[1].exponent == 0
        assert sel.to_json()["solutions"][1]["exponent"] == [0.0, 0.0]
        hi = quartic_roots_closed_form(EulerParams(c1, -6 * c1))
        assert 0 < abs(complex(hi[1])) < 2.0 ** -100

    def test_imaginary_axis_roots_exact(self):
        # at (c1, 10 + 3 c1 - c1^2), y^2 = 1 + c1, the roots +-i y have real
        # part exactly 0
        for c1 in (F(3), F(1, 3), F(5, 7)):
            y2 = 1 + c1
            c2 = (11 + 2 * c1) * y2 - y2 * y2 - 6 * c1
            assert _on_imaginary_axis(c1, c2)
            a = characteristic_exponents(c1, c2)
            on_axis = [z for z in a if z[0] == 0]
            assert len(on_axis) == 2
            assert all(abs(z[1] ** 2 - y2) < F(1, 2 ** 190) for z in on_axis)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_basis_points())
    def test_within_2_to_minus_180_of_256_bit_mpmath(self, point):
        c1, c2 = point
        a = characteristic_exponents(c1, c2)
        hi = quartic_roots_closed_form(EulerParams(c1, c2), precision_bits=256)
        with mp.workprec(256):
            for (re, im), w in zip(a, hi):
                err = abs(mp.mpc(mp.mpf(re.numerator) / re.denominator,
                                 mp.mpf(im.numerator) / im.denominator) - w)
                assert err < mp.mpf(2) ** -180 * (1 + abs(w))

    def test_roots_of_the_quartic(self):
        # each exponent nearly annuls E in exact complex Fraction arithmetic
        for c1, c2 in ((F(0), F(-1)), (F(1, 3), F(1, 5)), (F(-7, 2), F(40)),
                       (F(3, 2), F(79, 4)), (F(2), F(-3))):
            coeffs = euler_quartic(c1, c2).descending()
            for re, im in characteristic_exponents(c1, c2):
                vr, vi = F(0), F(0)
                for c in coeffs:
                    vr, vi = vr * re - vi * im + c, vr * im + vi * re
                assert abs(vr) + abs(vi) < F(1, 2 ** 180)
