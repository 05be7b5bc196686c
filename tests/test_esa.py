import random
from fractions import Fraction as F

import pytest

from esacert import golden
from esacert.esa import (POS_INF, EsaRegion, RegionPiece, Verdict,
                         conjecture_explore, esa_decide_radial,
                         esa_region_full, esa_region_radial,
                         euler_esa_closed_form, gamma2_closed_form,
                         gamma3_closed_form, gamma_threshold,
                         intersect_pieces, oracle_threshold,
                         power_zero_coupling, value_cmp)
from esacert.exact import AlgebraicReal
from esacert.indicial import IndicialSpec
from esacert.stability import halfplane_count, hurwitz_assemble
from esacert.indicial import build_indicial, euler_quartic
from conftest import rand_fraction


class TestDecide:
    @pytest.mark.parametrize("m,n,l,c,esa", [
        (2, 8, 0, 0, True),
        (2, 7, 0, 0, False),
        (1, 4, 0, 0, True),
        (1, 3, 0, 0, False),
        (2, 3, 0, 45, True),        # boundary coupling included
        (3, 12, 0, 0, True),
        (3, 11, 0, 0, False),
        (5, 20, 0, 15 * 10 ** 9, False),   # inside the island gap
        (5, 20, 0, 0, True),
    ])
    def test_examples(self, m, n, l, c, esa):
        v = esa_decide_radial(IndicialSpec(m, n, l, F(c)))
        assert v.is_esa == esa
        assert v.verdict is (Verdict.ESA if esa else Verdict.NOT_ESA)

    def test_verdict_matches_count(self, rng):
        for _ in range(25):
            m = rng.randint(1, 3)
            spec = IndicialSpec(m, rng.randint(2, 14), rng.randint(0, 5),
                                rand_fraction(rng, -80, 80, 6))
            v = esa_decide_radial(spec, with_certificate=False)
            assert v.is_esa == (v.count.left + v.count.axis == m)

    def test_certificate_fields(self):
        v = esa_decide_radial(IndicialSpec(2, 8, 0, F(0)))
        cert = v.certificate
        assert cert["halfplane"]["exact"] is True
        assert cert["hurwitz_det_at_c"] == "0"
        assert cert["axis_parameters"] == [{"type": "rational", "value": "0"}]

    def test_extreme_couplings(self):
        # far negative coupling: never ESA; far positive: always ESA
        big = F(10) ** 40
        for m, n in ((1, 3), (2, 5), (3, 9)):
            assert not esa_decide_radial(IndicialSpec(m, n, 0, -big),
                                         with_certificate=False).is_esa
            assert esa_decide_radial(IndicialSpec(m, n, 0, big),
                                     with_certificate=False).is_esa


class TestRadialRegions:
    def test_dimension_three(self):
        region = esa_region_radial(2, 3, 0)
        assert len(region.pieces) == 1
        piece = region.pieces[0]
        assert value_cmp(piece.lo, F(45)) == 0
        assert piece.hi is POS_INF
        assert region.render() == "[45, ∞)"

    def test_sixth_order_threshold_zero(self):
        region = esa_region_radial(3, 12, 0)
        assert region.render() == "[0, ∞)"

    def test_island(self):
        region = esa_region_radial(5, 20, 0)
        beta, gamma = golden.island_roots()
        assert len(region.pieces) == 2
        first, second = region.pieces
        assert value_cmp(first.lo, F(0)) == 0
        assert isinstance(first.hi, AlgebraicReal) and first.hi.equals(beta)
        assert isinstance(second.lo, AlgebraicReal) and second.lo.equals(gamma)
        assert second.hi is POS_INF

    def test_region_membership_consistent_with_decide(self, rng):
        for n in (3, 8):
            region = esa_region_radial(2, n, 0)
            for _ in range(8):
                c = rand_fraction(rng, -120, 120, 4)
                v = esa_decide_radial(IndicialSpec(2, n, 0, c),
                                      with_certificate=False)
                assert region.contains(c) == v.is_esa

    def test_boundary_candidates_are_determinant_roots(self):
        region = esa_region_radial(2, 6, 0)
        det = hurwitz_assemble(2, 6, 0).det_in_c
        for v in region.boundary_candidates:
            if isinstance(v, AlgebraicReal):
                assert v.is_rational and det(v.rational_value) == 0
            else:
                assert det(v) == 0


class TestGammaThreshold:
    def test_fourth_order_table(self):
        for n, want in golden.GAMMA2_TABLE.items():
            assert gamma_threshold(2, n, 0) == want

    def test_sixth_order_dimension_two(self):
        assert gamma_threshold(3, 2, 0) == 36864

    def test_island_five_significant_figures(self):
        thr = gamma_threshold(5, 20, 0)
        lo, hi = thr.refine(F(10) ** 5)
        mid = (lo + hi) / 2
        assert abs(mid - golden.ISLAND_GAMMA_APPROX) <= F(5) * 10 ** 5

    def test_closed_form_agreement_m2(self, rng):
        for _ in range(10):
            n = rng.randint(2, 16)
            l = rng.randint(0, 8)
            assert gamma_threshold(2, n, l) == gamma2_closed_form(n, l)


class TestFullRegions:
    def test_sector_zero_is_binding_for_fourth_order(self):
        region = esa_region_full(2, 5, 12)
        assert len(region.pieces) == 1
        assert value_cmp(region.pieces[0].lo, F(21)) == 0
        assert region.certified_up_to_l == 12
        assert region.oracle_checked == "closed-form"

    def test_zero_coupling_membership(self):
        assert esa_region_full(2, 8, 12).contains(F(0))
        assert not esa_region_full(2, 7, 12).contains(F(0))

    def test_island_full(self):
        region = esa_region_full(5, 20, 12)
        beta, gamma = golden.island_roots()
        assert len(region.pieces) == 2
        assert region.pieces[0].hi.equals(beta)
        assert region.pieces[1].lo.equals(gamma)
        assert region.oracle_checked == "closed-form"


class TestOracles:
    def test_quartic_family_branches(self):
        assert euler_esa_closed_form(F(0), F(45))
        assert not euler_esa_closed_form(F(0), F(449, 10))
        assert euler_esa_closed_form(F(-3), F(351, 16))
        assert not euler_esa_closed_form(F(-3), F(350, 16))

    def test_fourth_order_thresholds(self):
        assert oracle_threshold(2, 5).pieces[0].lo == F(21)
        assert gamma2_closed_form(5, 0) == 3 * 7 * 1

    def test_sixth_order_thresholds(self):
        assert gamma3_closed_form(10) == 945
        assert gamma3_closed_form(2) == 36864
        surd = gamma3_closed_form(5)
        assert isinstance(surd, AlgebraicReal)

    def test_first_order_threshold(self):
        region = oracle_threshold(1, 4)
        assert value_cmp(region.pieces[0].lo, F(0)) == 0

    def test_no_closed_form(self):
        assert oracle_threshold(4, 9) is None
        assert oracle_threshold(5, 21) is None

    def test_engine_oracle_equivalence_sample(self, rng):
        for _ in range(60):
            c1 = rand_fraction(rng, -20, 20, 8)
            c2 = rand_fraction(rng, -20, 20, 8)
            hp = halfplane_count(euler_quartic(c1, c2))
            assert (hp.left + hp.axis == 2) == euler_esa_closed_form(c1, c2)

    def test_engine_oracle_on_boundaries(self, rng):
        for _ in range(10):
            c1 = rand_fraction(rng, -8, 8, 4)
            for c2 in (45 + 12 * c1 + c1 * c1, -F(105, 16) - F(19, 2) * c1):
                hp = halfplane_count(euler_quartic(c1, c2))
                assert (hp.left + hp.axis == 2) == euler_esa_closed_form(c1, c2)


class TestMonotoneBinding:
    def test_sector_thresholds_bounded_by_sector_zero(self):
        for n in (2, 5, 9, 12):
            g0 = gamma2_closed_form(n, 0)
            for l in range(0, 21):
                assert gamma2_closed_form(n, l) <= g0

    def test_dimension_three_higher_orders(self):
        # engine reproduction of the sector-monotonicity observation in
        # dimension 3 for higher operator orders (a slice of the full sweep;
        # nothing is asserted beyond the indices checked here)
        for m in (4, 5, 6):
            g0 = gamma_threshold(m, 3, 0)
            for l in range(1, 11):
                assert value_cmp(gamma_threshold(m, 3, l), g0) <= 0


class TestPowerZeroCoupling:
    @pytest.mark.parametrize("m,n,want", [
        (2, 8, True), (2, 7, False),
        (3, 12, True), (3, 11, False),
        (1, 4, True), (1, 3, False),
    ])
    def test_examples(self, m, n, want):
        assert power_zero_coupling(m, n, l_max=12) == want


class TestConjectureExploration:
    def test_low_rows(self):
        rows = conjecture_explore(3)
        assert rows[0]["gamma"] == F(3, 4)
        assert rows[1]["gamma"] == F(45)
        assert rows[2]["log_ratio"] == pytest.approx(1.0, abs=0.05)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            conjecture_explore(99, m_cap=12)


class TestPieceAlgebra:
    def test_intersection_basic(self):
        a = [RegionPiece(F(0), F(10)), RegionPiece(F(20), POS_INF)]
        b = [RegionPiece(F(5), POS_INF)]
        got = intersect_pieces(a, b)
        assert len(got) == 2
        assert (got[0].lo, got[0].hi) == (F(5), F(10))
        assert got[1].lo == F(20) and got[1].hi is POS_INF

    def test_intersection_singleton(self):
        a = [RegionPiece(F(0), F(5))]
        b = [RegionPiece(F(5), POS_INF)]
        got = intersect_pieces(a, b)
        assert len(got) == 1
        assert got[0].lo == F(5) and got[0].hi == F(5)

    def test_intersection_empty(self):
        a = [RegionPiece(F(0), F(1))]
        b = [RegionPiece(F(2), F(3))]
        assert intersect_pieces(a, b) == []

    def test_json_serialization(self):
        region = esa_region_radial(5, 20, 0)
        payload = region.to_json()
        assert payload["pieces"][0]["lo"] == {"type": "rational", "value": "0"}
        assert payload["pieces"][1]["hi"] == {"type": "infinity", "sign": 1}
        assert payload["pieces"][0]["hi"]["type"] == "algebraic"
