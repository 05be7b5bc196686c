import functools
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import earlier_kernel
from esacert import esa, golden
from esacert.esa import (POS_INF, EsaRegion, RegionPiece,
                         TangentialCrossingError, Verdict,
                         conjecture_explore, esa_decide_radial,
                         esa_region_full, esa_region_radial,
                         euler_esa_closed_form, gamma2_closed_form,
                         gamma3_closed_form, gamma_threshold,
                         intersect_pieces, oracle_threshold,
                         power_zero_coupling, value_cmp, value_eq)
from earlier_kernel import simplest_between
from esacert.exact import AlgebraicReal, RationalPolynomial
from esacert.indicial import IndicialSpec
from esacert.stability import (HalfPlaneCount, HurwitzData, halfplane_count,
                               hurwitz_assemble)
from esacert.indicial import euler_quartic
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

    def test_contains_takes_algebraic_values(self):
        # the ends beta and gamma of the island, as AlgebraicReals of their
        # own; a float is still rejected
        region = esa_region_radial(5, 20, 0)
        beta, gamma = golden.island_roots()
        assert region.contains(beta) and region.contains(gamma)
        assert not region.contains(F((float(beta) + float(gamma)) / 2))
        with pytest.raises(TypeError):
            region.contains(float(gamma))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(2, 30), st.integers(0, 14))
    def test_region_membership_consistent_with_decide(self, m, nu, l):
        l = min(l, (nu - 2) // 2)
        n = nu - 2 * l
        region = esa_region_radial(m, n, l)
        pieces, candidates = region.pieces, region.boundary_candidates
        # sorted, disjoint, closed; the -inf cell is non-ESA and the last
        # piece unbounded
        assert pieces and pieces[-1].hi is POS_INF
        for p in pieces:
            assert p.lo is not POS_INF
            assert p.hi is POS_INF or value_cmp(p.lo, p.hi) <= 0
        for a, b in zip(pieces, pieces[1:]):
            assert value_cmp(a.hi, b.lo) < 0
        ends = [p.lo for p in pieces] + [p.hi for p in pieces[:-1]]
        assert all(any(value_eq(e, v) for v in candidates) for e in ends)
        # the verdict at one rational in each gap and at each rational
        # candidate
        bounds = [v.interval if isinstance(v, AlgebraicReal) else (v, v)
                  for v in candidates]
        points = [F(math.floor(bounds[0][0]) - 1), F(math.ceil(bounds[-1][1]) + 1)]
        points += [simplest_between(a[1] + (b[0] - a[1]) / 8, b[0] - (b[0] - a[1]) / 8)
                   for a, b in zip(bounds, bounds[1:])]
        points += [v for v in candidates if isinstance(v, F)]
        for c in points:
            v = esa_decide_radial(IndicialSpec(m, n, l, c), with_certificate=False)
            assert region.contains(c) == v.is_esa

    def test_boundary_candidates_are_determinant_roots(self):
        irrational = 0
        for m, n in ((2, 6), (3, 3), (5, 20)):
            region = esa_region_radial(m, n, 0)
            det = hurwitz_assemble(m, n, 0).det_in_c
            for v in region.boundary_candidates:
                if isinstance(v, AlgebraicReal):
                    irrational += 1
                    assert (det % v.defining).is_zero
                else:
                    assert det(v) == 0
        assert irrational > 0


@functools.lru_cache(maxsize=None)
def _candidate_count(m, n, l):
    return len(esa_region_radial(m, n, l).boundary_candidates)


class TestCrossingSweep:
    def test_matches_sampled_regions(self):
        # the earlier per-gap sampling as a differential oracle: same pieces,
        # and the same membership wherever the oracle can decide it
        for m in range(1, 6):
            for nu in range(2, 41):
                region = esa_region_radial(m, nu, 0)
                candidates, member, pieces = earlier_kernel.sampled_region(m, nu, 0)
                assert len(candidates) == len(region.boundary_candidates)
                assert region.equals(EsaRegion(m=m, n=nu, pieces=pieces,
                                               boundary_candidates=candidates))
                for v, want in zip(region.boundary_candidates, member):
                    if want is not None:
                        assert region.contains(v) == want

    def test_zero_slope_at_the_origin_raises(self, monkeypatch):
        # O(v) = v: the root at w = 0 is double at c = r
        even, odd = RationalPolynomial([1, 0, 1]), RationalPolynomial([0, 1])
        hd = HurwitzData(m=2, nu=0, big_a=tuple(16 * c for c in (1, 0, 0, 1, 1)),
                         q_nums=(1, 1), den=1, r_num=-16)
        assert hd.det_in_c == RationalPolynomial([1, 2, 1])
        assert (hd.linear_root, hd.q_factor) == (-1, RationalPolynomial([1, 1]))
        assert hd.shifted_base.even_odd_split() == (even, odd)
        monkeypatch.setattr(esa, "_hurwitz_cached", lambda *args: hd)
        with pytest.raises(TangentialCrossingError):
            esa_region_radial(2, 2, 0)

    def test_double_negative_root_of_the_odd_part_raises(self, monkeypatch):
        # O(v) = (v + 1)^2: the pair w = +-i touches the line at c = 1
        even, odd = RationalPolynomial([0, 0, 0, 1]), RationalPolynomial([1, 2, 1])
        hd = HurwitzData(m=3, nu=0,
                         big_a=tuple(-64 * c for c in (0, 1, 0, 2, 0, 1, 1)),
                         q_nums=(1, -2, 1), den=1, r_num=0)
        assert hd.det_in_c == RationalPolynomial([0, 1, -2, 1])
        assert (hd.linear_root, hd.q_factor) == (0, RationalPolynomial([1, -2, 1]))
        assert hd.shifted_base.even_odd_split() == (even, odd)
        monkeypatch.setattr(esa, "_hurwitz_cached", lambda *args: hd)
        with pytest.raises(TangentialCrossingError):
            esa_region_radial(3, 2, 0)

    def test_coincident_crossings_leave_an_isolated_point(self, monkeypatch):
        # at (3, 3, 0) the left count runs 3 -> 1 -> 0 -> 2 down past the
        # candidates 36201.2, 10395/64, -693.02; moving the rightward pair of
        # -693.02 up to 10395/64 keeps the end counts and puts m = 3 roots
        # weakly left at that point only
        assert esa_region_radial(3, 3, 0).render() == "[36201.2, ∞)"
        monkeypatch.setattr(esa, "_crossings",
                            lambda hd, bounds: [[0, 0], [1, 2], [2, 0]])
        assert esa_region_radial(3, 3, 0).render() == "{10395/64} ∪ [36201.2, ∞)"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from([(5, 20, 0), (7, 2, 0)]), st.data())
    def test_one_pass_matches_two_list_assembly(self, key, data):
        # random crossing walks down from m roots left in the top cell, each
        # keeping 0 <= left and left + dec <= m and ending below m, against
        # the earlier assembly from the cell and membership lists
        m, n, l = key
        left, moves = m, []
        for _ in range(_candidate_count(m, n, l)):
            dec = data.draw(st.integers(0, m - left))
            inc = data.draw(st.integers(0, left + dec))
            moves.append([inc, dec])
            left += dec - inc
        assume(left != m)
        moves.reverse()     # listed from the lowest candidate up
        counts = iter([m, left])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(esa, "_crossings", lambda hd, bounds: moves)
            mp.setattr(esa, "halfplane_count",
                       lambda p: HalfPlaneCount(next(counts), 0, 0))
            region = esa_region_radial(m, n, l)
        want = earlier_kernel.swept_pieces(m, region.boundary_candidates, moves)
        assert len(region.pieces) == len(want)
        for got, ref in zip(region.pieces, want):
            assert got.lo is ref.lo and got.hi is ref.hi

    @pytest.mark.parametrize("moves,counts,message", [
        ([[0, 0], [0, 0], [0, 0]], [4, 4], r"\+infinity cell"),
        ([[0, 0], [0, 0], [0, 1]], [5, 5], "more than m roots"),
        ([[0, 0], [0, 0], [2, 0]], [5, 4], "disagrees with the count below"),
        ([[0, 0], [0, 0], [0, 0]], [5, 5], "-infinity cell"),
    ])
    def test_inconsistent_walks_raise(self, monkeypatch, moves, counts, message):
        # (5, 20, 0) has three candidates; the counts are above and below them
        counts = iter(counts)
        monkeypatch.setattr(esa, "_crossings", lambda hd, bounds: moves)
        monkeypatch.setattr(esa, "halfplane_count",
                            lambda p: HalfPlaneCount(next(counts), 0, 0))
        with pytest.raises(AssertionError, match=message):
            esa_region_radial(5, 20, 0)

    def test_two_counts_per_region(self, monkeypatch):
        calls = []
        monkeypatch.setattr(esa, "halfplane_count",
                            lambda p: calls.append(p) or halfplane_count(p))
        for m, n, l in ((5, 20, 0), (3, 3, 0), (6, 25, 1)):
            calls.clear()
            esa_region_radial(m, n, l)
            assert len(calls) == 2


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


# a boundary point, and points 1e-40 off it on either side
NEAR = (F(0), F(1, 10 ** 40), -F(1, 10 ** 40))
BREAK_C1 = F(-11, 4)


def _c1_on(branch):
    """Rationals c1 on the lower (c1 < -11/4) or upper (c1 >= -11/4) branch
    of the closed-form boundary, and the break c1 = -11/4 itself."""
    if branch == "break":
        return st.just(BREAK_C1)
    c1 = st.fractions(min_value=-40, max_value=20, max_denominator=16)
    if branch == "lower":
        return c1.filter(lambda c: c < BREAK_C1)
    return c1.filter(lambda c: c >= BREAK_C1)


class TestEngineAgainstClosedForms:
    """Derandomized hypothesis suites of the exact engine against the closed
    forms, at, just above and just below each boundary."""

    @staticmethod
    def boundary_c2(c1):
        if c1 >= BREAK_C1:
            return 45 + 12 * c1 + c1 * c1
        return -F(105, 16) - F(19, 2) * c1

    @pytest.mark.parametrize("branch", ("lower", "upper", "break"))
    @settings(max_examples=70, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_quartic_halfplane_count(self, branch, data):
        c1 = data.draw(_c1_on(branch))
        on = self.boundary_c2(c1)
        for c2 in [on + d for d in NEAR] + [on + 1, on - 1]:
            hp = halfplane_count(euler_quartic(c1, c2))
            assert (hp.left + hp.axis == 2) == euler_esa_closed_form(c1, c2), \
                f"({c1}, {c2})"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 40), st.integers(0, 12),
           st.fractions(min_value=-10, max_value=10, max_denominator=9))
    def test_radial_fourth_order_threshold(self, n, l, off):
        threshold = gamma2_closed_form(n, l)
        for c in [threshold + d for d in NEAR] + [threshold + off,
                                                   threshold - off]:
            verdict = esa_decide_radial(IndicialSpec(2, n, l, c))
            assert verdict.is_esa == (c >= threshold), f"({n}, {l}, {c})"


# sector bounds L with which esa_region_full(m, n, L) passes its own oracle
# check: l = 0 binds for m = 1, and the bench certifies m = 3 up to l = 2
# and the island up to l = 1
_ORACLE_L = {1: 0, 3: 2, 5: 1}


@functools.lru_cache(maxsize=None)
def _oracle_pieces(m, n):
    """The closed-form region's pieces, after `esa_region_full(m, n, L)` has
    matched them."""
    assert esa_region_full(m, n, _ORACLE_L[m]).oracle_checked == "closed-form"
    return tuple(oracle_threshold(m, n).pieces)


@st.composite
def _specs_near_oracle_pieces(draw):
    """(m, n, c): m = 1, m = 3 (n <= 9 gives the surd branch of
    gamma3_closed_form) or the (5, 20) island, and a rational c at an end of
    a piece, a hair or a stretch to either side of it, so inside a piece,
    between pieces and just outside them."""
    m, n = draw(st.one_of(st.tuples(st.just(1), st.integers(2, 40)),
                          st.tuples(st.just(3), st.integers(2, 16)),
                          st.just((5, 20))))
    ends = [v for piece in _oracle_pieces(m, n) for v in (piece.lo, piece.hi)
            if v is not POS_INF]
    end = draw(st.sampled_from(ends))
    side = draw(st.sampled_from((-1, 1)))
    if draw(st.booleans()):
        step = F(1, 10 ** draw(st.integers(1, 40)))       # a hair
    else:
        step = draw(st.fractions(min_value=F(1, 1000), max_value=2,
                                 max_denominator=1000)) * max(1, round(abs(float(end))))
    if isinstance(end, AlgebraicReal):
        lo, hi = end.refine(step)
        return m, n, hi if side > 0 else lo
    return m, n, end + side * step * draw(st.sampled_from((0, 1)))


class TestEngineAgainstOracleThreshold:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_specs_near_oracle_pieces())
    def test_sector_verdicts_match_the_closed_form_region(self, spec):
        m, n, c = spec
        engine = all(esa_decide_radial(IndicialSpec(m, n, l, c),
                                       with_certificate=False).is_esa
                     for l in range(_ORACLE_L[m] + 1))
        region = EsaRegion(m=m, n=n, pieces=list(_oracle_pieces(m, n)),
                           boundary_candidates=[])
        assert engine == region.contains(c), (m, n, c)


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
            conjecture_explore(99)

    def test_floats_match_the_mpmath_formula(self):
        # the table in hardware floats prints the same reprs as the same
        # formula in 53-bit mpmath
        import mpmath as mp

        with mp.workprec(53):
            for row in conjecture_explore(9):
                m, thr = row["m"], row["gamma"]
                approx = (mp.mpf(2 * m * m) / mp.pi) ** (2 * m)
                if isinstance(thr, AlgebraicReal):
                    g = mp.mpf(float(thr))
                else:
                    g = mp.mpf(thr.numerator) / mp.mpf(thr.denominator)
                ratio = float(mp.log(g) / mp.log(approx)) if g > 0 else None
                assert repr(row["comparison"]) == repr(float(approx))
                assert repr(row["log_ratio"]) == repr(ratio)


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
