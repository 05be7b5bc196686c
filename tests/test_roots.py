import random
from fractions import Fraction as F

import pytest

from esacert.exact import RationalPolynomial, sturm_isolate
from esacert.indicial import IndicialSpec, build_indicial
from esacert.roots import (CertifiedRoot, RealPartPosition, Unresolved,
                           certified_roots, label_trajectories,
                           real_part_position, root_trajectories,
                           trajectory_table)
from conftest import rand_fraction, rand_poly

Z = RationalPolynomial.variable()
HALF = F(1, 2)


class TestCertifiedRoots:
    def test_pure_imaginary_pair_tight_disks(self):
        rs = certified_roots(Z * Z + 1, precision_bits=128)
        assert rs.degree == 2
        for r in rs.roots:
            assert r.radius < F(1, 2 ** 40)
            assert r.re == 0
        ims = sorted(r.im for r in rs.roots)
        assert float(ims[0]) == pytest.approx(-1.0, abs=1e-30)
        assert float(ims[1]) == pytest.approx(1.0, abs=1e-30)

    def test_tenth_order_zero_coupling_roots_exact(self):
        # all ten characteristic exponents are half-integers, found exactly
        rs = certified_roots(build_indicial(IndicialSpec(5, 20, 0, F(0))))
        assert all(r.exact for r in rs.roots)
        got = [r.re for r in rs.roots]
        assert got == [F(-17, 2), F(-13, 2), F(-9, 2), F(-5, 2), F(-1, 2),
                       F(19, 2), F(23, 2), F(27, 2), F(31, 2), F(35, 2)]

    def test_island_interior_real_parts(self):
        # reference real parts at coupling 1.5e10 (displayed to ~4 digits)
        rs = certified_roots(build_indicial(IndicialSpec(5, 20, 0, F(15 * 10 ** 9))))
        want = [-10.03, -7.326, -7.326, -0.496, -0.496,
                9.496, 9.496, 16.33, 16.33, 19.03]
        got = sorted(float(r.re) for r in rs.expanded())
        assert got == pytest.approx(want, abs=5e-3)

    def test_multiplicities(self):
        p = (Z - 1) ** 3 * (Z * Z + 2)
        rs = certified_roots(p)
        mults = sorted(r.multiplicity for r in rs.roots)
        assert mults == [1, 1, 3]
        assert rs.degree == 5

    def test_disks_pairwise_disjoint(self, rng):
        for _ in range(10):
            p = rand_poly(rng, rng.randint(2, 8))
            rs = certified_roots(p)
            disks = [(r.re, r.im, r.radius) for r in rs.roots]
            for i in range(len(disks)):
                for j in range(i + 1, len(disks)):
                    dr = disks[i][0] - disks[j][0]
                    di = disks[i][1] - disks[j][1]
                    s = disks[i][2] + disks[j][2]
                    assert dr * dr + di * di > s * s

    def test_disk_sum_identity(self, rng):
        # sum of centers matches -a_{d-1}/a_d within the accumulated radii
        for _ in range(10):
            p = rand_poly(rng, rng.randint(2, 8))
            rs = certified_roots(p)
            total_re = sum(r.re * r.multiplicity for r in rs.roots)
            total_im = sum(r.im * r.multiplicity for r in rs.roots)
            slack = sum(r.radius * r.multiplicity for r in rs.roots)
            target = -p.coeffs[-2] / p.coeffs[-1]
            assert abs(total_re - target) <= slack
            assert abs(total_im) <= slack

    def test_reconstruction_close_to_monic_input(self, rng):
        # multiply the disks back together; coefficients must sit within a
        # generous bound driven by the radii
        for _ in range(6):
            p = rand_poly(rng, rng.randint(2, 6))
            rs = certified_roots(p)
            monic = p.monic()
            prod_re = [F(1)]
            prod_im = [F(0)]
            for r in rs.expanded():
                new_re = [F(0)] * (len(prod_re) + 1)
                new_im = [F(0)] * (len(prod_re) + 1)
                for k in range(len(prod_re)):
                    new_re[k + 1] += prod_re[k]
                    new_im[k + 1] += prod_im[k]
                    new_re[k] -= prod_re[k] * r.re - prod_im[k] * r.im
                    new_im[k] -= prod_re[k] * r.im + prod_im[k] * r.re
                prod_re, prod_im = new_re, new_im
            scale = max(1, max(abs(float(r.re)) + abs(float(r.im)) for r in rs.roots))
            bound = sum(float(r.radius) for r in rs.expanded())
            bound *= (1 + scale) ** p.degree * p.degree
            for k in range(p.degree + 1):
                assert abs(float(prod_re[k] - monic.coeffs[k])) <= bound + 1e-25
                assert abs(float(prod_im[k])) <= bound + 1e-25

    def test_real_count_agrees_with_sturm(self, rng):
        for _ in range(15):
            p = rand_poly(rng, rng.randint(1, 10))
            rs = certified_roots(p)
            maybe_real = sum(r.multiplicity for r in rs.roots
                             if abs(r.im) <= r.radius)
            sturm_real = sum(m for _iv, m in sturm_isolate(p))
            assert maybe_real == sturm_real

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            certified_roots(RationalPolynomial((3,)))


class TestRealPartPosition:
    def test_exact_axis_membership(self):
        rs = certified_roots(build_indicial(IndicialSpec(5, 20, 0, F(0))))
        pos = real_part_position(rs, -HALF)
        assert pos == RealPartPosition(left=4, axis=1, right=5)

    def test_quadratic_off_axis(self):
        rs = certified_roots(Z * Z + 1)
        assert real_part_position(rs, -HALF) == RealPartPosition(0, 0, 2)

    def test_fourth_order_boundary_dimension(self):
        # roots {-5/2, -1/2, 7/2, 11/2}
        rs = certified_roots(build_indicial(IndicialSpec(2, 8, 0, F(0))))
        assert real_part_position(rs, -HALF) == RealPartPosition(1, 1, 2)

    def test_unresolved_for_irrational_axis_roots(self):
        # (z + 1/2)^2 + 2 has roots exactly on the line with irrational
        # imaginary parts; no finite precision can separate the disks
        p = (Z + HALF) * (Z + HALF) + 2
        rs = certified_roots(p)
        pos = real_part_position(rs, -HALF)
        assert isinstance(pos, Unresolved)
        assert len(pos.straddling) == 2


class TestPairing:
    def test_symmetry_about_m_minus_half(self, rng):
        # real parts of indicial roots pair to 2m - 1 within certified radii
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(2, 15)
            l = rng.randint(0, 6)
            c = rand_fraction(rng, -60, 60, 8)
            rs = certified_roots(build_indicial(IndicialSpec(m, n, l, c)))
            ex = rs.expanded()
            for j in range(len(ex)):
                a, b = ex[j], ex[2 * m - 1 - j]
                slack = a.radius + b.radius
                assert abs((a.re + b.re) - (2 * m - 1)) <= slack

    def test_at_most_m_roots_weakly_left(self, rng):
        for _ in range(40):
            m = rng.randint(1, 4)
            n = rng.randint(2, 15)
            l = rng.randint(0, 6)
            c = rand_fraction(rng, -60, 60, 8)
            from esacert.stability import halfplane_count
            hp = halfplane_count(build_indicial(IndicialSpec(m, n, l, c)))
            assert hp.left + hp.axis <= m


class TestTrajectories:
    def test_zero_coupling_point_symmetric(self):
        rows = root_trajectories(3, 7, 0, [F(0)])
        res = sorted(float(pt.re) for pt in rows)
        m = 3
        for a, b in zip(res, reversed(res)):
            assert a + b == pytest.approx(2 * m - 1, abs=1e-25)

    def test_island_branch_tracking(self):
        rows = root_trajectories(5, 20, 0, [F(5 * 10 ** 9), F(15 * 10 ** 9)])
        label5 = {str(pt.c): float(pt.re) for pt in rows if pt.label == 5}
        assert label5["5000000000"] == pytest.approx(-0.555, abs=2e-3)
        assert label5["15000000000"] == pytest.approx(-0.496, abs=2e-3)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            root_trajectories(2, 5, 0, [F(1), F(1)])

    def test_generic_family_with_crossing_flags(self):
        # fourth-order family at fixed c1 < -11/4, sweeping the second
        # parameter through the boundary; labels stay a permutation
        from esacert.indicial import euler_quartic
        grid = [F(k) for k in range(18, 26)]
        rows = trajectory_table(lambda c2: euler_quartic(F(-3), c2), grid)
        for c in grid:
            labels = sorted(pt.label for pt in rows if pt.c == c)
            assert labels == [1, 2, 3, 4]
