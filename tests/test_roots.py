import itertools
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esacert import roots
from esacert.exact import poly
from esacert.exact import (RationalPolynomial, exact_real_roots, rational_roots,
                           rational_sqrt, real_root_factors,
                           square_free_decomposition)
from esacert.indicial import (IndicialSpec, build_indicial, euler_quartic,
                               root_trajectories)
from esacert.roots import (MAX_BITS, START_BITS, CertifiedRoot, OrderedRootSet,
                           RealPartPosition, Unresolved, _NumericFactor, _aberth,
                           _certify, _even_about_centroid, _float_seeds,
                           _min_cost_assignment, _pairwise_disjoint,
                           _rational_roots_in_disks, _split, _sqrt_upper_pow2,
                           certified_roots, real_part_position, trajectory_table)
from esacert.stability import hurwitz_assemble
from conftest import rand_fraction, rand_poly, real_root_count

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
            sturm_real = real_root_count(p)
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


def _full_degree_disks(p, prec):
    """Disks of the distinct roots of p: each rational root exactly, the
    others from the full-degree iteration on each square-free factor f
    (`_aberth` on f, then `_certify` on f), doubling the precision until
    the disks are disjoint."""
    while prec <= MAX_BITS:
        disks = []
        for f, _ in square_free_decomposition(p):
            for r in rational_roots(f):
                f = f.divide_exact(RationalPolynomial((-r, 1)))
                disks.append((r, F(0), F(0)))
            if f.degree >= 1:
                f = f.monic()
                centers = _aberth(f.coeffs, prec, 40 + 10 * f.degree + prec // 2)
                radii = _certify(f, centers)
                if radii is None:
                    disks = None
                    break
                disks += [(re, im, rad) for (re, im), rad in zip(centers, radii)]
        if disks is not None and _pairwise_disjoint(disks):
            return disks
        prec *= 2
    raise AssertionError("full-degree disks not separated at MAX_BITS")


def _overlap(a, b) -> bool:
    dr, di, s = a[0] - b[0], a[1] - b[1], a[2] + b[2]
    return dr * dr + di * di <= s * s


@st.composite
def symmetric_specs(draw):
    """Indicial polynomials (m <= 5) at random couplings and within
    10^-30..10^-60 of a boundary of the decision problem (a real root of
    the Hurwitz determinant in c), and Euler quartics."""
    kind = draw(st.sampled_from(("random", "boundary", "quartic")))
    if kind == "quartic":
        c1, c2 = draw(_rationals), draw(_rationals)
        return euler_quartic(c1, c2)
    m, n, l = (draw(st.integers(1, 5)), draw(st.integers(2, 12)),
               draw(st.integers(0, 4)))
    if kind == "random":
        c = draw(st.fractions(-10 ** 6, 10 ** 6, max_denominator=1000))
    else:
        bounds = exact_real_roots(hurwitz_assemble(m, n, l).det_in_c)
        b = bounds[draw(st.integers(0, len(bounds) - 1))]
        delta = F(draw(st.sampled_from((-1, 1))), 10 ** draw(st.integers(30, 60)))
        if isinstance(b, F):
            centre = b
        else:
            lo, hi = b.refine(abs(delta) / 1000)
            centre = (lo + hi) / 2
        c = centre + delta
    return build_indicial(IndicialSpec(m, n, l, c))


class TestHalvedPath:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(symmetric_specs())
    def test_matches_full_degree_disks(self, p):
        rs = certified_roots(p)
        halved = [(r.re, r.im, r.radius) for r in rs.roots]
        full = _full_degree_disks(p, START_BITS)
        assert len(halved) == len(full)
        # one to one: every disk meets exactly one disk of the other set
        for a in halved:
            assert sum(_overlap(a, b) for b in full) == 1
        for b in full:
            assert sum(_overlap(a, b) for a in halved) == 1

    @staticmethod
    def _aberth_degrees(monkeypatch):
        degrees = []

        def spy(coeffs, prec_bits, steps):
            degrees.append(len(coeffs) - 1)
            return _aberth(coeffs, prec_bits, steps)

        monkeypatch.setattr(roots, "_aberth", spy)
        return degrees

    def test_non_symmetric_factor_takes_full_degree(self, monkeypatch):
        degrees = self._aberth_degrees(monkeypatch)
        p = Z ** 4 + Z + 1   # no rational roots, centroid 0, odd part z
        assert certified_roots(p).degree == 4
        assert degrees == [4]

    def test_symmetric_factor_takes_half_degree(self, monkeypatch):
        degrees = self._aberth_degrees(monkeypatch)
        certified_roots(build_indicial(IndicialSpec(4, 7, 1, F(12345, 7))))
        certified_roots(euler_quartic(F(-3), F(45, 2)))
        assert degrees == [4, 2]

    def test_pair_clustered_at_the_centre(self):
        # 3/2 +- sqrt(2)*10^-40: y = 2*10^-80 comes out of the halved
        # iteration to full relative precision and the centres are 3/2 +- sqrt(y)
        # summed exactly, so the pair separates at the starting precision
        p = ((Z - F(3, 2)) ** 2 - F(2, 10 ** 80)) * ((Z - F(3, 2)) ** 2 + 1)
        rs = certified_roots(p)
        assert rs.precision_bits == START_BITS
        near = [r for r in rs.roots if abs(r.im) < F(1, 2)]
        assert len(near) == 2 and near[0].re + near[1].re == 3
        assert near[0].re + near[0].radius < F(3, 2) < near[1].re - near[1].radius

    def test_clustered_pairs_escalate(self, monkeypatch):
        # 3/2 +- sqrt(2) and 3/2 +- sqrt(2 + 10^-40), two pairs ~3.5e-41 apart:
        # the halved iteration has a cluster at y = 2 that 128 bits cannot
        # resolve, and gets as many steps as the full-degree one would
        degrees = self._aberth_degrees(monkeypatch)
        p = ((Z - F(3, 2)) ** 2 - 2) * ((Z - F(3, 2)) ** 2 - 2 - F(1, 10 ** 40))
        rs = certified_roots(p)
        assert rs.precision_bits > START_BITS
        assert set(degrees) == {2}
        assert rs.degree == 4 and _pairwise_disjoint(
            [(r.re, r.im, r.radius) for r in rs.roots])
        sqrt2 = F(14142135623730950488, 10 ** 19)
        for r in rs.roots:
            assert abs(abs(r.re - F(3, 2)) - sqrt2) < F(1, 10 ** 18)

    def test_rational_pair_at_the_centre_is_split_off(self):
        # 3/2 +- 10^-30 are rational: found exactly, never iterated
        p = ((Z - F(3, 2)) ** 2 - F(1, 10 ** 60)) * ((Z - F(3, 2)) ** 2 + 1)
        rs = certified_roots(p)
        assert [r.re for r in rs.roots if r.im == 0] == [F(3, 2) - F(1, 10 ** 30),
                                                         F(3, 2) + F(1, 10 ** 30)]
        assert all(r.exact for r in rs.roots)

    def test_odd_degree_splits_off_the_centre(self, monkeypatch):
        # the pass at degree 3 finds 3/2 on its disks; once 3/2 is split
        # off, the rest is iterated at its full degree 2: the factors of a p
        # that is not even about its centroid are not halved
        degrees = self._aberth_degrees(monkeypatch)
        p = (Z - F(3, 2)) * ((Z - F(3, 2)) ** 2 + 1)
        rs = certified_roots(p)
        assert degrees == [3, 2]
        assert [(r.re, r.im) for r in rs.roots] == [
            (F(3, 2), -1), (F(3, 2), 0), (F(3, 2), 1)]


def _full_degree_split(p):
    """Exact roots and numeric factors of p from the exact steps on p itself."""
    exact, numeric = [], []
    for f, mult in square_free_decomposition(p):
        for r in rational_roots(f):
            f = f.divide_exact(RationalPolynomial((-r, 1)))
            exact.append((r, mult))
        if f.degree >= 1:
            numeric.append((mult, f.monic()))
    return sorted(exact), sorted(numeric, key=lambda t: t[0])


_small = st.fractions(min_value=-6, max_value=6, max_denominator=7)
_positive = _small.map(abs).filter(lambda q: q != 0)
_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@st.composite
def paired_products(draw):
    """prod ((z - a)^2 - y)^k over 1..4 draws of y, k in 1..3, with y a
    rational square, twice a square (never a square), zero or negative,
    plus a conjugate pair of non-real y from an irreducible quadratic."""
    a = draw(_small)
    w = RationalPolynomial((-a, 1))
    w2 = w * w
    p = RationalPolynomial.one()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("square", "non-square", "zero",
                                     "negative", "complex")))
        q = draw(_positive)
        if kind == "complex":
            u = draw(_small)
            factor = (w2 - u) ** 2 + q   # y = u +- i sqrt(q)
        else:
            y = {"square": q * q, "non-square": 2 * q * q,
                 "zero": F(0), "negative": -q}[kind]
            factor = w2 - y
        p = p * factor ** draw(st.integers(1, 3))
    return a, p


class TestHalfDegreeSplit:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(paired_products())
    def test_matches_full_degree_split(self, case):
        # given p's rational roots, the split at half the degree divides out
        # what the split on p itself does
        a, p = case
        assert _even_about_centroid(p)[0] == a
        full_exact, full_numeric = _full_degree_split(p)
        exact, numeric = _split(p, {r for r, _ in full_exact})
        assert sorted(exact) == full_exact
        assert sorted(((job.mult, job.f) for job in numeric),
                      key=lambda t: t[0]) == full_numeric
        for job in numeric:
            assert job.a == a and 2 * job.g.degree == job.f.degree

    def test_exact_steps_run_at_half_degree(self, monkeypatch):
        degrees = []
        decompose = roots._decompose

        def spy(q):
            degrees.append(q.degree)
            return decompose(q)

        def isolate(*args):
            raise AssertionError("isolate_real_roots called")

        monkeypatch.setattr(roots, "_decompose", spy)
        monkeypatch.setattr(poly, "isolate_real_roots", isolate)
        certified_roots(build_indicial(IndicialSpec(5, 20, 0, F(15 * 10 ** 9))))
        assert degrees == [5]

    def test_rational_squares_are_exact(self):
        w2 = (Z - F(1, 3)) ** 2
        p = (w2 - F(4, 9)) ** 2 * w2 * (w2 - 2) * (w2 + 1)
        # y = 0 is split off before any iteration; y = 4/9 once its roots
        # -1/3 and 1 are known
        exact, numeric = _split(p)
        assert exact == [(F(1, 3), 2)]
        exact, numeric = _split(p, {F(-1, 3), F(1)})
        assert sorted(exact) == [(F(-1, 3), 2), (F(1, 3), 2), (F(1), 2)]
        assert [(job.mult, job.f.degree, job.real) for job in numeric] == [(1, 4, 2)]
        rs = certified_roots(p)
        assert [(r.re, r.multiplicity) for r in rs.roots if r.exact and r.im == 0] == [
            (F(-1, 3), 2), (F(1, 3), 2), (F(1), 2)]


def _isolation_first_split(p):
    """The exact roots and `_NumericFactor`s of p with every rational root
    split off before any iteration: Sturm isolation of each square-free
    factor (of G at half the degree when p(a + w) = G(w^2)) and
    `rational_roots` on its intervals; a root y of G that is a rational
    square s^2 gives a +- s."""
    half = _even_about_centroid(p)
    exact, numeric = [], []
    if half is None:
        for f, mult, intervals in real_root_factors(p):
            for r in rational_roots(f, intervals):
                f = f.divide_exact(RationalPolynomial((-r, 1)))
                exact.append((r, mult))
            if f.degree >= 1:
                numeric.append(_NumericFactor(f.monic(), mult))
        return exact, numeric
    a, big_g = half
    for g, mult, intervals in real_root_factors(big_g):
        real = len(intervals)
        for y in rational_roots(g, intervals):
            s = rational_sqrt(y)
            if s is None:
                continue
            g = g.divide_exact(RationalPolynomial((-y, 1)))
            real -= 1
            exact += [(a, 2 * mult)] if s == 0 else [(a - s, mult), (a + s, mult)]
        if g.degree >= 1:
            g = g.monic()
            if 2 * g.degree == p.degree:
                f = p.monic()
            else:
                f = RationalPolynomial([c for gk in g.coeffs for c in (gk, 0)][:-1])
                f = f.shift(-a)
            numeric.append(_NumericFactor(f, mult, a, g, real))
    return exact, numeric


def _disjoint_by_fractions(disks):
    """Every pair of closed disks (re, im, radius) compared in Fractions."""
    return all((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 > (a[2] + b[2]) ** 2
               for a, b in itertools.combinations(disks, 2))


def _isolation_first_roots(p, prec=START_BITS):
    """`certified_roots` from `_isolation_first_split`: every centre gets
    its own certificate, and the disks are compared in Fractions."""
    exact, numeric = _isolation_first_split(p)
    while prec <= MAX_BITS:
        found = [CertifiedRoot(re=r, im=F(0), radius=F(0), multiplicity=m)
                 for r, m in exact]
        for job in numeric:
            centers = roots._centers(job, prec)
            radii = _certify(job.f, centers)
            if radii is None:
                break
            found += [CertifiedRoot(re=re, im=im, radius=rad, multiplicity=job.mult)
                      for (re, im), rad in zip(centers, radii)]
        else:
            if _disjoint_by_fractions([(r.re, r.im, r.radius) for r in found]):
                found.sort(key=lambda r: (r.re, r.im))
                return OrderedRootSet(roots=tuple(found), precision_bits=prec)
        prec *= 2
    raise AssertionError("isolation-first disks not separated at MAX_BITS")


_huge = st.builds(lambda u, k: F(u, 10 ** 42 + k),
                  st.integers(-10 ** 45, 10 ** 45), st.integers(1, 10 ** 6))


@st.composite
def split_cases(draw):
    """Products of a zero root, small rational roots, rational roots with
    denominators above 10^42 and quadratics, each factor possibly squared;
    products even about a centre (`paired_products`: y = 0, rational
    squares y, squared factors); and a rational root 10^-30 or 10^-100 from
    an irrational pair, about a centre and about none."""
    kind = draw(st.sampled_from(("product", "paired", "near")))
    if kind == "paired":
        return draw(paired_products())[1]
    if kind == "near":
        r = draw(_small)
        d = F(1, 10 ** draw(st.sampled_from((30, 100))))
        real = draw(st.booleans())   # a real or a complex pair
        if draw(st.booleans()):   # r +- d and r +- sqrt(2) d or r +- i d
            return ((Z - r) ** 2 - d * d) * ((Z - r) ** 2 - (2 if real else -1) * d * d)
        # r and r + d +- sqrt(2) d or r + d +- i sqrt(2) d
        return (Z - r) * ((Z - r - d) ** 2 - (2 if real else -2) * d * d)
    p = RationalPolynomial.one()
    for _ in range(draw(st.integers(1, 4))):
        factor = draw(st.sampled_from(("zero", "rational", "huge", "quadratic")))
        f = {"zero": lambda: Z,
             "rational": lambda: Z - draw(_small),
             "huge": lambda: Z - draw(_huge),
             "quadratic": lambda: RationalPolynomial((draw(_small), draw(_small), 1)),
             }[factor]()
        p = p * f ** draw(st.integers(1, 2))
    return p


class TestSplitOnDisks:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(split_cases())
    def test_matches_isolation_first(self, p):
        assert certified_roots(p) == _isolation_first_roots(p)

    @pytest.mark.parametrize("p", (
        Z ** 2 * (Z * Z + Z + 1),                         # a zero root
        Z ** 3 * (Z - F(5, 3)) * (Z * Z + 3),             # with 0 as the centroid
        (Z - F(7, 5)) ** 2 * ((Z - F(7, 5)) ** 2 + 1),    # y = 0
        (Z - F(7, 5)) ** 4 * ((Z - F(7, 5)) ** 2 - 3),
    ))
    def test_zero_and_centre_split_before_iteration(self, p):
        assert certified_roots(p) == _isolation_first_roots(p)

    @pytest.mark.parametrize("e", (30, 100))
    def test_rational_root_near_an_irrational_pair(self, e):
        # the detection pass escalates for the cluster; the final pass runs
        # on the parent's factors and returns the isolation-first disks
        d = F(1, 10 ** e)
        p = (Z - F(3, 7)) * ((Z - F(3, 7) - d) ** 2 - 2 * d * d) * (Z * Z + 1)
        rs = certified_roots(p)
        assert rs == _isolation_first_roots(p)
        assert [r.re for r in rs.roots if r.exact and r.im == 0] == [F(3, 7)]

    def test_shadow_end_is_a_root(self):
        f = ((Z - 1) * (Z * Z + 1)).monic()
        disks = [(F(3, 4), F(0), F(1, 4)), (F(0), F(1), F(1, 8)), (F(0), F(-1), F(1, 8))]
        assert _rational_roots_in_disks(f, disks) == [F(1)]

    def test_overlapping_shadows_isolate_f(self):
        # the two disks meet the axis off centre and their shadows overlap:
        # f's own isolation decides
        f = ((Z - 1) * (Z - F(3, 2))).monic()
        disks = [(F(1), F(3, 10), F(7, 20)), (F(3, 2), F(-3, 10), F(7, 20))]
        assert _rational_roots_in_disks(f, disks) == [F(1), F(3, 2)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(_rationals, _rationals,
                              st.fractions(0, 20, max_denominator=30)),
                    max_size=8))
    def test_disjointness_in_integers(self, disks):
        assert _pairwise_disjoint(disks) == _disjoint_by_fractions(disks)

    @pytest.mark.parametrize("disks", (
        [(F(0), F(0), F(1)), (F(2), F(0), F(1))],
        [(F(1, 3), F(0), F(2, 7)), (F(1, 3), F(4, 7), F(2, 7))],
        [(F(0), F(0), F(2, 3)), (F(3, 5), F(4, 5), F(1, 3)), (F(9), F(0), F(0))],
    ))
    def test_touching_disks_meet(self, disks):
        # closed disks whose centres are exactly the sum of the radii apart
        assert not _pairwise_disjoint(disks)
        assert not _disjoint_by_fractions(disks)


class TestAxisRoots:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(symmetric_specs())
    def test_real_roots_have_zero_imaginary_part(self, p):
        rs = certified_roots(p)
        on_axis = sum(r.multiplicity for r in rs.roots if r.im == 0)
        assert on_axis == real_root_count(p)

    def test_negative_y_gives_the_line_through_the_centre(self):
        p = ((Z - F(3, 2)) ** 2 + 2) * ((Z - F(3, 2)) ** 2 - 3)
        rs = certified_roots(p)
        assert [r.im for r in rs.roots if r.re != F(3, 2)] == [0, 0]
        line = [r for r in rs.roots if r.re == F(3, 2)]
        assert len(line) == 2 and line[0].im == -line[1].im < 0

    def test_real_roots_print_zero_im(self):
        rows = root_trajectories(5, 20, 0, [F(15 * 10 ** 9)])
        body = roots.trajectory_csv_rows(rows)[1:]
        real = [row for row in body if row[3] == "0.0"]
        # two real roots at 1.5e10 (-10.03 and 19.03), eight non-real
        assert len(real) == 2
        assert all(float(row[3]) != 0 for row in body if row not in real)


class TestStepBudget:
    def test_pairs_closer_than_the_fixed_budget_reached(self):
        # 3/2 +- sqrt(2) and 3/2 +- sqrt(2 + 10^-60): the iteration needs
        # more sweeps than 40 + 10 * degree to resolve the cluster at y = 2
        p = ((Z - F(3, 2)) ** 2 - 2) * ((Z - F(3, 2)) ** 2 - 2 - F(1, 10 ** 60))
        rs = certified_roots(p)
        assert rs.precision_bits == 512
        assert rs.degree == 4 and all(r.im == 0 for r in rs.roots)

    @pytest.mark.parametrize("e", (40, 60))
    def test_non_symmetric_cluster(self, e):
        p = (Z * Z - 2) * (Z * Z - 2 - F(1, 10 ** e)) * (Z * Z + Z + 7)
        rs = certified_roots(p)
        # the pair is ~3.5 * 10^-(e+1) apart: 2^-134 for e = 40, 2^-200 for e = 60
        assert rs.precision_bits == {40: 256, 60: 512}[e] and rs.degree == 6
        # a root stops moving once converged, so its center keeps the size
        # of the working precision
        assert all(max(r.re.denominator, r.im.denominator).bit_length() < 4096
                   for r in rs.roots)


class TestFloatSeeds:
    def test_polish_takes_two_sweeps(self, monkeypatch):
        sweeps = []
        step = roots._dyadic_step

        def spy(i, *args):
            sweeps.append(i)
            return step(i, *args)

        monkeypatch.setattr(roots, "_dyadic_step", spy)
        rs = certified_roots(build_indicial(IndicialSpec(5, 20, 0, F(15 * 10 ** 9))))
        assert rs.precision_bits == START_BITS
        assert len(sweeps) == 2 * 5

    def test_overflow_and_collision_give_no_seeds(self):
        assert _float_seeds([F(10 ** 400), F(0), F(1)], [1j, -1j], 50) is None
        assert _float_seeds([F(2), F(0), F(1)], [1 + 1j, 1 + 1j], 50) is None
        seeds = _float_seeds([F(2), F(0), F(1)], [1 + 1j, -1 - 1j], 50)
        assert sorted(abs(w.imag) for w in seeds) == pytest.approx([2 ** 0.5] * 2)

    def test_cold_start_beyond_the_float_range(self):
        # z^3 - z - 10^400 overflows the floats; the roots have modulus
        # about 10^133.3, and the cold start still encloses them
        p = Z ** 3 - Z - 10 ** 400
        rs = certified_roots(p)
        assert rs.precision_bits == START_BITS and rs.degree == 3
        assert all(abs(abs(complex(float(r.re), float(r.im))) / 10 ** 133.3333333 - 1)
                   < 1e-6 for r in rs.roots)


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

    def test_root_count_must_not_change(self):
        # c*z^2 + z + 1 loses a root at c = 0
        with pytest.raises(ValueError, match="root count"):
            trajectory_table(lambda c: RationalPolynomial((1, 1, c)), [F(0), F(1)])


@st.composite
def cost_matrices(draw, max_n=10):
    """Square cost matrices: floats over many scales, small integers (many
    ties), and distances between two conjugate- and mirror-symmetric point
    clouds like consecutive root sets of a real quartic family."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(("float", "small_int", "cloud")))
    if kind == "float":
        scale = 10.0 ** draw(st.integers(-6, 6))
        return [[draw(st.floats(0, 1)) * scale for _ in range(n)] for _ in range(n)]
    if kind == "small_int":
        return [[float(draw(st.integers(0, 3))) for _ in range(n)] for _ in range(n)]

    def cloud():
        pts = []
        while len(pts) < n:
            x, y = draw(st.integers(-4, 4)) / 2, draw(st.integers(0, 3)) / 2
            for p in ((x, y), (x, -y), (3 - x, y), (3 - x, -y)):
                if p not in pts:
                    pts.append(p)
        return pts[:n]

    prev, cur = cloud(), cloud()
    return [[math.hypot(px - qx, py - qy) for qx, qy in cur] for px, py in prev]


class TestMinCostAssignment:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(cost_matrices())
    def test_matches_scipy_including_ties(self, cost):
        np = pytest.importorskip("numpy")
        lsap = pytest.importorskip("scipy.optimize").linear_sum_assignment
        assert _min_cost_assignment(cost) == lsap(np.array(cost))[1].tolist()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cost_matrices(max_n=6))
    def test_optimal_cost_by_brute_force(self, cost):
        n = len(cost)
        col = _min_cost_assignment(cost)
        assert sorted(col) == list(range(n))

        def total(perm):
            return sum(F(cost[i][perm[i]]) for i in range(n))

        best = min(total(perm) for perm in itertools.permutations(range(n)))
        assert float(total(col)) == pytest.approx(float(best), rel=1e-12)

    def test_constant_matrix_gives_identity(self):
        assert _min_cost_assignment([[1.0] * 4 for _ in range(4)]) == [0, 1, 2, 3]

    def test_infeasible_matrix_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            _min_cost_assignment([[0.0, math.inf], [1.0, math.inf]])


def _certify_by_fractions(f, centers):
    """The disk radii by Fraction evaluation of f and f' (reference)."""
    df = f.derivative()
    radii = []
    for re, im in centers:
        fr, fi = f.eval_complex_exact(re, im)
        gr, gi = df.eval_complex_exact(re, im)
        den = gr * gr + gi * gi
        if den == 0:
            return None
        radii.append(f.degree * _sqrt_upper_pow2((fr * fr + fi * fi) / den))
    return radii


_dyadics = st.builds(lambda a, k: F(a, 2 ** k),
                     st.integers(-10 ** 12, 10 ** 12), st.integers(0, 60))
_centers = st.tuples(_dyadics, st.one_of(st.just(F(0)), _dyadics))


class TestIntegerCertificate:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_rationals, min_size=2, max_size=9).filter(lambda cs: cs[-1] != 0),
           st.lists(_centers, min_size=1, max_size=4))
    def test_matches_fraction_formula(self, coeffs, centers):
        f = RationalPolynomial(coeffs)
        assert _certify(f, centers) == _certify_by_fractions(f, centers)

    @pytest.mark.parametrize("f, centers", (
        (Z ** 3 - 3 * Z, [(F(3, 8), F(0)), (F(1), F(0))]),
        (Z ** 3 + 3 * Z, [(F(0), F(1))]),
        ((Z - F(5, 4)) ** 2 + F(1, 3), [(F(5, 4), F(0))]),
    ))
    def test_vanishing_derivative_gives_none(self, f, centers):
        assert _certify_by_fractions(f, centers) is None
        assert _certify(f, centers) is None

    def test_integer_centers_and_exact_roots(self):
        f = (Z - 2) * (Z * Z + 1)
        centers = [(F(2), F(0)), (F(0), F(1)), (F(3), F(-7, 4))]
        radii = _certify(f, centers)
        assert radii[:2] == [0, 0]
        assert radii == _certify_by_fractions(f, centers)


_CLUSTER = F(1, 10 ** 40)


@st.composite
def oracle_specs(draw):
    """Symmetric specs (indicial polynomials and Euler quartics), products of
    random factors with multiplicities, and pairs of roots 10^-40 apart,
    about a centre and about no centre."""
    kind = draw(st.sampled_from(("symmetric", "product", "paired-cluster",
                                 "cluster")))
    if kind == "symmetric":
        return draw(symmetric_specs())
    if kind == "product":
        p = RationalPolynomial.one()
        for _ in range(draw(st.integers(1, 3))):
            cs = draw(st.lists(_small, min_size=2, max_size=5).filter(
                lambda cs: cs[-1] != 0))
            p = p * RationalPolynomial(cs) ** draw(st.integers(1, 2))
        return p
    q = draw(_small)
    if kind == "paired-cluster":
        w2 = (Z - draw(_small)) ** 2
        return (w2 - q) * (w2 - q - _CLUSTER) * (w2 + draw(_positive))
    # the factor z^2 + bz + c with b != 0 breaks the symmetry about 0
    return ((Z * Z - q) * (Z * Z - q - _CLUSTER)
            * (Z * Z + draw(_positive) * Z + draw(_small)))


def _oracle_roots(p):
    """(root, multiplicity) for every root of p: mpmath.polyroots at 300 bits
    on each square-free factor."""
    import mpmath as mp

    out = []
    with mp.workprec(300):
        for f, mult in square_free_decomposition(p):
            cs = [mp.mpf(c.numerator) / c.denominator for c in reversed(f.coeffs)]
            ws = mp.polyroots(cs, maxsteps=200, extraprec=300) if f.degree > 1 \
                else [-cs[1] / cs[0]]
            out += [(mp.mpc(w), mult) for w in ws]
    return out


class TestPolyrootsOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(oracle_specs())
    def test_each_disk_holds_its_multiplicity(self, p):
        import mpmath as mp

        rs = certified_roots(p)
        oracle = _oracle_roots(p)
        assert rs.degree == p.degree == sum(m for _, m in oracle)
        with mp.workprec(300):
            for r in rs.roots:
                x = mp.mpc(mp.mpf(r.re.numerator) / r.re.denominator,
                           mp.mpf(r.im.numerator) / r.im.denominator)
                reach = mp.mpf(r.radius.numerator) / r.radius.denominator
                # the coefficients rounded to 300 bits move roots 10^-40
                # apart by about 2^-166; the pairs stay 2^-135 apart
                reach += mp.mpf(2) ** -140 * (1 + abs(x))
                assert sum(m for w, m in oracle if abs(w - x) <= reach) == r.multiplicity

    def test_beyond_the_float_range(self, monkeypatch):
        # 2 * 10^400 overflows the floats, so there are no float seeds, and
        # the roots +- sqrt(2) * 10^200 are enclosed without mpmath
        monkeypatch.setitem(sys.modules, "mpmath", None)
        assert _float_seeds([F(-2 * 10 ** 400), F(1)], [1j], 50) is None
        rs = certified_roots(Z ** 2 - 2 * 10 ** 400)
        assert rs.precision_bits == START_BITS
        assert [r.im for r in rs.roots] == [0, 0]
        lo, hi = rs.roots
        assert lo.re == -hi.re and lo.radius == hi.radius
        assert (hi.re - hi.radius) ** 2 <= 2 * 10 ** 400 <= (hi.re + hi.radius) ** 2
        assert hi.radius < hi.re / 2 ** 100


def _recording_map(root_sets):
    """A map for `trajectory_table` that also keeps the root sets it returns."""
    def record(fn, polys):
        out = list(map(fn, polys))
        root_sets.extend(out)
        return out
    return record


def _even_family(draw):
    """G0((z - a)^2) + c * G1((z - a)^2), even about a at every c."""
    a = draw(_small)
    g0 = draw(st.lists(_small, min_size=1, max_size=3)) + [F(1)]
    g1 = draw(st.lists(_small, min_size=1, max_size=len(g0) - 1))
    w2 = (Z - a) ** 2

    def compose(gs):
        out = RationalPolynomial.zero()
        for g in reversed(gs):
            out = out * w2 + g
        return out

    p0, p1 = compose(g0), compose(g1)
    return lambda c: p0 + p1 * c


@st.composite
def real_families(draw):
    """(family, grid): a real one-parameter family of constant degree, even
    about its centroid, generic, or with a fixed and a moving rational root,
    over 2 to 5 random grid points or 2 to 6 evenly spaced close ones."""
    kind = draw(st.sampled_from(("even", "generic", "rational")))
    if kind == "even":
        family = _even_family(draw)
    elif kind == "generic":
        p0 = RationalPolynomial(draw(st.lists(_small, min_size=2, max_size=6))
                                + [draw(_positive)])
        p1 = RationalPolynomial(draw(st.lists(_small, min_size=1,
                                              max_size=p0.degree)))

        def family(c):
            return p0 + p1 * c
    else:
        r, s = draw(_small), draw(_small)
        q0 = RationalPolynomial(draw(st.lists(_small, min_size=1, max_size=4))
                                + [F(1)])
        q1 = RationalPolynomial(draw(st.lists(_small, min_size=1,
                                              max_size=q0.degree)))

        def family(c):
            return (Z - r - c) * (Z - s) * (q0 + q1 * c)
    if draw(st.booleans()):
        grid = sorted(draw(st.lists(st.fractions(-4, 4, max_denominator=5),
                                    min_size=2, max_size=5, unique=True)))
    else:   # a fine grid, on which labels follow the roots further
        start = draw(st.fractions(-4, 4, max_denominator=5))
        step = draw(st.fractions(F(1, 100), F(1, 4), max_denominator=100))
        grid = [start + k * step for k in range(draw(st.integers(2, 6)))]
    return family, grid


def _sort_decided(rows, c) -> bool:
    """Whether sorting the disks of the rows at c by (re, im) orders their
    roots alike in every run, up to the order within a conjugate pair: any
    two disks whose shadows on the real axis meet have centres with equal
    real parts or are the mirror images of each other."""
    pts = [pt for pt in rows if pt.c == c]
    return all(p.re == q.re or _overlap((p.re, -p.im, p.radius),
                                        (q.re, q.im, q.radius))
               for p, q in itertools.combinations(pts, 2)
               if abs(p.re - q.re) <= p.radius + q.radius)


class TestFloatRung:
    def test_separated_points_report_the_float_rung(self):
        sets = []
        root_trajectories(5, 20, 0, [F(0), F(5 * 10 ** 9), F(15 * 10 ** 9)],
                          map=_recording_map(sets))
        trajectory_table(lambda c2: euler_quartic(F(-3), c2),
                         [F(k) for k in range(18, 26)], map=_recording_map(sets))
        assert [rs.precision_bits for rs in sets] == [roots.FLOAT_BITS] * 11
        # the float disks are exact enclosures: wider than at START_BITS,
        # and still disjoint
        for rs in sets:
            assert _pairwise_disjoint([(r.re, r.im, r.radius) for r in rs.roots])

    def test_clustered_point_goes_on_to_start_bits(self):
        # +-sqrt(2) and +-sqrt(2 + c): at c = 2^-60 the pairs are about 2^-61
        # apart, below the float resolution, and 128 bits separate them
        sets = []
        grid = [F(1, 2 ** 60), F(1), F(2)]
        rows = trajectory_table(lambda c: (Z * Z - 2) * (Z * Z - 2 - c), grid,
                                map=_recording_map(sets))
        assert [rs.precision_bits for rs in sets] == [
            START_BITS, roots.FLOAT_BITS, roots.FLOAT_BITS]
        for c in grid:
            assert sorted(pt.label for pt in rows if pt.c == c) == [1, 2, 3, 4]
        near = [r for r in sets[0].roots if r.re > 0]
        assert len(near) == 2 and all(r.im == 0 for r in near)
        lo, hi = sorted(near, key=lambda r: r.re)
        assert lo.re + lo.radius < hi.re - hi.radius

    def test_float_overflow_skips_the_float_rung(self, monkeypatch):
        # 2 * 10^400 overflows the floats: the float rung gives no centres
        # and the disks come from START_BITS
        calls = []
        aberth = roots._aberth

        def spy(coeffs, prec_bits, steps):
            out = aberth(coeffs, prec_bits, steps)
            calls.append((prec_bits, out is None))
            return out

        monkeypatch.setattr(roots, "_aberth", spy)
        sets = []
        grid = [F(0), F(1)]
        rows = trajectory_table(lambda c: Z ** 2 - 2 * 10 ** 400 + c, grid,
                                map=_recording_map(sets))
        assert calls == [(roots.FLOAT_BITS, True), (START_BITS, False)] * 2
        assert [rs.precision_bits for rs in sets] == [START_BITS] * 2
        for c, rs in zip(grid, sets):
            lo, hi = rs.roots
            assert lo.im == hi.im == 0 and lo.re == -hi.re
            assert ((hi.re - hi.radius) ** 2 <= 2 * 10 ** 400 - c
                    <= (hi.re + hi.radius) ** 2)
        assert [pt.label for pt in rows] == [1, 2, 1, 2]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(real_families())
    def test_rows_match_the_start_bits_rows(self, case):
        """Rows from the float rung against rows from START_BITS disks.

        The noise digits of the centres decide two kinds of exact ties: the
        first grid point's sort when two roots other than a conjugate pair
        share their real part, and a tied matching (say two real roots that
        both move past each other), which always flags a row ambiguous.
        Where neither tie can arise, that is with the first sort decided
        and up to the first grid point at which either run flags a row,
        the rows agree in c, label, flag and exact realness; a label may
        still sit on another member of its root's orbit.  At every grid
        point the root sets agree: as many rows hold an exactly real root,
        and each START_BITS centre lies in exactly one float disk.
        """
        family, grid = case
        got = trajectory_table(family, grid)
        want = roots.label_trajectories(
            grid, [certified_roots(family(c)) for c in grid])
        assert len(got) == len(want)
        flagged = [pt.c for pt in got + want if pt.ambiguous]
        first_flag = min(flagged, default=None)
        if not (_sort_decided(got, grid[0]) and _sort_decided(want, grid[0])):
            first_flag = grid[0]
        for x, y in zip(got, want):
            assert (x.c, x.label) == (y.c, y.label)
            if first_flag is None or x.c < first_flag:
                assert x.ambiguous == y.ambiguous
                assert (x.im == 0) == (y.im == 0)
        for c in grid:
            disks = {(x.re, x.im, x.radius) for x in got if x.c == c}
            ys = [y for y in want if y.c == c]
            assert (sum(x.im == 0 for x in got if x.c == c)
                    == sum(y.im == 0 for y in ys))
            for y in ys:
                assert sum(_overlap((y.re, y.im, F(0)), d) for d in disks) == 1
