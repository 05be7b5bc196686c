import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from earlier_kernel import sqrt_bounds
from esacert.esa import gamma3_closed_form, render_value
from esacert.exact import (AlgebraicReal, RationalPolynomial, exact_real_roots,
                           rational_sqrt, value_compare)

Z = RationalPolynomial.variable()
SQRT2 = lambda: AlgebraicReal(Z * Z - 2, F(1), F(2))


def test_refine_reaches_width_and_contains_sqrt2():
    x = SQRT2()
    lo, hi = x.refine(F(1, 1000))
    assert hi - lo <= F(1, 1000)
    assert lo < F(141421357, 10 ** 8)
    assert hi > F(141421356, 10 ** 8)


def test_refinements_nest():
    x = SQRT2()
    prev = x.interval
    for w in (F(1, 10), F(1, 1000), F(1, 10 ** 9)):
        cur = x.refine(w)
        assert prev[0] <= cur[0] and cur[1] <= prev[1]
        prev = cur


def test_rational_detection_and_comparison():
    # a rational root comes out as a Fraction and compares exactly with an
    # irrational one
    roots = exact_real_roots((Z - F(7, 3)) * (Z * Z - 2))
    q, x = roots[2], roots[1]
    assert isinstance(q, F) and q == F(7, 3)
    assert isinstance(x, AlgebraicReal) and not x.is_rational
    assert x != q and not x.equals(q)
    assert x < q and value_compare(q, x) > 0
    assert x > 1 and x < F(3, 2)


def test_equality_through_gcd():
    a = SQRT2()
    b = AlgebraicReal.from_quadratic_surd(0, 1, 2)
    assert a.equals(b)
    assert a == b
    # same defining polynomial, other root
    c = AlgebraicReal(Z * Z - 2, F(-2), F(-1))
    assert not a.equals(c)
    assert c < a


def test_compare_against_nearby_rationals():
    x = SQRT2()
    assert x > F(141421356, 10 ** 8)
    assert x < F(141421357, 10 ** 8)
    assert x != F(3, 2)


def test_quadratic_surd():
    x = AlgebraicReal.from_quadratic_surd(F(3), F(2), F(5))  # 3 + 2 sqrt(5)
    assert isinstance(x, AlgebraicReal) and not x.is_rational
    lo, hi = x.refine(F(1, 10 ** 8))
    import math
    target = 3 + 2 * math.sqrt(5)
    assert lo <= F(target).limit_denominator(10 ** 9) <= hi or abs(float(x) - target) < 1e-7
    # a perfect-square radicand or b = 0 gives a Fraction
    y = AlgebraicReal.from_quadratic_surd(F(1, 2), F(3), F(49))
    assert isinstance(y, F) and y == F(43, 2)
    z = AlgebraicReal.from_quadratic_surd(F(5), F(0), F(2))
    assert isinstance(z, F) and z == 5


def test_decimal_rendering():
    assert SQRT2().decimal(6) == "1.41421"
    assert render_value(F(45), 5) == "45"


def test_validation_rejects_bad_intervals():
    AlgebraicReal(Z * Z - 2, F(1), F(3))  # isolates the positive root: fine
    with pytest.raises(ValueError):
        AlgebraicReal(Z * Z - 2, F(-2), F(2))  # holds both roots
    with pytest.raises(ValueError):
        AlgebraicReal(Z * Z - 2, F(3), F(4))  # holds none
    with pytest.raises(ValueError):
        AlgebraicReal(Z * Z - 2, F(1), F(1))  # collapsed but not a root


def test_validation_rejects_rational_roots_and_root_ends():
    cubic = (Z - 1) * (Z * Z - 2)
    AlgebraicReal(cubic, F(6, 5), F(3, 2))  # isolates sqrt 2: fine
    with pytest.raises(ValueError):
        AlgebraicReal(cubic, F(1, 2), F(6, 5))  # isolates the rational root 1
    with pytest.raises(ValueError):
        AlgebraicReal(cubic, F(1), F(1))  # collapsed on the rational root
    with pytest.raises(ValueError):
        AlgebraicReal(cubic, F(1), F(3, 2))  # root 1 at the left end
    with pytest.raises(ValueError):
        AlgebraicReal(cubic, F(0), F(1))  # root 1 at the right end


def test_exact_real_roots_mixed():
    p = (Z - F(7, 2)) * (Z * Z - 2) * (Z + 1)
    roots = exact_real_roots(p)
    assert len(roots) == 4
    rationals = [r for r in roots if isinstance(r, F)]
    assert sorted(rationals) == [F(-1), F(7, 2)]
    algebraics = [r for r in roots if isinstance(r, AlgebraicReal)]
    assert len(algebraics) == 2
    # sorted order: -sqrt2 < -1 < sqrt2 < 7/2
    assert value_compare(roots[0], roots[1]) < 0
    assert value_compare(roots[1], roots[2]) < 0
    assert value_compare(roots[2], roots[3]) < 0


_small_rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 8))
_radicands = st.builds(F, st.integers(1, 60), st.integers(1, 9))


def _is_square(q: F) -> bool:
    return all(math.isqrt(k) ** 2 == k for k in (q.numerator, q.denominator))


@st.composite
def known_real_roots(draw):
    """(polynomial, its distinct real roots as floats) from rational roots
    and quadratic surds a +- sqrt(b), with repeated factors and a non-real
    pair mixed in."""
    rationals = draw(st.sets(_small_rationals, max_size=4))
    surds = {(a, b) for a, b in draw(st.sets(st.tuples(_small_rationals, _radicands),
                                             max_size=3)) if not _is_square(b)}
    assume(rationals or surds)
    p = RationalPolynomial.one()
    for r in rationals:
        p = p * (Z - r) ** draw(st.integers(1, 2))
    for a, b in surds:
        p = p * ((Z - a) ** 2 - b) ** draw(st.integers(1, 2))
    if draw(st.booleans()):
        p = p * (Z * Z + 1)
    want = sorted([float(r) for r in rationals]
                  + [float(a) + s * math.sqrt(b) for a, b in surds for s in (-1, 1)])
    return p, want


@settings(max_examples=80, deadline=None, derandomize=True)
@given(known_real_roots())
def test_exact_real_roots_strictly_increasing_disjoint(case):
    p, want = case
    roots = exact_real_roots(p)
    ivs = [r.interval if isinstance(r, AlgebraicReal) else (r, r) for r in roots]
    assert all(lo <= hi for lo, hi in ivs)
    assert all(a[1] < b[0] for a, b in zip(ivs, ivs[1:]))
    assert [float(r) for r in roots] == pytest.approx(want, rel=1e-9, abs=1e-12)


def _check_surd(a, b, c, x):
    """x = from_quadratic_surd(a, b, c) as built, against a + b*sqrt(c)
    with sqrt(c) bracketed by sqrt_bounds(c, 2^-24)."""
    root = rational_sqrt(c)
    if root is not None or b == 0:
        assert x == a + b * (root or 0)
        return
    slo, shi = sqrt_bounds(c, F(1, 1 << 24))
    assert slo * slo <= c <= shi * shi and shi - slo <= F(1, 1 << 24)
    assert x.interval == ((a + b * slo, a + b * shi) if b > 0
                          else (a + b * shi, a + b * slo))


def test_surd_interval_matches_sqrt_bounds_on_gamma3(monkeypatch):
    calls = []
    build = AlgebraicReal.from_quadratic_surd.__func__

    def spy(cls, a, b, c):
        x = build(cls, a, b, c)
        calls.append((a, b, c, x))
        return x

    monkeypatch.setattr(AlgebraicReal, "from_quadratic_surd", classmethod(spy))
    for n in range(2, 10):
        gamma3_closed_form(n)
    assert len(calls) == 8
    assert sum(isinstance(x, AlgebraicReal) for *_, x in calls) == 4   # n = 3, 4, 5, 7
    for a, b, c, x in calls:
        _check_surd(F(a), F(b), F(c), x)


_surd_part = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_surd_part, _surd_part,
       st.fractions(min_value=0, max_value=10 ** 9, max_denominator=10 ** 5))
def test_surd_interval_matches_sqrt_bounds(a, b, c):
    _check_surd(a, b, c, AlgebraicReal.from_quadratic_surd(a, b, c))


def test_pickle_roundtrip():
    x = SQRT2()
    x.refine(F(1, 1 << 20))
    y = pickle.loads(pickle.dumps(x))
    assert y.equals(x)
    p = pickle.loads(pickle.dumps(Z * Z - 2))
    assert p == Z * Z - 2


def test_exact_real_roots_skips_square_free_part_on_square_free_input(monkeypatch):
    # every factor exact_real_roots hands to AlgebraicReal is square-free by
    # construction, so building the numbers runs no further remainder sequence
    from esacert.exact import algebraic

    calls = []
    original = algebraic.square_free_part
    monkeypatch.setattr(algebraic, "square_free_part",
                        lambda p: calls.append(p) or original(p))
    p = (Z * Z - 2) * (3 * Z * Z - 5) * (Z - F(1, 2)) * (Z * Z * Z - 7)
    roots = exact_real_roots(p)
    assert calls == []
    irrational = [r for r in roots if isinstance(r, AlgebraicReal)]
    assert len(irrational) == 5
    for r in irrational:
        assert r.defining.leading > 0
        assert all(c.denominator == 1 for c in r.defining.coeffs)


# -- property suite against 200-bit mpmath values ---------------------------------

_linear_factors = st.tuples(st.integers(1, 5), st.integers(-12, 12))      # a z + b
_quadratic_factors = st.tuples(st.integers(-9, 9), st.integers(-20, 20))  # z^2 + p z + q


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _check_against_reference(values, refs):
    """values (Fraction/AlgebraicReal) against their 200-bit references: the
    same float, and every pairwise comparison with the reference sign."""
    import mpmath as mp

    gap = mp.mpf(2) ** -150
    for x, ref in zip(values, refs):
        assert abs(float(x) - float(ref)) <= 2.0 ** -52 * abs(float(ref)) + 2.0 ** -80
    for i, (x, rx) in enumerate(zip(values, refs)):
        for y, ry in zip(values[i:], refs[i:]):
            want = 0 if abs(rx - ry) < gap else _sign(rx - ry)
            assert value_compare(x, y) == want
            if isinstance(x, AlgebraicReal):
                assert x.equals(y) == (want == 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_small_rationals, _small_rationals, st.integers(0, 30)),
                min_size=2, max_size=4))
def test_surds_compare_equal_and_float_against_mpmath(surds):
    import mpmath as mp

    with mp.workprec(200):
        values = [AlgebraicReal.from_quadratic_surd(a, b, c) for a, b, c in surds]
        refs = [mp.mpf(a.numerator) / a.denominator
                + mp.mpf(b.numerator) / b.denominator * mp.sqrt(c) for a, b, c in surds]
        _check_against_reference(values, refs)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(_linear_factors, max_size=3),
       st.lists(_quadratic_factors, min_size=1, max_size=3))
def test_root_products_against_mpmath(linears, quadratics):
    import mpmath as mp

    p = RationalPolynomial.one()
    for a, b in linears:
        p = p * (a * Z + b)
    for pp, q in quadratics:
        p = p * (Z * Z + pp * Z + q)
    roots = exact_real_roots(p)
    with mp.workprec(200):
        refs = [mp.mpf(-b) / a for a, b in linears]
        surds = []   # the quadratic roots as a + b sqrt(c), built both ways
        for pp, q in quadratics:
            disc = pp * pp - 4 * q
            for s in (-1, 1) if disc >= 0 else ():
                refs.append((-pp + s * mp.sqrt(disc)) / 2)
                surds.append((AlgebraicReal.from_quadratic_surd(F(-pp, 2), F(s, 2), disc),
                              refs[-1]))
        refs.sort()
        distinct = [r for i, r in enumerate(refs)
                    if i == 0 or r - refs[i - 1] > mp.mpf(2) ** -150]
        assert len(roots) == len(distinct)
        _check_against_reference(roots, distinct)
        for surd, ref in surds:
            matches = [r for r in roots if value_compare(surd, r) == 0]
            assert len(matches) == 1
            assert abs(float(matches[0]) - float(ref)) <= 2.0 ** -52 * abs(float(ref)) + 2.0 ** -80
            if isinstance(matches[0], AlgebraicReal):
                assert surd.equals(matches[0]) and matches[0].equals(surd)
        for r in roots:
            if isinstance(r, AlgebraicReal):
                back = pickle.loads(pickle.dumps(r))
                assert back.defining == r.defining
                assert back.equals(r) and value_compare(back, r) == 0
                assert float(back) == float(r)
