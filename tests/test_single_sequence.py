"""One signed remainder sequence per polynomial pair, checked against the
kernel's earlier orchestration (`earlier_kernel`), which builds some of
those sequences twice and runs its own Euclid loop for the gcd."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import earlier_kernel as earlier
from esacert.exact import (AlgebraicReal, RationalPolynomial, count_real_roots,
                           exact_real_roots, poly_gcd, rational_roots,
                           square_free_part)
from esacert.stability import halfplane_count

Z = RationalPolynomial.variable()

small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
nonzero = small.filter(lambda x: x != 0)


@st.composite
def factor(draw):
    """A small rational polynomial: a rational root, a surd pair, a root on
    Re z = -1/2 (with its conjugate), a pair reflected through -1/2, or a
    polynomial with random coefficients."""
    kind = draw(st.sampled_from(("rational", "surd", "axis", "reflected",
                                 "random")))
    if kind == "rational":
        return Z - draw(small)
    if kind == "surd":
        return (Z - draw(small)) ** 2 - draw(nonzero)
    if kind == "axis":
        return (Z + F(1, 2)) ** 2 + draw(small) ** 2
    if kind == "reflected":
        u, v = draw(small), draw(small)
        return ((Z - u) ** 2 + v * v) * ((Z + 1 + u) ** 2 + v * v)
    cs = draw(st.lists(st.integers(-7, 7), min_size=2, max_size=5))
    cs[-1] = cs[-1] or 1
    return RationalPolynomial(cs)


@st.composite
def products(draw):
    """lc * prod f_i^m_i with repeated and shared factors."""
    p = RationalPolynomial.constant(draw(nonzero))
    for f in draw(st.lists(factor(), min_size=1, max_size=3)):
        p = p * f ** draw(st.integers(1, 3))
    return p


def _json(v):
    return v.to_json() if isinstance(v, AlgebraicReal) else str(v)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(products(), products(), st.booleans())
def test_gcd_matches_euclid(a, b, zero):
    if zero:
        b = RationalPolynomial.zero()
    assert poly_gcd(a, b) == earlier.poly_gcd(a, b)
    assert poly_gcd(b, a) == earlier.poly_gcd(b, a)
    assert poly_gcd(a * b, a) == earlier.poly_gcd(a * b, a)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(products())
def test_halfplane_count_matches_two_sequences(p):
    hc = halfplane_count(p)
    assert (hc.left, hc.axis, hc.right) == earlier.halfplane_count(p)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(products(), small, small)
def test_count_real_roots_matches(p, lo, hi):
    # endpoints on the roots too, where a multiple root zeroes the whole
    # chain of p itself
    ends = sorted({lo, hi, *rational_roots(square_free_part(p))})
    assert count_real_roots(p) == earlier.count_real_roots(p)
    for a, b in zip([None] + ends, ends + [None]):
        assert count_real_roots(p, a, b) == earlier.count_real_roots(p, a, b)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(products())
def test_exact_real_roots_match(p):
    got, want = exact_real_roots(p), earlier.exact_real_roots(p)
    assert [type(v) for v in got] == [type(v) for v in want]
    # to_json refines; both sides start from the same intervals and refine
    # in the same order, so the bytes agree
    assert [_json(v) for v in got] == [_json(v) for v in want]
    assert all(a == b for a, b in zip(got, want))
