"""The exact kernel's orchestration as it was before one signed remainder
sequence served each polynomial pair, kept as a test oracle.

Only the orchestration is copied: the Fraction Euclid gcd, the Yun
decomposition, real-root count and half-plane count built on it (the count
builds the sequence of (P, Q) once for the gcd and once more for the Cauchy
index), and `exact_real_roots` with its own decomposition-and-isolation
loop.  The primitives they call (Sturm chains, isolation, rational roots,
Cauchy index, the critical-line split) are the kernel's own.
"""

import functools

from esacert.exact import (AlgebraicReal, RationalPolynomial, cauchy_index,
                           isolate_real_roots, primitive_part, rational_roots,
                           value_compare)
from esacert.exact.poly import (_chain_variations_at, _chain_variations_at_inf,
                                sturm_chain)
from esacert.stability import critical_line_parts


def poly_gcd(a, b):
    """Monic gcd by Euclid on primitive parts; gcd(p, 0) = monic(p)."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    x, y = primitive_part(a), primitive_part(b)
    while not y.is_zero:
        r = x % y
        if r.is_zero:
            return y.monic()
        x, y = y, primitive_part(r)
    return x.monic()


def square_free_part(p):
    if p.degree <= 0:
        return p.monic() if not p.is_zero else p
    return p.divide_exact(poly_gcd(p, p.derivative())).monic()


def square_free_decomposition(p):
    """Yun's algorithm with every gcd taken by `poly_gcd`."""
    if p.degree == 0:
        return []
    q = p.monic()
    dq = q.derivative()
    g = poly_gcd(q, dq)
    if g.degree == 0:
        return [(q, 1)]
    w = q.divide_exact(g)
    z = dq.divide_exact(g) - w.derivative()
    out = []
    i = 1
    while w.degree > 0:
        gi = poly_gcd(w, z)
        if gi.degree > 0:
            out.append((gi.monic(), i))
            w = w.divide_exact(gi)
            z = z.divide_exact(gi)
        z = z - w.derivative()
        i += 1
    return out


def count_real_roots(p, lo=None, hi=None):
    sf = square_free_part(p)
    if sf.degree <= 0:
        return 0
    chain = sturm_chain(sf)
    vlo = _chain_variations_at(chain, lo) if lo is not None \
        else _chain_variations_at_inf(chain, positive=False)
    vhi = _chain_variations_at(chain, hi) if hi is not None \
        else _chain_variations_at_inf(chain, positive=True)
    return vlo - vhi


def _count_square_free(f):
    P, Q = critical_line_parts(f)
    g = poly_gcd(P, Q)
    axis = count_real_roots(g)
    pairs = (g.degree - axis) // 2
    diff = -cauchy_index(P, Q) if P.degree >= Q.degree else cauchy_index(Q, P)
    rest = f.degree - g.degree
    return pairs + (rest + diff) // 2, axis, pairs + (rest - diff) // 2


def halfplane_count(p):
    """(left, axis, right) of p relative to Re z = -1/2, with multiplicity."""
    left = axis = right = 0
    for f, mult in square_free_decomposition(p):
        fl, fa, fr = _count_square_free(f)
        left += mult * fl
        axis += mult * fa
        right += mult * fr
    return left, axis, right


def exact_real_roots(p):
    out = []
    for f, _mult in square_free_decomposition(p):
        g = f
        for r in rational_roots(f):
            g = g.divide_exact(RationalPolynomial((-r, 1)))
            out.append(r)
        if g.degree > 0:
            out.extend(AlgebraicReal(g, lo, hi, validate=False)
                       for lo, hi in isolate_real_roots(g))
    out.sort(key=functools.cmp_to_key(value_compare))
    return out
