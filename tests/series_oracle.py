"""The mpmath side of the fourth-order family, kept as a test oracle.

`quartic_roots_closed_form` evaluates the characteristic exponents'
nested square roots in 128-bit mpmath, with the branches decided by the
same exact sign test as `frobenius.characteristic_exponents`.
`basis_payload` builds the `basis` descriptors from those values the way
the library once did, in mpmath's default 53-bit arithmetic, so that the
library's standard-library exponents can be checked against it byte for
byte.

The truncated 0F3 series (`eval_0F3`) and the defect of a series member of
the basis under the operator (`ode_defect`, `ode_residual`) check that the
descriptors' exponents and parameters give solutions: the defect of the cut
series telescopes to a certified bound.
"""

import math
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from esacert.exact import as_fraction
from esacert.frobenius import (BasisSelection, SolutionDescriptor, SolutionKind,
                               _display, _outer_radicand_sign,
                               classify_resonance)
from esacert.indicial import EulerParams, euler_quartic
from esacert.roots import START_BITS


# term budget of a series before it gives up on certifying its tail
MAX_SERIES_TERMS = 10 ** 6


class ResonanceError(ValueError):
    """A series parameter hit a nonpositive integer; the basis degenerates."""


def _mpf_of(x):
    """mpf at the current working precision; Fractions convert exactly."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def _mpc_of(x):
    if isinstance(x, Fraction):
        return mp.mpc(_mpf_of(x))
    return mp.mpc(x)


# -- closed-form exponents ----------------------------------------------------------


def _principal_sqrt_exact_real(q: Fraction, ctx):
    """Principal square root of an exact real rational, as mpf/mpc.

    Negative real input sits on the branch cut and takes phi = pi, so the
    result is +i sqrt(|q|) exactly.
    """
    if q >= 0:
        return ctx.sqrt(ctx.mpf(q.numerator) / ctx.mpf(q.denominator))
    return ctx.mpc(0, ctx.sqrt(ctx.mpf(-q.numerator) / ctx.mpf(q.denominator)))


def quartic_roots_closed_form(params: EulerParams,
                              precision_bits: int = START_BITS) -> tuple:
    """The four characteristic exponents of the quartic family, closed form.

    Returns (a1, a2, a3, a4) as mpmath complex numbers with
    a1 + a4 = a2 + a3 = 3.  Both nested square roots use the principal
    branch (sqrt(r e^{i phi}) = sqrt(r) e^{i phi/2}, -pi < phi <= pi), and
    every branch decision is taken in exact rational arithmetic: the inner
    radicand 1 - 4 c1 + c1^2 - c2 is rational, and when it is nonnegative
    the outer radicands (5 - 4 c1) -+ 4 sqrt(inner) have exactly decidable
    signs.  Floating point never gets to choose a branch.
    """
    c1, c2 = params.c1, params.c2
    inner_radicand = 1 - 4 * c1 + c1 * c1 - c2
    s = 5 - 4 * c1
    with mp.workprec(precision_bits):
        s_mp = mp.mpf(s.numerator) / mp.mpf(s.denominator)
        if inner_radicand >= 0:
            inner = _principal_sqrt_exact_real(inner_radicand, mp)
            sqrts = []
            for plus in (True, False):
                rad = s_mp + 4 * inner if plus else s_mp - 4 * inner
                sign = _outer_radicand_sign(s, inner_radicand, plus)
                if sign == 0:
                    sqrts.append(mp.mpc(0))
                elif sign > 0:
                    sqrts.append(mp.mpc(mp.sqrt(rad if rad > 0 else mp.mpf(0))))
                else:
                    sqrts.append(mp.mpc(0, mp.sqrt(-rad if rad < 0 else mp.mpf(0))))
            s_plus, s_minus = sqrts
        else:
            inner = _principal_sqrt_exact_real(inner_radicand, mp)
            s_plus = mp.sqrt(mp.mpc(s_mp) + 4 * inner)
            s_minus = mp.sqrt(mp.mpc(s_mp) - 4 * inner)
        half = mp.mpf(1) / 2
        three_half = mp.mpf(3) / 2
        a1 = three_half - half * s_plus
        a2 = three_half - half * s_minus
        a3 = three_half + half * s_minus
        a4 = three_half + half * s_plus
        return (mp.mpc(a1), mp.mpc(a2), mp.mpc(a3), mp.mpc(a4))


def basis_payload(c1, c2) -> dict:
    """`select_fundamental_system(c1, c2).to_json()` with the exponents and
    parameters taken from `quartic_roots_closed_form`: parameters in 53-bit
    mpmath, every value rounded to a double by `complex`."""
    cls = classify_resonance(c1, c2)
    tag, entries = _display(cls)
    a = quartic_roots_closed_form(cls.params)
    sols = []
    for kind, order, negated in entries:
        i = order[0] - 1
        if kind is SolutionKind.SERIES_F03:
            params = tuple(complex(1 + (a[i] - a[j - 1]) / 4) for j in order[1:])
        else:
            params = tuple(complex(a[j - 1] / 4) for j in order)
        sols.append(SolutionDescriptor(kind, complex(a[i]), params, negated))
    return BasisSelection(tag, cls, tuple(sols)).to_json()


# -- series evaluation and residuals -----------------------------------------------


def _check_parameters(params: Sequence):
    """Raise ResonanceError at a nonpositive-integer series parameter: exactly
    for a rational (int or Fraction) parameter, within 1e-9 otherwise."""
    for p in params:
        if isinstance(p, (int, Fraction)):
            resonant = p.denominator == 1 and p <= 0
        else:
            p = complex(p)
            nearest = round(p.real)
            resonant = (abs(p.imag) < 1e-9 and nearest <= 0
                        and abs(p.real - nearest) < 1e-9)
        if resonant:
            raise ResonanceError(
                f"series parameter {p} is a nonpositive integer; "
                "use select_fundamental_system for a valid basis")


def _0F3_terms(p1, p2, p3, z, tol: float):
    """The terms t_0 = 1, t_1, ..., t_K of sum z^k / ((p1)_k (p2)_k (p3)_k k!),
    with t_(k+1) = t_k z / ((p1 + k)(p2 + k)(p3 + k)(k + 1)), at the working
    precision.

    Ends at the first t_K with |t_K| < tol after which a geometric ratio
    bound certifies the dropped tail to be at most tol in absolute value;
    raises if MAX_SERIES_TERMS terms do not get there.  The caller rejects
    nonpositive-integer parameters (the series degenerates) by
    `_check_parameters`.
    """
    # |p + k| grows monotonically once k exceeds -Re p, making the term
    # ratio decreasing and the geometric tail bound valid
    k_safe = max(8, 2 + math.ceil(max(0.0, -min(p.real for p in (p1, p2, p3)))))
    term = mp.mpc(1)
    yield term
    k = 0
    while k < MAX_SERIES_TERMS:
        denom = (p1 + k) * (p2 + k) * (p3 + k) * (k + 1)
        if denom == 0:
            raise ResonanceError("series recurrence hit a zero denominator")
        term = term * z / denom
        yield term
        k += 1
        if k < k_safe:
            continue
        ratio = abs(z) / abs((p1 + k) * (p2 + k) * (p3 + k) * (k + 1))
        if ratio < 0.5 and abs(term) * ratio / (1 - ratio) < tol and abs(term) < tol:
            return
    raise ResonanceError(
        f"series did not certify its tail within {MAX_SERIES_TERMS} terms")


def eval_0F3(p1, p2, p3, z, tol: float = 1e-20):
    """Truncated hypergeometric series sum z^k / ((p1)_k (p2)_k (p3)_k k!),
    with the dropped tail certified to be at most tol (see `_0F3_terms`)."""
    _check_parameters((p1, p2, p3))
    prec = max(96, int(-math.log2(tol)) + 64)
    with mp.workprec(prec):
        total = mp.mpc(0)
        for term in _0F3_terms(_mpc_of(p1), _mpc_of(p2), _mpc_of(p3), _mpc_of(z),
                               tol):
            total += term
        return total


def ode_defect(sel: BasisSelection, index: int, c1, c2, lam, r,
               tol: float = 1e-20):
    """(tau y - lambda y)(r) for series member `index` (1-based), as mpc.

    The truncated series is differentiated term by term: the operator maps
    the monomial r^s to E(c1, c2; s) r^(s-4) exactly, where E is the
    indicial quartic, so no finite differences enter.  The series is cut
    where `eval_0F3` cuts it, after a term t_K with |t_K| < tol.  Since
    E(alpha + 4k) t_k = lambda r^4 t_(k-1), the defect of the cut series
    telescopes to -lambda r^alpha t_K, so it is at most
    |lambda| r^(Re alpha) tol up to rounding.  G-function members are
    rejected (no numeric evaluator in scope).
    """
    desc = sel.solutions[index - 1]
    if desc.kind is not SolutionKind.SERIES_F03:
        raise ResonanceError("residual evaluation supports series members only")
    if not float(r) > 0:
        raise ValueError("need r > 0")
    quartic = euler_quartic(c1, c2)
    prec = max(START_BITS, int(-math.log2(tol)) + 80)
    # re-derive the exponents at working precision; the descriptor stores
    # them as doubles, which would floor the residual near 1e-15
    hi = quartic_roots_closed_form(EulerParams(c1=as_fraction(c1), c2=as_fraction(c2)),
                                   precision_bits=prec)
    with mp.workprec(prec):
        lam_mp = _mpc_of(lam)
        r_mp = _mpf_of(r)
        # the member at position i has exponent a_i (`select_fundamental_system`)
        alpha = hi[index - 1]
        ps = [1 + (alpha - w) / 4 for j, w in enumerate(hi) if j != index - 1]
        _check_parameters(ps)
        coeffs = [_mpf_of(c) for c in quartic.descending()]
        x = lam_mp * r_mp ** 4 / 256
        # t_k = u_k x^k, with tau(r^(alpha+4k)) = E(alpha + 4k) r^(alpha+4k-4)
        op_sum = mp.mpc(0)    # sum t_k E(alpha+4k) r^(-4)
        fn_sum = mp.mpc(0)    # sum t_k
        for k, term in enumerate(_0F3_terms(*ps, x, tol)):
            op_sum += term * mp.polyval(coeffs, alpha + 4 * k) / r_mp ** 4
            fn_sum += term
        return r_mp ** mp.mpc(alpha) * (op_sum - lam_mp * fn_sum)


def ode_residual(sel: BasisSelection, index: int, c1, c2, lam, r,
                 tol: float = 1e-20) -> float:
    """|tau y - lambda y| at radius r for series member `index` (1-based)."""
    return float(abs(ode_defect(sel, index, c1, c2, lam, r, tol=tol)))
