"""Frozen reference data for regression tables and cross-checks.

Everything here is exact integer/rational data that the engine must
reproduce; the CLI `table` command diffs live engine output against it and
fails loudly on any mismatch.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import RationalPolynomial, exact_real_roots

# Radial thresholds of the fourth-order family at l = 0, for n = 2..12.
GAMMA2_TABLE = {
    2: Fraction(48),
    3: Fraction(45),
    4: Fraction(36),
    5: Fraction(21),
    6: Fraction(15),
    7: Fraction(231, 16),
    8: Fraction(0),
    9: Fraction(-585, 16),
    10: Fraction(-105),
    11: Fraction(-3465, 16),
    12: Fraction(-384),
}

# Primitive integer coefficients (descending) of the quartic Hurwitz cofactor
# of the tenth-order operator in dimension 20 at l = 0.  Its two real roots
# are the inner boundary points of the non-ESA island.
ISLAND_QUARTIC_DESC = (
    3125,
    -83914629120000,
    429438995162964368031744,
    1045471534388841527438982355353600,
    629847004905001626921946285352115240960000,
)

# Five-significant-figure references for the island boundary roots.
ISLAND_BETA_APPROX = Fraction(10436) * 10 ** 6   # 1.0436e10
ISLAND_GAMMA_APPROX = Fraction(18324) * 10 ** 6  # 1.8324e10

# Sign table for (disc, pi, lambda) of the quartic cofactors of the
# tenth-order family in dimension 20, sectors l = 0..30.
def _signs_row():
    disc = {l: (-1 if l == 0 else 1) for l in range(31)}
    pi = {}
    for l in range(31):
        if l <= 1:
            pi[l] = -1
        elif l <= 8:
            pi[l] = 1
        elif l <= 28:
            pi[l] = -1
        else:
            pi[l] = 1
    lam = {}
    for l in range(31):
        if l == 0:
            lam[l] = -1
        elif l <= 2:
            lam[l] = 1
        elif l <= 6:
            lam[l] = -1
        else:
            lam[l] = 1
    return {l: (disc[l], pi[l], lam[l]) for l in range(31)}


SIGNS_520_TABLE = _signs_row()

# disc of the quadratic cofactor of the sixth-order family:
# -764411904 (3k^2+60k+52)^2 (15k^2+300k+476) at k = n + 2l - 12.
DISC_Q3_PREFACTOR = -764411904


def disc_q3_closed_form(nu: int) -> int:
    k = nu - 12
    return DISC_Q3_PREFACTOR * (3 * k * k + 60 * k + 52) ** 2 * (15 * k * k + 300 * k + 476)


# pi of the quartic cofactor of the tenth-order family in dimension 20,
# for sectors l = k + 29: 2^41 * 3^4 * 5^15 times an integer polynomial in k.
PI_520_PREFACTOR = 2 ** 41 * 3 ** 4 * 5 ** 15
PI_520_POLY_DESC = (
    161875,
    61512500,
    10201465000,
    969468160000,
    58206830051875,
    2291590504307500,
    59262332963402100,
    974749919610039200,
    9364063767203524800,
    42256876792510195200,
    32928178597910728704,
)


def pi_520_closed_form(l: int) -> int:
    if l < 29:
        raise ValueError("expansion valid for l >= 29")
    k = l - 29
    acc = 0
    for c in PI_520_POLY_DESC:
        acc = acc * k + c
    return PI_520_PREFACTOR * acc


def island_quartic() -> RationalPolynomial:
    return RationalPolynomial(tuple(reversed(ISLAND_QUARTIC_DESC)))


def island_roots() -> tuple:
    """The two real roots (beta < gamma) of the island quartic, exactly."""
    roots = exact_real_roots(island_quartic())
    if len(roots) != 2:
        raise AssertionError("island quartic must have exactly two real roots")
    return roots[0], roots[1]
