import math
import random
from fractions import Fraction

import pytest

from esacert.exact import RationalPolynomial, real_root_factors


def rand_fraction(rng: random.Random, lo: int = -20, hi: int = 20,
                  max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_poly(rng: random.Random, degree: int, coeff_range: int = 9) -> RationalPolynomial:
    while True:
        coeffs = [Fraction(rng.randint(-coeff_range, coeff_range),
                           rng.randint(1, 4)) for _ in range(degree + 1)]
        if coeffs[-1] != 0:
            return RationalPolynomial(coeffs)


def binomial_shift(p, a):
    """p(z + a) by the binomial sum q_k = sum_{j>=k} c_j C(j, k) a^(j-k) in
    Fractions."""
    out = [Fraction(0)] * (p.degree + 1)
    for j, cj in enumerate(p.coeffs):
        for k in range(j + 1):
            out[k] += cj * math.comb(j, k) * a ** (j - k)
    return RationalPolynomial(out)


def real_root_count(p: RationalPolynomial) -> int:
    """Number of real roots of p, counted with multiplicity."""
    return sum(mult * len(intervals)
               for _f, mult, intervals in real_root_factors(p))


@pytest.fixture
def rng():
    return random.Random(20260810)
