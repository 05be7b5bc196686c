"""Square matrices of rational polynomials and their exact determinants.

The determinant of a matrix whose entries are degree <= 1 polynomials in one
variable is itself a polynomial of degree at most the matrix dimension, so it
is recovered exactly by evaluating the matrix at dimension*maxdeg + 1 rational
points and interpolating.  Numeric determinants use fraction-free Bareiss
elimination after clearing denominators row by row.

Verdicts and regions take no polynomial-matrix determinant: the Hurwitz
cofactor comes from Orlando's formula (esacert.stability).  These routines
serve the symbolic 4x4 matrix of ``stability.euler_hurwitz_matrix`` and,
with the cofactor expansion ``det_cofactor``, as independent oracles in
the tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import RationalPolynomial, as_fraction, det_fractions


class PolynomialMatrix:
    """Square matrix with RationalPolynomial entries (all in one variable)."""

    __slots__ = ("rows", "dimension")

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        norm = []
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            norm.append(tuple(
                e if isinstance(e, RationalPolynomial)
                else RationalPolynomial.constant(as_fraction(e))
                for e in row))
        self.rows = tuple(norm)
        self.dimension = n

    def max_entry_degree(self) -> int:
        d = 0
        for row in self.rows:
            for e in row:
                d = max(d, e.degree)
        return d

    def evaluate(self, x) -> list:
        """Numeric Fraction matrix at the sample point x."""
        x = as_fraction(x)
        return [[e(x) for e in row] for row in self.rows]

    def __repr__(self):
        return f"PolynomialMatrix(dim={self.dimension})"


def lagrange_interpolate(points: Sequence[Fraction],
                         values: Sequence[Fraction]) -> RationalPolynomial:
    """Exact interpolating polynomial through (points[i], values[i])."""
    if len(points) != len(values):
        raise ValueError("points/values length mismatch")
    result = RationalPolynomial.zero()
    for i, (xi, yi) in enumerate(zip(points, values)):
        if yi == 0:
            continue
        basis = RationalPolynomial.one()
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            basis = basis * RationalPolynomial((-xj, 1))
            denom *= xi - xj
        result = result + basis * (yi / denom)
    return result


def polymatrix_det(m: PolynomialMatrix) -> RationalPolynomial:
    """Exact determinant in the entry variable, by evaluation/interpolation."""
    bound = m.dimension * max(m.max_entry_degree(), 0)
    points = [Fraction(k) for k in range(bound + 1)]
    values = [det_fractions(m.evaluate(x)) for x in points]
    det = lagrange_interpolate(points, values)
    # one extra sample validates the degree bound
    probe = Fraction(bound + 1)
    if det(probe) != det_fractions(m.evaluate(probe)):
        raise AssertionError("interpolated determinant failed validation probe")
    return det


def det_cofactor(m: PolynomialMatrix) -> RationalPolynomial:
    """Determinant by cofactor expansion (reference oracle for tests)."""
    n = m.dimension
    if n == 0:
        return RationalPolynomial.one()
    if n == 1:
        return m.rows[0][0]
    total = RationalPolynomial.zero()
    for j in range(n):
        entry = m.rows[0][j]
        if entry.is_zero:
            continue
        minor = PolynomialMatrix([
            [m.rows[i][k] for k in range(n) if k != j]
            for i in range(1, n)])
        term = entry * det_cofactor(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total
