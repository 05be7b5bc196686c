"""Exact rational arithmetic, polynomial algebra and algebraic numbers."""

from fractions import Fraction as Rational

from .poly import (
    RationalPolynomial,
    as_fraction,
    bareiss_det,
    cauchy_index,
    cauchy_root_bound,
    char_poly,
    count_real_roots,
    det_fractions,
    discriminant,
    isolate_real_roots,
    poly_gcd,
    primitive_part,
    rational_roots,
    refine_isolating_interval,
    resultant,
    simplest_between,
    square_free_decomposition,
    square_free_part,
    sturm_isolate,
)
from .algebraic import AlgebraicReal, exact_real_roots, sqrt_bounds, value_compare

__all__ = [
    "Rational",
    "RationalPolynomial",
    "AlgebraicReal",
    "as_fraction",
    "bareiss_det",
    "cauchy_index",
    "cauchy_root_bound",
    "char_poly",
    "count_real_roots",
    "det_fractions",
    "discriminant",
    "exact_real_roots",
    "value_compare",
    "isolate_real_roots",
    "poly_gcd",
    "primitive_part",
    "rational_roots",
    "refine_isolating_interval",
    "resultant",
    "simplest_between",
    "sqrt_bounds",
    "square_free_decomposition",
    "square_free_part",
    "sturm_isolate",
]
