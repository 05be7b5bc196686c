"""Exact rational arithmetic, polynomial algebra and algebraic numbers."""

from .poly import (
    RationalPolynomial,
    as_fraction,
    bareiss_det,
    cauchy_root_bound,
    char_poly_coeffs,
    count_real_roots,
    gcd_and_cauchy_index,
    isolate_real_roots,
    poly_gcd,
    primitive_part,
    rational_roots,
    real_root_factors,
    square_free_decomposition,
    square_free_part,
)
from .algebraic import (AlgebraicReal, exact_real_roots, rational_sqrt,
                        value_compare)

__all__ = [
    "RationalPolynomial",
    "AlgebraicReal",
    "as_fraction",
    "bareiss_det",
    "cauchy_root_bound",
    "char_poly_coeffs",
    "count_real_roots",
    "exact_real_roots",
    "gcd_and_cauchy_index",
    "value_compare",
    "isolate_real_roots",
    "poly_gcd",
    "primitive_part",
    "rational_roots",
    "rational_sqrt",
    "real_root_factors",
    "square_free_decomposition",
    "square_free_part",
]
