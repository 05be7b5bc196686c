"""esacert: certified essential self-adjointness decisions for Euler-type
operators, decided by exact localization of indicial-polynomial roots
relative to the line Re z = -1/2.

Layers:

* ``esacert.exact``     exact rationals, polynomials, Sturm isolation,
                        determinants and characteristic polynomials,
                        algebraic reals;
* ``esacert.roots``     certified complex root disks (Aberth iteration with
                        exact a-posteriori certification) for numeric
                        output and as a test oracle;
* ``esacert.indicial``  indicial polynomials of the radial operators,
                        their root trajectories and the closed-form
                        quartic exponents;
* ``esacert.stability`` Hurwitz determinants in the coupling by
                        Orlando's formula, exact axis-root detection,
                        exact half-plane counting by Cauchy index,
                        quartic real-root classifier;
* ``esacert.esa``       ESA verdicts, thresholds, regions, closed-form
                        oracles;
* ``esacert.frobenius`` resonance geometry and fundamental-system selection
                        for the fourth-order family;
* ``esacert.cli``       the command-line front end.
"""

from .exact import AlgebraicReal, RationalPolynomial
from .indicial import (EulerParams, IndicialSpec, build_indicial,
                       euler_params, euler_quartic, quartic_roots_closed_form,
                       root_trajectories)
from .roots import (CertifiedRoot, OrderedRootSet, PrecisionExceededError,
                    certified_roots, real_part_position)
from .stability import (HalfPlaneCount, HurwitzData, axis_roots_exact,
                        disc_q3, halfplane_count, hurwitz_assemble,
                        quartic_classify)
from .esa import (EsaRegion, EsaVerdict, Verdict,
                  conjecture_explore, esa_decide_radial, esa_region_full,
                  esa_region_radial, gamma_threshold, oracle_threshold,
                  power_zero_coupling)

__version__ = "0.1.0"

# frobenius (and with it mpmath) loads on first use, so that the verdict
# commands never import it
_FROBENIUS = frozenset({
    "BasisSelection", "ResonanceClassification", "classify_resonance",
    "eval_0F3", "ode_residual", "resonance_geometry_table",
    "select_fundamental_system",
})


def __getattr__(name):
    if name in _FROBENIUS:
        from . import frobenius
        return getattr(frobenius, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlgebraicReal", "BasisSelection", "CertifiedRoot", "EsaRegion",
    "EsaVerdict", "EulerParams", "HalfPlaneCount", "HurwitzData",
    "IndicialSpec", "OrderedRootSet", "PrecisionExceededError",
    "RationalPolynomial", "ResonanceClassification", "Verdict",
    "axis_roots_exact", "build_indicial", "certified_roots",
    "classify_resonance", "conjecture_explore", "disc_q3",
    "esa_decide_radial", "esa_region_full", "esa_region_radial",
    "euler_params", "euler_quartic", "eval_0F3", "gamma_threshold",
    "halfplane_count", "hurwitz_assemble", "ode_residual",
    "oracle_threshold", "power_zero_coupling", "quartic_classify",
    "quartic_roots_closed_form", "real_part_position",
    "resonance_geometry_table", "root_trajectories",
    "select_fundamental_system",
]
