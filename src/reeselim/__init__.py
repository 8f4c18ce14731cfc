"""Exact tools for weighted Rees algebras attached to hypersurface
singularities: differential saturation, singular loci and their invariants,
elimination of a transversal variable, ramification checks, and monoidal
transforms — all over Q or small finite fields, with no floating point
anywhere.
"""

from .fields import FieldDescriptor, FieldElement, FieldError
from .poly import (INFINITE_ORDER, Polynomial, RationalPoint, RingContext,
                   RingError, formal_derivative, parse_polynomial,
                   univ_divmod, univ_gcd, univ_radical)
from .hasse import diff_closure_list, hasse_derivative
from .groebner import (Ideal, GroebnerBasis, ResourceCapError, buchberger,
                       ideal_equal, membership, normal_form,
                       rational_zero_set)
from .rees import (BlowupChart, ReesAlgebra, ReesError, ReesGenerator,
                   component_order, degree_ideal, diff_saturate, e0_invariant,
                   format_algebra, is_simple, is_singular_at,
                   normalize_generators, ord_at_point, parse_algebra,
                   rational_singular_points, singular_ideal, tau_estimate,
                   total_transform, weighted_transform)
from .elim import (EliminationResult, MultiplicationMatrix,
                   cayley_hamilton_residue, char_poly, eliminate,
                   format_elimination, mult_matrix, slope_equivalent)
from .ramify import (MonicInput, RamificationReport, generalized_discriminants,
                     purely_ramified_at, verify_thm_1_16, verify_thm_1_16_ii)

__version__ = "0.1.0"

__all__ = [
    "FieldDescriptor", "FieldElement", "FieldError",
    "INFINITE_ORDER", "Polynomial", "RationalPoint", "RingContext",
    "RingError", "formal_derivative", "parse_polynomial", "univ_divmod",
    "univ_gcd", "univ_radical",
    "diff_closure_list", "hasse_derivative",
    "Ideal", "GroebnerBasis", "ResourceCapError", "buchberger", "ideal_equal",
    "membership", "normal_form", "rational_zero_set",
    "BlowupChart", "ReesAlgebra", "ReesError", "ReesGenerator",
    "component_order", "degree_ideal", "diff_saturate", "e0_invariant",
    "format_algebra", "is_simple", "is_singular_at", "normalize_generators",
    "ord_at_point", "parse_algebra", "rational_singular_points",
    "singular_ideal", "tau_estimate", "total_transform", "weighted_transform",
    "EliminationResult", "MultiplicationMatrix", "cayley_hamilton_residue",
    "char_poly", "eliminate", "format_elimination", "mult_matrix",
    "slope_equivalent",
    "MonicInput", "RamificationReport", "generalized_discriminants",
    "purely_ramified_at", "verify_thm_1_16", "verify_thm_1_16_ii",
    "__version__",
]
