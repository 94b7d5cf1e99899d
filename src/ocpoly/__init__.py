"""Polynomials over octonion (and quaternion) division algebras: arithmetic,
roots, right/left scalar-multiple root sets, and fixed-point dynamics."""

from .algebra import (AlgebraParams, Octonion, QuatSubalgebra,
                      conjugating_element, format_octonion, parse_octonion,
                      polar_form, quat_subalgebra_containing, random_octonion)
from .dynamics import (FixedPointReport, OrbitRecord, PseudoPeriodReport,
                       classify_fixed, classify_pseudo_periodic,
                       detect_pseudo_period, direction_ratio, fixed_points,
                       growth_bounds, orbit, verify_composition_fixed)
from .opoly import OPolynomial, parse_opolynomial
from .roots import (ConjClass, LinearReduction, LMRClassDescription, RootSet,
                    class_member, lmr_contains, lmr_describe,
                    lmr_describe_class, lmr_point, lmr_sample,
                    lmr_sample_detailed, multiple_root, reduce_linear,
                    rmr_classes, rmr_contains, rmr_witness, roots)
from .scalars import EXACT, REAL, CentralPoly, Field, central_roots

__all__ = [
    "AlgebraParams", "Octonion", "QuatSubalgebra", "conjugating_element",
    "format_octonion", "parse_octonion", "polar_form",
    "quat_subalgebra_containing", "random_octonion",
    "OPolynomial", "parse_opolynomial",
    "ConjClass", "LinearReduction", "LMRClassDescription", "RootSet",
    "class_member", "lmr_contains", "lmr_describe", "lmr_describe_class",
    "lmr_point", "lmr_sample", "lmr_sample_detailed", "multiple_root",
    "reduce_linear", "rmr_classes", "rmr_contains", "rmr_witness", "roots",
    "FixedPointReport", "OrbitRecord", "PseudoPeriodReport", "classify_fixed",
    "classify_pseudo_periodic", "detect_pseudo_period", "direction_ratio",
    "fixed_points", "growth_bounds", "orbit", "verify_composition_fixed",
    "EXACT", "REAL", "CentralPoly", "Field", "central_roots",
]

__version__ = "0.1.0"
