"""Exact-arithmetic generalized Jacobi polynomials and their higher-order
differential operators, with machine verification of every eigenvalue,
symmetry, and orthogonality identity at zero tolerance."""

from .algebra import (InvalidParam, NotDivisible, Poly, Rational, as_rational,
                      format_rational, pochhammer)
from .genjacobi import (Params, coeff_q, coeff_r, coeff_s, gen_jacobi, poly_Q,
                        poly_R, poly_S)
from .inner import (gram_matrix, h_norm, inner_product, symmetry_defect,
                    weighted_integral)
from .jacobi import jacobi_poly, jacobi_recurrence
from .operators import (DiffOperator, EigenValue, InconsistentExpansion,
                        apply_L2, apply_Lfull, apply_Lhat, apply_Ltilde,
                        apply_combined, apply_duran, apply_factorized,
                        const_b, const_c, eigen_combined, eigen_high,
                        eigen_lambda2, expand_operator)
from .report import Case, VerifyReport
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "Case", "DiffOperator", "EigenValue", "InconsistentExpansion",
    "InvalidParam", "NotDivisible", "Params", "Poly",
    "Rational", "VerifyReport", "apply_L2", "apply_Lfull", "apply_Lhat",
    "apply_Ltilde", "apply_combined", "apply_duran", "apply_factorized",
    "as_rational", "coeff_q", "coeff_r", "coeff_s",
    "const_b", "const_c", "eigen_combined", "eigen_high", "eigen_lambda2",
    "expand_operator", "format_rational", "gen_jacobi", "gram_matrix",
    "h_norm", "inner_product", "jacobi_poly", "jacobi_recurrence",
    "pochhammer", "poly_Q", "poly_R", "poly_S", "run_suite",
    "symmetry_defect", "weighted_integral",
]
