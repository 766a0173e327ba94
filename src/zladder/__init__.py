"""Jacob's ladders for the Hardy Z-function.

Builds the monotone ladder phi_1 with d(phi_1)/dt = Z(t)^2 / ln t from a
Riemann-Siegel evaluator, inverts it, and verifies the weighted-orthogonality
identities it induces for Bessel functions and classical orthogonal
polynomials, at both the exact (change-of-variables) and asymptotic layers.
"""

from .exceptions import (AdmissibilityError, CacheError, ConvergenceError,
                         DomainError, PrecisionError, QuadratureError,
                         ReportFormatError, ToleranceNotMetError, ZladderError)
from .ladder import (EULER_C, LadderTable, RetardationRow, build_ladder,
                     check_admissible, prime_pi, retardation_report)
from .quadrature import (QuadratureResult, integrate_adaptive,
                         integrate_adaptive_rows, integrate_singular)
from .rszeta import ZEvaluator
from .specfun import (BesselZeroTable, PolyFamilySpec, bessel_j,
                      bessel_norm_sq, bessel_zero, gamma_fn, log_gamma,
                      poly_eval, poly_norm_sq)

__version__ = "0.1.0"

__all__ = [
    "ZEvaluator",
    "LadderTable", "RetardationRow", "build_ladder", "prime_pi",
    "retardation_report", "check_admissible", "EULER_C",
    "QuadratureResult", "integrate_adaptive", "integrate_adaptive_rows",
    "integrate_singular",
    "BesselZeroTable", "PolyFamilySpec", "bessel_j", "bessel_norm_sq",
    "bessel_zero", "gamma_fn", "log_gamma", "poly_eval", "poly_norm_sq",
    "ZladderError", "DomainError", "PrecisionError",
    "ConvergenceError", "QuadratureError", "ToleranceNotMetError",
    "AdmissibilityError", "CacheError", "ReportFormatError",
    "__version__",
]
