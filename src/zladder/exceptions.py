"""Exception hierarchy shared by all zladder modules."""


class ZladderError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ZladderError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class PrecisionError(ZladderError, ArithmeticError):
    """An internal accuracy assertion failed (e.g. residual imaginary part)."""


class ConvergenceError(ZladderError, ArithmeticError):
    """An iteration (root finding, quadrature refinement) did not converge."""


class QuadratureError(ConvergenceError):
    """Adaptive or double-exponential quadrature failed to reach tolerance."""


class ToleranceNotMetError(ConvergenceError):
    """Ladder panel refinement was exhausted before reaching the build tolerance."""


class AdmissibilityError(DomainError):
    """Interval length violates the admissibility condition U <= T / ln T."""


class CacheError(ZladderError):
    """A cache file is corrupt or does not match the requesting configuration."""


class ReportFormatError(ZladderError):
    """A report file is not JSON Lines of verification report rows."""
