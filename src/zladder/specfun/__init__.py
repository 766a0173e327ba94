"""Special functions: Bessel J and zeros, Gamma, orthogonal polynomials."""

from .bessel import (
    BesselZeroTable,
    bessel_j,
    bessel_j_proxy,
    bessel_norm_sq,
    bessel_zero,
    zero_table,
)
from .gamma import gamma_fn, log_gamma
from .orthopoly import PolyFamilySpec, poly_eval, poly_norm_sq

__all__ = [
    "BesselZeroTable",
    "bessel_j",
    "bessel_j_proxy",
    "bessel_norm_sq",
    "bessel_zero",
    "zero_table",
    "gamma_fn",
    "log_gamma",
    "PolyFamilySpec",
    "poly_eval",
    "poly_norm_sq",
]
