"""Special functions: Bessel J and zeros, Gamma, orthogonal polynomials."""

from .bessel import (
    BesselZeroTable,
    bessel_j,
    bessel_norm_sq,
    bessel_zero,
    load_zero_cache,
    save_zero_cache,
    zero_table,
)
from .gamma import gamma_fn, log_gamma
from .orthopoly import PolyFamilySpec, poly_eval, poly_norm_sq, poly_weight

__all__ = [
    "BesselZeroTable",
    "bessel_j",
    "bessel_norm_sq",
    "bessel_zero",
    "zero_table",
    "save_zero_cache",
    "load_zero_cache",
    "gamma_fn",
    "log_gamma",
    "PolyFamilySpec",
    "poly_eval",
    "poly_norm_sq",
    "poly_weight",
]
