"""Gamma function and log-Gamma via Stirling's asymptotic series.

ln Gamma has one driver, `_log_gamma_cld`: it shifts the argument with the
recurrence ln G(z) = ln G(z+1) - ln z until |z| is large enough for the
Stirling series, then sums Bernoulli corrections, in extended precision, which
keeps the imaginary part (the theta oracle's) well below 1e-12 off even for
|z| ~ 1e5.  `log_gamma` is its real part; `gamma_fn` shifts by a product.
Both keep the values they have computed (each is pure), so a Bessel order
pays for Gamma(nu + 1), and a Jacobi norm for its ln Gammas, once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..exceptions import DomainError

# B_{2k} as exact integer ratios, k = 1..11
_BERNOULLI_2K = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
    (7, 6), (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
)

# Stirling cutoff: tail of the series at |z| = 16 is below 1e-21
_STIRLING_RADIUS = 16.0

_LD = np.longdouble
_CLD = np.clongdouble
_HALF_LN_TWO_PI = _LD("0.91893853320467274178032973640561763986139747363778")


def _log_gamma_stirling(z):
    """Stirling series for ln Gamma(z), |z| >= _STIRLING_RADIUS, clongdouble."""
    res = (z - _CLD(0.5)) * np.log(z) - z + _HALF_LN_TWO_PI
    zsq = z * z
    zpow = z
    for k, (num, den) in enumerate(_BERNOULLI_2K, start=1):
        res = res + _LD(num) / (_LD(den * (2 * k) * (2 * k - 1)) * zpow)
        zpow = zpow * zsq
    return res


def _log_gamma_cld(z) -> np.clongdouble:
    """ln Gamma(z) in clongdouble; z with Re z > 0 (or off the real axis)."""
    w = _CLD(z)
    shift = _CLD(0.0)
    while abs(w) < _STIRLING_RADIUS:
        shift = shift + np.log(w)
        w = w + 1
    return _log_gamma_stirling(w) - shift


@lru_cache(maxsize=1024)
def log_gamma(x: float) -> float:
    """ln Gamma(x) for real x > 0, the real part of `_log_gamma_cld(x)`."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return float(_log_gamma_cld(x).real)


@lru_cache(maxsize=1024)
def gamma_fn(x: float) -> float:
    """Gamma(x) for real 0 < x <= 200, to <= 1e-12 relative accuracy.

    Values overflow to inf for x > ~171.6 (double range).
    """
    x = float(x)
    if not 0.0 < x <= 200.0:   # NaN fails
        raise DomainError(f"gamma_fn requires 0 < x <= 200, got {x}")
    w = _LD(x)
    shift = _LD(1.0)
    while w < _STIRLING_RADIUS:
        shift = shift * w
        w = w + 1
    return float(np.exp(_log_gamma_stirling(_CLD(w)).real) / shift)
