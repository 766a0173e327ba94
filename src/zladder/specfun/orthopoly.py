"""Jacobi, Legendre and Chebyshev polynomials with their weighted norms, and
the one home of the Clenshaw sum of a Chebyshev series, which the
Riemann-Siegel remainder terms, the ladder panels and the Bessel proxies
evaluate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DomainError
from .gamma import log_gamma

_FAMILIES = ("jacobi", "legendre", "chebyshev_t", "chebyshev_u")


@dataclass(frozen=True)
class PolyFamilySpec:
    """One classical family on [-1, 1]; alpha/beta only meaningful for Jacobi."""

    family: str
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown polynomial family {self.family!r}")
        if self.family == "jacobi" and not (self.alpha > -1.0 and self.beta > -1.0):
            raise DomainError("jacobi parameters must satisfy alpha, beta > -1")

    @classmethod
    def jacobi(cls, alpha: float, beta: float) -> "PolyFamilySpec":
        return cls("jacobi", float(alpha), float(beta))


def _check_degree(n: int) -> int:
    n = int(n)
    if not 0 <= n <= 64:
        raise DomainError(f"polynomial degree must be in [0, 64], got {n}")
    return n


def _legendre_eval(n, u):
    if n == 0:
        return np.ones_like(u)
    p_prev = np.ones_like(u)
    p = u.copy()
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * u * p - k * p_prev) / (k + 1), p
    return p


def poly_eval(spec: PolyFamilySpec, n: int, u) -> float | np.ndarray:
    """Value of the degree-n family member by three-term recurrence.

    Chebyshev values can be cross-checked against the trigonometric closed
    forms T_n(cos a) = cos(n a), U_n(cos a) = sin((n+1)a)/sin(a).
    """
    n = _check_degree(n)
    ua = np.asarray(u, dtype=float)
    scalar = ua.ndim == 0
    ua = np.atleast_1d(ua)

    fam = spec.family
    if fam == "jacobi" and spec.alpha == 0.0 and spec.beta == 0.0:
        fam = "legendre"  # P_n^{0,0} = P_n, bitwise

    if fam == "legendre":
        out = _legendre_eval(n, ua)
    elif fam in ("chebyshev_t", "chebyshev_u"):
        if n == 0:
            out = np.ones_like(ua)
        else:
            p_prev = np.ones_like(ua)
            p = ua.copy() if fam == "chebyshev_t" else 2.0 * ua
            for _ in range(n - 1):
                p, p_prev = 2.0 * ua * p - p_prev, p
            out = p
    else:
        a, b = spec.alpha, spec.beta
        if n == 0:
            out = np.ones_like(ua)
        else:
            p_prev = np.ones_like(ua)
            p = (a + 1.0) + (a + b + 2.0) * (ua - 1.0) / 2.0
            for k in range(2, n + 1):
                c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
                c2 = 2.0 * k + a + b - 1.0
                c3 = (2.0 * k + a + b) * (2.0 * k + a + b - 2.0)
                c4 = a * a - b * b
                c5 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
                p, p_prev = (c2 * (c3 * ua + c4) * p - c5 * p_prev) / c1, p
            out = p
    return float(out[0]) if scalar else out


def poly_norm_sq(spec: PolyFamilySpec, n: int) -> float:
    """Weighted L2 norm square of the degree-n member on [-1, 1]."""
    n = _check_degree(n)
    if spec.family == "legendre":
        return 2.0 / (2.0 * n + 1.0)
    if spec.family == "chebyshev_t":
        return np.pi if n == 0 else np.pi / 2.0
    if spec.family == "chebyshev_u":
        return np.pi / 2.0
    a, b = spec.alpha, spec.beta
    if a == 0.0 and b == 0.0:
        return 2.0 / (2.0 * n + 1.0)
    log_h = ((a + b + 1.0) * np.log(2.0) - np.log(2.0 * n + a + b + 1.0)
             + log_gamma(n + a + 1.0) + log_gamma(n + b + 1.0)
             - log_gamma(n + 1.0) - log_gamma(n + a + b + 1.0))
    return float(np.exp(log_h))


def _clenshaw(cols, x, k):
    """sum_j cols[j][k] T_j(x), pointwise, for a (terms, ...) array `cols`
    (terms by panels, or by tables) and an array x, `row[k]` gathered per
    step.  The kernels below run the same IEEE operations in the same order
    on Python floats, so a point keeps its bits either way; they are the
    only copies of the recurrence."""
    x2 = 2.0 * x
    b1 = b2 = 0.0
    for row in cols[:0:-1]:
        b1, b2 = x2 * b1 - b2 + row[k], b1
    return x * b1 - b2 + cols[0][k]


def _clenshaw_rev(rest, head, x):
    """`_clenshaw` of one column c of Python floats, held as `rest =
    c[:0:-1]` and `head = c[0]`, at a float x."""
    x2 = 2.0 * x
    b1 = b2 = 0.0
    for c in rest:
        b1, b2 = x2 * b1 - b2 + c, b1
    return x * b1 - b2 + head


def _clenshaw_fused(lead, pairs, a0, c0, x):
    """`_clenshaw` of two columns a and c, m = len(c) <= len(a), in one loop,
    held as `lead = a[:m - 1:-1]`, `pairs = list(zip(a[m - 1:0:-1],
    c[:0:-1]))`, `a0 = a[0]` and `c0 = c[0]`.  Each recurrence keeps its own
    operations in its own order, so both keep their bits."""
    x2 = 2.0 * x
    a1 = a2 = c1 = c2 = 0.0
    for u in lead:
        a1, a2 = x2 * a1 - a2 + u, a1
    for u, v in pairs:
        a1, a2 = x2 * a1 - a2 + u, a1
        c1, c2 = x2 * c1 - c2 + v, c1
    return x * a1 - a2 + a0, x * c1 - c2 + c0

