"""Reference formulas the tests check the program against; no program code
uses them."""

import math

import numpy as np
from numpy.polynomial.chebyshev import chebroots

from zladder.exceptions import DomainError
from zladder.ladder import check_admissible
from zladder.quadrature import integrate_adaptive


def ln_t_placement_shift(ratio: float, T: float, interval: tuple[float, float]) -> float:
    """Worst change of a reported ratio if ln T is replaced by ln xi with xi
    anywhere in the integration interval (consequence of the log-stability
    bound; directly checkable against 2 / ln T)."""
    a, b = interval
    lnT = math.log(T)
    return abs(ratio) * max(abs(lnT / math.log(a) - 1.0), abs(lnT / math.log(b) - 1.0))


# Dekker's double-double primitives (Numer. Math. 18, 1971), elementwise on
# ndarrays or on Python floats: the steps the program's Bessel series writes
# out inline, as functions
_SPLIT = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def two_prod(a, b):
    p = a * b
    a1 = a * _SPLIT
    ahi = a1 - (a1 - a)
    alo = a - ahi
    b1 = b * _SPLIT
    bhi = b1 - (b1 - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def dd_add(xh, xl, yh, yl):
    sh, sl = two_sum(xh, yh)
    return two_sum(sh, sl + (xl + yl))


def dd_mul(xh, xl, yh, yl):
    ph, pl = two_prod(xh, yh)
    return two_sum(ph, pl + (xh * yl + xl * yh))


def dd_div(xh, xl, yh, yl):
    qh = xh / yh
    th, tl = dd_mul(qh, 0.0, yh, yl)
    rh, rl = dd_add(xh, xl, -th, -tl)
    return two_sum(qh, (rh + rl) / yh)


def prime_pi(t):
    """pi(t) = #{primes <= t} for 0 <= t <= 1e8, from a sieve of every
    integer up to max(t)."""
    ta = np.asarray(t, dtype=float)
    if not np.all((ta >= 0.0) & (ta <= 1e8)):   # NaN fails
        raise DomainError("prime_pi requires 0 <= t <= 1e8")
    limit = int(ta.max(initial=0.0))
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    counts = np.searchsorted(np.flatnonzero(sieve), ta, side="right")
    return counts if ta.ndim else int(counts)


def ztilde_sq(evaluator, t):
    """Ztilde^2(t) = Z(t)^2 / ln t from the evaluator itself, the model the
    ladder's stored derivative p^2 approximates; t > e."""
    ta = np.asarray(t, dtype=float)
    if np.any(ta <= math.e):
        raise DomainError("ztilde_sq requires t > e")
    zv = evaluator.z(ta if ta.ndim else float(ta))
    out = zv * zv / np.log(ta)
    return out if ta.ndim else float(out)


def breakpoints(table, a: float, b: float) -> np.ndarray:
    """Real roots of the ladder's panel polynomials p in [a, b] (the zeros of
    Z) and the evaluator dispatch seam: one colleague-matrix eigensolve
    (`chebroots`) per panel touched."""
    k0 = max(int(np.searchsorted(table.edges, a, side="right")) - 1, 0)
    k1 = min(int(np.searchsorted(table.edges, b)), len(table._half))
    pts = [np.empty(0)]
    for k in range(k0, k1):
        r = chebroots(table.coef[k])
        x = r.real[(np.abs(r.imag) <= 1e-8) & (np.abs(r.real) <= 1.0 + 1e-9)]
        pts.append(table._mid[k] + table._half[k] * x)
    # sorted, not np.unique (whose first call imports numpy.ma, ~40 ms):
    # exact repeats go with the near ones
    pts = np.sort(np.concatenate(pts))
    pts = pts[(pts >= a) & (pts <= b)]
    pts = pts[np.diff(pts, prepend=-math.inf) > 1e-9]   # found on both sides of an edge
    if a < table.evaluator.t_min_rs < b:
        pts = np.sort(np.append(pts, table.evaluator.t_min_rs))
    return pts


def pushforward_integral(table, f, T: float, U: float, tol: float = 1e-9) -> float:
    """int_{phi^-1(T)}^{phi^-1(T+U)} f(phi_1(t)) Ztilde^2(t) dt.

    By change of variables this equals int_T^{T+U} f(x) dx up to numerical
    error; the identity is what the exactness layer of the verification
    suite leans on.  The window is split at the zeros of Z (`breakpoints`),
    not at the ladder's panel edges as the program splits it.
    """
    T = float(T)
    U = float(U)
    check_admissible(T, U)
    a = table.invert(T)
    b = table.invert(T + U)

    def integrand(ts):
        return f(table.eval(ts)) * table.ztilde_sq(ts)

    return integrate_adaptive(integrand, a, b, tol,
                              breakpoints=breakpoints(table, a, b)).value


def log_stability_check(table, T: float, U: float = 1.0) -> float:
    """max over xi in [phi^-1(T), phi^-1(T+U)] of |ln xi - ln T| * ln T.

    Monotone in xi, so the maximum is at an endpoint.  A degenerate interval
    (U <= 0) reports 0 by convention.
    """
    T = float(T)
    if U <= 0.0:
        return 0.0
    a = table.invert(T)
    b = table.invert(T + U)
    ln_t = math.log(T)
    return max(abs(math.log(a) - ln_t), abs(math.log(b) - ln_t)) * ln_t


def poly_weight(spec, u):
    """The classical weight of the family `spec` on (-1, 1)."""
    ua = np.asarray(u, dtype=float)
    if spec.family == "legendre":
        return np.ones_like(ua)
    if spec.family == "chebyshev_t":
        return 1.0 / np.sqrt(1.0 - ua * ua)
    if spec.family == "chebyshev_u":
        return np.sqrt(1.0 - ua * ua)
    return (1.0 - ua) ** spec.alpha * (1.0 + ua) ** spec.beta
