"""Numerical integration: adaptive Gauss-Kronrod and tanh-sinh quadrature.

`integrate_adaptive` drives a 15-point Kronrod / 7-point Gauss pair with
bisection refinement and a QUADPACK-style error estimate; panels are accepted
locally against a width-proportional share of the tolerance, which makes the
final panel set (and hence the result, summed in ascending position order)
deterministic and independent of evaluation batching.

`integrate_singular` applies the double-exponential (tanh-sinh) transform,
doubling the node density per level until two successive levels agree.  Node
positions near the ends are generated from their *distance* to the endpoint,
so integrands with inverse-square-root blow-ups are never evaluated at the
endpoints themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import DomainError, QuadratureError

# Kronrod-15 nodes on [-1, 1] (ascending) with Kronrod weights, and the
# embedded Gauss-7 weights on the odd-index subset.  Generated from the
# Legendre Jacobi matrix via Laurie's extension algorithm at 50 digits.
_XK = np.array([
    -0.99145537112081263920685469752633,
    -0.94910791234275852452618968404785,
    -0.86486442335976907278971278864093,
    -0.74153118559939443986386477328079,
    -0.58608723546769113029414483825873,
    -0.40584515137739716690660641207696,
    -0.20778495500789846760068940377324,
    0.0,
    0.20778495500789846760068940377324,
    0.40584515137739716690660641207696,
    0.58608723546769113029414483825873,
    0.74153118559939443986386477328079,
    0.86486442335976907278971278864093,
    0.94910791234275852452618968404785,
    0.99145537112081263920685469752633,
])
_WK = np.array([
    0.02293532201052922496373200805897,
    0.06309209262997855329070066318920,
    0.10479001032225018383987632254152,
    0.14065325971552591874518959051024,
    0.16900472663926790282658342659855,
    0.19035057806478540991325640242101,
    0.20443294007529889241416199923465,
    0.20948214108472782801299917489171,
    0.20443294007529889241416199923465,
    0.19035057806478540991325640242101,
    0.16900472663926790282658342659855,
    0.14065325971552591874518959051024,
    0.10479001032225018383987632254152,
    0.06309209262997855329070066318920,
    0.02293532201052922496373200805897,
])
_WG = np.array([
    0.12948496616886969327061143267908,
    0.27970539148927666790146777142378,
    0.38183005050511894495036977548898,
    0.41795918367346938775510204081633,
    0.38183005050511894495036977548898,
    0.27970539148927666790146777142378,
    0.12948496616886969327061143267908,
])
_GAUSS_IDX = np.arange(1, 15, 2)

# Gauss-7 exposed for panel accumulation elsewhere (the ladder builder)
GAUSS7_NODES = _XK[_GAUSS_IDX].copy()
GAUSS7_WEIGHTS = _WG.copy()

_EPS = np.finfo(float).eps


@dataclass
class QuadratureResult:
    """Value, accumulated error estimate and diagnostics of one integral."""

    value: float
    error_estimate: float
    panels_used: int
    rule: str


def _check_finite(vals: np.ndarray, where: np.ndarray) -> None:
    bad = ~np.isfinite(vals)
    if np.any(bad):
        x = where[bad.nonzero()[0][0]] if where.shape == vals.shape else None
        raise QuadratureError(f"integrand returned a non-finite value near x = {x}")


def _gk15_batch(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Kronrod/Gauss sums and error estimates for a batch of panels."""
    mid = 0.5 * (lo + hi)
    hw = 0.5 * (hi - lo)
    nodes = mid[:, None] + hw[:, None] * _XK[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    _check_finite(vals, nodes)
    resk = vals @ _WK
    resg = vals[:, _GAUSS_IDX] @ _WG
    reskh = 0.5 * resk
    resabs = np.abs(vals) @ _WK
    resasc = np.abs(vals - reskh[:, None]) @ _WK
    diff = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(resasc > 0.0,
                          resasc * np.minimum(1.0, (200.0 * diff /
                                                    np.where(resasc > 0, resasc, 1.0)) ** 1.5),
                          diff)
    floor = 50.0 * _EPS * hw * resabs  # roundoff floor; splitting cannot beat it
    err = np.maximum(hw * scaled, floor)
    return hw * resk, err, floor


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    *,
    breakpoints: Sequence[float] | None = None,
    max_panels: int = 10 ** 6,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integral of a vectorized integrand on [a, b].

    A panel [lo, hi] is accepted once its error estimate is below
    tol * (hi - lo) / (b - a); otherwise it is bisected.  Raises
    QuadratureError if the panel budget is exhausted first.
    """
    a = float(a)
    b = float(b)
    if not a < b:
        raise DomainError(f"integrate_adaptive requires a < b, got [{a}, {b}]")
    if tol <= 0.0:
        raise DomainError("tolerance must be positive")

    edges = [a]
    if breakpoints is not None and len(breakpoints):
        edges.extend(sorted(float(x) for x in breakpoints if a < x < b))
    edges.append(b)
    pend_lo = np.array(edges[:-1])
    pend_hi = np.array(edges[1:])

    done_lo: list[np.ndarray] = []
    done_val: list[np.ndarray] = []
    done_err: list[np.ndarray] = []
    n_panels = len(pend_lo)
    span = b - a

    while len(pend_lo):
        vals, errs, floors = _gk15_batch(f, pend_lo, pend_hi)
        # a panel is done when it meets its width's share of tol, or is
        # already at the roundoff floor (the reported estimate stays honest)
        ok = errs <= np.maximum(tol * (pend_hi - pend_lo) / span, 1.01 * floors)
        done_lo.append(pend_lo[ok])
        done_val.append(vals[ok])
        done_err.append(errs[ok])
        lo_bad = pend_lo[~ok]
        hi_bad = pend_hi[~ok]
        if len(lo_bad) == 0:
            break
        n_panels += 2 * len(lo_bad)
        if n_panels > max_panels:
            raise QuadratureError(
                f"adaptive refinement exceeded {max_panels} panels on [{a}, {b}] "
                f"(unresolved error ~ {float(np.sum(errs[~ok])):.3e} vs tol {tol:.3e})")
        mid_bad = 0.5 * (lo_bad + hi_bad)
        pend_lo = np.concatenate([lo_bad, mid_bad])
        pend_hi = np.concatenate([mid_bad, hi_bad])

    lo_all = np.concatenate(done_lo)
    order = np.argsort(lo_all, kind="stable")
    value = float(np.sum(np.concatenate(done_val)[order]))
    err = float(np.sum(np.concatenate(done_err)[order]))
    return QuadratureResult(value=value, error_estimate=err,
                            panels_used=len(lo_all), rule="gk15-adaptive")


def _tanh_sinh_level(f: Callable, a: float, b: float, level: int,
                     distance_form: bool):
    """Full tanh-sinh sum at step h = 2^-level (recomputed, deterministic).

    With distance_form the integrand is called as f(x, d_left, d_right) where
    the distances to the endpoints stay exact long after x itself has rounded
    onto the endpoint; without it, nodes whose position rounds onto an
    endpoint are dropped (their weights are negligible by then).
    """
    h = 2.0 ** (-level)
    r = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    # w*f decays like exp(tau - (pi/2) sinh tau) even for (dist)^(-1/2)
    # integrands; tau = 4.3 puts the truncated tail below 1e-45
    kmax = int(np.ceil(4.3 / h))
    k = np.arange(1, kmax + 1)
    tau = k * h
    u = 0.5 * np.pi * np.sinh(tau)
    w = h * (0.5 * np.pi) * np.cosh(tau) / np.cosh(u) ** 2
    delta = 2.0 / (1.0 + np.exp(2.0 * u))  # 1 - tanh(u), cancellation-free
    dist = r * delta                       # distance to the near endpoint
    t_right = b - dist
    t_left = a + dist
    span = b - a
    if distance_form:
        keep = w > 0.0
        pts = np.concatenate([t_left[keep], [mid], t_right[keep]])
        wts = np.concatenate([w[keep], [h * 0.5 * np.pi], w[keep]])
        d_keep = dist[keep]
        far = span - d_keep
        d_lefts = np.concatenate([d_keep, [r], far])
        d_rights = np.concatenate([far, [r], d_keep])
        vals = np.asarray(f(pts, d_lefts, d_rights), dtype=float)
    else:
        keep = (t_right < b) & (t_left > a) & (w > 0.0)
        pts = np.concatenate([t_left[keep], [mid], t_right[keep]])
        wts = np.concatenate([w[keep], [h * 0.5 * np.pi], w[keep]])
        vals = np.asarray(f(pts), dtype=float)
    _check_finite(vals, pts)
    return r * float(np.dot(wts, vals))


def integrate_singular(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    *,
    max_level: int = 12,
    distance_form: bool = False,
) -> QuadratureResult:
    """Tanh-sinh integral on [a, b], tolerating (dist)^(-1/2) endpoint blow-up.

    Levels are refined until two successive sums differ by at most tol (or
    by machine noise relative to the value).  The integrand is never called
    at a or b.  With distance_form=True the integrand signature is
    f(x, d_left, d_right); expressing singular factors through the endpoint
    distances avoids the 1-x cancellation and recovers the last ~1e-8 of
    mass that position-form integrands cannot see in double precision.
    `panels_used` reports the number of levels evaluated.
    """
    a = float(a)
    b = float(b)
    if not a < b:
        raise DomainError(f"integrate_singular requires a < b, got [{a}, {b}]")
    if tol <= 0.0:
        raise DomainError("tolerance must be positive")

    prev = _tanh_sinh_level(f, a, b, 1, distance_form)
    for level in range(2, max_level + 1):
        cur = _tanh_sinh_level(f, a, b, level, distance_form)
        diff = abs(cur - prev)
        if diff <= max(tol, 8.0 * _EPS * (1.0 + abs(cur))):
            return QuadratureResult(value=cur, error_estimate=diff,
                                    panels_used=level, rule="tanh-sinh")
        prev = cur
    raise QuadratureError(
        f"tanh-sinh did not converge to {tol:.3e} within {max_level} levels on [{a}, {b}]")
