"""Numerical integration: adaptive Gauss-Kronrod and tanh-sinh quadrature.

`integrate_adaptive` drives a 15-point Kronrod / 7-point Gauss pair with
bisection refinement and a QUADPACK-style error estimate; panels are accepted
locally against a width-proportional share of the tolerance, which makes the
final panel set (and hence the result, summed in ascending position order)
deterministic and independent of evaluation batching.
`integrate_adaptive_rows` runs the same refinement for several integrands
that share a window and breakpoints (the rows of a Gram system), each row
with its own panels, acceptance test and sum, and calls the integrand once
per round on the union of the rows' pending panels; `integrate_adaptive` is
its one-row case.

`integrate_singular_rows` applies the double-exponential (tanh-sinh)
transform to several integrands on one window, doubling the node density per
level until two successive levels agree; each level reuses the sum of the one
before and evaluates only its new nodes.  The nodes of a level depend only on
the window and the level, so the rows run in lockstep with one integrand call
per level, each row with its own running sum and stop test;
`integrate_singular` is its one-row case.  Nodes whose position rounds onto
an endpoint are dropped, so integrands with inverse-square-root blow-ups are
never evaluated at the endpoints themselves.
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

_EPS = np.finfo(float).eps


@dataclass
class QuadratureResult:
    """Value, accumulated error estimate and diagnostics of one integral."""

    value: float
    error_estimate: float
    panels_used: int
    rule: str


def _window(name: str, a, b, tol) -> tuple[float, float]:
    a = float(a)
    b = float(b)
    if not a < b:
        raise DomainError(f"{name} requires a < b, got [{a}, {b}]")
    if tol <= 0.0:
        raise DomainError("tolerance must be positive")
    return a, b


def _check_finite(vals: np.ndarray, where: np.ndarray) -> None:
    bad = ~np.isfinite(vals)
    if np.any(bad):
        x = where[bad.nonzero()[0][0]] if where.shape == vals.shape else None
        raise QuadratureError(f"integrand returned a non-finite value near x = {x}")


def _gk15_sums(vals: np.ndarray, hw: np.ndarray):
    """Kronrod sums and error estimates of panels of half-widths `hw`, from
    their integrand values `vals` (one row of 15 per panel)."""
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


def _union_panels(pending):
    """The distinct panels of several rows' pending (lo, hi) arrays, in order
    of first appearance, and for each row the index of its panels in them.

    Keyed by both edges: a panel bisected down to one ulp has a child of zero
    width that shares its sibling's left edge.
    """
    keys = np.stack([np.concatenate([lo for lo, _ in pending]),
                     np.concatenate([hi for _, hi in pending])], axis=1)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    where = rank[inverse.ravel()]
    cuts = np.cumsum([len(lo) for lo, _ in pending])[:-1]
    return keys[first[order], 0], keys[first[order], 1], np.split(where, cuts)


def integrate_adaptive_rows(
    f: Callable,
    rows: int,
    a: float,
    b: float,
    tol: float,
    *,
    breakpoints: Sequence[float] | None = None,
    max_panels: int = 10 ** 6,
) -> list[QuadratureResult]:
    """Adaptive Gauss-Kronrod integrals of `rows` integrands on one window.

    `f(x)` returns an array of shape (rows, len(x)): row r is the r-th
    integrand at the points x.  Every row refines on its own exactly as
    `integrate_adaptive` would, with its own pending panels, acceptance
    test, panel budget and ascending-order sum; only the integrand calls are
    shared.  All pending panels of a round sit at the same bisection depth
    of the same initial panels, so each round calls `f` once, on the nodes
    of the union of every unfinished row's pending panels.  Each row's
    result is bit-identical to a solo `integrate_adaptive` of that row when
    f's value at a point does not depend on the other points of the batch.
    Raises QuadratureError for the first row (in round, then row order) that
    exhausts its panel budget or meets a non-finite value.
    """
    a, b = _window("integrate_adaptive", a, b, tol)

    edges = [a]
    if breakpoints is not None and len(breakpoints):
        edges.extend(sorted(float(x) for x in breakpoints if a < x < b))
    edges.append(b)
    pending = {r: (np.array(edges[:-1]), np.array(edges[1:])) for r in range(rows)}
    done: list[list[tuple]] = [[] for _ in range(rows)]   # (lo, value, err) arrays
    n_panels = [len(edges) - 1] * rows
    span = b - a

    while pending:
        u_lo, u_hi, gathers = _union_panels(list(pending.values()))
        mid = 0.5 * (u_lo + u_hi)
        hw = 0.5 * (u_hi - u_lo)
        nodes = mid[:, None] + hw[:, None] * _XK[None, :]
        vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(rows, *nodes.shape)
        for (r, (pend_lo, pend_hi)), idx in zip(list(pending.items()), gathers):
            row_vals = vals[r][idx]
            _check_finite(row_vals, nodes[idx])
            sums, errs, floors = _gk15_sums(row_vals, hw[idx])
            # a panel is done when it meets its width's share of tol, or is
            # already at the roundoff floor (the reported estimate stays honest)
            ok = errs <= np.maximum(tol * (pend_hi - pend_lo) / span, 1.01 * floors)
            done[r].append((pend_lo[ok], sums[ok], errs[ok]))
            lo_bad = pend_lo[~ok]
            hi_bad = pend_hi[~ok]
            if len(lo_bad) == 0:
                del pending[r]
                continue
            n_panels[r] += 2 * len(lo_bad)
            if n_panels[r] > max_panels:
                raise QuadratureError(
                    f"adaptive refinement exceeded {max_panels} panels on [{a}, {b}] "
                    f"(unresolved error ~ {float(np.sum(errs[~ok])):.3e} vs tol {tol:.3e})")
            mid_bad = 0.5 * (lo_bad + hi_bad)
            pending[r] = (np.concatenate([lo_bad, mid_bad]), np.concatenate([mid_bad, hi_bad]))

    results = []
    for row in done:
        lo_all, val_all, err_all = (np.concatenate(part) for part in zip(*row))
        order = np.argsort(lo_all, kind="stable")
        results.append(QuadratureResult(
            value=float(np.sum(val_all[order])), error_estimate=float(np.sum(err_all[order])),
            panels_used=len(lo_all), rule="gk15-adaptive"))
    return results


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
    QuadratureError if the panel budget is exhausted first.  The one-row
    case of `integrate_adaptive_rows`: f is called with the same points, in
    the same order, as by a loop over this integral alone.
    """
    return integrate_adaptive_rows(f, 1, a, b, tol, breakpoints=breakpoints,
                                   max_panels=max_panels)[0]


def _tanh_sinh_level(a: float, b: float, level: int):
    """The nodes and weights (without the factor (b - a) / 2) of the part of
    the tanh-sinh sum at step h = 2^-level that level - 1 lacks: its nodes at
    odd multiples of h, or every node, the midpoint included, at the first
    level.  Half the previous level's sum plus this part is the full sum at
    step h.  Nodes whose position rounds onto an endpoint are dropped (their
    weights are negligible by then).
    """
    h = 2.0 ** (-level)
    r = 0.5 * (b - a)
    # w*f decays like exp(tau - (pi/2) sinh tau) even for (dist)^(-1/2)
    # integrands; tau = 4.3 puts the truncated tail below 1e-45
    k = np.arange(1, int(np.ceil(4.3 / h)) + 1, 1 if level == 1 else 2)
    tau = k * h
    u = 0.5 * np.pi * np.sinh(tau)
    w = h * (0.5 * np.pi) * np.cosh(tau) / np.cosh(u) ** 2
    delta = 2.0 / (1.0 + np.exp(2.0 * u))  # 1 - tanh(u), cancellation-free
    dist = r * delta                       # distance to the near endpoint
    t_right = b - dist
    t_left = a + dist
    keep = (t_right < b) & (t_left > a) & (w > 0.0)
    center = [0.5 * (a + b)] if level == 1 else []
    pts = np.concatenate([t_left[keep], center, t_right[keep]])
    wts = np.concatenate([w[keep], [h * 0.5 * np.pi] if center else [], w[keep]])
    return pts, wts


def integrate_singular_rows(
    f: Callable,
    rows: int,
    a: float,
    b: float,
    tol: float,
    *,
    max_level: int = 12,
) -> list[QuadratureResult]:
    """Tanh-sinh integrals of `rows` integrands on one window, in lockstep.

    `f(x)` returns an array of shape (rows, len(x)): row r is the r-th
    integrand at the points x.  The nodes of a level depend only on the
    window and the level, so each level calls `f` once, on its new nodes.
    Every row keeps its own running sum and stop test, exactly as
    `integrate_singular` of that row alone would, and ignores the levels
    after its own stop.  Raises QuadratureError for the first row (in
    level, then row order) that meets a non-finite value or has not
    converged by `max_level`.
    """
    a, b = _window("integrate_singular", a, b, tol)
    r = 0.5 * (b - a)
    acc = [0.0] * rows
    prev = [0.0] * rows
    results: list[QuadratureResult | None] = [None] * rows
    for level in range(1, max_level + 1):
        pts, wts = _tanh_sinh_level(a, b, level)
        vals = np.asarray(f(pts), dtype=float).reshape(rows, len(pts))
        for i in range(rows):
            if results[i] is not None:
                continue
            _check_finite(vals[i], pts)
            # a fixed-order sum: a BLAS dot would split long sums across threads
            part = float(np.sum(wts * vals[i]))
            acc[i] = part if level == 1 else 0.5 * acc[i] + part
            cur = r * acc[i]
            diff = abs(cur - prev[i])
            if level > 1 and diff <= max(tol, 8.0 * _EPS * (1.0 + abs(cur))):
                results[i] = QuadratureResult(value=cur, error_estimate=diff,
                                              panels_used=level, rule="tanh-sinh")
            prev[i] = cur
        if all(res is not None for res in results):
            return results
    raise QuadratureError(
        f"tanh-sinh did not converge to {tol:.3e} within {max_level} levels on [{a}, {b}]")


def integrate_singular(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    *,
    max_level: int = 12,
) -> QuadratureResult:
    """Tanh-sinh integral on [a, b], tolerating (dist)^(-1/2) endpoint blow-up.

    Levels are refined until two successive sums differ by at most tol (or
    by machine noise relative to the value).  The integrand is never called
    at a or b.  `panels_used` reports the number of levels evaluated.  The
    one-row case of `integrate_singular_rows`.
    """
    return integrate_singular_rows(f, 1, a, b, tol, max_level=max_level)[0]
