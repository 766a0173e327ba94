"""Numerical integration: adaptive Gauss-Kronrod quadrature, the one rule.

`integrate_adaptive` drives a 15-point Kronrod / 7-point Gauss pair with
bisection refinement and a QUADPACK-style error estimate; panels are accepted
locally against a width-proportional share of the tolerance, which makes the
final panel set (and hence the result, summed in ascending position order)
deterministic and independent of evaluation batching.
`integrate_adaptive_rows` runs the same refinement for several integrands
that share a window and breakpoints (the rows of a Gram system), each row
with its own tolerance, acceptance test and sum.  The rows share one list of
pending panels, with a boolean mask of the panels each row still refines,
and the integrand is called once per round on every pending panel;
`integrate_adaptive` is its one-row case.

`integrate_singular` meets an algebraic blow-up at the ends with a change of
variable, as QUADPACK does, not with a second scheme: GK15 over the halves
of [a, b], each mapped from its own end by x = end -+ w tau^2.  The ladder
rows of `verify` map their windows' end pieces by such a power of tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import DomainError, QuadratureError

# Kronrod-15 nodes on [-1, 1] (ascending) with Kronrod weights, and the
# embedded Gauss-7 weights on the odd-index subset.  Generated from the
# Legendre Jacobi matrix via Laurie's extension algorithm at 50 digits.  The
# rule is symmetric, so each table is written from the middle node out and
# mirrored: nodes -x, weights w.
_XK, _WK, _WG = (np.concatenate([sign * half[:0:-1], half]) for sign, half in (
    (-1.0, np.array([
        0.0,
        0.20778495500789846760068940377324,
        0.40584515137739716690660641207696,
        0.58608723546769113029414483825873,
        0.74153118559939443986386477328079,
        0.86486442335976907278971278864093,
        0.94910791234275852452618968404785,
        0.99145537112081263920685469752633,
    ])),
    (1.0, np.array([
        0.20948214108472782801299917489171,
        0.20443294007529889241416199923465,
        0.19035057806478540991325640242101,
        0.16900472663926790282658342659855,
        0.14065325971552591874518959051024,
        0.10479001032225018383987632254152,
        0.06309209262997855329070066318920,
        0.02293532201052922496373200805897,
    ])),
    (1.0, np.array([
        0.41795918367346938775510204081633,
        0.38183005050511894495036977548898,
        0.27970539148927666790146777142378,
        0.12948496616886969327061143267908,
    ]))))

_EPS = np.finfo(float).eps
_NON_FINITE = "integrand returned a non-finite value near x = {}"
_MAX_PANELS = 10 ** 6   # a row's panel budget; it raises once a split passes it


@dataclass
class QuadratureResult:
    """Value, accumulated error estimate and diagnostics of one integral."""

    value: float
    error_estimate: float
    panels_used: int


def _window(name: str, a, b, tol, rows: int) -> tuple[float, float, np.ndarray]:
    """The window as floats and an array of one tolerance per row (`tol` is
    one float for every row, or a sequence of one per row)."""
    a, b = float(a), float(b)
    if not a < b:
        raise DomainError(f"{name} requires a < b, got [{a}, {b}]")
    tols = np.full(rows, float(tol)) if np.ndim(tol) == 0 else np.array(tol, dtype=float)
    if len(tols) != rows:
        raise DomainError(f"{name} needs one tolerance per row: {len(tols)} for {rows} rows")
    if not np.all(tols > 0.0):   # NaN is not
        raise DomainError("tolerance must be positive")
    return a, b, tols


def _node_sum(vals: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k w[k] vals[..., k] left to right: a cell's bits ignore the batch."""
    acc = vals[..., 0] * w[0]
    for k in range(1, len(w)):
        acc += vals[..., k] * w[k]
    return acc


def _gk15_sums(vals: np.ndarray, hw: np.ndarray):
    """Kronrod sums and error estimates of panels of half-widths `hw`, from
    their integrand values `vals` (shape (..., panels, 15))."""
    resk = _node_sum(vals, _WK)
    resg = _node_sum(vals[..., 1::2], _WG)
    reskh = 0.5 * resk
    resabs = _node_sum(np.abs(vals), _WK)
    resasc = _node_sum(np.abs(vals - reskh[..., None]), _WK)
    diff = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(resasc > 0.0,
                          resasc * np.minimum(1.0, (200.0 * diff /
                                                    np.where(resasc > 0, resasc, 1.0)) ** 1.5),
                          diff)
    floor = 50.0 * _EPS * hw * resabs  # roundoff floor; splitting cannot beat it
    err = np.maximum(hw * scaled, floor)
    return hw * resk, err, floor


def integrate_adaptive_rows(
    f: Callable,
    rows: int,
    a: float,
    b: float,
    tol: float | Sequence[float],
    *,
    breakpoints: Sequence[float] | None = None,
) -> list[QuadratureResult]:
    """Adaptive Gauss-Kronrod integrals of `rows` integrands on one window.

    `f(x)` returns an array of shape (rows, len(x)): row r is the r-th
    integrand at the points x.  Every row refines on its own exactly as
    `integrate_adaptive` would, with its own acceptance test, panel budget
    and ascending-order sum; only the integrand calls are shared.  `tol` is
    one float for every row or one per row.  Every row's panels are nodes of
    one bisection tree, so the rows share one list of pending panels and a
    boolean (rows, panels) mask of the panels each row owns.  Each round
    calls `f` once, on every pending panel, and judges every (row, panel)
    cell at once; a panel some row rejected is bisected once, its two
    children going to the rows that rejected it.  Values on panels a row
    does not own are never looked at.  A row's result is bit-identical to a
    solo `integrate_adaptive` of that row when f's value at a point does not
    depend on the other points of the batch.
    Raises QuadratureError for the first row (in round, then row order) that
    exhausts its panel budget (`_MAX_PANELS`) or meets a non-finite value.
    """
    a, b, tols = _window("integrate_adaptive", a, b, tol, rows)

    edges = [a]
    if breakpoints is not None and len(breakpoints):
        edges.extend(sorted(float(x) for x in breakpoints if a < x < b))
    edges.append(b)
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    owns = np.ones((rows, len(lo)), dtype=bool)
    done = [(np.zeros(0, dtype=np.intp), lo[:0], lo[:0], lo[:0])]   # (row, lo, value, err)
    n_panels = np.full(rows, len(lo))
    span = b - a

    while owns.any():
        mid = 0.5 * (lo + hi)
        hw = 0.5 * (hi - lo)
        nodes = mid[:, None] + hw[:, None] * _XK[None, :]
        vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(rows, *nodes.shape)
        fine = np.isfinite(vals)
        bad = ~fine & owns[:, :, None]
        vals = np.where(fine & owns[:, :, None], vals, 0.0)
        sums, errs, floors = _gk15_sums(vals, hw)
        # a panel is done when it meets its width's share of tol, or is
        # already at the roundoff floor (the reported estimate stays honest)
        ok = errs <= np.maximum(tols[:, None] * (hi - lo) / span, 1.01 * floors)
        rejects = owns & ~ok
        # checked only on a split: a row may start with more panels than the budget
        n_panels += 2 * np.count_nonzero(rejects, axis=1)
        failed = bad.any(axis=(1, 2)) | ((n_panels > _MAX_PANELS) & rejects.any(axis=1))
        if failed.any():
            r = int(np.argmax(failed))
            if bad[r].any():
                raise QuadratureError(_NON_FINITE.format(nodes[bad[r]][0]))
            raise QuadratureError(
                f"adaptive refinement exceeded {_MAX_PANELS} panels on [{a}, {b}] (unresolved "
                f"error ~ {float(np.sum(errs[r, rejects[r]])):.3e} vs tol {tols[r]:.3e})")
        accept = owns & ok
        row, panel = np.nonzero(accept)
        done.append((row, lo[panel], sums[accept], errs[accept]))
        # left children, then right children, as a solo run queues them
        split = rejects.any(axis=0)
        lo, hi = np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]])
        owns = np.concatenate([rejects[:, split], rejects[:, split]], axis=1)

    row, lo, val, err = (np.concatenate(part) for part in zip(*done))
    order = np.lexsort((lo, row))   # stable: by row, then ascending lo
    val, err = val[order], err[order]
    ends = np.searchsorted(row[order], np.arange(rows + 1)).tolist()
    return [QuadratureResult(value=float(np.sum(val[i:j])), error_estimate=float(np.sum(err[i:j])),
                             panels_used=j - i)
            for i, j in zip(ends[:-1], ends[1:])]


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    *,
    breakpoints: Sequence[float] | None = None,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integral of a vectorized integrand on [a, b].

    A panel [lo, hi] is accepted once its error estimate is below
    tol * (hi - lo) / (b - a); otherwise it is bisected.  Raises
    QuadratureError if the panel budget is exhausted first.  The one-row
    case of `integrate_adaptive_rows`: f is called with the same points, in
    the same order, as by a loop over this integral alone.
    """
    return integrate_adaptive_rows(f, 1, a, b, tol, breakpoints=breakpoints)[0]


def integrate_singular(f: Callable, a: float, b: float, tol: float) -> QuadratureResult:
    """GK15 integral on [a, b], tolerating (dist)^(-1/2) endpoint blow-up.

    The halves are x = a + w tau^2 and x = b - w tau^2, tau in [0, 1] and
    w = (b - a) / 2, in one `integrate_adaptive` over [0, 2] with a
    breakpoint at 1: f(x) 2 w tau is bounded for a (dist)^(-1/2) f.  f is
    never called at a or b: a node whose x rounds onto an end counts as
    non-finite, so a blow-up the map does not tame raises a QuadratureError
    that names that x.
    """
    a, b, _ = _window("integrate_singular", a, b, tol, 1)
    w = 0.5 * (b - a)

    def mapped(s):
        right = s > 1.0
        tau = np.where(right, 2.0 - s, s)
        x = np.where(right, b - w * (tau * tau), a + w * (tau * tau))
        inside = (a < x) & (x < b)
        vals = np.full(len(x), np.nan)
        vals[inside] = f(x[inside])
        bad = ~np.isfinite(vals)
        if bad.any():
            raise QuadratureError(_NON_FINITE.format(x[bad][0]))
        return vals * (2.0 * w * tau)

    return integrate_adaptive(mapped, 0.0, 2.0, tol, breakpoints=[1.0])
