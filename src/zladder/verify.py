"""Verification of the weighted-orthogonality identities.

Three layers, in increasing dependence on asymptotics:

* classical baseline (E1_2): Bessel orthogonality on [0,1] with weight x;
* exactness layer (E1_3, sanity variants of E2_4..E2_10): integrals against
  the weight Ztilde^2 pulled back through the ladder; these reduce to the
  baseline by change of variables and must hold to quadrature accuracy;
* asymptotic layer (E2_2, E2_4..E2_10 with |zeta|^2 weight): the right-hand
  sides carry a factor ln T and hold only as T -> infinity; ratios are
  reported and their error trend is checked across a ladder of T values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .ladder import LadderTable, check_admissible
from .quadrature import integrate_adaptive, integrate_singular
from .specfun import (PolyFamilySpec, bessel_j, bessel_norm_sq, bessel_zero,
                      poly_eval, poly_norm_sq)

EQUATION_IDS = (
    "E1_2", "E1_3_offdiag", "E1_3_diag", "E1_4",
    "E2_2", "E2_4", "E2_5", "E2_6", "E2_7", "E2_8", "E2_9", "E2_10",
)

# JSONL field order is fixed for byte-reproducible reports
_REPORT_FIELDS = ("equation_id", "params", "lhs", "rhs", "ratio", "abs_error",
                  "quadrature_error", "evaluator_hash", "ladder_hash")


@dataclass
class VerificationReport:
    """One verified equation instance: parameters, both sides, and errors."""

    equation_id: str
    params: dict
    lhs: float
    rhs: float
    ratio: float | None
    abs_error: float
    quadrature_error: float
    elapsed: float
    evaluator_hash: str
    ladder_hash: str | None = None

    def to_json_dict(self, include_timings: bool = False) -> dict:
        doc = {
            "equation_id": self.equation_id,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "abs_error": self.abs_error,
            "quadrature_error": self.quadrature_error,
            "evaluator_hash": self.evaluator_hash,
            "ladder_hash": self.ladder_hash,
        }
        if include_timings:
            doc["elapsed"] = self.elapsed
        return doc


def _make_report(eq, params, lhs, rhs, qerr, t0, ev_hash, ladder_hash=None):
    return VerificationReport(
        equation_id=eq, params=params, lhs=float(lhs), rhs=float(rhs),
        ratio=(float(lhs) / float(rhs)) if rhs != 0.0 else None,
        abs_error=abs(float(lhs) - float(rhs)), quadrature_error=float(qerr),
        elapsed=time.perf_counter() - t0, evaluator_hash=ev_hash,
        ladder_hash=ladder_hash)


# ---------------------------------------------------------------------------
# classical Bessel orthogonality baseline (E1_2)

def verify_bessel_baseline(nu: float, max_n: int, tol: float = 1e-9,
                           quad_tol: float = 1e-12) -> list[VerificationReport]:
    """Gram matrix of {J_nu(mu_n x)} under weight x on [0, 1].

    Off-diagonal entries vanish; diagonals equal 0.5 J_{nu+1}(mu_n)^2.
    `tol` is recorded for the caller's judgement; rows are emitted for every
    unordered pair (m, n) with m <= n <= max_n.
    """
    if not 1 <= max_n <= 8:
        raise DomainError("verify_bessel_baseline requires 1 <= max_n <= 8")
    mus = [bessel_zero(nu, k) for k in range(1, max_n + 1)]
    reports = []
    for m in range(1, max_n + 1):
        for n in range(m, max_n + 1):
            t0 = time.perf_counter()

            def integrand(x, _mm=mus[m - 1], _mn=mus[n - 1]):
                return bessel_j(nu, _mm * x) * bessel_j(nu, _mn * x) * x

            res = integrate_adaptive(integrand, 0.0, 1.0, quad_tol)
            rhs = bessel_norm_sq(nu, n) if m == n else 0.0
            reports.append(_make_report(
                "E1_2", {"nu": nu, "m": m, "n": n, "tol": tol},
                res.value, rhs, res.error_estimate, t0, "classical"))
    return reports


# ---------------------------------------------------------------------------
# the ladder-weighted Bessel orthogonality system (E1_3) and the
# segment-distance diagnostic (E1_4)

def verify_theorem1(table: LadderTable, T: float, nu: float, max_n: int,
                    tol: float = 1e-4,
                    quad_tol: float = 1e-9) -> list[VerificationReport]:
    """Weighted orthogonality of J_nu(mu_n (phi_1(t) - T)) on the preimage
    of [T, T+1] under the weight (phi_1(t) - T) Ztilde^2(t).

    Emits E1_3 rows for all unordered (m, n), plus the E1_4 segment-distance
    row dist([0,1], [phi^-1(T), phi^-1(T+1)]) / T.
    """
    T = float(T)
    if T < 1e3:
        raise DomainError("verify_theorem1 requires T >= 1e3 (working range)")
    if not 1 <= max_n <= 16:
        raise DomainError("verify_theorem1 requires 1 <= max_n <= 16")
    ev_hash = table.evaluator.config_hash()
    lhash = table.config_hash()
    a = table.invert(T)
    b = table.invert(T + 1.0)
    zeros = table.breakpoints(a, b)
    mus = [bessel_zero(nu, k) for k in range(1, max_n + 1)]

    reports = []
    for m in range(1, max_n + 1):
        for n in range(m, max_n + 1):
            t0 = time.perf_counter()

            def integrand(ts, _mm=mus[m - 1], _mn=mus[n - 1]):
                u = np.maximum(table.eval(ts) - T, 0.0)
                return (bessel_j(nu, _mm * u) * bessel_j(nu, _mn * u) * u
                        * table._ztilde(ts))

            res = integrate_adaptive(integrand, a, b, quad_tol, breakpoints=zeros)
            if m == n:
                eq, rhs = "E1_3_diag", bessel_norm_sq(nu, n)
            else:
                eq, rhs = "E1_3_offdiag", 0.0
            reports.append(_make_report(
                eq, {"T": T, "nu": nu, "m": m, "n": n, "tol": tol},
                res.value, rhs, res.error_estimate, t0, ev_hash, lhash))

    t0 = time.perf_counter()
    dist = a - 1.0  # segments [0,1] and [a,b] with a >> 1
    reports.append(_make_report("E1_4", {"T": T, "nu": nu}, dist, T, 0.0, t0,
                                ev_hash, lhash))
    return reports


# ---------------------------------------------------------------------------
# the |zeta|^2-weighted Bessel diagonal (E2_2)

def verify_corollary(table: LadderTable, T_list, nu: float, n: int,
                     quad_tol: float = 1e-6) -> list[VerificationReport]:
    """The E2_2 integral: |zeta(1/2+it)|^2-weighted Bessel diagonal against
    0.5 J_{nu+1}(mu_n)^2 ln T, one report per T (ratio -> 1 as T grows)."""
    mu = bessel_zero(nu, n)
    norm = bessel_norm_sq(nu, n)
    ev = table.evaluator
    ev_hash = ev.config_hash()
    lhash = table.config_hash()
    reports = []
    for T in sorted(float(x) for x in np.atleast_1d(np.asarray(T_list, dtype=float))):
        t0 = time.perf_counter()
        a = table.invert(T)
        b = table.invert(T + 1.0)
        zeros = table.breakpoints(a, b)

        def integrand(ts):
            u = np.maximum(table.eval(ts) - T, 0.0)
            zv = ev.z(ts)
            return bessel_j(nu, mu * u) ** 2 * u * zv * zv

        res = integrate_adaptive(integrand, a, b, quad_tol, breakpoints=zeros)
        reports.append(_make_report(
            "E2_2", {"T": T, "nu": nu, "n": n},
            res.value, norm * math.log(T), res.error_estimate, t0, ev_hash, lhash))
    return reports


def ratio_trend_nonincreasing(reports: list[VerificationReport]) -> bool:
    """Whether |ratio - 1| is nonincreasing along the given report sequence."""
    errs = [abs(r.ratio - 1.0) for r in reports if r.ratio is not None]
    return all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# the modulated-oscillation envelope table

def envelope_23(table: LadderTable, T: float, nu: float, n: int,
                t_grid) -> list[tuple[float, float, float]]:
    """Rows (t, |J_nu[mu_n(phi_1(t)-T)]| sqrt(phi_1(t)-T), |Z(t)|) for plotting."""
    T = float(T)
    a = table.invert(T)
    b = table.invert(T + 1.0)
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(ts < a - 1e-9) or np.any(ts > b + 1e-9):
        raise DomainError("envelope grid must lie within the preimage of [T, T+1]")
    mu = bessel_zero(nu, n)
    u = np.maximum(table.eval(ts) - T, 0.0)
    env = np.abs(bessel_j(nu, mu * u)) * np.sqrt(u)
    absz = np.abs(table.evaluator.z(ts))
    return [(float(t), float(e), float(z)) for t, e, z in zip(ts, env, absz)]


# ---------------------------------------------------------------------------
# the integral-equation family E2_4..E2_10 and its exact-substitution
# sanity layer

_THEOREM2_EQS = ("E2_4", "E2_5", "E2_6", "E2_7", "E2_8", "E2_9", "E2_10")


def _theorem2_pieces(table: LadderTable, T: float, eq: str, params: dict):
    """(U, rhs_constant, integrand builder, integration route) for one equation id."""
    if eq not in _THEOREM2_EQS:
        raise DomainError(f"unknown equation id {eq!r}")
    n = int(params.get("n", 0))
    if eq in ("E2_4", "E2_5", "E2_6", "E2_7", "E2_9"):
        if not 1 <= n <= 16:
            raise DomainError(f"{eq} requires 1 <= n <= 16")

    if eq == "E2_4":
        nu = float(params.get("nu", 0.0))
        mu = bessel_zero(nu, n)
        const = bessel_norm_sq(nu, n)

        def factor(ts, w):
            u = np.maximum(table.eval(ts) - T, 0.0)
            return bessel_j(nu, mu * u) ** 2 * u * w

        return 1.0, const, factor, "adaptive", (False, False)

    # the U = 2 family, argument u = phi_1(t) - T - 1 in [-1, 1]
    if eq == "E2_5":
        alpha = float(params["alpha"])
        beta = float(params["beta"])
        spec = PolyFamilySpec.jacobi(alpha, beta)
        const = poly_norm_sq(spec, n)
        if alpha == 0.0 and beta == 0.0:
            # weight is identically 1: same integrand and route as E2_6

            def factor(ts, w):
                p = poly_eval(spec, n, table.eval(ts) - (T + 1.0))
                return p * p * w

            return 2.0, const, factor, "adaptive", (False, False)

        def factor(ts, w):
            phi = table.eval(ts)
            d_right = np.maximum((T + 2.0) - phi, 0.0)   # 1 - u
            d_left = np.maximum(phi - T, 0.0)            # 1 + u
            p = poly_eval(spec, n, phi - (T + 1.0))
            return p * p * d_right ** alpha * d_left ** beta * w

        return 2.0, const, factor, "singular", (beta < 0.0, alpha < 0.0)

    if eq == "E2_6":
        spec = PolyFamilySpec.legendre()
        const = poly_norm_sq(spec, n)

        def factor(ts, w):
            p = poly_eval(spec, n, table.eval(ts) - (T + 1.0))
            return p * p * w

        return 2.0, const, factor, "adaptive", (False, False)

    if eq in ("E2_7", "E2_8"):
        const = math.pi / 2.0 if eq == "E2_7" else math.pi

        def factor(ts, w):
            phi = table.eval(ts)
            rad = np.maximum((T + 2.0) - phi, 0.0) * np.maximum(phi - T, 0.0)
            if eq == "E2_7":
                p = poly_eval(PolyFamilySpec.chebyshev_t(), n, phi - (T + 1.0))
                num = p * p * w
            else:
                num = w
            return np.where(rad > 0.0, num / np.sqrt(np.where(rad > 0.0, rad, 1.0)), 0.0)

        return 2.0, const, factor, "singular", (True, True)

    # remaining ids: E2_9 / E2_10, the sqrt(1 - u^2) weight
    const = math.pi / 2.0

    def factor(ts, w):
        phi = table.eval(ts)
        rad = np.maximum((T + 2.0) - phi, 0.0) * np.maximum(phi - T, 0.0)
        if eq == "E2_9":
            p = poly_eval(PolyFamilySpec.chebyshev_u(), n, phi - (T + 1.0))
            num = p * p * w
        else:
            num = w
        return num * np.sqrt(rad)

    return 2.0, const, factor, "singular", (False, False)


def _run_theorem2(table: LadderTable, T: float, eq: str, params: dict,
                  weight: str, quad_tol: float, max_level: int):
    T = float(T)
    U, const, factor, route, flags = _theorem2_pieces(table, T, eq, params)
    check_admissible(T, U)
    ev = table.evaluator
    a = table.invert(T)
    b = table.invert(T + U)

    if weight == "zeta2":
        rhs = const * math.log(T)

        def integrand(ts):
            zv = ev.z(ts)
            return factor(ts, zv * zv)
    else:  # the exact-substitution weight Ztilde^2
        rhs = const

        def integrand(ts):
            return factor(ts, table._ztilde(ts))

    if route == "adaptive":
        res = integrate_adaptive(integrand, a, b, quad_tol,
                                 breakpoints=table.breakpoints(a, b))
    else:
        res = integrate_singular(integrand, a, b, quad_tol, singular=flags,
                                 max_level=max_level)
    return res, rhs, flags


def verify_theorem2(table: LadderTable, T: float, eq: str, params: dict,
                    tol_ratio: float = 0.25, quad_tol: float = 1e-6,
                    max_level: int = 12) -> VerificationReport:
    """One equation of the E2_4..E2_10 family with the |zeta|^2 weight.

    The ladder phi_1 plays the candidate asymptotic solution x(t); the RHS is
    the classical norm constant times ln T.  `tol_ratio` is recorded in the
    params for downstream judgement of |ratio - 1|.
    """
    t0 = time.perf_counter()
    res, rhs, _ = _run_theorem2(table, T, eq, params, "zeta2", quad_tol, max_level)
    rep = _make_report(eq, {**params, "T": float(T), "tol_ratio": tol_ratio},
                       res.value, rhs, res.error_estimate, t0,
                       table.evaluator.config_hash(), table.config_hash())
    return rep


def sanity_theorem2_exact(table: LadderTable, T: float, eq: str, params: dict,
                          quad_tol: float = 1e-8,
                          max_level: int = 12) -> VerificationReport:
    """Same integrals with weight Ztilde^2: the change-of-variables identity
    makes the ratio exactly 1 up to quadrature error, isolating the numeric
    stack from the asymptotic ln-xi ~ ln-T step."""
    t0 = time.perf_counter()
    res, rhs, _ = _run_theorem2(table, T, eq, params, "ztilde2", quad_tol, max_level)
    rep = _make_report(eq, {**params, "T": float(T), "weight": "ztilde2"},
                       res.value, rhs, res.error_estimate, t0,
                       table.evaluator.config_hash(), table.config_hash())
    return rep


def ln_t_placement_shift(ratio: float, T: float, interval: tuple[float, float]) -> float:
    """Worst change of a reported ratio if ln T is replaced by ln xi with xi
    anywhere in the integration interval (consequence of the log-stability
    bound; directly checkable against 2 / ln T)."""
    a, b = interval
    lnT = math.log(T)
    return abs(ratio) * max(abs(lnT / math.log(a) - 1.0), abs(lnT / math.log(b) - 1.0))


# ---------------------------------------------------------------------------
# JSON Lines serialization

REPORT_SCHEMA_VERSION = 1


def report_json_line(report: VerificationReport, include_timings: bool = False) -> str:
    import json
    doc = {"schema": REPORT_SCHEMA_VERSION}
    doc.update(report.to_json_dict(include_timings=include_timings))
    return json.dumps(doc, sort_keys=False, separators=(",", ":"))


def sort_key(report: VerificationReport):
    p = report.params
    return (report.equation_id, p.get("T", 0.0), p.get("nu", -2.0),
            p.get("alpha", -2.0), p.get("beta", -2.0),
            p.get("n", -1), p.get("m", -1))
