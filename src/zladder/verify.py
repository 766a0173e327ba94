"""Verification of the weighted-orthogonality identities.

Three layers, in increasing dependence on asymptotics:

* classical baseline (E1_2): Bessel orthogonality on [0,1] with weight x;
* exactness layer (E1_3, sanity variants of E2_4..E2_10): integrals against
  the weight Ztilde^2 pulled back through the ladder; these reduce to the
  baseline by change of variables and must hold to quadrature accuracy;
* asymptotic layer (E2_2, E2_4..E2_10 with |zeta|^2 weight): the right-hand
  sides carry a factor ln T and hold only as T -> infinity; ratios are
  reported and their error trend is checked across a ladder of T values.

The Bessel families (E1_2 per nu, E1_3 per (T, nu), E2_2 per (T, nu) over
n = 1..max_n) integrate all rows of one window in one
`integrate_adaptive_rows` call: the integrand evaluates the window's shared
factors and J_nu at every zero once per round, then forms each row with the
operations, in the order, that the row's own integrand would use, so every
row keeps the bits of an integral of that row alone.  Each row of such a
group records the elapsed time of the whole group.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .ladder import LadderTable, check_admissible
from .quadrature import integrate_adaptive, integrate_adaptive_rows, integrate_singular
from .specfun import (PolyFamilySpec, bessel_j, bessel_norm_sq, bessel_zero,
                      poly_eval, poly_norm_sq)


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
        # the field order is fixed, so reports are byte-reproducible
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


def _gram_pairs(max_n: int):
    """The unordered pairs (m, n), 1 <= m <= n <= max_n, in report order, and
    their 0-based index arrays."""
    pairs = [(m, n) for m in range(1, max_n + 1) for n in range(m, max_n + 1)]
    mi, ni = (np.array(k) - 1 for k in zip(*pairs))
    return pairs, mi, ni


# ---------------------------------------------------------------------------
# classical Bessel orthogonality baseline (E1_2)

def verify_bessel_baseline(nu: float, max_n: int, tol: float = 1e-9,
                           quad_tol: float = 1e-12) -> list[VerificationReport]:
    """Gram matrix of {J_nu(mu_n x)} under weight x on [0, 1].

    Off-diagonal entries vanish; diagonals equal 0.5 J_{nu+1}(mu_n)^2.
    `tol` is recorded for the caller's judgement; rows are emitted for every
    unordered pair (m, n) with m <= n <= max_n, integrated together.
    """
    if not 1 <= max_n <= 8:
        raise DomainError("verify_bessel_baseline requires 1 <= max_n <= 8")
    mus = np.array([bessel_zero(nu, k) for k in range(1, max_n + 1)])
    pairs, mi, ni = _gram_pairs(max_n)
    t0 = time.perf_counter()

    def integrand(x):
        j = bessel_j(nu, mus[:, None] * x)
        return j[mi] * j[ni] * x

    results = integrate_adaptive_rows(integrand, len(pairs), 0.0, 1.0, quad_tol)
    reports = []
    for (m, n), res in zip(pairs, results):
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

    Emits E1_3 rows for all unordered (m, n), integrated together, plus the
    E1_4 segment-distance row dist([0,1], [phi^-1(T), phi^-1(T+1)]) / T.
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
    mus = np.array([bessel_zero(nu, k) for k in range(1, max_n + 1)])
    pairs, mi, ni = _gram_pairs(max_n)
    t0 = time.perf_counter()

    def integrand(ts):
        u = np.maximum(table.eval(ts) - T, 0.0)
        zt = table.ztilde_sq(ts)
        j = bessel_j(nu, mus[:, None] * u)
        return j[mi] * j[ni] * u * zt

    results = integrate_adaptive_rows(integrand, len(pairs), a, b, quad_tol,
                                      breakpoints=zeros)
    reports = []
    for (m, n), res in zip(pairs, results):
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

def verify_corollary(table: LadderTable, T_list, nu: float, max_n: int,
                     quad_tol: float = 1e-6) -> list[VerificationReport]:
    """The E2_2 integrals: |zeta(1/2+it)|^2-weighted Bessel diagonals against
    0.5 J_{nu+1}(mu_n)^2 ln T for n = 1..max_n, one report per (T, n) (ratio
    -> 1 as T grows); the rows n of one T are integrated together."""
    if not 1 <= max_n <= 64:
        raise DomainError("verify_corollary requires 1 <= max_n <= 64")
    mus = np.array([bessel_zero(nu, n) for n in range(1, max_n + 1)])
    norms = [bessel_norm_sq(nu, n) for n in range(1, max_n + 1)]
    ev_hash = table.evaluator.config_hash()
    lhash = table.config_hash()
    reports = []
    for T in sorted(float(x) for x in np.atleast_1d(np.asarray(T_list, dtype=float))):
        t0 = time.perf_counter()
        a = table.invert(T)
        b = table.invert(T + 1.0)
        zeros = table.breakpoints(a, b)

        def integrand(ts):
            u = np.maximum(table.eval(ts) - T, 0.0)
            zt = table.ztilde_sq(ts)
            return bessel_j(nu, mus[:, None] * u) ** 2 * u * zt * np.log(ts)

        results = integrate_adaptive_rows(integrand, max_n, a, b, quad_tol,
                                          breakpoints=zeros)
        for n, (norm, res) in enumerate(zip(norms, results), start=1):
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

# One row per member: eq -> (polynomial family, Jacobi exponents (alpha, beta)
# of its weight (1 - u)^alpha (1 + u)^beta, or "params" to take them from the
# job, degree rule: "n" from the job in [1, 16], or a fixed degree).  E2_4 is
# the Bessel member on u = phi_1 - T in [0, 1] (U = 1), whose smooth weight u
# sits in its integrand; the others live on u = phi_1 - T - 1 in [-1, 1]
# (U = 2), and E2_8 / E2_10 are the n = 0 rows of Chebyshev T / U.
_THEOREM2_MEMBERS = {
    "E2_4": ("bessel", (0.0, 0.0), "n"),
    "E2_5": ("jacobi", "params", "n"),
    "E2_6": ("legendre", (0.0, 0.0), "n"),
    "E2_7": ("chebyshev_t", (-0.5, -0.5), "n"),
    "E2_8": ("chebyshev_t", (-0.5, -0.5), 0),
    "E2_9": ("chebyshev_u", (0.5, 0.5), "n"),
    "E2_10": ("chebyshev_u", (0.5, 0.5), 0),
}

# members whose weight blows up at the ends of the window; their sanity rows
# are judged against tol_sanity_singular
SINGULAR_WEIGHT_EQS = frozenset(
    eq for eq, (_, ab, _) in _THEOREM2_MEMBERS.items() if ab != "params" and min(ab) < 0.0)


def theorem2_jobs(n_max: int, nu: float, alpha: float, beta: float):
    """(eq, params) for every member, degrees 1..n_max where the member has one."""
    for eq, (family, ab, degree) in _THEOREM2_MEMBERS.items():
        if degree != "n":
            yield eq, {}
            continue
        for n in range(1, n_max + 1):
            if family == "bessel":
                yield eq, {"n": n, "nu": nu}
            elif ab == "params":
                yield eq, {"n": n, "alpha": alpha, "beta": beta}
            else:
                yield eq, {"n": n}


def _theorem2_pieces(table: LadderTable, T: float, eq: str, params: dict):
    """(U, rhs constant, integrand builder, smooth) for one equation id.

    The builder maps (ts, w) to the member's squared function times its
    weight times w.  With Jacobi exponents (0, 0) the integrand is smooth on
    the closed window (GK15 with Z-zero breakpoints); otherwise its weight
    has an endpoint power and it goes to tanh-sinh.
    """
    if eq not in _THEOREM2_MEMBERS:
        raise DomainError(f"unknown equation id {eq!r}")
    family, ab, degree = _THEOREM2_MEMBERS[eq]
    if degree == "n":
        n = int(params.get("n", 0))
        if not 1 <= n <= 16:
            raise DomainError(f"{eq} requires 1 <= n <= 16")
    else:
        n = degree
    alpha, beta = (float(params["alpha"]), float(params["beta"])) if ab == "params" else ab
    smooth = alpha == 0.0 and beta == 0.0

    if family == "bessel":
        nu = float(params.get("nu", 0.0))
        mu = bessel_zero(nu, n)

        def factor(ts, w):
            u = np.maximum(table.eval(ts) - T, 0.0)
            return bessel_j(nu, mu * u) ** 2 * u * w

        return 1.0, bessel_norm_sq(nu, n), factor, smooth

    spec = (PolyFamilySpec.jacobi(alpha, beta) if family == "jacobi"
            else PolyFamilySpec(family))

    # the weight's arithmetic follows the family, not (alpha, beta): the
    # Chebyshev forms take one square root of the product of the distances
    def factor(ts, w):
        phi = table.eval(ts)
        p = poly_eval(spec, n, phi - (T + 1.0))
        if smooth:
            return p * p * w
        d_right = np.maximum((T + 2.0) - phi, 0.0)   # 1 - u
        d_left = np.maximum(phi - T, 0.0)            # 1 + u
        if family == "jacobi":
            return p * p * d_right ** alpha * d_left ** beta * w
        rad = d_right * d_left
        if family == "chebyshev_u":
            return p * p * w * np.sqrt(rad)
        return np.where(rad > 0.0, p * p * w / np.sqrt(np.where(rad > 0.0, rad, 1.0)), 0.0)

    return 2.0, poly_norm_sq(spec, n), factor, smooth


def _run_theorem2(table: LadderTable, T: float, eq: str, params: dict,
                  weight: str, quad_tol: float, max_level: int):
    T = float(T)
    U, const, factor, smooth = _theorem2_pieces(table, T, eq, params)
    check_admissible(T, U)
    # the nearest doubles whose values lie inside [T, T + U], so a weight
    # singular at the window's ends is never evaluated past them
    a = table.invert(T)
    while table.eval(a) < T:
        a = float(np.nextafter(a, math.inf))
    b = table.invert(T + U)
    while table.eval(b) > T + U:
        b = float(np.nextafter(b, -math.inf))

    if weight == "zeta2":   # |zeta|^2 = Z^2 = Ztilde^2 ln t
        rhs = const * math.log(T)

        def integrand(ts):
            return factor(ts, table.ztilde_sq(ts) * np.log(ts))
    else:  # the exact-substitution weight Ztilde^2
        rhs = const

        def integrand(ts):
            return factor(ts, table.ztilde_sq(ts))

    if smooth:
        res = integrate_adaptive(integrand, a, b, quad_tol,
                                 breakpoints=table.breakpoints(a, b))
    else:
        res = integrate_singular(integrand, a, b, quad_tol, max_level=max_level)
    return res, rhs


def verify_theorem2(table: LadderTable, T: float, eq: str, params: dict,
                    tol_ratio: float = 0.25, quad_tol: float = 1e-6,
                    max_level: int = 12) -> VerificationReport:
    """One equation of the E2_4..E2_10 family with the |zeta|^2 weight.

    The ladder phi_1 plays the candidate asymptotic solution x(t); the RHS is
    the classical norm constant times ln T.  `tol_ratio` is recorded in the
    params for downstream judgement of |ratio - 1|.
    """
    t0 = time.perf_counter()
    res, rhs = _run_theorem2(table, T, eq, params, "zeta2", quad_tol, max_level)
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
    res, rhs = _run_theorem2(table, T, eq, params, "ztilde2", quad_tol, max_level)
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
