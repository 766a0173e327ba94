"""Verification of the weighted-orthogonality identities.

Three layers, in increasing dependence on asymptotics:

* classical baseline (E1_2): Bessel orthogonality on [0,1] with weight x;
* exactness layer (E1_3, sanity variants of E2_4..E2_10): integrals against
  the weight Ztilde^2 pulled back through the ladder; these reduce to the
  baseline by change of variables and must hold to quadrature accuracy;
* asymptotic layer (E2_2, E2_4..E2_10 with |zeta|^2 weight): the right-hand
  sides carry a factor ln T and hold only as T -> infinity; ratios are
  reported and their error trend is checked across a ladder of T values.

The ladder families E1_3, E2_2 and E2_4..E2_10 are the entries of one member
table, `LADDER_MEMBERS`, and one executor does their work: it finds the
window (the preimage of [T, T + U]), builds the integrand, makes one rows
call and writes the reports.  E2_4 is E2_2 at one nu (the plan's nu[0]), bit
for bit, and its sanity rows are E1_3's diagonal under the same weight.

Every family integrates the rows of one window in one rows call: E1_2 per
nu, E1_3 and E2_2 per (T, nu), each E2_4..E2_10 member per T over its
degrees (tanh-sinh where its weight is singular, GK15 otherwise).  The
integrand evaluates the window's shared factors and every row's Bessel or
polynomial values once per call, then forms each row with the operations, in
the order, that the row's own integrand would use, so every row keeps the
bits of an integral of that row alone.  Each row of such a group records the
elapsed time of the whole group (`--timings`).

The ladder integrands take J_nu(mu_n u) from the per-(nu, n) Chebyshev
proxies of `specfun.bessel_j_proxy`, all proxied rows in one Clenshaw
recurrence (a (nu, n) whose proxy would lose more than bessel_j's contract
keeps the series); E1_2 and the envelope table keep the direct series of
`bessel_j`, so the classical baseline stays an independent reference.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .ladder import LadderTable, check_admissible
# nothing here calls integrate_adaptive; bench/test_bench.py checks that the
# benchmark tracer patches this module's binding of it
from .quadrature import (integrate_adaptive, integrate_adaptive_rows,  # noqa: F401
                         integrate_singular_rows)
from .specfun import (PolyFamilySpec, bessel_j, bessel_j_proxy, bessel_norm_sq,
                      bessel_zero, poly_eval, poly_norm_sq)


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
# the ladder-weighted Bessel orthogonality system (E1_3) with the
# segment-distance diagnostic (E1_4), and the |zeta|^2-weighted Bessel
# diagonal (E2_2): both are rows of the member table below

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
    reports = _member_reports(table, T, "E1_3", max_n, nu, 0.0, 0.0, quad_tol, False,
                              {"tol": tol})
    t0 = time.perf_counter()
    dist = table.invert(T) - 1.0  # segments [0,1] and [a,b] with a >> 1
    reports.append(_make_report("E1_4", {"T": T, "nu": nu}, dist, T, 0.0, t0,
                                table.evaluator.config_hash(), table.config_hash()))
    return reports


def verify_corollary(table: LadderTable, T_list, nu: float, max_n: int,
                     quad_tol: float = 1e-6) -> list[VerificationReport]:
    """The E2_2 integrals: |zeta(1/2+it)|^2-weighted Bessel diagonals against
    0.5 J_{nu+1}(mu_n)^2 ln T for n = 1..max_n, one report per (T, n) (ratio
    -> 1 as T grows); the rows n of one T are integrated together."""
    Ts = sorted(np.atleast_1d(np.asarray(T_list, dtype=float)).tolist())
    return [r for T in Ts for r in _member_reports(table, T, "E2_2", max_n, nu, 0.0, 0.0,
                                                   quad_tol, True, {})]


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
# the member table of every ladder family: E1_3, E2_2 and the integral-equation
# family E2_4..E2_10 with its exact-substitution sanity layer

# One entry per member: eq -> (function family, Jacobi exponents (alpha, beta)
# of its weight (1 - u)^alpha (1 + u)^beta or "params" to take them from the
# call, degree rule, largest max_n).  The degree rule is "n" for the degrees
# 1..max_n, "pairs" for the unordered (m, n) with m <= n <= max_n (rows
# E1_3_diag and E1_3_offdiag), or a fixed degree.  The Bessel members live on
# u = phi_1 - T in [0, 1] (U = 1), with their smooth weight u in the
# integrand: E1_3 is the Gram system under Ztilde^2, E2_2 the diagonal under
# |zeta|^2, and E2_4 is E2_2 at one nu (the plan's nu[0]) in either layer.
# The others live on u = phi_1 - T - 1 in [-1, 1] (U = 2), and E2_8 / E2_10
# are the n = 0 rows of Chebyshev T / U.  The caller picks the weight.
LADDER_MEMBERS = {
    "E1_3": ("bessel", (0.0, 0.0), "pairs", 16),
    "E2_2": ("bessel", (0.0, 0.0), "n", 64),
    "E2_4": ("bessel", (0.0, 0.0), "n", 16),
    "E2_5": ("jacobi", "params", "n", 16),
    "E2_6": ("legendre", (0.0, 0.0), "n", 16),
    "E2_7": ("chebyshev_t", (-0.5, -0.5), "n", 16),
    "E2_8": ("chebyshev_t", (-0.5, -0.5), 0, 16),
    "E2_9": ("chebyshev_u", (0.5, 0.5), "n", 16),
    "E2_10": ("chebyshev_u", (0.5, 0.5), 0, 16),
}

# the integral-equation family, which `verify_theorem2` and
# `sanity_theorem2_exact` take
THEOREM2_MEMBERS = {eq: m for eq, m in LADDER_MEMBERS.items() if eq not in ("E1_3", "E2_2")}

# members whose weight blows up at the ends of the window; their sanity rows
# are judged against tol_sanity_singular
SINGULAR_WEIGHT_EQS = frozenset(
    eq for eq, (_, ab, *_) in THEOREM2_MEMBERS.items() if ab != "params" and min(ab) < 0.0)


def _member_pieces(table: LadderTable, T: float, eq: str, max_n: int,
                   nu: float, alpha: float, beta: float):
    """(U, rows, integrand builder, smooth) for one member at T.

    `rows` holds one (equation id, params, rhs constant) per degree or pair.
    The builder maps (ts, w) to the array (rows, len(ts)) of each row's
    product of functions times its weight times w, each row formed with the
    operations, in the order, of an integrand of that row alone.  With
    Jacobi exponents (0, 0) the integrand is smooth on the closed window
    (GK15 with Z-zero breakpoints); otherwise its weight has an endpoint
    power and it goes to tanh-sinh.
    """
    family, ab, rule, cap = LADDER_MEMBERS[eq]
    if not 1 <= max_n <= cap:
        raise DomainError(f"{eq} requires 1 <= max_n <= {cap}")
    degrees = [rule] if isinstance(rule, int) else range(1, max_n + 1)
    if rule == "pairs":
        pairs, mi, ni = _gram_pairs(max_n)
    else:   # row k is degree k's square
        mi = ni = np.arange(len(degrees))
    if ab == "params":
        ab, extra = (float(alpha), float(beta)), {"alpha": alpha, "beta": beta}
    else:
        extra = {"nu": nu} if family == "bessel" else {}
    smooth = ab == (0.0, 0.0)

    if family == "bessel":
        U = 1.0
        bessel_rows = bessel_j_proxy(nu, degrees)
        norms = [bessel_norm_sq(nu, n) for n in degrees]
    else:
        U = 2.0
        spec = PolyFamilySpec.jacobi(*ab) if family == "jacobi" else PolyFamilySpec(family)
        norms = [poly_norm_sq(spec, n) for n in degrees]

    # the weight's arithmetic follows the family, not (alpha, beta): the
    # Chebyshev forms take one square root of the product of the distances
    def factor(ts, w):
        phi = table.eval(ts)
        if family == "bessel":
            u = np.maximum(phi - T, 0.0)
            j = bessel_rows(u)
            return j[mi] * j[ni] * u * w
        p = np.stack([poly_eval(spec, n, phi - (T + 1.0)) for n in degrees])
        pp = p[mi] * p[ni]
        if smooth:
            return pp * w
        d_right = np.maximum((T + 2.0) - phi, 0.0)   # 1 - u
        d_left = np.maximum(phi - T, 0.0)            # 1 + u
        if family == "jacobi":
            return pp * d_right ** ab[0] * d_left ** ab[1] * w
        rad = d_right * d_left
        if family == "chebyshev_u":
            return pp * w * np.sqrt(rad)
        return np.where(rad > 0.0, pp * w / np.sqrt(np.where(rad > 0.0, rad, 1.0)), 0.0)

    if rule == "pairs":
        rows = [(f"{eq}_diag", {"m": m, "n": n, **extra}, norms[n - 1]) if m == n
                else (f"{eq}_offdiag", {"m": m, "n": n, **extra}, 0.0) for m, n in pairs]
    elif rule == "n":
        rows = [(eq, {"n": n, **extra}, c) for n, c in zip(degrees, norms)]
    else:
        rows = [(eq, {}, norms[0])]
    return U, rows, factor, smooth


def _member_reports(table: LadderTable, T: float, eq: str, max_n: int, nu: float,
                    alpha: float, beta: float, quad_tol: float, zeta2: bool,
                    extra: dict):
    """The reports of one member at T, its rows integrated together over the
    preimage of [T, T + U], with the |zeta|^2 weight or (not zeta2) with
    Ztilde^2; `extra` goes into every row's params."""
    t0 = time.perf_counter()
    T = float(T)
    U, rows, factor, smooth = _member_pieces(table, T, eq, max_n, nu, alpha, beta)
    check_admissible(T, U)
    a = table.invert(T)
    b = table.invert(T + U)

    def integrand(ts):
        w = table.ztilde_sq(ts)
        return factor(ts, w * np.log(ts) if zeta2 else w)   # |zeta|^2 = Ztilde^2 ln t

    if smooth:
        results = integrate_adaptive_rows(integrand, len(rows), a, b, quad_tol,
                                          breakpoints=table.breakpoints(a, b))
    else:
        # the nearest doubles whose values lie inside [T, T + U], so a weight
        # singular at the window's ends is never evaluated past them
        while table.eval(a) < T:
            a = float(np.nextafter(a, math.inf))
        while table.eval(b) > T + U:
            b = float(np.nextafter(b, -math.inf))
        results = integrate_singular_rows(integrand, len(rows), a, b, quad_tol)
    ev_hash = table.evaluator.config_hash()
    lhash = table.config_hash()
    return [_make_report(row_eq, {**params, "T": T, **extra}, res.value,
                         const * math.log(T) if zeta2 else const, res.error_estimate,
                         t0, ev_hash, lhash)
            for (row_eq, params, const), res in zip(rows, results)]


def _theorem2_reports(table: LadderTable, T: float, eq: str, *args):
    if eq not in THEOREM2_MEMBERS:
        raise DomainError(f"unknown equation id {eq!r}")
    return _member_reports(table, T, eq, *args)


def verify_theorem2(table: LadderTable, T: float, eq: str, max_n: int,
                    nu: float = 0.0, alpha: float = 0.5, beta: float = 0.5,
                    tol_ratio: float = 0.25,
                    quad_tol: float = 1e-6) -> list[VerificationReport]:
    """One member of the E2_4..E2_10 family with the |zeta|^2 weight, one
    report per degree (1..max_n, or the member's fixed degree).

    The ladder phi_1 plays the candidate asymptotic solution x(t); the RHS is
    the classical norm constant times ln T.  `nu` is E2_4's Bessel order and
    (alpha, beta) E2_5's Jacobi exponents.  `tol_ratio` is recorded in the
    params for downstream judgement of |ratio - 1|.
    """
    return _theorem2_reports(table, T, eq, max_n, nu, alpha, beta, quad_tol, True,
                             {"tol_ratio": tol_ratio})


def sanity_theorem2_exact(table: LadderTable, T: float, eq: str, max_n: int,
                          nu: float = 0.0, alpha: float = 0.5, beta: float = 0.5,
                          quad_tol: float = 1e-8) -> list[VerificationReport]:
    """Same integrals with weight Ztilde^2: the change-of-variables identity
    makes the ratio exactly 1 up to quadrature error, isolating the numeric
    stack from the asymptotic ln-xi ~ ln-T step."""
    return _theorem2_reports(table, T, eq, max_n, nu, alpha, beta, quad_tol, False,
                             {"weight": "ztilde2"})


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
