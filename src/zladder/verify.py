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
table, `LADDER_MEMBERS`, and one window executor, `ladder_reports`, does
their work with one rule, GK15 (`integrate_adaptive_rows`).  It takes row
sets (`RowSet`: one member's rows at one T in one layer, with their own
quadrature tolerance) of any number of families, checks all their
arguments, then groups them by their window, (T, U, m): the preimage of
[T, T + U] as ladder panel pieces, the end pieces mapped by tau^m so that
an endpoint weight (1 -+ u)^gamma is bounded, and u summed from the
window's own ends (`_Window`).  Each group makes one rows call whose
integrand evaluates the rises, Ztilde^2 and ln t once per node and the
Bessel rows once per nu, then forms every row as the row's own integrand
would, so it keeps the bits of that row's integral alone.  A plan
hands the executor the sets of every family of `FAMILIES` (`family_sets`)
at once; each public family function is the executor run on that family's
sets alone, `is_sanity` tells the sanity rows apart, and `sort_key` orders
any mix of their reports totally.  E2_4 is E2_2 at one nu (the plan's
nu[0]), bit for bit, and its sanity rows are E1_3's diagonal.  E1_2
integrates its rows per nu in one rows call as well; each row records the
elapsed time of its whole group (`--timings`).

The ladder integrands take J_nu(mu_n u) from the per-(nu, n) Chebyshev
proxies of `specfun.bessel_j_proxy` (a (nu, n) whose proxy would lose more
than bessel_j's contract keeps the series); E1_2 and the envelope table keep
the direct series of `bessel_j`, an independent reference.  The Bessel
families take nu >= -1/2 (`check_bessel_order`: below it u J_nu(mu u)^2 is
unbounded at u = 0), E2_5 alpha, beta >= -0.99 (`_MAX_POWER`) whose degree-16
rows stay finite (`_MAX_WEIGHT_BITS`), the one beside a negative one at most
20 (`_MAX_BESIDE_NEGATIVE`); a node at distance 0 from a window end
adds 0 to a Bessel row and to a row whose weight has a negative power of it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import DomainError
from .ladder import LadderTable, check_admissible
# nothing here calls integrate_adaptive; bench/test_bench.py checks that the
# benchmark tracer patches this module's binding of it
from .quadrature import integrate_adaptive, integrate_adaptive_rows  # noqa: F401
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


def _make_report(eq, params, lhs, rhs, qerr, elapsed, ev_hash, ladder_hash=None):
    return VerificationReport(
        equation_id=eq, params=params, lhs=float(lhs), rhs=float(rhs),
        ratio=(float(lhs) / float(rhs)) if rhs != 0.0 else None,
        abs_error=abs(float(lhs) - float(rhs)), quadrature_error=float(qerr),
        elapsed=elapsed, evaluator_hash=ev_hash,
        ladder_hash=ladder_hash)


def _gram_pairs(max_n: int):
    """The unordered pairs (m, n), 1 <= m <= n <= max_n, in report order, and
    their 0-based index arrays."""
    pairs = [(m, n) for m in range(1, max_n + 1) for n in range(m, max_n + 1)]
    mi, ni = (np.array(k) - 1 for k in zip(*pairs))
    return pairs, mi, ni


def check_bessel_order(*nus: float) -> None:
    """Refuse an order the Bessel families do not hold at: below nu = -1/2,
    u J_nu(mu u)^2 is unbounded at u = 0 and no quadrature of theirs ends."""
    for nu in nus:
        if not nu >= -0.5:   # NaN fails
            raise DomainError(f"the Bessel families require nu >= -0.5 (u J_nu(mu u)^2 "
                              f"is unbounded at u = 0 below it), got nu = {nu}")


def _off_zero(u: np.ndarray) -> np.ndarray:
    """u with its zeros set to its largest value (1 if all are 0): J_nu is finite
    there, and a batch of J's series takes the terms it took before."""
    return np.where(u > 0.0, u, u.max() or 1.0)


# ---------------------------------------------------------------------------
# classical Bessel orthogonality baseline (E1_2)

def verify_bessel_baseline(nu: float, max_n: int, tol: float = 1e-9) -> list[VerificationReport]:
    """Gram matrix of {J_nu(mu_n x)} under weight x on [0, 1].

    Off-diagonal entries vanish; diagonals equal 0.5 J_{nu+1}(mu_n)^2.
    `tol` is recorded for the caller's judgement; rows are emitted for every
    unordered pair (m, n) with m <= n <= max_n, integrated together to
    `BASELINE_QUAD_TOL`.
    """
    if not 1 <= max_n <= 8:
        raise DomainError("verify_bessel_baseline requires 1 <= max_n <= 8")
    check_bessel_order(nu)
    mus = np.array([bessel_zero(nu, k) for k in range(1, max_n + 1)])
    pairs, mi, ni = _gram_pairs(max_n)
    t0 = time.perf_counter()
    # x = s^2 unless 2 nu is an integer: x^(1 + 2 nu) at 0 defeats GK15's error estimate
    p = 1 if (2.0 * nu).is_integer() else 2

    def integrand(s):
        x = s ** p
        j = bessel_j(nu, mus[:, None] * x)
        return j[mi] * j[ni] * x * (p * s ** (p - 1))

    results = integrate_adaptive_rows(integrand, len(pairs), 0.0, 1.0, BASELINE_QUAD_TOL)
    elapsed = time.perf_counter() - t0
    reports = []
    for (m, n), res in zip(pairs, results):
        rhs = bessel_norm_sq(nu, n) if m == n else 0.0
        reports.append(_make_report(
            "E1_2", {"nu": nu, "m": m, "n": n, "tol": tol},
            res.value, rhs, res.error_estimate, elapsed, "classical"))
    return reports


# ---------------------------------------------------------------------------
# the modulated-oscillation envelope table

def envelope_23(table: LadderTable, T: float, nu: float, n: int,
                t_grid) -> list[tuple[float, float, float]]:
    """Rows (t, |J_nu[mu_n(phi_1(t)-T)]| sqrt(phi_1(t)-T), |Z(t)|) for plotting;
    at phi_1(t) <= T, the limit: sqrt(2 / (pi mu_n)) at nu = -1/2, else 0."""
    check_bessel_order(nu)
    T = float(T)
    a = table.invert(T)
    b = table.invert(T + 1.0)
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(ts < a - 1e-9) or np.any(ts > b + 1e-9):
        raise DomainError("envelope grid must lie within the preimage of [T, T+1]")
    mu = bessel_zero(nu, n)
    u = np.maximum(table.eval(ts) - T, 0.0)
    env = np.where(u > 0.0, np.abs(bessel_j(nu, mu * _off_zero(u))) * np.sqrt(u),
                   math.sqrt(2.0 / (math.pi * mu)) if nu == -0.5 else 0.0)
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

# the integral-equation family, the members of theorem2 and sanity
THEOREM2_MEMBERS = {eq: m for eq, m in LADDER_MEMBERS.items() if eq not in ("E1_3", "E2_2")}


# The plan families of ladder rows (the plan's "baseline", E1_2, needs no
# ladder): family -> (members, the zeta2 and quad_tol of their RowSets,
# every_nu: at every nu of the plan or only the first, the params their rows
# record, with defaults).  theorem1 is E1_3 with its segment-distance row E1_4,
# corollary E2_2, and theorem2 and sanity the integral-equation family in
# either layer; the weight param marks the sanity rows (`is_sanity`).
FAMILIES = {
    "theorem1": (("E1_3",), False, 1e-9, True, {"tol": 1e-4}),
    "corollary": (("E2_2",), True, 1e-6, True, {}),
    "theorem2": (tuple(THEOREM2_MEMBERS), True, 1e-6, False, {"tol_ratio": 0.25}),
    "sanity": (tuple(THEOREM2_MEMBERS), False, 1e-8, False, {"weight": "ztilde2"}),
}
BASELINE_QUAD_TOL = 1e-12   # E1_2's, the plan's one family without a ladder


@dataclass
class RowSet:
    """One member's rows at one T in one layer, as `ladder_reports` takes them.

    `eq` is a key of LADDER_MEMBERS with degrees 1..max_n (or its fixed
    degree); `nu` is the Bessel order and (alpha, beta) the Jacobi exponents
    where the member takes them.  The weight is |zeta|^2 if `zeta2` (the
    asymptotic layer), else Ztilde^2 (the exactness layer); every row is
    integrated to `quad_tol`, and `extra` goes into every row's params.  An
    E1_3 set also writes its E1_4 segment-distance row.
    """

    eq: str
    T: float
    max_n: int
    nu: float = 0.0
    alpha: float = 0.5
    beta: float = 0.5
    quad_tol: float = 1e-6
    zeta2: bool = True
    extra: dict = field(default_factory=dict)


def family_sets(family: str, T_list, nu_list, max_n: int, *, alpha: float = 0.5,
                beta: float = 0.5, eqs=None, **recorded) -> list[RowSet]:
    """The row sets of one family of FAMILIES: one per T (ascending), nu and
    member (all, or those of `eqs`).  `recorded` sets the params the family
    records (tol of theorem1, tol_ratio of theorem2) and is ignored
    otherwise; `ladder_reports` checks the rest."""
    if family not in FAMILIES:
        raise DomainError(f"unknown plan family {family!r}")
    members, zeta2, quad_tol, every_nu, params = FAMILIES[family]
    for eq in eqs or ():
        if eq not in members:
            raise DomainError(f"unknown equation id {eq!r}")
    Ts = sorted(float(T) for T in T_list)
    if "E1_3" in members and not all(T >= 1e3 for T in Ts):   # NaN fails
        raise DomainError("theorem1 requires T >= 1e3 (working range)")
    nus = nu_list if every_nu else nu_list[:1]
    if any(LADDER_MEMBERS[eq][0] == "bessel" for eq in eqs or members):
        check_bessel_order(*nus)
    extra = {k: recorded.get(k, v) for k, v in params.items()}
    return [RowSet(eq, T, max_n, nu, alpha, beta, quad_tol, zeta2, extra)
            for T in Ts for nu in nus for eq in (eqs or members)]


def is_sanity(params: dict) -> bool:
    """Whether a row with these params is an exact-substitution (sanity) row,
    which `cli` judges at tol_exact, as it judges every exactness row, and
    `zladder report` lists as E2_x/sanity."""
    return params.get("weight") == "ztilde2"


# The largest power of the end map, for Jacobi exponents >= -0.99: tau^100 at
# GK15's first node is ~1e-237, and past it tau^m leaves the double range.
_MAX_POWER = 100
# The largest exponents: a row's factor forms P^2 (1 - u)^alpha first, at u = -1
# binom(16 + beta, 16)^2 2^alpha for degree 16 (at u = 1 alpha and beta swap),
# kept below 2^1016, 2^8 under the double range: alpha < 1011.59 at beta = 0.5.
_MAX_WEIGHT_BITS = 1016
# The largest exponent beside a negative one.  Past it the rows' mass sits in
# the mapped end piece next to the singular end, where the integrand is large
# and carries ~1e-12 of relative rounding (the Jacobi recurrence): GK15 can
# neither meet the row's tolerance there nor reach its roundoff floor, so it
# refines until its panel budget runs out, or the product overflows.  On the
# plan ladder at degree 16 the limit was 21.4 at -0.99, 22.6 at -0.9 and 158
# at -0.75; (-0.99, 100) ran 91 s to exit 70, and (1011, -0.5) overflowed.
_MAX_BESIDE_NEGATIVE = 20.0


class _Window:
    """The preimage of [T, T + U] as pieces of ladder panels, each in its
    panel's own coordinate x, laid end to end in one coordinate s: piece i
    holds s in [i, i + 1] with tau = s - i, or i + 1 - s on the right end's
    piece, so tau = 0 at a window end.  An end piece is x = x_end +- w tau^m
    (m from `_Member`), a whole panel inside x = -1 + 2 tau.  The left end
    is `table.locate(T)`, the right end where the rises from it reach U.
    1 + u (u for U = 1) sums the rises from the left end to a node, 1 - u
    those from the node to the right end: no checkpoint value and no
    phi_1 - T enters.  A node's rise from its piece's nearer edge is its
    exact offset there (from tau, not the rounded x) times the mean slope
    (`LadderTable.slopes`), so a power of a distance stays smooth in tau.
    """

    def __init__(self, table: LadderTable, left: tuple[int, float], U: float, m: float):
        self.table = table
        rise = lambda k, lo, hi: (hi - lo) * table.slopes(k, lo, hi)[1]   # noqa: E731
        k, xa = left
        last, x0, before, reach = len(table.edges) - 2, xa, 0.0, rise(k, xa, 1.0)
        while reach < U and k < last:
            k, x0, before = k + 1, -1.0, reach
            reach += rise(k, -1.0, 1.0)
        xb = table.solve_rise(k, x0, U - before)
        if k == left[0]:   # one panel: split at its middle, so each end has its piece
            c = 0.5 * (xa + xb)
            pieces = [(k, xa, c, m, False), (k, c, xb, m, True)]
        else:
            pieces = ([(left[0], xa, 1.0, m, False)]
                      + [(j, -1.0, 1.0, 1, False) for j in range(left[0] + 1, k)]
                      + [(k, -1.0, xb, m, True)])
        panel, self.x_lo, self.x_hi, self.power, self.rev = (np.array(c) for c in zip(*pieces))
        self.panel, self.w = panel.astype(np.intp), self.x_hi - self.x_lo
        self.piece_rise = np.array([rise(*p[:3]) for p in pieces])
        # the rises from the left end to each piece, and from each to the right end
        self.lead = np.concatenate([[0.0], np.cumsum(self.piece_rise[:-1])])
        self.tail = np.concatenate([np.cumsum(self.piece_rise[:0:-1])[::-1], [0.0]])
        self.span, self.breaks = float(len(pieces)), np.arange(1.0, len(pieces))

    def at(self, s: np.ndarray):
        """At the points s: 1 + u and 1 - u (u and 1 - u for U = 1), each at
        least 0, t, and d(phi_1)/ds, which is Ztilde^2 dt/ds."""
        i = np.minimum(s.astype(np.intp), len(self.panel) - 1)
        rev, m, w, x_lo, x_hi = self.rev[i], self.power[i], self.w[i], self.x_lo[i], self.x_hi[i]
        tau = np.where(rev, (i + 1) - s, s - i)
        with np.errstate(divide="ignore"):   # 1 - tau^m without cancellation; 1 at tau = 0
            q, qbar = tau ** m, -np.expm1(m * np.log1p(tau - 1.0))
        d_lo, d_hi = w * np.where(rev, qbar, q), w * np.where(rev, q, qbar)
        lo_near = d_lo <= d_hi
        x = np.where(lo_near, x_lo + d_lo, x_hi - d_hi)
        t, mean, slope = self.table.slopes(self.panel[i], np.where(lo_near, x_lo, x_hi), x)
        near = np.where(lo_near, d_lo, d_hi) * mean
        far = self.piece_rise[i] - near
        d_left = self.lead[i] + np.where(lo_near, near, far)
        d_right = self.tail[i] + np.where(lo_near, far, near)
        return (np.maximum(d_left, 0.0), np.maximum(d_right, 0.0), t,
                slope * (m * w * tau ** (m - 1)))


class _Nodes:
    """The values that the members of one window group share at one batch of
    nodes s (`_Window.at`), each computed once.  `bessel(nu)` holds the rows
    1..N of J_nu(mu_n u) for the run's largest degree N at nu."""

    def __init__(self, window: _Window, s: np.ndarray, proxies: dict):
        self.d_left, self.d_right, t, self.ztilde2 = window.at(s)
        self.zeta2 = self.ztilde2 * np.log(t)   # |zeta|^2 = Ztilde^2 ln t
        self.proxies, self._bessel, self._poly = proxies, {}, {}

    def bessel(self, nu: float) -> np.ndarray:
        j = self._bessel.get(nu)
        if j is None:
            j = self._bessel[nu] = self.proxies[nu](_off_zero(self.d_left))
        return j

    def poly(self, spec: PolyFamilySpec, n: int) -> np.ndarray:
        p = self._poly.get((spec, n))
        if p is None:
            p = self._poly[(spec, n)] = poly_eval(spec, n, 0.5 * (self.d_left - self.d_right))
        return p


class _Member(NamedTuple):
    U: float
    rows: list
    factor: Callable
    m: float


def _member_pieces(s: RowSet) -> _Member:
    """(U, rows, factor, m) for one row set.

    `rows` holds one (equation id, params, rhs constant) per degree or pair.
    `factor(nodes, w)` maps a batch's shared values (`_Nodes`) and the
    weight w there to the array (rows, len(s)) of each row's product of
    functions times its weight times w, each row formed with the operations,
    in the order, of an integrand of that row alone.  m, the power of the
    window's end map, is ceil(2 (1 + gamma)) / (1 + gamma) with gamma the
    member's smallest Jacobi exponent: dist^gamma d(dist)/dtau is then
    tau^(m (1 + gamma) - 1), an integer power of at least 1, so GK15 takes
    every member, smooth or not, with no cusp at that end.  m is exactly 2
    wherever 2 (1 + gamma) is an integer, as for every fixed member.
    """
    eq, max_n, nu = s.eq, s.max_n, s.nu
    if eq not in LADDER_MEMBERS:
        raise DomainError(f"unknown equation id {eq!r}")
    family, ab, rule, cap = LADDER_MEMBERS[eq]
    if not 1 <= max_n <= cap:
        raise DomainError(f"{eq} requires 1 <= max_n <= {cap}")
    degrees = [rule] if isinstance(rule, int) else range(1, max_n + 1)
    if rule == "pairs":
        pairs, mi, ni = _gram_pairs(max_n)
    else:   # row k is degree k's square
        mi = ni = np.arange(len(degrees))
    if ab == "params":
        ab, extra = (float(s.alpha), float(s.beta)), {"alpha": s.alpha, "beta": s.beta}
    else:
        extra = {"nu": nu} if family == "bessel" else {}
    smooth = ab == (0.0, 0.0)

    if family == "bessel":
        check_bessel_order(nu)
        U = 1.0
        mu = bessel_zero(nu, max_n)
        if mu > 200.0:
            raise DomainError(f"{eq} at nu = {nu} with max_n = {max_n}: mu_{max_n} = {mu!r} "
                              f"lies past bessel_j's domain x <= 200")
    else:
        U = 2.0
        spec = PolyFamilySpec.jacobi(*ab) if family == "jacobi" else PolyFamilySpec(family)
    for far, near in (ab, ab[::-1]):
        bits = far + 2.0 * sum(math.log2((near + k) / k) for k in range(1, 17))
        if not bits < _MAX_WEIGHT_BITS:
            raise DomainError(f"{eq} at (alpha, beta) = ({ab[0]}, {ab[1]}): a degree-16 row "
                              f"reaches 2^{bits:.6g} at a window end, past 2^{_MAX_WEIGHT_BITS}")
    if min(ab) < 0.0 and max(ab) > _MAX_BESIDE_NEGATIVE:
        raise DomainError(f"{eq} at (alpha, beta) = ({ab[0]}, {ab[1]}): beside a negative "
                          f"exponent the other must be at most {_MAX_BESIDE_NEGATIVE:g}")
    # m (1 + gamma) is the integer ceil(2 (1 + gamma)), the 1e-9 keeping a
    # rounded 2 (1 + gamma) = 1.0000000000000002 at 1
    power = math.ceil(2.0 * (1.0 + min(ab)) - 1e-9) / (1.0 + min(ab))
    if power > _MAX_POWER:
        raise DomainError(f"{eq} requires alpha, beta >= -0.99, got ({ab[0]}, {ab[1]}): the "
                          f"end map's tau^{power} would leave the double range")
    norms = [bessel_norm_sq(nu, n) if family == "bessel" else poly_norm_sq(spec, n)
             for n in degrees]

    # A node at distance 0 from a window end gets 0: the limit of u J_nu(mu u)^2
    # for nu > -1/2, and where a negative power would be inf.  The weight's
    # arithmetic follows the family: the Chebyshev forms take one square root.
    def factor(nodes, w):
        d_left = nodes.d_left
        if family == "bessel":
            j = nodes.bessel(nu)   # row k is degree k + 1
            return np.where(d_left > 0.0, j[mi] * j[ni] * d_left * w, 0.0)
        p = np.stack([nodes.poly(spec, n) for n in degrees])
        pp = p[mi] * p[ni]
        if smooth:
            return pp * w
        d_right = nodes.d_right
        rad = d_right * d_left
        if family == "chebyshev_u":
            return pp * w * np.sqrt(rad)
        inside = rad > 0.0
        if family == "jacobi":
            return np.where(inside, pp * np.where(inside, d_right, 1.0) ** ab[0]
                            * np.where(inside, d_left, 1.0) ** ab[1] * w, 0.0)
        return np.where(inside, pp * w / np.sqrt(np.where(inside, rad, 1.0)), 0.0)

    if rule == "pairs":
        rows = [(f"{eq}_diag", {"m": m, "n": n, **extra}, norms[n - 1]) if m == n
                else (f"{eq}_offdiag", {"m": m, "n": n, **extra}, 0.0) for m, n in pairs]
    elif rule == "n":
        rows = [(eq, {"n": n, **extra}, c) for n, c in zip(degrees, norms)]
    else:
        rows = [(eq, {}, norms[0])]
    return _Member(U, rows, factor, power)


def ladder_reports(table: LadderTable, sets: list[RowSet]) -> list[VerificationReport]:
    """The reports of the row sets, set by set in the order given: the one
    executor of the ladder families.

    Every set's arguments are checked first, its window [T, T + U] inside
    [phi_lo, phi_hi] among them, so an argument error is raised before any
    integration starts.  The sets are then grouped by the window they
    share, (T, U, m) (`_Window`), each T's left end located once.  Each
    group makes one rows call of GK15 over its window's pieces, with the
    Bessel proxies built once per nu for the whole run; every row keeps its
    set's quad_tol and the bits of an integral of that row alone, and
    records its group's elapsed time.
    """
    members = []
    for s in sets:
        if not s.quad_tol > 0.0:   # NaN is not
            raise DomainError("tolerance must be positive")
        members.append(_member_pieces(s))
        U = members[-1].U
        check_admissible(s.T, U)
        if not (table.phi_lo <= s.T and s.T + U <= table.phi_hi):   # NaN fails
            raise DomainError(
                f"plan T = {s.T} outside ladder range: need phi_lo <= T and "
                f"T + {U:g} <= phi_hi, have [{table.phi_lo!r}, {table.phi_hi!r}]")
    groups: dict[tuple, list[int]] = {}
    for i, (s, m) in enumerate(zip(sets, members)):
        groups.setdefault((s.T, m.U, m.m), []).append(i)
    # the Bessel rows 1..N at each nu, N the largest degree of the run there
    top: dict = {}
    for s, m in zip(sets, members):
        if m.U == 1.0:   # the Bessel members
            top[s.nu] = max(top.get(s.nu, 0), s.max_n)
    proxies = {nu: bessel_j_proxy(nu, range(1, n + 1)) for nu, n in top.items()}
    lefts = {T: table.locate(T) for T in dict.fromkeys(T for T, _, _ in groups)}
    inverse: dict[float, float] = {}   # phi_1^{-1}(T) as a double t, for E1_4

    ev_hash, lhash = table.evaluator.config_hash(), table.config_hash()
    out: list[list[VerificationReport]] = [[] for _ in sets]
    for (T, U, m), idx in groups.items():
        t0 = time.perf_counter()
        window = _Window(table, lefts[T], U, m)

        def integrand(s):
            nodes = _Nodes(window, s, proxies)
            return np.concatenate([members[i].factor(nodes, nodes.zeta2 if sets[i].zeta2
                                                     else nodes.ztilde2) for i in idx])

        tols = [sets[i].quad_tol for i in idx for _ in members[i].rows]
        results = iter(integrate_adaptive_rows(integrand, len(tols), 0.0, window.span, tols,
                                               breakpoints=window.breaks))
        elapsed = time.perf_counter() - t0
        for i in idx:
            s = sets[i]
            out[i] = [_make_report(row_eq, {**params, "T": T, **s.extra}, res.value,
                                   const * math.log(T) if s.zeta2 else const,
                                   res.error_estimate, elapsed, ev_hash, lhash)
                      for (row_eq, params, const), res in zip(members[i].rows, results)]
            if s.eq == "E1_3":   # segments [0, 1] and [a, b] with a >> 1
                if T not in inverse:
                    inverse[T] = table.invert(T)
                out[i].append(_make_report("E1_4", {"T": T, "nu": s.nu}, inverse[T] - 1.0,
                                           T, 0.0, elapsed, ev_hash, lhash))
    return [r for reports in out for r in reports]


def verify_theorem1(table: LadderTable, T: float, nu: float, max_n: int,
                    tol: float = 1e-4) -> list[VerificationReport]:
    """Weighted orthogonality of J_nu(mu_n (phi_1(t) - T)) on the preimage
    of [T, T+1] under the weight (phi_1(t) - T) Ztilde^2(t).

    Emits E1_3 rows for all unordered (m, n), integrated together, plus the
    E1_4 segment-distance row dist([0,1], [phi^-1(T), phi^-1(T+1)]) / T.
    """
    return ladder_reports(table, family_sets("theorem1", [T], [nu], max_n, tol=tol))


def verify_corollary(table: LadderTable, T_list, nu: float, max_n: int) -> list[VerificationReport]:
    """The E2_2 integrals: |zeta(1/2+it)|^2-weighted Bessel diagonals against
    0.5 J_{nu+1}(mu_n)^2 ln T for n = 1..max_n, one report per (T, n) (ratio
    -> 1 as T grows); the rows n of one T are integrated together."""
    return ladder_reports(table, family_sets("corollary", T_list, [nu], max_n))


def verify_theorem2(table: LadderTable, T: float, eq: str, max_n: int,
                    nu: float = 0.0, alpha: float = 0.5, beta: float = 0.5,
                    tol_ratio: float = 0.25) -> list[VerificationReport]:
    """One member of the E2_4..E2_10 family with the |zeta|^2 weight, one
    report per degree (1..max_n, or the member's fixed degree).

    The ladder phi_1 plays the candidate asymptotic solution x(t); the RHS is
    the classical norm constant times ln T.  `nu` is E2_4's Bessel order and
    (alpha, beta) E2_5's Jacobi exponents.  `tol_ratio` is recorded in the
    params for downstream judgement of |ratio - 1|.
    """
    return ladder_reports(table, family_sets("theorem2", [T], [nu], max_n, alpha=alpha,
                                             beta=beta, eqs=[eq], tol_ratio=tol_ratio))


def sanity_theorem2_exact(table: LadderTable, T: float, eq: str, max_n: int,
                          nu: float = 0.0, alpha: float = 0.5,
                          beta: float = 0.5) -> list[VerificationReport]:
    """Same integrals with weight Ztilde^2: the change-of-variables identity
    makes the ratio exactly 1 up to quadrature error, isolating the numeric
    stack from the asymptotic ln-xi ~ ln-T step."""
    return ladder_reports(table, family_sets("sanity", [T], [nu], max_n, alpha=alpha,
                                             beta=beta, eqs=[eq]))


def ratio_trend_nonincreasing(reports: list[VerificationReport]) -> bool:
    """Whether |ratio - 1| is nonincreasing along the given report sequence."""
    errs = [abs(r.ratio - 1.0) for r in reports if r.ratio is not None]
    return all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# JSON Lines serialization

REPORT_SCHEMA_VERSION = 1


def report_json_line(report: VerificationReport, include_timings: bool = False) -> str:
    import json
    # the field order is fixed, so reports are byte-reproducible
    doc = {
        "schema": REPORT_SCHEMA_VERSION,
        "equation_id": report.equation_id,
        "params": {k: report.params[k] for k in sorted(report.params)},
        "lhs": report.lhs,
        "rhs": report.rhs,
        "ratio": report.ratio,
        "abs_error": report.abs_error,
        "quadrature_error": report.quadrature_error,
        "evaluator_hash": report.evaluator_hash,
        "ladder_hash": report.ladder_hash,
    }
    if include_timings:
        doc["elapsed"] = report.elapsed
    return json.dumps(doc, sort_keys=False, separators=(",", ":"))


def sort_key(report: VerificationReport):
    """The report-file order, total over a run's rows: a member's asymptotic
    row comes before its exactness (sanity) row of the same T and degree."""
    p = report.params
    return (report.equation_id, p.get("T", 0.0), p.get("nu", -2.0),
            p.get("alpha", -2.0), p.get("beta", -2.0),
            p.get("n", -1), p.get("m", -1), is_sanity(p))
