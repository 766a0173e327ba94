"""Reference formulas the tests check the program against; no program code
uses them."""

import math
import struct

import numpy as np
from numpy.polynomial.chebyshev import chebroots

from zladder.exceptions import DomainError
from zladder.ladder import check_admissible
from zladder.quadrature import integrate_adaptive
from zladder.specfun.orthopoly import _clenshaw_rev


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


def antiderivative_reference(coef, half):
    """`zladder.ladder._antiderivative` as it was before it worked in place:
    a new array for every product, rule and scaling, and the array Clenshaw
    recurrence as `_clenshaw_rev` on the table's rows."""
    c = np.ascontiguousarray(coef.T)
    n = len(c)
    sq = np.zeros((2 * n + 1, c.shape[1]))   # twice p^2, two zero rows past it
    for i, ci in enumerate(c):
        sq[2 * i] += ci * ci
        sq[0] += ci * ci
        cross = 2.0 * ci * c[i + 1:]
        sq[2 * i + 1:i + n] += cross
        sq[1:n - i] += cross
    sq[0] *= 2.0
    anti = np.zeros((2 * n, c.shape[1]))
    anti[1:] = (sq[:-2] - sq[2:]) / (4.0 * np.arange(1, 2 * n))[:, None]
    anti[0] = -_clenshaw_rev(anti[:0:-1], anti[0], np.full(c.shape[1], -1.0))
    return anti * half


def rs_remainder_terms(p):
    """C_0..C_3(p) of the Riemann-Siegel remainder, p an mpf, from the closed
    forms in the `zladder._rs_terms` docstring, at mpmath's working
    precision: Psi's derivatives by `mpmath.diffs`."""
    import mpmath as mp

    def psi(q):
        return mp.cos(2 * mp.pi * (q * q - q - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * q)

    d = list(mp.diffs(psi, p, 9))
    pi2 = mp.pi ** 2
    return (d[0],
            -d[3] / (96 * pi2),
            d[2] / (64 * pi2) + d[6] / (18432 * pi2 ** 2),
            -d[1] / (64 * pi2) - d[5] / (3840 * pi2 ** 2) - d[9] / (5308416 * pi2 ** 3))


def rs_term_tables(degree: int = 50, dps: int = 40) -> np.ndarray:
    """A generator of `zladder._rs_terms.RS_TERM_TABLES`: (4, degree + 1)
    Chebyshev coefficients on p in [0, 1] (in x = 2p - 1) of C_0..C_3,
    interpolated at the degree + 1 Chebyshev-Gauss nodes from `dps`-digit
    values of `rs_remainder_terms`.  The stored tables were fitted by
    Cauchy-circle differentiation instead, so this reproduces their live
    coefficients within 3.2e-39, not bit for bit (17-20 of each table's 25-26
    are bit-equal).  Nothing here sets an entry to zero: the parity of the
    generated tables is the closed forms' own."""
    import mpmath as mp

    n = degree + 1
    out = np.empty((4, n))
    with mp.workdps(dps):
        theta = [mp.pi * (j + mp.mpf(1) / 2) / n for j in range(n)]
        values = [rs_remainder_terms((1 + mp.cos(th)) / 2) for th in theta]
        for k in range(n):
            w = [mp.cos(k * th) for th in theta]
            for j in range(4):
                c = 2 * mp.fsum(v[j] * wk for v, wk in zip(values, w)) / n
                out[j, k] = float(c / 2 if k == 0 else c)
    return out


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


def ci_targets(table) -> list[float]:
    """The test workflow's 2,000 y for its inverse hashes, stratified over
    [phi_lo, phi_hi] with seed 1."""
    m = 2000
    u = (np.arange(m) + np.random.default_rng(1).random(m)) / m
    return np.minimum(table.phi_lo + u * (table.phi_hi - table.phi_lo), table.phi_hi).tolist()


def neighbours(table, t, count=4):
    """t and up to `count` neighbouring doubles on either side, inside the
    ladder domain, ascending."""
    below, above = [t], [t]
    for _ in range(count):
        below.append(float(np.nextafter(below[-1], -math.inf)))
        above.append(float(np.nextafter(above[-1], math.inf)))
    return np.array([u for u in below[:0:-1] + above if table.t_lo <= u <= table.t_hi])


def brackets(table, cands, vals, best, y):
    """Whether no double comes closer to y than cands[best]: y lies between
    the values of its two neighbours, or, at a domain end, between the end's
    value and its inner neighbour's."""
    under = (vals[best - 1] if best > 0
             else vals[0] if cands[0] == table.t_lo else math.inf)
    over = (vals[best + 1] if best + 1 < len(vals)
            else vals[-1] if cands[-1] == table.t_hi else -math.inf)
    return under <= y <= over


def meets_inverse_contract(table, y):
    """Whether invert(y) keeps its contract: it returns a t with
    |phi_1(t) - y| <= 1e-10 or with no double closer to y."""
    t = table.invert(y)
    near = neighbours(table, t, 1)
    vals = table.eval(near)
    best = int(np.flatnonzero(near == t)[0])
    return abs(table.eval(t) - y) <= 1e-10 or brackets(table, near, vals, best, y)


def _bits(t: float) -> int:   # a positive double's bit pattern, in the doubles' order
    return struct.unpack("<q", struct.pack("<d", t))[0]


def _double(n: int) -> float:
    return struct.unpack("<d", struct.pack("<q", n))[0]


def invert_by_bisection(table, y: float) -> float:
    """`LadderTable.invert`'s contract, solved by bisection alone: on the
    panel whose checkpoint values bracket y, the first double u at which
    `eval` reaches y, by bisection over the panel's doubles as integer bit
    patterns; then, when the double below u is at least as near y, the
    first double of the run with its value, by a second bisection.  A
    checkpoint value returns its checkpoint.  Each step is one `eval` of a
    float (~36 per search near 1e5), so nothing is shared with Newton."""
    y = float(y)
    if not table.phi_lo <= y <= table.phi_hi:   # NaN fails
        raise DomainError(f"inversion target outside [{table.phi_lo}, {table.phi_hi}]")
    j = int(table.phi.searchsorted(y, side="left"))
    if table.phi.item(j) == y:
        return table.edges.item(j)
    e_lo, e_hi = table.edges.item(j - 1), table.edges.item(j)

    def first_reaching(level, below):
        """The lowest double in (below, e_hi] whose value reaches `level`,
        for a `below` whose value does not."""
        lo, hi = _bits(below), _bits(e_hi)
        while hi - lo > 1:
            m = (lo + hi) // 2
            lo, hi = (lo, m) if table.eval(_double(m)) >= level else (m, hi)
        return _double(hi)

    u = first_reaching(y, e_lo)   # eval(e_lo) = phi[j - 1] < y <= eval(e_hi)
    b = math.nextafter(u, -math.inf)
    vb = table.eval(b)
    if table.eval(u) - y < y - vb:
        return u
    if table.eval(e_lo) >= vb:   # the run reaches down to the panel's edge
        return e_lo
    return first_reaching(vb, e_lo)


def save_15_member_cache(table, path, shift=0.0):
    """Write `table` as the version-3 cache writer did before it kept seven
    members: fifteen, with the eight scalars that the checkpoints, the anchor
    rule and the config hash fix (the anchor value as phi_1 at the anchor
    checkpoint), and with `phi` and `anchor_value` both moved by `shift`."""
    ev = table.evaluator
    with open(path, "wb") as fh:
        np.savez(fh, version=3, config_hash=table.config_hash(),
                 t_lo=table.t_lo, t_hi=table.t_hi, anchor_t0=table.anchor_t0,
                 h=1.0, tol=table.build_tolerance,
                 rs_correction_order=ev.rs_correction_order,
                 oracle_terms=ev.oracle_terms, t_min_rs=ev.t_min_rs,
                 anchor_value=table.anchor_value + shift,
                 residual_total=table.residual_total,
                 edges=table.edges, phi=table.phi + shift, coef=table.coef)
