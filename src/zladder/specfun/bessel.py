"""Bessel functions J_nu (-1 < nu <= NU_MAX = 100), their positive zeros,
and weighted norms.

Evaluation strategy
-------------------
* x <= 40: the ascending power series.  Terms and the running sum are carried
  in double-double arithmetic because the series loses ~x/ln(10) digits to
  cancellation; compensated products/sums keep the absolute error near 1e-16
  over the whole range.  One loop, every double-double step written out,
  serves arrays and single points.
* x > 40: Miller's downward three-term recurrence in the order, from 1e-280
  (its peak stays below 1e-100 for nu <= 199 and x <= 400, so it is never
  rescaled), normalized by the series  sum_k c_k J_{nu+2k}(x) = (x/2)^nu
  with c_0 = Gamma(nu+1), c_k = (nu+2k) Gamma(nu+k) / k!.

A Python float x (the zero finder's points) takes the same route on Python
floats, with the same bits as in an array, and comes back a float.

The terms of that normalization overflow at high order (J is 6.5e-2 off at
nu = 131.25, and the zeros out to the 64th fail past nu = 120), so orders
above NU_MAX = 100 are rejected.

Zeros are located from McMahon's asymptotic guess with a safeguarded
Newton iteration inside a maintained sign-change bracket, and kept in
append-only per-nu tables in memory (nothing is written to disk), which
`zero_table` alone validates, locks and extends.  Beside each zero mu_n the
table keeps the norm 0.5 J_{nu+1}(mu_n)^2, found with it, and once asked for
the Chebyshev proxy of u -> J_nu(mu_n u) on [0, 1] that `bessel_j_proxy`
evaluates for the ladder integrands at the cost of one Clenshaw sum
(Trefethen, Approximation Theory and Approximation Practice, SIAM 2013, ch. 8
and 10), for the (nu, n) whose amplified rounding stays within bessel_j's
contract; the others keep the series.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConvergenceError, DomainError
from .gamma import gamma_fn, log_gamma
from .orthopoly import _clenshaw

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant

_SERIES_MAX_X = 40.0

_PROXY_MIN_DEGREE = 16
_PROXY_MAX_DEGREE = 512
_EPS = float(np.finfo(float).eps)
_PROXY_CHOP_TOL = 4.0 * _EPS
_PROXY_MAX_ERROR = 1e-12   # bessel_j's contract for x <= 50

NU_MAX = 100.0   # the largest order bessel_j and bessel_zero take


# ---------------------------------------------------------------------------
# J_nu evaluation

def _bessel_series(nu: float, x, scaled: bool = False):
    """Ascending series, double-double terms; x <= ~40 elementwise, x > 0,
    an array or a Python float (the zero finder's single points), with the
    same IEEE operations in the same order, so the same bits, on either.

    `scaled` gives J_nu(x) / (x/2)^nu instead, for x >= 0: the series from
    t_0 = 1, divided by Gamma(nu + 1), so no power of x can underflow.
    """
    half = 0.5 * x
    g = gamma_fn(nu + 1.0)
    # numpy's power, which has the same bits on a float as on an array
    t0 = 1.0 if scaled else np.power(half, nu) / g
    s = _series_sum(nu, half, t0 if np.ndim(t0) else float(t0))
    return s / g if scaled else s


def _series_sum(nu, half, t0):
    """sum_r t_r, t_r = t_{r-1} (-(x/2)^2) / (r (nu + r)), in double-double,
    for `half` an array or a float and t_0 = `t0`, until every term is below
    1e-37 of its sum (and of 1).  Every step is Dekker's (Numer. Math. 18,
    1971), written out: two-sum, two-product (with the splitting constant
    `_SPLIT`), and the double-double product, quotient and sum built from
    them, each with its operations in its order.  The divisor r (nu + r) is
    one pair of Python floats for either."""
    a1 = half * _SPLIT   # qh + ql = half^2
    ahi = a1 - (a1 - half)
    alo = half - ahi
    qh = half * half
    ql = ((ahi * ahi - qh) + ahi * alo + alo * ahi) + alo * alo
    qhi = qh * _SPLIT   # the split of qh, the same at every term
    qhi = qhi - (qhi - qh)
    qlo = qh - qhi
    th, tl, sh, sl = t0, 0.0, t0, 0.0
    r_needed = float(np.max(half, initial=0.0))
    for r in range(1, 701):
        fr = float(r)
        nrh = nu + fr   # nrh + nrl = nu + r
        bb = nrh - nu
        nrl = (nu - (nrh - bb)) + (fr - bb)
        a1, b1 = fr * _SPLIT, nrh * _SPLIT   # yh + yl = -(dh + dl) = -r (nrh + nrl)
        ahi, bhi = a1 - (a1 - fr), b1 - (b1 - nrh)
        alo, blo = fr - ahi, nrh - bhi
        p = fr * nrh
        e = (((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo) + (fr * nrl + 0.0 * nrh)
        dh = p + e
        bb = dh - p
        yh, yl = -dh, -((p - (dh - bb)) + (e - bb))
        p = th * qh   # th + tl = (th + tl) (qh + ql)
        a1 = th * _SPLIT
        ahi = a1 - (a1 - th)
        alo = th - ahi
        e = (((ahi * qhi - p) + ahi * qlo + alo * qhi) + alo * qlo) + (th * ql + tl * qh)
        th = p + e
        bb = th - p
        tl = (p - (th - bb)) + (e - bb)
        q = th / yh   # th + tl /= yh + yl: first ph + pl = q (yh + yl)
        p = q * yh
        a1, b1 = q * _SPLIT, yh * _SPLIT
        ahi, bhi = a1 - (a1 - q), b1 - (b1 - yh)
        alo, blo = q - ahi, yh - bhi
        e = (((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo) + (q * yl + 0.0 * yh)
        ph = p + e
        bb = ph - p
        pl = (p - (ph - bb)) + (e - bb)
        p, e = -ph, -pl   # rh + rl = (th + tl) - (ph + pl)
        u = th + p
        bb = u - th
        e = ((th - (u - bb)) + (p - bb)) + (tl + e)
        rh = u + e
        bb = rh - u
        rl = (u - (rh - bb)) + (e - bb)
        e = (rh + rl) / yh   # th + tl = q + (rh + rl) / yh
        th = q + e
        bb = th - q
        tl = (q - (th - bb)) + (e - bb)
        u = sh + th   # sh + sl += th + tl
        bb = u - sh
        e = ((sh - (u - bb)) + (th - bb)) + (sl + tl)
        sh = u + e
        bb = sh - u
        sl = (u - (sh - bb)) + (e - bb)
        if r > r_needed:   # |t_r| <= 1e-37 max(1, |sum|) at every point
            at = abs(th)
            done = (at <= 1e-37) | (at <= 1e-37 * abs(sh))   # a bool on floats
            if done is True or done is not False and done.all():
                break
    return sh + sl


def _bessel_miller(nu: float, x: float, scaled: bool = False) -> float:
    """Downward recurrence with series normalization; x > ~40, scalar;
    `scaled` gives J_nu(x) / (x/2)^nu."""
    m_start = math.ceil(1.3 * x + 60.0)
    u_next = 0.0
    u = 1e-280
    us = np.empty(m_start + 1)
    us[m_start] = u
    for m in range(m_start, 0, -1):
        u, u_next = (2.0 * (nu + m) / x) * u - u_next, u
        us[m - 1] = u
    # normalization series sum_k c_k u_{2k} = (x/2)^nu
    g1 = gamma_fn(nu + 1.0)
    s = g1 * us[0]
    e = g1  # e_k = Gamma(nu+k)/k!, starting at k = 1
    k = 1
    while 2 * k <= m_start:
        s += (nu + 2 * k) * e * us[2 * k]
        e *= (nu + k) / (k + 1.0)
        k += 1
    return float(us[0] / s) if scaled else float(us[0] * (0.5 * x) ** nu / s)


def _j_at_zero(nu: float) -> float:
    return 1.0 if nu == 0.0 else (0.0 if nu > 0.0 else np.inf)


def _bessel_j_any(nu: float, x, scaled: bool = False):
    """Dispatch series / Miller elementwise; no domain cap (internal use).
    `scaled` gives J_nu(x) / (x/2)^nu, finite for every nu > -1 (no power of
    x is formed), from the series at x = 0: 1 / Gamma(nu + 1).  A Python
    float x takes the same route on floats and gives a float."""
    if isinstance(x, float):
        if x == 0.0 and not scaled:
            return _j_at_zero(nu)
        return (_bessel_series if x <= _SERIES_MAX_X else _bessel_miller)(nu, x, scaled)
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    zero = (x == 0.0) & (not scaled)
    if np.any(zero):
        out[zero] = _j_at_zero(nu)
    small = (x <= _SERIES_MAX_X) & ~zero
    if np.any(small):
        out[small] = _bessel_series(nu, x[small], scaled)
    large = ~small & ~zero
    if np.any(large):
        out[large] = [_bessel_miller(nu, v, scaled) for v in x[large].tolist()]
    return out


def bessel_j(nu: float, x) -> float | np.ndarray:
    """J_nu(x) for -1 < nu <= NU_MAX and 0 <= x <= 200.

    Absolute accuracy is ~1e-15, comfortably below the 1e-12 (x <= 50) and
    1e-10 (x <= 200) contracts.  Accepts scalars or arrays in x.
    """
    nu = float(nu)
    if not -1.0 < nu <= NU_MAX:   # NaN fails
        raise DomainError(f"bessel_j requires -1 < nu <= {NU_MAX:g}, got {nu}")
    xa = np.asarray(x, dtype=float)
    if not (np.all(xa >= 0.0) and np.all(xa <= 200.0)):
        raise DomainError("bessel_j requires 0 <= x <= 200")
    return _bessel_j_any(nu, xa if xa.ndim else float(xa))


# ---------------------------------------------------------------------------
# zeros

def _mcmahon_guess(nu: float, n: int) -> float:
    b = (n + 0.5 * nu - 0.25) * np.pi
    mu = 4.0 * nu * nu
    e = 8.0 * b
    return (b - (mu - 1.0) / e
            - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e ** 3)
            - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * e ** 5))


def _refine_zero(nu: float, lo: float, hi: float, x: float,
                 f_lo_positive: bool) -> tuple[float, float, float]:
    """Safeguarded Newton from x inside the sign-change bracket [lo, hi],
    where J_nu(lo) > 0 iff `f_lo_positive`: the zero, J_nu and J_{nu+1}
    there.  The derivative J_nu'(x) = (nu/x) J_nu(x) - J_{nu+1}(x), safe for
    all nu > -1, takes J_nu(x) from the step's own evaluation, and the
    iteration ends at Newton's fixed point: the double a step rounds back to.
    An exact zero is one (x - 0/(-g) = x; J_nu and J_{nu+1} share no zero)."""
    for _ in range(100):
        f = _bessel_j_any(nu, x)
        g = _bessel_j_any(nu + 1.0, x)
        if (f > 0.0) == f_lo_positive:
            lo = x
        else:
            hi = x
        x_new = x - f / ((nu / x) * f - g)
        if x_new == x:   # the step is below half an ulp: x is Newton's fixed point
            return x, f, g
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
            if x_new in (lo, hi):   # the bracket is two adjacent doubles
                return x, f, g
        x = x_new
    raise ConvergenceError(f"bessel zero refinement stalled for nu={nu} in [{lo}, {hi}]")


def _bracket_zero(nu: float, start: float) -> tuple[float, float]:
    """First sign change of J_nu at or beyond `start`, by steps of 0.25, well
    below the spacing of the zeros (about pi)."""
    lo = start
    f_lo = _bessel_j_any(nu, lo)
    step = 0.25
    x = lo
    for _ in range(4000):
        x_next = x + step
        f_next = _bessel_j_any(nu, x_next)
        if f_lo == 0.0:
            return x - 1e-9, x + 1e-9
        if (f_next > 0.0) != (f_lo > 0.0):
            return x, x_next
        x, f_lo = x_next, f_next
    raise ConvergenceError(f"no sign change found for nu={nu} beyond {start}")


def _first_zero_floor(nu: float) -> float:
    """A point below j_{nu,1}: Rayleigh's sum sum_k j_{nu,k}^-4 =
    1 / (16 (nu+1)^2 (nu+2)) bounds j_{nu,1} from below, and j_{nu,1} > nu
    for nu > 0 (Watson, Treatise, 15.3 and 15.51)."""
    return max(nu, (16.0 * (nu + 1.0) ** 2 * (nu + 2.0)) ** 0.25)


def _spacing_floor(nu: float, x0: float) -> float:
    """A lower bound on the distance of consecutive zeros of J_nu beyond
    x0 > 0: sqrt(x) J_nu solves u'' + (1 + (1/4 - nu^2) / x^2) u = 0, so by
    Sturm's comparison with u'' + q u = 0, q its coefficient's largest value
    on [x0, inf), they are at least pi / sqrt(q) apart."""
    return math.pi / math.sqrt(1.0 + max(0.0, 0.25 - nu * nu) / (x0 * x0))


def _mcmahon_bracket(nu: float, k: int, prev: float | None):
    """(lo, hi, guess): the bracket [guess - 0.05, guess + 0.05] around
    McMahon's guess for the k-th zero, if it provably holds that zero; else
    None.  J_nu has the sign (-1)^(k-1) between the (k-1)-th zero `prev` (or,
    for k = 1, a point below the first) and the k-th, so a bracket whose ends
    carry (-1)^(k-1) and (-1)^k holds an odd number of zeros, and the stretch
    below it an even number, which is none when it is shorter than two
    spacings of the zeros (one for k = 1, whose stretch does not start at a
    zero)."""
    guess = _mcmahon_guess(nu, k)
    lo, hi = guess - 0.05, guess + 0.05
    base = _first_zero_floor(nu) if prev is None else prev
    reach = (1.0 if prev is None else 2.0) * _spacing_floor(nu, base)
    sign = 1.0 if k % 2 else -1.0   # of J_nu just below the k-th zero
    if (base < lo < base + reach and sign * _bessel_j_any(nu, lo) > 0.0
            and sign * _bessel_j_any(nu, hi) < 0.0):
        return lo, hi, guess
    return None


@dataclass
class BesselZeroTable:
    """Append-only cache of the positive zeros of J_nu, with the norm of each
    zero, found with it, and the Chebyshev proxy of its J_nu(mu_n u) once it
    is asked for (racing threads compute equal ones)."""

    nu: float
    zeros: list[float] = field(default_factory=list, init=False)
    residual_bound: float = field(default=0.0, init=False)
    norms: dict[int, float] = field(default_factory=dict, init=False, repr=False,
                                    compare=False)
    proxies: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False,
                                           compare=False)

    def extend_to(self, n: int) -> None:
        while len(self.zeros) < n:
            k = len(self.zeros) + 1
            prev = self.zeros[-1] if self.zeros else None
            bracket = _mcmahon_bracket(self.nu, k, prev)
            if bracket is None:
                start = prev + 1e-6 if prev is not None else _first_zero_floor(self.nu)
                lo, hi = _bracket_zero(self.nu, start)
                bracket = lo, hi, 0.5 * (lo + hi)
            zk, fk, gk = _refine_zero(self.nu, *bracket, k % 2 == 1)
            resid = abs(fk)
            if resid > 1e-12:
                raise ConvergenceError(
                    f"zero residual {resid:.2e} above 1e-12 for nu={self.nu}, n={k}")
            if (gk > 0.0) != (k % 2 == 1):
                raise ConvergenceError(
                    f"the zero found for nu={self.nu}, n={k} at {zk!r} is not the "
                    f"{k}-th: J_(nu+1) there has the wrong sign")
            self.zeros.append(zk)
            self.norms[k] = 0.5 * gk * gk
            self.residual_bound = max(self.residual_bound, resid)

    def proxy_coefs(self, ns) -> list[np.ndarray]:
        """The read-only Chebyshev coefficients, in s = 2 u^2 - 1, of
        g(u) = J_nu(mu_n u) / (mu_n u / 2)^nu on 0 <= u <= 1, for each n of
        `ns`; none is kept unless all the missing ones build."""
        missing = [n for n in dict.fromkeys(ns) if n not in self.proxies]
        if missing:
            self.proxies.update(zip(missing, _proxy_coefficients(
                self.nu, [self.zeros[n - 1] for n in missing])))
        return [self.proxies[n] for n in ns]


def _proxy_coefficients(nu: float, mus) -> list[np.ndarray]:
    """Chebyshev coefficients of g(u) = J_nu(mu u) / (mu u / 2)^nu in s, one
    array per mu of `mus`.

    g is even and entire, so it is a series in s = 2 u^2 - 1.  It is sampled
    by the scaled series and recurrence at the Chebyshev-Lobatto points
    s_j = cos(pi j / N), where u_j = cos(pi j / 2N), and the coefficients are
    their DCT-I, taken as the FFT of the even extension.  N doubles from 16
    until the series chops (Aurentz & Trefethen, ACM TOMS 43, 2017): the
    largest coefficient of its last quarter, the noise floor, is within
    `_PROXY_CHOP_TOL` of the largest sample, so what is cut stays a few eps
    of g(0).  The coefficients past the last one above that floor are cut.
    The points nest, the degree-N ones being the even ones of degree 2N: one
    call of the sampler draws degree 32 for every mu, and each later degree
    only its new points for the mus still open; a point has the bits it has
    sampled alone.
    """
    n = _PROXY_MIN_DEGREE
    mu = np.asarray(mus, dtype=float)[:, None]
    rows = np.arange(len(mu))   # the mus still open, one row of g each
    # the first call draws degree 2n at once; degree n reads its even points
    g = _bessel_j_any(nu, mu * np.cos(np.pi * np.arange(2 * n + 1) / (4 * n)), scaled=True)
    out = [None] * len(mu)
    while True:
        for i, row in zip(rows.tolist(), g[:, ::(g.shape[1] - 1) // n]):
            out[i] = _chopped(row, n)
        still = np.array([out[i] is None for i in rows.tolist()], dtype=bool)
        if not still.any():
            return out
        if n >= _PROXY_MAX_DEGREE:
            raise ConvergenceError(
                f"the Chebyshev proxy of J_{nu}(mu u) did not chop by degree "
                f"{_PROXY_MAX_DEGREE} for mu = {mu.item(rows[still][0])}")
        n *= 2
        rows, g = rows[still], g[still]
        if g.shape[1] < n + 1:   # draw the odd points of degree n
            both = np.empty((len(rows), n + 1))
            both[:, ::2] = g
            both[:, 1::2] = _bessel_j_any(
                nu, mu[rows] * np.cos(np.pi * np.arange(1, n, 2) / (2 * n)), scaled=True)
            g = both


def _chopped(g: np.ndarray, n: int) -> np.ndarray | None:
    """The chopped, read-only coefficients of the degree-n interpolant of
    the samples g at s_j = cos(pi j / n), or None if the series does not
    chop at this degree."""
    c = np.fft.rfft(np.concatenate([g, g[-2:0:-1]])).real / n
    c[[0, -1]] *= 0.5
    mag = np.abs(c)
    floor = mag[3 * n // 4:].max()
    if floor > _PROXY_CHOP_TOL * np.abs(g).max():
        return None
    c = c[:np.flatnonzero(mag > floor)[-1] + 1]
    c.flags.writeable = False
    return c


_TABLES: dict[float, BesselZeroTable] = {}
_TABLES_LOCK = threading.Lock()


def zero_table(nu: float, n: int) -> BesselZeroTable:
    """The cache table for nu, extended to hold at least n zeros."""
    nu = float(nu)
    n = int(n)
    if not -1.0 < nu <= NU_MAX:   # NaN fails
        raise DomainError(f"bessel_zero requires -1 < nu <= {NU_MAX:g}, got {nu}")
    if not 1 <= n <= 64:
        raise DomainError(f"bessel_zero requires 1 <= n <= 64, got {n}")
    with _TABLES_LOCK:
        table = _TABLES.setdefault(nu, BesselZeroTable(nu=nu))
        table.extend_to(n)
        return table


def bessel_zero(nu: float, n: int) -> float:
    """n-th positive zero mu_n of J_nu, cached; |J_nu(result)| <= 1e-12."""
    return zero_table(nu, n).zeros[int(n) - 1]


def bessel_norm_sq(nu: float, n: int) -> float:
    """Weighted L2 norm square of J_nu(mu_n x) on [0,1]: 0.5 * J_{nu+1}(mu_n)^2."""
    return zero_table(nu, n).norms[int(n)]


def _proxied(nu: float, mu: float) -> bool:
    """Whether the proxy of u -> J_nu(mu u) stands in for `bessel_j`.

    The proxy's error in g is a few eps of g(0) = 1 / Gamma(nu + 1), and the
    factor (mu u / 2)^nu carries it into J, so its absolute error is about
    eps (mu/2)^nu / Gamma(nu + 1) at u = 1.  The proxy serves where that
    stays within `_PROXY_MAX_ERROR`, inside `bessel_j`'s domain (mu <= 200);
    for nu < 0 the factor blows up at u = 0 instead, so those orders keep
    the direct series.
    """
    if not (0.0 <= nu and mu <= 200.0):
        return False
    gain = math.exp(nu * math.log(0.5 * mu) - log_gamma(nu + 1.0))
    return _EPS * gain <= _PROXY_MAX_ERROR


def bessel_j_proxy(nu: float, ns):
    """The map u -> J_nu(mu_n u), one row per n of `ns`, for an array u in
    [0, 1] (u a little past 1 is an extrapolation of the same polynomial).

    A row is the (nu, n) proxy's Chebyshev sum at s = 2 u^2 - 1 times
    (mu_n u / 2)^nu, with J_nu(0) by `bessel_j`'s rule, where `_proxied`
    admits it, and `bessel_j` itself elsewhere.  The proxied rows run through
    one Clenshaw recurrence, the shorter ones padded with zero coefficients,
    which leaves their bits alone: a row has the bits it has evaluated alone.
    A proxy is within 5e-15 of `bessel_j` for nu in {0, 1} and n <= 4, within
    5e-14 for n <= 16, and within `_PROXY_MAX_ERROR` over the whole admitted
    range.
    """
    nu = float(nu)
    ns = list(ns)
    table = zero_table(nu, max(ns))
    mus = [table.zeros[n - 1] for n in ns]
    fast = [i for i, mu in enumerate(mus) if _proxied(nu, mu)]
    direct = [i for i in range(len(ns)) if i not in fast]
    coefs = table.proxy_coefs([ns[i] for i in fast])
    cols = np.zeros((max((len(c) for c in coefs), default=0), len(fast)))
    for i, c in enumerate(coefs):
        cols[:len(c), i] = c
    fast_mus = np.array([mus[i] for i in fast])[:, None]
    at_zero = _j_at_zero(nu)

    def rows(u):
        out = np.empty((len(ns),) + np.shape(u))
        if fast:
            x = fast_mus * u
            # each step takes the coefficient of every row as a column
            g = _clenshaw(cols, 2.0 * u * u - 1.0, (slice(None), None))
            out[fast] = np.where(x == 0.0, at_zero, g * (0.5 * x) ** nu)
        for i in direct:
            out[i] = bessel_j(nu, mus[i] * u)
        return out
    return rows
