"""Bessel functions J_nu (nu > -1), their positive zeros, and weighted norms.

Evaluation strategy
-------------------
* x <= 40: the ascending power series.  Terms and the running sum are carried
  in double-double arithmetic because the series loses ~x/ln(10) digits to
  cancellation; compensated products/sums keep the absolute error near 1e-16
  over the whole range.
* x > 40: Miller's downward three-term recurrence in the order, normalized
  by the series  sum_k c_k J_{nu+2k}(x) = (x/2)^nu  with
  c_0 = Gamma(nu+1), c_k = (nu+2k) Gamma(nu+k) / k!.

Zeros are located from McMahon's asymptotic guess with a safeguarded
Newton iteration inside a maintained sign-change bracket, and cached in
append-only per-nu tables.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

import numpy as np

from .._atomic import atomic_text_writer
from ..exceptions import ConvergenceError, DomainError
from .gamma import gamma_fn

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant

_SERIES_MAX_X = 40.0
_ZERO_CACHE_VERSION = 1


# ---------------------------------------------------------------------------
# double-double primitives (elementwise on ndarrays, or on Python floats)

def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    a1 = a * _SPLIT
    ahi = a1 - (a1 - a)
    alo = a - ahi
    b1 = b * _SPLIT
    bhi = b1 - (b1 - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _dd_add(xh, xl, yh, yl):
    sh, sl = _two_sum(xh, yh)
    return _two_sum(sh, sl + (xl + yl))


def _dd_mul(xh, xl, yh, yl):
    ph, pl = _two_prod(xh, yh)
    return _two_sum(ph, pl + (xh * yl + xl * yh))


def _dd_div(xh, xl, yh, yl):
    qh = xh / yh
    th, tl = _dd_mul(qh, np.zeros_like(qh) if hasattr(qh, "shape") else 0.0, yh, yl)
    rh, rl = _dd_add(xh, xl, -th, -tl)
    return _two_sum(qh, (rh + rl) / yh)


# ---------------------------------------------------------------------------
# J_nu evaluation

def _series_converged(th, sh) -> bool:
    return bool(np.all(np.abs(th) <= 1e-37 * np.maximum(1.0, np.abs(sh))))


def _series_converged_scalar(th: float, sh: float) -> bool:
    return abs(th) <= 1e-37 * max(1.0, abs(sh))


def _bessel_series(nu: float, x: np.ndarray) -> np.ndarray:
    """Ascending series, double-double terms; x <= ~40 elementwise, x > 0.

    A single point runs the term loop on Python floats: the same IEEE
    operations in the same order as the array loop, so the same bits, at a
    fraction of the per-call cost of 1-element arrays (the zero finder's
    Newton steps are all single points).  The term divisor r (nu + r) is one
    scalar double-double pair per term on either path.
    """
    half = 0.5 * x
    t0 = half ** nu / gamma_fn(nu + 1.0)
    if x.size == 1:
        return np.array([_series_sum(nu, float(half[0]), float(t0[0]), 0.0,
                                     _series_converged_scalar)])
    return _series_sum(nu, half, t0, np.zeros_like(t0), _series_converged)


def _series_sum(nu, half, t0, zero, converged):
    """sum_r t_r, t_r = t_{r-1} (-(x/2)^2) / (r (nu + r)), in double-double;
    `half`, `t0` and `zero` are all arrays or all floats."""
    th, tl = t0, zero
    sh, sl = th, tl
    qh, ql = _two_prod(half, half)
    r_needed = float(np.max(half, initial=0.0))
    for r in range(1, 701):
        nrh, nrl = _two_sum(nu, float(r))
        dh, dl = _dd_mul(float(r), 0.0, nrh, nrl)
        th, tl = _dd_mul(th, tl, qh, ql)
        th, tl = _dd_div(th, tl, -dh, -dl)
        sh, sl = _dd_add(sh, sl, th, tl)
        if r > r_needed and converged(th, sh):
            break
    return sh + sl


def _bessel_miller(nu: float, x: float) -> float:
    """Downward recurrence with series normalization; x > ~40, scalar."""
    m_start = int(np.ceil(1.3 * x + 60.0))
    u_next = 0.0
    u = 1e-280
    us = np.empty(m_start + 1)
    us[m_start] = u
    for m in range(m_start, 0, -1):
        u_prev = (2.0 * (nu + m) / x) * u - u_next
        u_next = u
        u = u_prev
        us[m - 1] = u
        if abs(u) > 1e250:
            us[m - 1:] /= 1e250
            u /= 1e250
            u_next /= 1e250
    # normalization series sum_k c_k u_{2k} = (x/2)^nu
    g1 = gamma_fn(nu + 1.0)
    s = g1 * us[0]
    e = g1  # e_k = Gamma(nu+k)/k!, starting at k = 1
    k = 1
    while 2 * k <= m_start:
        s += (nu + 2 * k) * e * us[2 * k]
        e *= (nu + k) / (k + 1.0)
        k += 1
    return float(us[0] * (0.5 * x) ** nu / s)


def _bessel_j_any(nu: float, x: np.ndarray) -> np.ndarray:
    """Dispatch series / Miller elementwise; no domain cap (internal use)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    zero = x == 0.0
    if np.any(zero):
        out[zero] = 1.0 if nu == 0.0 else (0.0 if nu > 0.0 else np.inf)
    small = (x <= _SERIES_MAX_X) & ~zero
    if np.any(small):
        out[small] = _bessel_series(nu, x[small])
    large = ~small & ~zero
    if np.any(large):
        out[large] = [_bessel_miller(nu, float(v)) for v in x[large]]
    return out[0] if scalar else out


def bessel_j(nu: float, x) -> float | np.ndarray:
    """J_nu(x) for nu > -1 and 0 <= x <= 200.

    Absolute accuracy is ~1e-15, comfortably below the 1e-12 (x <= 50) and
    1e-10 (x <= 200) contracts.  Accepts scalars or arrays in x.
    """
    nu = float(nu)
    if nu <= -1.0:
        raise DomainError(f"bessel_j requires nu > -1, got {nu}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > 200.0):
        raise DomainError("bessel_j requires 0 <= x <= 200")
    return _bessel_j_any(nu, xa) if xa.ndim else float(_bessel_j_any(nu, xa))


def _bessel_j_prime(nu: float, x: float) -> float:
    # J_nu'(x) = (nu/x) J_nu(x) - J_{nu+1}(x); safe for all nu > -1
    return (nu / x) * _bessel_j_any(nu, np.float64(x)) - _bessel_j_any(nu + 1.0, np.float64(x))


# ---------------------------------------------------------------------------
# zeros

def _mcmahon_guess(nu: float, n: int) -> float:
    b = (n + 0.5 * nu - 0.25) * np.pi
    mu = 4.0 * nu * nu
    e = 8.0 * b
    return (b - (mu - 1.0) / e
            - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e ** 3)
            - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * e ** 5))


def _refine_zero(nu: float, lo: float, hi: float) -> float:
    """Safeguarded Newton inside the sign-change bracket [lo, hi]."""
    flo = _bessel_j_any(nu, np.float64(lo))
    x = 0.5 * (lo + hi)
    for _ in range(100):
        f = float(_bessel_j_any(nu, np.float64(x)))
        if f == 0.0:
            return x
        if (f > 0.0) == (flo > 0.0):
            lo = x
        else:
            hi = x
        step = f / float(_bessel_j_prime(nu, x))
        x_new = x - step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15 * x:
            return x_new
        x = x_new
    raise ConvergenceError(f"bessel zero refinement stalled for nu={nu} in [{lo}, {hi}]")


def _bracket_zero(nu: float, start: float, guess: float) -> tuple[float, float]:
    """First sign change of J_nu at or beyond `start`, seeded near `guess`."""
    lo = max(start, guess - 1.0)
    f_lo = float(_bessel_j_any(nu, np.float64(lo)))
    step = 0.25
    x = lo
    for _ in range(4000):
        x_next = x + step
        f_next = float(_bessel_j_any(nu, np.float64(x_next)))
        if f_lo == 0.0:
            return x - 1e-9, x + 1e-9
        if (f_next > 0.0) != (f_lo > 0.0):
            return x, x_next
        x, f_lo = x_next, f_next
    raise ConvergenceError(f"no sign change found for nu={nu} beyond {start}")


@dataclass
class BesselZeroTable:
    """Append-only cache of the positive zeros of J_nu."""

    nu: float
    zeros: list[float] = field(default_factory=list)
    residual_bound: float = 0.0

    def extend_to(self, n: int) -> None:
        while len(self.zeros) < n:
            k = len(self.zeros) + 1
            guess = _mcmahon_guess(self.nu, k)
            start = self.zeros[-1] + 1e-6 if self.zeros else max(self.nu, 0.0) + 1e-3
            lo, hi = _bracket_zero(self.nu, start, guess)
            zk = _refine_zero(self.nu, lo, hi)
            resid = abs(float(_bessel_j_any(self.nu, np.float64(zk))))
            if resid > 1e-12:
                raise ConvergenceError(
                    f"zero residual {resid:.2e} above 1e-12 for nu={self.nu}, n={k}")
            self.zeros.append(zk)
            self.residual_bound = max(self.residual_bound, resid)

    def to_dict(self) -> dict:
        return {"zeros": list(self.zeros), "residual_bound": self.residual_bound}


_TABLES: dict[float, BesselZeroTable] = {}
_TABLES_LOCK = threading.Lock()


def bessel_zero(nu: float, n: int) -> float:
    """n-th positive zero mu_n of J_nu, cached; |J_nu(result)| <= 1e-12."""
    nu = float(nu)
    n = int(n)
    if nu <= -1.0:
        raise DomainError(f"bessel_zero requires nu > -1, got {nu}")
    if not 1 <= n <= 64:
        raise DomainError(f"bessel_zero requires 1 <= n <= 64, got {n}")
    with _TABLES_LOCK:
        table = _TABLES.setdefault(nu, BesselZeroTable(nu=nu))
        table.extend_to(n)
        return table.zeros[n - 1]


def zero_table(nu: float, n: int) -> BesselZeroTable:
    """The (extended) cache table for nu, covering at least n zeros."""
    bessel_zero(nu, n)
    with _TABLES_LOCK:
        return _TABLES[float(nu)]


def bessel_norm_sq(nu: float, n: int) -> float:
    """Weighted L2 norm square of J_nu(mu_n x) on [0,1]: 0.5 * J_{nu+1}(mu_n)^2."""
    mu = bessel_zero(nu, n)
    j = float(_bessel_j_any(nu + 1.0, np.float64(mu)))
    return 0.5 * j * j


# ---------------------------------------------------------------------------
# cache persistence (versioned JSON keyed by nu as decimal string)

def save_zero_cache(path) -> None:
    with _TABLES_LOCK:
        doc = {
            "version": _ZERO_CACHE_VERSION,
            "tables": {repr(nu): t.to_dict() for nu, t in sorted(_TABLES.items())},
        }
    with atomic_text_writer(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_zero_cache(path) -> int:
    """Merge a cache file into the in-memory tables; returns tables loaded."""
    from ..exceptions import CacheError

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CacheError(f"bessel zero cache {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != _ZERO_CACHE_VERSION:
        raise CacheError(f"bessel zero cache {path} has unsupported version")
    count = 0
    with _TABLES_LOCK:
        for key, payload in doc.get("tables", {}).items():
            nu = float(key)
            table = _TABLES.setdefault(nu, BesselZeroTable(nu=nu))
            zeros = [float(z) for z in payload["zeros"]]
            if len(zeros) > len(table.zeros):
                table.zeros = zeros
                table.residual_bound = max(table.residual_bound,
                                           float(payload.get("residual_bound", 0.0)))
            count += 1
    return count
