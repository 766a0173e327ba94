"""Jacob's ladder phi_1: construction from d(phi_1)/dt = Ztilde^2, evaluation,
inversion, and the retardation diagnostic against (1 - c) pi(t) (`prime_pi`).

On each panel a degree-32 Chebyshev polynomial p interpolates Z / sqrt(ln t)
at the 33 Chebyshev-Lobatto points; phi_1' = p^2 >= 0, and phi_1 is its exact
integral, a Clenshaw sum between the checkpoints (panel edges), so nothing
after the build calls Z.  Panels have width `_BASE_H` = 1, with edges at
the anchor min(t_lo + 10, t_hi) (`_anchor`) and at the RS/oracle seam, and
are halved until the degree-16 interpolant through the nested 17 points
agrees to the panel's share of the tolerance, so no other base width is
offered.  `save` and `load` keep checkpoints and coefficients in a
versioned, validated `.npz`.

`eval` of one float runs on Python floats (one panel's columns, cached in
the order the Clenshaw recurrence takes them), with the IEEE operations of
the array path in the same order, so a point has the same bits either way.
`invert` solves on the one panel whose checkpoint values bracket y, with
those operations: a Newton step takes phi_1 and p from one Clenshaw pass
over each of the panel's two columns, a neighbour double that Newton did not
visit takes phi_1 from one pass, and a point not strictly inside the panel
(a Newton step leaves one only on a panel about one ulp wide) goes through
`eval` and `ztilde_sq`, which has the array path alone.  The recurrences
are `specfun.orthopoly`'s.  A verification window works in a panel's own
coordinate x, which resolves a panel to ~1e-16 at any t: `locate` and
`solve_rise` find its ends, and `slopes` the mean slope of phi_1 between two
points without cancellation (`_mean_slopes`), on Python floats for one
point and with the same bits as on arrays.
"""

from __future__ import annotations

import hashlib
import math
import zipfile
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._atomic import atomic_writer
from .exceptions import (AdmissibilityError, CacheError, ConvergenceError,
                         DomainError, ToleranceNotMetError)
from .rszeta import ZEvaluator
from .specfun.orthopoly import _clenshaw, _clenshaw_rev

EULER_C = 0.5772156649015329
ONE_MINUS_C = 1.0 - EULER_C

_E = math.e
_LD = np.longdouble
_CACHE_VERSION = 3
_CACHE_SCALARS = ("config_hash", "t_lo", "t_hi", "anchor_t0", "h", "tol",
                  "rs_correction_order", "oracle_terms", "t_min_rs",
                  "anchor_value", "residual_total")

_BASE_H = 1.0                # width of the base panels, before any halving
_DEGREE = 32                 # of p on every panel; the check uses DEGREE / 2
# panels per evaluation batch; it also fixes the batches Z is evaluated in,
# and with them Z's bits (see ZEvaluator), so changing it moves ladder bits
_BUILD_CHUNK = 3000
# panels whose antiderivative rows a cold scalar lookup builds in one call:
# the call's overhead, not its rows, dominates (one row ~0.4 ms, 64 ~0.8 ms)
_ANTI_BLOCK = 64
_MAX_SPLIT_ROUNDS = 30
_PANEL_RULE = "cheb32-lobatto+cheb16"


def _anchor(t_lo: float, t_hi: float) -> float:
    """The anchor of the ladder on [t_lo, t_hi]: 10 units above t_lo, or t_hi
    on a narrower domain."""
    return min(t_lo + 10.0, t_hi)


def ladder_config_hash(evaluator: ZEvaluator, t_lo: float, t_hi: float,
                       tol: float) -> str:
    """Hash of the configuration that determines a built ladder.  Cache
    files are named by it and carry it, and every report row records it."""
    t_lo, t_hi = float(t_lo), float(t_hi)
    payload = (f"ladder(t_lo={t_lo!r},t_hi={t_hi!r},"
               f"anchor={_anchor(t_lo, t_hi)!r},h={_BASE_H!r},"
               f"tol={float(tol)!r},rule={_PANEL_RULE},"
               f"z={evaluator.config_hash()})")
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def prime_pi(t) -> int | np.ndarray:
    """pi(t) = #{primes <= t} for 0 <= t <= 1e8, from one sieve of the odd
    numbers up to max(t): entry i stands for 2 i + 1, and the prime 2 is
    counted apart."""
    ta = np.asarray(t, dtype=float)
    if not np.all((ta >= 0.0) & (ta <= 1e8)):   # NaN fails
        raise DomainError("prime_pi requires 0 <= t <= 1e8")
    limit = int(ta.max(initial=0.0))
    sieve = np.ones((limit + 1) // 2, dtype=bool)
    sieve[:1] = False   # 1 is not prime
    for p in range(3, math.isqrt(limit) + 1, 2):
        if sieve[p // 2]:
            sieve[p * p // 2::p] = False
    # the odd primes 2 i + 1 <= t: i <= (t - 1) / 2, exact in doubles for t >= 1
    odd = np.searchsorted(np.flatnonzero(sieve), (ta - 1.0) / 2.0, side="right")
    counts = odd + (ta >= 2.0)
    return counts if ta.ndim else int(counts)


# ---------------------------------------------------------------------------
# Chebyshev panels: every reduction runs in a fixed order on elementwise
# operations, so no result depends on the batch or the BLAS thread count.

def _lobatto(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Chebyshev-Lobatto points x_j = -cos(pi j / n) on [-1, 1],
    and the (n + 1, n + 1) matrix taking values there to the Chebyshev
    coefficients of their interpolant (a DCT-I)."""
    angles = np.pi * np.arange(n, -1, -1) / n
    mat = np.cos(np.outer(np.arange(n + 1), angles)) * (2.0 / n)
    mat[:, [0, -1]] *= 0.5
    mat[[0, -1]] *= 0.5
    return np.cos(angles), mat


_X32, _COEF32 = _lobatto(_DEGREE)
_COEF16 = _lobatto(_DEGREE // 2)[1]


def _cheb_coef(vals: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients, one row per panel, of the Lobatto samples."""
    out = np.zeros((mat.shape[0], len(vals)))
    for j, col in enumerate(np.ascontiguousarray(vals.T)):
        out += mat[:, j:j + 1] * col
    return out.T


def _antiderivative(coef: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Coefficients of int_lo^t p^2 on each panel as (2 deg + 2, panels)
    columns: p^2 from T_i T_j = (T_{i+j} + T_{|i-j|}) / 2, then the integral
    rule 2k b_k = a_{k-1} - a_{k+1} (a_0 doubled), b_0 making it 0 at lo."""
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
    anti[0] = -_clenshaw(anti, np.full(c.shape[1], -1.0), slice(None))
    return anti * half


def _steps(anti: np.ndarray) -> np.ndarray:   # whole-panel integrals
    return _clenshaw(anti, np.ones(anti.shape[1]), slice(None))


def _mean_slopes(tail, x0, x):
    """(f(x) - f(x0)) / (x - x0) pointwise (f'(x0) at x = x0) for the
    Chebyshev series f = f_0 + sum_{j >= 1} tail[j - 1] T_j, from the divided
    differences D_{j+1} = 2 T_j(x) + 2 x0 D_j - D_{j-1} of the T_j: no two
    values of f are subtracted, so the error is ~eps |f'|, not
    eps |f| / |x - x0|.  The rows of `tail` and x0, x are arrays of one
    shape, or all Python floats: the same IEEE operations either way."""
    x2, x02 = 2.0 * x, 2.0 * x0
    t_prev, t, d_prev, d = 1.0, x, 0.0, 1.0
    acc = tail[0] * d
    for row in tail[1:]:
        t_prev, t, d_prev, d = t, x2 * t - t_prev, d, 2.0 * t + x02 * d - d_prev
        acc = acc + row * d
    return acc


def _gram(degrees: np.ndarray) -> np.ndarray:
    """int_{-1}^{1} T_i T_j for degrees i, j of one parity: from
    T_i T_j = (T_{i+j} + T_{|i-j|}) / 2 and int_{-1}^{1} T_k = 2 / (1 - k^2)
    for even k."""
    s, d = np.add.outer(degrees, degrees), np.subtract.outer(degrees, degrees)
    return 1.0 / (1.0 - s * s) + 1.0 / (1.0 - d * d)


_GRAM_BY_PARITY = [_gram(np.arange(p, _DEGREE + 1, 2, dtype=float)) for p in (0, 1)]
_GRAM_CHUNK = 4096   # panels per block of the quadratic form


def _square_integrals(coef: np.ndarray, half: np.ndarray) -> np.ndarray:
    """int_lo^hi p^2 on each panel as the quadratic form half c^T G c, with G
    the Gram matrix of the T_j on [-1, 1].  G couples only degrees of one
    parity, so the form is the sum of its even and its odd block; each is
    summed in a fixed order, elementwise over blocks of panels (no BLAS)."""
    out = np.zeros(len(coef))
    for lo in range(0, len(coef), _GRAM_CHUNK):
        c = np.ascontiguousarray(coef[lo:lo + _GRAM_CHUNK].T)
        for parity, gram in enumerate(_GRAM_BY_PARITY):
            cp = c[parity::2]
            gc = np.zeros_like(cp)
            for j, cj in enumerate(cp):
                gc += gram[:, j:j + 1] * cj
            out[lo:lo + _GRAM_CHUNK] += (cp * gc).sum(axis=0)
    return out * half


class LadderTable:
    """Monotone checkpointed representation of phi_1 over [t_lo, t_hi]:
    checkpoints `edges`, values `phi` there, and per panel the Chebyshev
    coefficients `coef` of p, with phi_1' = p^2 between checkpoints.  The
    domain is the span of the checkpoints, and the anchor its `_anchor`."""

    def __init__(self, *, evaluator, build_tolerance, edges, phi, coef,
                 residual_total):
        self.evaluator = evaluator
        self.build_tolerance = float(build_tolerance)
        self.edges, self.phi, self.coef = (np.asarray(a, dtype=float)
                                           for a in (edges, phi, coef))
        self.residual_total = float(residual_total)
        self.t_lo, self.t_hi = float(self.edges[0]), float(self.edges[-1])
        self.anchor_t0 = _anchor(self.t_lo, self.t_hi)
        self._mid = 0.5 * (self.edges[:-1] + self.edges[1:])
        self._half = 0.5 * (self.edges[1:] - self.edges[:-1])
        # the antiderivative of p^2, one row per panel, built on first use
        # (racing threads write equal bits; a row is read only once built);
        # the float path's columns, per panel (see `_columns`)
        self._anti = np.empty((len(self._half), 2 * _DEGREE + 2))
        self._built = np.zeros(len(self._half), dtype=bool)
        self._cols: dict[int, tuple] = {}

    @property
    def phi_lo(self) -> float:
        return float(self.phi[0])

    @property
    def phi_hi(self) -> float:
        return float(self.phi[-1])

    @property
    def anchor_value(self) -> float:
        """phi_1 at the anchor checkpoint: anchor_t0 - (1 - c) pi(anchor_t0)."""
        return self.phi.item(int(np.searchsorted(self.edges, self.anchor_t0)))

    def config_hash(self) -> str:
        return ladder_config_hash(self.evaluator, self.t_lo, self.t_hi,
                                  self.build_tolerance)

    def _anti_rows(self, k: np.ndarray) -> np.ndarray:
        """The antiderivative table, with the rows of the panels `k` built.
        A panel's row does not depend on the others built with it."""
        if not self._built[k].all():
            new = np.zeros_like(self._built)
            new[k] = True
            new &= ~self._built
            todo = np.flatnonzero(new)
            self._anti[todo] = _antiderivative(self.coef[todo], self._half[todo]).T
            self._built[todo] = True
        return self._anti

    def _columns(self, k: int) -> tuple:
        """Panel k's antiderivative a and coefficients c of p as Python
        floats, as `_clenshaw_rev` takes them: each one's reversed tail and
        head.  A panel not yet built is built with the rest of its aligned
        block of `_ANTI_BLOCK` panels."""
        cols = self._cols.get(k)
        if cols is None:
            if not self._built.item(k):
                lo = k - k % _ANTI_BLOCK
                self._anti_rows(np.arange(lo, min(lo + _ANTI_BLOCK, len(self._half))))
            a, c = self._anti[k, ::-1].tolist(), self.coef[k, ::-1].tolist()   # reversed
            cols = self._cols[k] = (a[:-1], a[-1], c[:-1], c[-1])
        return cols

    @cached_property
    def _edge_list(self) -> list[float]:
        return self.edges.tolist()

    @cached_property
    def _phi_list(self) -> list[float]:
        return self.phi.tolist()

    def _panels(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """t flattened, its panel indices and its coordinates on them."""
        flat = np.atleast_1d(np.asarray(t, dtype=float)).astype(float).ravel()
        if not (np.all(flat >= self.t_lo) and np.all(flat <= self.t_hi)):   # NaN fails
            raise DomainError(f"ladder evaluation outside [{self.t_lo}, {self.t_hi}]")
        k = np.minimum(np.searchsorted(self.edges, flat, side="right") - 1,
                       len(self._half) - 1)
        return flat, k, (flat - self._mid[k]) / self._half[k]

    def _panel(self, t: float) -> tuple[int, float]:
        """`_panels` for one float t: its panel index and coordinate there."""
        if not self.t_lo <= t <= self.t_hi:   # NaN fails
            raise DomainError(f"ladder evaluation outside [{self.t_lo}, {self.t_hi}]")
        k = min(bisect_right(self._edge_list, t) - 1, len(self._half) - 1)
        return k, (float(t) - self._mid.item(k)) / self._half.item(k)

    def ztilde_sq(self, t) -> float | np.ndarray:
        """p(t)^2, the stored derivative of phi_1 (Ztilde^2 to the build
        tolerance); t in [t_lo, t_hi]."""
        flat, k, x = self._panels(t)
        out = _clenshaw(self.coef.T, x, k) ** 2
        return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))

    def eval(self, t) -> float | np.ndarray:
        """phi_1(t): the stored value at a checkpoint, else the left one plus
        the antiderivative of p^2 on the panel, clamped to the right one.
        Each point is evaluated on its own: its bits ignore the batch."""
        if isinstance(t, float):
            k, x = self._panel(t)
            if t == self.t_hi:
                return self.phi_hi
            lo = self.phi.item(k)
            if t == self._edge_list[k]:
                return lo
            v = lo + _clenshaw_rev(*self._columns(k)[:2], x)
            return min(max(v, lo), self.phi.item(k + 1))
        flat, k, x = self._panels(t)
        out = self.phi[k] + _clenshaw(self._anti_rows(k).T, x, k)
        out = np.minimum(np.maximum(out, self.phi[k]), self.phi[k + 1])
        exact = self.edges[k] == flat
        out[exact] = self.phi[k[exact]]
        out[flat == self.t_hi] = self.phi[-1]
        return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))

    def slopes(self, k, x0, x) -> tuple:
        """At the points x0 and x of the panels k (arrays of one shape), in
        the panel's own coordinate: t at x, the mean slope of phi_1 in x from
        x0 to x (`_mean_slopes`, so a rise between close points keeps its
        relative precision), and the slope d(phi_1)/dx = half_k p^2 at x.
        Each point is evaluated on its own, and a float x0 and x on one panel
        run on the panel's cached columns (`_columns`) as Python floats, with
        the same bits as a 1-element array."""
        if isinstance(x, float):
            rest, _, c_rest, c_head = self._columns(k)
            mid, half = self._mid.item(k), self._half.item(k)
            p = _clenshaw_rev(c_rest, c_head, x)
            return mid + half * x, _mean_slopes(rest[::-1], x0, x), half * (p * p)
        rows = self._anti_rows(k)[k].T   # each panel's row gathered once
        p = _clenshaw(self.coef[k].T, x, slice(None))
        return (self._mid[k] + self._half[k] * x, _mean_slopes(rows[1:], x0, x),
                self._half[k] * (p * p))

    def locate(self, y: float) -> tuple[int, float]:
        """phi_1^{-1}(y) in panel coordinates: the panel k with phi[k] <= y <
        phi[k + 1] (the last at phi_hi) and the x on it where phi_1 = y."""
        if not self.phi_lo <= y <= self.phi_hi:   # NaN fails
            raise DomainError(f"ladder location outside [{self.phi_lo}, {self.phi_hi}]")
        k = min(bisect_right(self._phi_list, y) - 1, len(self._half) - 1)
        return k, self.solve_rise(k, -1.0, y - self._phi_list[k])

    def solve_rise(self, k: int, x0: float, rise: float) -> float:
        """The x in [x0, 1] on panel k at which phi_1 has risen by `rise` from
        x0: Newton inside a bisection bracket, to a step below 4e-16 in x,
        far finer than the doubles t near the panel at large t.  Raises
        `ConvergenceError` when 100 steps do not get there."""
        lo, hi, x = x0, 1.0, 0.5 * (x0 + 1.0)
        for _ in range(100):
            _, mean, slope = self.slopes(k, x0, x)
            over = (x - x0) * mean - rise
            lo, hi = (lo, x) if over > 0.0 else (x, hi)
            nxt = x - over / slope if slope > 0.0 else lo
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - x) <= 4e-16:
                return nxt
            x = nxt
        raise ConvergenceError(f"ladder rise solve stalled on panel {k} in [{lo!r}, {hi!r}]")

    def invert(self, y) -> float | np.ndarray:
        """The double t nearest phi_1^{-1}(y): |phi_1(t) - y| <= 1e-10, or no
        double in [t_lo, t_hi] comes closer to y (phi_1 can rise by more than
        2e-10 from one double t to the next where Ztilde^2 ulp(t) > 2e-10,
        near t ~ 1e5).
        Raises `ConvergenceError` when the solve finds neither.

        A solve is deterministic, so a repeated y returns the identical float.
        """
        lo, hi = self._phi_list[0], self._phi_list[-1]
        scalar = isinstance(y, float)
        ys = (float(y),) if scalar else np.asarray(y, dtype=float).ravel().tolist()
        if not all(lo <= v <= hi for v in ys):   # NaN fails
            raise DomainError(
                f"inversion target outside [{self.phi_lo}, {self.phi_hi}]")
        if scalar:
            return self._solve_inverse(ys[0])
        out = [self._solve_inverse(v) for v in ys]
        return out[0] if np.ndim(y) == 0 else np.array(out, dtype=float).reshape(np.shape(y))

    def _solve_inverse(self, y: float) -> float:
        """Newton on Python floats on the panel k whose checkpoint values
        bracket y, then the best of the nine doubles around its result.  A
        point strictly inside panel k takes phi_1 and p from the panel's
        columns with the IEEE operations of `eval` and `ztilde_sq` (both on
        a Newton step, phi_1 alone on a neighbour, each from one
        `_clenshaw_rev` pass); any other point goes through those two.
        Each point is evaluated once: a neighbour that Newton already visited
        takes its value from there."""
        phis, edges = self._phi_list, self._edge_list
        j = bisect_left(phis, y)
        if phis[j] == y:
            return edges[j]
        k = j - 1
        lo, hi = e_lo, e_hi = edges[k], edges[j]
        base, top = phis[k], phis[j]
        mid, half = self._mid.item(k), self._half.item(k)
        rest, head, c_rest, c_head = self._columns(k)

        seen = {}   # phi_1 of each point evaluated so far
        t = 0.5 * (lo + hi)   # the midpoint: x = 0.0 on the first step
        for _ in range(80):
            if e_lo < t < e_hi:
                x = (t - mid) / half
                vt, p = base + _clenshaw_rev(rest, head, x), _clenshaw_rev(c_rest, c_head, x)
                vt, slope = base if vt < base else top if vt > top else vt, p * p   # as `eval`
            else:
                vt, slope = self.eval(t), self.ztilde_sq(t)
            seen[t] = vt
            ft = vt - y
            lo, hi = (lo, t) if ft > 0.0 else (t, hi)
            # Newton step on the stored derivative, safeguarded by the bracket;
            # a step below two ulps of t is left to the search below
            step = ft / slope if slope > 1e-18 else math.inf
            if abs(step) <= 2.0 * math.ulp(t) or hi - lo <= 4.0 * math.ulp(hi):
                break
            t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
        # the best double among t and its four neighbours on either side
        below, above = [t], [t]
        for _ in range(4):
            below.append(math.nextafter(below[-1], -math.inf))
            above.append(math.nextafter(above[-1], math.inf))
        cands = [c for c in below[:0:-1] + above if self.t_lo <= c <= self.t_hi]
        vals = []
        for c in cands:
            if c in seen:
                v = seen[c]
            elif e_lo < c < e_hi:   # phi_1(c), as `eval` gives it
                v = base + _clenshaw_rev(rest, head, (c - mid) / half)
                v = base if v < base else top if v > top else v
            else:
                v = self.eval(c)
            vals.append(v)
        resids = [abs(v - y) for v in vals]
        best = resids.index(min(resids))
        resid = resids[best]
        # no double comes closer when y lies between the values of the best's
        # two neighbours, or, at a domain end, between the end's value and its
        # inner neighbour's
        at = cands[best]
        under = vals[best - 1] if best > 0 else vals[0] if at == self.t_lo else math.inf
        over = (vals[best + 1] if best + 1 < len(vals)
                else vals[-1] if at == self.t_hi else -math.inf)
        if not (resid <= 1e-10 or under <= y <= over):
            raise ConvergenceError(f"ladder inversion stalled at |phi - y| = {resid:.2e}")
        return at

    def save(self, path) -> None:
        """Write the table to `path`, under exactly that name, as a version-3
        `.npz` of the checkpoints, panel coefficients and configuration
        (with the fixed `_BASE_H` as `h`); replaced atomically."""
        ev = self.evaluator
        fields = {
            "version": _CACHE_VERSION, "config_hash": self.config_hash(),
            "t_lo": self.t_lo, "t_hi": self.t_hi, "anchor_t0": self.anchor_t0,
            "h": _BASE_H, "tol": self.build_tolerance,
            "rs_correction_order": ev.rs_correction_order,
            "oracle_terms": ev.oracle_terms, "t_min_rs": ev.t_min_rs,
            "anchor_value": self.anchor_value, "residual_total": self.residual_total,
            "edges": self.edges, "phi": self.phi, "coef": self.coef,
        }
        with atomic_writer(path) as fh:
            np.savez(fh, **fields)

    @classmethod
    def load(cls, path, evaluator: ZEvaluator) -> "LadderTable":
        """The table `save` wrote to `path`.  Raises `CacheError` for a file
        that is not such a cache, whose data contradict the configuration it
        records, the evaluator's, or each other, or whose certificate
        `residual_total` is not in [0, tol]."""
        try:
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as doc:
                if int(doc["version"]) != _CACHE_VERSION:
                    raise CacheError(f"ladder cache {path} has unsupported version")
                b = {key: doc[key].item() for key in _CACHE_SCALARS}
                table = cls(evaluator=evaluator, build_tolerance=b["tol"],
                            edges=doc["edges"], phi=doc["phi"], coef=doc["coef"],
                            residual_total=b["residual_total"])
        except (OSError, EOFError, KeyError, IndexError, TypeError, ValueError,
                AttributeError, zipfile.BadZipFile) as exc:
            raise CacheError(f"ladder cache {path} unreadable: {exc}") from exc
        if (evaluator.rs_correction_order, evaluator.oracle_terms, evaluator.t_min_rs,
                _BASE_H) != (b["rs_correction_order"], b["oracle_terms"], b["t_min_rs"], b["h"]):
            raise CacheError("ladder cache was built with a different evaluator config "
                             "or base panel width")
        if b["config_hash"] != table.config_hash():
            raise CacheError("ladder cache config hash mismatch; refusing to reuse")
        edges, phi, coef = table.edges, table.phi, table.coef
        if not (edges.ndim == phi.ndim == 1 and len(edges) == len(phi) >= 2
                and coef.shape == (len(edges) - 1, _DEGREE + 1)):
            raise CacheError("ladder cache needs equal-length 1-D checkpoints and "
                             "values, and one coefficient row per panel")
        if not all(np.all(np.isfinite(a)) for a in (edges, phi, coef)):
            raise CacheError("ladder cache data are not finite")
        if not (np.all(np.diff(edges) > 0.0)
                and (b["t_lo"], b["t_hi"]) == (table.t_lo, table.t_hi)):
            raise CacheError("ladder cache checkpoints do not increase strictly "
                             "from t_lo to t_hi")
        k0 = int(np.searchsorted(edges, table.anchor_t0))
        if not (b["anchor_t0"] == table.anchor_t0 and edges[k0] == table.anchor_t0
                and phi[k0] == b["anchor_value"]):
            raise CacheError("ladder cache anchor is not a checkpoint holding "
                             "the anchor value")
        tol, residual = table.build_tolerance, table.residual_total
        if not (0.0 < tol < math.inf and 0.0 <= residual <= tol):   # NaN fails
            raise CacheError(f"ladder cache certificate residual_total {residual!r} "
                             f"is not in [0, tol] for a positive finite tol {tol!r}")
        ulps = np.spacing(np.maximum(np.abs(phi[:-1]), np.abs(phi[1:])))
        if not (np.all(np.diff(phi) >= 0.0)
                and np.all(np.abs(np.diff(phi) - _square_integrals(coef, table._half))
                           <= 4.0 * ulps)):
            raise CacheError("ladder cache values decrease or disagree with the "
                             "integrals of their panel polynomials")
        return table


def _base_edges(t_lo: float, t_hi: float, anchor_t0: float, seam: float) -> np.ndarray:
    """Checkpoint grid of step `_BASE_H` through anchor_t0, which is so a
    checkpoint, clamped to [t_lo, t_hi] (inner points that rounding puts at
    or past an end are dropped), plus the RS/oracle seam, where the computed
    Ztilde^2 jumps ~1e-7."""
    n_down = int(math.ceil((anchor_t0 - t_lo) / _BASE_H - 1e-12))
    n_up = int(math.ceil((t_hi - anchor_t0) / _BASE_H - 1e-12))
    inner = anchor_t0 + _BASE_H * np.arange(-n_down + 1, n_up, dtype=float)
    inner = inner[(inner > t_lo) & (inner < t_hi)]
    edges = np.concatenate([[t_lo], inner, [t_hi]])
    if t_lo < seam < t_hi and seam not in edges:
        edges = np.insert(edges, np.searchsorted(edges, seam), seam)
    return edges


def build_ladder(evaluator: ZEvaluator, t_lo: float, t_hi: float,
                 tol: float = 1e-8) -> LadderTable:
    """Construct phi_1 on [t_lo, t_hi] anchored by the retardation law.

    phi_1(t) = anchor_value + int_{anchor_t0}^t p^2, with the anchor
    anchor_t0 = min(t_lo + 10, t_hi) (`_anchor`) and anchor_value =
    anchor_t0 - (1 - c) pi(anchor_t0), where p interpolates Z / sqrt(ln t) at
    33 Chebyshev-Lobatto points per panel.  A panel is checked by the
    integral of the interpolant through the nested 17 points against its
    width's share of `tol`; round 0 is the base grid of step `_BASE_H`, and
    each later round holds the halves of the panels that failed the round
    before.
    """
    t_lo, t_hi = float(t_lo), float(t_hi)
    if not _E + 1.0 <= t_lo:   # NaN fails
        raise DomainError("require e + 1 <= t_lo")
    if not 0.0 < t_hi - t_lo <= 1e6:   # NaN fails
        raise DomainError("require 0 < t_hi - t_lo <= 1e6")
    if not 0.0 < tol < math.inf:   # NaN fails
        raise DomainError("build tolerance must be positive and finite")

    anchor_t0 = _anchor(t_lo, t_hi)
    base = _base_edges(t_lo, t_hi, anchor_t0, seam=evaluator.t_min_rs)
    n_base = len(base) - 1
    span = t_hi - t_lo
    eps = np.finfo(float).eps

    def panel_batch(lo, hi):
        """Per panel: coefficients of p, its integral, the residual against
        the degree-16 interpolant, and the roundoff floor.  The floor models
        the evaluation noise of Z (phase ~ theta(t) times eps, scaled into
        Ztilde^2); unresolved structure exceeds it by many orders."""
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * _X32[None, :]
        # a panel ending on or below the RS/oracle seam takes the oracle at
        # every node, its end node on the seam too: Z's two routes differ
        # there by ~1e-6, a kink no halving of the panel converges on
        low = hi <= evaluator.t_min_rs
        zs = np.empty_like(nodes)
        zs[low] = evaluator.z_oracle(nodes[low])
        zs[~low] = evaluator.z(nodes[~low])
        g = zs / np.sqrt(np.log(nodes))
        coef = _cheb_coef(g, _COEF32)
        value = _steps(_antiderivative(coef, half))
        check = _steps(_antiderivative(_cheb_coef(g[:, ::2], _COEF16), half))
        zmax = np.abs(zs).max(axis=1)
        phase = np.abs(evaluator.theta(mid)) + mid
        floor = 32.0 * eps * (hi - lo) * phase * (zmax + 1.0) / np.log(mid)
        return coef, value, np.abs(value - check), floor

    # kept panels remember whether they were certified by their budget share
    # (systematic part) or only by the noise floor (random part, accumulated
    # in quadrature below)
    kept = []   # per round: left edges, coefficients, integrals, residuals, by budget
    lo, hi = base[:-1], base[1:]
    rounds, panel_total = 0, n_base
    panel_cap = max(4 * n_base, n_base + 100_000)
    while True:
        coef, val, res, floor = (np.concatenate(part) for part in zip(*(
            panel_batch(lo[i:i + _BUILD_CHUNK], hi[i:i + _BUILD_CHUNK])
            for i in range(0, len(lo), _BUILD_CHUNK))))
        budget = tol * (hi - lo) / span
        ok = res <= np.maximum(budget, floor)
        bad = ~ok
        kept.append((lo[ok], coef[ok], val[ok], res[ok], res[ok] <= budget[ok]))
        lo, hi = lo[bad], hi[bad]
        if not len(lo):
            break
        rounds, panel_total = rounds + 1, panel_total + len(lo)
        if rounds > _MAX_SPLIT_ROUNDS or panel_total > panel_cap:
            seams = "; ".join(f"n = {n} at t = {t:.2f}, Z jumps {jump:.1e}"
                              for n, t, jump in evaluator.rs_seams(lo, hi))
            raise ToleranceNotMetError(
                f"panel refinement exhausted ({len(lo)} panels still above "
                f"their tolerance share after {rounds - 1} rounds)"
                + (f"; they hold seams t = 2 pi n^2 of the Riemann-Siegel main "
                   f"sum, where Z jumps and no halving converges ({seams}): "
                   f"try a looser tol" if seams else ""))
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])

    lo_fin = np.concatenate([part[0] for part in kept])
    order = np.argsort(lo_fin, kind="stable")
    edges = np.append(lo_fin[order], t_hi)
    coef_fin, val_fin, res_fin, by_budget = (
        np.concatenate(part)[order] for part in list(zip(*kept))[1:])

    # certified build error: budget-met residuals may be systematic and sum
    # linearly (bounded by tol via the shares); floor-only residuals are
    # measured roundoff noise, zero-mean across panels, and accumulate in
    # quadrature.  If even this certificate misses tol, the tolerance is
    # unattainable in double precision.
    certified = (float(np.sum(res_fin[by_budget]))
                 + float(np.sqrt(np.sum(res_fin[~by_budget] ** 2))))
    if certified > tol:
        raise ToleranceNotMetError(
            f"build tolerance {tol:.3e} unattainable: certified error "
            f"{certified:.3e} (roundoff-noise bound) on [{t_lo}, {t_hi}]")

    prefix = np.concatenate([[_LD(0.0)], np.cumsum(val_fin.astype(_LD))])
    k0 = int(np.searchsorted(edges, anchor_t0))   # a checkpoint by `_base_edges`
    anchor_value = anchor_t0 - ONE_MINUS_C * prime_pi(anchor_t0)
    phi = (np.longdouble(anchor_value) + (prefix - prefix[k0])).astype(float)

    return LadderTable(evaluator=evaluator, build_tolerance=tol, edges=edges,
                       phi=phi, coef=coef_fin, residual_total=certified)


# ---------------------------------------------------------------------------
# module-level operations in terms of a built table

def check_admissible(T: float, U: float) -> None:
    """0 < U <= T / ln T, which needs T > 1 (NaN is neither)."""
    if not (T > 1.0 and 0.0 < U <= T / math.log(T)):
        raise AdmissibilityError(
            f"T = {T}, U = {U} violates admissibility T > 1, 0 < U <= T/ln T")


@dataclass(frozen=True)
class RetardationRow:
    t: float
    lag: float                # t - phi_1(t)
    expected: float           # (1 - c) * pi(t)
    ratio: float


def retardation_report(table: LadderTable, sample_ts) -> list[RetardationRow]:
    """Rows (t, t - phi_1(t), (1-c) pi(t), ratio); ratio is 1 at the anchor."""
    ts = np.atleast_1d(np.asarray(sample_ts, dtype=float))
    lags = ts - table.eval(ts)
    expected = ONE_MINUS_C * prime_pi(ts)
    return [RetardationRow(t=t, lag=lag, expected=e, ratio=lag / e if e else math.inf)
            for t, lag, e in zip(ts.tolist(), lags.tolist(), expected.tolist())]
