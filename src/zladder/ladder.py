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
versioned, validated `.npz`, written atomically.

A panel's antiderivative row is built the first time a float or a batch
lands in its aligned block of `_ANTI_BLOCK` panels, with the rest of the
block; a batch whose blocks hold more panels than it has points builds only
the panels it lands on.  `eval` of one float runs on Python floats (one
panel's phi_1 column, read from the table's row on each call in the order
the Clenshaw recurrence takes it), with the array path's IEEE operations in
the same order, so a point has the same bits either way.  `invert` takes
one float and returns the double that a bisection over the doubles of the
panel bracketing it finds, so its answer depends on y alone: Newton,
started from a float32 table of phi_1's rise and slope at the Lobatto
points built for a block on its first invert, gets near it, and a search
over the doubles' bit patterns lands on it, reading phi_1 as `eval` gives
it.
The recurrences are `specfun.orthopoly`'s.  A verification window
works in a panel's own coordinate x, which resolves a panel to ~1e-16 at
any t: `locate` and `solve_rise` find its ends, and `slopes` the mean slope
of phi_1 between two points without cancellation (`_mean_slopes`), on
Python floats for one point and with the same bits as on arrays.
"""

from __future__ import annotations

import bisect
import contextlib
import lzma
import math
import os
import struct
import threading
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from .exceptions import (AdmissibilityError, CacheError, ConvergenceError,
                         DomainError, ToleranceNotMetError)
from .rszeta import ZEvaluator, config_digest
from .specfun.orthopoly import _clenshaw, _clenshaw_rev

EULER_C = 0.5772156649015329
ONE_MINUS_C = 1.0 - EULER_C

_E = math.e
_LD = np.longdouble
_CACHE_VERSION = 3

_BASE_H = 1.0                # width of the base panels, before any halving
_DEGREE = 32                 # of p on every panel; the check uses DEGREE / 2
# panels per evaluation batch; it also fixes the batches Z is evaluated in,
# and with them Z's bits (see ZEvaluator), so changing it moves ladder bits
_BUILD_CHUNK = 3000
# the aligned blocks of panels whose antiderivative rows a point's first
# lookup builds in one call: the call's overhead, not its rows, dominates
# (one row ~0.35 ms, 64 ~0.55 ms, 500 ~1.0 ms), unless a sparse batch's
# blocks hold more panels than it has points
_ANTI_BLOCK = 64
_MAX_SPLIT_ROUNDS = 30
_EPS = float(np.finfo(float).eps)
_PANEL_RULE = "cheb32-lobatto+cheb16"


_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")


def _bits(t: float) -> int:   # of a positive double, in the doubles' order
    return _I64.unpack(_F64.pack(t))[0]


def _double(n: int) -> float:
    return _F64.unpack(_I64.pack(n))[0]


def _bisect(value, level, below: int, above: int, known: int = 0,
            reach: float = math.inf) -> float:
    """The double a bisection between the bit patterns below < above finds
    where value(below) < level <= value(above): the first at which value
    reaches level, if it does not decrease.  A midpoint more than `reach`
    patterns from `known` is judged by its side of `known`, unevaluated."""
    while above - below > 1:
        m = (below + above) // 2
        if (m >= known if abs(m - known) > reach else value(_double(m)) >= level):
            above = m
        else:
            below = m
    return _double(above)


def _anchor(t_lo: float, t_hi: float) -> float:
    """The anchor of the ladder on [t_lo, t_hi]: 10 units above t_lo, or t_hi
    on a narrower domain."""
    return min(t_lo + 10.0, t_hi)


def _anchor_value(anchor_t0: float) -> float:
    """phi_1 at the anchor by the retardation law: anchor_t0 - (1 - c)
    pi(anchor_t0)."""
    return anchor_t0 - ONE_MINUS_C * prime_pi(anchor_t0)


def ladder_config_hash(evaluator: ZEvaluator, t_lo: float, t_hi: float,
                       tol: float) -> str:
    """Hash of the configuration that determines a built ladder.  Cache
    files are named by it and carry it, and every report row records it."""
    t_lo, t_hi = float(t_lo), float(t_hi)
    payload = (f"ladder(t_lo={t_lo!r},t_hi={t_hi!r},"
               f"anchor={_anchor(t_lo, t_hi)!r},h={_BASE_H!r},"
               f"tol={float(tol)!r},rule={_PANEL_RULE},"
               f"z={evaluator.config_hash()})")
    return config_digest(payload)


_PI_STEP = 10**6
# pi(j * _PI_STEP) for j = 0..100
_PI_AT_STEPS = np.array([
    0, 78498, 148933, 216816, 283146, 348513, 412849, 476648, 539777, 602489,
    664579, 726517, 788060, 849252, 910077, 970704, 1031130, 1091314, 1151367, 1211050,
    1270607, 1329943, 1389261, 1448221, 1507122, 1565927, 1624527, 1683065, 1741430, 1799676,
    1857859, 1915979, 1973815, 2031667, 2089379, 2146775, 2204262, 2261623, 2318966, 2376402,
    2433654, 2490756, 2547620, 2604535, 2661384, 2718160, 2775053, 2831693, 2888144, 2944531,
    3001134, 3057494, 3113843, 3170052, 3226203, 3282200, 3338330, 3394435, 3450336, 3506314,
    3562115, 3618045, 3673600, 3729306, 3785086, 3840554, 3896123, 3951767, 4007342, 4062674,
    4118064, 4173373, 4228658, 4284089, 4339254, 4394304, 4449611, 4504535, 4559544, 4614444,
    4669382, 4724409, 4779430, 4834317, 4889139, 4943731, 4998470, 5053180, 5107832, 5162565,
    5216954, 5271659, 5326237, 5380681, 5435104, 5489749, 5544201, 5598565, 5652996, 5707123,
    5761455,
])


def _odd_sieve(lo: int, m: int, divisors) -> np.ndarray:
    """Entry i: whether lo + 2 i + 1 is prime, for i < m and an even lo >=
    0.  `divisors` are odd numbers that include every odd prime up to
    sqrt(lo + 2 m - 1); each strikes its odd multiples from its square on."""
    sieve = np.ones(m, dtype=bool)
    if lo == 0:
        sieve[:1] = False   # 1 is not prime
    for p in divisors:
        q = max(p * p, (lo // p + 1) * p)   # p's first multiple past lo, from p^2 on
        if q % 2 == 0:
            q += p
        sieve[(q - lo - 1) // 2::p] = False
    return sieve


def prime_pi(t) -> int | np.ndarray:
    """pi(t) = #{primes <= t} for 0 <= t <= 1e8: the frozen count
    `_PI_AT_STEPS` at the last multiple j 1e6 <= t, plus the odd primes in
    (j 1e6, t] from a sieve of that segment's odd numbers (`_odd_sieve`),
    sieved once for all its points, up to the largest; the prime 2 is
    counted apart."""
    ta = np.asarray(t, dtype=float)
    if not np.all((ta >= 0.0) & (ta <= 1e8)):   # NaN fails
        raise DomainError("prime_pi requires 0 <= t <= 1e8")
    n = np.floor(ta.ravel()).astype(np.int64)   # pi(t) = pi(floor t)
    seg = n // _PI_STEP
    counts = _PI_AT_STEPS[seg] + ((n >= 2) & (seg == 0))
    root = math.isqrt(int(n.max(initial=0)))
    base = (2 * np.flatnonzero(_odd_sieve(0, (root + 1) // 2,
                                          range(3, math.isqrt(root) + 1, 2))) + 1).tolist()
    for j in sorted(set(seg.tolist())):   # np.unique(seg) would import numpy.ma, 1.2 MB
        at = np.flatnonzero(seg == j)
        lo = j * _PI_STEP
        # the odd numbers in (lo, n] are the first (n - lo + 1) // 2 past lo;
        # the sieve is counted between the sorted ends that the points query
        ends, where = np.unique((n[at] - lo + 1) // 2, return_inverse=True)
        sieve = _odd_sieve(lo, int(ends[-1]), base)
        bounds = [0, *ends.tolist()]
        counts[at] += np.cumsum([np.count_nonzero(sieve[a:b])
                                 for a, b in zip(bounds, bounds[1:])])[where]
    return counts.reshape(ta.shape) if ta.ndim else int(counts[0])


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
# T_j(x) = cos(j arccos x) at the points _X32, for the degrees of the
# antiderivative of p^2 (p's are its first 33 columns)
_T_AT_X32 = np.cos(np.outer(np.pi * np.arange(_DEGREE, -1, -1) / _DEGREE,
                            np.arange(2 * _DEGREE + 2)))
_X32_FLOATS = _X32.tolist()


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
    products = np.empty((n - 1, c.shape[1]))   # every degree's cross products
    for i, ci in enumerate(c):
        square = ci * ci
        sq[2 * i] += square
        sq[0] += square
        cross = np.multiply(2.0 * ci, c[i + 1:], out=products[:n - 1 - i])
        sq[2 * i + 1:i + n] += cross
        sq[1:n - i] += cross
    sq[0] *= 2.0
    anti = np.zeros((2 * n, c.shape[1]))
    np.subtract(sq[:-2], sq[2:], out=anti[1:])
    anti[1:] /= (4.0 * np.arange(1, 2 * n))[:, None]
    anti[0] = -_clenshaw(anti, np.full(c.shape[1], -1.0), slice(None))
    anti *= half
    return anti


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
_GRAM_CHUNK = 1024   # panels per block of the quadratic form


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
            out[lo:lo + _GRAM_CHUNK] += sum(cp * gc)   # in row order, one-panel blocks too
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
        self.phi_lo, self.phi_hi = float(self.phi[0]), float(self.phi[-1])
        self.anchor_t0 = _anchor(self.t_lo, self.t_hi)
        # phi_1 at the anchor checkpoint: anchor_t0 - (1 - c) pi(anchor_t0)
        self.anchor_value = self.phi.item(int(np.searchsorted(self.edges, self.anchor_t0)))
        self._mid = 0.5 * (self.edges[:-1] + self.edges[1:])
        self._half = 0.5 * (self.edges[1:] - self.edges[:-1])
        # the antiderivative of p^2, one row per panel, built on first use
        # (racing threads write equal bits; a row is read only once built),
        # and the rows `invert` starts from, by aligned block (`_node_rows`)
        self._anti = np.empty((len(self._half), 2 * _DEGREE + 2))
        self._built = np.zeros(len(self._half), dtype=bool)
        self._nodes = {}

    def config_hash(self) -> str:
        return ladder_config_hash(self.evaluator, self.t_lo, self.t_hi,
                                  self.build_tolerance)

    def _anti_rows(self, k) -> np.ndarray:
        """The antiderivative table, with the rows built of every aligned
        block of `_ANTI_BLOCK` panels that the panel or the points' panels
        `k` touch, or only of the panels `k` where those blocks hold more
        panels than `k` has entries: no call builds more rows than
        max(len(k), `_ANTI_BLOCK`).  A panel's row does not depend on the
        others built with it."""
        if not self._built[k].all():
            blocks = np.zeros(-(-len(self._built) // _ANTI_BLOCK), dtype=bool)
            blocks[np.asarray(k) // _ANTI_BLOCK] = True
            if np.count_nonzero(blocks) * _ANTI_BLOCK <= max(np.size(k), _ANTI_BLOCK):
                new = np.repeat(blocks, _ANTI_BLOCK)[:len(self._built)]
            else:
                new = np.zeros_like(self._built)
                new[k] = True
            todo = np.flatnonzero(new & ~self._built)
            self._anti[todo] = _antiderivative(self.coef[todo], self._half[todo]).T
            self._built[todo] = True
        return self._anti

    def _node_rows(self, k: int) -> np.ndarray:
        """Panel k's (2, 33) float32 rows: phi_1's rise from the panel's
        lower checkpoint value (clamped to the panel's rise, as `eval` clamps
        phi_1) and d(phi_1)/dx = half p^2 at its Lobatto points.  They are
        built for the panel's aligned block of `_ANTI_BLOCK` the first time,
        by two `einsum` contractions of the block's rows with the T_j at the
        points (no BLAS), and kept by block.  They only start `invert`'s
        solve, so no bit of an inverse hangs on theirs."""
        b, i = divmod(k, _ANTI_BLOCK)
        rows = self._nodes.get(b)
        if rows is None:
            a, z = b * _ANTI_BLOCK, min((b + 1) * _ANTI_BLOCK, len(self._half))
            rise = np.einsum("kj,ij->ki", self._anti_rows(np.arange(a, z))[a:z], _T_AT_X32)
            p = np.einsum("kj,ij->ki", self.coef[a:z], _T_AT_X32[:, :_DEGREE + 1])
            top = (self.phi[a + 1:z + 1] - self.phi[a:z])[:, None]
            rows = np.empty((z - a, 2, _DEGREE + 1), dtype=np.float32)
            rows[:, 0] = np.minimum(np.maximum(rise, 0.0), top)
            rows[:, 1] = self._half[a:z, None] * (p * p)
            rows = self._nodes.setdefault(b, rows)   # racing threads build equal rows
        return rows[i]

    def _phi_column(self, k: int) -> tuple:
        """Panel k's antiderivative as Python floats, as `_clenshaw_rev`
        takes it: its reversed tail and head, read from the table's row on
        each call, so nothing is kept per panel (`_anti_rows` builds it)."""
        if not self._built.item(k):
            self._anti_rows(k)
        return self._anti[k, :0:-1].tolist(), self._anti.item(k, 0)

    def _columns(self, k: int) -> tuple:   # `_phi_column(k)`, then p's the same way
        return *self._phi_column(k), self.coef[k, :0:-1].tolist(), self.coef.item(k, 0)

    def _panels(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """t flattened, its panel indices and its coordinates on them."""
        flat = np.atleast_1d(np.asarray(t, dtype=float)).astype(float).ravel()
        if not (np.all(flat >= self.t_lo) and np.all(flat <= self.t_hi)):   # NaN fails
            raise DomainError(f"ladder evaluation outside [{self.t_lo}, {self.t_hi}]")
        k = np.minimum(np.searchsorted(self.edges, flat, side="right") - 1,
                       len(self._half) - 1)
        return flat, k, (flat - self._mid[k]) / self._half[k]

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
            if not self.t_lo <= t <= self.t_hi:   # NaN fails
                raise DomainError(f"ladder evaluation outside [{self.t_lo}, {self.t_hi}]")
            if t == self.t_hi:
                return self.phi_hi
            k = int(self.edges.searchsorted(t, side="right")) - 1   # t < t_hi: a panel
            lo = self.phi.item(k)
            if t == self.edges.item(k):
                return lo
            x = (float(t) - self._mid.item(k)) / self._half.item(k)   # a Python float
            v = lo + _clenshaw_rev(*self._phi_column(k), x)
            return min(max(v, lo), self.phi.item(k + 1))
        flat, k, x = self._panels(t)
        out = self.phi[k] + _clenshaw(self._anti_rows(k).T, x, k)
        out = np.minimum(np.maximum(out, self.phi[k]), self.phi[k + 1])
        exact = self.edges[k] == flat
        out[exact] = self.phi[k[exact]]
        out[flat == self.t_hi] = self.phi_hi
        return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))

    def slopes(self, k, x0, x) -> tuple:
        """At the points x0 and x of the panels k (arrays of one shape), in
        the panel's own coordinate: t at x, the mean slope of phi_1 in x from
        x0 to x (`_mean_slopes`, so a rise between close points keeps its
        relative precision), and the slope d(phi_1)/dx = half_k p^2 at x.
        Each point is evaluated on its own, and a float x0 and x on one panel
        run on the panel's columns (`_columns`) as Python floats, with the
        same bits as a 1-element array."""
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
        k = min(int(self.phi.searchsorted(y, side="right")) - 1, len(self._half) - 1)
        return k, self.solve_rise(k, -1.0, y - self.phi.item(k))

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

    def invert(self, y: float) -> float:
        """The double t that a bisection over the doubles of the panel whose
        checkpoint values bracket y finds, for one float y, with phi_1 as
        `eval` gives it (a checkpoint value returns its checkpoint): where
        phi_1's values do not decrease, the panel's lowest double of least
        |phi_1(t) - y|.  It depends on y alone: |phi_1(t) - y| <= 1e-10, or
        no double comes closer (phi_1 can rise by more than 2e-10 from one
        double t to the next where Ztilde^2 ulp(t) > 2e-10, from t ~ 1e5 up).

        t is u, the first double at which phi_1 reaches y, or, when the
        double below u is at least as near, the first at which phi_1 reaches
        that double's value.  Newton on Python floats starts from the panel's
        table of phi_1's rise and slope at the Lobatto points (`_node_rows`):
        two steps on the cubic Hermite interpolant h between the two points
        whose rises bracket y's, then steps on h's slope, one pass each.  A
        search from the last iterate gallops towards the crossing by 1, 2,
        4, ... doubles, then bisects, over the doubles' bit patterns.  Where
        phi_1 rises by less than its rounding noise per double, its values
        can fall by one ulp and cross a level more than once; there the
        panel's bisection is run, evaluating only its midpoints near the
        crossing.  One reader, `value`, gives phi_1 at a point as `eval`
        does, each point once: strictly inside the panel from one
        `_clenshaw_rev` pass over the panel's column, elsewhere through
        `eval`.  p is taken (one more pass) only to judge the slope at a
        crossing that the noise may blur.
        """
        y = float(y)
        if not self.phi_lo <= y <= self.phi_hi:   # NaN fails
            raise DomainError(f"inversion target outside [{self.phi_lo}, {self.phi_hi}]")
        j = int(self.phi.searchsorted(y, side="left"))
        if self.phi.item(j) == y:
            return self.edges.item(j)
        k = j - 1
        lo, hi = e_lo, e_hi = self.edges.item(k), self.edges.item(j)
        base, top = self.phi.item(k), self.phi.item(j)
        mid, half = self._mid.item(k), self._half.item(k)
        rises, slopes = self._node_rows(k).tolist()
        rest, head = self._phi_column(k)
        seen = {}   # phi_1 of each point evaluated so far

        def value(c):   # phi_1(c) as `eval` gives it, evaluated once
            v = seen.get(c)
            if v is None:
                if e_lo < c < e_hi:
                    v = base + _clenshaw_rev(rest, head, (c - mid) / half)
                    v = base if v < base else top if v > top else v
                else:
                    v = self.eval(c)
                seen[c] = v
            return v

        # the start: the Lobatto points whose rises bracket y's, and Newton
        # on the cubic Hermite interpolant h(s) of the rise between them
        # (s in [0, 1])
        rise = y - base
        i = min(max(bisect.bisect_right(rises, rise), 1), _DEGREE)
        x0, dx = _X32_FLOATS[i - 1], _X32_FLOATS[i] - _X32_FLOATS[i - 1]
        v0, dv = rises[i - 1], rises[i] - rises[i - 1]
        d0, d1 = slopes[i - 1] * dx, slopes[i] * dx
        s, slope = 0.5, 0.0
        if dv > 0.0:
            s = min(max((rise - v0) / dv, 0.0), 1.0)
        for _ in range(2):
            r = 1.0 - s
            slope = 6.0 * s * r * dv + r * (r - 2.0 * s) * d0 + s * (s - 2.0 * r) * d1
            if not slope > 0.0:
                break
            h = v0 + s * s * (3.0 - 2.0 * s) * dv + s * r * (r * d0 - s * d1)
            s = min(max(s - (h - rise) / slope, 0.0), 1.0)
        t = min(max(mid + half * (x0 + s * dx), e_lo), e_hi)
        slope /= half * dx   # d(phi_1)/dt of h, which every step below takes
        for _ in range(80):
            ft = value(t) - y
            lo, hi = (lo, t) if ft > 0.0 else (t, hi)
            # a Newton step on h's slope (a chord), safeguarded by the bracket;
            # a step below two ulps of t is left to the search below
            step = ft / slope if slope > 1e-18 else math.inf
            if abs(step) <= 2.0 * math.ulp(t) or hi - lo <= 4.0 * math.ulp(hi):
                break
            t = t - step if lo < t - step < hi else 0.5 * (lo + hi)

        # phi_1's Clenshaw sum is exact to within `noise` (2.2 eps (top -
        # base) at most, measured on ladders from t = 20 to 1e6), so its
        # rounded values can fall by one ulp from one double to the next only
        # where phi_1 rises by less than 2 noise per double
        noise = 16.0 * _EPS * (top - base)

        def first_reaching(level, t):
            """The double that a bisection over the panel's doubles (their bit
            patterns, from phi_1(e_lo) < level <= phi_1(e_hi)) finds: on
            values that do not decrease, the first at which phi_1 reaches
            `level`, searched for from t."""
            if level <= base:   # phi_1(e_lo) = base
                return e_lo
            down = value(t) >= level
            # strides of 1, 2, 4, ... doubles towards the edge until phi_1
            # crosses level, then a bisection over the doubles' bit patterns
            n, end, stride = _bits(t), _bits(e_lo if down else e_hi), 1
            while True:
                m = max(n - stride, end) if down else min(n + stride, end)
                if (value(_double(m)) >= level) != down:
                    break
                n, stride = m, 2 * stride
            u = _bisect(value, level, *((m, n) if down else (n, m)))
            # phi_1 crosses level at u, and may again only within `near`
            # doubles of it, by its slope there (h's, unless that is within
            # a factor 64, then p^2 itself); within them the panel's own
            # bisection is run, each midpoint it meets there evaluated
            near = 2.0 * noise / (slope * math.ulp(u)) if slope > 0.0 else math.inf
            if near >= 1.0 / 64.0:
                p = _clenshaw_rev(self.coef[k, :0:-1].tolist(), self.coef.item(k, 0),
                                  (u - mid) / half)
                near = 2.0 * noise / (p * p * math.ulp(u)) if p != 0.0 else math.inf
            if near < 1.0:
                return u
            return _bisect(value, level, _bits(e_lo), _bits(e_hi), _bits(u), near + 2.0)

        u = first_reaching(y, t)
        b = math.nextafter(u, -math.inf)   # at least e_lo, whose value is below y
        if value(u) - y < y - value(b):
            return u
        return first_reaching(value(b), b)

    def save(self, path) -> None:
        """Write the table to `path`, under exactly that name, as a version-3
        `.npz` of its config hash (which names the anchor, `_BASE_H` and the
        evaluator), tolerance, certificate, checkpoints, values and panel
        coefficients; replaced atomically (`_atomic_writer`)."""
        with _atomic_writer(path) as fh:
            np.savez(fh, version=_CACHE_VERSION, config_hash=self.config_hash(),
                     tol=self.build_tolerance, residual_total=self.residual_total,
                     edges=self.edges, phi=self.phi, coef=self.coef)

    @classmethod
    def load(cls, path, evaluator: ZEvaluator) -> "LadderTable":
        """The table `save` wrote to `path` (other members are not read).
        Raises `CacheError` for a file that is not such a cache (edges, phi
        and coef of dtype float64, never cast), whose config hash is not the
        evaluator's for its span and tol, whose data contradict each other or
        the retardation law at the anchor (`_anchor_value`), or whose
        certificate `residual_total` is not in [0, tol]."""
        try:
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as doc:
                if int(doc["version"]) != _CACHE_VERSION:
                    raise CacheError(f"ladder cache {path} has unsupported version")
                config_hash = doc["config_hash"].item()
                edges, phi, coef = doc["edges"], doc["phi"], doc["coef"]
                if any((a.dtype.kind, a.dtype.itemsize) != ("f", 8) for a in (edges, phi, coef)):
                    raise CacheError(f"ladder cache {path} data are not float64: edges "
                                     f"{edges.dtype}, phi {phi.dtype}, coef {coef.dtype}")
                table = cls(evaluator=evaluator, build_tolerance=doc["tol"].item(),
                            edges=edges, phi=phi, coef=coef,
                            residual_total=doc["residual_total"].item())
        except (OSError, EOFError, KeyError, IndexError, TypeError, ValueError, AttributeError,
                NotImplementedError, zipfile.BadZipFile, zlib.error, lzma.LZMAError) as exc:
            raise CacheError(f"ladder cache {path} unreadable: {exc}") from exc
        if config_hash != table.config_hash():
            raise CacheError("ladder cache config hash mismatch; refusing to reuse")
        edges, phi, coef = table.edges, table.phi, table.coef
        if not (edges.ndim == phi.ndim == 1 and len(edges) == len(phi) >= 2
                and coef.shape == (len(edges) - 1, _DEGREE + 1)):
            raise CacheError("ladder cache needs equal-length 1-D checkpoints and "
                             "values, and one coefficient row per panel")
        if not all(np.all(np.isfinite(a)) for a in (edges, phi, coef)):
            raise CacheError("ladder cache data are not finite")
        if not np.all(np.diff(edges) > 0.0):
            raise CacheError("ladder cache checkpoints do not increase strictly")
        try:
            anchor_value = _anchor_value(table.anchor_t0)
        except DomainError as exc:   # an anchor past 1e8, which no build writes
            raise CacheError(f"ladder cache anchor: {exc}") from exc
        if not (edges[np.searchsorted(edges, table.anchor_t0)] == table.anchor_t0
                and table.anchor_value == anchor_value):
            raise CacheError("ladder cache anchor is not a checkpoint holding "
                             "anchor_t0 - (1 - c) pi(anchor_t0)")
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


@contextlib.contextmanager
def _atomic_writer(path):
    """A binary handle whose contents replace `path` only on clean exit: the
    data go to a temporary file in the same directory, which `os.replace`
    then renames over `path`.  A write that fails halfway leaves the previous
    file untouched and removes the temporary one.  This guards against
    failures of the writing process, not against power loss (no fsync)."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


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
    phi = (np.longdouble(_anchor_value(anchor_t0)) + (prefix - prefix[k0])).astype(float)

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
