"""Riemann-Siegel theta, the Hardy Z-function, and |zeta(1/2 + it)|^2.

Two independent evaluation routes are provided and cross-checked in tests:

* the Riemann-Siegel route (`z_rs`): main sum of length floor(sqrt(t/2pi))
  plus up to four remainder terms C_0..C_3 read from frozen Chebyshev tables;
* the oracle route (`z_oracle`): Euler-Maclaurin summation of zeta(1/2+it)
  with ~2t terms and Bernoulli corrections, carried out in extended precision,
  then rotated by e^{i theta(t)}.

theta itself also has two routes: the asymptotic series (`theta`) and the
exact definition through Im ln Gamma (`theta_oracle`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from ._rs_terms import RS_TERM_TABLES
from .exceptions import DomainError, PrecisionError
from .specfun.gamma import _BERNOULLI_2K, _log_gamma_cld

_TWO_PI = 2.0 * np.pi
_LD = np.longdouble
_CLD = np.clongdouble
_LN_PI_LD = np.log(_LD(np.pi))

_MAX_BLOCK = 4_000_000  # cap on len(t) * N per main-sum chunk

# the remainder tables stacked as rows (term j, coefficient k), and the
# coefficients the Clenshaw recurrence consumes, highest degree first, as
# (term, 1) columns ready to broadcast over a block of points
_RS_CHEB = np.stack(RS_TERM_TABLES)
_RS_CHEB_STEPS = np.ascontiguousarray(_RS_CHEB[:, :0:-1].T[:, :, None])
_CLENSHAW_CHUNK = 8192  # points per block: amortizes call overhead, stays in L2


def _rs_terms(p: np.ndarray, order: int) -> np.ndarray:
    """C_0(p)..C_{order-1}(p) on p in [0, 1] as an (order, len(p)) array.

    One Clenshaw pass serves every table at once, in place on rotating
    buffers.  Each element sees the same operations in the same order as a
    per-table recurrence (b <- (2u b0 - b1) + c_k, then u b0 - b1 + c_0), so
    the rows are bit-for-bit those of evaluating each table on its own.
    """
    out = np.empty((order, p.size))
    steps = _RS_CHEB_STEPS[:, :order]
    c0 = _RS_CHEB[:order, :1]
    bufs = np.empty((3, order, min(p.size, _CLENSHAW_CHUNK)))
    for start in range(0, p.size, _CLENSHAW_CHUNK):
        stop = min(p.size, start + _CLENSHAW_CHUNK)
        b0, b1, b2 = bufs[:, :, :stop - start]
        u = 2.0 * p[start:stop] - 1.0
        u2 = 2.0 * u
        b0.fill(0.0)
        b1.fill(0.0)
        for c in steps:
            np.multiply(u2, b0, out=b2)
            b2 -= b1
            b2 += c
            b0, b1, b2 = b2, b0, b1
        res = out[:, start:stop]
        np.multiply(u, b0, out=res)
        res -= b1
        res += c0
    return out


@dataclass(frozen=True)
class ZEvaluator:
    """Immutable evaluator configuration.

    Results are deterministic functions of (config, t) up to rounding: z_rs
    sums the main series of a batch out to the longest length floor(sqrt(t/2pi))
    among the points evaluated together, so a value can move by a few ulps
    (measured <= 4e-15 on [1e3, 7e3]) with the other points in its batch.  A
    batch whose points share that length gives bit-for-bit the scalar
    results; theta, the remainder terms and the oracle route are elementwise.

    rs_correction_order counts Riemann-Siegel remainder terms beyond the main
    sum (0..4; four terms keep |z_rs - z_oracle| below ~6e-7 on [1e2, 1e5],
    a single term is only good to ~3e-3).
    """

    rs_correction_order: int = 4
    oracle_terms: int = 8
    t_min_rs: float = 50.0

    def __post_init__(self):
        if self.rs_correction_order not in (0, 1, 2, 3, 4):
            raise DomainError("rs_correction_order must be in {0,1,2,3,4}")
        if not 2 <= self.oracle_terms <= 11:
            raise DomainError("oracle_terms must be in [2, 11]")
        if self.t_min_rs < _TWO_PI:
            raise DomainError("t_min_rs must be at least 2*pi")

    # -- theta ---------------------------------------------------------------

    def theta(self, t) -> float | np.ndarray:
        """Asymptotic theta(t) = (t/2) ln(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760 t^3).

        Absolute error <= 1e-10 for t >= 50 (measured ~1e-12 at t = 50).
        """
        ta = np.asarray(t, dtype=float)
        if np.any(ta < 1.0):
            raise DomainError("theta requires t >= 1")
        inv = 1.0 / ta
        out = (0.5 * ta * (np.log(ta / _TWO_PI) - 1.0) - np.pi / 8.0
               + inv / 48.0 + 7.0 / 5760.0 * inv ** 3)
        return out if ta.ndim else float(out)

    def theta_oracle(self, t) -> float | np.ndarray:
        """theta from the definition -(t/2) ln pi + Im ln Gamma(1/4 + it/2).

        Extended-precision log-Gamma keeps the continuous branch and ~1e-15
        absolute accuracy up to t = 1e6.
        """
        ta = np.asarray(t, dtype=float)
        if np.any(ta <= 0.0):
            raise DomainError("theta_oracle requires t > 0")
        flat = np.atleast_1d(ta)
        out = np.empty_like(flat)
        for i, ti in enumerate(flat):
            half_t = _LD(ti) / 2
            lg = _log_gamma_cld(_CLD(0.25) + _CLD(1j) * _CLD(half_t))
            out[i] = float(lg.imag - half_t * _LN_PI_LD)
        return out.reshape(ta.shape) if ta.ndim else float(out[0])

    # -- Riemann-Siegel route ------------------------------------------------

    def z_rs(self, t) -> float | np.ndarray:
        """Hardy Z(t) by the Riemann-Siegel formula; requires t >= t_min_rs."""
        ta = np.asarray(t, dtype=float)
        if np.any(ta < self.t_min_rs):
            raise DomainError(
                f"z_rs requires t >= t_min_rs = {self.t_min_rs}; use z_oracle below it")
        scalar = ta.ndim == 0
        flat = np.atleast_1d(ta).ravel()
        a = np.sqrt(flat / _TWO_PI)
        n_len = np.floor(a).astype(np.int64)
        theta_t = np.atleast_1d(np.asarray(self.theta(flat), dtype=float))

        out = np.empty_like(flat)
        start = 0
        while start < flat.size:
            stop = flat.size
            n_max = int(n_len[start:stop].max())
            block = max(1, _MAX_BLOCK // max(n_max, 1))
            stop = min(stop, start + block)
            sl = slice(start, stop)
            n_max = int(n_len[sl].max())
            n = np.arange(1, n_max + 1, dtype=float)
            phases = theta_t[sl, None] - flat[sl, None] * np.log(n)[None, :]
            terms = np.cos(phases) * (1.0 / np.sqrt(n))[None, :]
            terms[n[None, :] > n_len[sl, None]] = 0.0
            out[sl] = 2.0 * terms.sum(axis=1)
            start = stop

        if self.rs_correction_order > 0:
            rows = _rs_terms(a - n_len, self.rs_correction_order)
            corr = np.zeros_like(flat)
            fac = np.ones_like(flat)
            inv_a = 1.0 / a
            for row in rows:
                corr += row * fac
                fac = fac * inv_a
            sign = np.where(n_len % 2 == 1, 1.0, -1.0)
            out += sign * corr / np.sqrt(a)
        out = out.reshape(ta.shape) if ta.ndim else out
        return float(out[0]) if scalar else out

    # -- oracle route ----------------------------------------------------------

    def zeta_half(self, t: float) -> complex:
        """zeta(1/2 + i t) by Euler-Maclaurin with ~max(10, 2t) terms."""
        tf = float(t)
        if tf <= 0.0:
            raise DomainError("zeta_half requires t > 0")
        t_ld = _LD(tf)
        s = _CLD(0.5) + _CLD(1j) * _CLD(t_ld)
        n_cut = int(max(10, math.ceil(2.0 * tf)))
        main = _CLD(0.0)
        for lo in range(1, n_cut, 500_000):
            hi = min(n_cut, lo + 500_000)
            n = np.arange(lo, hi, dtype=_LD)
            ln_n = np.log(n)
            main = main + np.sum(np.exp(_LD(-0.5) * ln_n)
                                 * (np.cos(t_ld * ln_n) - _CLD(1j) * np.sin(t_ld * ln_n)))
        nn = _LD(n_cut)
        ln_nn = np.log(nn)
        n_pow = np.exp(_LD(-0.5) * ln_nn) * (np.cos(t_ld * ln_nn) - _CLD(1j) * np.sin(t_ld * ln_nn))
        res = main + nn * n_pow / (s - 1) + n_pow / 2
        poch = s
        for k in range(1, self.oracle_terms + 1):
            num, den = _BERNOULLI_2K[k - 1]
            coeff = _LD(num) / _LD(den * math.factorial(2 * k))
            res = res + coeff * poch * n_pow * nn ** _LD(1 - 2 * k)
            poch = poch * (s + 2 * k - 1) * (s + 2 * k)
        return complex(res)

    def _z_oracle_scalar(self, t: float) -> float:
        t_ld = _LD(float(t))
        zeta = self.zeta_half(t)
        lg = _log_gamma_cld(_CLD(0.25) + _CLD(1j) * _CLD(t_ld / 2))
        theta_ld = lg.imag - (t_ld / 2) * _LN_PI_LD
        zval = (np.cos(theta_ld) + _CLD(1j) * np.sin(theta_ld)) * _CLD(zeta)
        if abs(float(zval.imag)) > 1e-9:
            raise PrecisionError(
                f"z_oracle imaginary residue {float(zval.imag):.3e} exceeds 1e-9 at t={t}")
        return float(zval.real)

    def z_oracle(self, t) -> float | np.ndarray:
        """Hardy Z(t) = Re(e^{i theta} zeta(1/2+it)), Euler-Maclaurin route.

        Absolute accuracy ~1e-14 for t <= 1e5 and <= 1e-9 up to t = 1e6; the
        imaginary residue is asserted below 1e-9 and discarded.
        """
        ta = np.asarray(t, dtype=float)
        if np.any(ta <= 0.0):
            raise DomainError("z_oracle requires t > 0")
        if ta.ndim == 0:
            return self._z_oracle_scalar(float(ta))
        flat = ta.ravel()
        out = np.array([self._z_oracle_scalar(ti) for ti in flat])
        return out.reshape(ta.shape)

    # -- combined ----------------------------------------------------------------

    def z(self, t) -> float | np.ndarray:
        """Z(t) by the configured best path: Riemann-Siegel above t_min_rs,
        the Euler-Maclaurin oracle below."""
        ta = np.asarray(t, dtype=float)
        if ta.ndim == 0:
            return self.z_rs(ta) if float(ta) >= self.t_min_rs else self.z_oracle(ta)
        out = np.empty_like(ta, dtype=float)
        hi = ta >= self.t_min_rs
        if np.any(hi):
            out[hi] = self.z_rs(ta[hi])
        if np.any(~hi):
            out[~hi] = self.z_oracle(ta[~hi])
        return out

    def zeta_sq_mod(self, t) -> float | np.ndarray:
        """|zeta(1/2+it)|^2 = Z(t)^2; nonnegative by construction."""
        ta = np.asarray(t, dtype=float)
        if np.any(ta < 1.0):
            raise DomainError("zeta_sq_mod requires t >= 1")
        zv = self.z(t)
        return zv * zv

    # -- helpers -------------------------------------------------------------

    def zero_scan(self, a: float, b: float, step: float = 0.05) -> np.ndarray:
        """Zeros of Z on [a, b] located by sign scan at `step` plus bisection.

        Used to pre-split quadrature panels at the oscillation breakpoints.
        """
        if not a < b:
            return np.empty(0)
        grid = np.arange(a, b + step, step)
        grid[-1] = min(grid[-1], b)
        vals = self.z(grid)
        zeros = []
        for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
            lo, hi = grid[i], grid[i + 1]
            flo = vals[i]
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                fm = self.z(mid)
                if (fm > 0) == (flo > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            zeros.append(0.5 * (lo + hi))
        return np.asarray(zeros)

    def config_hash(self) -> str:
        payload = f"ZEvaluator(rs_correction_order={self.rs_correction_order}," \
                  f"oracle_terms={self.oracle_terms},t_min_rs={self.t_min_rs!r})"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
