"""Riemann-Siegel theta and the Hardy Z-function.

Two independent evaluation routes are provided and cross-checked in tests:

* the Riemann-Siegel route (`z_rs`): main sum of length floor(sqrt(t/2pi))
  plus the four remainder terms C_0..C_3 read from frozen Chebyshev tables,
  the sum's tiles and the terms taken in turn by one worker thread per CPU;
* the oracle route (`z_oracle`): Euler-Maclaurin summation of zeta(1/2+it)
  with ~2t terms and Bernoulli corrections, carried out in extended precision,
  then rotated by e^{i theta(t)}.

theta itself also has two routes: the asymptotic series (`theta`) and the
exact definition through Im ln Gamma (`theta_oracle`).
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._rs_terms import RS_TERM_TABLES
from .exceptions import DomainError, PrecisionError
from .specfun.gamma import _BERNOULLI_2K, _log_gamma_cld
from .specfun.orthopoly import _clenshaw

_TWO_PI = 2.0 * np.pi
_LD = np.longdouble
_CLD = np.clongdouble
_LN_PI_LD = np.log(_LD(np.pi))

# z_rs sums a chunk of _MAX_BLOCK // n_max points over one padded length
# n_max, which fixes its bits (see ZEvaluator); it does not cap memory: the
# chunk streams through tiles of _TILE // n_max rows, which stay in L2,
# taken with the chunk's remainder terms by _WORKERS threads, one per CPU
# this process may run on (up to _MAX_WORKERS; `taskset -c 0` leaves one),
# each tile in a buffer of its own
_MAX_BLOCK = 4_000_000
_TILE = 1 << 15
_MAX_WORKERS = 4
_WORKERS = min(_MAX_WORKERS, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
_RS_T_MAX = 1e8        # z_rs's cap on t; see z_rs
_ORACLE_T_MAX = 1e6    # theta_oracle's and z_oracle's cap on t; see z_oracle

_CLENSHAW_CHUNK = 8192  # points per block: amortizes call overhead, stays in L2


def _rs_terms(rs, lo, hi, p) -> None:
    """rs[:, lo:hi] = C_0..C_{r-1} at p[lo:hi] (p in [0, 1], r the rows of
    rs), in blocks of _CLENSHAW_CHUNK points.

    One `_clenshaw` pass per block serves every table at once, as (r, 1)
    columns broadcast over the block.  Each element sees the same operations
    in the same order as a per-table recurrence, so the rows are bit-for-bit
    those of evaluating each table on its own, whatever the blocks.
    """
    cols = RS_TERM_TABLES[:len(rs)].T
    for s in range(lo, hi, _CLENSHAW_CHUNK):
        e = min(hi, s + _CLENSHAW_CHUNK)
        rs[:, s:e] = _clenshaw(cols, 2.0 * p[s:e] - 1.0, (slice(None), None))


def _main_sums(out, lo, hi, t, theta_t, n_len, n, ln_n, weight) -> None:
    """out[lo:hi] = the main sums of the tile t[lo:hi], each padded to
    n.size terms.  Each row is summed on its own, so its bits do not depend
    on its tile."""
    terms = np.empty((hi - lo, n.size))
    # against int64 lengths, numpy would cast through ~130 kB of buffers
    live = n <= n_len[lo:hi, None].astype(float)
    np.multiply(t[lo:hi, None], ln_n, out=terms)
    np.subtract(theta_t[lo:hi, None], terms, out=terms)
    np.cos(terms, out=terms, where=live)
    terms *= weight
    terms[~live] = 0.0
    out[lo:hi] = 2.0 * terms.sum(axis=1)


def _deal(tasks, k) -> None:
    """Call each of `tasks` on k threads, the calling thread and k - 1
    started ones; each thread takes the next task as it finishes its last,
    so none idles while tasks remain.  Every started thread is joined before
    this returns or raises; then the first exception a task raised is raised
    here, and the threads take no new task once one has raised."""
    errors = []
    lock = threading.Lock()
    queue = iter(tasks)

    def run():
        try:
            while not errors:
                with lock:
                    task = next(queue, None)
                if task is None:
                    return
                task()
        except BaseException as exc:   # re-raised below, in the caller
            errors.append(exc)

    threads = []
    try:
        for _ in range(k - 1):
            thread = threading.Thread(target=run)
            thread.start()
            threads.append(thread)
        run()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _theta_ld(t) -> np.longdouble:
    """theta(t) = Im ln Gamma(1/4 + it/2) - (t/2) ln pi, in extended precision."""
    half_t = _LD(float(t)) / 2
    return _log_gamma_cld(_CLD(0.25) + _CLD(1j) * _CLD(half_t)).imag - half_t * _LN_PI_LD


@dataclass(frozen=True)
class ZEvaluator:
    """The one Hardy Z evaluator; its configuration is fixed.

    Results are deterministic functions of t up to rounding: z_rs splits a
    batch into chunks of _MAX_BLOCK // n_max points, and sums the main series
    of every point of a chunk out to the chunk's longest length
    n_max = floor(sqrt(t/2pi)).  numpy's pairwise sum groups the terms by that
    padded length, so the chunks define the bits: a value can move by a few
    ulps (measured <= 4e-15 on [1e3, 7e3]) with the other points in its
    chunk.  A batch whose points share that length gives bit-for-bit the
    scalar results; theta, the remainder terms and the oracle route are
    elementwise.  A chunk's remainder terms and its main-sum tiles are tasks
    taken in turn by up to _MAX_WORKERS threads, one per CPU the process may
    run on, each taking the next as it finishes the last; one worker's
    Clenshaw steps run while the others' cos releases the interpreter lock.
    Each output row is written by one tile, and the remainder terms are
    elementwise, so the bits do not depend on the worker count.  Memory is
    one tile of ~_TILE terms per worker, plus the remainder terms of the
    batch and one block's Clenshaw temporaries, whatever the chunk.

    z_rs adds the four Riemann-Siegel remainder terms C_0..C_3 to the main
    sum, which keeps |z_rs - z_oracle| below ~6e-7 on [1e2, 1e5].  The three
    class constants below are that configuration: `config_hash` names them,
    and the ladder cache records them and refuses a file holding others.
    """

    rs_correction_order = 4   # remainder terms of z_rs
    oracle_terms = 8          # Bernoulli corrections of zeta_half
    t_min_rs = 50.0           # z takes z_rs from here up, z_oracle below;
                              # a ladder panel ending here takes z_oracle

    # -- theta ---------------------------------------------------------------

    def theta(self, t) -> float | np.ndarray:
        """Asymptotic theta(t) = (t/2) ln(t/2pi) - t/2 - pi/8 + 1/(48t) + 7/(5760 t^3).

        Absolute error <= 1e-10 for t >= 50 (measured ~1e-12 at t = 50).
        """
        ta = np.asarray(t, dtype=float)
        if not np.all(ta >= 1.0):   # NaN fails
            raise DomainError("theta requires t >= 1")
        inv = 1.0 / ta
        out = (0.5 * ta * (np.log(ta / _TWO_PI) - 1.0) - np.pi / 8.0
               + inv / 48.0 + 7.0 / 5760.0 * inv ** 3)
        return out if ta.ndim else float(out)

    def theta_oracle(self, t) -> float | np.ndarray:
        """theta from the definition -(t/2) ln pi + Im ln Gamma(1/4 + it/2).

        Extended-precision log-Gamma keeps the continuous branch and ~1e-15
        absolute accuracy up to t = 1e6, which caps t (at inf it turns NaN).
        """
        ta = np.asarray(t, dtype=float)
        if not np.all((ta > 0.0) & (ta <= _ORACLE_T_MAX)):
            raise DomainError(f"theta_oracle requires 0 < t <= {_ORACLE_T_MAX:g}")
        out = np.array([float(_theta_ld(ti)) for ti in ta.ravel()])
        return out.reshape(ta.shape) if ta.ndim else float(out[0])

    # -- Riemann-Siegel route ------------------------------------------------

    def z_rs(self, t) -> float | np.ndarray:
        """Hardy Z(t) by the Riemann-Siegel formula; requires t_min_rs <= t <= 1e8.

        The cap bounds the main sum at 3,989 terms, and the rounding of its
        double-precision phases, ~4e-7 in Z at 1e8, which grows above it.
        A term past a point's own length is padding: it never reaches cos
        and sums as 0.0.  The length steps from n - 1 to n at t = 2 pi n^2,
        where z_rs jumps by the remainder terms' truncation error (see
        `rs_seams`).  A float t runs as a one-point array and returns a float.
        """
        ta = np.asarray(t, dtype=float)
        if not np.all((ta >= self.t_min_rs) & (ta <= _RS_T_MAX)):
            raise DomainError(f"z_rs requires t_min_rs = {self.t_min_rs} <= t <= "
                              f"{_RS_T_MAX:g}; use z_oracle below t_min_rs")
        flat = ta.ravel()
        a = np.sqrt(flat / _TWO_PI)
        n_len = np.floor(a).astype(np.int64)
        theta_t = self.theta(flat)

        p = a - n_len
        out = np.empty_like(flat)
        rs = np.empty((self.rs_correction_order, flat.size))
        start = 0
        while start < flat.size:
            stop = flat.size
            n_max = int(n_len[start:stop].max())
            block = max(1, _MAX_BLOCK // max(n_max, 1))
            stop = min(stop, start + block)
            n_max = int(n_len[start:stop].max())
            n = np.arange(1, n_max + 1, dtype=float)
            ln_n = np.log(n)
            weight = 1.0 / np.sqrt(n)
            rows = max(1, _TILE // n_max)
            tiles = range(start, stop, rows)
            # the remainder terms go first, as one task: its Clenshaw steps
            # run beside the other workers' cos and never beside each other,
            # so one worker at a time holds their temporaries; the tiles even
            # out the ends.  A chunk of one tile starts no thread.
            tasks = [partial(_rs_terms, rs, start, stop, p)]
            tasks += [partial(_main_sums, out, lo, min(stop, lo + rows), flat, theta_t,
                              n_len, n, ln_n, weight) for lo in tiles]
            _deal(tasks, min(_WORKERS, len(tiles)))
            start = stop

        corr = np.zeros_like(flat)
        fac = np.ones_like(flat)
        inv_a = 1.0 / a
        for row in rs:
            corr += row * fac
            fac = fac * inv_a
        sign = np.where(n_len % 2 == 1, 1.0, -1.0)
        out += sign * corr / np.sqrt(a)
        return out.reshape(ta.shape) if ta.ndim else float(out[0])

    def rs_seams(self, lo, hi) -> list[tuple[int, float, float]]:
        """The seams of z_rs on the intervals [lo_i, hi_i], in order: each
        (n, t, jump), where t is the first double at which the main sum has
        n terms, just above 2 pi n^2, and jump is z_rs(t) minus z_rs at the
        double below.  The jump is the remainder terms' truncation error
        (-1.9e-8 at n = 4, -3.2e-9 at n = 6); no finer sampling of t
        resolves it."""
        def length(t):   # z_rs's rule
            return math.floor(math.sqrt(t / _TWO_PI))

        ns = set()
        for a, b in zip(np.atleast_1d(lo).tolist(), np.atleast_1d(hi).tolist()):
            ns.update(range(length(max(a, self.t_min_rs)) + 1, length(b) + 1))
        seams = []
        for n in sorted(ns):
            t = _TWO_PI * n * n
            while length(t) >= n:
                t = math.nextafter(t, 0.0)
            while length(t) < n:
                t = math.nextafter(t, math.inf)
            seams.append((n, t, self.z_rs(t) - self.z_rs(math.nextafter(t, 0.0))))
        return seams

    # -- oracle route ----------------------------------------------------------

    def zeta_half(self, t: float) -> complex:
        """zeta(1/2 + i t) by Euler-Maclaurin with ~max(10, 2t) terms."""
        tf = float(t)
        if not tf > 0.0:
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
        zeta = self.zeta_half(t)
        theta_ld = _theta_ld(t)
        zval = (np.cos(theta_ld) + _CLD(1j) * np.sin(theta_ld)) * _CLD(zeta)
        if abs(float(zval.imag)) > 1e-9:
            raise PrecisionError(
                f"z_oracle imaginary residue {float(zval.imag):.3e} exceeds 1e-9 at t={t}")
        return float(zval.real)

    def z_oracle(self, t) -> float | np.ndarray:
        """Hardy Z(t) = Re(e^{i theta} zeta(1/2+it)), Euler-Maclaurin route.

        Absolute accuracy ~1e-14 for t <= 1e5 and <= 1e-9 up to t = 1e6; the
        imaginary residue is asserted below 1e-9 and discarded.  1e6 caps t:
        the cost is ~2t terms (~1 s at 1e6), so far above it no call ends.
        """
        ta = np.asarray(t, dtype=float)
        if not np.all((ta > 0.0) & (ta <= _ORACLE_T_MAX)):
            raise DomainError(f"z_oracle requires 0 < t <= {_ORACLE_T_MAX:g}")
        out = np.array([self._z_oracle_scalar(ti) for ti in ta.ravel().tolist()])
        return out.reshape(ta.shape) if ta.ndim else float(out[0])

    # -- combined ----------------------------------------------------------------

    def z(self, t) -> float | np.ndarray:
        """Z(t) by Riemann-Siegel from t_min_rs up, the Euler-Maclaurin
        oracle below.

        `build_ladder` routes by panel, not by point: a panel ending on or
        below t_min_rs takes z_oracle at every node, the one on t_min_rs too,
        so no panel holds the routes' ~1e-6 step.
        """
        ta = np.asarray(t, dtype=float)
        out = np.empty_like(ta)
        hi = ta >= self.t_min_rs
        if np.any(hi):
            out[hi] = self.z_rs(ta[hi])
        if np.any(~hi):
            out[~hi] = self.z_oracle(ta[~hi])
        return out if ta.ndim else float(out)

    # -- helpers -------------------------------------------------------------

    def zero_scan(self, a: float, b: float, step: float = 0.05) -> np.ndarray:
        """Zeros of Z on [a, b] located by sign scan at `step` plus bisection.

        No program code calls it: it is the tests' oracle for the zeros of p.
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
