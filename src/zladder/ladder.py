"""Jacob's ladder phi_1: construction from d(phi_1)/dt = Ztilde^2, evaluation,
inversion, the pushforward (change-of-variables) integral, and the retardation
diagnostic against (1 - c) * pi(t).

The ladder is represented by checkpoints on a grid of step <= h anchored at
anchor_t0 (so the anchor lands exactly on a checkpoint).  Each panel integral
is a pair of 7-point Gauss rules on its halves with the whole-panel rule as a
Richardson check; panels whose check exceeds their tolerance share, and panels
on which Z changes sign, are subdivided.  Checkpoint prefix sums are carried
in extended precision.  Between checkpoints phi_1 is evaluated by the same
partial-panel Gauss rule, clamped to the checkpoint bracket, which keeps the
table exactly consistent (checkpoint queries return stored values bitwise) and
monotone.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._atomic import atomic_text_writer
from .exceptions import (AdmissibilityError, CacheError, ConvergenceError,
                         DomainError, ToleranceNotMetError)
from .quadrature import GAUSS7_NODES, GAUSS7_WEIGHTS, integrate_adaptive
from .rszeta import ZEvaluator

EULER_C = 0.5772156649015329
ONE_MINUS_C = 1.0 - EULER_C

_E = math.e
_NODES01 = (GAUSS7_NODES + 1.0) / 2.0
_LD = np.longdouble
_CACHE_VERSION = 1

_BUILD_CHUNK = 3000          # panels per evaluation batch
_MAX_SPLIT_ROUNDS = 30
_PANEL_RULE = "gauss7-halves+richardson"


def ladder_config_hash(evaluator: ZEvaluator, t_lo: float, t_hi: float,
                       anchor_t0: float, h: float, tol: float) -> str:
    """Hash of the configuration that determines a built ladder.  Cache
    files are named by it and carry it, and every report row records it."""
    payload = (f"ladder(t_lo={float(t_lo)!r},t_hi={float(t_hi)!r},"
               f"anchor={float(anchor_t0)!r},h={float(h)!r},"
               f"tol={float(tol)!r},rule={_PANEL_RULE},"
               f"z={evaluator.config_hash()})")
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def ztilde_sq(evaluator: ZEvaluator, t) -> float | np.ndarray:
    """Ztilde^2(t) = Z(t)^2 / ln t, the ladder derivative model; t > e."""
    ta = np.asarray(t, dtype=float)
    if np.any(ta <= _E):
        raise DomainError("ztilde_sq requires t > e")
    zv = evaluator.z(ta if ta.ndim else float(ta))
    out = zv * zv / np.log(ta)
    return out if ta.ndim else float(out)


@dataclass(frozen=True)
class PrimePi:
    """Prime-counting queries backed by a sieve-produced sorted prime array."""

    limit: int
    primes: np.ndarray = field(repr=False)

    @classmethod
    def up_to(cls, limit: int) -> "PrimePi":
        limit = int(limit)
        if limit < 2:
            raise DomainError("PrimePi limit must be >= 2")
        if limit > 10 ** 8:
            raise DomainError("PrimePi limit capped at 1e8")
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p:: p] = False
        return cls(limit=limit, primes=np.nonzero(sieve)[0].astype(np.int64))

    def count(self, t) -> int | np.ndarray:
        """pi(t) = #{primes <= t}."""
        ta = np.asarray(t, dtype=float)
        if np.any(ta > self.limit):
            raise DomainError(f"PrimePi limit {self.limit} does not cover t = {ta.max()}")
        counts = np.searchsorted(self.primes, ta, side="right")
        return counts if ta.ndim else int(counts)


# ---------------------------------------------------------------------------
# construction

def _gauss7_nodes(lo: np.ndarray, t: np.ndarray) -> np.ndarray:
    return lo[:, None] + (t - lo)[:, None] * _NODES01[None, :]


class LadderTable:
    """Monotone checkpointed representation of phi_1 over [t_lo, t_hi]."""

    def __init__(self, *, evaluator, t_lo, t_hi, anchor_t0, anchor_value,
                 h, build_tolerance, edges, phi, base_step_count,
                 split_base_indices, extra_edges, residual_total):
        self.evaluator = evaluator
        self.t_lo = float(t_lo)
        self.t_hi = float(t_hi)
        self.anchor_t0 = float(anchor_t0)
        self.anchor_value = float(anchor_value)
        self.h = float(h)
        self.build_tolerance = float(build_tolerance)
        self.edges = np.asarray(edges, dtype=float)
        self.phi = np.asarray(phi, dtype=float)
        self._base_step_count = int(base_step_count)
        self._split_base_indices = np.asarray(split_base_indices, dtype=np.int64)
        self._extra_edges = np.asarray(extra_edges, dtype=float)
        self.residual_total = float(residual_total)
        self._breakpoints: dict[tuple[float, float], np.ndarray] = {}
        self._inverses: dict[float, float] = {}

    # -- basic properties --

    @property
    def phi_lo(self) -> float:
        return float(self.phi[0])

    @property
    def phi_hi(self) -> float:
        return float(self.phi[-1])

    def config_hash(self) -> str:
        return ladder_config_hash(self.evaluator, self.t_lo, self.t_hi,
                                  self.anchor_t0, self.h, self.build_tolerance)

    def breakpoints(self, a: float, b: float) -> np.ndarray:
        """Z zeros on [a, b] plus the evaluator dispatch seam, for panel
        pre-splits; scanned once per (a, b), returned read-only.  Threads
        racing on a new interval may both scan it, with equal results."""
        key = (float(a), float(b))
        pts = self._breakpoints.get(key)
        if pts is None:
            pts = self.evaluator.zero_scan(*key, step=0.05)
            seam = self.evaluator.t_min_rs
            if key[0] < seam < key[1]:
                pts = np.sort(np.append(pts, seam))
            pts.flags.writeable = False
            self._breakpoints[key] = pts
        return pts

    # -- evaluation --

    def _ztilde(self, t: np.ndarray) -> np.ndarray:
        zv = self.evaluator.z(t)
        return zv * zv / np.log(t)

    def _partial(self, lo: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Gauss-7 integral of Ztilde^2 on [lo_i, t_i], batched."""
        nodes = _gauss7_nodes(lo, t)
        w = self._ztilde(nodes.ravel()).reshape(nodes.shape)
        return (t - lo) / 2.0 * (w @ GAUSS7_WEIGHTS)

    def eval(self, t) -> float | np.ndarray:
        """phi_1(t); checkpoint queries return stored values exactly.

        Off-checkpoint points take the Gauss-7 integral from their panel's
        left edge, in two halves past the panel midpoint.  The first half is
        integrated once per distinct panel in the call and shared by its
        points.  Its Z batch holds the same node values without duplicates,
        so it keeps the batch's longest main sum, and the results are the
        bits of integrating it once per point whenever that batch was one
        `z_rs` block (see `ZEvaluator`).
        """
        ta = np.asarray(t, dtype=float)
        scalar = ta.ndim == 0
        flat = np.atleast_1d(ta).astype(float).ravel()
        if np.any(flat < self.t_lo) or np.any(flat > self.t_hi):
            raise DomainError(f"ladder evaluation outside [{self.t_lo}, {self.t_hi}]")
        out = np.empty_like(flat)

        j = np.searchsorted(self.edges, flat, side="left")
        exact = (j < len(self.edges)) & (self.edges[np.minimum(j, len(self.edges) - 1)] == flat)
        out[exact] = self.phi[j[exact]]

        rest = ~exact
        if np.any(rest):
            ts = flat[rest]
            k = np.searchsorted(self.edges, ts, side="right") - 1
            lo = self.edges[k]
            hi = self.edges[k + 1]
            mid = 0.5 * (lo + hi)
            partial = np.empty_like(ts)
            first = ts <= mid
            if np.any(first):
                partial[first] = self._partial(lo[first], ts[first])
            second = ~first
            if np.any(second):
                panels, which = np.unique(k[second], return_inverse=True)
                if panels.size == 1 < which.size:
                    # numpy sends a one-row matvec to its dot kernel, which
                    # rounds unlike the batched matvec of the per-point
                    # heads; two rows keep the batched rounding
                    panels = np.repeat(panels, 2)
                head_lo = self.edges[panels]
                head = self._partial(head_lo, 0.5 * (head_lo + self.edges[panels + 1]))
                partial[second] = head[which] + self._partial(mid[second], ts[second])
            vals = self.phi[k] + partial
            out[rest] = np.minimum(np.maximum(vals, self.phi[k]), self.phi[k + 1])
        out = out.reshape(np.shape(ta)) if ta.ndim else out
        return float(out[0]) if scalar else out

    def invert(self, y) -> float | np.ndarray:
        """Smallest t with phi_1(t) = y, to |phi_1(t) - y| <= 1e-10.

        Each scalar inverse is solved once per y and memoized in the table
        (verification jobs re-invert the same T and T + U), so a repeated y
        returns the identical float.  A y whose solve raises is not stored,
        and raises again on every call.  Threads racing on a new y may both
        solve it, with equal results.
        """
        ya = np.asarray(y, dtype=float)
        scalar = ya.ndim == 0
        flat = np.atleast_1d(ya).astype(float).ravel()
        if np.any(flat < self.phi[0]) or np.any(flat > self.phi[-1]):
            raise DomainError(
                f"inversion target outside [{self.phi[0]!r}, {self.phi[-1]!r}]")
        out = np.array([self._invert_scalar(float(v)) for v in flat])
        out = out.reshape(np.shape(ya)) if ya.ndim else out
        return float(out[0]) if scalar else out

    def _invert_scalar(self, y: float) -> float:
        t = self._inverses.get(y)
        if t is None:
            t = self._inverses[y] = self._solve_inverse(y)
        return t

    def _solve_inverse(self, y: float) -> float:
        j = np.searchsorted(self.phi, y, side="left")
        if j < len(self.phi) and self.phi[j] == y:
            return float(self.edges[j])
        k = j - 1
        lo, hi = float(self.edges[k]), float(self.edges[k + 1])
        f_tol = max(1e-12, 8.0 * np.finfo(float).eps * abs(y))
        t = 0.5 * (lo + hi)
        for _ in range(80):
            ft = self.eval(t) - y
            if abs(ft) <= f_tol:
                return t
            if ft > 0.0:
                hi = t
            else:
                lo = t
            # Newton step on the known derivative, safeguarded by the bracket
            slope = float(self._ztilde(np.array([t]))[0])
            t_new = t - ft / slope if slope > 1e-18 else 0.5 * (lo + hi)
            if not lo < t_new < hi:
                t_new = 0.5 * (lo + hi)
            if hi - lo <= 4.0 * np.spacing(hi):
                t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
                break
            t = t_new
        resid = abs(self.eval(t) - y)
        if resid > 1e-10:
            raise ConvergenceError(f"ladder inversion stalled at |phi - y| = {resid:.2e}")
        return t

    # -- persistence --

    def save(self, path) -> None:
        doc = {
            "version": _CACHE_VERSION,
            "config_hash": self.config_hash(),
            "builder": {
                "t_lo": self.t_lo, "t_hi": self.t_hi,
                "anchor_t0": self.anchor_t0, "h": self.h,
                "tol": self.build_tolerance,
                "rs_correction_order": self.evaluator.rs_correction_order,
                "oracle_terms": self.evaluator.oracle_terms,
                "t_min_rs": self.evaluator.t_min_rs,
            },
            "anchor_value": self.anchor_value,
            "base_step_count": self._base_step_count,
            "split_base_indices": self._split_base_indices.tolist(),
            "extra_edges": self._extra_edges.tolist(),
            "residual_total": self.residual_total,
            "phi": self.phi.tolist(),
        }
        with atomic_text_writer(path) as fh:
            json.dump(doc, fh)
            fh.write("\n")

    @classmethod
    def load(cls, path, evaluator: ZEvaluator) -> "LadderTable":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CacheError(f"ladder cache {path} unreadable: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("version") != _CACHE_VERSION:
            raise CacheError(f"ladder cache {path} has unsupported version")
        try:
            b = doc["builder"]
            table = cls._assemble(
                evaluator=evaluator,
                t_lo=b["t_lo"], t_hi=b["t_hi"], anchor_t0=b["anchor_t0"],
                h=b["h"], tol=b["tol"],
                anchor_value=doc["anchor_value"],
                base_step_count=doc["base_step_count"],
                split_base_indices=np.asarray(doc["split_base_indices"], dtype=np.int64),
                extra_edges=np.asarray(doc["extra_edges"], dtype=float),
                phi=np.asarray(doc["phi"], dtype=float),
                residual_total=doc["residual_total"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"ladder cache {path} is corrupt: {exc}") from exc
        if (evaluator.rs_correction_order, evaluator.oracle_terms, evaluator.t_min_rs) != \
                (b["rs_correction_order"], b["oracle_terms"], b["t_min_rs"]):
            raise CacheError("ladder cache was built with a different evaluator config")
        if doc.get("config_hash") != table.config_hash():
            raise CacheError("ladder cache config hash mismatch; refusing to reuse")
        if len(table.phi) != len(table.edges):
            raise CacheError("ladder cache checkpoint count mismatch")
        if not (np.all(np.isfinite(table.edges)) and np.all(np.diff(table.edges) > 0.0)):
            raise CacheError("ladder cache checkpoints are not finite and strictly increasing")
        if not (np.all(np.isfinite(table.phi)) and np.all(np.diff(table.phi) >= 0.0)):
            raise CacheError("ladder cache values are not finite and nondecreasing")
        return table

    @classmethod
    def _assemble(cls, *, evaluator, t_lo, t_hi, anchor_t0, h, tol, anchor_value,
                  base_step_count, split_base_indices, extra_edges, phi,
                  residual_total) -> "LadderTable":
        base = _base_edges(t_lo, t_hi, anchor_t0, h, base_step_count,
                           seam=evaluator.t_min_rs)
        mids = 0.5 * (base[split_base_indices] + base[split_base_indices + 1])
        edges = np.sort(np.concatenate([base, mids, extra_edges]))
        return cls(evaluator=evaluator, t_lo=t_lo, t_hi=t_hi, anchor_t0=anchor_t0,
                   anchor_value=anchor_value, h=h, build_tolerance=tol,
                   edges=edges, phi=phi, base_step_count=base_step_count,
                   split_base_indices=split_base_indices, extra_edges=extra_edges,
                   residual_total=residual_total)


def _base_edges(t_lo: float, t_hi: float, anchor_t0: float, h: float,
                n_down: int, seam: float | None = None) -> np.ndarray:
    """Checkpoint grid of step h through anchor_t0, clamped to [t_lo, t_hi].

    The evaluator's RS/oracle dispatch threshold is inserted as an extra edge
    when the domain straddles it: the computed Ztilde^2 has a ~1e-7 jump
    there, and a panel containing the jump could never meet its Richardson
    share.  Putting the seam on an edge keeps every panel one-path smooth.

    The outermost grid points are replaced by t_lo and t_hi; inner grid
    points that rounding puts at or beyond either end are dropped, so no
    panel is empty or reversed.
    """
    n_up = int(math.ceil((t_hi - anchor_t0) / h - 1e-12))
    inner = anchor_t0 + h * np.arange(-n_down + 1, n_up, dtype=float)
    inner = inner[(inner > t_lo) & (inner < t_hi)]
    edges = np.concatenate([[t_lo], inner, [t_hi]])
    if seam is not None and t_lo < seam < t_hi and seam not in edges:
        edges = np.insert(edges, np.searchsorted(edges, seam), seam)
    return edges


def build_ladder(evaluator: ZEvaluator, t_lo: float, t_hi: float,
                 anchor_t0: float | None = None, tol: float = 1e-8,
                 h: float = 0.05, prime_pi: PrimePi | None = None) -> LadderTable:
    """Construct phi_1 on [t_lo, t_hi] anchored by the retardation law.

    phi_1(t) = anchor_value + int_{anchor_t0}^t Ztilde^2, with
    anchor_value = anchor_t0 - (1 - c) pi(anchor_t0).  Panels are Gauss-7
    half-pairs checked by Richardson extrapolation against their width's
    share of `tol`; Z sign-change panels are pre-split once.
    """
    t_lo = float(t_lo)
    t_hi = float(t_hi)
    if anchor_t0 is None:
        anchor_t0 = t_lo + 10.0
    anchor_t0 = float(anchor_t0)
    if not (_E + 1.0 <= t_lo <= anchor_t0 <= t_hi):
        raise DomainError("require e + 1 <= t_lo <= anchor_t0 <= t_hi")
    if t_hi - t_lo <= 0 or t_hi - t_lo > 1e6:
        raise DomainError("require 0 < t_hi - t_lo <= 1e6")
    if tol <= 0.0:
        raise DomainError("build tolerance must be positive")
    if not 0.0 < h <= 0.05:
        raise DomainError("checkpoint step must satisfy 0 < h <= 0.05")

    n_down = int(math.ceil((anchor_t0 - t_lo) / h - 1e-12))
    base = _base_edges(t_lo, t_hi, anchor_t0, h, n_down, seam=evaluator.t_min_rs)
    n_base = len(base) - 1
    span = t_hi - t_lo

    lo_all = base[:-1]
    hi_all = base[1:]
    values = np.empty(n_base)
    resids = np.empty(n_base)
    floors = np.empty(n_base)
    signflip = np.zeros(n_base, dtype=bool)
    eps = np.finfo(float).eps

    def panel_batch(lo, hi):
        """Per panel: half-pair value, Richardson residual, roundoff floor,
        and whether Z changes sign among the 21 nodes.

        The floor models the evaluation noise of Z (phase magnitude ~ theta(t)
        times eps, scaled into Ztilde^2); measured residuals on noise-only
        panels stay below ~8x the model, so 32x gives headroom while genuine
        unresolved structure still exceeds it by many orders.
        """
        mid = 0.5 * (lo + hi)
        nodes = np.concatenate([_gauss7_nodes(lo, mid), _gauss7_nodes(mid, hi),
                                _gauss7_nodes(lo, hi)], axis=1)
        zs = np.asarray(evaluator.z(nodes.ravel()), dtype=float).reshape(nodes.shape)
        w = zs * zs / np.log(nodes)
        i_h1 = (mid - lo) / 2.0 * (w[:, 0:7] @ GAUSS7_WEIGHTS)
        i_h2 = (hi - mid) / 2.0 * (w[:, 7:14] @ GAUSS7_WEIGHTS)
        i_full = (hi - lo) / 2.0 * (w[:, 14:21] @ GAUSS7_WEIGHTS)
        value = i_h1 + i_h2
        flips = (zs.min(axis=1) < 0.0) & (zs.max(axis=1) > 0.0)
        zmax = np.abs(zs).max(axis=1)
        phase = np.abs(evaluator.theta(mid)) + mid
        floor = 32.0 * eps * (hi - lo) * phase * (zmax + 1.0) / np.log(mid)
        return value, np.abs(i_full - value), floor, flips

    for i0 in range(0, n_base, _BUILD_CHUNK):
        i1 = min(n_base, i0 + _BUILD_CHUNK)
        (values[i0:i1], resids[i0:i1],
         floors[i0:i1], signflip[i0:i1]) = panel_batch(lo_all[i0:i1], hi_all[i0:i1])

    budget = tol * (hi_all - lo_all) / span
    flagged = signflip | (resids > np.maximum(budget, floors))
    split_base = np.nonzero(flagged)[0]

    # working set: children of flagged panels; kept panels remember whether
    # they were certified by their budget share (systematic part) or only by
    # the noise floor (random part, accumulated in quadrature below)
    keep = ~flagged
    seg_lo = [lo_all[keep]]
    seg_hi = [hi_all[keep]]
    seg_val = [values[keep]]
    seg_res = [resids[keep]]
    seg_by_budget = [resids[keep] <= budget[keep]]

    pend_lo = lo_all[flagged]
    pend_hi = hi_all[flagged]
    extra_edges: list[float] = []
    rounds = 0
    first_round = True
    panel_total = n_base
    panel_cap = max(4 * n_base, n_base + 100_000)
    while len(pend_lo):
        rounds += 1
        panel_total += len(pend_lo)
        if rounds > _MAX_SPLIT_ROUNDS or panel_total > panel_cap:
            raise ToleranceNotMetError(
                f"panel refinement exhausted ({len(pend_lo)} panels still above "
                f"their tolerance share after {rounds - 1} rounds)")
        mid = 0.5 * (pend_lo + pend_hi)
        if not first_round:
            extra_edges.extend(mid.tolist())
        child_lo = np.concatenate([pend_lo, mid])
        child_hi = np.concatenate([mid, pend_hi])
        c_val = np.empty_like(child_lo)
        c_res = np.empty_like(child_lo)
        c_floor = np.empty_like(child_lo)
        c_flip = np.zeros(len(child_lo), dtype=bool)
        for i0 in range(0, len(child_lo), _BUILD_CHUNK):
            i1 = min(len(child_lo), i0 + _BUILD_CHUNK)
            (c_val[i0:i1], c_res[i0:i1],
             c_floor[i0:i1], c_flip[i0:i1]) = panel_batch(child_lo[i0:i1],
                                                          child_hi[i0:i1])
        c_budget = tol * (child_hi - child_lo) / span
        bad = c_res > np.maximum(c_budget, c_floor)  # sign forcing applies once
        seg_lo.append(child_lo[~bad])
        seg_hi.append(child_hi[~bad])
        seg_val.append(c_val[~bad])
        seg_res.append(c_res[~bad])
        seg_by_budget.append(c_res[~bad] <= c_budget[~bad])
        pend_lo = child_lo[bad]
        pend_hi = child_hi[bad]
        first_round = False

    lo_fin = np.concatenate(seg_lo)
    order = np.argsort(lo_fin, kind="stable")
    lo_fin = lo_fin[order]
    val_fin = np.concatenate(seg_val)[order]
    res_fin = np.concatenate(seg_res)[order]
    by_budget = np.concatenate(seg_by_budget)[order]
    edges = np.append(lo_fin, t_hi)

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

    # anchor lands on a checkpoint by construction of the grid
    k0 = int(np.searchsorted(edges, anchor_t0, side="left"))
    if not (k0 < len(edges) and edges[k0] == anchor_t0):
        raise ConvergenceError("anchor is not on the checkpoint grid")
    if prime_pi is None or prime_pi.limit < anchor_t0:
        prime_pi = PrimePi.up_to(max(int(anchor_t0) + 10, 100))
    anchor_value = anchor_t0 - ONE_MINUS_C * prime_pi.count(anchor_t0)

    phi = (np.longdouble(anchor_value) + (prefix - prefix[k0])).astype(float)

    return LadderTable(
        evaluator=evaluator, t_lo=t_lo, t_hi=t_hi, anchor_t0=anchor_t0,
        anchor_value=float(anchor_value), h=h, build_tolerance=tol,
        edges=edges, phi=phi, base_step_count=n_down,
        split_base_indices=split_base,
        extra_edges=np.asarray(sorted(extra_edges), dtype=float),
        residual_total=certified)


# ---------------------------------------------------------------------------
# module-level operations in terms of a built table

def check_admissible(T: float, U: float) -> None:
    if not 0.0 < U <= T / math.log(T):
        raise AdmissibilityError(
            f"U = {U} violates admissibility 0 < U <= T/ln T = {T / math.log(T):.6g}")


def pushforward_integral(table: LadderTable, f, T: float, U: float,
                         tol: float = 1e-9) -> float:
    """int_{phi^-1(T)}^{phi^-1(T+U)} f(phi_1(t)) Ztilde^2(t) dt.

    By change of variables this equals int_T^{T+U} f(x) dx up to numerical
    error; the identity is what the exactness layer of the verification
    suite leans on.
    """
    T = float(T)
    U = float(U)
    check_admissible(T, U)
    a = table.invert(T)
    b = table.invert(T + U)

    def integrand(ts: np.ndarray) -> np.ndarray:
        return f(table.eval(ts)) * table._ztilde(ts)

    res = integrate_adaptive(integrand, a, b, tol,
                             breakpoints=table.breakpoints(a, b))
    return res.value


@dataclass(frozen=True)
class RetardationRow:
    t: float
    lag: float                # t - phi_1(t)
    expected: float           # (1 - c) * pi(t)
    ratio: float


def retardation_report(table: LadderTable, sample_ts,
                       prime_pi: PrimePi | None = None) -> list[RetardationRow]:
    """Rows (t, t - phi_1(t), (1-c) pi(t), ratio); ratio is 1 at the anchor."""
    ts = np.atleast_1d(np.asarray(sample_ts, dtype=float))
    if prime_pi is None or prime_pi.limit < ts.max():
        prime_pi = PrimePi.up_to(max(int(ts.max()) + 10, 100))
    rows = []
    for t in ts:
        lag = float(t - table.eval(float(t)))
        expected = ONE_MINUS_C * prime_pi.count(float(t))
        rows.append(RetardationRow(t=float(t), lag=lag, expected=expected,
                                   ratio=lag / expected if expected else math.inf))
    return rows


def log_stability_check(table: LadderTable, T: float, U: float = 1.0) -> float:
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
