import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zladder import (DomainError, QuadratureError, bessel_norm_sq, bessel_zero,
                     bessel_j, integrate_adaptive, integrate_adaptive_rows,
                     integrate_singular, integrate_singular_rows)
from zladder.quadrature import _XK, _gk15_sums


def adaptive_reference(f, a, b, tol, breakpoints=()):
    """The one-integrand refinement loop as it ran before the rows API:
    (value, error estimate, panels, number of calls of f)."""
    edges = [a, *sorted(x for x in breakpoints if a < x < b), b]
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    done_lo, done_val, done_err, calls = [], [], [], 0
    while len(lo):
        mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes = mid[:, None] + hw[:, None] * _XK[None, :]
        sums, errs, floors = _gk15_sums(f(nodes.ravel()).reshape(nodes.shape), hw)
        calls += 1
        ok = errs <= np.maximum(tol * (hi - lo) / (b - a), 1.01 * floors)
        done_lo.append(lo[ok])
        done_val.append(sums[ok])
        done_err.append(errs[ok])
        lo_bad, hi_bad = lo[~ok], hi[~ok]
        mid_bad = 0.5 * (lo_bad + hi_bad)
        lo, hi = np.concatenate([lo_bad, mid_bad]), np.concatenate([mid_bad, hi_bad])
    order = np.argsort(np.concatenate(done_lo), kind="stable")
    return (float(np.sum(np.concatenate(done_val)[order])),
            float(np.sum(np.concatenate(done_err)[order])), len(order), calls)


def singular_reference(f, a, b, tol, max_level=12):
    """The one-integrand tanh-sinh loop as it ran before the rows API:
    (value, error estimate, levels); raises QuadratureError as it did."""
    r = 0.5 * (b - a)
    for level in range(1, max_level + 1):
        h = 2.0 ** -level
        tau = h * np.arange(1, math.ceil(4.3 / h) + 1, 1 if level == 1 else 2)
        u = 0.5 * np.pi * np.sinh(tau)
        w = h * (0.5 * np.pi) * np.cosh(tau) / np.cosh(u) ** 2
        dist = r * (2.0 / (1.0 + np.exp(2.0 * u)))
        t_left, t_right = a + dist, b - dist
        keep = (t_right < b) & (t_left > a) & (w > 0.0)
        center = [0.5 * (a + b)] if level == 1 else []
        pts = np.concatenate([t_left[keep], center, t_right[keep]])
        wts = np.concatenate([w[keep], [h * 0.5 * np.pi] if center else [], w[keep]])
        vals = f(pts)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("non-finite")
        part = float(np.sum(wts * vals))
        if level == 1:
            acc = part
            prev = r * acc
            continue
        acc = 0.5 * acc + part
        cur = r * acc
        diff = abs(cur - prev)
        if diff <= max(tol, 8.0 * np.finfo(float).eps * (1.0 + abs(cur))):
            return cur, diff, level
        prev = cur
    raise QuadratureError("did not converge")


def damped_wave(c, w, ph, d):
    return lambda x: c * np.cos(w * x + ph) * np.exp(-d * x)


class TestAdaptive:
    def test_linear(self):
        res = integrate_adaptive(lambda x: x, 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(0.5, abs=1e-14)
        assert res.panels_used >= 1
        assert res.error_estimate >= 0.0
        assert res.rule == "gk15-adaptive"

    @pytest.mark.parametrize("k", range(13))
    def test_monomials_exact(self, k):
        res = integrate_adaptive(lambda x: x ** k, -1.0, 1.0, 1e-10)
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(res.value - exact) <= 1e-13

    def test_bessel_norm(self):
        mu = bessel_zero(0, 1)
        res = integrate_adaptive(lambda x: bessel_j(0, mu * x) ** 2 * x, 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(bessel_norm_sq(0, 1), abs=1e-10)

    def test_splitting_invariance(self, rng):
        f = lambda x: np.sin(3.0 * x) * np.exp(-0.1 * x)
        whole = integrate_adaptive(f, 0.0, 5.0, 1e-11)
        for _ in range(10):
            c = float(rng.uniform(0.2, 4.8))
            left = integrate_adaptive(f, 0.0, c, 1e-11)
            right = integrate_adaptive(f, c, 5.0, 1e-11)
            tol = left.error_estimate + right.error_estimate + whole.error_estimate + 1e-12
            assert abs(left.value + right.value - whole.value) <= tol

    def test_error_estimates_conservative(self, rng):
        # true error <= 10x the reported estimate on randomized smooth integrands
        for _ in range(50):
            w = float(rng.uniform(0.5, 20.0))
            ph = float(rng.uniform(0, 2 * np.pi))
            c = rng.uniform(-1, 1, 3)

            def f(x):
                return (c[0] + c[1] * x + c[2] * x * x) * np.cos(w * x + ph)

            loose = integrate_adaptive(f, 0.0, 3.0, 1e-6)
            tight = integrate_adaptive(f, 0.0, 3.0, 1e-13)
            true_err = abs(loose.value - tight.value)
            assert true_err <= 10.0 * loose.error_estimate + 1e-13

    def test_breakpoints_are_panel_edges(self):
        calls = []

        def f(x):
            calls.append(x)
            return np.ones_like(x)

        res = integrate_adaptive(f, 0.0, 1.0, 1e-9, breakpoints=[0.3, 0.7])
        assert res.value == pytest.approx(1.0, abs=1e-13)
        assert res.panels_used >= 3

    def test_panel_cap(self):
        with pytest.raises(QuadratureError):
            integrate_adaptive(lambda x: np.cos(50.0 * x), 0.0, 10.0, 1e-300,
                               max_panels=64)

    def test_non_finite_integrand(self):
        def f(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 0.5)

        with pytest.raises(QuadratureError):
            integrate_adaptive(f, 0.0, 1.0, 1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 1.0, 0.0, 1e-9)
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 0.0, 1.0, -1e-9)


class TestAdaptiveRows:
    @settings(max_examples=60, deadline=None)
    @given(params=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 40.0),
                                     st.floats(0.0, 6.0), st.floats(0.0, 3.0)),
                           min_size=1, max_size=5),
           a=st.floats(-2.0, 2.0), width=st.floats(0.1, 4.0),
           cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
           tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
    def test_rows_equal_solo_integrals(self, params, a, width, cuts, tol):
        b = a + width
        breaks = [a + c * width for c in cuts]
        fs = [damped_wave(*p) for p in params]
        calls = []

        def rows_f(x):
            calls.append(len(x))
            return np.stack([f(x) for f in fs])

        got = integrate_adaptive_rows(rows_f, len(fs), a, b, tol, breakpoints=breaks)
        rounds = []
        for f, res in zip(fs, got):
            solo = integrate_adaptive(f, a, b, tol, breakpoints=breaks)
            value, err, panels, n_calls = adaptive_reference(f, a, b, tol, breaks)
            assert (res.value, res.error_estimate, res.panels_used) == \
                (solo.value, solo.error_estimate, solo.panels_used) == (value, err, panels)
            rounds.append(n_calls)
        # one call per round, as many rounds as the slowest row needs
        assert len(calls) == max(rounds)

    def test_union_of_pending_panels_per_call(self):
        # a row done after one round leaves the later calls to the others
        fs = [lambda x: x, lambda x: np.cos(30.0 * x)]
        calls = []

        def rows_f(x):
            calls.append(len(x))
            return np.stack([f(x) for f in fs])

        flat, wave = integrate_adaptive_rows(rows_f, 2, 0.0, 2.0, 1e-10,
                                             breakpoints=[0.5])
        assert flat.panels_used == 2
        assert calls[0] == 2 * 15
        # the nodes of the wave row's panels, each once: its two roots and
        # two children per bisection, of which panels_used are leaves
        assert sum(calls) == 15 * (2 * wave.panels_used - 2)

    def test_row_panel_budget(self):
        def rows_f(x):
            return np.stack([x, np.cos(50.0 * x)])

        with pytest.raises(QuadratureError, match="64 panels"):
            integrate_adaptive_rows(rows_f, 2, 0.0, 10.0, 1e-300, max_panels=64)

    def test_row_non_finite(self):
        def rows_f(x):
            with np.errstate(divide="ignore"):
                return np.stack([x, 1.0 / (x - 0.5)])

        with pytest.raises(QuadratureError, match="non-finite"):
            integrate_adaptive_rows(rows_f, 2, 0.0, 1.0, 1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_adaptive_rows(lambda x: np.stack([x, x]), 2, 1.0, 0.0, 1e-9)


class TestTanhSinh:
    def test_plain_form_never_hits_endpoints(self):
        seen = []

        def f(x):
            seen.append((x.min(), x.max()))
            return np.sqrt((1.0 - x) * (1.0 + x))

        res = integrate_singular(f, -1.0, 1.0, 1e-10)
        assert all(lo > -1.0 and hi < 1.0 for lo, hi in seen)
        assert abs(res.value - math.pi / 2) <= 1e-9
        assert res.panels_used <= 10
        assert res.rule == "tanh-sinh"

    def test_non_integrable_raises(self):
        with pytest.raises(QuadratureError):
            integrate_singular(lambda x: 1.0 / ((1.0 - x) * (1.0 + x)),
                               -1.0, 1.0, 1e-8)

    def test_level_cap(self):
        with pytest.raises(QuadratureError):
            integrate_singular(lambda x: np.cos(200.0 * x), 0.0, 50.0, 1e-13,
                               max_level=3)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_singular(lambda x: x, 2.0, 2.0, 1e-9)

    @staticmethod
    def full_level_sum(f, a, b, level):
        """The tanh-sinh sum at step 2^-level over every node, recomputed."""
        h = 2.0 ** -level
        tau = h * np.arange(-math.ceil(4.3 / h), math.ceil(4.3 / h) + 1)
        u = 0.5 * math.pi * np.sinh(tau)
        w = h * 0.5 * math.pi * np.cosh(tau) / np.cosh(u) ** 2
        x = 0.5 * (a + b) + 0.5 * (b - a) * np.tanh(u)
        keep = (x > a) & (x < b) & (w > 0.0)
        return 0.5 * (b - a) * math.fsum(w[keep] * f(x[keep]))

    def test_levels_reuse_the_previous_sum(self):
        # each level evaluates only its new (odd) nodes; its value is the
        # recomputed full sum up to rounding
        calls = []

        def f(x):
            calls.append(len(x))
            return np.sqrt((1.0 - x) * (1.0 + x)) * np.exp(x)

        res = integrate_singular(f, -1.0, 1.0, 1e-12)
        level = res.panels_used
        ref = self.full_level_sum(lambda x: np.sqrt((1.0 - x) * (1.0 + x)) * np.exp(x),
                                  -1.0, 1.0, level)
        assert abs(res.value - ref) <= 1e-14
        assert len(calls) == level
        full = sum(2 * math.ceil(4.3 * 2 ** k) + 1 for k in range(1, level + 1))
        assert sum(calls) <= 0.6 * full


def endpoint_wave(a, b, c, w, ph, p):
    """c cos(w x + ph) ((x - a)(b - x))^p, with an endpoint power p."""
    return lambda x: c * np.cos(w * x + ph) * ((x - a) * (b - x)) ** p


class TestSingularRows:
    @settings(max_examples=60, deadline=None)
    @given(params=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 20.0),
                                     st.floats(0.0, 6.0), st.sampled_from([-0.5, 0.0, 0.5])),
                           min_size=1, max_size=5),
           a=st.floats(-2.0, 2.0), width=st.floats(0.1, 4.0),
           tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
    def test_rows_equal_solo_integrals(self, params, a, width, tol):
        b = a + width
        fs = [endpoint_wave(a, b, *p) for p in params]
        calls = []

        def rows_f(x):
            calls.append(x)
            return np.stack([f(x) for f in fs])

        try:
            refs = [singular_reference(f, a, b, tol) for f in fs]
        except QuadratureError:
            with pytest.raises(QuadratureError):
                integrate_singular_rows(rows_f, len(fs), a, b, tol)
            return
        got = integrate_singular_rows(rows_f, len(fs), a, b, tol)
        for f, res, ref in zip(fs, got, refs):
            solo = integrate_singular(f, a, b, tol)
            assert (res.value, res.error_estimate, res.panels_used) == \
                (solo.value, solo.error_estimate, solo.panels_used) == ref
            assert res.rule == "tanh-sinh"
        # one call per level, on that level's new nodes, as many levels as
        # the slowest row needs
        slow = fs[int(np.argmax([res.panels_used for res in got]))]
        solo_calls = []
        integrate_singular(lambda x: solo_calls.append(x) or slow(x), a, b, tol)
        assert len(calls) == len(solo_calls) == max(res.panels_used for res in got)
        assert all(np.array_equal(x, y) for x, y in zip(calls, solo_calls))

    def test_finished_rows_ignore_later_levels(self):
        # row 0 stops first; its values after that are never looked at
        flat = integrate_singular(np.ones_like, -1.0, 1.0, 1e-10)
        wave = integrate_singular(lambda x: np.cos(40.0 * x), -1.0, 1.0, 1e-10)
        assert flat.panels_used < wave.panels_used
        calls = []

        def rows_f(x):
            calls.append(len(x))
            done = len(calls) > flat.panels_used
            return np.stack([np.full_like(x, np.nan) if done else np.ones_like(x),
                             np.cos(40.0 * x)])

        assert integrate_singular_rows(rows_f, 2, -1.0, 1.0, 1e-10) == [flat, wave]
        assert len(calls) == wave.panels_used

    def test_first_non_finite_row_raises(self):
        # both rows meet NaN at level 2; row 0 (NaN only at x > 0) is checked first
        calls = []

        def rows_f(x):
            calls.append(len(x))
            if len(calls) < 2:
                return np.stack([np.cos(x), np.cos(x)])
            return np.stack([np.where(x > 0.0, np.nan, 1.0), np.full_like(x, np.nan)])

        with pytest.raises(QuadratureError, match="non-finite") as info:
            integrate_singular_rows(rows_f, 2, -1.0, 1.0, 1e-10)
        assert float(str(info.value).rsplit("=", 1)[1]) > 0.0

    def test_non_finite_before_non_convergence(self):
        # row 0 would run out of levels; row 1 meets NaN at level 2, first
        def rows_f(x):
            bad = np.full_like(x, np.nan) if len(x) < 50 else np.cos(x)
            return np.stack([np.cos(200.0 * x), bad])

        with pytest.raises(QuadratureError, match="non-finite"):
            integrate_singular_rows(rows_f, 2, 0.0, 50.0, 1e-13, max_level=3)

    def test_row_level_cap(self):
        def rows_f(x):
            return np.stack([np.ones_like(x), np.cos(200.0 * x)])

        with pytest.raises(QuadratureError, match="within 3 levels"):
            integrate_singular_rows(rows_f, 2, 0.0, 50.0, 1e-13, max_level=3)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_singular_rows(lambda x: np.stack([x, x]), 2, 1.0, 0.0, 1e-9)
