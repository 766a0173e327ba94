import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zladder import (DomainError, QuadratureError, bessel_norm_sq, bessel_zero,
                     bessel_j, integrate_adaptive, integrate_adaptive_rows,
                     integrate_singular)
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
    def test_arcsine(self):
        res = integrate_singular(lambda x, dl, dr: 1.0 / np.sqrt(dl * dr),
                                 -1.0, 1.0, 1e-12, distance_form=True)
        assert abs(res.value - math.pi) <= 1e-12
        assert res.panels_used <= 10
        assert res.rule == "tanh-sinh"

    def test_chebyshev_t2_norm(self):
        res = integrate_singular(
            lambda u, dl, dr: (2.0 * u * u - 1.0) ** 2 / np.sqrt(dl * dr),
            -1.0, 1.0, 1e-12, distance_form=True)
        assert abs(res.value - math.pi / 2) <= 1e-12

    def test_semicircle(self):
        res = integrate_singular(lambda u, dl, dr: np.sqrt(dl * dr),
                                 -1.0, 1.0, 1e-12, distance_form=True)
        assert abs(res.value - math.pi / 2) <= 1e-12

    def test_plain_form_never_hits_endpoints(self):
        seen = []

        def f(x):
            seen.append((x.min(), x.max()))
            return np.sqrt((1.0 - x) * (1.0 + x))

        res = integrate_singular(f, -1.0, 1.0, 1e-10)
        assert all(lo > -1.0 and hi < 1.0 for lo, hi in seen)
        assert abs(res.value - math.pi / 2) <= 1e-9

    def test_general_interval(self):
        # int_2^5 dx / sqrt(x - 2) = 2 sqrt(3)
        res = integrate_singular(lambda x, dl, dr: 1.0 / np.sqrt(dl),
                                 2.0, 5.0, 1e-12, distance_form=True)
        assert abs(res.value - 2.0 * math.sqrt(3.0)) <= 1e-11

    def test_non_integrable_raises(self):
        with pytest.raises(QuadratureError):
            integrate_singular(lambda x, dl, dr: 1.0 / (dl * dr),
                               -1.0, 1.0, 1e-8, distance_form=True)

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
