import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zladder import (DomainError, QuadratureError, bessel_norm_sq, bessel_zero,
                     bessel_j, integrate_adaptive, integrate_adaptive_rows,
                     integrate_singular)
from zladder import quadrature as Q
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

    def test_panel_cap(self, monkeypatch):
        monkeypatch.setattr(Q, "_MAX_PANELS", 64)
        with pytest.raises(QuadratureError):
            integrate_adaptive(lambda x: np.cos(50.0 * x), 0.0, 10.0, 1e-300)

    def test_non_finite_integrand(self):
        def f(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 0.5)

        with pytest.raises(QuadratureError, match=r"near x = 0\.5$"):
            integrate_adaptive(f, 0.0, 1.0, 1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 1.0, 0.0, 1e-9)
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 0.0, 1.0, -1e-9)
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 0.0, 1.0, math.nan)


class TestGK15Sums:
    @staticmethod
    def bits(sums):
        return np.stack(sums).view(np.int64)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(8, 300), rows=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_a_panel_has_its_bits_in_any_batch(self, n, rows, seed):
        # a panel's Kronrod sum, error and floor are the same alone, in
        # blocks of 7, in the whole batch and as a cell of (rows, panels)
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((rows, n, 15)) * 10.0 ** rng.uniform(-3, 3, (rows, n, 1))
        hw = 10.0 ** rng.uniform(-4, 1, n)
        cells = self.bits(_gk15_sums(vals, hw))
        for r in range(rows):
            alone = np.concatenate([self.bits(_gk15_sums(vals[r, i:i + 1], hw[i:i + 1]))
                                    for i in range(n)], axis=1)
            blocks = np.concatenate([self.bits(_gk15_sums(vals[r, i:i + 7], hw[i:i + 7]))
                                     for i in range(0, n, 7)], axis=1)
            for got in (blocks, self.bits(_gk15_sums(vals[r], hw)), cells[:, r]):
                np.testing.assert_array_equal(got, alone)


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

    def test_row_panel_budget(self, monkeypatch):
        def rows_f(x):
            return np.stack([x, np.cos(50.0 * x)])

        monkeypatch.setattr(Q, "_MAX_PANELS", 64)
        with pytest.raises(QuadratureError, match="64 panels"):
            integrate_adaptive_rows(rows_f, 2, 0.0, 10.0, 1e-300)

    def test_row_non_finite(self):
        def rows_f(x):
            with np.errstate(divide="ignore"):
                return np.stack([x, 1.0 / (x - 0.5)])

        with pytest.raises(QuadratureError, match=r"non-finite value near x = 0\.5$"):
            integrate_adaptive_rows(rows_f, 2, 0.0, 1.0, 1e-9)

    def test_budget_before_a_later_rows_non_finite(self, monkeypatch):
        # in round 1, row 0 splits past its budget and row 1 meets inf at
        # the panel's midpoint: the first row in row order raises
        def rows_f(x):
            with np.errstate(divide="ignore"):
                return np.stack([np.cos(50.0 * x), 1.0 / (x - 0.5)])

        monkeypatch.setattr(Q, "_MAX_PANELS", 2)
        with pytest.raises(QuadratureError, match="exceeded 2 panels"):
            integrate_adaptive_rows(rows_f, 2, 0.0, 1.0, 1e-300)
        with pytest.raises(QuadratureError, match=r"non-finite value near x = 0\.5$"):
            integrate_adaptive_rows(lambda x: rows_f(x)[::-1], 2, 0.0, 1.0, 1e-300)

    def test_non_finite_off_a_rows_panels_is_ignored(self):
        # row 0 accepts its panels in round 1 and then returns inf and -inf
        # by turns, on panels it does not own: no error and no warning
        calls = []

        def rows_f(x):
            calls.append(len(x))
            junk = np.where(np.arange(len(x)) % 2, np.inf, -np.inf)
            return np.stack([x if len(calls) == 1 else junk, np.cos(30.0 * x)])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate_adaptive_rows(rows_f, 2, 0.0, 2.0, 1e-10, breakpoints=[1.0])
        assert len(calls) > 2
        assert got == [integrate_adaptive(f, 0.0, 2.0, 1e-10, breakpoints=[1.0])
                       for f in (lambda x: x, lambda x: np.cos(30.0 * x))]

    def test_rows_splitting_different_panels_equal_solo(self):
        # each row refines a bump of its own, so every round pools panels
        # that only some rows own; each row keeps its solo bits
        fs = [lambda x, c=c: np.exp(-300.0 * (x - c) ** 2) * np.cos(9.0 * x)
              for c in (0.3, 1.1, 1.7)]
        calls = []

        def rows_f(x):
            calls.append(len(x))
            return np.stack([f(x) for f in fs])

        got = integrate_adaptive_rows(rows_f, len(fs), 0.0, 2.0, 1e-13, breakpoints=[1.0])
        for f, res in zip(fs, got):
            solo_calls = []
            solo = integrate_adaptive(lambda x: solo_calls.append(len(x)) or f(x), 0.0, 2.0,
                                      1e-13, breakpoints=[1.0])
            assert res == solo
            # the pooled calls held panels this row did not own
            assert sum(calls) > sum(solo_calls)

    def test_sums_only_the_cells_a_row_owns(self, monkeypatch):
        # three rows refining bumps of their own: the GK15 sums cover each
        # row's own panels of each round, its two starting panels and two
        # children per split, 2 panels_used - 2 in all, with the solo bits
        fs = [lambda x, c=c: np.exp(-300.0 * (x - c) ** 2) * np.cos(9.0 * x)
              for c in (0.3, 1.1, 1.7)]
        cells, pooled = [], []

        def counted(vals, hw, _fn=Q._gk15_sums):
            cells.append(vals.shape[:-1])
            return _fn(vals, hw)

        def rows_f(x):
            pooled.append(len(x) // 15)
            return np.stack([f(x) for f in fs])

        monkeypatch.setattr(Q, "_gk15_sums", counted)
        got = integrate_adaptive_rows(rows_f, len(fs), 0.0, 2.0, 1e-13, breakpoints=[1.0])
        assert all(len(shape) == 1 for shape in cells)
        assert sum(shape[0] for shape in cells) == sum(2 * r.panels_used - 2 for r in got)
        assert sum(shape[0] for shape in cells) < len(fs) * sum(pooled)
        monkeypatch.undo()
        assert got == [integrate_adaptive(f, 0.0, 2.0, 1e-13, breakpoints=[1.0]) for f in fs]

    def test_identical_rows_share_every_node(self):
        # two copies of a row refine the same panels, so each round's call
        # gets exactly the nodes of the solo row's call, in its order
        f = damped_wave(1.0, 25.0, 0.3, 0.5)
        solo_calls, rows_calls = [], []

        def solo_f(x):
            solo_calls.append(x.copy())
            return f(x)

        def rows_f(x):
            rows_calls.append(x.copy())
            return np.stack([f(x), f(x)])

        solo = integrate_adaptive(solo_f, 0.0, 3.0, 1e-11, breakpoints=[1.0])
        got = integrate_adaptive_rows(rows_f, 2, 0.0, 3.0, 1e-11, breakpoints=[1.0])
        assert got == [solo, solo]
        assert len(solo_calls) > 2
        assert len(rows_calls) == len(solo_calls)
        for x_rows, x_solo in zip(rows_calls, solo_calls):
            np.testing.assert_array_equal(x_rows, x_solo)

    def test_breakpoint_panels_beyond_budget_all_accepted(self, monkeypatch):
        # the budget charges only the children of rejected panels, so a row
        # that starts with more panels than the budget but accepts them all
        # in the first round returns
        fs = [lambda x: x, lambda x: 1.0 - x * x]
        breaks = list(np.linspace(0.0, 2.0, 101)[1:-1])
        monkeypatch.setattr(Q, "_MAX_PANELS", 50)
        got = integrate_adaptive_rows(lambda x: np.stack([f(x) for f in fs]), 2,
                                      0.0, 2.0, 1e-9, breakpoints=breaks)
        for f, res in zip(fs, got):
            value, err, panels, n_calls = adaptive_reference(f, 0.0, 2.0, 1e-9, breaks)
            assert (res.value, res.error_estimate, res.panels_used) == (value, err, panels)
            assert (panels, n_calls) == (100, 1)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_adaptive_rows(lambda x: np.stack([x, x]), 2, 1.0, 0.0, 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(params=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 40.0),
                                     st.floats(0.0, 6.0), st.floats(0.0, 3.0),
                                     st.sampled_from([1e-6, 1e-9, 1e-12])),
                           min_size=1, max_size=5),
           a=st.floats(-2.0, 2.0), width=st.floats(0.1, 4.0),
           cuts=st.lists(st.floats(0.0, 1.0), max_size=4))
    def test_per_row_tolerances(self, params, a, width, cuts):
        # each row stops at its own tolerance, with the bits of its solo integral
        b = a + width
        breaks = [a + c * width for c in cuts]
        fs = [damped_wave(*p[:4]) for p in params]
        tols = [p[4] for p in params]
        got = integrate_adaptive_rows(lambda x: np.stack([f(x) for f in fs]), len(fs),
                                      a, b, tols, breakpoints=breaks)
        for f, tol, res in zip(fs, tols, got):
            assert res == integrate_adaptive(f, a, b, tol, breakpoints=breaks)

    @pytest.mark.parametrize("tols", [[1e-9], [1e-9, 1e-9, 1e-9], [1e-9, 0.0],
                                      [1e-9, math.nan]])
    def test_per_row_tolerance_domain(self, tols):
        with pytest.raises(DomainError):
            integrate_adaptive_rows(lambda x: np.stack([x, x]), 2, 0.0, 1.0, tols)


class TestTanhSinh:
    """The contract of `integrate_singular`: (dist)^(-1/2) blow-ups at the
    ends, and f never called at a or b.  It is GK15 over the two halves of
    the window, each mapped from its own end by x = end -+ w tau^2."""

    def test_plain_form_never_hits_endpoints(self):
        seen = []

        def f(x):
            seen.append((x.min(), x.max()))
            return np.sqrt((1.0 - x) * (1.0 + x))

        res = integrate_singular(f, -1.0, 1.0, 1e-10)
        assert all(lo > -1.0 and hi < 1.0 for lo, hi in seen)
        assert abs(res.value - math.pi / 2) <= 1e-9
        seen.clear()
        res = integrate_singular(lambda x: f(x) ** -1.0, -1.0, 1.0, 1e-10)
        assert all(lo > -1.0 and hi < 1.0 for lo, hi in seen)
        assert abs(res.value - math.pi) <= 1e-9
        assert res.error_estimate <= 1e-10

    def test_non_integrable_raises(self):
        # refinement runs towards an end until a node rounds onto it; the
        # error names that node's x, not its tau
        with pytest.raises(QuadratureError, match=r"near x = -?1\.0$"):
            integrate_singular(lambda x: 1.0 / ((1.0 - x) * (1.0 + x)),
                               -1.0, 1.0, 1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_singular(lambda x: x, 2.0, 2.0, 1e-9)
