import math

import numpy as np
import pytest

from zladder import (DomainError, QuadratureError, bessel_norm_sq, bessel_zero,
                     bessel_j, integrate_adaptive, integrate_singular)


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
