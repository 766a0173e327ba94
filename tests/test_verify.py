import math

import numpy as np
import pytest

from zladder import (DomainError, PolyFamilySpec, bessel_j, bessel_norm_sq,
                     bessel_zero, integrate_adaptive, integrate_singular, poly_eval)
from zladder import verify as V

J_32_PI_HALF_SQ = 0.10132118364233779   # 0.5 * J_{3/2}(pi)^2


class TestBaseline:
    def test_nu0(self):
        reports = V.verify_bessel_baseline(0.0, 3)
        assert len(reports) == 6
        for r in reports:
            assert r.equation_id == "E1_2"
            if r.rhs == 0.0:
                assert abs(r.lhs) <= 1e-10
                assert r.ratio is None
            else:
                assert r.abs_error <= 1e-9
                assert r.ratio == pytest.approx(1.0, abs=1e-8)
            assert r.evaluator_hash
            assert r.quadrature_error >= 0.0

    def test_half_order_diagonal_closed_form(self):
        reports = V.verify_bessel_baseline(0.5, 1)
        diag = [r for r in reports if r.params["m"] == r.params["n"] == 1][0]
        assert diag.lhs == pytest.approx(J_32_PI_HALF_SQ, abs=1e-10)

    def test_max_n_cap(self):
        with pytest.raises(DomainError):
            V.verify_bessel_baseline(0.0, 9)


@pytest.fixture(scope="module")
def theorem1_reports(small_ladder):
    return V.verify_theorem1(small_ladder, 1000.0, 0.0, 3)


class TestTheorem1:
    @pytest.fixture()
    def reports(self, theorem1_reports):
        return theorem1_reports

    def test_offdiagonals_vanish(self, reports):
        offs = [r for r in reports if r.equation_id == "E1_3_offdiag"]
        assert len(offs) == 3
        for r in offs:
            assert abs(r.lhs) <= 1e-6

    def test_diagonals_match_bessel_norms(self, reports):
        diags = [r for r in reports if r.equation_id == "E1_3_diag"]
        assert len(diags) == 3
        for r in diags:
            n = r.params["n"]
            assert r.rhs == bessel_norm_sq(0.0, n)
            assert r.abs_error <= 1e-4 * (1.0 + r.rhs)

    def test_e1_4_row(self, reports, small_ladder):
        row = [r for r in reports if r.equation_id == "E1_4"][0]
        a = small_ladder.invert(1000.0)
        assert row.lhs == a - 1.0
        assert row.rhs == 1000.0
        assert 1.0 < row.ratio < 1.2

    def test_hashes_recorded(self, reports, small_ladder):
        for r in reports:
            assert r.evaluator_hash == small_ladder.evaluator.config_hash()
            assert r.ladder_hash == small_ladder.config_hash()

    def test_working_range(self, small_ladder):
        with pytest.raises(DomainError):
            V.verify_theorem1(small_ladder, 999.0, 0.0, 2)


class TestCorollary:
    def test_ratio_near_one(self, small_ladder):
        reports = V.verify_corollary(small_ladder, [1000.0], 0.0, 1)
        assert len(reports) == 1
        r = reports[0]
        assert r.rhs == bessel_norm_sq(0.0, 1) * math.log(1000.0)
        assert abs(r.ratio - 1.0) <= 0.3

    def test_trend_helper(self):
        mk = lambda ratio, T: V.VerificationReport(
            equation_id="E2_2", params={"T": T}, lhs=ratio, rhs=1.0, ratio=ratio,
            abs_error=0.0, quadrature_error=0.0, elapsed=0.0, evaluator_hash="x")
        assert V.ratio_trend_nonincreasing([mk(1.10, 1e3), mk(1.05, 1e4), mk(1.02, 1e5)])
        assert not V.ratio_trend_nonincreasing([mk(1.01, 1e3), mk(1.08, 1e4)])


class TestPooledRowsEqualPerRowIntegrals:
    """Each row of a Bessel family integrated together with its siblings is
    the integral of that row's own integrand, bit for bit."""

    @staticmethod
    def assert_rows(reports, integrand, a, b, tol, breakpoints=None):
        for r in reports:
            res = integrate_adaptive(integrand(r.params), a, b, tol, breakpoints=breakpoints)
            assert (r.lhs, r.quadrature_error) == (res.value, res.error_estimate)

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_baseline(self, nu):
        def integrand(p):
            mm, mn = bessel_zero(nu, p["m"]), bessel_zero(nu, p["n"])

            def f(x):
                j = bessel_j(nu, mm * x)
                return (j * j if p["m"] == p["n"] else j * bessel_j(nu, mn * x)) * x
            return f

        self.assert_rows(V.verify_bessel_baseline(nu, 3), integrand, 0.0, 1.0, 1e-12)

    def test_theorem1(self, small_ladder, theorem1_reports):
        T, table = 1000.0, small_ladder

        def integrand(p):
            mm, mn = bessel_zero(0.0, p["m"]), bessel_zero(0.0, p["n"])

            def f(ts):
                u = np.maximum(table.eval(ts) - T, 0.0)
                j = bessel_j(0.0, mm * u)
                jj = j * j if p["m"] == p["n"] else j * bessel_j(0.0, mn * u)
                return jj * u * table.ztilde_sq(ts)
            return f

        a, b = table.invert(T), table.invert(T + 1.0)
        rows = [r for r in theorem1_reports if r.equation_id != "E1_4"]
        assert len(rows) == 6
        self.assert_rows(rows, integrand, a, b, 1e-9, table.breakpoints(a, b))

    def test_corollary(self, small_ladder):
        table = small_ladder
        reports = V.verify_corollary(table, [1001.0, 1000.0], 1.0, 3)
        assert [(r.params["T"], r.params["n"]) for r in reports] == \
            [(T, n) for T in (1000.0, 1001.0) for n in (1, 2, 3)]
        for T in (1000.0, 1001.0):
            def integrand(p):
                mu = bessel_zero(1.0, p["n"])

                def f(ts):
                    u = np.maximum(table.eval(ts) - T, 0.0)
                    return bessel_j(1.0, mu * u) ** 2 * u * table.ztilde_sq(ts) * np.log(ts)
                return f

            a, b = table.invert(T), table.invert(T + 1.0)
            self.assert_rows([r for r in reports if r.params["T"] == T], integrand,
                             a, b, 1e-6, table.breakpoints(a, b))

    @staticmethod
    def theorem2_integrand(table, T, eq, p, layer):
        """One E2_4..E2_10 row's integrand as its own job built it before
        the rows API, and whether it is smooth."""
        family, ab, degree = V.THEOREM2_MEMBERS[eq]
        n = p.get("n", degree)
        alpha, beta = (p["alpha"], p["beta"]) if ab == "params" else ab
        smooth = alpha == 0.0 and beta == 0.0
        spec = (PolyFamilySpec.jacobi(alpha, beta) if family == "jacobi"
                else PolyFamilySpec(family) if family != "bessel" else None)

        def factor(ts, w):
            phi = table.eval(ts)
            if family == "bessel":
                u = np.maximum(phi - T, 0.0)
                return bessel_j(p["nu"], bessel_zero(p["nu"], n) * u) ** 2 * u * w
            q = poly_eval(spec, n, phi - (T + 1.0))
            if smooth:
                return q * q * w
            d_right = np.maximum((T + 2.0) - phi, 0.0)
            d_left = np.maximum(phi - T, 0.0)
            if family == "jacobi":
                return q * q * d_right ** alpha * d_left ** beta * w
            rad = d_right * d_left
            if family == "chebyshev_u":
                return q * q * w * np.sqrt(rad)
            return np.where(rad > 0.0, q * q * w / np.sqrt(np.where(rad > 0.0, rad, 1.0)),
                            0.0)

        if layer == "zeta2":
            return (lambda ts: factor(ts, table.ztilde_sq(ts) * np.log(ts))), smooth
        return (lambda ts: factor(ts, table.ztilde_sq(ts))), smooth

    @pytest.mark.parametrize("layer", ["zeta2", "ztilde2"])
    @pytest.mark.parametrize("eq,alpha,beta",
                             [(eq, 0.5, 0.25) for eq in V.THEOREM2_MEMBERS]
                             + [("E2_5", 0.0, 0.0)],
                             ids=[*V.THEOREM2_MEMBERS, "E2_5-smooth"])
    def test_theorem2(self, small_ladder, eq, alpha, beta, layer):
        table, T = small_ladder, 1000.0
        if layer == "zeta2":
            reports, tol = V.verify_theorem2(table, T, eq, 3, 1.0, alpha, beta), 1e-6
        else:
            reports, tol = V.sanity_theorem2_exact(table, T, eq, 3, 1.0, alpha, beta), 1e-8
        assert len(reports) == (1 if eq in ("E2_8", "E2_10") else 3)
        U = 1.0 if eq == "E2_4" else 2.0
        a = table.invert(T)
        while table.eval(a) < T:
            a = float(np.nextafter(a, math.inf))
        b = table.invert(T + U)
        while table.eval(b) > T + U:
            b = float(np.nextafter(b, -math.inf))
        for r in reports:
            f, smooth = self.theorem2_integrand(table, T, eq, r.params, layer)
            if smooth:
                res = integrate_adaptive(f, a, b, tol, breakpoints=table.breakpoints(a, b))
            else:
                res = integrate_singular(f, a, b, tol)
            assert (r.lhs, r.quadrature_error) == (res.value, res.error_estimate)

    def test_corollary_max_n(self, small_ladder):
        with pytest.raises(DomainError):
            V.verify_corollary(small_ladder, [1000.0], 0.0, 0)


class TestSanityLayer:
    CASES = [("E2_4", {"max_n": 2, "nu": 0.0}),
             ("E2_5", {"max_n": 2, "alpha": 0.5, "beta": 0.5}),
             ("E2_6", {"max_n": 1}), ("E2_7", {"max_n": 1}), ("E2_8", {"max_n": 1}),
             ("E2_9", {"max_n": 1}), ("E2_10", {"max_n": 1})]

    @pytest.mark.parametrize("eq,kwargs", CASES, ids=[c[0] for c in CASES])
    def test_exact_substitution(self, small_ladder, eq, kwargs):
        reports = V.sanity_theorem2_exact(small_ladder, 1000.0, eq, **kwargs)
        fixed = eq in ("E2_8", "E2_10")
        assert [r.params.get("n") for r in reports] == \
            ([None] if fixed else list(range(1, kwargs["max_n"] + 1)))
        thr = 1e-3 if eq in ("E2_7", "E2_8") else 1e-4
        for r in reports:
            assert abs(r.ratio - 1.0) <= thr
            assert r.params["weight"] == "ztilde2"

    def test_jacobi00_equals_legendre_bitwise(self, small_ladder):
        r5 = V.sanity_theorem2_exact(small_ladder, 1000.0, "E2_5", 2, alpha=0.0, beta=0.0)
        r6 = V.sanity_theorem2_exact(small_ladder, 1000.0, "E2_6", 2)
        assert [r.lhs for r in r5] == [r.lhs for r in r6]

    def test_invalid_equation(self, small_ladder):
        with pytest.raises(DomainError):
            V.sanity_theorem2_exact(small_ladder, 1000.0, "E2_11", 1)
        with pytest.raises(DomainError):
            V.sanity_theorem2_exact(small_ladder, 1000.0, "E2_6", 0)
        with pytest.raises(DomainError):
            V.sanity_theorem2_exact(small_ladder, 1000.0, "E2_6", 17)


class TestAsymptoticLayer:
    @pytest.mark.parametrize("eq,kwargs", TestSanityLayer.CASES,
                             ids=[c[0] for c in TestSanityLayer.CASES])
    def test_ratio_within_band(self, small_ladder, eq, kwargs):
        reports = V.verify_theorem2(small_ladder, 1000.0, eq, **kwargs)
        assert len(reports) == (1 if eq in ("E2_8", "E2_10") else kwargs["max_n"])
        for r in reports:
            assert abs(r.ratio - 1.0) <= 0.3
            assert r.rhs == pytest.approx(r.rhs)  # finite
            assert r.quadrature_error < abs(r.rhs)
            assert r.params["tol_ratio"] == 0.25

    def test_ln_t_placement(self, small_ladder):
        r, = V.verify_theorem2(small_ladder, 1000.0, "E2_6", 1)
        a = small_ladder.invert(1000.0)
        b = small_ladder.invert(1002.0)
        shift = V.ln_t_placement_shift(r.ratio, 1000.0, (a, b))
        assert shift <= 2.0 / math.log(1000.0)


class TestEnvelope:
    def test_rows(self, small_ladder):
        T = 950.0
        a = small_ladder.invert(T)
        b = small_ladder.invert(T + 1.0)
        grid = np.linspace(a, b, 200)
        rows = V.envelope_23(small_ladder, T, 0.0, 3, grid)
        assert len(rows) == 200
        # phi(a) - T = 0 at the left preimage up to the 1e-12 inversion
        # residual, which the square root turns into ~1e-6
        assert rows[0][1] <= 5e-6
        mu3 = __import__("zladder").bessel_zero(0.0, 3)
        xs = np.linspace(0.0, 1.0, 2001)
        bound = np.max(np.abs(__import__("zladder").bessel_j(0.0, mu3 * xs))
                       * np.sqrt(xs))
        assert all(e <= bound + 1e-9 for _, e, _ in rows)

    def test_grid_domain(self, small_ladder):
        with pytest.raises(DomainError):
            V.envelope_23(small_ladder, 950.0, 0.0, 1, [1000.0])


class TestReportSerialization:
    def test_json_line_deterministic(self, small_ladder):
        r, = V.sanity_theorem2_exact(small_ladder, 1000.0, "E2_10", 1)
        l1 = V.report_json_line(r)
        l2 = V.report_json_line(r)
        assert l1 == l2
        assert '"elapsed"' not in l1
        assert '"elapsed"' in V.report_json_line(r, include_timings=True)

    def test_sorting_key_stable(self, small_ladder):
        rows = [*V.sanity_theorem2_exact(small_ladder, 1000.0, "E2_10", 1),
                *V.sanity_theorem2_exact(small_ladder, 1000.0, "E2_6", 1)]
        srt = sorted(rows, key=V.sort_key)
        assert [r.equation_id for r in srt] == ["E2_10", "E2_6"]
