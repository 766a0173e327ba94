import math

import numpy as np
import pytest

from zladder import (AdmissibilityError, DomainError, PolyFamilySpec, bessel_j, bessel_norm_sq,
                     bessel_zero, build_ladder, integrate_adaptive, poly_eval)
from zladder import verify as V
from zladder.cli import report_json_line
from zladder.specfun import bessel_j_proxy

from oracles import ln_t_placement_shift

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nu", [1e-7, 2.728067429580452e-07, 1e-6, -0.49, -0.4999999, 0.3])
    def test_error_within_its_estimate_off_the_integer_orders(self, nu):
        # x^(1 + 2 nu) is not smooth at x = 0 here: integrated in x itself,
        # GK15's estimate falls up to 56 times short (nu = 1e-6) and x J_nu^2
        # overflows near nu = -1/2
        for r in V.verify_bessel_baseline(nu, 8):
            assert abs(r.lhs - r.rhs) <= r.quadrature_error, r


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
    """Each row of a family integrated together with its siblings is the
    integral of that row's own integrand, bit for bit: for a ladder row, a
    one-row GK15 over the same window pieces and end map.  The ladder rows
    take J from the per-(nu, n) proxies, E1_2 from the direct series."""

    @staticmethod
    def assert_rows(reports, integrand, a, b, tol, breakpoints=None):
        for r in reports:
            res = integrate_adaptive(integrand(r.params), a, b, tol, breakpoints=breakpoints)
            assert (r.lhs, r.quadrature_error) == (res.value, res.error_estimate)

    @staticmethod
    def window(table, T, eq, alpha=0.5, beta=0.25):
        """The window of a member's rows at T: the preimage of [T, T + U] as
        panel pieces, each end piece mapped by the member's power there."""
        member = V._member_pieces(V.RowSet(eq, T, 1, alpha=alpha, beta=beta))
        return V._Window(table, table.locate(T), member.U, member.m)

    def assert_ladder_rows(self, reports, integrand, window, tol):
        self.assert_rows(reports, integrand, 0.0, window.span, tol, window.breaks)

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
        window = self.window(table, T, "E1_3")

        def integrand(p):
            jm, jn = bessel_j_proxy(0.0, [p["m"]]), bessel_j_proxy(0.0, [p["n"]])

            def f(s):
                u, _, _, ztilde2 = window.at(s)
                j = jm(u)[0]
                jj = j * j if p["m"] == p["n"] else j * jn(u)[0]
                return jj * u * ztilde2
            return f

        rows = [r for r in theorem1_reports if r.equation_id != "E1_4"]
        assert len(rows) == 6
        self.assert_ladder_rows(rows, integrand, window, 1e-9)

    def test_corollary(self, small_ladder):
        table = small_ladder
        reports = V.verify_corollary(table, [1001.0, 1000.0], 1.0, 3)
        assert [(r.params["T"], r.params["n"]) for r in reports] == \
            [(T, n) for T in (1000.0, 1001.0) for n in (1, 2, 3)]
        for T in (1000.0, 1001.0):
            window = self.window(table, T, "E2_2")

            def integrand(p):
                jn = bessel_j_proxy(1.0, [p["n"]])

                def f(s):
                    u, _, t, ztilde2 = window.at(s)
                    return jn(u)[0] ** 2 * u * (ztilde2 * np.log(t))
                return f

            self.assert_ladder_rows([r for r in reports if r.params["T"] == T], integrand,
                                    window, 1e-6)

    @staticmethod
    def theorem2_integrand(window, eq, p, layer):
        """One E2_4..E2_10 row's integrand on its window, as the row alone
        would form it."""
        family, ab, degree, _ = V.THEOREM2_MEMBERS[eq]
        n = p.get("n", degree)
        alpha, beta = (p["alpha"], p["beta"]) if ab == "params" else ab
        smooth = alpha == 0.0 and beta == 0.0
        spec = (PolyFamilySpec.jacobi(alpha, beta) if family == "jacobi"
                else PolyFamilySpec(family) if family != "bessel" else None)

        def f(s):
            d_left, d_right, t, w = window.at(s)
            if layer == "zeta2":
                w = w * np.log(t)
            if family == "bessel":
                return bessel_j_proxy(p["nu"], [n])(d_left)[0] ** 2 * d_left * w
            q = poly_eval(spec, n, 0.5 * (d_left - d_right))
            if smooth:
                return q * q * w
            if family == "jacobi":
                return q * q * d_right ** alpha * d_left ** beta * w
            rad = d_right * d_left
            if family == "chebyshev_u":
                return q * q * w * np.sqrt(rad)
            return np.where(rad > 0.0, q * q * w / np.sqrt(np.where(rad > 0.0, rad, 1.0)),
                            0.0)
        return f

    @pytest.mark.parametrize("layer", ["zeta2", "ztilde2"])
    @pytest.mark.parametrize("eq,alpha,beta",
                             [(eq, 0.5, 0.25) for eq in V.THEOREM2_MEMBERS]
                             + [("E2_5", 0.0, 0.0), ("E2_5", -0.75, 0.3)],
                             ids=[*V.THEOREM2_MEMBERS, "E2_5-smooth", "E2_5-m4"])
    def test_theorem2(self, small_ladder, eq, alpha, beta, layer):
        table, T = small_ladder, 995.0
        if layer == "zeta2":
            reports, tol = V.verify_theorem2(table, T, eq, 3, 1.0, alpha, beta), 1e-6
        else:
            reports, tol = V.sanity_theorem2_exact(table, T, eq, 3, 1.0, alpha, beta), 1e-8
        assert len(reports) == (1 if eq in ("E2_8", "E2_10") else 3)
        window = self.window(table, T, eq, alpha, beta)
        # m (1 + gamma) = ceil(2 (1 + gamma)) at each end, gamma = beta at the
        # left and alpha at the right: 3 / 1.25 for 0.25, 3 / 1.3 for 0.3, 1 / 0.25
        powers = {(0.5, 0.25): (2.4, 2.0), (-0.75, 0.3): (3.0 / 1.3, 4.0)}
        m = powers.get((alpha, beta), (2.0, 2.0)) if eq == "E2_5" else (2.0, 2.0)
        assert (window.power[0], window.power[-1]) == m
        self.assert_ladder_rows(reports, lambda p: self.theorem2_integrand(window, eq, p, layer),
                                window, tol)

    @pytest.mark.parametrize("T", [995.0, 1000.0])
    def test_e2_4_is_e2_2(self, small_ladder, T):
        r4 = V.verify_theorem2(small_ladder, T, "E2_4", 3, nu=1.0)
        r2 = V.verify_corollary(small_ladder, [T], 1.0, 3)
        fields = lambda r: (r.lhs, r.rhs, r.ratio, r.quadrature_error, r.params["n"],
                            r.params["nu"])
        assert [fields(r) for r in r4] == [fields(r) for r in r2]

    def test_e2_4_sanity_is_e1_3_diagonal(self, small_ladder):
        # the sanity set of E2_4 at theorem1's tolerance
        r4 = V.ladder_reports(small_ladder, [V.RowSet("E2_4", 1000.0, 3, nu=1.0, quad_tol=1e-9,
                                                      zeta2=False)])
        r1 = [r for r in V.verify_theorem1(small_ladder, 1000.0, 1.0, 3)
              if r.equation_id == "E1_3_diag"]
        fields = lambda r: (r.lhs, r.rhs, r.quadrature_error, r.params["n"])
        assert [fields(r) for r in r4] == [fields(r) for r in r1]

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
        for r in reports:
            assert abs(r.ratio - 1.0) <= 1e-4
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


# (alpha, beta) of E2_5 with an endpoint power of each sign and size
EXPONENT_SWEEP = [(-0.9, -0.9), (-0.75, 0.3), (-0.6, 0.5), (-0.5, 0.3), (0.3, -0.4),
                  (0.3, -0.1), (0.5, 0.5), (2.0, 3.0)]


def assert_exact(reports, bound):
    """Each exactness row meets its classical value to `bound` and to its
    own quadrature error estimate."""
    for r in reports:
        assert abs(r.lhs - r.rhs) <= min(bound, r.quadrature_error), (r.equation_id, r.params)


class TestEndMap:
    """E2_5's sanity rows over Jacobi exponents down to -0.99: each end
    piece's power m = ceil(2 (1 + gamma)) / (1 + gamma), gamma that end's
    exponent (beta at u = -1, alpha at u = 1), makes the weight an integer
    power of tau at that end, so every row is exact to quadrature accuracy."""

    @pytest.mark.parametrize("T", [1500.0, 6000.0])
    @pytest.mark.parametrize("alpha,beta", EXPONENT_SWEEP)
    def test_exponent_sweep(self, plan_ladder, T, alpha, beta):
        reports = V.sanity_theorem2_exact(plan_ladder, T, "E2_5", 4, alpha=alpha, beta=beta)
        assert len(reports) == 4
        assert all(abs(r.ratio - 1.0) <= 1e-9 for r in reports)
        assert_exact(reports, 1e-9)

    def test_high_degrees(self, plan_ladder):
        for T in (1500.0, 6000.0):
            reports = V.sanity_theorem2_exact(plan_ladder, T, "E2_5", 16, alpha=-0.6, beta=2.5)
            assert all(abs(r.ratio - 1.0) <= 1e-9 for r in reports)

    def test_no_cusp_at_the_singular_end(self, plan_ladder):
        # m = 2.5 makes the alpha end's integrand tau^0 times a smooth factor;
        # m = 3 would leave a tau^0.2 cusp, which GK15 met at ~4e-12
        for T in (1500.0, 6000.0):
            reports = V.sanity_theorem2_exact(plan_ladder, T, "E2_5", 4, alpha=-0.6, beta=0.5)
            assert_exact(reports, 1e-12)

    @pytest.mark.parametrize("gamma,m", [(0.5, 2), (0.0, 2), (-0.5, 2), (-0.6, 2.5),
                                         (-0.75, 4), (-0.9, 10), (-0.99, 100), (-0.4, 10 / 3),
                                         (2.0, 2)])
    def test_power(self, gamma, m):
        # gamma at the u = -1 end (beta) and at the u = 1 end (alpha), beside 3
        left, three = V._member_pieces(V.RowSet("E2_5", 1500.0, 1, alpha=3.0, beta=gamma)).m
        three_, right = V._member_pieces(V.RowSet("E2_5", 1500.0, 1, alpha=gamma, beta=3.0)).m
        assert three == three_ == 2.0 and left == right
        # m (1 + gamma) = ceil(2 (1 + gamma)); 1 + gamma rounds for -0.9 and -0.99
        assert left == pytest.approx(m, rel=1e-14)
        assert left * (1.0 + gamma) == pytest.approx(math.ceil(2.0 * (1.0 + gamma) - 1e-9),
                                                     rel=1e-15)
        if m == 2:
            assert left == 2.0

    def test_each_end_takes_its_own_power(self, ev):
        # T = phi_lo, so the left end piece is panel 0's, which rises only
        # 0.0096: with beta's end mapped by alpha's power, tau^100, its
        # integrand was tau^525, whose mass lies past GK15's last node, and
        # the degree-16 row was off by 7.2e-5 against an estimate of 1.1e-9
        table = build_ladder(ev, 10000.0, 10026.62974124444, tol=1e-8)
        T = table.phi_lo
        assert T == 9483.232843884229
        reports = V.sanity_theorem2_exact(table, T, "E2_5", 16, alpha=-0.9899999999999999,
                                          beta=4.257270149839974)
        assert len(reports) == 16
        assert_exact(reports, 1e-12)

    def test_power_out_of_range_refused(self, small_ladder):
        with pytest.raises(DomainError, match=r"alpha, beta >= -0\.99"):
            V.sanity_theorem2_exact(small_ladder, 1000.0, "E2_5", 1, alpha=-0.995, beta=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha,beta", [(1011.0, 0.5), (0.5, 1011.0), (795.0, 795.0)])
    def test_largest_exponents_keep_degree_16_finite(self, plan_ladder, alpha, beta):
        # the largest integer exponents under the weight bound, at beta = 0.5,
        # alpha = 0.5 and alpha = beta: every degree-16 row of either layer is
        # finite, with no overflow warning, and every sanity row exact
        for T in (1500.0, 6000.0):
            asym = V.verify_theorem2(plan_ladder, T, "E2_5", 16, alpha=alpha, beta=beta)
            exact = V.sanity_theorem2_exact(plan_ladder, T, "E2_5", 16, alpha=alpha, beta=beta)
            assert len(asym) == len(exact) == 16
            assert all(math.isfinite(r.lhs) and math.isfinite(r.rhs) for r in asym + exact)
            assert all(abs(r.ratio - 1.0) <= 1e-9 for r in exact)

    @pytest.mark.parametrize("alpha,beta", [(1012.0, 0.5), (0.5, 1012.0), (796.0, 796.0),
                                            (1e4, 0.5), (math.inf, 0.5), (0.5, math.inf),
                                            (math.inf, math.inf), (1e308, 1e308)])
    def test_exponents_past_the_weight_bound_refused(self, small_ladder, alpha, beta):
        # the bound is the degree cap's, so it refuses at max_n = 1 as well
        for verify in (V.verify_theorem2, V.sanity_theorem2_exact):
            with pytest.raises(DomainError, match=r"a degree-16 row reaches .* past 2\^1016"):
                verify(small_ladder, 1000.0, "E2_5", 1, alpha=alpha, beta=beta)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha,beta", [(-0.99, 20.0), (20.0, -0.99), (-0.9, 20.0)])
    def test_largest_exponent_beside_a_negative_one(self, plan_ladder, alpha, beta):
        # 20 beside a negative exponent keeps every degree-16 row finite and
        # every sanity row exact; one double past it is refused
        for T in (1500.0, 6000.0):
            asym = V.verify_theorem2(plan_ladder, T, "E2_5", 16, alpha=alpha, beta=beta)
            exact = V.sanity_theorem2_exact(plan_ladder, T, "E2_5", 16, alpha=alpha, beta=beta)
            assert all(math.isfinite(r.lhs) for r in asym + exact)
            assert all(abs(r.ratio - 1.0) <= 1e-9 for r in exact)
        past = [math.nextafter(v, math.inf) if v > 0.0 else v for v in (alpha, beta)]
        with pytest.raises(DomainError, match=r"beside a negative exponent the other must be "
                                               r"at most 20$"):
            V._member_pieces(V.RowSet("E2_5", 1500.0, 1, alpha=past[0], beta=past[1]))

    def test_weight_bound_as_documented(self):
        # the largest admitted alpha at beta = 0.5, found double by double
        def admitted(alpha):
            try:
                V._member_pieces(V.RowSet("E2_5", 1500.0, 1, alpha=alpha, beta=0.5))
            except DomainError:
                return False
            return True

        lo, hi = 1011.0, 1012.0
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
        assert admitted(lo) and not admitted(hi)
        assert 1011.58 < lo < 1011.59


class TestLargeT:
    """The exactness layer at t ~ 1e6, where ulp(t) is 1.2e-10: each row's u
    comes from the panels' own coordinates, not from phi_1 at a double t."""

    @pytest.fixture(scope="class")
    def ladder(self, ev):
        return build_ladder(ev, 1e6, 1e6 + 60.0, tol=1e-8)

    @pytest.mark.parametrize("family", ["sanity", "theorem1"])
    def test_exact_rows(self, ladder, family):
        sets = V.family_sets(family, [966814.0, 966834.0], [0.0], 4)
        reports = [r for r in V.ladder_reports(ladder, sets) if r.equation_id != "E1_4"]
        assert len(reports) == {"sanity": 44, "theorem1": 20}[family]
        assert_exact(reports, 1e-10)


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
        shift = ln_t_placement_shift(r.ratio, 1000.0, (a, b))
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nu", [-0.5, -0.3, 0.0, 1.0])
    def test_limit_at_u_zero(self, small_ladder, nu):
        # |J_nu(mu u)| sqrt(u) -> sqrt(2 / (pi mu)) at nu = -1/2, and 0 above
        T = 950.0
        a = small_ladder.invert(T) - 1e-10
        assert small_ladder.eval(a) < T
        rows = V.envelope_23(small_ladder, T, nu, 2, [a, small_ladder.invert(T + 0.5)])
        mu = bessel_zero(nu, 2)
        assert rows[0][1] == (math.sqrt(2.0 / (math.pi * mu)) if nu == -0.5 else 0.0)
        assert rows[1][1] > 0.0

    def test_order_below_minus_half_refused(self, small_ladder):
        with pytest.raises(DomainError, match="nu >= -0.5"):
            V.envelope_23(small_ladder, 950.0, -0.7, 1, [small_ladder.invert(950.5)])


class TestReportSerialization:
    def test_json_line_deterministic(self, small_ladder):
        r, = V.sanity_theorem2_exact(small_ladder, 1000.0, "E2_10", 1)
        l1 = report_json_line(r)
        l2 = report_json_line(r)
        assert l1 == l2
        assert '"elapsed"' not in l1
        assert '"elapsed"' in report_json_line(r, include_timings=True)

    def test_sorting_key_stable(self, small_ladder):
        rows = [*V.sanity_theorem2_exact(small_ladder, 1000.0, "E2_10", 1),
                *V.sanity_theorem2_exact(small_ladder, 1000.0, "E2_6", 1)]
        srt = sorted(rows, key=V.sort_key)
        assert [r.equation_id for r in srt] == ["E2_10", "E2_6"]


class TestWindowExecutor:
    """One `ladder_reports` run over every ladder family groups the row sets
    by the window they share and makes one rows call per group; every row
    keeps the bits it has when its family function is called alone."""

    @staticmethod
    def family_calls(table, Ts):
        """(row sets, the same rows from the public function alone) for all
        five ladder families, nu in {0, 1} and both layers."""
        calls = []
        for nu in (0.0, 1.0):
            calls.append((V.family_sets("theorem1", [1000.0], [nu], 3),
                          lambda nu=nu: V.verify_theorem1(table, 1000.0, nu, 3)))
            calls.append((V.family_sets("corollary", Ts, [nu], 3),
                          lambda nu=nu: V.verify_corollary(table, Ts, nu, 3)))
            for T in Ts:
                for eq in V.THEOREM2_MEMBERS:
                    args = (T, eq, 2, nu, 0.5, 0.25)
                    for family, solo in (("theorem2", V.verify_theorem2),
                                         ("sanity", V.sanity_theorem2_exact)):
                        calls.append((V.family_sets(family, [T], [nu], 2, alpha=0.5,
                                                    beta=0.25, eqs=[eq]),
                                      lambda a=args, solo=solo: solo(table, *a)))
        return calls

    @staticmethod
    def fields(r):
        return (r.equation_id, r.params, r.lhs, r.rhs, r.ratio, r.abs_error,
                r.quadrature_error, r.evaluator_hash, r.ladder_hash)

    def test_grouped_rows_equal_each_family_alone(self, small_ladder, monkeypatch):
        table, Ts = small_ladder, [995.0, 1000.0]
        calls = self.family_calls(table, Ts)
        alone = [[self.fields(r) for r in solo()] for _, solo in calls]
        rows_calls, located, inverts = [], [], []
        real_rows = V.integrate_adaptive_rows
        monkeypatch.setattr(V, "integrate_adaptive_rows",
                            lambda *a, **k: rows_calls.append(a[3]) or real_rows(*a, **k))
        for name, seen in (("locate", located), ("invert", inverts)):
            real = getattr(type(table), name)
            monkeypatch.setattr(type(table), name,
                                lambda self, y, real=real, seen=seen: seen.append(y)
                                or real(self, y))
        sets = [s for family_sets, _ in calls for s in family_sets]
        grouped = [self.fields(r) for r in V.ladder_reports(table, sets)]
        assert grouped == [row for rows in alone for row in rows]
        # one rows call per (T, U, m) group: per T, U = 1 and U = 2 with
        # m = (2, 2), and E2_5's U = 2 with m = (2.4, 2) for (alpha, beta) = (0.5, 0.25);
        # each T's left end located once, and E1_4's preimage of T inverted once
        assert len(rows_calls) == len({(s.T, V._member_pieces(s).U, V._member_pieces(s).m)
                                       for s in sets}) == 6
        assert sorted(located) == [995.0, 1000.0]
        assert inverts == [1000.0]

    def test_argument_errors_come_before_any_integration(self, small_ladder, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("integrated before the arguments were checked")

        monkeypatch.setattr(V, "integrate_adaptive_rows", no_work)
        for name in ("locate", "invert"):
            monkeypatch.setattr(type(small_ladder), name, no_work)
        good = V.family_sets("sanity", [1000.0], [0.0], 2, eqs=["E2_7"])
        for bad in (V.RowSet("E2_6", 1000.0, 17), V.RowSet("E2_11", 1000.0, 1),
                    V.RowSet("E2_2", 1000.0, 2, nu=math.nan),
                    V.RowSet("E2_5", 1000.0, 2, alpha=-1.0),
                    V.RowSet("E2_6", 1000.0, 2, quad_tol=0.0),
                    V.RowSet("E2_6", 0.5, 2)):   # T / ln T < 0 < U: not admissible
            with pytest.raises((DomainError, AdmissibilityError)):
                V.ladder_reports(small_ladder, good + [bad])

    @pytest.mark.filterwarnings("error")
    def test_bessel_order_below_minus_half_refused(self, small_ladder, monkeypatch):
        # the executor refuses the order family_sets refuses, before any
        # rows call: below -1/2 u J_nu(mu u)^2 is unbounded at u = 0
        def no_work(*args, **kwargs):
            raise AssertionError("integrated before the order was checked")

        monkeypatch.setattr(V, "integrate_adaptive_rows", no_work)
        for eq in ("E2_2", "E1_3", "E2_4"):
            with pytest.raises(DomainError, match=r"require nu >= -0\.5.*got nu = -0\.8"):
                V.ladder_reports(small_ladder, [V.RowSet(eq, 1000.0, 2, nu=-0.8)])

    def test_T_at_one_is_not_admissible(self, small_ladder, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("inverted before the arguments were checked")

        monkeypatch.setattr(type(small_ladder), "invert", no_work)
        with pytest.raises(AdmissibilityError):
            V.ladder_reports(small_ladder, [V.RowSet("E2_6", 1.0, 2)])

    def test_bessel_members_stay_inside_bessel_j_domain(self):
        # mu_64 of J_0 is 200.28: E2_2's last zero lies past bessel_j's domain
        assert bessel_zero(0.0, 64) > 200.0 > bessel_zero(0.0, 63)
        with pytest.raises(DomainError, match=r"E2_2 at nu = 0\.0 with max_n = 64"):
            V.ladder_reports(None, V.family_sets("corollary", [1500.0], [0.0], 64))

    def test_e2_2_cap_serves_negative_orders(self, small_ladder, monkeypatch):
        # mu_64 is 199.49 at nu = -1/2 and 200.28 at nu = 0: the cap of 64 is
        # reached only below nu = 0, which the Bessel families admit to -1/2
        assert round(bessel_zero(-0.5, 64), 2) == 199.49
        rows = V._member_pieces(V.RowSet("E2_2", 1500.0, 64, nu=-0.5)).rows
        assert [params["n"] for _, params, _ in rows] == list(range(1, 65))
        with pytest.raises(DomainError, match=r"^E2_2 requires 1 <= max_n <= 64$"):
            V._member_pieces(V.RowSet("E2_2", 1500.0, 65, nu=-0.5))

        def no_work(*args, **kwargs):
            raise AssertionError("integrated before the arguments were checked")

        monkeypatch.setattr(V, "integrate_adaptive_rows", no_work)
        with pytest.raises(DomainError, match=r"mu_64 = 200\.277"):
            V.ladder_reports(small_ladder, [V.RowSet("E2_2", 1000.0, 64, nu=0.0)])

    def test_rows_record_their_group_time(self, small_ladder):
        reports = V.verify_theorem1(small_ladder, 1000.0, 0.0, 2)
        assert len({r.elapsed for r in reports}) == 1


class TestFamilyTable:
    """`FAMILIES` and `family_sets`: the one place that says which row sets a
    plan family makes, and `is_sanity`, the one test of a sanity row."""

    def test_plan_equations_are_the_baseline_and_the_table(self):
        from zladder.cli import PLAN_EQUATIONS
        assert PLAN_EQUATIONS == ("baseline", "theorem1", "corollary", "theorem2", "sanity")
        assert PLAN_EQUATIONS[1:] == tuple(V.FAMILIES)

    @pytest.mark.parametrize("family,members,zeta2,quad_tol,nus,extra", [
        ("theorem1", ("E1_3",), False, 1e-9, (0.0, 1.0), {"tol": 1e-5}),
        ("corollary", ("E2_2",), True, 1e-6, (0.0, 1.0), {}),
        ("theorem2", tuple(V.THEOREM2_MEMBERS), True, 1e-6, (0.0,), {"tol_ratio": 0.5}),
        ("sanity", tuple(V.THEOREM2_MEMBERS), False, 1e-8, (0.0,), {"weight": "ztilde2"}),
    ])
    def test_sets(self, family, members, zeta2, quad_tol, nus, extra):
        sets = V.family_sets(family, [1500.0, 1000.0], [0.0, 1.0], 3, alpha=0.25,
                             beta=0.75, tol=1e-5, tol_ratio=0.5)
        assert [(s.T, s.nu, s.eq) for s in sets] == \
            [(T, nu, eq) for T in (1000.0, 1500.0) for nu in nus for eq in members]
        for s in sets:
            assert (s.max_n, s.alpha, s.beta, s.quad_tol, s.zeta2, s.extra) == \
                (3, 0.25, 0.75, quad_tol, zeta2, extra)
            assert V.is_sanity(s.extra) == (family == "sanity")

    def test_recorded_defaults(self):
        assert V.family_sets("theorem1", [1000.0], [0.0], 1)[0].extra == {"tol": 1e-4}
        assert V.family_sets("theorem2", [1000.0], [0.0], 1)[0].extra == {"tol_ratio": 0.25}

    def test_argument_errors(self):
        with pytest.raises(DomainError, match="unknown plan family"):
            V.family_sets("baseline", [1000.0], [0.0], 1)
        with pytest.raises(DomainError, match="unknown equation id 'E2_2'"):
            V.family_sets("sanity", [1000.0], [0.0], 1, eqs=["E2_2"])
        for T in (999.0, math.nan):
            with pytest.raises(DomainError, match="T >= 1e3"):
                V.family_sets("theorem1", [1000.0, T], [0.0], 1)
        for family in V.FAMILIES:
            for nu in (-0.7, math.nan):
                with pytest.raises(DomainError, match=r"nu >= -0\.5"):
                    V.family_sets(family, [1000.0], [nu], 1)
        # a member set without a Bessel member takes no order
        assert V.family_sets("sanity", [1000.0], [-0.7], 1, eqs=["E2_6"])
        with pytest.raises(DomainError, match=r"nu >= -0\.5"):
            V.verify_bessel_baseline(-0.7, 1)

    def test_is_sanity(self):
        assert V.is_sanity({"weight": "ztilde2", "T": 1000.0})
        assert not V.is_sanity({"tol_ratio": 0.25})
        assert not V.is_sanity({})
