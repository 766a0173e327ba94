import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zladder import (DomainError, PolyFamilySpec, bessel_j,
                     bessel_norm_sq, bessel_zero, gamma_fn, integrate_adaptive,
                     integrate_singular, log_gamma, poly_eval, poly_norm_sq)
from zladder.specfun import bessel_j_proxy, zero_table
from zladder.specfun import bessel as B
from zladder.specfun.bessel import (BesselZeroTable, _bessel_j_any, _bessel_miller,
                                    _bessel_series)

from oracles import dd_add, dd_div, dd_mul, poly_weight, two_prod, two_sum

J0_ZERO_1 = 2.404825557695773
J0_ZERO_2 = 5.520078110286311
J1_ZERO_1 = 3.8317059702075125
NORM_0_1 = 0.13475706197095866   # 0.5 * J_1(j_{0,1})^2
J_32_PI = 0.4501581580785531     # J_{3/2}(pi) = sqrt(2/pi^2)


def bessel_series_arrays(nu, x, scaled=False):
    """The ascending series through Dekker's primitives as functions, every
    term on full arrays and the divisor r (nu + r) broadcast to arrays: the
    reference for the program's one loop with those steps written out."""
    half = 0.5 * x
    t0 = np.ones_like(half) if scaled else half ** nu / gamma_fn(nu + 1.0)
    th, tl = t0, np.zeros_like(t0)
    sh, sl = th.copy(), tl.copy()
    qh, ql = two_prod(half, half)
    r_needed = float(np.max(half, initial=0.0))
    zero = np.zeros_like(t0)
    for r in range(1, 701):
        nrh, nrl = two_sum(nu, float(r))
        dh, dl = dd_mul(np.full_like(t0, float(r)), zero, nrh + zero, nrl + zero)
        th, tl = dd_mul(th, tl, qh + zero, ql + zero)
        th, tl = dd_div(th, tl, -dh, -dl)
        sh, sl = dd_add(sh, sl, th, tl)
        if r > r_needed and np.all(np.abs(th) <= 1e-37 * np.maximum(1.0, np.abs(sh))):
            break
    return (sh + sl) / gamma_fn(nu + 1.0) if scaled else sh + sl


# zeros and weighted norms 0.5 J_{nu+1}(mu_n)^2, n = 1..8, as computed by the
# all-array series; the scalar series must reproduce them bit for bit.  Each
# zero is within one ulp of mpmath's (TestBesselZerosOracle)
SERIES_ZEROS_HEX = {
    0.0: ("0x1.33d152e971b40p+1", "0x1.6148f5b2c2e45p+2", "0x1.14eb56cccdecap+3",
          "0x1.79544008272b6p+3", "0x1.ddca13ef271d2p+3", "0x1.212313f8a19f6p+4",
          "0x1.5362dd173f792p+4", "0x1.85a3b930156ddp+4"),
    # fl(n pi), the double nearest each zero n pi of J_{1/2}
    0.5: ("0x1.921fb54442d18p+1", "0x1.921fb54442d18p+2", "0x1.2d97c7f3321d2p+3",
          "0x1.921fb54442d18p+3", "0x1.f6a7a2955385ep+3", "0x1.2d97c7f3321d2p+4",
          "0x1.5fdbbe9bba775p+4", "0x1.921fb54442d18p+4"),
    1.0: ("0x1.ea75575af6f09p+1", "0x1.c0ff5f3b47250p+2", "0x1.458d0d0bdfc29p+3",
          "0x1.aa5baf310e5a2p+3", "0x1.0787b360508c5p+4", "0x1.39da8e7416ca4p+4",
          "0x1.6c294e3d4d8acp+4", "0x1.9e7570dcea106p+4"),
    2.5: ("0x1.70dc83f69f856p+2", "0x1.230a5533a4a71p+3", "0x1.8a55884d63e73p+3",
          "0x1.f077a0bbc5d0ap+3", "0x1.2b064afc409d2p+4", "0x1.5da9780456f95p+4",
          "0x1.9034712171e32p+4", "0x1.c2af6e343213dp+4"),
}
SERIES_NORMS_HEX = {
    0.0: ("0x1.13fb82b08fffap-3", "0x1.da3c464bca650p-5", "0x1.2dd1bd44addbap-5",
          "0x1.baad01348404dp-6", "0x1.5d7b804dbff9bp-6", "0x1.20b40c3df4550p-6",
          "0x1.ebdd7e9225923p-7", "0x1.ac661bd646900p-7"),
    0.5: ("0x1.9f02f6222c721p-4", "0x1.9f02f6222c723p-5", "0x1.14aca416c84bfp-5",
          "0x1.9f02f6222c721p-6", "0x1.4c025e81bd281p-6", "0x1.14aca416c84bfp-6",
          "0x1.da4c87027bf03p-7", "0x1.9f02f6222c723p-7"),
    1.0: ("0x1.4c37724e892aep-4", "0x1.70ecade2cdd64p-5", "0x1.fecab94c703e9p-6",
          "0x1.8699f314b5179p-6", "0x1.3c33383b8714ap-6", "0x1.099b947b444f9p-6",
          "0x1.c9f1b18b8cdf8p-7", "0x1.926f85302dd03p-7"),
    2.5: ("0x1.9be0ba478ac14p-5", "0x1.14523815dbd2bp-5", "0x1.9eda281a43402p-6",
          "0x1.4bf54c6ebfab5p-6", "0x1.14a773a8cdcf5p-6", "0x1.da47c2b55020dp-7",
          "0x1.9f00872c3fe4cp-7", "0x1.70e4d7881f879p-7"),
}


class TestGamma:
    def test_one(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_is_sqrt_pi(self):
        assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) <= 1e-12 * math.sqrt(math.pi)

    def test_7_5_by_recurrence_from_half(self):
        expected = gamma_fn(0.5)
        for k in range(7):
            expected *= 0.5 + k
        assert abs(gamma_fn(7.5) - expected) <= 1e-12 * expected

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_recurrence(self, x):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)

    def test_within_one_ulp_of_mpmath(self):
        # Gamma is the exponential of the one ln Gamma routine, rounded once
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for x in (k / 200 for k in range(1, 20201)):
                g = gamma_fn(x)
                assert abs(mp.mpf(g) - mp.gamma(mp.mpf(x))) <= math.ulp(g), x

    @pytest.mark.parametrize("x,bits", [(1.0, "0x1.0000000000000p+0"),
                                        (1.5, "0x1.c5bf891b4ef6bp-1"),
                                        (2.0, "0x1.0000000000000p+0"),
                                        (3.5, "0x1.a96390899a074p+1")])
    def test_bits_the_goldens_reach(self, x, bits):
        # Gamma(nu + 1) for nu = 0, 1/2, 1 (the golden plans) and 5/2 (the
        # pinned zeros of test_zeros_and_norms)
        assert gamma_fn.__wrapped__(x).hex() == bits

    def test_memo_keeps_the_bits(self):
        # every value the cache hands out is the unwrapped function's own, on k / 200
        xs = [k / 200 for k in range(1, 20201)]
        assert [gamma_fn(x).hex() for x in xs] == [gamma_fn.__wrapped__(x).hex() for x in xs]
        assert gamma_fn(2.5) is gamma_fn(2.5)
        xs = xs[::20]
        assert [log_gamma(x).hex() for x in xs] == [log_gamma.__wrapped__(x).hex() for x in xs]

    def test_poles_and_domain(self):
        # the callers pass nu + 1 with nu > -1: no reflection, no pole check
        for x in (0.0, -0.5, -1.0, -7.0, 201.0, math.nan):
            with pytest.raises(DomainError):
                gamma_fn(x)
        assert gamma_fn(200.0) == math.inf


class TestLogGamma:
    # float.hex of log_gamma recorded while it still had a Stirling shift
    # loop of its own; it is now the real part of the complex driver
    PINNED = {0.25: "0x1.49bbd81c16efbp+0", 0.5: "0x1.250d048e7a1bdp-1",
              1.0: "0x1.0000000000000p-59", 1.5: "-0x1.eeb95b094c191p-4",
              3.25: "0x1.df216e434a8ecp-1", 7.5: "0x1.e233060e41f7fp+2",
              15.999: "0x1.be5830437b97cp+4", 16.0: "0x1.be636a63fd346p+4",
              50.5: "0x1.2509dbdb0dd3cp+7", 101.0: "0x1.6bbd47b7669b6p+8"}

    @pytest.mark.parametrize("x", sorted(PINNED))
    def test_bits_pinned(self, x):
        assert log_gamma(x).hex() == self.PINNED[x]

    @pytest.mark.parametrize("x", [0.25, 0.5, 3.25, 7.5, 50.5, 101.0])
    def test_against_math_lgamma(self, x):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-14, abs=1e-15)

    def test_domain(self):
        for x in (0.0, -1.5, math.nan):
            with pytest.raises(DomainError):
                log_gamma(x)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.0, 0.0) == 0.0

    def test_first_j0_zero(self):
        assert abs(bessel_j(0.0, 2.404825558)) <= 1e-9

    def test_half_order_closed_form(self):
        xs = np.linspace(0.3, 30.0, 57)
        expected = np.sqrt(2.0 / (np.pi * xs)) * np.sin(xs)
        assert np.max(np.abs(bessel_j(0.5, xs) - expected)) <= 1e-13

    def test_series_miller_overlap(self):
        for nu in (0.0, 0.5, 1.0, 2.7, 10.0):
            for x in np.linspace(30.0, 40.0, 11):
                series = _bessel_j_any(nu, np.float64(x))
                miller = _bessel_miller(nu, float(x))
                assert abs(series - miller) <= 1e-12

    def test_large_argument_against_orthogonality_tail(self):
        # J_{1/2}(x) closed form also validates the Miller path
        xs = np.linspace(41.0, 199.0, 23)
        expected = np.sqrt(2.0 / (np.pi * xs)) * np.sin(xs)
        assert np.max(np.abs(bessel_j(0.5, xs) - expected)) <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_j(-1.5, 1.0)
        with pytest.raises(DomainError):
            bessel_j(0.0, -0.1)
        with pytest.raises(DomainError):
            bessel_j(0.0, 201.0)

    @pytest.mark.parametrize("nu,x", [(0.0, math.nan), (0.0, [1.0, math.nan]),
                                      (math.nan, 1.0)])
    def test_nan_rejected(self, nu, x):
        with pytest.raises(DomainError):
            bessel_j(nu, x)

    def test_nan_order_rejected_by_other_entry_points(self):
        with pytest.raises(DomainError):
            bessel_zero(math.nan, 1)
        with pytest.raises(DomainError):
            PolyFamilySpec.jacobi(math.nan, 0.5)
        with pytest.raises(DomainError):
            log_gamma(math.nan)


class TestBesselJBatchInvariance:
    """A point's J_nu does not depend on the batch it is evaluated in: the
    pooled verification integrands rely on it for their bits."""

    @settings(max_examples=150, deadline=None)
    @given(nu=st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.3]),
           xs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 40.0),
                                 st.floats(40.0, 200.0, exclude_min=True)),
                       min_size=2, max_size=40))
    def test_point_in_batch_equals_point_alone(self, nu, xs):
        x = np.array(xs)
        batch = bessel_j(nu, x)
        assert [v.hex() for v in batch.tolist()] == [bessel_j(nu, v).hex() for v in xs]
        grid = bessel_j(nu, np.stack([x, x[::-1]]))
        assert grid.tobytes() == np.stack([batch, batch[::-1]]).tobytes()


class TestBesselZeros:
    def test_frozen_values(self):
        assert abs(bessel_zero(0, 1) - J0_ZERO_1) <= 1e-10
        assert abs(bessel_zero(0, 2) - J0_ZERO_2) <= 1e-10
        assert abs(bessel_zero(1, 1) - J1_ZERO_1) <= 1e-10

    def test_half_order_zeros_are_n_pi(self):
        for n in range(1, 9):
            assert abs(bessel_zero(0.5, n) - n * math.pi) <= 1e-10

    def test_residuals(self):
        for nu in (0.0, 0.5, 1.0, 2.0, 10.0):
            table = zero_table(nu, 12)
            assert table.residual_bound <= 1e-12
            assert list(table.zeros) == sorted(table.zeros)

    def test_interlacing(self):
        for nu in (0.0, 0.5, 1.0, 2.0):
            for n in range(1, 11):
                mu_n = bessel_zero(nu, n)
                mu_n_up = bessel_zero(nu + 1.0, n)
                mu_next = bessel_zero(nu, n + 1)
                assert mu_n < mu_n_up < mu_next

    def test_newton_fixed_point_ends_the_refinement(self, monkeypatch):
        # a converged Newton step rounds back onto its iterate; the finder
        # stops there instead of bisecting the bracket down to the tolerance
        import zladder.specfun.bessel as B
        count = [0]
        real = B._bessel_j_any

        def counted(nu, x):
            count[0] += 1
            return real(nu, x)

        monkeypatch.setattr(B, "_bessel_j_any", counted)
        for nu in (0.0, 1.0):
            table = BesselZeroTable(nu=nu)
            for n in range(1, 5):
                before = count[0]
                table.extend_to(n)
                assert count[0] - before <= 45, (nu, n)

    def test_newton_reuses_its_own_j_evaluations(self, monkeypatch):
        # the Newton derivative takes J_nu(x) from the step's own evaluation,
        # and the residual of a fixed-point zero is that step's value; the
        # zeros keep their bits
        want = {0.0: ["0x1.33d152e971b40p+1", "0x1.6148f5b2c2e45p+2",
                      "0x1.14eb56cccdecap+3", "0x1.79544008272b6p+3"],
                1.0: ["0x1.ea75575af6f09p+1", "0x1.c0ff5f3b47250p+2",
                      "0x1.458d0d0bdfc29p+3", "0x1.aa5baf310e5a2p+3"]}
        count = [0]
        real = B._bessel_j_any

        def counted(nu, x):
            count[0] += 1
            return real(nu, x)

        monkeypatch.setattr(B, "_bessel_j_any", counted)
        for nu, hexes in want.items():
            table = BesselZeroTable(nu=nu)
            table.extend_to(4)
            assert [z.hex() for z in table.zeros] == hexes
        # 160 when Newton started at the middle of a scanned bracket, 222
        # when each of its steps evaluated J_nu twice
        assert count[0] == 62

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_residual_at_rounding_level(self, nu):
        table = BesselZeroTable(nu=nu)
        table.extend_to(8)
        assert max(abs(float(_bessel_j_any(nu, np.float64(z)))) for z in table.zeros) <= 1e-15

    @pytest.mark.parametrize("nu", [0, 1])
    def test_against_scipy_jn_zeros(self, nu):
        special = pytest.importorskip("scipy.special")
        ref = special.jn_zeros(nu, 8)
        got = np.array([bessel_zero(nu, n) for n in range(1, 9)])
        assert np.max(np.abs(got - ref) / ref) <= 2.0 * np.finfo(float).eps

    def test_deep_zero(self):
        mu = bessel_zero(10.0, 64)
        assert 210.0 < mu < 220.0

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_zero(0, 0)
        with pytest.raises(DomainError):
            bessel_zero(0, 65)

class TestBesselZerosOracle:
    """The zeros against mpmath's, and the k-th zero is the k-th however far
    McMahon's guess is off."""

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 5.0])
    def test_within_one_ulp(self, nu):
        mpmath = pytest.importorskip("mpmath")
        table = BesselZeroTable(nu=nu)
        table.extend_to(64)
        for k, z in enumerate(table.zeros, 1):
            ref = mpmath.besseljzero(mpmath.mpf(nu), k)
            assert abs(mpmath.mpf(z) - ref) <= math.ulp(z), (nu, k)

    @pytest.mark.parametrize("nu", [10.0, 25.0, 40.0])
    def test_large_orders(self, nu):
        # McMahon's guess overshoots j_{nu,1} by more than 1 from nu ~ 20, and
        # a scan from guess - 1 took j_{25,2} = 35.56 for j_{25,1} = 30.78
        mpmath = pytest.importorskip("mpmath")
        table = BesselZeroTable(nu=nu)
        table.extend_to(16)
        for k, z in enumerate(table.zeros, 1):
            ref = mpmath.besseljzero(mpmath.mpf(nu), k)
            assert abs(mpmath.mpf(z) - ref) <= 1e-12 * ref, (nu, k)

    @pytest.mark.parametrize("ahead", [1, 2, 5])
    def test_a_guess_zeros_ahead_is_not_taken(self, monkeypatch, ahead):
        want = BesselZeroTable(nu=0.0)
        want.extend_to(6)
        real = B._mcmahon_guess
        monkeypatch.setattr(B, "_mcmahon_guess", lambda nu, k: real(nu, k + ahead))
        got = BesselZeroTable(nu=0.0)
        got.extend_to(6)
        assert all(abs(a - b) <= 2.0 * math.ulp(b) for a, b in zip(got.zeros, want.zeros))

class TestSeriesBitwise:
    """The one series loop, on Python floats for a single point and on
    arrays, with its scalar term divisor, gives the bits of the all-array
    series through Dekker's primitives."""

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 10.0])
    @pytest.mark.parametrize("size", [2, 15, 1000])
    def test_arrays(self, nu, size):
        rng = np.random.default_rng(size)
        x = np.concatenate([[40.0], rng.uniform(0.0, 40.0, size - 1)])
        x[x == 0.0] = 1e-3
        assert np.array_equal(_bessel_series(nu, x), bessel_series_arrays(nu, x))
        assert np.array_equal(_bessel_series(nu, x, True), bessel_series_arrays(nu, x, True))

    @pytest.mark.parametrize("nu", [-0.5, -0.25, 0.0, 0.5, 1.0, 2.5, 10.0, 50.0, 99.5])
    def test_single_points(self, nu):
        # the float loop, each double-double step written out, against the
        # array loop of its primitives; the scaled series from x = 0 on
        xs = np.concatenate([[1e-300, 1e-8, 0.5, 1.0, 2.404825557695773, 39.999, 40.0],
                             np.random.default_rng(7).uniform(0.0, 40.0, 25)])
        for scaled, x in [(False, x) for x in xs] + [(True, x) for x in [0.0, *xs]]:
            one = np.array([x])
            got = _bessel_series(nu, one, scaled)
            assert got.shape == (1,)
            assert got[0].hex() == bessel_series_arrays(nu, one, scaled)[0].hex(), (scaled, x)

    @pytest.mark.parametrize("nu", sorted(SERIES_ZEROS_HEX))
    def test_zeros_and_norms(self, nu):
        table = BesselZeroTable(nu=nu)   # a fresh table: the zeros are found now
        table.extend_to(8)
        assert [z.hex() for z in table.zeros] == list(SERIES_ZEROS_HEX[nu])
        norms = [bessel_norm_sq(nu, n).hex() for n in range(1, 9)]
        assert norms == list(SERIES_NORMS_HEX[nu])


class TestBesselNorm:
    def test_frozen(self):
        assert abs(bessel_norm_sq(0, 1) - NORM_0_1) <= 1e-12

    def test_half_order_closed_form(self):
        assert abs(bessel_norm_sq(0.5, 1) - 0.5 * J_32_PI ** 2) <= 1e-12

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    def test_matches_direct_quadrature(self, nu):
        for n in range(1, 7):
            mu = bessel_zero(nu, n)
            res = integrate_adaptive(
                lambda x, _mu=mu: bessel_j(nu, _mu * x) ** 2 * x, 0.0, 1.0, 1e-12)
            assert abs(res.value - bessel_norm_sq(nu, n)) <= 1e-10

    def test_computed_once_per_order_and_zero(self, monkeypatch):
        first = bessel_norm_sq(3.25, 2)

        def no_series(nu, x):
            raise AssertionError("norm recomputed")
        monkeypatch.setattr(B, "_bessel_j_any", no_series)
        assert bessel_norm_sq(3.25, 2) == first


# the grid of the proxy bounds: 8000 u in [0, 1], its ends again and a point
# just past 1, where the integrands' u = phi_1 - T can land by rounding
PROXY_GRID = np.concatenate([np.linspace(0.0, 1.0, 8000), [0.0, 1.0, 1.0 + 1e-9]])
# (nu, largest n, bound on max |proxy - J|): (mu u / 2)^nu amplifies the
# rounding of the Chebyshev sum, to ~1e-13 at nu = 2.5, n = 16
PROXY_BOUNDS = [(0.0, 4, 5e-15), (1.0, 4, 5e-15), (0.0, 16, 5e-14), (0.5, 16, 5e-14),
                (1.0, 16, 5e-14), (2.5, 16, 2e-13)]


def proxy_errors(nu, max_n, reference):
    """max |proxy - reference(nu, mu_n u)| over PROXY_GRID for n = 1..max_n."""
    ns = range(1, max_n + 1)
    got = bessel_j_proxy(nu, ns)(PROXY_GRID)
    return [np.max(np.abs(row - reference(nu, bessel_zero(nu, n) * PROXY_GRID)))
            for n, row in zip(ns, got)]


class TestBesselProxy:
    @pytest.mark.parametrize("nu,max_n,bound", PROXY_BOUNDS)
    def test_against_series(self, nu, max_n, bound):
        assert max(proxy_errors(nu, max_n, bessel_j)) <= bound

    @pytest.mark.parametrize("nu,max_n,bound", PROXY_BOUNDS)
    def test_against_scipy_jv(self, nu, max_n, bound):
        special = pytest.importorskip("scipy.special")
        assert max(proxy_errors(nu, max_n, special.jv)) <= bound

    @pytest.mark.parametrize("nu,want", [(0.0, 1.0), (1.0, 0.0), (2.5, 0.0), (-0.5, math.inf)])
    def test_at_zero_follows_bessel_j(self, nu, want):
        got = bessel_j_proxy(nu, [1, 3])(np.array([0.0, 0.5]))
        assert got[:, 0].tolist() == [want, want] == [bessel_j(nu, 0.0)] * 2

    @pytest.mark.parametrize("nu", [0.0, 2.5])
    def test_rows_keep_their_bits_together(self, nu, rng):
        u = rng.uniform(0.0, 1.0, 50)
        together = bessel_j_proxy(nu, [4, 1, 16, 2])(u)
        for n, row in zip([4, 1, 16, 2], together):
            assert row.tobytes() == bessel_j_proxy(nu, [n])(u)[0].tobytes()

    def test_built_once_and_read_only(self):
        table = BesselZeroTable(nu=4.5)
        table.extend_to(6)
        coefs = table.proxy_coefs([6, 1, 3])
        assert table.proxy_coefs([3])[0] is coefs[2]
        assert not coefs[2].flags.writeable

    # (nu, the largest n whose proxy `_proxied` admits): past it the
    # amplified rounding eps (mu/2)^nu / Gamma(nu + 1) exceeds 1e-12, or
    # (nu <= 1.5) mu_64 leaves bessel_j's domain
    @pytest.mark.parametrize("nu,last", [(0.0, 63), (1.0, 63), (2.5, 28), (5.0, 6),
                                         (19.0, 1)])
    def test_at_the_edge_of_the_admitted_range(self, nu, last):
        special = pytest.importorskip("scipy.special")
        table = zero_table(nu, 64)
        admitted = [n for n in range(1, 65) if B._proxied(nu, table.zeros[n - 1])]
        assert admitted == list(range(1, last + 1))
        u = np.concatenate([np.linspace(0.0, 1.0, 2000), [1.0 + 1e-9]])
        x = table.zeros[last - 1] * u
        row = bessel_j_proxy(nu, [last])(u)[0]
        assert np.max(np.abs(row - bessel_j(nu, x))) <= 1e-12
        assert np.max(np.abs(row - special.jv(nu, x))) <= 1e-12

    @pytest.mark.parametrize("nu,ns", [(-0.5, [3, 1]), (5.0, [7, 1, 6]), (25.0, [2, 1])])
    def test_rows_past_the_range_are_bessel_j(self, nu, ns, rng):
        u = np.concatenate([[0.0], rng.uniform(0.0, 1.0, 50), [1.0]])
        table = zero_table(nu, max(ns))
        for n, row in zip(ns, bessel_j_proxy(nu, ns)(u)):
            mu = table.zeros[n - 1]
            if B._proxied(nu, mu):
                assert row.tobytes() == bessel_j_proxy(nu, [n])(u)[0].tobytes()
            else:
                assert row.tobytes() == bessel_j(nu, mu * u).tobytes()

    def test_past_mu_200_raises_as_bessel_j(self):
        row = bessel_j_proxy(0.0, [64])
        assert bessel_zero(0.0, 64) > 200.0
        assert row(np.array([0.5]))[0, 0] == bessel_j(0.0, bessel_zero(0.0, 64) * 0.5)
        with pytest.raises(DomainError, match="0 <= x <= 200"):
            row(np.array([1.0]))

    @pytest.mark.parametrize("nu", [21.0, 25.0, 40.0])
    def test_high_order_proxy_is_sampled_without_underflow(self, nu):
        # (mu u / 2)^nu underflows at the Lobatto point u = cos(pi / 2) for
        # nu >~ 21; g is sampled from the scaled series instead
        table = zero_table(nu, 2)
        u = np.linspace(0.05, 1.0, 500)
        g0 = 1.0 / gamma_fn(nu + 1.0)
        for mu, c in zip(table.zeros, table.proxy_coefs([1, 2])):
            assert np.all(np.isfinite(c))
            g = np.polynomial.chebyshev.chebval(np.array([-1.0, *(2.0 * u * u - 1.0)]), c)
            assert abs(g[0] - g0) <= 4.0 * B._EPS * g0
            ref = bessel_j(nu, mu * u) / (0.5 * mu * u) ** nu
            assert np.max(np.abs(g[1:] - ref)) <= 16.0 * B._EPS * g0

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 5.0])
    def test_sampled_together_as_one_at_a_time(self, nu):
        # each mu alone, every degree's points in one call of the sampler
        def alone(mu):
            n = B._PROXY_MIN_DEGREE
            while True:
                x = mu * np.cos(np.pi * np.arange(n + 1) / (2 * n))
                c = B._chopped(_bessel_j_any(nu, x, scaled=True), n)
                if c is not None:
                    return c
                n *= 2

        table = BesselZeroTable(nu=nu)
        table.extend_to(16)
        together = table.proxy_coefs(range(16, 0, -1))
        assert [c.tobytes() for c in together] == [alone(z).tobytes()
                                                   for z in table.zeros[::-1]]

    def test_one_sampler_call_per_order(self, monkeypatch):
        table = BesselZeroTable(nu=0.0)
        table.extend_to(4)
        calls = []
        real = B._bessel_j_any

        def counted(nu, x, scaled=False):
            calls.append(np.size(x))
            return real(nu, x, scaled)

        monkeypatch.setattr(B, "_bessel_j_any", counted)
        table.proxy_coefs([1, 2, 3, 4])
        assert calls == [4 * 33]   # degree 32 for all four; 16 reads its even points

    def test_a_series_that_does_not_chop_raises(self, monkeypatch):
        from zladder import ConvergenceError
        monkeypatch.setattr(B, "_PROXY_MAX_DEGREE", 32)
        table = BesselZeroTable(nu=0.0)
        table.extend_to(16)
        with pytest.raises(ConvergenceError, match="did not chop by degree 32"):
            table.proxy_coefs([1, 16])
        assert not table.proxies
        assert len(table.proxy_coefs([1])[0]) <= 17


class TestBesselJOracle:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
    def test_against_scipy_jv(self, nu):
        # the documented contract: 1e-12 for x <= 50, 1e-10 for x <= 200
        special = pytest.importorskip("scipy.special")
        x = np.linspace(0.0, 200.0, 4001)
        err = np.abs(bessel_j(nu, x) - special.jv(nu, x))
        assert np.max(err[x <= 50.0]) <= 1e-12
        assert np.max(err) <= 1e-10

    def test_orders_up_to_the_cap(self):
        # the same contract at every 3.125 of the order up to NU_MAX = 100;
        # Miller's normalization overflows past nu ~ 131 (6.5e-2 off at 131.25)
        special = pytest.importorskip("scipy.special")
        x = np.arange(0.0, 201.0, 1.0)
        for nu in np.arange(0.0, B.NU_MAX + 1.0, 3.125):
            err = np.abs(bessel_j(nu, x) - special.jv(nu, x))
            assert np.max(err[x <= 50.0]) <= 1e-12, nu
            assert np.max(err) <= 1e-10, nu
        assert nu == B.NU_MAX

    def test_zeros_at_the_cap(self):
        # the zero finder evaluates J_100 up to its 64th zero, x = 342.7; it
        # fails past nu = 120
        special = pytest.importorskip("scipy.special")
        zs = np.array([bessel_zero(B.NU_MAX, k) for k in range(1, 65)])
        ref = special.jn_zeros(int(B.NU_MAX), 64)
        assert np.max(np.abs(zs - ref) / ref) <= 1e-15

    @pytest.mark.parametrize("nu", [float(np.nextafter(100.0, math.inf)), 132.0, 170.0,
                                    1e300, math.inf])
    def test_orders_past_the_cap_rejected(self, nu):
        assert B.NU_MAX == 100.0
        with pytest.raises(DomainError, match="nu <= 100"):
            bessel_j(nu, 1.0)
        with pytest.raises(DomainError, match="nu <= 100"):
            bessel_zero(nu, 1)

class TestPolynomials:
    def test_legendre_constant(self):
        assert poly_eval(PolyFamilySpec("legendre"), 0, 0.37) == 1.0

    def test_chebyshev_t_trig(self):
        u = math.cos(0.7)
        assert poly_eval(PolyFamilySpec("chebyshev_t"), 3, u) == pytest.approx(
            math.cos(2.1), abs=1e-14)

    def test_chebyshev_u_trig(self):
        a = 0.9
        for n in range(7):
            expected = math.sin((n + 1) * a) / math.sin(a)
            got = poly_eval(PolyFamilySpec("chebyshev_u"), n, math.cos(a))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_jacobi00_is_legendre_bitwise(self):
        us = np.linspace(-1, 1, 41)
        for n in (0, 1, 4, 9):
            a = poly_eval(PolyFamilySpec.jacobi(0, 0), n, us)
            b = poly_eval(PolyFamilySpec("legendre"), n, us)
            assert np.array_equal(a, b)

    def test_jacobi_value_at_one(self):
        # P_n^{a,b}(1) = C(n+a, n)
        for n, a, b in [(3, 0.5, 0.25), (5, 1.0, 2.0)]:
            expected = gamma_fn(n + a + 1) / (gamma_fn(a + 1) * gamma_fn(n + 1.0))
            got = poly_eval(PolyFamilySpec.jacobi(a, b), n, 1.0)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_invalid_family(self):
        with pytest.raises(DomainError):
            PolyFamilySpec("hermite")
        with pytest.raises(DomainError):
            PolyFamilySpec.jacobi(-1.5, 0.0)
        with pytest.raises(DomainError):
            poly_eval(PolyFamilySpec("legendre"), 65, 0.0)


class TestPolyNorms:
    def test_legendre_n1(self):
        assert poly_norm_sq(PolyFamilySpec("legendre"), 1) == pytest.approx(2.0 / 3.0,
                                                                           rel=1e-15)

    def test_chebyshev_t(self):
        assert poly_norm_sq(PolyFamilySpec("chebyshev_t"), 0) == pytest.approx(math.pi)
        assert poly_norm_sq(PolyFamilySpec("chebyshev_t"), 3) == pytest.approx(math.pi / 2)

    def test_jacobi00_matches_legendre(self):
        assert poly_norm_sq(PolyFamilySpec.jacobi(0, 0), 1) == pytest.approx(
            2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("spec", [
        PolyFamilySpec("legendre"),
        PolyFamilySpec.jacobi(0.5, 0.25),
        PolyFamilySpec("chebyshev_t"),
        PolyFamilySpec("chebyshev_u"),
    ], ids=["legendre", "jacobi", "cheb_t", "cheb_u"])
    def test_gram_matrix_diagonal(self, spec):
        for m in range(7):
            for n in range(m, 7):
                if spec.family == "chebyshev_t":
                    # u = cos(theta) takes the weight (1 - u^2)^(-1/2) away
                    res = integrate_adaptive(
                        lambda th, _m=m, _n=n:
                            poly_eval(spec, _m, np.cos(th)) * poly_eval(spec, _n, np.cos(th)),
                        0.0, math.pi, 1e-11)
                elif spec.family == "jacobi":
                    res = integrate_singular(
                        lambda u, _m=m, _n=n:
                            poly_eval(spec, _m, u) * poly_eval(spec, _n, u)
                            * (1.0 - u) ** spec.alpha * (1.0 + u) ** spec.beta,
                        -1.0, 1.0, 1e-11)
                else:
                    res = integrate_adaptive(
                        lambda u, _m=m, _n=n:
                            poly_eval(spec, _m, u) * poly_eval(spec, _n, u)
                            * poly_weight(spec, u),
                        -1.0, 1.0, 1e-11)
                expected = poly_norm_sq(spec, n) if m == n else 0.0
                assert abs(res.value - expected) <= 1e-9, (spec.family, m, n)
