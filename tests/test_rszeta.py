import contextlib
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zladder import DomainError, ZEvaluator
from zladder import rszeta
from zladder._rs_terms import RS_TERM_TABLES
from zladder.rszeta import _CLENSHAW_CHUNK, _MAX_BLOCK, _TILE, _rs_terms

# first two sign changes of Z, located by bisection on the oracle path
ZERO_1 = 14.134725141734695
ZERO_2 = 21.022039638771552
THETA_100 = 87.97216523178722
Z_SQ_500 = 2.168102674076738


def cheb_row(coeffs, p):
    """Per-table Clenshaw recurrence: the reference the fused pass must match."""
    u = 2.0 * p - 1.0
    b0 = np.zeros_like(u)
    b1 = np.zeros_like(u)
    for c in coeffs[:0:-1]:
        b0, b1 = 2.0 * u * b0 - b1 + c, b0
    return u * b0 - b1 + coeffs[0]


def rs_fraction(ts):
    a = np.sqrt(ts / (2.0 * np.pi))
    return a, np.floor(a)


def z_rs_untiled(ev, t, order=ZEvaluator.rs_correction_order):
    """z_rs as it was before its main sum was tiled, with its first `order`
    remainder terms: each chunk of _MAX_BLOCK // n_max points forms its whole
    (points, n_max) array of phases, then of cosines, then of terms.  The
    reference the tiled kernel must match bit for bit."""
    flat = np.atleast_1d(np.asarray(t, dtype=float))
    a = np.sqrt(flat / (2.0 * np.pi))
    n_len = np.floor(a).astype(np.int64)
    theta_t = np.atleast_1d(np.asarray(ev.theta(flat), dtype=float))
    out = np.empty_like(flat)
    start = 0
    while start < flat.size:
        n_max = int(n_len[start:].max())
        stop = min(flat.size, start + max(1, _MAX_BLOCK // n_max))
        sl = slice(start, stop)
        n_max = int(n_len[sl].max())
        n = np.arange(1, n_max + 1, dtype=float)
        phases = theta_t[sl, None] - flat[sl, None] * np.log(n)[None, :]
        terms = np.cos(phases) * (1.0 / np.sqrt(n))[None, :]
        terms[n[None, :] > n_len[sl, None]] = 0.0
        out[sl] = 2.0 * terms.sum(axis=1)
        start = stop
    if order > 0:
        corr = np.zeros_like(flat)
        fac = np.ones_like(flat)
        for row in _rs_terms(a - n_len, order):
            corr += row * fac
            fac = fac * (1.0 / a)
        out += np.where(n_len % 2 == 1, 1.0, -1.0) * corr / np.sqrt(a)
    return out


@contextlib.contextmanager
def remainder_terms(order):
    """z_rs with only its first `order` remainder terms: the later rows of
    `_rs_terms` read as zeros, and a zero term adds nothing to the sum."""
    def rows(p, n, _fn=rszeta._rs_terms):
        out = _fn(p, n)
        out[order:] = 0.0
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rszeta, "_rs_terms", rows)
        yield


def bisect(f, lo, hi, iters=80):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTheta:
    def test_frozen_value(self, ev):
        assert abs(ev.theta(100.0) - THETA_100) < 1e-9

    def test_at_two_pi_main_terms(self, ev):
        # first log term vanishes at t = 2*pi
        expected = -math.pi - math.pi / 8 + 1.0 / (96.0 * math.pi)
        assert abs(ev.theta(2 * math.pi) - expected) < 1e-5

    def test_oracle_frozen(self, ev):
        assert abs(ev.theta_oracle(100.0) - THETA_100) < 1e-12

    def test_matches_oracle(self, ev):
        for t in (50.0, 100.0, 1e3, 1e4, 1e5):
            assert abs(ev.theta(t) - ev.theta_oracle(t)) <= 1e-9

    def test_matches_oracle_tightly_at_1000(self, ev):
        assert abs(ev.theta(1000.0) - ev.theta_oracle(1000.0)) <= 1e-10

    def test_matches_oracle_random_per_decade(self, ev, rng):
        for lo, hi in [(50, 100), (100, 1e3), (1e3, 1e4), (1e4, 1e5)]:
            ts = rng.uniform(lo, hi, 20)
            d = np.abs(ev.theta(ts) - ev.theta_oracle(ts))
            assert d.max() <= 1e-9

    def test_oracle_takes_any_shape(self, ev):
        ts = np.array([[50.0, 100.0], [1e3, 1e4]])
        assert ev.theta_oracle(ts).tolist() == \
            [[ev.theta_oracle(t) for t in row] for row in ts.tolist()]

    def test_sign_change_near_first_gram_point(self, ev):
        # theta crosses zero at ~17.84560; just below it is negative
        assert ev.theta_oracle(17.8455) < 0.0
        assert ev.theta_oracle(17.8457) > 0.0
        assert abs(ev.theta_oracle(17.8456)) < 1e-5

    def test_domain_errors(self, ev):
        with pytest.raises(DomainError):
            ev.theta(0.5)
        with pytest.raises(DomainError):
            ev.theta_oracle(0.0)
        with pytest.raises(DomainError):
            ev.theta_oracle(-3.0)

    @pytest.mark.parametrize("fn", ["theta", "theta_oracle", "z_rs", "z_oracle", "z"])
    def test_nan_rejected(self, ev, fn):
        for t in (math.nan, np.array([1000.0, math.nan])):
            with pytest.raises(DomainError):
                getattr(ev, fn)(t)

    # Above the caps the RS main sum's length overflows int64 (Z = NaN at inf
    # and 1e300) or needs ~30 GiB (1e20); the oracle overflows at inf and
    # never ends at 1e300, and theta_oracle turns NaN at inf.
    @pytest.mark.parametrize("fn,t", [("z_rs", math.inf), ("z_rs", 1e300), ("z_rs", 1.0000001e8),
                                      ("z", math.inf), ("z", 1e300),
                                      ("z_oracle", math.inf), ("z_oracle", 1.0000001e6),
                                      ("theta_oracle", math.inf), ("theta_oracle", 1e300)])
    def test_t_above_cap_rejected(self, ev, fn, t):
        for arg in (t, np.array([1000.0, t])):
            with pytest.raises(DomainError, match="t <= 1e"):
                getattr(ev, fn)(arg)

    def test_rs_cap_is_inclusive(self, ev):
        assert math.isfinite(ev.z_rs(1e8)) and math.isfinite(ev.z(1e8))


class TestZOracle:
    def test_first_zero(self, ev):
        assert abs(ev.z_oracle(ZERO_1)) <= 1e-5
        z = bisect(ev.z_oracle, 14.0, 14.2)
        assert abs(z - 14.134725) <= 1e-5

    def test_second_zero(self, ev):
        assert abs(ev.z_oracle(ZERO_2)) <= 1e-5
        z = bisect(ev.z_oracle, 21.0, 21.1)
        assert abs(z - 21.022040) <= 1e-5

    def test_z_squared_equals_zeta_mod_squared(self, ev):
        # |e^{i theta}| = 1, so Z^2 = |zeta(1/2 + it)|^2
        z2 = ev.z_oracle(500.0) ** 2
        zeta2 = abs(ev.zeta_half(500.0)) ** 2
        assert abs(z2 - zeta2) <= 1e-12 * zeta2
        assert abs(z2 - Z_SQ_500) <= 1e-12

    def test_domain(self, ev):
        with pytest.raises(DomainError):
            ev.z_oracle(0.0)
        with pytest.raises(DomainError):
            ev.zeta_half(-1.0)


class TestZRs:
    def test_against_oracle_at_1e4(self, ev):
        assert abs(ev.z_rs(10000.0) - ev.z_oracle(10000.0)) <= 1e-5

    def test_against_oracle_random(self, ev, rng):
        ts = np.exp(rng.uniform(np.log(1e2), np.log(1e5), 100))
        z1 = ev.z_rs(ts)
        z2 = ev.z_oracle(ts)
        assert np.max(np.abs(z1 - z2)) <= 1e-5

    def test_exactly_one_sign_change_on_first_zero_window(self, ev):
        ts = np.linspace(14.0, 14.2, 401)
        zs = ev.z_oracle(ts)
        changes = np.sum(np.sign(zs[:-1]) * np.sign(zs[1:]) < 0)
        assert changes == 1

    def test_continuity_across_main_sum_length_changes(self, ev):
        # N jumps by one when sqrt(t/2pi) crosses an integer, t = 2 pi N^2
        eps = 1e-6
        for n in range(5, 40):
            t_star = 2.0 * math.pi * n * n
            if not 1e2 <= t_star <= 1e4:
                continue
            jump = abs(ev.z_rs(t_star - eps) - ev.z_rs(t_star + eps))
            assert jump <= 1e-4, (n, t_star, jump)

    def test_below_threshold_raises(self, ev):
        with pytest.raises(DomainError):
            ev.z_rs(20.0)

    def test_correction_orders_improve(self, ev, rng):
        # each remainder term z_rs adds brings it closer to the oracle
        ts = np.exp(rng.uniform(np.log(1e2), np.log(1e4), 40))
        ref = ev.z_oracle(ts)
        errs = {}
        for order in (0, 1, 4):
            with remainder_terms(order):
                errs[order] = np.max(np.abs(ev.z_rs(ts) - ref))
        assert errs[4] < errs[1] < errs[0]
        assert errs[4] <= 1e-5
        assert np.max(np.abs(ev.z_rs(ts) - ref)) == errs[4]

    def test_invalid_config(self):
        # the configuration is fixed: any argument, valid before or not, is
        # refused
        for kwargs in ({"rs_correction_order": 7}, {"oracle_terms": 1},
                       {"t_min_rs": 1.0}, {"t_min_rs": math.nan},
                       {"rs_correction_order": 4}):
            with pytest.raises(TypeError):
                ZEvaluator(**kwargs)

    def test_fixed_configuration(self, ev):
        # the hash that every report row and the ladder cache's name carry
        # keeps its payload
        assert ev == ZEvaluator()
        payload = b"ZEvaluator(rs_correction_order=4,oracle_terms=8,t_min_rs=50.0)"
        assert ev.config_hash() == hashlib.sha256(payload).hexdigest()[:16]


class TestRemainderClenshaw:
    @pytest.mark.parametrize("size", [1, 2047, 2048, 2049, _CLENSHAW_CHUNK - 1,
                                      _CLENSHAW_CHUNK, _CLENSHAW_CHUNK + 1, 63000])
    def test_rows_bitwise_per_table(self, size):
        ts = np.random.default_rng(size).uniform(50.0, 1.1e5, size)
        a, n = rs_fraction(ts)
        p = a - n
        for order in range(5):
            rows = _rs_terms(p, order)
            assert rows.shape == (order, size)
            for j in range(order):
                assert np.array_equal(rows[j], cheb_row(RS_TERM_TABLES[j], p)), \
                    (order, j)

    @pytest.mark.parametrize("order", range(1, 5))
    def test_z_rs_bitwise_against_per_table_remainder(self, ev, order):
        ts = np.random.default_rng(order).uniform(50.0, 1.1e5, 2049)
        a, n = rs_fraction(ts)
        corr = np.zeros_like(ts)
        fac = np.ones_like(ts)
        for j in range(order):
            corr += cheb_row(RS_TERM_TABLES[j], a - n) * fac
            fac = fac * (1.0 / a)
        sign = np.where(n % 2 == 1, 1.0, -1.0)
        want = z_rs_untiled(ev, ts, order=0) + sign * corr / np.sqrt(a)
        with remainder_terms(order):
            assert np.array_equal(ev.z_rs(ts), want)


class TestTiledMainSum:
    """The main sum streams each chunk through one tile of _TILE // n_max
    rows; the chunks, not the tiles, set the bits."""

    @settings(max_examples=120, deadline=None)
    @given(size=st.sampled_from(["one", "tile-1", "tile", "tile+1", "tiles+1"]),
           log_hi=st.floats(math.log10(50.0), 8.0),
           spread=st.floats(0.0, 1.0),
           ordered=st.booleans(),
           order=st.integers(0, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(size="tile+1", log_hi=math.log10(7000.0), spread=6.0 / 7.0,
             ordered=False, order=4, seed=0)
    def test_matches_untiled_bit_for_bit(self, size, log_hi, spread, ordered,
                                         order, seed):
        # t in [t_lo, t_hi] with t_hi itself drawn, so the tile holds
        # _TILE // n_max rows of n_max = floor(sqrt(t_hi/2pi)) and, when the
        # spread crosses a length, rows of several lengths
        t_hi = min(max(10.0 ** log_hi, 50.0), 1e8)
        t_lo = t_hi - spread * (t_hi - 50.0)
        rows = _TILE // int(math.floor(math.sqrt(t_hi / (2.0 * math.pi))))
        m = {"one": 1, "tile-1": rows - 1, "tile": rows, "tile+1": rows + 1,
             "tiles+1": 3 * rows + 1}[size]
        ts = np.random.default_rng(seed).uniform(t_lo, t_hi, m)
        ts[0] = t_hi
        if ordered:
            ts.sort()
        ev = ZEvaluator()
        with remainder_terms(order):
            got = ev.z_rs(ts)
            assert np.array_equal(got, z_rs_untiled(ev, ts, order))
            if m == 1:
                assert ev.z_rs(t_hi) == got[0]

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_chunk_edges_match_untiled(self, ev, delta):
        # n_len = 126 sets chunks of _MAX_BLOCK // 126 = 31,746 points; one
        # point in ten, shuffled in, has a shorter sum.  The last point has
        # n_len = 60, and its value summed alone differs from its value
        # padded to 126 terms, so it shows on which side of a chunk edge it
        # fell.
        top, last = 2.0 * np.pi * 126.5 ** 2, 23002.0
        assert ev.z_rs(last) != ev.z_rs(np.array([top, last]))[1]
        m = _MAX_BLOCK // 126 + delta
        rng = np.random.default_rng(126 + delta)
        ts = rng.uniform(2.0 * np.pi * 126 ** 2, 2.0 * np.pi * 127 ** 2, m)
        short = rng.random(m) < 0.1
        ts[short] = rng.uniform(1e3, 2.0 * np.pi * 126 ** 2, short.sum())
        ts[[0, -1]] = top, last
        assert np.array_equal(ev.z_rs(ts), z_rs_untiled(ev, ts))

    @pytest.mark.parametrize("lo, hi, m, bound_mb", [
        (99000.0, 99500.0, 16500, 4.0),     # a build batch at 1e5: 47.8 MB untiled
        (1e8 - 1e3, 1e8, 3000, 2.0),        # n_max = 3,989: 121.9 MB untiled
    ])
    def test_one_call_peak_memory(self, ev, lo, hi, m, bound_mb):
        ts = np.random.default_rng(m).uniform(lo, hi, m)
        tracemalloc.start()
        try:
            ev.z_rs(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6


class TestZetaSqMod:
    def test_rs_and_oracle_agree_at_1e4(self, ev):
        assert abs(ev.z_rs(10000.0) ** 2 - ev.z_oracle(10000.0) ** 2) <= 2e-5


class TestPurity:
    def test_bitwise_identical_reruns(self, ev, rng):
        ts = rng.uniform(60.0, 5e4, 64)
        a = ev.z_rs(ts)
        b = ev.z_rs(ts.copy())
        assert np.array_equal(a, b)
        assert ev.z_oracle(1234.5) == ev.z_oracle(1234.5)
        assert ev.theta(777.0) == ev.theta(777.0)

    def test_scalar_array_consistency(self, ev):
        ts = np.array([60.0, 123.4, 9876.5])
        vec = ev.z_rs(ts)
        for i, t in enumerate(ts):
            assert vec[i] == ev.z_rs(float(t))

    @pytest.mark.parametrize("n_len", [3, 20, 126])
    def test_batch_sharing_sum_length_matches_scalars(self, ev, n_len):
        # the main sum of a batch runs to its longest floor(sqrt(t/2pi)); when
        # all points share that length, batching cannot move a single bit
        lo, hi = 2.0 * np.pi * n_len ** 2, 2.0 * np.pi * (n_len + 1) ** 2
        ts = np.random.default_rng(n_len).uniform(lo, hi, 300)
        ts = ts[np.floor(np.sqrt(ts / (2.0 * np.pi))) == n_len]
        assert len(ts) > 250
        assert np.array_equal(ev.z_rs(ts), [ev.z_rs(float(t)) for t in ts])

    def test_zero_scan_finds_known_zeros(self, ev):
        zeros = ev.zero_scan(14.0, 21.5, step=0.05)
        assert len(zeros) == 2
        assert abs(zeros[0] - ZERO_1) < 1e-6
        assert abs(zeros[1] - ZERO_2) < 1e-6
