import collections
import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zladder import (AdmissibilityError, CacheError, ConvergenceError,
                     DomainError, EULER_C,
                     LadderTable, ToleranceNotMetError, ZEvaluator,
                     bessel_j, bessel_norm_sq, bessel_zero, build_ladder,
                     check_admissible, integrate_adaptive, prime_pi,
                     retardation_report)
from zladder import cli
from zladder import ladder as ladder_mod
from zladder.specfun.orthopoly import _clenshaw, _clenshaw_rev

import oracles
from oracles import (breakpoints, brackets, ci_targets, log_stability_check,
                     meets_inverse_contract, neighbours, pushforward_integral, ztilde_sq)

FIRST_ZETA_ZERO = 14.134725141734695


def fresh(table, phi=None):
    """The same ladder in a new table, with no panel's antiderivative built
    (and with the values `phi`, if given)."""
    return LadderTable(
        evaluator=table.evaluator, build_tolerance=table.build_tolerance,
        edges=table.edges, phi=table.phi if phi is None else phi, coef=table.coef,
        residual_total=table.residual_total)


def shifted(table, k0):
    """The same ladder with phi_1 moved to 0 at checkpoint k0, so values in
    the panels next to k0 show their partial integrals to the last bits."""
    return fresh(table, table.phi - table.phi[k0])


def points_in_panels(table, panels, per_panel, rng):
    """`per_panel` random points in each panel plus the panels' left
    checkpoints, shuffled."""
    e = table.edges
    ts = [rng.uniform(e[k], e[k + 1], per_panel) for k in panels]
    ts.append(e[np.asarray(panels)])
    ts = np.concatenate(ts)
    rng.shuffle(ts)
    return ts


def no_z(self, t):
    raise AssertionError("Z evaluated after the build")


class TestPrimePi:
    def test_small_values(self):
        assert prime_pi(2) == 1
        assert prime_pi(10) == 4
        assert prime_pi(100) == 25
        assert prime_pi(1000) == 168
        assert prime_pi(1000.5) == 168
        assert prime_pi(0) == prime_pi(1.9) == 0

    def test_large(self):
        assert prime_pi(100000) == 9592
        assert prime_pi(1e6) == 78498
        assert prime_pi(1e7) == 664579

    def test_odd_sieve_matches_full_sieve(self):
        # the program sieves the odd numbers only; the oracle every integer
        grid = np.arange(0.0, 10000.5, 0.5)
        assert np.array_equal(prime_pi(grid), oracles.prime_pi(grid))
        assert [prime_pi(t) for t in (1.0, 2.0, 2.5, 3.0, 8.5, 9.0)] == [0, 1, 1, 2, 4, 4]

    def test_nondecreasing(self):
        counts = prime_pi(np.arange(2, 501))
        assert np.all(np.diff(counts) >= 0)
        # one sieve serves the batch: each count is that of its own call
        assert counts.tolist() == [prime_pi(t) for t in range(2, 501)]

    def test_domain(self):
        for t in (-1.0, 1e8 + 1.0, math.nan, [10.0, math.inf]):
            with pytest.raises(DomainError):
                prime_pi(t)

    def test_peak_memory_is_the_sieve(self):
        # one segment's odd numbers, (99e6, t], sieve into 0.5 MB (a sieve
        # of every odd number up to t took 50 MB); the primes in (t, 1e8]
        # are 99999959, 99999971 and 99999989
        tracemalloc.start()
        try:
            assert prime_pi(99999950.0) == 5761455 - 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    @pytest.fixture(scope="class")
    def counted(self):
        """Points at and beside every multiple of `_PI_STEP` and across the
        domain, with the oracle's counts, from one sieve up to 1e8."""
        steps = np.arange(len(ladder_mod._PI_AT_STEPS)) * float(ladder_mod._PI_STEP)
        rng = np.random.default_rng(48)
        ts = np.concatenate([steps, np.clip(steps[:, None] + [-1.0, -0.5, 0.5, 1.0], 0.0, 1e8).ravel(),
                             rng.uniform(0.0, 1e8, 400), np.floor(rng.uniform(0.0, 1e8, 400)),
                             rng.uniform(0.0, 3e3, 100)])
        return ts, oracles.prime_pi(ts)

    def test_table_is_the_oracles(self, counted):
        ts, want = counted
        table = ladder_mod._PI_AT_STEPS
        assert table.tolist() == want[:len(table)].tolist()

    def test_segment_edges_and_random_points(self, counted):
        # one call over every segment, and each edge point in a call of its own
        ts, want = counted
        assert prime_pi(ts).tolist() == want.tolist()
        edges = 5 * len(ladder_mod._PI_AT_STEPS)
        assert [prime_pi(t) for t in ts[:edges].tolist()] == want[:edges].tolist()


class TestZtildeSq:
    def test_domain(self, ev):
        with pytest.raises(DomainError):
            ztilde_sq(ev, math.e)

    def test_vanishes_at_zeta_zero(self, ev):
        assert ztilde_sq(ev, FIRST_ZETA_ZERO) <= 1e-10

    def test_formula(self, ev):
        t = 1e4
        assert ztilde_sq(ev, t) == ev.z(t) ** 2 / math.log(t)

    def test_mean_near_one(self, ev):
        # loose Hardy-Littlewood-type diagnostic
        ts = np.linspace(1e4, 1e4 + 100.0, 20001)
        mean = np.trapezoid(ztilde_sq(ev, ts), ts) / 100.0
        assert abs(mean - 1.0) <= 0.2


class TestBuild:
    def test_anchor_value(self, small_ladder):
        expected = small_ladder.anchor_t0 - (1.0 - EULER_C) * prime_pi(
            small_ladder.anchor_t0)
        assert small_ladder.anchor_value == expected
        assert small_ladder.eval(small_ladder.anchor_t0) == expected

    def test_default_anchor(self, small_ladder):
        assert small_ladder.anchor_t0 == small_ladder.t_lo + 10.0

    def test_checkpoint_step(self, small_ladder):
        assert ladder_mod._BASE_H == 1.0
        assert np.max(np.diff(small_ladder.edges)) <= ladder_mod._BASE_H + 1e-12

    # phi_1 of the Gauss-7 half-pair build (rule "gauss7-halves+richardson",
    # h = 0.05) at a few points; the spectral table must agree within tol
    GAUSS_PANEL_VALUES = {
        "small": ((1000.0, 1090.0), {"tol": 1e-9}, [
            (1000.0, 924.59641515965), (1001.3495, 925.298029502727),
            (1010.0, 938.5494473683591), (1033.77, 958.4296743274008),
            (1060.5, 979.1448058672838), (1090.0, 1007.6512968029602)]),
        # anchored at 47.7, so the seam at t = 50 lies off the base grid
        "seam": ((37.7, 60.0), {"tol": 1e-8}, [
            (40.0, 33.21839487544118), (45.3, 36.42828460565548),
            (50.0, 41.488336775898205), (55.55, 46.43543573221908),
            (60.0, 47.949455343840214)]),
        "near_1e5": ((99500.0, 99520.0), {"tol": 1e-8}, [
            (99500.0, 95462.63141966837), (99503.3, 95466.09822107157),
            (99510.0, 95473.67795281493), (99517.77, 95477.5052439737),
            (99520.0, 95478.66917062203)]),
    }

    @pytest.mark.parametrize("case", list(GAUSS_PANEL_VALUES))
    def test_agrees_with_gauss_panel_build(self, ev, small_ladder, case):
        (t_lo, t_hi), kwargs, values = self.GAUSS_PANEL_VALUES[case]
        table = (small_ladder if case == "small"
                 else build_ladder(ev, t_lo, t_hi, **kwargs))
        assert table.residual_total <= kwargs["tol"]
        for t, phi in values:
            assert abs(table.eval(t) - phi) <= kwargs["tol"], t

    def test_33_z_points_per_unit_panel(self, ev, monkeypatch):
        seen = []
        real = ZEvaluator.z

        def counting(self, t):
            seen.append(np.size(t))
            return real(self, t)

        monkeypatch.setattr(ZEvaluator, "z", counting)
        table = build_ladder(ev, 99500.0, 99520.0, tol=1e-8)
        assert len(table.edges) == 21
        assert sum(seen) == 33 * 20

    def test_domain_validation(self, ev):
        with pytest.raises(DomainError):
            build_ladder(ev, 1.0, 100.0)
        with pytest.raises(DomainError):
            build_ladder(ev, 1000.0, 900.0)
        with pytest.raises(DomainError):
            build_ladder(ev, 1000.0, math.nan)
        for tol in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="positive and finite"):
                build_ladder(ev, 1000.0, 1100.0, tol=tol)

    def test_unreachable_tolerance(self, ev):
        with pytest.raises(ToleranceNotMetError):
            build_ladder(ev, 1000.0, 1001.0, tol=1e-300)

    def test_refusal_names_the_main_sum_seam(self, ev):
        # z_rs's main sum takes its 6th term at t = 2 pi 36, where Z jumps by
        # 3.2e-9: no halving of the panel holding it meets tol 1e-8, and the
        # refusal names the seam, its jump and a looser tol, which builds
        with pytest.raises(ToleranceNotMetError, match=r"exhausted \(1 panels") as err:
            build_ladder(ev, 200.0, 1100.0, tol=1e-8)
        assert str(err.value).endswith(
            "(n = 6 at t = 226.19, Z jumps -3.2e-09): try a looser tol")
        build_ladder(ev, 200.0, 1100.0, tol=1e-7)

    def test_domain_straddling_rs_threshold(self, ev):
        # the computed Ztilde^2 jumps ~1e-7 where the evaluator switches from
        # the oracle to the Riemann-Siegel path; the seam must sit on a
        # checkpoint edge or no panel polynomial could follow it
        table = build_ladder(ev, 37.7, 60.0, tol=1e-8)
        assert ev.t_min_rs in table.edges
        pts = breakpoints(table, 45.0, 55.0)
        assert ev.t_min_rs in pts and np.all(np.diff(pts) > 0.0)
        v = pushforward_integral(table, lambda x: np.ones_like(x), 34.0, 1.0,
                                 tol=1e-9)
        assert abs(v - 1.0) <= 1e-9
        # cache round-trips the seam edge too
        import tempfile, os
        path = tempfile.mktemp(suffix=".npz")
        try:
            table.save(path)
            again = LadderTable.load(path, ev)
            assert np.array_equal(again.edges, table.edges)
        finally:
            os.remove(path)

    def test_panel_ending_on_the_rs_seam_takes_the_oracle(self, ev):
        # its end node is t_min_rs itself, where z_rs is 1.6e-6 off z_oracle:
        # taken from z_rs, that one node spent 4.0e-10 of the budget
        table = build_ladder(ev, 45.0, 55.0, tol=1e-8)
        assert ev.t_min_rs in table.edges
        assert table.residual_total <= 1e-12

    def test_builds_across_the_rs_seam_at_tight_tol(self, ev):
        # refused after 30 rounds while the panel ending on t_min_rs mixed
        # Z's two routes
        table = build_ladder(ev, 10.0, 1000.0, tol=1e-7)
        assert table.residual_total <= 1e-7

    def test_no_empty_panel_at_top_edge(self, ev):
        # (t_hi - anchor) / h rounds just above 200, so the grid's last inner
        # point lands on t_hi; it must be dropped, not kept as a 0-width panel
        t_lo = 1004.3312694023647
        table = build_ladder(ev, t_lo, t_lo + 20.0)
        widths = np.diff(table.edges)
        assert widths.min() > 0.0
        assert table.edges[0] == t_lo and table.edges[-1] == t_lo + 20.0
        assert np.all(np.diff(table.phi) >= 0.0)


class TestBreakpoints:
    def test_scanned_once_per_interval(self, small_ladder, monkeypatch):
        calls = []
        real = oracles.chebroots

        def counting(c):
            calls.append(len(c))
            return real(c)

        monkeypatch.setattr(oracles, "chebroots", counting)
        pts = breakpoints(small_ladder, 1003.125, 1004.875)
        assert calls == [33, 33]   # the two panels [1003, 1004], [1004, 1005]
        assert len(pts) > 0

    def test_resolves_lehmers_pair(self, ev, monkeypatch):
        # two zeros 0.038 apart near t = 7005.08, between which Z barely
        # rises above 0; a finer scan than the default step sees both
        table = build_ladder(ev, 7000.0, 7010.0, tol=1e-8)
        scanned = ev.zero_scan(7005.0, 7005.2, step=0.005)
        monkeypatch.setattr(ZEvaluator, "z", no_z)
        roots = breakpoints(table, 7005.0, 7005.2)
        assert len(roots) == len(scanned) == 2
        assert np.max(np.abs(roots - scanned)) <= 1e-9
        assert 0.03 < roots[1] - roots[0] < 0.04

    @pytest.mark.parametrize("a, b", [(1000.0, 1010.0), (99990.0, 1e5)])
    def test_matches_zero_scan(self, ev, a, b, monkeypatch):
        table = build_ladder(ev, a, b, tol=1e-8)
        scanned = ev.zero_scan(a, b, step=0.05)
        monkeypatch.setattr(ZEvaluator, "z", no_z)
        roots = breakpoints(table, a, b)
        assert len(roots) == len(scanned) > 5
        assert np.max(np.abs(roots - scanned)) <= 1e-9


class TestEval:
    def test_checkpoints_exact(self, small_ladder):
        got = small_ladder.eval(small_ladder.edges)
        assert np.array_equal(got, small_ladder.phi)
        for k in (0, 13, len(small_ladder.edges) - 1):
            assert small_ladder.eval(float(small_ladder.edges[k])) == small_ladder.phi[k]

    def test_monotone_on_random_pairs(self, small_ladder, rng):
        # 1e5 random pairs, checked as a sorted sweep
        ts = rng.uniform(1000.0, 1090.0, 100000)
        phis = small_ladder.eval(ts)
        order = np.argsort(ts)
        diffs = np.diff(phis[order])
        assert np.all(diffs >= -1e-14)

    def test_nondecreasing_through_roots(self, small_ladder):
        # phi_1' = p^2 vanishes at the roots of p, where rounding is most
        # likely to show; dense sorted samples around every root in 20 units
        roots = breakpoints(small_ladder, 1020.0, 1040.0)
        assert len(roots) > 10
        for r in roots:
            ts = np.linspace(max(r - 1e-3, 1020.0), min(r + 1e-3, 1040.0), 4001)
            assert np.all(np.diff(small_ladder.eval(ts)) >= 0.0), r

    def test_derivative_is_ztilde_sq(self, ev, small_ladder, rng):
        ts = rng.uniform(1001.0, 1089.0, 200)
        d = 1e-4
        slope = (small_ladder.eval(ts + d) - small_ladder.eval(ts - d)) / (2.0 * d)
        p_sq = small_ladder.ztilde_sq(ts)
        assert np.max(np.abs(slope - p_sq)) <= 1e-5
        assert np.max(np.abs(p_sq - ztilde_sq(ev, ts))) <= 1e-9
        assert isinstance(small_ladder.ztilde_sq(1010.0), float)

    def test_matches_direct_integral(self, ev, small_ladder, rng):
        # phi(t) - anchor_value must equal the independent adaptive integral
        anchor = small_ladder.anchor_t0
        for t in rng.uniform(1005.0, 1085.0, 20):
            lo, hi = (anchor, float(t)) if t >= anchor else (float(t), anchor)
            res = integrate_adaptive(lambda u: ztilde_sq(ev, u), lo, hi, 1e-11,
                                     breakpoints=ev.zero_scan(lo, hi))
            sign = 1.0 if t >= anchor else -1.0
            direct = small_ladder.anchor_value + sign * res.value
            assert abs(small_ladder.eval(float(t)) - direct) <= 1e-8

    def test_increment_matches_quadrature(self, ev, small_ladder):
        a, b = 1011.0, 1017.0
        res = integrate_adaptive(lambda u: ztilde_sq(ev, u), a, b, 1e-12,
                                 breakpoints=ev.zero_scan(a, b))
        inc = small_ladder.eval(b) - small_ladder.eval(a)
        assert abs(inc - res.value) <= 1e-9

    def test_domain(self, small_ladder):
        for t in (999.0, 1090.5, np.float64(999.0), np.array(1090.5), [1010.0, 1090.5]):
            for fn in (small_ladder.eval, small_ladder.ztilde_sq):
                with pytest.raises(DomainError, match=r"outside \[1000.0, 1090.0\]"):
                    fn(t)

    @pytest.mark.parametrize("t", [math.nan, [1010.0, math.nan],
                                   pytest.param(np.float64(math.nan), id="float64"),
                                   pytest.param(np.array(math.nan), id="0d")])
    def test_nan_rejected(self, small_ladder, t):
        with pytest.raises(DomainError):
            small_ladder.eval(t)
        with pytest.raises(DomainError):
            small_ladder.ztilde_sq(t)


@pytest.fixture(scope="module")
def seam_ladder(ev):
    """A ladder across the RS/oracle seam at t = 50, which lies off its base
    grid (anchored at 47.7)."""
    return build_ladder(ev, 37.7, 60.0, tol=1e-8)


def _special_ts(table):
    """Every checkpoint, its neighbouring doubles and the evaluator seam,
    inside the ladder domain."""
    e = table.edges
    ts = np.concatenate([e, np.nextafter(e, -math.inf), np.nextafter(e, math.inf),
                         [table.evaluator.t_min_rs]])
    return np.unique(ts[(ts >= table.t_lo) & (ts <= table.t_hi)])


def _assert_one_bits(table, ts):
    """eval and ztilde_sq give each t the same bits on a float, an
    np.float64, a 0-d array and in the batch `ts`."""
    for fn in (table.eval, table.ztilde_sq):
        batch = fn(ts)
        for t, want in zip(ts.tolist(), batch.tolist()):
            got = [fn(t), fn(np.float64(t)), fn(np.array(t))]
            assert all(type(v) is float for v in got), t
            assert {v.hex() for v in got} == {want.hex()}, (fn.__name__, t)


class TestSinglePoint:
    """The float path of eval and ztilde_sq keeps the array path's bits."""

    @pytest.mark.parametrize("name", ["small_ladder", "seam_ladder", "shifted"])
    def test_checkpoints_neighbours_and_seam(self, request, name):
        table = (shifted(request.getfixturevalue("small_ladder"), 40) if name == "shifted"
                 else request.getfixturevalue(name))
        ts = _special_ts(table)
        assert table.t_lo in ts and table.t_hi in ts
        assert (table.evaluator.t_min_rs in ts) == (name == "seam_ladder")
        _assert_one_bits(table, ts)

    @settings(max_examples=200, deadline=None)
    @given(us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_uniform(self, small_ladder, seam_ladder, us):
        for table in (small_ladder, seam_ladder):
            u = np.asarray(us)
            ts = np.minimum(table.t_lo + u * (table.t_hi - table.t_lo), table.t_hi)
            _assert_one_bits(table, ts)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_slopes_on_floats_keep_the_array_bits(small_ladder, data):
    # a float x0 and x take `slopes`'s float path on the panel's cached
    # columns; the same point as 1-element arrays takes the vector path
    # (on two fresh tables, each path builds the panel's rows itself)
    one, other = ((fresh(small_ladder), fresh(small_ladder)) if data.draw(st.booleans())
                  else (small_ladder, small_ladder))
    k = data.draw(st.integers(0, len(small_ladder._half) - 1))
    x0 = data.draw(st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)))
    x = data.draw(st.one_of(st.just(x0), st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)))
    got = one.slopes(k, x0, x)
    assert all(type(v) is float for v in got)
    want = other.slopes(np.array([k]), np.array([x0]), np.array([x]))
    assert [v.hex() for v in got] == [float(v[0]).hex() for v in want]


# (t, eval(t), ztilde_sq(t)) on small_ladder as float.hex: the checkpoints
# t_lo and 1017, interior points and t_hi.  The float and the array path share
# one Clenshaw recurrence, so comparing them cannot see a change to it.
PINNED_BITS = [
    (1000.0, "0x1.ce4c5754fac48p+9", "0x1.272c107ae82c7p-3"),
    (1017.0, "0x1.d73cddfe1bbfdp+9", "0x1.2e50a654f0cd7p-2"),
    (1003.25, "0x1.ceb641375367fp+9", "0x1.ea258c6b07f9ep-12"),
    (1024.6, "0x1.dce1b5d913fe1p+9", "0x1.cd719de73aadep+1"),
    (1041.123456789, "0x1.e1596fc5aa845p+9", "0x1.61d8474b3c2a7p+0"),
    (1059.9999, "0x1.e987ca187858dp+9", "0x1.68dc9d6c22b96p-4"),
    (1077.5, "0x1.f2e98a5839156p+9", "0x1.5cea5904b5a4dp+0"),
    (1090.0, "0x1.f7d35db192596p+9", "0x1.22ed319c1641ep-4"),
]


@pytest.mark.parametrize("column", [1, 2], ids=["eval", "ztilde_sq"])
def test_pinned_bits(small_ladder, column):
    fn = small_ladder.eval if column == 1 else small_ladder.ztilde_sq
    ts = [row[0] for row in PINNED_BITS]
    want = [row[column] for row in PINNED_BITS]
    assert [fn(t).hex() for t in ts] == want
    assert [v.hex() for v in fn(np.array(ts)).tolist()] == want


class TestEvalSharedHeads:
    """Every point gets the bits it gets alone, in any batch, and no call
    after the build evaluates Z. (The name is kept from the per-panel Gauss
    heads a batch once shared; this is the contract they served.)"""

    # Z's main sum has 12 terms below 2 pi 13^2 ~ 1061.86 and 13 above it
    SEAM = 2.0 * math.pi * 13 ** 2

    def _panels(self, table, lo, hi, count, rng):
        ks = np.nonzero((table.edges[:-1] >= lo) & (table.edges[1:] <= hi))[0]
        return np.sort(rng.choice(ks, count, replace=False))

    def _one_at_a_time(self, table, ts):
        return np.array([table.eval(float(t)) for t in ts])

    @pytest.mark.parametrize("k0", [None, "shift"])
    def test_shared_main_sum_length(self, small_ladder, rng, k0):
        panels = self._panels(small_ladder, 1000.0, 1060.0, 12, rng)
        table = shifted(small_ladder, panels[0]) if k0 else small_ladder
        ts = points_in_panels(table, panels, 40, rng)
        assert np.array_equal(table.eval(ts), self._one_at_a_time(table, ts))

    def test_mixed_main_sum_lengths(self, small_ladder, rng):
        # Z's batch dependence at its main-sum seam does not reach eval
        panels = np.concatenate([self._panels(small_ladder, 1055.0, self.SEAM, 4, rng),
                                 self._panels(small_ladder, self.SEAM, 1070.0, 4, rng)])
        table = shifted(small_ladder, panels[0])
        ts = points_in_panels(table, panels, 30, rng)
        assert np.array_equal(table.eval(ts), self._one_at_a_time(table, ts))

    @pytest.mark.parametrize("count", [1, 2, 50])
    def test_one_panel(self, small_ladder, count):
        for k in range(30, 40):
            table = shifted(small_ladder, k)
            lo, hi = table.edges[k], table.edges[k + 1]
            ts = np.linspace(lo, hi, count + 2)[1:-1]
            assert np.array_equal(table.eval(ts), self._one_at_a_time(table, ts)), k
            assert np.array_equal(table.ztilde_sq(ts),
                                  [table.ztilde_sq(float(t)) for t in ts]), k

    def test_calls_no_z(self, ev, monkeypatch):
        table = build_ladder(ev, 1000.0, 1030.0, tol=1e-9)
        monkeypatch.setattr(ZEvaluator, "z", no_z)
        ts = np.linspace(1000.0, 1030.0, 301)
        table.eval(ts)
        table.ztilde_sq(ts)
        table.invert(table.anchor_value + 3.5)
        breakpoints(table, 1001.0, 1009.0)
        pushforward_integral(table, lambda x: np.ones_like(x), 950.0, 1.0)


class TestPanelsOnFirstUse:
    """A panel's antiderivative is built when a point first lands on it, and
    a point's bits do not depend on which call built it."""

    def test_load_builds_none(self, ev, small_ladder, tmp_path):
        path = tmp_path / "ladder.npz"
        small_ladder.save(path)
        table = LadderTable.load(path, ev)
        assert not table._built.any()

    def test_only_the_panels_touched(self, small_ladder):
        # a float, and a batch with at least as many points as the aligned
        # blocks of _ANTI_BLOCK panels it lands on hold, build those blocks
        # and no other; a sparser batch builds only the panels it lands on
        table = fresh(small_ladder)
        state = set(vars(table))
        block = ladder_mod._ANTI_BLOCK
        assert 2 * block > len(table.coef) > block + 9
        mid = 0.5 * (table.edges[:-1] + table.edges[1:])
        table.ztilde_sq(mid[block:])   # p itself needs no antiderivative
        table.ztilde_sq(float(mid[block + 9]))
        assert not table._built.any()
        table.eval(mid[[7, block + 9, 7]])   # two blocks, three points
        assert np.flatnonzero(table._built).tolist() == [7, block + 9]
        table.eval(mid[[7, 5, 7]])
        assert np.flatnonzero(table._built).tolist() == [*range(block), block + 9]
        table.eval(float(mid[block + 3]))
        assert table._built.all()
        table = fresh(small_ladder)
        table.eval(np.repeat(mid[[block + 9, 5]], block))   # two blocks, 2 * block points
        assert table._built.all()
        table = fresh(small_ladder)
        table.eval(mid[[block + 9, block]])
        assert np.flatnonzero(table._built).tolist() == list(range(block, len(table.coef)))
        # the float path reads the table's own rows and keeps nothing else
        table.invert(float(table.phi[block + 9:block + 11].mean()))
        assert set(vars(table)) == state

    def test_scalar_path_memory_is_bounded(self, query_ladder):
        # one invert inside each of 500 panels: the float path keeps no
        # per-panel copy of a panel's columns (~3.4 KB) nor of the checkpoints
        import tracemalloc
        table = fresh(query_ladder)
        assert len(table.coef) == 500
        ys = (0.5 * (table.phi[:-1] + table.phi[1:])).tolist()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for y in ys:
                table.invert(y)
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown <= 64 * 1024

    def test_cold_inverts_build_aligned_blocks(self, query_ladder, monkeypatch):
        # 300 stratified inverts on a table no batch has warmed: each block
        # of _ANTI_BLOCK panels is built in one call, and every inverse has
        # the bits of a table whose panels were all built up front
        m = 300
        u = (np.arange(m) + np.random.default_rng(1).random(m)) / m
        ys = (query_ladder.phi_lo + u * (query_ladder.phi_hi - query_ladder.phi_lo)).tolist()
        warm = fresh(query_ladder)
        warm._anti_rows(np.arange(len(warm.coef)))
        want = [warm.invert(y).hex() for y in ys]
        calls = []

        def counted(coef, half, _fn=ladder_mod._antiderivative):
            calls.append(len(half))
            return _fn(coef, half)

        monkeypatch.setattr(ladder_mod, "_antiderivative", counted)
        cold = fresh(query_ladder)
        assert [cold.invert(y).hex() for y in ys] == want
        assert len(calls) <= math.ceil(len(cold.coef) / ladder_mod._ANTI_BLOCK)
        assert sum(calls) == np.count_nonzero(cold._built)

    def test_query_pass_builds_rows_once(self, query_ladder, monkeypatch):
        # a pass shaped like the benchmark's query pass: its 2,000 t and 300
        # y are one of three passes' stratified draws, so the eval misses
        # some panels; it touches every block, though, and so builds all
        # rows in one call, and the inverts after it build none
        calls = []

        def counted(coef, half, _fn=ladder_mod._antiderivative):
            calls.append(len(half))
            return _fn(coef, half)

        def one_pass(lo, hi, n, rng):
            u = (np.arange(3 * n) + rng.random(3 * n)) / (3 * n)
            return rng.permutation(lo + u * (hi - lo))[:n]

        monkeypatch.setattr(ladder_mod, "_antiderivative", counted)
        table = fresh(query_ladder)
        rng = np.random.default_rng(1)
        ts = one_pass(table.t_lo, table.t_hi, 2000, rng)
        assert len(set(table.edges.searchsorted(ts, side="right").tolist())) < len(table.coef)
        table.eval(ts)
        for y in one_pass(table.phi_lo, table.phi_hi, 300, rng).tolist():
            table.invert(y)
        assert calls == [len(table.coef)]

    def test_a_sparse_grid_builds_only_its_panels(self, plan_ladder, monkeypatch):
        # a grid wider than a block on the plan ladder's 6,000 panels builds
        # the panels it lands on and no others, and no batch builds more rows
        # than max(its points, _ANTI_BLOCK)
        calls = []

        def counted(coef, half, _fn=ladder_mod._antiderivative):
            calls.append(len(half))
            return _fn(coef, half)

        monkeypatch.setattr(ladder_mod, "_antiderivative", counted)
        block = ladder_mod._ANTI_BLOCK
        table = fresh(plan_ladder)
        ts = np.linspace(table.t_lo, table.t_hi, 50)
        assert ts[1] - ts[0] > block * 2.0 * table._half.max()
        table.eval(ts)
        k = np.minimum(table.edges.searchsorted(ts, side="right") - 1, len(table.coef) - 1)
        assert np.flatnonzero(table._built).tolist() == sorted(set(k.tolist()))
        rng = np.random.default_rng(3)
        for n in (1, 7, 80, 700, 7000):
            del calls[:]
            table = fresh(plan_ladder)
            table.eval(rng.uniform(table.t_lo, table.t_hi, n))
            assert len(calls) == 1 and calls[0] <= max(n, block), n

    @pytest.mark.parametrize("name", ["small_ladder", "query_ladder", "plan_ladder"])
    def test_midpoint_values_are_the_float_passes(self, request, name):
        # the values cached with each panel's row, which invert's first
        # Newton step reads, are the float passes at x = 0.0 and eval(mid)
        table = fresh(request.getfixturevalue(name))
        table.eval(table.edges)
        mids = table._mid.tolist()
        assert all(a < m < b for a, m, b in zip(table.edges[:-1], mids, table.edges[1:]))
        for k, (m, (phi, p)) in enumerate(zip(mids, table._at_mid.tolist())):
            lo = table.phi.item(k)
            v = lo + ladder_mod._clenshaw_rev(*table._phi_column(k), 0.0)
            v = min(max(v, lo), table.phi.item(k + 1))
            assert phi.hex() == v.hex() == table.eval(m).hex(), k
            assert p.hex() == ladder_mod._clenshaw_rev(*table._columns(k)[2:], 0.0).hex(), k

    def _cases(self, table, rng):
        ts = np.concatenate([_special_ts(table), rng.uniform(table.t_lo, table.t_hi, 300)])
        ys = rng.uniform(table.phi_lo, table.phi_hi, 40)
        return ts, ys

    def _bits(self, table, ts, ys, order):
        """eval of ts as a batch and one at a time, and invert of ys, as hex,
        with the panels first touched in the given order."""
        def batch():
            return [v.hex() for v in table.eval(ts).tolist()]

        def single(step=1):
            return [table.eval(t).hex() for t in ts.tolist()[::step]][::step]

        def inverse(step=1):
            return [table.invert(y).hex() for y in ys.tolist()[::step]][::step]

        if order == "batch":
            return batch(), single(), inverse()
        if order == "scalar":
            one = single()
            return batch(), one, inverse()
        if order == "invert":
            inv = inverse()
            return batch(), single(), inv
        one, inv = single(-1), inverse(-1)   # from the top panel down
        return batch(), one, inv

    @pytest.mark.parametrize("order", ["batch", "scalar", "invert", "reverse"])
    def test_order_of_first_touch(self, small_ladder, rng, order):
        ts, ys = self._cases(small_ladder, rng)
        up_front = fresh(small_ladder)
        up_front._anti_rows(np.arange(len(up_front.coef)))
        want = self._bits(up_front, ts, ys, "batch")
        assert want[0] == want[1]
        assert self._bits(fresh(small_ladder), ts, ys, order) == want

    def test_four_threads(self, small_ladder, rng):
        # the threads race to build the same panels (more threads than cores,
        # a switch every few bytecodes); other bits or a lost row would show
        import sys
        from concurrent.futures import ThreadPoolExecutor
        ts, ys = self._cases(small_ladder, rng)
        ref = fresh(small_ladder)
        want = self._bits(ref, ts, ys, "batch")
        table = fresh(small_ladder)

        def work(i):
            part, targets = ts[i::4], ys[i::4]
            return ([v.hex() for v in table.eval(part).tolist()],
                    [table.eval(t).hex() for t in part.tolist()],
                    [table.invert(y).hex() for y in targets.tolist()])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                parts = [f.result(timeout=120) for f in [pool.submit(work, i)
                                                         for i in range(4)]]
        finally:
            sys.setswitchinterval(interval)
        # a float on a cold panel builds its whole block, so which panels
        # are built depends on the threads' order; every row the reference
        # built is, and every row built has the bits of an up-front build
        full = fresh(small_ladder)
        full._anti_rows(np.arange(len(full.coef)))
        assert table._built[ref._built].all()
        assert np.array_equal(table._anti[table._built], full._anti[table._built])
        for i, (batch, single, inverse) in enumerate(parts):
            assert batch == single == want[0][i::4]
            assert inverse == want[2][i::4]

    def test_load_check_is_the_integral_of_p_squared(self, small_ladder):
        # the check's quadratic form and the antiderivative the values come
        # from agree to an ulp of phi on every panel
        from zladder.ladder import _antiderivative, _square_integrals, _steps
        t = small_ladder
        gram = _square_integrals(t.coef, t._half)
        steps = _steps(_antiderivative(t.coef, t._half))
        ulps = np.spacing(np.maximum(np.abs(t.phi[:-1]), np.abs(t.phi[1:])))
        assert np.all(np.abs(gram - steps) <= ulps)
        assert np.all(np.abs(np.diff(t.phi) - gram) <= ulps)

    def test_load_check_bits_do_not_depend_on_its_block(self, plan_ladder, monkeypatch):
        # the quadratic form is elementwise over each block of panels, and a
        # block's rows are added in order, one panel's too (numpy would sum
        # those pairwise), so the block size bounds the check's temporaries
        # and moves no bit
        from zladder.ladder import _square_integrals
        t = plan_ladder
        got = {}
        for chunk in (1, 7, 1024, 4096):
            monkeypatch.setattr(ladder_mod, "_GRAM_CHUNK", chunk)
            got[chunk] = [x.hex() for x in _square_integrals(t.coef, t._half).tolist()]
        assert len(got[1]) == len(t.coef) > 4096
        assert got[7] == got[1] and got[1024] == got[1] and got[4096] == got[1]


def test_ladder_config_hash_is_sha256_of_its_payload(ev):
    # the name of the plan's cache file; the digest is hashlib's, without it
    payload = (b"ladder(t_lo=1000.0,t_hi=7000.0,anchor=1010.0,h=1.0,tol=1e-08,"
               b"rule=cheb32-lobatto+cheb16,z=" + ev.config_hash().encode() + b")")
    digest = ladder_mod.ladder_config_hash(ev, 1000, 7000, 1e-8)
    assert digest == hashlib.sha256(payload).hexdigest()[:16] == "5f998a5ec35784be"


def test_locate_outside_the_range(small_ladder):
    table = small_ladder
    assert table.locate(table.phi_lo)[0] == 0
    assert table.locate(table.phi_hi)[0] == len(table.edges) - 2
    for y in (math.nextafter(table.phi_lo, -math.inf), math.nextafter(table.phi_hi, math.inf),
              math.nan):
        with pytest.raises(DomainError, match=r"^ladder location outside \["):
            table.locate(y)


def test_solve_rise_that_does_not_converge_raises(small_ladder, monkeypatch):
    # a zero mean slope and a unit slope: every Newton step is +1e-10, inside
    # the bracket [x, 1] and never below 4e-16, so 100 steps end unconverged
    table = fresh(small_ladder)
    monkeypatch.setattr(table, "slopes", lambda k, x0, x: (0.0, 0.0, 1.0))
    with pytest.raises(ConvergenceError, match=r"^ladder rise solve stalled on panel 3 "):
        table.solve_rise(3, -1.0, 1e-10)


class TestInvert:
    @pytest.mark.parametrize("y", [math.nan, np.array(math.nan)])
    def test_nan_rejected(self, small_ladder, y):
        with pytest.raises(DomainError):
            small_ladder.invert(y)

    def test_anchor_roundtrip(self, small_ladder):
        t = small_ladder.invert(small_ladder.anchor_value)
        assert abs(t - small_ladder.anchor_t0) <= 1e-9

    def test_roundtrip_random(self, small_ladder, rng):
        ys = rng.uniform(small_ladder.phi_lo, small_ladder.phi_hi, 100)
        for y in ys:
            t = small_ladder.invert(float(y))
            assert abs(small_ladder.eval(t) - y) <= 1e-10

    def test_checkpoint_targets(self, small_ladder):
        for j in (5, 40, 77):
            assert small_ladder.invert(small_ladder.phi[j]) == small_ladder.edges[j]

    def test_out_of_range(self, small_ladder):
        with pytest.raises(DomainError):
            small_ladder.invert(small_ladder.phi_lo - 1.0)
        with pytest.raises(DomainError):
            small_ladder.invert(small_ladder.phi_hi + 1.0)

    @pytest.mark.parametrize("y", [math.nan, np.float64(2000.0), np.array(0.0)])
    def test_range_message_prints_floats(self, small_ladder, y):
        with pytest.raises(DomainError) as err:
            small_ladder.invert(y)
        assert str(err.value) == (f"inversion target outside "
                                  f"[{small_ladder.phi_lo}, {small_ladder.phi_hi}]")
        assert "np." not in str(err.value)

    @pytest.mark.parametrize("y", [[1000.0, math.nan], np.array([1000.0])])
    def test_takes_one_float(self, small_ladder, y):
        with pytest.raises(TypeError):
            small_ladder.invert(y)


@pytest.fixture(scope="module")
def ladder_near_1e5(ev):
    return build_ladder(ev, 99990.0, 100000.0, tol=1e-8)


@pytest.fixture(scope="module")
def query_ladder(ev):
    """The benchmark's query band, where phi_1 rises by up to ~1e-9 per ulp."""
    return build_ladder(ev, 99500.0, 100000.0, tol=1e-8)


@pytest.fixture(scope="module")
def one_ulp_panel(small_ladder):
    """small_ladder with checkpoint 41 moved to the double after checkpoint 40,
    so panel 40 is one ulp wide and a Newton midpoint there is a checkpoint."""
    edges = small_ladder.edges.copy()
    edges[41] = np.nextafter(edges[40], math.inf)
    return LadderTable(
        evaluator=small_ladder.evaluator,
        build_tolerance=small_ladder.build_tolerance, edges=edges,
        phi=small_ladder.phi, coef=small_ladder.coef,
        residual_total=small_ladder.residual_total)


def _reference_inverse(table, y):
    """The numpy Newton solve `invert` ran before it moved to Python floats,
    every evaluation through the array path (one point per call for the
    Newton steps, one batch for the nine candidates)."""
    def eval1(t):
        return float(table.eval(np.array([t]))[0])

    j = np.searchsorted(table.phi, y, side="left")
    if j < len(table.phi) and table.phi[j] == y:
        return float(table.edges[j])
    lo, hi = float(table.edges[j - 1]), float(table.edges[j])
    t = 0.5 * (lo + hi)
    for _ in range(80):
        ft = eval1(t) - y
        lo, hi = (lo, t) if ft > 0.0 else (t, hi)
        slope = float(table.ztilde_sq(np.array([t]))[0])
        step = ft / slope if slope > 1e-18 else math.inf
        if abs(step) <= 2.0 * np.spacing(t) or hi - lo <= 4.0 * np.spacing(hi):
            break
        t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
    cands = neighbours(table, t)
    vals = table.eval(cands)
    best = int(np.argmin(np.abs(vals - y)))
    resid = abs(vals[best] - y)
    if not (resid <= 1e-10 or brackets(table, cands, vals, best, y)):
        raise ConvergenceError(f"ladder inversion stalled at |phi - y| = {resid:.2e}")
    return float(cands[best])


def _outcome(solve, table, y):
    try:
        return solve(table, y).hex()
    except ConvergenceError as exc:
        return f"raised {exc}"


def _within_ulps(values, count):
    """Each value and the `count` doubles on either side of it."""
    out = []
    for v in values:
        below = above = v
        out.append(v)
        for _ in range(count):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            out += [below, above]
    return out


def _newton_onto_roots(table, roots):
    """For each zero r of p, the y whose first Newton step from the midpoint
    m of r's panel lands on r: y = phi_1(m) - p(m)^2 (m - r).  There the
    slope p^2 is below 1e-18, so Newton bisects.  Only the y inside the
    panel's range of phi_1 are kept, so the solve stays on that panel."""
    k = np.searchsorted(table.edges, roots, side="right") - 1
    mid = 0.5 * (table.edges[k] + table.edges[k + 1])
    ys = table.eval(mid) - table.ztilde_sq(mid) * (mid - roots)
    return ys[(table.phi[k] < ys) & (ys < table.phi[k + 1])]


class TestInvertContract:
    @pytest.mark.parametrize("name", ["small_ladder", "ladder_near_1e5", "query_ladder",
                                      "one_ulp_panel"])
    def test_equals_reference_solve(self, request, rng, monkeypatch, name):
        # 2000 stratified y, every checkpoint value, a sample of them moved
        # by up to 4 ulps (their inverses have neighbours across a
        # checkpoint), and y that Newton takes onto a zero of p
        table = request.getfixturevalue(name)
        m = 2000
        u = (np.arange(m) + rng.random(m)) / m
        phi = table.phi.tolist()
        roots = breakpoints(table, table.t_lo, table.t_hi)
        ys = np.concatenate([table.phi_lo + u * (table.phi_hi - table.phi_lo), phi,
                             _within_ulps(phi[::max(len(phi) // 20, 1)] + phi[-1:], 4),
                             _newton_onto_roots(table, roots[::max(len(roots) // 20, 1)])])
        ys = np.clip(ys, table.phi_lo, table.phi_hi)

        hits, events = collections.Counter(), []   # events: one solve's, in order
        for attr in ("eval", "ztilde_sq"):
            def counted(t, _fn=getattr(table, attr), _attr=attr):
                if isinstance(t, float):   # the reference passes arrays
                    hits[_attr] += 1
                    events.append(_attr)
                return _fn(t)
            monkeypatch.setattr(table, attr, counted)

        def rev(rest, head, x, _fn=ladder_mod._clenshaw_rev):
            out = _fn(rest, head, x)
            events.append("pass")
            hits["bisect"] += _is_p_column(rest) and out * out <= 1e-18
            return out
        monkeypatch.setattr(ladder_mod, "_clenshaw_rev", rev)

        for y in ys.tolist():
            events.clear()
            got = _outcome(LadderTable.invert, table, y)
            # the first point a solve reads is its first Newton iterate, the
            # panel's midpoint: inside the panel its values were cached with
            # the panel's row, and off it, it goes through eval
            hits["newton_off_panel"] += events[:1] == ["eval"]
            assert got == _outcome(_reference_inverse, table, y), y
        # a neighbour off the panel goes through eval, and so does a Newton
        # iterate off it (only where a panel is one ulp wide), which the
        # bracket test ends with no slope: ztilde_sq is never reached
        assert hits["eval"] > 0
        assert hits["ztilde_sq"] == 0
        assert (hits["newton_off_panel"] > 0) == (name == "one_ulp_panel")
        assert hits["bisect"] > 0

    def test_each_point_evaluated_once(self, small_ladder, query_ladder, monkeypatch):
        # the first Newton iterate, the panel midpoint (x = 0.0), reads
        # phi_1 and p cached with the panel's row, and no pass is made at
        # x = 0.0; each later iterate takes one Clenshaw pass for phi_1 and
        # one for p at its x; the best-double search makes one phi_1 pass
        # for each double on its walk that Newton did not visit: from the
        # last iterate to the two doubles whose values bracket y, and, when
        # the first of least residual lies below that bracket, down to the
        # double below it.
        # An inverse that misses 1e-10 (near 1e5, where phi_1 can rise by
        # more than 2e-10 per ulp) evaluates nothing more; eval, ztilde_sq
        # and the general Clenshaw routine are not called for points inside
        # the panel
        calls = collections.Counter()
        phi, newton = _record_x(monkeypatch)
        misses = collections.Counter()
        tables = small_ladder, query_ladder
        for table in tables:
            table.eval(table.edges)   # every panel's row built, so no solve builds one
        for seed, table in enumerate(tables):
            for owner, name in ((ladder_mod, "_clenshaw"), (table, "eval"),
                                (table, "ztilde_sq")):
                def counted(*args, _fn=getattr(owner, name), _name=name):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(owner, name, counted)
            ys = np.random.default_rng(seed).uniform(table.phi[1], table.phi[-2], 200)
            for y in ys.tolist():
                phi.clear()
                newton.clear()
                at = table.invert(y)
                assert phi[:len(newton)] == newton, y
                assert 0.0 not in phi + newton, y
                single = phi[len(newton):]
                iterates = [0.0, *newton]
                k = int(np.searchsorted(table.phi, y)) - 1
                mid, half = table._mid.item(k), table._half.item(k)
                t = mid + half * iterates[-1]   # the last iterate, to within an ulp
                while (t - mid) / half < iterates[-1]:
                    t = math.nextafter(t, math.inf)
                while (t - mid) / half > iterates[-1]:
                    t = math.nextafter(t, -math.inf)
                assert (t - mid) / half == iterates[-1], y
                assert len(set(iterates)) == len(iterates), y
                assert len(set(single)) == len(single), y
                assert calls["_clenshaw"] == calls["eval"] == calls["ztilde_sq"] == 0, y
                cands = neighbours(table, t).tolist()
                vals = [LadderTable.eval(table, c) for c in cands]
                resid = [abs(v - y) for v in vals]
                i, n, best = cands.index(t), len(cands), resid.index(min(resid))
                u = sum(v < y for v in vals)   # the first candidate whose value reaches y
                # the walk spans t and the bracket u - 1, u; below a first of
                # least residual under u the search's tie test reads one more
                lo = max(min(i, u - 1, best - (0 < best < u)), 0)
                walk = cands[lo:min(max(i, u), n - 1) + 1]
                assert cands[best] == at, y
                assert set(single) == {(c - mid) / half for c in walk} - set(iterates), y
                misses[seed] += resid[best] > 1e-10
        assert misses[0] == 0 and misses[1] > 0

    def test_passes_per_invert_near_1e5(self, query_ladder, monkeypatch):
        # CI's 2,000 stratified y: 22,134 Clenshaw passes in all, 11.07 per
        # inverse (26,134 when the first Newton step made its two passes at
        # the midpoint, 27,608 when a miss also evaluated all nine doubles,
        # 38,912 when every inverse did), 233 of them with no double within
        # 1e-10
        table = fresh(query_ladder)
        passes = itertools.count()

        def rev(rest, head, x, _fn=ladder_mod._clenshaw_rev):
            next(passes)
            return _fn(rest, head, x)

        monkeypatch.setattr(ladder_mod, "_clenshaw_rev", rev)
        ys = ci_targets(table)
        ts = [table.invert(y) for y in ys]
        assert next(passes) == 22134
        monkeypatch.undo()
        assert np.count_nonzero(np.abs(table.eval(np.array(ts)) - ys) > 1e-10) == 233

    @pytest.mark.parametrize("name, targets, warm", [
        ("plan_ladder", "ci", False), ("query_ladder", "ci", False),
        ("query_ladder", "ci", True), ("plan_ladder", "checkpoints", False),
        ("query_ladder", "checkpoints", False)])
    def test_equals_scan_oracle(self, request, name, targets, warm):
        # the lazy search returns the double the scan of all nine returns,
        # or raises where it does: CI's 2,000 stratified y, and every
        # checkpoint value, one ulp either side of it, phi_lo and phi_hi;
        # cold (each panel built by the solve that first lands on it) and warm
        table = fresh(request.getfixturevalue(name))
        if warm:
            table.eval(np.linspace(table.t_lo, table.t_hi, 4001))
        if targets == "ci":
            ys = ci_targets(table)
        else:
            ys = [y for y in _within_ulps(table.phi.tolist(), 1) + [table.phi_lo, table.phi_hi]
                  if table.phi_lo <= y <= table.phi_hi]
        for y in ys:
            assert (_outcome(LadderTable.invert, table, y)
                    == _outcome(oracles.invert_by_scan, table, y)), y

    def test_no_point_evaluated_twice(self, query_ladder, monkeypatch):
        # CI's 2,000 stratified y: no solve makes a second Clenshaw pass at an
        # x it has evaluated (a neighbour of the last iterate that is an
        # earlier iterate takes the iterate's value)
        table = query_ladder
        phi, newton = _record_x(monkeypatch)
        for y in ci_targets(table):
            phi.clear()
            newton.clear()
            table.invert(y)
            assert phi[:len(newton)] == newton, y   # a Newton step's two passes
            assert len(set(phi)) == len(phi), y

    def test_former_silent_miss(self, ladder_near_1e5):
        # the Gauss-panel ladder's 8 eps |y| stop rule returned a t with
        # |phi_1(t) - y| = 1.46e-10 here, without an error
        y = 95939.43889598358
        assert abs(ladder_near_1e5.eval(ladder_near_1e5.invert(y)) - y) <= 1e-10

    def test_best_double_nearby(self, ladder_near_1e5, rng):
        table = ladder_near_1e5
        for y in rng.uniform(table.phi_lo, table.phi_hi, 40):
            t = table.invert(float(y))
            near = neighbours(table, t)
            assert abs(table.eval(t) - y) == np.min(np.abs(table.eval(near) - y))

    @settings(max_examples=200, deadline=None)
    @given(u=st.floats(0.0, 1.0))
    def test_contract_or_raise(self, ladder_near_1e5, u):
        table = ladder_near_1e5
        y = min(table.phi_lo + u * (table.phi_hi - table.phi_lo), table.phi_hi)
        assert meets_inverse_contract(table, y)

    @pytest.mark.parametrize("end", ["top", "bottom"])
    def test_domain_end_is_nearest(self, ev, end):
        # near 1e5 phi_1 rises by 7.7e-10 per ulp at these ends, and y lies
        # 0.3 of that from the end's value: the end is the nearest double in
        # the domain, though 2.3e-10 away (this used to raise)
        if end == "top":
            table = build_ladder(ev, 99682.78, 99702.78, tol=1e-8)
            t, inner, sign = table.t_hi, -math.inf, -1.0
        else:
            table = build_ladder(ev, 99702.78, 99722.78)
            t, inner, sign = table.t_lo, math.inf, 1.0
        step = table.ztilde_sq(t) * math.ulp(t)
        assert step > 2e-10
        y = table.eval(t) + sign * 0.3 * step
        assert table.invert(y) == t
        assert sign * (table.eval(math.nextafter(t, inner)) - y) >= 0.0
        assert meets_inverse_contract(table, y)


@pytest.fixture(scope="module", params=[(1e6, 1e-8), (1e7, 1e-7)], ids=["1e6", "1e7"])
def large_t_ladder(request, ev):
    """A 60-unit ladder at 1e6 or 1e7, at the tol the build certifies there;
    phi_1 rises by ~1e-9 (1e-8 at 1e7) from one double to the next."""
    t_lo, tol = request.param
    return build_ladder(ev, t_lo, t_lo + 60.0, tol=tol)


class TestInvertBesideCheckpoints:
    def test_nearest_double_at_large_t(self, large_t_ladder):
        # every checkpoint value and its two neighbouring doubles: Newton
        # stays inside a panel, so for y an ulp beside a checkpoint value
        # the nearest double can be the checkpoint, the last or first of the
        # nine around its last iterate, and invert used to raise there
        table = large_t_ladder
        for y in _within_ulps(table.phi.tolist(), 1):
            if not table.phi_lo <= y <= table.phi_hi:
                continue
            t = table.invert(y)
            assert t.hex() == oracles.invert_by_scan(table, y).hex(), y
            near = neighbours(table, t, 64)
            assert np.abs(table.eval(near) - y).min() == abs(table.eval(t) - y), y

    def test_cli_inverts_beside_a_checkpoint(self, tmp_path, capsys, ev):
        # phi_1 at checkpoint 19 of [1e6, 1e6 + 60], less one ulp, exited 70
        # ("ladder inversion stalled"); y comes from the table, as the
        # ladder's bits follow numpy's SIMD dispatch
        args = ["--t-lo", "1000000", "--t-hi", "1000060", "--tol", "1e-8",
                "--cache", str(tmp_path / "ladder.npz")]
        assert cli.main(["ladder", "build", *args]) == 0
        capsys.readouterr()
        table = LadderTable.load(tmp_path / "ladder.npz", ev)
        y = math.nextafter(table.phi.item(19), -math.inf)
        assert cli.main(["ladder", "invert", *args, "--y", repr(y)]) == 0
        assert json.loads(capsys.readouterr().out) == {"y": y, "t": table.edges.item(19)}


def _is_p_column(rest) -> bool:
    """Whether a Clenshaw pass runs over a panel's coefficients of p (degree
    `_DEGREE`), not over phi_1's, its antiderivative (2 `_DEGREE` + 1)."""
    return len(rest) == ladder_mod._DEGREE


def _record_x(monkeypatch):
    """Wrap the ladder's Clenshaw kernel; the two lists it returns collect
    the x of each pass over a panel's phi_1 column and over its p column."""
    phi, p = [], []

    def rev(rest, head, x, _fn=ladder_mod._clenshaw_rev):
        (p if _is_p_column(rest) else phi).append(x)
        return _fn(rest, head, x)

    monkeypatch.setattr(ladder_mod, "_clenshaw_rev", rev)
    return phi, p


def _pinned_clenshaw(cols, xs, k):
    """`_clenshaw(cols, xs, k)` as hex strings, with its inputs' bytes
    checked unchanged after the call."""
    before = cols.tobytes(), xs.tobytes()
    got = _clenshaw(cols, xs, k)
    assert (cols.tobytes(), xs.tobytes()) == before
    return [v.hex() for v in got.ravel().tolist()]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("form", ["gather", "slice", "columns"])
def test_clenshaw_index_forms_keep_the_float_bits(data, form):
    # every point of each of `_clenshaw`'s index forms (a panel-index gather
    # as in `ztilde_sq`, a slice as in `_antiderivative`, (slice(None), None)
    # columns as in the remainder terms) has the bits of `_clenshaw_rev` on
    # its column, the steps over leading +-0.0 coefficients included
    terms = data.draw(st.integers(1, 40))
    width = data.draw(st.integers(1, 4))
    lead = data.draw(st.integers(0, terms - 1))
    coef = st.floats(-1e3, 1e3)
    zero = st.sampled_from([0.0, -0.0])
    cols = np.array([[data.draw(zero if j >= terms - lead else coef) for _ in range(width)]
                     for j in range(terms)])
    xs = np.array(data.draw(st.lists(st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                                               st.floats(-1.0, 1.0)), min_size=1, max_size=6)))
    k = np.array(data.draw(st.lists(st.integers(0, width - 1), min_size=len(xs),
                                    max_size=len(xs))))
    want = [[_clenshaw_rev(c[:0:-1], c[0], x) for x in xs.tolist()] for c in cols.T.tolist()]
    if form == "gather":
        got = _pinned_clenshaw(cols, xs, k)
        ref = [want[j][i] for i, j in enumerate(k.tolist())]
    elif form == "slice":
        got = _pinned_clenshaw(np.ascontiguousarray(cols[:, k]), xs, slice(None))
        ref = [want[j][i] for i, j in enumerate(k.tolist())]
    else:
        got = _pinned_clenshaw(cols, xs, (slice(None), None))
        ref = [v for row in want for v in row]
    assert got == [v.hex() for v in ref]


@pytest.mark.parametrize("col", [[0.5, -0.25, 0.0, -0.0, -0.0], [-0.0, 0.0, -0.0],
                                 [0.0], [-0.0], [1.0, -0.0]])
def test_clenshaw_leading_zero_steps(col):
    # the signs of zeros that only the leading steps decide
    xs = np.array([-1.0, -0.3, -0.0, 0.0, 0.7, 1.0])
    got = _pinned_clenshaw(np.array(col)[:, None], xs, (slice(None), None))
    assert got == [_clenshaw_rev(col[:0:-1], col[0], x).hex() for x in xs.tolist()]


def _extreme_coefficients(panels, terms, rng):
    """(panels, terms) coefficients, each panel of one kind: ordinary values
    over 40 decades; a tail of +-0.0 coefficients; +-1e150, +-1e-160 and
    subnormals, whose products reach 1e300 or underflow; or one 1e200,
    whose square overflows."""
    coef = rng.standard_normal((panels, terms)) * 10.0 ** rng.integers(-20, 21, (panels, terms))
    kind = rng.integers(0, 4, panels)
    for i in np.flatnonzero(kind == 1).tolist():
        lead = int(rng.integers(1, terms + 1))
        coef[i, terms - lead:] = rng.choice([0.0, -0.0], lead)
    extreme = (kind[:, None] == 2) & (rng.random((panels, terms)) < 0.5)
    coef[extreme] = rng.choice([1e150, -1e150, 1e-160, -1e-160, 5e-324, -5e-324, 0.0, -0.0],
                               np.count_nonzero(extreme))
    coef[kind == 3, rng.integers(0, terms)] = 1e200
    return coef


@pytest.mark.parametrize("terms", [ladder_mod._DEGREE // 2 + 1, ladder_mod._DEGREE + 1])
@pytest.mark.parametrize("panels", [1, 2, 17, 500, 3000])
def test_antiderivative_keeps_the_reference_bits(panels, terms):
    # the in-place antiderivative and its whole-panel steps against the
    # version with a new array per operation, `oracles.antiderivative_reference`
    rng = np.random.default_rng(panels * terms)
    coef = _extreme_coefficients(panels, terms, rng)
    half = np.where(rng.random(panels) < 0.2, 0.5, rng.uniform(1e-12, 0.5, panels))
    with np.errstate(all="ignore"):
        got = ladder_mod._antiderivative(coef, half)
        want = oracles.antiderivative_reference(coef, half)
        steps = ladder_mod._steps(got)
        want_steps = _clenshaw_rev(want[:0:-1], want[0], np.ones(panels))
    assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]
    assert [v.hex() for v in steps.tolist()] == [v.hex() for v in want_steps.tolist()]


def test_antiderivative_peak_memory():
    # 500 panels: the table of p^2, one buffer of cross products and the
    # antiderivative (1.25 MB with a new array per product, rule and scaling)
    rng = np.random.default_rng(500)
    coef, half = rng.standard_normal((500, ladder_mod._DEGREE + 1)), rng.uniform(0.1, 0.5, 500)
    tracemalloc.start()
    try:
        ladder_mod._antiderivative(coef, half)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0e6


class TestInvertMemo:
    @pytest.fixture
    def table(self, ev):
        return build_ladder(ev, 1000.0, 1030.0, tol=1e-9)

    def test_repeat_is_identical_and_free(self, table):
        # a repeated y is solved again, to the same bits, as a numpy scalar too
        y = table.anchor_value + 3.217
        first = table.invert(y)
        again = table.invert(y)
        assert again.hex() == first.hex()
        assert table.invert(np.float64(y)).hex() == first.hex()

    def test_raise_is_not_memoized(self, table, monkeypatch):
        # a p reader so large that Newton's first step is below two ulps and
        # it stops at the panel's midpoint: the values of the nine doubles
        # around it all lie on one side of y, and none meets 1e-10
        y = table.anchor_value + 5.5

        def huge_p(rest, head, x, _fn=ladder_mod._clenshaw_rev):
            return 1e10 if _is_p_column(rest) else _fn(rest, head, x)

        monkeypatch.setattr(ladder_mod, "_clenshaw_rev", huge_p)
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                table.invert(y)
        monkeypatch.undo()
        t = table.invert(y)
        assert abs(table.eval(t) - y) <= 1e-10
        assert table.invert(y) == t


class TestPushforward:
    def test_constant(self, small_ladder):
        T = 950.0
        v = pushforward_integral(small_ladder, lambda x: np.ones_like(x), T, 1.0)
        assert abs(v - 1.0) <= 1e-9

    def test_linear(self, small_ladder):
        T = 950.0
        v = pushforward_integral(small_ladder, lambda x: x - T, T, 1.0)
        assert abs(v - 0.5) <= 1e-9

    def test_bessel_weight(self, small_ladder):
        T = 950.0
        mu = bessel_zero(0, 1)
        v = pushforward_integral(
            small_ladder, lambda x: bessel_j(0, mu * (x - T)) ** 2 * (x - T),
            T, 1.0, tol=1e-10)
        assert abs(v - bessel_norm_sq(0, 1)) <= 1e-8

    def test_random_polynomials(self, small_ladder, rng):
        T = 950.0
        for _ in range(10):
            coeffs = rng.uniform(-1.0, 1.0, 7)

            def f(x):
                u = x - T
                acc = np.zeros_like(u)
                for c in coeffs[::-1]:
                    acc = acc * u + c
                return acc

            exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
            got = pushforward_integral(small_ladder, f, T, 1.0, tol=1e-10)
            assert abs(got - exact) <= 1e-7 * (1.0 + abs(exact))

    def test_wider_window(self, small_ladder):
        v = pushforward_integral(small_ladder, lambda x: np.ones_like(x), 950.0, 2.0)
        assert abs(v - 2.0) <= 1e-9

    def test_admissibility(self, small_ladder):
        with pytest.raises(AdmissibilityError):
            pushforward_integral(small_ladder, lambda x: x, 950.0, 950.0)
        with pytest.raises(AdmissibilityError):
            pushforward_integral(small_ladder, lambda x: x, 950.0, 0.0)

    @pytest.mark.parametrize("T", [1.0, 0.5, 0.0, -3.0, math.nan])
    def test_admissibility_needs_T_above_one(self, T):
        # ln T is 0 at T = 1 and undefined below: every such T is an
        # admissibility fault, not a ZeroDivisionError or a math domain error
        with pytest.raises(AdmissibilityError, match="T > 1"):
            check_admissible(T, 1.0)


class TestConcurrency:
    def test_parallel_evaluator_and_zero_cache(self, ev):
        # evaluators are pure and zero tables extend under a lock
        import concurrent.futures as cf

        from zladder import bessel_zero as bz
        ts = np.linspace(60.0, 5000.0, 300)
        expected_z = ev.z_rs(ts)

        def work(k):
            return ev.z_rs(ts), bz(3.0, 1 + (k % 12))

        with cf.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(16)))
        for zs, mu in results:
            assert np.array_equal(zs, expected_z)
            assert abs(float(__import__("zladder").bessel_j(3.0, mu))) <= 1e-12


class TestRetardation:
    def test_anchor_ratio_is_one(self, small_ladder):
        rows = retardation_report(small_ladder, [small_ladder.anchor_t0])
        assert abs(rows[0].ratio - 1.0) <= 1e-12

    def test_expected_uses_prime_counts(self, small_ladder):
        rows = retardation_report(small_ladder, [1013.0])
        assert rows[0].expected == (1.0 - EULER_C) * prime_pi(1013.0)

    def test_ratios_moderate(self, small_ladder):
        ts = np.linspace(1005.0, 1085.0, 9)
        rows = retardation_report(small_ladder, ts)
        for r in rows:
            assert 0.5 <= r.ratio <= 2.0


class TestLogStability:
    def test_degenerate_interval(self, small_ladder):
        assert log_stability_check(small_ladder, 950.0, U=0.0) == 0.0

    def test_bounded(self, small_ladder):
        assert log_stability_check(small_ladder, 950.0) <= 15.0


def rewrite_cache(path, **changes):
    """Rewrite a saved ladder cache with some fields replaced (a value of
    None drops the field)."""
    with np.load(path) as doc:
        fields = {key: doc[key] for key in doc.files}
    fields.update(changes)
    with open(path, "wb") as fh:
        np.savez(fh, **{k: v for k, v in fields.items() if v is not None})


class TestCache:
    def test_roundtrip_bitwise(self, ev, small_ladder, tmp_path):
        path = tmp_path / "ladder.npz"
        small_ladder.save(path)
        again = LadderTable.load(path, ev)
        assert np.array_equal(again.phi, small_ladder.phi)
        assert np.array_equal(again.edges, small_ladder.edges)
        assert np.array_equal(again.coef, small_ladder.coef)
        assert again.anchor_value == small_ladder.anchor_value
        assert again.residual_total == small_ladder.residual_total
        ts = np.linspace(1000.0, 1090.0, 57)
        assert np.array_equal(again.eval(ts), small_ladder.eval(ts))

    def test_saved_under_exactly_the_given_name(self, small_ladder, tmp_path):
        path = tmp_path / "query-ladder.json"
        small_ladder.save(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["query-ladder.json"]

    def test_two_saves_give_identical_bytes(self, small_ladder, tmp_path):
        small_ladder.save(tmp_path / "a.npz")
        small_ladder.save(tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_saves_seven_members(self, small_ladder, tmp_path):
        # what the arrays, the anchor rule and the config hash fix is not stored
        path = tmp_path / "ladder.npz"
        small_ladder.save(path)
        with np.load(path) as doc:
            assert doc.files == ["version", "config_hash", "tol", "residual_total",
                                 "edges", "phi", "coef"]
            assert doc["version"].item() == 3

    def test_rejects_other_evaluator(self, ev, tmp_path, monkeypatch):
        # a cache built and saved by an evaluator of another configuration
        # carries that configuration's hash, and is refused by it through
        # the API and through the CLI
        path = tmp_path / "ladder.npz"
        for key, value in (("rs_correction_order", 2), ("oracle_terms", 6),
                           ("t_min_rs", 40.0)):
            assert getattr(ev, key) != value
            with monkeypatch.context() as mp:
                mp.setattr(ZEvaluator, key, value)
                build_ladder(ZEvaluator(), 1000.0, 1005.0, tol=1e-8).save(path)
            with pytest.raises(CacheError, match="config hash mismatch"):
                LadderTable.load(path, ev)
            query = ["ladder", "query", "--t-lo", "1000", "--t-hi", "1005", "--tol", "1e-8",
                     "--t", "1002", "--cache", str(path)]
            assert cli.main(query) == cli.EXIT_CACHE

    def test_rejects_other_base_width(self, ev, tmp_path, monkeypatch):
        # the base panel width is fixed; a cache built on half-unit base
        # panels is hashed with that width and refused by its hash
        path = tmp_path / "ladder.npz"
        with monkeypatch.context() as mp:
            mp.setattr(ladder_mod, "_BASE_H", 0.5)
            table = build_ladder(ev, 1000.0, 1005.0, tol=1e-8)
            table.save(path)
        assert np.diff(table.edges).max() == 0.5
        with pytest.raises(CacheError, match="config hash mismatch"):
            LadderTable.load(path, ev)

    def test_rejects_corruption(self, ev, small_ladder, tmp_path):
        path = tmp_path / "ladder.npz"
        small_ladder.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CacheError):
            LadderTable.load(path, ev)

    def test_rejects_v1_json_cache(self, ev, small_ladder, tmp_path):
        import json
        path = tmp_path / "ladder.json"
        b = small_ladder
        path.write_text(json.dumps({
            "version": 1, "config_hash": b.config_hash(),
            "builder": {"t_lo": b.t_lo, "t_hi": b.t_hi, "anchor_t0": b.anchor_t0,
                        "h": 1.0, "tol": b.build_tolerance,
                        "rs_correction_order": ev.rs_correction_order,
                        "oracle_terms": ev.oracle_terms, "t_min_rs": ev.t_min_rs},
            "anchor_value": b.anchor_value, "base_step_count": 200,
            "split_base_indices": [], "extra_edges": [],
            "residual_total": b.residual_total, "phi": b.phi.tolist()}))
        with pytest.raises(CacheError):
            LadderTable.load(path, ev)

    def test_failed_write_keeps_previous_cache(self, ev, small_ladder, tmp_path,
                                                monkeypatch):
        import io
        path = tmp_path / "ladder.npz"
        small_ladder.save(path)
        before = path.read_bytes()
        real = np.savez

        def half_then_fail(fh, **fields):
            buf = io.BytesIO()
            real(buf, **fields)
            fh.write(buf.getvalue()[: len(buf.getvalue()) // 2])
            raise OSError("simulated full disk")

        monkeypatch.setattr(np, "savez", half_then_fail)
        with pytest.raises(OSError, match="simulated"):
            small_ladder.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ladder.npz"]
        again = LadderTable.load(path, ev)
        assert np.array_equal(again.phi, small_ladder.phi)

    @pytest.mark.parametrize("tamper", [
        "swap_phi", "inf_edge", "nan_phi", "first_edge", "last_edge",
        "anchor_value", "anchor_off_grid", "ragged", "short", "two_d",
        "missing_key", "string_scalar", "coef_rows", "coef_degree", "nan_coef",
        "coef_scaled", "phi_step", "phi_shifted", "no_coef"])
    def test_rejects_tampered_data(self, ev, small_ladder, tmp_path, tamper):
        # the stored configuration is intact; only the data is not
        path = tmp_path / "ladder.npz"
        small_ladder.save(path)
        edges, phi = small_ladder.edges.copy(), small_ladder.phi.copy()
        coef = small_ladder.coef.copy()
        k0 = int(np.searchsorted(edges, small_ladder.anchor_t0))
        scaled = coef.copy()
        scaled[30] *= 1.0 + 1e-9
        changes = {
            "swap_phi": lambda: {"phi": np.concatenate([phi[:10], phi[11:9:-1], phi[12:]])},
            # one more checkpoint, at t = inf, with a nondecreasing value
            "inf_edge": lambda: {"edges": np.append(edges, math.inf),
                                 "phi": np.append(phi, phi[-1]),
                                 "coef": np.vstack([coef, coef[-1:]])},
            "nan_phi": lambda: {"phi": np.where(np.arange(len(phi)) == 5, math.nan, phi)},
            # increasing checkpoints over another span, which the hash names
            "first_edge": lambda: {"edges": np.concatenate([[edges[0] - 1e-3], edges[1:]])},
            "last_edge": lambda: {"edges": np.concatenate([edges[:-1], [edges[-1] + 1e-3]])},
            # the anchor checkpoint holds another value, or is gone
            "anchor_value": lambda: {"phi": np.where(np.arange(len(phi)) == k0,
                                                     phi + 1e-9, phi)},
            "anchor_off_grid": lambda: {"edges": np.delete(edges, k0),
                                        "phi": np.delete(phi, k0)},
            "ragged": lambda: {"phi": phi[:-1]},
            "short": lambda: {"edges": edges[:1], "phi": phi[:1]},
            "two_d": lambda: {"edges": edges[None, :], "phi": phi[None, :]},
            "missing_key": lambda: {"residual_total": None},
            "string_scalar": lambda: {"tol": np.array("tol")},
            "coef_rows": lambda: {"coef": coef[:-1]},
            "coef_degree": lambda: {"coef": coef[:, :17]},
            "nan_coef": lambda: {"coef": np.where(coef == coef[7, 3], math.nan, coef)},
            # a panel whose integral of p^2 moves by ~1e-9 from its phi step
            "coef_scaled": lambda: {"coef": scaled},
            # a phi step 1e-9 off its panel integral, still nondecreasing
            "phi_step": lambda: {"phi": np.where(np.arange(len(phi)) == 60,
                                                 phi + 1e-9, phi)},
            # every value 1e-9 off, so no step moves: off the retardation law
            # at the anchor
            "phi_shifted": lambda: {"phi": phi + 1e-9},
            "no_coef": lambda: {"coef": None},
        }[tamper]()
        rewrite_cache(path, **changes)
        with pytest.raises(CacheError):
            LadderTable.load(path, ev)

    @pytest.mark.parametrize("residual", [1.0, math.nan, -1.0])
    def test_rejects_certificate_outside_tolerance(self, ev, small_ladder, tmp_path,
                                                   residual):
        # build_ladder never writes a certificate outside [0, tol]
        path = tmp_path / "ladder.npz"
        small_ladder.save(path)
        rewrite_cache(path, residual_total=np.array(residual))
        with pytest.raises(CacheError, match="certificate residual_total"):
            LadderTable.load(path, ev)

    def test_rejects_v2_cache(self, ev, small_ladder, tmp_path):
        # the checkpoint-only format: edges and values without coefficients
        path = tmp_path / "ladder.npz"
        small_ladder.save(path)
        rewrite_cache(path, version=np.array(2), coef=None)
        with pytest.raises(CacheError, match="version"):
            LadderTable.load(path, ev)

    def test_rejects_wrong_version(self, ev, small_ladder, tmp_path):
        path = tmp_path / "ladder.npz"
        small_ladder.save(path)
        rewrite_cache(path, version=np.array(99))
        with pytest.raises(CacheError):
            LadderTable.load(path, ev)

    def test_untampered_rewrite_loads(self, ev, small_ladder, tmp_path):
        # the tampering helper alone does not make a cache unreadable
        path = tmp_path / "ladder.npz"
        small_ladder.save(path)
        rewrite_cache(path)
        assert np.array_equal(LadderTable.load(path, ev).phi, small_ladder.phi)

    def test_15_member_cache_loads_bitwise(self, ev, small_ladder, tmp_path):
        # a cache of the fifteen-member layout loads without a rebuild; its
        # eight extra scalars are not read
        path = tmp_path / "ladder.npz"
        oracles.save_15_member_cache(small_ladder, path)
        with np.load(path) as doc:
            assert len(doc.files) == 15
        again = LadderTable.load(path, ev)
        for key in ("edges", "phi", "coef"):
            assert getattr(again, key).tobytes() == getattr(small_ladder, key).tobytes()
        assert again.residual_total == small_ladder.residual_total
        ts = np.linspace(1000.0, 1090.0, 57)
        assert np.array_equal(again.eval(ts), small_ladder.eval(ts))
        ys = ci_targets(small_ladder)[::20]
        assert [again.invert(y) for y in ys] == [small_ladder.invert(y) for y in ys]

    def test_rejects_shifted_15_member_cache(self, ev, small_ladder, tmp_path):
        # phi and the stored anchor value moved by 1e-9 together keep every
        # step and agree with each other, but the anchor checkpoint no longer
        # holds anchor_t0 - (1 - c) pi(anchor_t0)
        path = tmp_path / "ladder.npz"
        oracles.save_15_member_cache(small_ladder, path, shift=1e-9)
        with pytest.raises(CacheError, match="anchor is not a checkpoint holding"):
            LadderTable.load(path, ev)

    def test_rejects_anchor_outside_prime_pi_domain(self, ev, small_ladder, tmp_path):
        # the ladder moved to 2e8, with the config hash its span gives: no
        # build writes it, and its anchor is a cache error, not a domain one
        path = tmp_path / "ladder.npz"
        small_ladder.save(path)
        edges = small_ladder.edges + (2e8 - 1000.0)
        rewrite_cache(path, edges=edges, config_hash=np.array(ladder_mod.ladder_config_hash(
            ev, edges[0], edges[-1], small_ladder.build_tolerance)))
        with pytest.raises(CacheError, match="ladder cache anchor: prime_pi requires"):
            LadderTable.load(path, ev)
