import itertools
import math

import numpy as np
import pytest

from zladder import (AdmissibilityError, CacheError, ConvergenceError,
                     DomainError, EULER_C,
                     LadderTable, PrimePi, ToleranceNotMetError, ZEvaluator,
                     bessel_j, bessel_norm_sq, bessel_zero, build_ladder,
                     integrate_adaptive, log_stability_check,
                     pushforward_integral, retardation_report, ztilde_sq)

FIRST_ZETA_ZERO = 14.134725141734695


def eval_per_point(table, ts):
    """`LadderTable.eval` as it was before panels shared their first half:
    every point past its panel's midpoint integrates [lo, mid] on its own."""
    flat = np.asarray(ts, dtype=float)
    edges, phi = table.edges, table.phi
    j = np.searchsorted(edges, flat, side="left")
    exact = (j < len(edges)) & (edges[np.minimum(j, len(edges) - 1)] == flat)
    out = np.empty_like(flat)
    out[exact] = phi[j[exact]]
    rest = ~exact
    if np.any(rest):
        t = flat[rest]
        k = np.searchsorted(edges, t, side="right") - 1
        lo, hi = edges[k], edges[k + 1]
        mid = 0.5 * (lo + hi)
        partial = np.empty_like(t)
        first = t <= mid
        if np.any(first):
            partial[first] = table._partial(lo[first], t[first])
        if np.any(~first):
            partial[~first] = (table._partial(lo[~first], mid[~first])
                               + table._partial(mid[~first], t[~first]))
        out[rest] = np.minimum(np.maximum(phi[k] + partial, phi[k]), phi[k + 1])
    return out


def shifted(table, k0):
    """The same ladder with phi_1 moved to 0 at checkpoint k0, so values in
    the panels next to k0 show their partial integrals to the last bits."""
    return LadderTable(
        evaluator=table.evaluator, t_lo=table.t_lo, t_hi=table.t_hi,
        anchor_t0=table.anchor_t0, anchor_value=table.anchor_value, h=table.h,
        build_tolerance=table.build_tolerance, edges=table.edges,
        phi=table.phi - table.phi[k0], base_step_count=table._base_step_count,
        split_base_indices=table._split_base_indices,
        extra_edges=table._extra_edges, residual_total=table.residual_total)


def points_in_panels(table, panels, per_panel, rng):
    """`per_panel` random points in each panel (both halves) plus the panels'
    left checkpoints, shuffled."""
    e = table.edges
    ts = [rng.uniform(e[k], e[k + 1], per_panel) for k in panels]
    ts.append(e[np.asarray(panels)])
    ts = np.concatenate(ts)
    rng.shuffle(ts)
    return ts


class TestPrimePi:
    def test_small_values(self):
        pp = PrimePi.up_to(1000)
        assert pp.count(2) == 1
        assert pp.count(10) == 4
        assert pp.count(100) == 25
        assert pp.count(1000) == 168

    def test_large(self):
        pp = PrimePi.up_to(100000)
        assert pp.count(100000) == 9592

    def test_nondecreasing(self):
        pp = PrimePi.up_to(500)
        counts = pp.count(np.arange(2, 501))
        assert np.all(np.diff(counts) >= 0)

    def test_domain(self):
        pp = PrimePi.up_to(100)
        with pytest.raises(DomainError):
            pp.count(101)
        with pytest.raises(DomainError):
            PrimePi.up_to(1)


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
        pp = PrimePi.up_to(2000)
        expected = small_ladder.anchor_t0 - (1.0 - EULER_C) * pp.count(
            small_ladder.anchor_t0)
        assert small_ladder.anchor_value == expected
        assert small_ladder.eval(small_ladder.anchor_t0) == expected

    def test_default_anchor(self, small_ladder):
        assert small_ladder.anchor_t0 == small_ladder.t_lo + 10.0

    def test_checkpoint_step(self, small_ladder):
        assert np.max(np.diff(small_ladder.edges)) <= 0.05 + 1e-12

    def test_sign_change_panels_were_split(self, ev, small_ladder):
        zeros = ev.zero_scan(1000.0, 1010.0, step=0.05)
        assert len(zeros) > 5
        split_mids = set()
        base = small_ladder._split_base_indices
        assert len(base) > 0

    def test_domain_validation(self, ev):
        with pytest.raises(DomainError):
            build_ladder(ev, 1.0, 100.0)
        with pytest.raises(DomainError):
            build_ladder(ev, 1000.0, 900.0)
        with pytest.raises(DomainError):
            build_ladder(ev, 1000.0, 1100.0, anchor_t0=999.0)
        with pytest.raises(DomainError):
            build_ladder(ev, 1000.0, 1100.0, tol=-1.0)
        with pytest.raises(DomainError):
            build_ladder(ev, 1000.0, 1100.0, h=0.2)

    def test_unreachable_tolerance(self, ev):
        with pytest.raises(ToleranceNotMetError):
            build_ladder(ev, 1000.0, 1001.0, anchor_t0=1000.5, tol=1e-300)

    def test_halving_h_stable(self, ev):
        coarse = build_ladder(ev, 1000.0, 1020.0, anchor_t0=1010.0, tol=1e-9, h=0.05)
        fine = build_ladder(ev, 1000.0, 1020.0, anchor_t0=1010.0, tol=1e-9, h=0.025)
        assert abs(coarse.eval(1020.0) - fine.eval(1020.0)) <= 1e-9

    def test_domain_straddling_rs_threshold(self, ev):
        # the computed Ztilde^2 jumps ~1e-7 where the evaluator switches from
        # the oracle to the Riemann-Siegel path; the seam must sit on a
        # checkpoint edge or no panel could meet its Richardson share
        table = build_ladder(ev, 40.0, 60.0, anchor_t0=47.7, tol=1e-8)
        assert ev.t_min_rs in table.edges
        pts = table.breakpoints(45.0, 55.0)
        assert ev.t_min_rs in pts and np.all(np.diff(pts) > 0.0)
        v = pushforward_integral(table, lambda x: np.ones_like(x), 34.0, 1.0,
                                 tol=1e-9)
        assert abs(v - 1.0) <= 1e-9
        # cache round-trips the seam edge too
        import tempfile, os
        path = tempfile.mktemp(suffix=".json")
        try:
            table.save(path)
            again = LadderTable.load(path, ev)
            assert np.array_equal(again.edges, table.edges)
        finally:
            os.remove(path)

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
    def test_scanned_once_per_interval(self, ev, small_ladder, monkeypatch):
        calls = []
        real = ZEvaluator.zero_scan

        def counting(self, a, b, step=0.05):
            calls.append((a, b))
            return real(self, a, b, step)

        monkeypatch.setattr(ZEvaluator, "zero_scan", counting)
        a, b = 1003.125, 1004.875
        first = small_ladder.breakpoints(a, b)
        again = small_ladder.breakpoints(a, b)
        assert calls == [(a, b)]
        assert again is first
        small_ladder.breakpoints(a, b + 0.5)
        assert len(calls) == 2
        assert np.array_equal(first, real(ev, a, b, step=0.05))
        assert len(first) > 0

    def test_read_only(self, small_ladder):
        pts = small_ladder.breakpoints(1005.5, 1006.5)
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0] = 0.0


class TestEval:
    def test_checkpoints_exact(self, small_ladder):
        idx = np.arange(0, len(small_ladder.edges), 7)
        got = small_ladder.eval(small_ladder.edges[idx])
        assert np.array_equal(got, small_ladder.phi[idx])

    def test_monotone_on_random_pairs(self, small_ladder, rng):
        # 1e5 random pairs, checked as a sorted sweep
        ts = rng.uniform(1000.0, 1090.0, 100000)
        phis = small_ladder.eval(ts)
        order = np.argsort(ts)
        diffs = np.diff(phis[order])
        assert np.all(diffs >= -1e-14)

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
        with pytest.raises(DomainError):
            small_ladder.eval(999.0)
        with pytest.raises(DomainError):
            small_ladder.eval(1090.5)


class TestEvalSharedHeads:
    """One first-half integral per distinct panel gives the bits of one per
    point (the head batch holds the same Z node values, deduplicated)."""

    # the main sum has 12 terms below 2 pi 13^2 ~ 1061.86 and 13 above it
    SEAM = 2.0 * math.pi * 13 ** 2

    def _panels(self, table, lo, hi, count, rng):
        ks = np.nonzero((table.edges[:-1] >= lo) & (table.edges[1:] <= hi))[0]
        return np.sort(rng.choice(ks, count, replace=False))

    @pytest.mark.parametrize("k0", [None, "shift"])
    def test_shared_main_sum_length(self, small_ladder, rng, k0):
        panels = self._panels(small_ladder, 1000.0, 1060.0, 12, rng)
        table = shifted(small_ladder, panels[0]) if k0 else small_ladder
        ts = points_in_panels(table, panels, 40, rng)
        assert np.all(np.floor(np.sqrt(ts / (2.0 * math.pi))) == 12.0)
        assert np.array_equal(table.eval(ts), eval_per_point(table, ts))

    def test_mixed_main_sum_lengths(self, small_ladder, rng):
        # the deduplicated batch keeps its longest main sum, so the bits hold
        # across the length seam too
        panels = np.concatenate([self._panels(small_ladder, 1055.0, self.SEAM, 4, rng),
                                 self._panels(small_ladder, self.SEAM, 1070.0, 4, rng)])
        table = shifted(small_ladder, panels[0])
        ts = points_in_panels(table, panels, 30, rng)
        assert np.array_equal(table.eval(ts), eval_per_point(table, ts))

    @pytest.mark.parametrize("count", [1, 2, 50])
    def test_one_panel(self, small_ladder, count):
        # second-half points of a single panel: the lone head keeps the
        # rounding of the batched per-point heads
        for k in range(300, 340):
            table = shifted(small_ladder, k)
            lo, hi = table.edges[k], table.edges[k + 1]
            ts = np.linspace(0.5 * (lo + hi), hi, count + 2)[1:-1]
            assert np.array_equal(table.eval(ts), eval_per_point(table, ts)), k

    def test_head_integrated_once_per_panel(self, small_ladder, monkeypatch):
        seen = []
        real = ZEvaluator.z

        def counting(self, t):
            seen.append(np.size(t))
            return real(self, t)

        e = small_ladder.edges
        ts = np.concatenate([np.linspace(0.5 * (e[k] + e[k + 1]), e[k + 1], 27)[1:-1]
                             for k in (400, 401, 402, 403, 404)])
        monkeypatch.setattr(ZEvaluator, "z", counting)
        small_ladder.eval(ts)
        assert seen == [7 * 5, 7 * len(ts)]


class TestInvert:
    def test_anchor_roundtrip(self, small_ladder):
        t = small_ladder.invert(small_ladder.anchor_value)
        assert abs(t - small_ladder.anchor_t0) <= 1e-9

    def test_roundtrip_random(self, small_ladder, rng):
        ys = rng.uniform(small_ladder.phi_lo, small_ladder.phi_hi, 100)
        for y in ys:
            t = small_ladder.invert(float(y))
            assert abs(small_ladder.eval(t) - y) <= 1e-10

    def test_checkpoint_targets(self, small_ladder):
        for j in (5, 100, 777):
            assert small_ladder.invert(small_ladder.phi[j]) == small_ladder.edges[j]

    def test_out_of_range(self, small_ladder):
        with pytest.raises(DomainError):
            small_ladder.invert(small_ladder.phi_lo - 1.0)
        with pytest.raises(DomainError):
            small_ladder.invert(small_ladder.phi_hi + 1.0)


class TestInvertMemo:
    @pytest.fixture
    def table(self, ev):
        return build_ladder(ev, 1000.0, 1030.0, tol=1e-9)

    def test_repeat_is_identical_and_free(self, table, monkeypatch):
        y = table.anchor_value + 3.217
        first = table.invert(y)
        calls = []
        real = table.eval
        monkeypatch.setattr(table, "eval", lambda t: calls.append(t) or real(t))
        again = table.invert(y)
        assert again.hex() == first.hex()
        assert calls == []
        many = table.invert(np.array([y, y]))
        assert [v.hex() for v in many.tolist()] == [first.hex()] * 2
        assert calls == []

    def test_raise_is_not_memoized(self, table, monkeypatch):
        y = table.anchor_value + 5.5
        real = table.eval
        flip = itertools.count()

        def noisy(t):   # phi_1 seen through +-1e-9 noise: no t meets 1e-10
            return real(t) + (1e-9 if next(flip) % 2 else -1e-9)

        monkeypatch.setattr(table, "eval", noisy)
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
        pp = PrimePi.up_to(2000)
        assert rows[0].expected == (1.0 - EULER_C) * pp.count(1013.0)

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


class TestCache:
    def test_roundtrip_bitwise(self, ev, small_ladder, tmp_path):
        path = tmp_path / "ladder.json"
        small_ladder.save(path)
        again = LadderTable.load(path, ev)
        assert np.array_equal(again.phi, small_ladder.phi)
        assert np.array_equal(again.edges, small_ladder.edges)
        assert again.anchor_value == small_ladder.anchor_value
        ts = np.linspace(1000.0, 1090.0, 57)
        assert np.array_equal(again.eval(ts), small_ladder.eval(ts))

    def test_rejects_other_evaluator(self, small_ladder, tmp_path):
        path = tmp_path / "ladder.json"
        small_ladder.save(path)
        other = ZEvaluator(rs_correction_order=2)
        with pytest.raises(CacheError):
            LadderTable.load(path, other)

    def test_rejects_corruption(self, ev, small_ladder, tmp_path):
        path = tmp_path / "ladder.json"
        small_ladder.save(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CacheError):
            LadderTable.load(path, ev)

    def test_failed_write_keeps_previous_cache(self, ev, small_ladder, tmp_path,
                                                monkeypatch):
        import json
        path = tmp_path / "ladder.json"
        small_ladder.save(path)
        before = path.read_bytes()

        def half_then_fail(doc, fh, **kw):
            text = json.dumps(doc, **kw)
            fh.write(text[: len(text) // 2])
            raise OSError("simulated full disk")

        monkeypatch.setattr(json, "dump", half_then_fail)
        with pytest.raises(OSError, match="simulated"):
            small_ladder.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ladder.json"]
        again = LadderTable.load(path, ev)
        assert np.array_equal(again.phi, small_ladder.phi)

    @pytest.mark.parametrize("tamper", ["swap_phi", "inf_edge"])
    def test_rejects_tampered_data(self, ev, small_ladder, tmp_path, tamper):
        # the configuration and so the hash are intact; only the data is not
        import json
        path = tmp_path / "ladder.json"
        small_ladder.save(path)
        doc = json.loads(path.read_text())
        if tamper == "swap_phi":
            doc["phi"][10], doc["phi"][11] = doc["phi"][11], doc["phi"][10]
        else:  # one more checkpoint, at t = inf, with a nondecreasing value
            doc["extra_edges"].append(math.inf)
            doc["phi"].append(doc["phi"][-1])
        path.write_text(json.dumps(doc))
        with pytest.raises(CacheError):
            LadderTable.load(path, ev)

    def test_rejects_wrong_version(self, ev, small_ladder, tmp_path):
        import json
        path = tmp_path / "ladder.json"
        small_ladder.save(path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CacheError):
            LadderTable.load(path, ev)
