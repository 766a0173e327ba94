"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The ladder is built once
per session on [1e3, 1.08e5] at tolerance 1e-8 (the upper end is extended
beyond 1e5 + 1e2 so that the preimage of [1e5, 1e5 + 2] exists; phi_1 on the
shared range is the identical construction) and cached under .cache/ to make
reruns cheap (the `big_ladder` fixture of conftest.py).
"""

import json
import math
import time

import numpy as np
import pytest

from zladder import LadderTable, retardation_report
from zladder import verify as V
from zladder.cli import (EXIT_CACHE, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK,
                         EXIT_SOFT, main as cli_main)

from oracles import ln_t_placement_shift, log_stability_check, pushforward_integral

SEED = 20260811


def _announce(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def asymptotic_reports(big_ladder):
    """Criterion 6 job set: E2_2 plus E2_4..E2_10 at T in {1e3, 1e4, 1e5}."""
    t_list = (1e3, 1e4, 1e5)
    t0 = time.perf_counter()
    reports = V.verify_corollary(big_ladder, t_list, 0.0, 4)
    for T in t_list:
        for eq in V.THEOREM2_MEMBERS:
            reports.extend(V.verify_theorem2(big_ladder, T, eq, 4, nu=0.0,
                                             alpha=0.5, beta=0.5))
    return reports, time.perf_counter() - t0


def test_criterion_1_oracle_agreement(ev):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    ts = np.exp(rng.uniform(np.log(1e2), np.log(1e5), 200))
    z_err = float(np.max(np.abs(ev.z_rs(ts) - ev.z_oracle(ts))))
    th_err = float(np.max(np.abs(ev.theta(ts) - ev.theta_oracle(ts))))
    elapsed = time.perf_counter() - t0
    ok = z_err <= 1e-5 and th_err <= 1e-9 and elapsed <= 60.0
    _announce(1, ok, f"max|z_rs - z_oracle| = {z_err:.3e} (<= 1e-5), "
                     f"max|theta - theta_oracle| = {th_err:.3e} (<= 1e-9), "
                     f"{elapsed:.1f}s (<= 60s) over 200 samples in [1e2, 1e5]")
    assert z_err <= 1e-5
    assert th_err <= 1e-9
    assert elapsed <= 60.0


def test_criterion_2_bessel_baseline():
    t0 = time.perf_counter()
    worst_off = worst_diag = 0.0
    for nu in (0.0, 0.5, 1.0):
        for rep in V.verify_bessel_baseline(nu, 6):
            if rep.rhs == 0.0:
                worst_off = max(worst_off, abs(rep.lhs))
            else:
                worst_diag = max(worst_diag, rep.abs_error)
    elapsed = time.perf_counter() - t0
    ok = worst_off <= 1e-9 and worst_diag <= 1e-9 and elapsed <= 60.0
    _announce(2, ok, f"Gram off-diag <= {worst_off:.3e} (1e-9), "
                     f"diag error <= {worst_diag:.3e} (1e-9), {elapsed:.1f}s "
                     f"for nu in {{0, 1/2, 1}}, n,m <= 6")
    assert worst_off <= 1e-9
    assert worst_diag <= 1e-9
    assert elapsed <= 60.0


def test_criterion_3_theorem1_exactness(big_ladder, timings):
    t0 = time.perf_counter()
    worst_off = worst_diag_rel = 0.0
    for T in (5e3, 1e4, 5e4):
        for nu in (0.0, 1.0):
            for rep in V.verify_theorem1(big_ladder, T, nu, 5):
                if rep.equation_id == "E1_3_offdiag":
                    worst_off = max(worst_off, abs(rep.lhs))
                elif rep.equation_id == "E1_3_diag":
                    worst_diag_rel = max(worst_diag_rel, rep.abs_error / rep.rhs)
    elapsed = time.perf_counter() - t0
    total = elapsed + timings.get("build", 0.0)
    ok = worst_off <= 1e-4 and worst_diag_rel <= 1e-4 and total <= 900.0
    _announce(3, ok, f"off-diag |I| <= {worst_off:.3e} (1e-4), diag rel err <= "
                     f"{worst_diag_rel:.3e} (1e-4); build {timings.get('build', 0.0):.0f}s"
                     f" + verify {elapsed:.0f}s <= 900s")
    assert worst_off <= 1e-4
    assert worst_diag_rel <= 1e-4
    assert total <= 900.0


def test_criterion_4_substitution_identity(big_ladder):
    rng = np.random.default_rng(SEED + 4)
    T, U = 1e4, 1.0
    worst = 0.0
    for _ in range(10):
        coeffs = rng.uniform(-1.0, 1.0, 7)

        def f(x):
            u = x - T
            acc = np.zeros_like(u)
            for c in coeffs[::-1]:
                acc = acc * u + c
            return acc

        exact = float(sum(c / (k + 1) for k, c in enumerate(coeffs)))
        got = pushforward_integral(big_ladder, f, T, U, tol=1e-10)
        worst = max(worst, abs(got - exact) / (1.0 + abs(exact)))
    ok = worst <= 1e-7
    _announce(4, ok, f"pushforward vs exact for 10 random degree<=6 polynomials: "
                     f"worst scaled error {worst:.3e} (<= 1e-7)")
    assert worst <= 1e-7


def test_criterion_5_sanity_layer(big_ladder):
    # every member at tol_exact's default of 1e-4, the singular-weight
    # E2_7 and E2_8 too
    T = 5e3
    worst = {}
    for eq in ("E2_5", "E2_6", "E2_7", "E2_8", "E2_9", "E2_10"):
        for rep in V.sanity_theorem2_exact(big_ladder, T, eq, 4, alpha=0.5, beta=0.5):
            worst[eq] = max(worst.get(eq, 0.0), abs(rep.ratio - 1.0))
    ok = max(worst.values()) <= 1e-4
    _announce(5, ok, "exact-substitution ratios at T = 5e3, n <= 4, |ratio-1| <= 1e-4: "
                     + ", ".join(f"{eq} {err:.3e}" for eq, err in worst.items()))
    assert ok


@pytest.mark.parametrize("T", [1e4, 5e4, 7e4, 1e5])
def test_singular_weight_sanity_rows_exact(big_ladder, T):
    # the endpoint-weight members E2_5 and E2_7..E2_10 on the acceptance
    # ladder: exact to 1e-9 and to each row's own error estimate
    worst = 0.0
    for eq in ("E2_5", "E2_7", "E2_8", "E2_9", "E2_10"):
        for rep in V.sanity_theorem2_exact(big_ladder, T, eq, 4, alpha=0.5, beta=0.5):
            worst = max(worst, abs(rep.ratio - 1.0))
            assert abs(rep.lhs - rep.rhs) <= rep.quadrature_error, (eq, rep.params)
    assert worst <= 1e-9


@pytest.mark.parametrize("alpha,beta", [(-0.9, -0.9), (-0.75, 0.3), (-0.6, 0.5), (-0.5, 0.3),
                                        (0.3, -0.4), (0.3, -0.1), (0.5, 0.5), (2.0, 3.0)])
def test_jacobi_exponent_sweep_at_1e5(big_ladder, alpha, beta):
    reports = V.sanity_theorem2_exact(big_ladder, 1e5, "E2_5", 4, alpha=alpha, beta=beta)
    assert all(abs(r.ratio - 1.0) <= 1e-9 for r in reports)


def test_criterion_6_asymptotic_layer(asymptotic_reports):
    reports, elapsed = asymptotic_reports
    at_1e5 = [r for r in reports if r.params["T"] == 1e5]
    worst = max(abs(r.ratio - 1.0) for r in at_1e5)
    groups: dict = {}
    for r in reports:
        key = (r.equation_id, r.params.get("nu"), r.params.get("alpha"),
               r.params.get("beta"), r.params.get("n"))
        groups.setdefault(key, []).append(r)
    judged = sum(1 for rows in groups.values() if len(rows) == 3)
    passed = 0
    for rows in groups.values():
        if len(rows) != 3:
            continue
        rows.sort(key=lambda r: r.params["T"])
        passed += V.ratio_trend_nonincreasing(rows)
    frac = passed / judged
    ok = worst <= 0.25 and frac >= 0.8 and elapsed <= 1800.0
    _announce(6, ok, f"|ratio-1| at T=1e5 <= {worst:.3e} (0.25); trend "
                     f"nonincreasing for {passed}/{judged} pairs "
                     f"({100 * frac:.0f}% >= 80%); {elapsed:.0f}s (<= 1800s)")
    assert worst <= 0.25
    assert frac >= 0.8
    assert elapsed <= 1800.0


def test_criterion_7_structure_diagnostics(big_ladder, asymptotic_reports):
    reports, _ = asymptotic_reports
    # E1_4 segment distance at T = 1e5
    t1_reports = V.verify_theorem1(big_ladder, 1e5, 0.0, 1)
    e14 = [r for r in t1_reports if r.equation_id == "E1_4"][0]
    dist_ok = 0.9 <= e14.ratio <= 1.1

    # ln-T placement shift for the corollary row at T = 1e5
    cor = [r for r in reports if r.equation_id == "E2_2"
           and r.params["T"] == 1e5 and r.params["n"] == 1][0]
    a = big_ladder.invert(1e5)
    b = big_ladder.invert(1e5 + 1.0)
    shift = ln_t_placement_shift(cor.ratio, 1e5, (a, b))
    shift_ok = shift <= 2.0 / math.log(1e5)

    rows = retardation_report(big_ladder,
                              np.linspace(big_ladder.anchor_t0,
                                          big_ladder.anchor_t0 + 1e4, 11))
    anchor_ok = abs(rows[0].ratio - 1.0) <= 1e-12
    drift_ok = all(0.5 <= r.ratio <= 2.0 for r in rows)

    ok = dist_ok and shift_ok and anchor_ok and drift_ok
    _announce(7, ok, f"E1_4 distance ratio {e14.ratio:.4f} in [0.9, 1.1]; "
                     f"ln-T shift {shift:.4f} <= {2.0 / math.log(1e5):.4f}; "
                     f"retardation anchor ratio 1 (err {abs(rows[0].ratio - 1.0):.1e}), "
                     f"drift within [0.5, 2.0]")
    assert dist_ok and shift_ok and anchor_ok and drift_ok


def test_inverse_tracks_identity(big_ladder):
    """Supporting diagnostic: phi_1^{-1}(T)/T stays near 1.

    With the Z^2/ln t derivative model the lag at T = 1e4 is ~8.6% (the
    asymptotic drift constant is ln(2pi) - 2*EulerGamma ~ 0.683 rather than
    1 - EulerGamma ~ 0.423), shrinking to ~6.9% at T = 1e5.
    """
    r4 = big_ladder.invert(1e4) / 1e4
    r5 = big_ladder.invert(1e5) / 1e5
    assert 1.0 < r4 < 1.10
    assert 1.0 < r5 < r4


def test_log_stability_bounded_and_improving(big_ladder):
    """Supporting diagnostic: max |ln xi - ln T| over the preimage of [T, T+1].

    Bounded and decreasing from 1e4 to 1e5.  (It is *not* monotone from 1e3
    on: with the Z^2/ln t derivative model the anchor normalization offsets
    the lag at small T; measured values are ~0.078, 0.083, 0.067.)
    """
    vals = {T: log_stability_check(big_ladder, T) / math.log(T)
            for T in (1e3, 1e4, 1e5)}
    assert all(v <= 0.1 for v in vals.values())
    assert vals[1e5] < vals[1e4]


def test_criterion_8_engineering(big_ladder, ev, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZLADDER_CACHE_ROOT", str(tmp_path / "cache"))

    # cache round-trip bit-stability on the acceptance ladder
    path = tmp_path / "big.npz"
    big_ladder.save(path)
    again = LadderTable.load(path, ev)
    probe = np.linspace(big_ladder.t_lo, big_ladder.t_hi, 401)
    bits_ok = (np.array_equal(again.phi, big_ladder.phi)
               and np.array_equal(again.edges, big_ladder.edges)
               and np.array_equal(again.eval(probe), big_ladder.eval(probe)))

    # identical configs -> byte-identical reports
    args = ["--t-lo", "1000", "--t-hi", "1090", "--tol", "1e-9",
            "--T", "1000", "--max-n", "1"]
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    rc1 = cli_main(["verify", "sanity", *args, "--out", str(out1)])
    rc2 = cli_main(["verify", "sanity", *args, "--out", str(out2)])
    bytes_ok = rc1 == rc2 == EXIT_OK and out1.read_bytes() == out2.read_bytes()

    # documented exit codes on the failure paths
    rc_config = cli_main(["verify", "theorem2", "--t-lo", "1000", "--t-hi", "1090",
                          "--tol", "1e-9", "--T", "90000", "--max-n", "1",
                          "--out", "-"])
    rc_soft = cli_main(["verify", "theorem2", "--t-lo", "1000", "--t-hi", "1090",
                        "--tol", "1e-9", "--T", "1000", "--max-n", "1",
                        "--tol-ratio", "1e-9", "--out", str(tmp_path / "soft.jsonl")])
    rc_numeric = cli_main(["ladder", "build", "--t-lo", "1000", "--t-hi", "1001",
                           "--tol", "1e-300"])
    capsys.readouterr()
    assert cli_main(["ladder", "build", "--t-lo", "1000", "--t-hi", "1090",
                     "--tol", "1e-9"]) == EXIT_OK
    cache_file = json.loads(capsys.readouterr().out)["cache"]
    with open(cache_file, "w") as fh:
        fh.write("{corrupt")
    rc_cache = cli_main(["ladder", "query", "--t-lo", "1000", "--t-hi", "1090",
                         "--tol", "1e-9", "--t", "1010"])
    codes_ok = (rc_config == EXIT_CONFIG and rc_cache == EXIT_CACHE
                and rc_numeric == EXIT_NUMERIC and rc_soft == EXIT_SOFT)

    ok = bits_ok and bytes_ok and codes_ok
    _announce(8, ok, f"cache bit-stable: {bits_ok}; identical configs byte-identical: "
                     f"{bytes_ok}; exit codes (64={rc_config}, 65={rc_cache}, "
                     f"70={rc_numeric}, 2={rc_soft})")
    assert bits_ok
    assert bytes_ok
    assert codes_ok
