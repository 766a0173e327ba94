"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import child
import run
import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_LADDER = ["--t-lo", "1000", "--t-hi", "1200", "--tol", "1e-8"]
TINY = {
    "build": {"band_lo": 1000.0, "band_width": 10.0, "width": 20.0, "tol": 1e-8,
              "setups": 1, "pass_s": 1.0, "min_passes": 1},
    "query": {"t_lo": 1000.0, "t_hi": 1030.0, "tol": 1e-8, "eval_points": 50,
              "inverts": 5, "setups": 1, "pass_s": 1.0, "min_passes": 1},
    "plan": {"ladder": TINY_LADDER,
             "args": ["run", *TINY_LADDER, "--T", "1050", "--max-n", "1", "--nu", "0",
                      "--equations", "baseline", "theorem1", "theorem2", "sanity"],
             "rows": 17, "setups": 1, "pass_s": 1.0, "min_passes": 1},
}


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.SIZES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracer.PER_LAYER


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = run.run_workload(name, seed=3, seconds=0.1, trace=trace, size=TINY[name])
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: result["units"][k] for k in result["metrics"]}
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    if name == "query":
        assert result["correct"], result["errors"]
    else:
        assert result["correct"] == (result["failed"] == 0), result["errors"]
    if trace:
        assert result["metrics"]["trace.counter_mismatches"] == 0
    else:
        assert all(result["metrics"][k] > 0 for k in run.E2E_UNITS)
    assert not (ROOT / ".bench_tmp").exists()


def test_same_arguments_give_the_same_work():
    size = TINY["query"]
    first, second = (run.run_workload("query", seed=4, seconds=2.0, trace=False, size=size)
                     for _ in range(2))
    assert first["attempted"] == second["attempted"] == 2 * (1 + size["inverts"])
    assert first["failed"] == second["failed"]


def test_speedometer_subtracts_its_own_time_and_scales_to_reference():
    meter = speed.Speedometer()
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    meter.start()
    try:
        while time.perf_counter() < t0 + 0.4:
            sum(range(1000))
    finally:
        meter.stop()
    t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(meter.times) >= 3
    work = meter.work(t0, t1)
    assert work == pytest.approx((t1 - t0) - sum(meter.times), abs=1e-9)
    assert meter.ref(work, t0, t1) == pytest.approx(
        work * speed.REF_NOMINAL_S / statistics.fmean(meter.times))
    # a machine half as fast doubles the work and the reference alike
    nominal = speed.REF_NOMINAL_S
    assert speed.to_ref(4.0, [2 * nominal, 2 * nominal]) == pytest.approx(2.0)
    assert speed.to_ref(2.0, [nominal]) == pytest.approx(2.0)
    assert speed.to_ref(2.0, []) == 2.0
    assert speed.Speedometer().work(t0, t1) == t1 - t0


@pytest.fixture(scope="module")
def tiny_ladder(tmp_path_factory):
    from zladder import ZEvaluator, build_ladder

    path = tmp_path_factory.mktemp("ladder") / "tiny.json"
    build_ladder(ZEvaluator(), 1000.0, 1030.0, tol=1e-8).save(path)
    return path


def _query(path, invert=None):
    spec = {"seed": 5, "passes": 1, "ladder": str(path), "size": TINY["query"]}
    return child.run_query(spec, contextlib.nullcontext, invert=invert)


def test_tampered_inverse_is_counted(tiny_ladder):
    from zladder import LadderTable, ZEvaluator

    clean = _query(tiny_ladder)
    assert clean["failed"] == 0

    moved = []

    def tampered(table, y):
        t = table.invert(y) + 1e-9
        moved.append(abs(table.eval(t) - y) > 1e-10)
        return t

    result = _query(tiny_ladder, invert=tampered)
    assert sum(moved) >= 1
    assert result["failed"] == sum(moved)
    assert result["passes"][0]["missed"] == sum(moved)

    table = LadderTable.load(tiny_ladder, ZEvaluator())
    y = float(table.eval(1015.0))
    assert tracer.invert_residuals(table, y, 1015.0) <= tracer.INVERT_CONTRACT
    assert tracer.invert_residuals(table, y + 1e-9, 1015.0) > tracer.INVERT_CONTRACT


def test_broken_ladder_fails_the_build_check(tiny_ladder):
    from zladder import LadderTable, ZEvaluator

    table = LadderTable.load(tiny_ladder, ZEvaluator())
    assert child.check_build(table, 1e-8) == []
    table.phi[5] = table.phi[4] - 1e-9
    assert child.check_build(table, 1e-8) == ["phi decreasing"]
    table.residual_total = 2e-8
    assert len(child.check_build(table, 1e-8)) == 2


def test_plan_check_counts_missing_and_flagged_rows(tmp_path):
    report = tmp_path / "r.jsonl"
    report.write_text('{"equation_id": "E1_2"}\n' * 3)
    ok = run.check_plan(0, report, "wrote 3 report rows\n", rows=3)
    assert ok["ok"] and ok["failed"] == 0
    short = run.check_plan(0, report, "", rows=4)
    assert not short["ok"] and short["failed"] == 1
    flagged = run.check_plan(2, report, "FAIL E2_4 {}: ratio\n", rows=3)
    assert not flagged["ok"] and flagged["failed"] == 1


def _module_state():
    import zladder

    state = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "zladder":
            state.update({(name, k): v for k, v in vars(module).items()})
    for cls in (zladder.ZEvaluator, zladder.LadderTable):
        state.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return state


def test_tracer_restores_module_state_and_leaves_results_alone(tiny_ladder):
    import zladder
    import zladder.cli  # noqa: F401  (every module the tracer patches is loaded)
    import zladder.verify
    from zladder import LadderTable, ZEvaluator

    ts = np.linspace(1001.0, 1029.0, 33)
    plain = LadderTable.load(tiny_ladder, ZEvaluator()).eval(ts)
    before = _module_state()

    t = tracer.Tracer()
    t.install()
    try:
        assert zladder.verify.integrate_adaptive is not before[
            ("zladder.verify", "integrate_adaptive")]
        assert vars(LadderTable)["load"] is not before[("LadderTable", "load")]
        traced = LadderTable.load(tiny_ladder, ZEvaluator()).eval(ts)
    finally:
        t.uninstall()

    after = _module_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert np.array_equal(plain, traced)
    metrics = tracer.summarize(t.spans, t.counts)
    assert metrics["ladder.eval_points"] == len(ts)
    assert metrics["rszeta.z_points"] > 0 and metrics["ladder.load_s"] > 0


def test_self_time_excludes_children():
    spans = [["cli.main", 0.0, 10.0, -1, 0],
             ["verify.sanity", 1.0, 9.0, 0, 0],
             ["quadrature.singular", 2.0, 8.0, 1, 0],
             ["verify.integrand", 3.0, 7.0, 2, 40],
             ["rszeta.z", 4.0, 6.0, 3, 40]]
    m = tracer.summarize(spans, {"verify.sanity_rows": 1})
    assert m["cli.main_self_s"] == 2.0
    assert m["verify.sanity_s"] == 8.0
    assert m["quadrature.singular_self_s"] == 2.0
    assert m["quadrature.singular_points"] == 40
    assert m["rszeta.z_self_s"] == 2.0
    assert m["verify.self_s"] == 4.0   # family self (2) + integrand self (2)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "build",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
