"""One timed or traced run of a benchmark workload, in its own process.

    python bench/child.py SPEC.json

`bench/run.py` writes SPEC.json and starts this script with the thread
variables pinned to 1 and `ZLADDER_CACHE_ROOT` inside its work directory.
The script draws its inputs from the spec's seed, hands zladder only the
generated numbers, checks every output, and writes a JSON result to
`spec["out"]`.  With `spec["trace"]` set it installs the tracer first and
writes the spans to `spec["trace_out"]` when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time

import numpy as np

from speed import Speedometer
from tracer import INVERT_CONTRACT, Tracer, invert_residuals


def check_build(table, tol: float) -> list[str]:
    """Problems with a built ladder; empty when it meets its contract."""
    problems = []
    if not table.residual_total <= tol:
        problems.append(f"residual_total {table.residual_total!r} > tol {tol!r}")
    if len(table.edges) != len(table.phi):
        problems.append("edges and phi differ in length")
    elif not np.all(np.diff(table.edges) > 0.0):
        problems.append("edges not strictly increasing")
    elif not np.all(np.diff(table.phi) >= 0.0):
        problems.append("phi decreasing")
    return problems


def run_build(spec: dict, quiet, meter: Speedometer | None = None) -> dict:
    """`spec["passes"]` cold certified builds on seeded t_lo, each followed
    by `save`; each pass's time is measured with `meter`."""
    from zladder import ZEvaluator, ZladderError
    import zladder.ladder as L

    size = spec["size"]
    rng = np.random.default_rng(spec["seed"])
    path = os.path.join(spec["workdir"], "build-ladder.json")
    meter = meter or Speedometer()
    passes, errors = [], []
    for _ in range(spec["passes"]):
        t_lo = size["band_lo"] + size["band_width"] * rng.random()
        t_hi = t_lo + size["width"]
        t0 = time.perf_counter()
        try:
            table = L.build_ladder(ZEvaluator(), t_lo, t_hi, tol=size["tol"])
            table.save(path)
        except ZladderError as exc:
            problems = [f"raised {exc!r}"]
        else:
            problems = None
        t1 = time.perf_counter()
        work = meter.work(t0, t1)
        if problems is None:
            with quiet():
                problems = check_build(table, size["tol"])
        errors.extend(f"build at t_lo={t_lo!r}: {p}" for p in problems)
        passes.append({"t_lo": t_lo, "wall_s": work, "ref_s": meter.ref(work, t0, t1),
                       "ok": not problems})
    failed = sum(not p["ok"] for p in passes)
    return {"passes": passes, "attempted": len(passes), "failed": failed,
            "gross": [], "errors": errors}


def check_eval(table, ts, phi) -> list[str]:
    """Gross problems with one eval batch: values must be finite, inside
    [phi_lo, phi_hi] and nondecreasing in t."""
    order = np.argsort(ts, kind="stable")
    problems = []
    if not np.all(np.isfinite(phi)):
        problems.append("eval returned non-finite values")
    elif np.any(phi < table.phi_lo) or np.any(phi > table.phi_hi):
        problems.append("eval left [phi_lo, phi_hi]")
    elif np.any(np.diff(phi[order]) < 0.0):
        problems.append("eval not monotone in t")
    return problems


def stratified(rng, lo: float, hi: float, passes: int, n: int) -> np.ndarray:
    """`passes` rows of n uniform draws on [lo, hi): one draw in each of
    passes * n equal strata, dealt to the passes in random order.  Each draw
    is uniform, and the run covers the interval evenly.  The inversions that
    raise cluster in y and cost ten times the others, so plain uniform draws
    would make a run's time depend on how many clusters its seed hits."""
    m = passes * n
    u = (np.arange(m) + rng.random(m)) / m
    return rng.permutation(lo + (hi - lo) * u).reshape(passes, n)


def run_query(spec: dict, quiet, meter: Speedometer | None = None, invert=None,
              residual=invert_residuals) -> dict:
    """`spec["passes"]` passes of load, one batched eval and scalar inverts
    on a fixed ladder; each time is measured with `meter`.

    `invert(table, y)` defaults to `table.invert(y)`; the benchmark's tests
    pass a tampered one to show that a wrong inverse is counted.
    `residual(table, y, t)` gives |phi_1(t) - y| for the inverse just made.
    """
    from zladder import ConvergenceError, LadderTable, ZEvaluator, ZladderError

    size = spec["size"]
    invert = invert or (lambda table, y: table.invert(y))
    meter = meter or Speedometer()
    rng = np.random.default_rng(spec["seed"])
    with quiet():   # untimed and untraced warm-up, which also gives the ranges
        first = LadderTable.load(spec["ladder"], ZEvaluator())
    all_ts = stratified(rng, first.t_lo, first.t_hi, spec["passes"], size["eval_points"])
    all_ys = stratified(rng, first.phi_lo, first.phi_hi, spec["passes"], size["inverts"])
    passes, gross, errors = [], [], []
    for ts, ys in zip(all_ts, all_ys):
        started = t0 = time.perf_counter()
        table = LadderTable.load(spec["ladder"], ZEvaluator())
        load_s = meter.work(t0, time.perf_counter())

        t0 = time.perf_counter()
        try:
            phi = table.eval(ts)
            eval_s = meter.work(t0, time.perf_counter())
            eval_failed = 0
            with quiet():
                gross.extend(check_eval(table, ts, np.asarray(phi)))
        except ZladderError as exc:
            eval_s = meter.work(t0, time.perf_counter())
            eval_failed = 1
            errors.append(f"eval raised {exc!r}")

        latencies, raised, missed = [], 0, 0
        for y in ys:
            y = float(y)
            t0 = time.perf_counter()
            try:
                t = invert(table, y)
            except ConvergenceError as exc:
                latencies.append(meter.work(t0, time.perf_counter()))
                raised += 1
                errors.append(f"invert({y!r}) raised {exc}")
                continue
            latencies.append(meter.work(t0, time.perf_counter()))
            with quiet():
                if not table.t_lo <= t <= table.t_hi:
                    gross.append(f"invert({y!r}) = {t!r} outside the ladder domain")
                    continue
                resid = float(residual(table, y, t))
                if not resid <= INVERT_CONTRACT:
                    missed += 1
                    errors.append(f"invert({y!r}) = {t!r} misses |phi - y| <= 1e-10 "
                                  f"by {resid:.3e}")
        work = load_s + eval_s + sum(latencies)
        passes.append({"load_s": load_s, "eval_s": eval_s, "eval_points": len(ts),
                       "invert_s": latencies, "raised": raised, "missed": missed,
                       "eval_failed": eval_failed, "wall_s": work,
                       "ref_s": meter.ref(work, started, time.perf_counter())})
    attempted = sum(1 + len(p["invert_s"]) for p in passes)
    failed = sum(p["eval_failed"] + p["raised"] + p["missed"] for p in passes)
    return {"passes": passes, "attempted": attempted, "failed": failed,
            "gross": gross, "errors": errors}


def run_plan(spec: dict, quiet, meter=None) -> dict:
    """The fixed CLI plan through `zladder.cli.main`, in this process."""
    import io

    from zladder import cli

    report = os.path.join(spec["workdir"], spec["report"])
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main([*spec["size"]["args"], "--out", report])
    return {"exit_code": code, "stderr": stderr.getvalue()}


RUNNERS = {"build": run_build, "query": run_query, "plan": run_plan}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer() if spec["trace"] else None
    quiet = tracer.paused if tracer else contextlib.nullcontext
    meter = Speedometer()
    extra = {}
    if spec.get("metered"):
        meter.start()
    if tracer:
        tracer.install()
        if spec["workload"] == "query":
            # the invert hook has already checked each inverse against the contract
            extra["residual"] = lambda table, y, t: tracer.last["ladder.invert"]
    try:
        result = RUNNERS[spec["workload"]](spec, quiet, meter, **extra)
    finally:
        if spec.get("metered"):
            meter.stop()
        if tracer:
            tracer.uninstall()
    if tracer:
        report = os.path.join(spec["workdir"], spec["report"])
        if spec["workload"] == "plan" and os.path.exists(report):
            tracer.counts["cli.report_bytes"] = os.path.getsize(report)
        t0 = time.perf_counter()
        tracer.dump(spec["trace_out"])
        result["trace_write_s"] = time.perf_counter() - t0
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
