"""zladder benchmark: seeded workloads against the public API and the CLI.

    python3 bench/run.py --workload {build,query,plan,all} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports zladder from `src/`.  Each
timed or traced run happens in one child process at a time, with the BLAS
and OpenMP thread variables set to 1 and every zladder cache inside a
temporary directory under `.bench_tmp/`, which is removed afterwards.

Workloads (the seed draws every input; zladder sees only the numbers):

* build - cold `build_ladder(ZEvaluator(), t_lo, t_lo + 500, tol=1e-8)` then
  `LadderTable.save`, with t_lo drawn in [99000, 99500), where the
  Riemann-Siegel main sum has ~126 terms.  The write path: mostly Z main
  sums on large node batches, no specfun, quadrature or verify code.
* query - set-up builds one fixed ladder on [99500, 1e5] with the CLI; each
  pass loads it, evaluates a batch of uniform t in one `eval` call and
  inverts uniform y in [phi_lo, phi_hi] with one scalar `invert` call each
  (the draws of a run are stratified, see `child.stratified`).
  The read path: many small Z calls.  Every inverse is rechecked against
  the documented |phi_1(t) - y| <= 1e-10; raises and silent misses are
  counted as failed operations, not hidden.
* plan - the paper's fixed plan, a fresh `python -m zladder.cli run` process
  per pass with its ladder cache prebuilt by set-up.  The seed is unused.
  The only workload that runs verify, quadrature, specfun and zero_scan.

With `--trace 0` the run reports the end-to-end metrics; the last line of
stdout is a JSON object with `correct`, `attempted`, `failed` and `metrics`
(`setup_s`, `wall_s`, `peak_rss_mb`), and the lines before it are a table of
every end-to-end metric of the workload with unit, sample count, median and
the highest percentile that has at least ten samples beyond it.  A run does
a fixed amount of work, round(seconds / pass_s) passes of the workload, so
the same seed and seconds give the same operations and the same failures.
Every timed child runs a speedometer (`bench/speed.py`) that samples the
machine's speed while zladder works; `setup_s` (the median set-up) and
`wall_s` (the mean pass, so every input of the run counts: on `query` the
few inversions that raise cost ten times the others) are in reference
seconds, the time at the reference speed, so the shared machine's drift
cancels out of them.  The table also gives the machine's own seconds
(`machine.setup_s`, `build_s`, `pass_s`, `plan_s` and the query timings),
less the time the speedometer itself ran.

With `--trace 1` the run makes a fixed amount of work (one build, one query
pass, one plan) untraced and traced by turns, twice each, each in a fresh
interpreter, and reports the per-layer metrics of `tracer.PER_LAYER`: counts
and self times of the rszeta, specfun, quadrature, ladder, verify and cli
layers, the tracing overhead and the number of deterministic counters that
differ between the two traced runs.  The overhead is the median of the
traced-minus-untraced wall times of the pairs (untraced, traced), run one
after the other; the machine's own drift between two runs is of the same
order, so a value within a few percent of the wall time, negative ones
included, means no measurable overhead.

`correct` is false when a build or the plan fails any check, or when a query
pass returns a grossly wrong answer (a non-finite, out-of-range or
non-monotone `eval`, an inverse outside the ladder).  Inversion contract
misses on `query` are a known defect of the program; they count in `failed`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from speed import to_ref
from tracer import DETERMINISTIC, PER_LAYER, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
DEADLINE_S = 170.0   # every run must end within 180 s

PLAN_LADDER = ["--t-lo", "1000", "--t-hi", "7000", "--tol", "1e-8"]
# pass_s: the nominal time of one pass; a run makes round(seconds / pass_s)
# passes, at least min_passes, so the same arguments give the same work
SIZES = {
    "build": {"band_lo": 99000.0, "band_width": 500.0, "width": 500.0, "tol": 1e-8,
              "setups": 9, "pass_s": 1.0, "min_passes": 3},
    "query": {"t_lo": 99500.0, "t_hi": 100000.0, "tol": 1e-8,
              "eval_points": 2000, "inverts": 300,
              "setups": 3, "pass_s": 3.0, "min_passes": 3},
    "plan": {"ladder": PLAN_LADDER,
             "args": ["run", *PLAN_LADDER, "--T", "1500", "3000", "6000", "--max-n", "4"],
             "rows": 242, "setups": 3, "pass_s": 24.0, "min_passes": 1},
}

# end-to-end metrics of BENCHMARK.json, reported on every workload
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class HarnessError(Exception):
    """A set-up or benchmark child process failed, so nothing was measured."""


@dataclass
class Proc:
    """A finished child.  `wall_s` is its wall time less the reference time
    its speedometer ran, and `ref_s` that time in reference seconds; both
    are the plain wall time when the child ran no speedometer."""
    code: int
    wall_s: float
    rss_mb: float
    stderr: str
    ref_s: float = 0.0

    def __post_init__(self):
        self.ref_s = self.ref_s or self.wall_s


class Run:
    """One benchmark run: its work directory, child environment and deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("ZLADDER_TEST_CACHE", None)
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
                        ZLADDER_CACHE_ROOT=str(work / "cache"))
        self._n = 0

    def spawn(self, argv: list[str]) -> Proc:
        """Run a child to completion (killed at the deadline) and measure it."""
        self._n += 1
        err_path = self.work / f"child{self._n}.err"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [],
                                            max(0.0, self.deadline - time.monotonic()))
                if not ready:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(code=proc.returncode, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                    stderr=err_path.read_text(errors="replace"))

    def metered(self, mode: str, module: str, *args: str) -> Proc:
        """`python -m MODULE ARGS` (mode "-m") or an import of MODULE (mode
        "-i") under the speedometer of `bench/metered.py`."""
        self._n += 1
        out = self.work / f"meter{self._n}.json"
        proc = self.spawn([sys.executable, str(BENCH / "metered.py"), str(out),
                           mode, module, *args])
        if out.exists():
            meter = json.loads(out.read_text())
            proc.wall_s -= meter["spent_s"]
            proc.ref_s = to_ref(proc.wall_s, meter["unit_times"])
        return proc

    def child(self, workload: str, spec: dict) -> tuple[Proc, dict]:
        """`bench/child.py` on a spec; returns the process and its result."""
        self._n += 1
        tag = f"{workload}{self._n}"
        spec = {**spec, "workload": workload, "workdir": str(self.work),
                "out": str(self.work / f"{tag}.result.json"),
                "trace_out": str(self.work / f"{tag}.spans.json"),
                "report": f"{tag}.report.jsonl"}
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        proc = self.spawn([sys.executable, str(BENCH / "child.py"), str(spec_path)])
        if proc.code != 0:
            return proc, {"crashed": proc.stderr[-2000:]}
        result = json.loads(Path(spec["out"]).read_text())
        result["spec"] = spec
        return proc, result


# ---------------------------------------------------------------------------
# workloads

def setup_args(name: str, size: dict, run: Run) -> list[str]:
    """Arguments of `bench/metered.py` for one set-up of the workload."""
    if name == "build":
        return ["-i", "zladder.cli"]
    if name == "query":
        return ["-m", "zladder.cli", "ladder", "build", "--t-lo", repr(size["t_lo"]),
                "--t-hi", repr(size["t_hi"]), "--tol", repr(size["tol"]),
                "--cache", str(run.work / "query-ladder.json"), "--rebuild"]
    return ["-m", "zladder.cli", "ladder", "build", *size["ladder"], "--rebuild"]


def set_up(name: str, size: dict, run: Run, times: int) -> list[Proc]:
    procs = []
    for _ in range(times):
        proc = run.metered(*setup_args(name, size, run))
        if proc.code != 0:
            raise HarnessError(f"{name} set-up exited {proc.code}: {proc.stderr[-2000:]}")
        procs.append(proc)
    return procs


def check_plan(code: int, report: Path, stderr: str, rows: int) -> dict:
    """Rows missing or flagged by a FAIL line count as failed."""
    text = report.read_bytes() if report.exists() else b""
    good = 0
    for line in text.decode(errors="replace").splitlines():
        try:
            good += isinstance(json.loads(line).get("equation_id"), str)
        except (ValueError, AttributeError):
            pass
    flagged = [line for line in stderr.splitlines() if line.startswith("FAIL ")]
    failed = max(0, rows - good) + len(flagged)
    return {"attempted": rows, "failed": failed, "rows": good, "flagged": flagged,
            "sha256": hashlib.sha256(text).hexdigest(),
            "ok": code == 0 and failed == 0 and good == rows}


def plan_cli(size: dict, run: Run, metered: bool) -> tuple[Proc, dict]:
    """One fresh `python -m zladder.cli run` process, under the speedometer
    when `metered`."""
    report = run.work / "plan-report.jsonl"
    report.unlink(missing_ok=True)
    args = [*size["args"], "--out", str(report)]
    if metered:
        proc = run.metered("-m", "zladder.cli", *args)
    else:
        proc = run.spawn([sys.executable, "-m", "zladder.cli", *args])
    return proc, check_plan(proc.code, report, proc.stderr, size["rows"])


def passes(size: dict, seconds: float) -> int:
    return max(size["min_passes"], round(seconds / size["pass_s"]))


def child_spec(name: str, size: dict, run: Run, seed: int) -> dict:
    spec = {"seed": seed, "size": size}
    if name == "query":
        spec["ladder"] = str(run.work / "query-ladder.json")
    return spec


# ---------------------------------------------------------------------------
# statistics and output

def percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg": "/".join(f"{x:.2f}" for x in os.getloadavg())}


def row(name: str, unit: str, samples: list[float], q: int = 50) -> tuple:
    """A table row: the q-th percentile (50 = median) of the samples, their
    count, and the highest percentile with at least ten samples beyond it."""
    value = (statistics.median(samples) if q == 50
             else statistics.quantiles(samples, n=100, method="inclusive")[q - 1])
    pct = percentile(samples)
    return name, unit, len(samples), value, f"p{pct[0]}={pct[1]:.6g}" if pct else "-"


def table_lines(rows: list[tuple]) -> list[str]:
    lines = [f"  {'metric':<36}{'unit':<7}{'n':>6}  {'value':<14}percentile"]
    for name, unit, n, value, pct in rows:
        lines.append(f"  {name:<36}{unit:<7}{n:>6}  {value:<14.6g}{pct}")
    return lines


# ---------------------------------------------------------------------------
# the two kinds of run

def timed_run(name: str, seed: int, seconds: float, run: Run, size: dict) -> dict:
    setup = set_up(name, size, run, size["setups"])
    n_passes = passes(size, seconds)
    notes, errors = [], []
    if name == "plan":
        walls, refs, rss, attempted, failed, correct, shas = [], [], [], 0, 0, True, set()
        for _ in range(n_passes):
            if walls and time.monotonic() + 1.5 * max(walls) > run.deadline:
                notes.append(f"stopped after {len(walls)} of {n_passes} passes: deadline")
                break
            proc, check = plan_cli(size, run, metered=True)
            walls.append(proc.wall_s)
            refs.append(proc.ref_s)
            rss.append(proc.rss_mb)
            attempted += check["attempted"]
            failed += check["failed"]
            correct &= check["ok"]
            shas.add(check["sha256"])
            errors.extend(check["flagged"])
            if proc.code != 0:
                errors.append(f"plan exited {proc.code}: {proc.stderr[-500:]}")
        notes.append(f"plan report sha256={','.join(sorted(shas))} rows={check['rows']}")
        if len(shas) > 1:
            correct = False
            errors.append("plan reports differ between passes")
        rows = [row("plan_s", "s", walls)]
        peak = max(rss)
    else:
        spec = {**child_spec(name, size, run, seed), "passes": n_passes,
                "trace": False, "metered": True}
        proc, result = run.child(name, spec)
        if "crashed" in result:
            raise HarnessError(f"{name} child exited {proc.code}: {result['crashed']}")
        done = result["passes"]
        walls = [p["wall_s"] for p in done]
        refs = [p["ref_s"] for p in done]
        attempted, failed = result["attempted"], result["failed"]
        errors.extend(result["gross"] + result["errors"])
        peak = proc.rss_mb
        if name == "build":
            correct = failed == 0
            rows = [row("build_s", "s", walls)]
        else:
            correct = not result["gross"]
            invert_ms = [1e3 * x for p in done for x in p["invert_s"]]
            rows = [row("pass_s", "s", walls),
                    row("load_s", "s", [p["load_s"] for p in done]),
                    row("eval_pts_per_s", "pts/s",
                        [p["eval_points"] / p["eval_s"] for p in done]),
                    row("invert_p50_ms", "ms", invert_ms),
                    row("invert_p95_ms", "ms", invert_ms, q=95)]
            if len(invert_ms) < 200:
                notes.append(f"invert_p95_ms has fewer than ten samples beyond it "
                             f"({len(invert_ms)} inverts)")
            notes.append(f"inverts={len(invert_ms)} "
                         f"raised={sum(p['raised'] for p in done)} "
                         f"silent_miss={sum(p['missed'] for p in done)}")
    rows = [row("machine.setup_s", "s", [p.wall_s for p in setup]),
            *rows,
            ("failed_frac", "ratio", attempted, failed / attempted, "-"),
            ("peak_rss_mb", "MB", 1, peak, "-"),
            row("setup_s", "s", [p.ref_s for p in setup]),
            ("wall_s", "s", len(refs), statistics.fmean(refs), "-")]
    notes.append("setup_s (median) and wall_s (mean pass) are in reference seconds "
                 "(bench/speed.py); the other times are this machine's seconds")
    metrics = {"setup_s": statistics.median(p.ref_s for p in setup),
               "wall_s": statistics.fmean(refs), "peak_rss_mb": peak}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "units": E2E_UNITS, "rows": rows,
            "notes": notes, "errors": errors}


def traced_run(name: str, seed: int, run: Run, size: dict) -> dict:
    set_up(name, size, run, 1)
    spec = {**child_spec(name, size, run, seed), "passes": 1}
    notes, errors = [], []

    def untraced() -> tuple[float, dict]:
        if name == "plan":
            proc, check = plan_cli(size, run, metered=False)
            return proc.wall_s, check
        proc, result = run.child(name, {**spec, "trace": False})
        if "crashed" in result:
            raise HarnessError(f"{name} child exited {proc.code}: {result['crashed']}")
        return proc.wall_s, result

    # untraced, traced, untraced, traced: each traced run is paired with the
    # untraced run just before it, so slow drift of the machine cancels out.
    # The second untraced run is left out when it would not fit the deadline.
    checks, summaries, pairs = [], [], []
    for _ in range(2):
        if not pairs or time.monotonic() + 1.5 * sum(pairs[-1]) < run.deadline:
            plain_wall, check = untraced()
            checks.append(check)
        proc, result = run.child(name, {**spec, "trace": True})
        if "crashed" in result:
            raise HarnessError(f"traced {name} child exited {proc.code}: {result['crashed']}")
        spans = json.loads(Path(result["spec"]["trace_out"]).read_text())
        summaries.append(summarize(spans["spans"], spans["counts"]))
        pairs.append((plain_wall, proc.wall_s - result["trace_write_s"]))
        if name == "plan":
            check = check_plan(result["exit_code"],
                               run.work / result["spec"]["report"], result["stderr"],
                               size["rows"])
            checks.append(check)
        else:
            checks.append(result)

    first, second = summaries
    mismatched = [k for k in DETERMINISTIC if first[k] != second[k]]
    if name == "plan":
        shas = {c["sha256"] for c in checks}
        notes.append(f"plan report sha256={','.join(sorted(shas))}")
        if len(shas) > 1:
            mismatched.append("plan report sha256")
        correct = all(c["ok"] for c in checks)
        errors.extend(line for c in checks for line in c["flagged"])
    else:
        correct = all(not c["gross"] for c in checks)
        if name == "build":
            correct &= all(c["failed"] == 0 for c in checks)
        errors.extend(line for c in checks for line in c["gross"] + c["errors"])
    if mismatched:
        notes.append("counters that did not repeat: " + ", ".join(mismatched))

    metrics = {k: first[k] if k in DETERMINISTIC else (first[k] + second[k]) / 2
               for k in first}
    metrics["trace.overhead_s"] = statistics.median(t - p for p, t in pairs)
    metrics["trace.counter_mismatches"] = len(mismatched)
    notes.append("untraced/traced walls "
                 + ", ".join(f"{p:.3f}/{t:.3f}" for p, t in pairs) + " s")
    return {"correct": correct,
            "attempted": sum(c["attempted"] for c in checks),
            "failed": sum(c["failed"] for c in checks),
            "metrics": metrics, "units": {k: u for k, (u, _) in PER_LAYER.items()},
            "rows": [(k, PER_LAYER[k][0], 1, v, "-") for k, v in metrics.items()],
            "notes": notes, "errors": errors}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: dict | None = None) -> dict:
    """Set up and run one workload in a fresh work directory; never leaves
    a child running or the work directory behind."""
    size = size or SIZES[name]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        run = Run(work, time.monotonic() + DEADLINE_S)
        if trace:
            return traced_run(name, seed, run, size)
        return timed_run(name, seed, seconds, run, size)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def report(name: str, args, result: dict, fp: dict) -> None:
    print(f"# zladder benchmark workload={name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# python={fp['python']} numpy={fp['numpy']} nproc={fp['nproc']} "
          f"cpu={fp['cpu']!r} loadavg={fp['loadavg']}")
    for line in table_lines(result["rows"]):
        print(line)
    for note in result["notes"]:
        print(f"# {note}")
    for line in result["errors"][:20]:
        print(f"# failed: {line}")
    if len(result["errors"]) > 20:
        print(f"# ... and {len(result['errors']) - 20} more")
    print(f"# correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} loadavg_end={fingerprint()['loadavg']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*SIZES, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="nominal measuring time per workload, which sets its pass "
                         "count; at most 60")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0.0 < args.seconds <= 60.0:
        ap.error("--seconds must be in (0, 60]")

    if not (ROOT / "src" / "zladder" / "cli.py").is_file():
        print(f"error: {ROOT} is not a zladder checkout (no src/zladder/cli.py)",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = list(SIZES) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            fp = fingerprint()
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, args, results[name], fp)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def key(name, metric):
        return metric if len(names) == 1 else f"{name}.{metric}"

    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {key(name, k): {"value": v, "unit": r["units"][k]}
                    for name, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
