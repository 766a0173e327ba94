"""Command-line front end.

Verbs: `z eval`, `specfun zeros`, `ladder build|query|invert|retardation`,
`verify baseline|theorem1|corollary|theorem2|sanity`, `plot-data`, `run`,
`report`.  Flags are the one way to set up a run: the dest of a config flag
is the `RunConfig` field it sets (`--out` of `run` and `verify` sets
`path`), and a flag matches only whole; `RunConfig`'s defaults are the
paper's fixed plan, which `tests/test_golden.py` pins.  Z comes from the
one fixed `ZEvaluator`, which no flag configures; `specfun zeros` reads and writes no
file: its output depends only on --nu and --count.  A ladder is fixed by
--t-lo, --t-hi and --tol: its anchor is the rule `min(t_lo + 10, t_hi)`, and
its base panels have the fixed width 1 and are halved as its tolerance
needs.  `verify F` is `run --equations F`: the same reports, the same
judgement and the same exit code.  Plan row sets come from
`verify.FAMILIES`, and every row that `verify.is_sanity` picks out is judged
at `tol_exact`.  The baseline E1_2 takes min(--max-n, `verify.BASELINE_MAX_N`).
Ladder verbs and plans cache the ladder in `<cache root>/ladder-<ladder
config hash>.npz` (the cache root is `$ZLADDER_CACHE_ROOT`, else
`~/.cache/zladder`; every report row records that hash) unless `--cache`
names a file (written under exactly that name), the one file format zladder
keeps: seven members (config hash, tol, certificate, checkpoints, values,
panel coefficients; the fifteen-member caches of older writers load the
same), its anchor checkpoint checked against the retardation law.  A default
cache of an older format has another name and is not read, so the ladder is
rebuilt once; a `--cache` file in an older format (JSON, or a version-2
`.npz`) is rejected (exit 65) until `ladder build --rebuild` replaces it.
Reports are JSON Lines of schema `REPORT_SCHEMA_VERSION`, their fields in a
fixed order (`report_json_line`), or CSV; `report` reads the JSONL back and
lists the sanity rows of an equation apart from its asymptotic rows, as
`E2_x/sanity`.

Exit codes: 0 success, 1 exactness-layer failure, 2 asymptotic (soft)
failure with reports still written, 64 config/usage error (including an
unknown flag, a prefix of a flag among them, an unknown choice, a missing or
malformed value, an unreadable input file, an unwritable output path, a NaN
or out-of-range argument, a plan T whose window leaves the ladder's range,
and an empty, incomplete or oversized t grid or `--points`), 65 cache
corruption (an anchor value off the retardation law among it) or mismatch,
or a malformed report file, 70 numeric non-convergence.

All numeric output uses full round-trip precision; report files are byte
identical across runs of the same configuration, and no report sum goes
through BLAS (timings are only included on request, since they are
inherently nondeterministic).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import verify as V
from .exceptions import (CacheError, ConvergenceError, DomainError,
                         PrecisionError, ReportFormatError)
from .ladder import LadderTable, build_ladder, ladder_config_hash, retardation_report
from .rszeta import ZEvaluator
from .specfun import zero_table

EXIT_OK = 0
EXIT_HARD = 1
EXIT_SOFT = 2
EXIT_CONFIG = 64
EXIT_CACHE = 65
EXIT_NUMERIC = 70

MAX_GRID_POINTS = 10 ** 6   # of a plot-data or retardation grid


def _print_json(doc) -> None:
    print(json.dumps(doc, sort_keys=False, separators=(",", ":")))


# ---------------------------------------------------------------------------
# configuration plumbing

PLAN_EQUATIONS = ("baseline", *V.FAMILIES)   # E1_2 and the ladder families


def cache_root() -> str:
    root = os.environ.get("ZLADDER_CACHE_ROOT")
    if root:
        return root
    return os.path.join(os.path.expanduser("~"), ".cache", "zladder")


@dataclass
class RunConfig:
    # ladder
    t_lo: float = 1000.0
    t_hi: float = 7000.0
    tol: float = 1e-8
    cache: str | None = None
    # plan
    equations: tuple[str, ...] = PLAN_EQUATIONS
    T: tuple[float, ...] = (1500.0, 3000.0, 6000.0)
    nu: tuple[float, ...] = (0.0, 1.0)
    n_max: int = 4
    alpha: float = 0.5
    beta: float = 0.5
    tol_exact: float = 1e-4
    tol_ratio: float = 0.25
    tol_baseline: float = 1e-9
    # output
    format: str = "jsonl"
    path: str = "reports.jsonl"
    timings: bool = False

    def __post_init__(self):
        for name in ("tol", "tol_exact", "tol_ratio", "tol_baseline"):
            if not 0.0 < getattr(self, name) < math.inf:   # NaN is not
                raise DomainError(f"config: {name} must be positive and finite")
        if not all(lo < hi for lo, hi in zip(self.T, self.T[1:])):
            raise DomainError("config: T list must be strictly ascending")
        for name in ("equations", "nu"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise DomainError(f"config: {name} list repeats an entry")
        for eq in self.equations:
            if eq not in PLAN_EQUATIONS:
                raise DomainError(f"config: unknown plan equation {eq!r}")
        if self.format not in ("jsonl", "csv"):
            raise DomainError(f"config: unknown output format {self.format!r}")
        if self.n_max < 1:
            raise DomainError("config: n_max must be >= 1")

    def ladder_hash(self) -> str:
        """The `LadderTable.config_hash` of the ladder this config builds."""
        return ladder_config_hash(ZEvaluator(), self.t_lo, self.t_hi, self.tol)

    def ladder_cache_path(self) -> str:
        if self.cache:
            return self.cache
        return os.path.join(cache_root(), f"ladder-{self.ladder_hash()}.npz")


def _config_from_args(args) -> RunConfig:
    """The flags given, over the defaults."""
    given = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            given[f.name] = tuple(value) if isinstance(value, list) else value
    return RunConfig(**given)


def _get_ladder(cfg: RunConfig, rebuild: bool = False) -> LadderTable:
    path = cfg.ladder_cache_path()
    ev = ZEvaluator()
    if not rebuild and os.path.exists(path):
        table = LadderTable.load(path, ev)  # CacheError propagates (exit 65)
        if table.config_hash() != cfg.ladder_hash():
            raise CacheError(f"ladder cache {path} has config hash {table.config_hash()}, "
                             f"requested {cfg.ladder_hash()}; refusing to reuse")
        return table
    table = build_ladder(ev, cfg.t_lo, cfg.t_hi, tol=cfg.tol)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    table.save(path)
    return table


def _write(path, text: str) -> None:
    """Write text to the file `path`, or to stdout if path is '-' or None."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


REPORT_SCHEMA_VERSION = 1


def report_json_line(report: V.VerificationReport, include_timings: bool = False) -> str:
    # the field order is fixed, so reports are byte-reproducible
    doc = {
        "schema": REPORT_SCHEMA_VERSION,
        "equation_id": report.equation_id,
        "params": {k: report.params[k] for k in sorted(report.params)},
        "lhs": report.lhs,
        "rhs": report.rhs,
        "ratio": report.ratio,
        "abs_error": report.abs_error,
        "quadrature_error": report.quadrature_error,
        "evaluator_hash": report.evaluator_hash,
        "ladder_hash": report.ladder_hash,
    }
    if include_timings:
        doc["elapsed"] = report.elapsed
    return json.dumps(doc, sort_keys=False, separators=(",", ":"))


def _emit_reports(reports, cfg: RunConfig) -> None:
    if cfg.format == "jsonl":
        lines = [report_json_line(r, include_timings=cfg.timings) for r in reports]
        text = "\n".join(lines) + ("\n" if lines else "")
    else:
        # --timings adds an elapsed column, as it adds the field to JSONL
        rows = ["equation_id,params,lhs,rhs,ratio,abs_error,quadrature_error"
                + (",elapsed" if cfg.timings else "")]
        for r in reports:
            params = json.dumps({k: r.params[k] for k in sorted(r.params)},
                                separators=(",", ":")).replace('"', "'")
            ratio = "" if r.ratio is None else repr(r.ratio)
            rows.append(f'{r.equation_id},"{params}",{r.lhs!r},{r.rhs!r},'
                        f"{ratio},{r.abs_error!r},{r.quadrature_error!r}"
                        + (f",{r.elapsed!r}" if cfg.timings else ""))
        text = "\n".join(rows) + "\n"
    _write(cfg.path, text)
    if cfg.path != "-":
        print(f"wrote {len(reports)} report rows to {cfg.path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# judgement (hard = exactness layer, soft = asymptotic layer)

def _hard_failures(reports, cfg: RunConfig) -> list[str]:
    fails = []
    for r in reports:
        if r.equation_id == "E1_2":
            if r.abs_error > cfg.tol_baseline:
                fails.append(f"E1_2 {r.params}: |error| = {r.abs_error:.3e}")
        elif r.equation_id == "E1_3_offdiag":
            if abs(r.lhs) > cfg.tol_exact:
                fails.append(f"E1_3 offdiag {r.params}: |I| = {abs(r.lhs):.3e}")
        elif r.equation_id == "E1_3_diag":
            if r.abs_error > cfg.tol_exact * (1.0 + r.rhs):
                fails.append(f"E1_3 diag {r.params}: error = {r.abs_error:.3e}")
        elif V.is_sanity(r.params):
            if r.ratio is None or abs(r.ratio - 1.0) > cfg.tol_exact:
                fails.append(f"sanity {r.equation_id} {r.params}: "
                             f"|ratio-1| = {abs((r.ratio or 0.0) - 1.0):.3e}")
    return fails


def _soft_failures(reports, cfg: RunConfig) -> list[str]:
    fails = []
    asym = [r for r in reports
            if r.equation_id.startswith("E2_") and not V.is_sanity(r.params)]
    for r in asym:
        if r.ratio is None or abs(r.ratio - 1.0) > cfg.tol_ratio:
            fails.append(f"{r.equation_id} {r.params}: |ratio-1| = "
                         f"{abs((r.ratio or 0.0) - 1.0):.3e} > {cfg.tol_ratio}")
    # trend over T for each (eq, nu, alpha, beta, n) group with >= 2 T values;
    # the reports come in sort_key order, so each group ascends in T
    groups: dict = {}
    for r in asym:
        key = (r.equation_id, r.params.get("nu"), r.params.get("alpha"),
               r.params.get("beta"), r.params.get("n"))
        groups.setdefault(key, []).append(r)
    judged = ok = 0
    for key, rows in groups.items():
        if len(rows) < 2:
            continue
        judged += 1
        ok += V.ratio_trend_nonincreasing(rows)
    if judged and ok < 0.8 * judged:
        fails.append(f"ratio-error trend nonincreasing for only {ok}/{judged} groups")
    return fails


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_z_eval(args) -> int:
    ev = ZEvaluator()
    t = args.t
    # theta comes from the oracle wherever ev.z takes Z from it: the
    # asymptotic series is vouched for only at t >= t_min_rs
    theta = ev.theta_oracle(t) if args.oracle or t < ev.t_min_rs else ev.theta(t)
    z = ev.z_oracle(t) if args.oracle else ev.z(t)
    _print_json({"t": t, "theta": theta, "z": z, "z_sq": z * z})
    return EXIT_OK


def _cmd_specfun_zeros(args) -> int:
    if not 1 <= args.count <= 64:
        raise DomainError(f"need 1 <= --count <= 64, have --count {args.count}")
    table = zero_table(args.nu, args.count)
    _print_json({"nu": args.nu, "zeros": table.zeros[:args.count],
                 "residual_bound": table.residual_bound})
    return EXIT_OK


def _cmd_ladder_build(args) -> int:
    cfg = _config_from_args(args)
    table = _get_ladder(cfg, rebuild=args.rebuild)
    _print_json({"cache": cfg.ladder_cache_path(), "t_lo": table.t_lo,
                 "t_hi": table.t_hi, "anchor_t0": table.anchor_t0,
                 "anchor_value": table.anchor_value,
                 "checkpoints": len(table.edges), "phi_lo": table.phi_lo,
                 "phi_hi": table.phi_hi, "residual_total": table.residual_total,
                 "config_hash": table.config_hash()})
    return EXIT_OK


def _cmd_ladder_query(args) -> int:
    cfg = _config_from_args(args)
    table = _get_ladder(cfg)
    phi = table.eval(args.t)
    _print_json({"t": args.t, "phi1": phi, "t_minus_phi1": args.t - phi})
    return EXIT_OK


def _cmd_ladder_invert(args) -> int:
    cfg = _config_from_args(args)
    table = _get_ladder(cfg)
    _print_json({"y": args.y, "t": table.invert(args.y)})
    return EXIT_OK


def _write_csv(out, header: str, rows) -> None:
    """Write a header and rows of repr'd fields to `out`.  Callers compute
    every row first, so a run that fails leaves an existing file as it was."""
    text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    _write(out, f"{header}\n{text}")


def _t_grid(args) -> np.ndarray:
    """The grid --from, --from + --step, ... up to --to, of at most
    `MAX_GRID_POINTS` points; a last point that rounding puts past --to is
    --to itself."""
    if args.t_from is None or args.t_to is None:
        raise DomainError("this target needs --from and --to")
    if not (args.step > 0.0 and args.t_from <= args.t_to):   # NaN fails
        raise DomainError(f"need --step > 0 and --from <= --to, have --from "
                          f"{args.t_from} --to {args.t_to} --step {args.step}")
    if not (args.t_to - args.t_from) / args.step < MAX_GRID_POINTS - 1:   # inf fails
        raise DomainError(f"the grid --from {args.t_from} --to {args.t_to} --step "
                          f"{args.step} has more than {MAX_GRID_POINTS} points")
    return np.minimum(np.arange(args.t_from, args.t_to + 0.5 * args.step, args.step),
                      args.t_to)


def _cmd_ladder_retardation(args) -> int:
    ts = _t_grid(args)
    rows = [(r.t, r.lag, r.expected, r.ratio)
            for r in retardation_report(_get_ladder(_config_from_args(args)), ts)]
    _write_csv(args.out, "t,lag,expected,ratio", rows)
    return EXIT_OK


def _plan_reports(cfg: RunConfig) -> list:
    """The report rows of every plan family.  The row sets of all ladder
    families go to one run of the window executor, so each window of the
    plan is inverted and integrated once for all of them, and every set's
    arguments, its window inside the ladder's range among them, are checked
    before any integration starts."""
    sets = [s for family in cfg.equations if family != "baseline"
            for s in V.family_sets(family, cfg.T, cfg.nu, cfg.n_max, alpha=cfg.alpha,
                                   beta=cfg.beta, tol=cfg.tol_exact, tol_ratio=cfg.tol_ratio)]
    reports = []
    if sets:
        reports = V.ladder_reports(_get_ladder(cfg), sets)
    reports += [r for family in cfg.equations if family == "baseline" for nu in cfg.nu
                for r in V.verify_bessel_baseline(nu, min(cfg.n_max, V.BASELINE_MAX_N),
                                                  tol=cfg.tol_baseline)]
    return reports


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    # sort_key orders the rows totally, so the report and the FAIL lines do
    # not depend on the order of --equations
    reports = sorted(_plan_reports(cfg), key=V.sort_key)
    _emit_reports(reports, cfg)
    hard_fails = _hard_failures(reports, cfg)
    soft_fails = _soft_failures(reports, cfg)
    for f in hard_fails + soft_fails:
        print(f"FAIL {f}", file=sys.stderr)
    if hard_fails:
        return EXIT_HARD
    if soft_fails:
        return EXIT_SOFT
    return EXIT_OK


def _plot_rows(args, cfg: RunConfig) -> tuple[str, list]:
    """CSV header and rows of one plot-data target; the arguments are checked
    before a ladder is built or loaded."""
    if args.what != "envelope":
        ts = _t_grid(args)
    elif args.T_single is None or not 1 <= args.points <= MAX_GRID_POINTS:
        raise DomainError(f"plot-data --what envelope needs --T and "
                          f"1 <= --points <= {MAX_GRID_POINTS}")
    else:
        V.bessel_mu(args.nu_single, args.n, "the envelope", "n")
    if args.what == "z_trace":
        return "t,z", list(zip(ts.tolist(), ZEvaluator().z(ts).tolist()))
    table = _get_ladder(cfg)
    if args.what == "ladder":
        return "t,phi1,t_minus_phi1", [(t, p, t - p) for t, p in
                                       zip(ts.tolist(), table.eval(ts).tolist())]
    T = args.T_single
    grid = np.linspace(table.invert(T), table.invert(T + 1.0), args.points)
    return "t,envelope,abs_z", V.envelope_23(table, T, args.nu_single, args.n, grid)


def _cmd_plot_data(args) -> int:
    header, rows = _plot_rows(args, _config_from_args(args))
    _write_csv(args.out, header, rows)
    return EXIT_OK


def _read_report_rows(path) -> list[tuple[str, float | None, float]]:
    """(key, ratio, abs_error) per nonblank line of a JSONL report; the key
    is the equation id, with "/sanity" appended on exactness rows.  A row
    with a non-finite ratio or abs_error is malformed (NaN hides in a max)."""
    rows = []
    lineno = 1
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line in fh:
                if line.strip():
                    doc = json.loads(line)
                    ratio = None if doc.get("ratio") is None else float(doc["ratio"])
                    abs_error = float(doc["abs_error"])
                    for name, value in (("ratio", ratio), ("abs_error", abs_error)):
                        if value is not None and not math.isfinite(value):
                            raise ValueError(f"{name} is {value}")
                    key = str(doc["equation_id"])
                    if V.is_sanity(doc.get("params") or {}):
                        key += "/sanity"
                    rows.append((key, ratio, abs_error))
                lineno += 1
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ReportFormatError(
                f"{path} line {lineno}: not a report row: {exc!r}") from exc
    return rows


def _cmd_report(args) -> int:
    counts: dict = {}
    worst_ratio: dict = {}
    worst_abs: dict = {}
    for eq, ratio, abs_error in _read_report_rows(args.file):
        counts[eq] = counts.get(eq, 0) + 1
        if ratio is not None:
            worst_ratio[eq] = max(worst_ratio.get(eq, 0.0), abs(ratio - 1.0))
        worst_abs[eq] = max(worst_abs.get(eq, 0.0), abs_error)
    print(f"{'equation':<14}{'rows':>6}  {'max|ratio-1|':>14}  {'max abs err':>14}")
    for eq in sorted(counts):
        r = f"{worst_ratio[eq]:.3e}" if eq in worst_ratio else "-"
        print(f"{eq:<14}{counts[eq]:>6}  {r:>14}  {worst_abs[eq]:>14.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_ladder_opts(p):
    p.add_argument("--t-lo", dest="t_lo", type=float)
    p.add_argument("--t-hi", dest="t_hi", type=float)
    p.add_argument("--tol", dest="tol", type=float)
    p.add_argument("--cache", dest="cache")


def _add_plan_opts(p):
    _add_ladder_opts(p)
    p.add_argument("--T", dest="T", type=float, nargs="+")
    p.add_argument("--nu", dest="nu", type=float, nargs="+")
    p.add_argument("--max-n", dest="n_max", type=int,
                   help=f"largest degree n; E1_2 takes min(max_n, {V.BASELINE_MAX_N})")
    p.add_argument("--alpha", dest="alpha", type=float)
    p.add_argument("--beta", dest="beta", type=float)
    p.add_argument("--tol-exact", dest="tol_exact", type=float)
    p.add_argument("--tol-ratio", dest="tol_ratio", type=float)
    p.add_argument("--tol-baseline", dest="tol_baseline", type=float)
    p.add_argument("--out", dest="path", help="report path (default reports.jsonl; '-' = stdout)")
    p.add_argument("--format", dest="format", choices=("jsonl", "csv"))
    p.add_argument("--timings", action="store_true", default=None,
                   help="include elapsed times (breaks byte determinism)")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise DomainError (exit 64), not argparse's exit 2 (the
    soft failure's code); flags match only whole, `-1e-05` is a value (no flag
    starts with a digit), and subparsers are made of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="zladder",
                         description="Jacob's ladders for the Hardy Z-function")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pz = sub.add_parser("z", help="Z-function evaluations")
    zsub = pz.add_subparsers(dest="zcmd", required=True)
    pe = zsub.add_parser("eval", help="print theta, Z, Z^2 at t as a JSON line")
    pe.add_argument("--t", type=float, required=True)
    pe.add_argument("--oracle", action="store_true", help="use the oracle path")
    pe.set_defaults(fn=_cmd_z_eval)

    ps = sub.add_parser("specfun", help="special function utilities")
    ssub = ps.add_subparsers(dest="scmd", required=True)
    pz2 = ssub.add_parser("zeros", help="Bessel zeros mu_n")
    pz2.add_argument("--nu", type=float, required=True)
    pz2.add_argument("--count", type=int, required=True)
    pz2.set_defaults(fn=_cmd_specfun_zeros)

    pl = sub.add_parser("ladder", help="build/query the Jacob's ladder")
    lsub = pl.add_subparsers(dest="lcmd", required=True)
    for name, fn in (("build", _cmd_ladder_build), ("query", _cmd_ladder_query),
                     ("invert", _cmd_ladder_invert), ("retardation", _cmd_ladder_retardation)):
        p = lsub.add_parser(name)
        _add_ladder_opts(p)
        if name == "build":
            p.add_argument("--rebuild", action="store_true",
                           help="rebuild even if a cache exists")
        if name == "query":
            p.add_argument("--t", type=float, required=True)
        if name == "invert":
            p.add_argument("--y", type=float, required=True)
        if name == "retardation":
            p.add_argument("--from", dest="t_from", type=float, required=True)
            p.add_argument("--to", dest="t_to", type=float, required=True)
            p.add_argument("--step", type=float, default=100.0)
            p.add_argument("--out")
        p.set_defaults(fn=fn)

    pv = sub.add_parser("verify", help="run one verification family")
    pv.add_argument("equations", nargs=1, choices=PLAN_EQUATIONS, metavar="which")
    _add_plan_opts(pv)
    pv.set_defaults(fn=_cmd_run)

    pp = sub.add_parser("plot-data", help="emit CSV data for external plotting")
    pp.add_argument("--what", choices=("envelope", "ladder", "z_trace"), required=True)
    pp.add_argument("--from", dest="t_from", type=float)
    pp.add_argument("--to", dest="t_to", type=float)
    pp.add_argument("--step", type=float, default=0.05)
    pp.add_argument("--T", dest="T_single", type=float)
    pp.add_argument("--nu", dest="nu_single", type=float, default=0.0)
    pp.add_argument("--n", type=int, default=1)
    pp.add_argument("--points", type=int, default=1000)
    pp.add_argument("--out")
    _add_ladder_opts(pp)
    pp.set_defaults(fn=_cmd_plot_data)

    pr = sub.add_parser("run", help="execute a full configured verification plan")
    _add_plan_opts(pr)
    pr.add_argument("--equations", nargs="+", choices=PLAN_EQUATIONS)
    pr.set_defaults(fn=_cmd_run)

    pq = sub.add_parser("report", help="summarize a JSON Lines report file")
    pq.add_argument("file")
    pq.set_defaults(fn=_cmd_report)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except ReportFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except (ConvergenceError, PrecisionError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
