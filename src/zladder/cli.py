"""Command-line front end.

Verbs: `z eval`, `specfun zeros`, `ladder build|query|invert|retardation`,
`verify baseline|theorem1|corollary|theorem2|sanity`, `plot-data`, `run`,
`report`.  `verify F` is `run --equations F`: the same reports, the same
judgement and the same exit code.  Ladder verbs and plans cache the ladder
(checkpoints and panel coefficients) in `<cache root>/ladder-<ladder config
hash>.npz` unless `--cache` names a file (written under exactly that name).
A default cache of an older format has another name and is not read, so the
ladder is rebuilt once; a `--cache` file in an older format (JSON, or a
version-2 `.npz`) is rejected (exit 65) until `ladder build --rebuild`
replaces it.  `report` lists the exactness (sanity) rows of an
equation apart from its asymptotic rows, as `E2_x/sanity`.

Exit codes: 0 success, 1 exactness-layer failure, 2 asymptotic (soft)
failure with reports still written, 64 config/usage error (including an
unreadable input file or an unwritable output path), 65 cache corruption or
mismatch, or a malformed report file, 70 numeric non-convergence.

All numeric output uses full round-trip precision; report files are byte
identical across runs of the same configuration, with one BLAS thread or
two alike (timings are only included on request, since they are inherently
nondeterministic).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import verify as V
from .config import RunConfig, cache_root
from .exceptions import (AdmissibilityError, CacheError, ConvergenceError,
                         DomainError, PoleError, PrecisionError,
                         QuadratureError, ReportFormatError,
                         ToleranceNotMetError)
from .ladder import LadderTable, build_ladder, retardation_report
from .specfun import bessel_zero, load_zero_cache, save_zero_cache, zero_table

EXIT_OK = 0
EXIT_HARD = 1
EXIT_SOFT = 2
EXIT_CONFIG = 64
EXIT_CACHE = 65
EXIT_NUMERIC = 70

# plan families judged by the exactness layer; the others are asymptotic
_HARD_FAMILIES = ("baseline", "theorem1", "sanity")


def _print_json(doc) -> None:
    print(json.dumps(doc, sort_keys=False, separators=(",", ":")))


# ---------------------------------------------------------------------------
# configuration plumbing

_LADDER_OVERRIDES = ("t_lo", "t_hi", "anchor_t0", "tol", "h", "cache")


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for name in ("rs_correction_order", "oracle_terms", "t_min_rs",
                 *_LADDER_OVERRIDES, "n_max", "alpha", "beta",
                 "tol_exact", "tol_ratio", "tol_baseline",
                 "format", "path"):
        if hasattr(args, name) and getattr(args, name) is not None:
            overrides[name] = getattr(args, name)
    if getattr(args, "T_list", None):
        overrides["T"] = tuple(args.T_list)
    if getattr(args, "nu_list", None):
        overrides["nu"] = tuple(args.nu_list)
    if getattr(args, "equations", None):
        overrides["equations"] = tuple(args.equations)
    if getattr(args, "timings", False):
        overrides["timings"] = True
    if getattr(args, "config", None):
        return RunConfig.from_ini(args.config, overrides)
    return RunConfig(**overrides)


def _get_ladder(cfg: RunConfig, rebuild: bool = False) -> LadderTable:
    path = cfg.ladder_cache_path()
    ev = cfg.evaluator()
    if not rebuild and os.path.exists(path):
        table = LadderTable.load(path, ev)  # CacheError propagates (exit 65)
        wanted = (cfg.t_lo, cfg.t_hi, cfg.anchor(), cfg.h, cfg.tol)
        have = (table.t_lo, table.t_hi, table.anchor_t0, table.h,
                table.build_tolerance)
        if wanted != have:
            raise CacheError(
                f"ladder cache {path} was built for {have}, requested {wanted}; "
                f"refusing to reuse")
        return table
    table = build_ladder(ev, cfg.t_lo, cfg.t_hi, cfg.anchor(), tol=cfg.tol, h=cfg.h)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    table.save(path)
    return table


def _emit_reports(reports, cfg: RunConfig, out_override=None) -> None:
    reports = sorted(reports, key=V.sort_key)
    path = out_override or cfg.path
    if cfg.format == "jsonl":
        lines = [V.report_json_line(r, include_timings=cfg.timings) for r in reports]
        text = "\n".join(lines) + ("\n" if lines else "")
    else:
        rows = ["equation_id,params,lhs,rhs,ratio,abs_error,quadrature_error"]
        for r in reports:
            params = json.dumps({k: r.params[k] for k in sorted(r.params)},
                                separators=(",", ":")).replace('"', "'")
            ratio = "" if r.ratio is None else repr(r.ratio)
            rows.append(f'{r.equation_id},"{params}",{r.lhs!r},{r.rhs!r},'
                        f"{ratio},{r.abs_error!r},{r.quadrature_error!r}")
        text = "\n".join(rows) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(reports)} report rows to {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# judgement (hard = exactness layer, soft = asymptotic layer)

def _is_sanity(report) -> bool:
    return report.params.get("weight") == "ztilde2"


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
        elif _is_sanity(r):
            thr = (cfg.tol_sanity_singular if r.equation_id in V.SINGULAR_WEIGHT_EQS
                   else cfg.tol_sanity)
            if r.ratio is None or abs(r.ratio - 1.0) > thr:
                fails.append(f"sanity {r.equation_id} {r.params}: "
                             f"|ratio-1| = {abs((r.ratio or 0.0) - 1.0):.3e}")
    return fails


def _soft_failures(reports, cfg: RunConfig) -> list[str]:
    fails = []
    asym = [r for r in reports
            if r.equation_id.startswith("E2_") and not _is_sanity(r)]
    for r in asym:
        if r.ratio is None or abs(r.ratio - 1.0) > cfg.tol_ratio:
            fails.append(f"{r.equation_id} {r.params}: |ratio-1| = "
                         f"{abs((r.ratio or 0.0) - 1.0):.3e} > {cfg.tol_ratio}")
    # trend over T for each (eq, nu, alpha, beta, n) group with >= 2 T values
    groups: dict = {}
    for r in asym:
        key = (r.equation_id, r.params.get("nu"), r.params.get("alpha"),
               r.params.get("beta"), r.params.get("n"))
        groups.setdefault(key, []).append(r)
    judged = ok = 0
    for key, rows in groups.items():
        if len(rows) < 2:
            continue
        rows.sort(key=lambda r: r.params["T"])
        judged += 1
        ok += V.ratio_trend_nonincreasing(rows)
    if judged and ok < 0.8 * judged:
        fails.append(f"ratio-error trend nonincreasing for only {ok}/{judged} groups")
    return fails


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_z_eval(args) -> int:
    cfg = _config_from_args(args)
    ev = cfg.evaluator()
    t = args.t
    if args.oracle:
        theta = ev.theta_oracle(t)
        z = ev.z_oracle(t)
    else:
        theta = ev.theta(t)
        z = ev.z(t)
    _print_json({"t": t, "theta": theta, "z": z, "z_sq": z * z})
    return EXIT_OK


def _cmd_specfun_zeros(args) -> int:
    cache_file = args.cache_file or os.path.join(cache_root(), "bessel-zeros.json")
    if os.path.exists(cache_file):
        load_zero_cache(cache_file)
    zeros = [bessel_zero(args.nu, k) for k in range(1, args.count + 1)]
    table = zero_table(args.nu, args.count)
    os.makedirs(os.path.dirname(cache_file) or ".", exist_ok=True)
    save_zero_cache(cache_file)
    _print_json({"nu": args.nu, "zeros": zeros,
                 "residual_bound": table.residual_bound, "cache": cache_file})
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
    """Write a header and rows of repr'd fields to `out` ('-' or None =
    stdout).  Callers compute every row first, so a run that fails leaves an
    existing `out` file as it was."""
    text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    if out in (None, "-"):
        sys.stdout.write(f"{header}\n{text}")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(f"{header}\n{text}")


def _t_grid(args) -> np.ndarray:
    return np.arange(args.t_from, args.t_to + 0.5 * args.step, args.step)


def _retardation_rows(table, args) -> list:
    return [(r.t, r.lag, r.expected, r.ratio)
            for r in retardation_report(table, _t_grid(args))]


def _cmd_ladder_retardation(args) -> int:
    rows = _retardation_rows(_get_ladder(_config_from_args(args)), args)
    _write_csv(args.out, "t,lag,expected,ratio", rows)
    return EXIT_OK


def _family_reports(family: str, cfg: RunConfig, table) -> list:
    """The report rows of one plan family (the verify functions are looked
    up on the module at call time, so wrappers installed there see them)."""
    if family == "baseline":
        return [r for nu in cfg.nu
                for r in V.verify_bessel_baseline(nu, min(cfg.n_max, 8),
                                                  tol=cfg.tol_baseline)]
    if family == "theorem1":
        return [r for T in cfg.T for nu in cfg.nu
                for r in V.verify_theorem1(table, T, nu, cfg.n_max, tol=cfg.tol_exact)]
    if family == "corollary":
        return [r for nu in cfg.nu
                for r in V.verify_corollary(table, cfg.T, nu, cfg.n_max)]
    args = (cfg.n_max, cfg.nu[0], cfg.alpha, cfg.beta)
    if family == "theorem2":
        return [r for T in cfg.T for eq in V.THEOREM2_MEMBERS
                for r in V.verify_theorem2(table, T, eq, *args, tol_ratio=cfg.tol_ratio)]
    return [r for T in cfg.T for eq in V.THEOREM2_MEMBERS
            for r in V.sanity_theorem2_exact(table, T, eq, *args)]


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    table = None
    if any(e != "baseline" for e in cfg.equations):
        table = _get_ladder(cfg)
        for T in cfg.T:
            if T < table.phi_lo or T + 2.0 > table.phi_hi:
                raise DomainError(
                    f"plan T = {T} outside ladder range: need phi_lo <= T and "
                    f"T + 2 <= phi_hi, have [{table.phi_lo!r}, {table.phi_hi!r}]")
    reports = [r for family in cfg.equations
               for r in _family_reports(family, cfg, table)]
    _emit_reports(reports, cfg, args.out)
    hard = any(e in _HARD_FAMILIES for e in cfg.equations)
    soft = any(e not in _HARD_FAMILIES for e in cfg.equations)
    hard_fails = _hard_failures(reports, cfg) if hard else []
    soft_fails = _soft_failures(reports, cfg) if soft else []
    for f in hard_fails + soft_fails:
        print(f"FAIL {f}", file=sys.stderr)
    if hard_fails:
        return EXIT_HARD
    if soft_fails:
        return EXIT_SOFT
    return EXIT_OK


def _cmd_verify(args) -> int:
    args.equations = (args.which,)
    return _cmd_run(args)


def _plot_rows(args, cfg: RunConfig) -> tuple[str, list]:
    """CSV header and rows of one plot-data target."""
    if args.what == "z_trace":
        ts = _t_grid(args)
        return "t,z", list(zip(ts.tolist(), cfg.evaluator().z(ts).tolist()))
    table = _get_ladder(cfg)
    if args.what == "ladder":
        ts = _t_grid(args)
        return "t,phi1,t_minus_phi1", [(t, p, t - p) for t, p in
                                       zip(ts.tolist(), table.eval(ts).tolist())]
    if args.what == "retardation":
        return "t,lag,expected,ratio", _retardation_rows(table, args)
    grid = np.linspace(table.invert(args.T), table.invert(args.T + 1.0), args.points)
    return "t,envelope,abs_z", V.envelope_23(table, args.T, args.nu_single, args.n, grid)


def _cmd_plot_data(args) -> int:
    header, rows = _plot_rows(args, _config_from_args(args))
    _write_csv(args.out, header, rows)
    return EXIT_OK


def _read_report_rows(path) -> list[tuple[str, float | None, float]]:
    """(key, ratio, abs_error) per nonblank line of a JSONL report; the key
    is the equation id, with "/sanity" appended on exactness rows."""
    rows = []
    lineno = 1
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line in fh:
                if line.strip():
                    doc = json.loads(line)
                    ratio = doc.get("ratio")
                    key = str(doc["equation_id"])
                    if (doc.get("params") or {}).get("weight") == "ztilde2":
                        key += "/sanity"
                    rows.append((key,
                                 None if ratio is None else float(ratio),
                                 float(doc["abs_error"])))
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

def _add_config_opts(p):
    p.add_argument("--config", help="INI configuration file")
    p.add_argument("--rs-correction-order", dest="rs_correction_order", type=int)
    p.add_argument("--oracle-terms", dest="oracle_terms", type=int)
    p.add_argument("--t-min-rs", dest="t_min_rs", type=float)


def _add_ladder_opts(p):
    p.add_argument("--t-lo", dest="t_lo", type=float)
    p.add_argument("--t-hi", dest="t_hi", type=float)
    p.add_argument("--anchor", dest="anchor_t0", type=float)
    p.add_argument("--tol", dest="tol", type=float)
    p.add_argument("--h", dest="h", type=float,
                   help="base panel width, 0 < h <= 1 (default 1)")
    p.add_argument("--cache", dest="cache")


def _add_plan_opts(p):
    p.add_argument("--T", dest="T_list", type=float, nargs="+")
    p.add_argument("--nu", dest="nu_list", type=float, nargs="+")
    p.add_argument("--max-n", dest="n_max", type=int)
    p.add_argument("--alpha", dest="alpha", type=float)
    p.add_argument("--beta", dest="beta", type=float)
    p.add_argument("--tol-exact", dest="tol_exact", type=float)
    p.add_argument("--tol-ratio", dest="tol_ratio", type=float)
    p.add_argument("--tol-baseline", dest="tol_baseline", type=float)


def _add_output_opts(p):
    p.add_argument("--out", help="report destination (default from config; '-' = stdout)")
    p.add_argument("--format", dest="format", choices=("jsonl", "csv"))
    p.add_argument("--timings", action="store_true",
                   help="include elapsed times (breaks byte determinism)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="zladder",
                                 description="Jacob's ladders for the Hardy Z-function")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pz = sub.add_parser("z", help="Z-function evaluations")
    zsub = pz.add_subparsers(dest="zcmd", required=True)
    pe = zsub.add_parser("eval", help="print theta, Z, Z^2 at t as a JSON line")
    pe.add_argument("--t", type=float, required=True)
    pe.add_argument("--oracle", action="store_true", help="use the oracle path")
    _add_config_opts(pe)
    pe.set_defaults(fn=_cmd_z_eval)

    ps = sub.add_parser("specfun", help="special function utilities")
    ssub = ps.add_subparsers(dest="scmd", required=True)
    pz2 = ssub.add_parser("zeros", help="Bessel zeros mu_n")
    pz2.add_argument("--nu", type=float, required=True)
    pz2.add_argument("--count", type=int, required=True)
    pz2.add_argument("--cache-file", dest="cache_file")
    pz2.set_defaults(fn=_cmd_specfun_zeros)

    pl = sub.add_parser("ladder", help="build/query the Jacob's ladder")
    lsub = pl.add_subparsers(dest="lcmd", required=True)
    for name, fn in (("build", _cmd_ladder_build), ("query", _cmd_ladder_query),
                     ("invert", _cmd_ladder_invert), ("retardation", _cmd_ladder_retardation)):
        p = lsub.add_parser(name)
        _add_config_opts(p)
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
    pv.add_argument("which", choices=("baseline", "theorem1", "corollary",
                                      "theorem2", "sanity"))
    _add_config_opts(pv)
    _add_ladder_opts(pv)
    _add_plan_opts(pv)
    _add_output_opts(pv)
    pv.set_defaults(fn=_cmd_verify)

    pp = sub.add_parser("plot-data", help="emit CSV data for external plotting")
    pp.add_argument("--what", choices=("envelope", "ladder", "retardation", "z_trace"),
                    required=True)
    pp.add_argument("--from", dest="t_from", type=float)
    pp.add_argument("--to", dest="t_to", type=float)
    pp.add_argument("--step", type=float, default=0.05)
    pp.add_argument("--T", dest="T", type=float)
    pp.add_argument("--nu", dest="nu_single", type=float, default=0.0)
    pp.add_argument("--n", type=int, default=1)
    pp.add_argument("--points", type=int, default=1000)
    pp.add_argument("--out")
    _add_config_opts(pp)
    _add_ladder_opts(pp)
    pp.set_defaults(fn=_cmd_plot_data)

    pr = sub.add_parser("run", help="execute a full configured verification plan")
    _add_config_opts(pr)
    _add_ladder_opts(pr)
    _add_plan_opts(pr)
    _add_output_opts(pr)
    pr.add_argument("--equations", nargs="+",
                    choices=("baseline", "theorem1", "corollary", "theorem2", "sanity"))
    pr.set_defaults(fn=_cmd_run)

    pq = sub.add_parser("report", help="summarize a JSON Lines report file")
    pq.add_argument("file")
    pq.set_defaults(fn=_cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, AdmissibilityError, PoleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except ReportFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except (ConvergenceError, QuadratureError, ToleranceNotMetError,
            PrecisionError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
