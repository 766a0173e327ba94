"""Run configuration: a human-editable INI document, overridable by CLI flags.

Sections and keys (all optional; defaults shown):

    [evaluator]
    rs_correction_order = 4
    oracle_terms = 8
    t_min_rs = 50.0

    [ladder]
    t_lo = 1000.0
    t_hi = 2000.0
    anchor_t0 =            ; blank -> t_lo + 10
    tol = 1e-8
    h = 0.05
    cache =                ; blank -> <cache_root>/ladder-<ladder config hash>.json

    [plan]
    equations = baseline theorem1 sanity theorem2 corollary
    T = 5000 10000 50000   ; ascending
    nu = 0 1
    n_max = 4
    alpha = 0.5
    beta = 0.5
    tol_exact = 1e-4
    tol_sanity = 1e-4
    tol_sanity_singular = 1e-3
    tol_ratio = 0.25
    tol_baseline = 1e-9

    [output]
    format = jsonl         ; jsonl | csv
    path = reports.jsonl
    timings = false

Flags win over file values.  The default ladder cache is named by the same
hash that `LadderTable.config_hash` records in the cache file and in every
report row: the ladder domain, anchor, step, tolerance, panel rule and
evaluator configuration.  Caches written under the names older versions used
are not read; the ladder is rebuilt once under its new name.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .exceptions import DomainError
from .ladder import ladder_config_hash
from .rszeta import ZEvaluator

_PLAN_EQUATIONS = ("baseline", "theorem1", "corollary", "theorem2", "sanity")


def cache_root() -> str:
    root = os.environ.get("ZLADDER_CACHE_ROOT")
    if root:
        return root
    return os.path.join(os.path.expanduser("~"), ".cache", "zladder")


@dataclass
class RunConfig:
    # evaluator
    rs_correction_order: int = 4
    oracle_terms: int = 8
    t_min_rs: float = 50.0
    # ladder
    t_lo: float = 1000.0
    t_hi: float = 2000.0
    anchor_t0: float | None = None
    tol: float = 1e-8
    h: float = 0.05
    cache: str | None = None
    # plan
    equations: tuple[str, ...] = _PLAN_EQUATIONS
    T: tuple[float, ...] = (5000.0, 10000.0, 50000.0)
    nu: tuple[float, ...] = (0.0, 1.0)
    n_max: int = 4
    alpha: float = 0.5
    beta: float = 0.5
    tol_exact: float = 1e-4
    tol_sanity: float = 1e-4
    tol_sanity_singular: float = 1e-3
    tol_ratio: float = 0.25
    tol_baseline: float = 1e-9
    # output
    format: str = "jsonl"
    path: str = "reports.jsonl"
    timings: bool = False

    def __post_init__(self):
        for name in ("tol", "tol_exact", "tol_sanity", "tol_sanity_singular",
                     "tol_ratio", "tol_baseline"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"config: {name} must be positive")
        if list(self.T) != sorted(self.T):
            raise DomainError("config: T list must be sorted ascending")
        for eq in self.equations:
            if eq not in _PLAN_EQUATIONS:
                raise DomainError(f"config: unknown plan equation {eq!r}")
        if self.format not in ("jsonl", "csv"):
            raise DomainError(f"config: unknown output format {self.format!r}")
        if self.n_max < 1:
            raise DomainError("config: n_max must be >= 1")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_ini(cls, path: str, overrides: dict | None = None) -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, configparser.Error) as exc:
            raise DomainError(f"config parse error in {path}: {exc}") from exc
        values: dict = {}

        def grab(section, key, conv):
            if parser.has_option(section, key):
                raw = parser.get(section, key).strip()
                if raw:
                    try:
                        values[key] = conv(raw)
                    except ValueError as exc:
                        raise DomainError(
                            f"config parse error: [{section}] {key} = {raw!r}") from exc

        floats = lambda raw: tuple(float(x) for x in raw.split())
        words = lambda raw: tuple(raw.split())
        grab("evaluator", "rs_correction_order", int)
        grab("evaluator", "oracle_terms", int)
        grab("evaluator", "t_min_rs", float)
        grab("ladder", "t_lo", float)
        grab("ladder", "t_hi", float)
        grab("ladder", "anchor_t0", float)
        grab("ladder", "tol", float)
        grab("ladder", "h", float)
        grab("ladder", "cache", str)
        grab("plan", "equations", words)
        grab("plan", "T", floats)
        grab("plan", "nu", floats)
        grab("plan", "n_max", int)
        grab("plan", "alpha", float)
        grab("plan", "beta", float)
        grab("plan", "tol_exact", float)
        grab("plan", "tol_sanity", float)
        grab("plan", "tol_sanity_singular", float)
        grab("plan", "tol_ratio", float)
        grab("plan", "tol_baseline", float)
        grab("output", "format", str)
        grab("output", "path", str)
        grab("output", "timings", lambda raw: raw.lower() in ("1", "true", "yes", "on"))
        if overrides:
            values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)

    def to_ini(self, path: str) -> None:
        """Write the full configuration; from_ini of the result round-trips."""
        lines = ["[evaluator]",
                 f"rs_correction_order = {self.rs_correction_order}",
                 f"oracle_terms = {self.oracle_terms}",
                 f"t_min_rs = {self.t_min_rs!r}",
                 "", "[ladder]",
                 f"t_lo = {self.t_lo!r}",
                 f"t_hi = {self.t_hi!r}",
                 f"anchor_t0 = {'' if self.anchor_t0 is None else repr(self.anchor_t0)}",
                 f"tol = {self.tol!r}",
                 f"h = {self.h!r}",
                 f"cache = {self.cache or ''}",
                 "", "[plan]",
                 f"equations = {' '.join(self.equations)}",
                 f"T = {' '.join(repr(x) for x in self.T)}",
                 f"nu = {' '.join(repr(x) for x in self.nu)}",
                 f"n_max = {self.n_max}",
                 f"alpha = {self.alpha!r}",
                 f"beta = {self.beta!r}",
                 f"tol_exact = {self.tol_exact!r}",
                 f"tol_sanity = {self.tol_sanity!r}",
                 f"tol_sanity_singular = {self.tol_sanity_singular!r}",
                 f"tol_ratio = {self.tol_ratio!r}",
                 f"tol_baseline = {self.tol_baseline!r}",
                 "", "[output]",
                 f"format = {self.format}",
                 f"path = {self.path}",
                 f"timings = {'true' if self.timings else 'false'}",
                 ""]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))

    # -- derived -------------------------------------------------------------

    def evaluator(self) -> ZEvaluator:
        return ZEvaluator(rs_correction_order=self.rs_correction_order,
                          oracle_terms=self.oracle_terms, t_min_rs=self.t_min_rs)

    def anchor(self) -> float:
        return self.anchor_t0 if self.anchor_t0 is not None else self.t_lo + 10.0

    def ladder_cache_path(self) -> str:
        if self.cache:
            return self.cache
        digest = ladder_config_hash(self.evaluator(), self.t_lo, self.t_hi,
                                    self.anchor(), self.h, self.tol)
        return os.path.join(cache_root(), f"ladder-{digest}.json")
