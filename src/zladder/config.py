"""Run configuration: a human-editable INI document, overridable by CLI flags.

Sections and keys (all optional; defaults shown):

    [ladder]
    t_lo = 1000.0
    t_hi = 2000.0
    anchor_t0 =            ; blank -> t_lo + 10
    tol = 1e-8
    cache =                ; blank -> <cache_root>/ladder-<ladder config hash>.npz

    [plan]
    equations = baseline theorem1 corollary theorem2 sanity   ; no repeats
    T = 5000 10000 50000   ; strictly ascending
    nu = 0 1               ; no repeats
    n_max = 4
    alpha = 0.5
    beta = 0.5
    tol_exact = 1e-4
    tol_sanity = 1e-4      ; every exact-substitution (sanity) row
    tol_ratio = 0.25
    tol_baseline = 1e-9

    [output]
    format = jsonl         ; jsonl | csv
    path = reports.jsonl
    timings = false

Keys match case-insensitively (`t` sets T), values are literal (no `%`
interpolation), and any other section or key is a DomainError that names
it; so are the removed keys `[ladder] h` (the base panel width is fixed at
1) and the `[evaluator]` section.  Flags win over file values.  The default
ladder cache is named by the same hash that `LadderTable.config_hash`
records in the cache file and in every report row: the ladder domain,
anchor, tolerance, the fixed base panel width and panel rule, and the fixed
configuration of the one Z evaluator (`ZEvaluator.config_hash`); no file or
flag sets the fixed parts.  Default caches under the names older versions
used (JSON files) are not read; the ladder is rebuilt once as
`ladder-<hash>.npz`.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

from .exceptions import DomainError
from .ladder import ladder_config_hash
from .rszeta import ZEvaluator
from .verify import FAMILIES

PLAN_EQUATIONS = ("baseline", *FAMILIES)   # E1_2 and the ladder families


def cache_root() -> str:
    root = os.environ.get("ZLADDER_CACHE_ROOT")
    if root:
        return root
    return os.path.join(os.path.expanduser("~"), ".cache", "zladder")


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split())


# (section, key, parse) of every INI field; a blank value takes the default
_INI_FIELDS = (
    ("ladder", "t_lo", float),
    ("ladder", "t_hi", float),
    ("ladder", "anchor_t0", float),
    ("ladder", "tol", float),
    ("ladder", "cache", str),
    ("plan", "equations", lambda raw: tuple(raw.split())),
    ("plan", "T", _floats),
    ("plan", "nu", _floats),
    ("plan", "n_max", int),
    ("plan", "alpha", float),
    ("plan", "beta", float),
    ("plan", "tol_exact", float),
    ("plan", "tol_sanity", float),
    ("plan", "tol_ratio", float),
    ("plan", "tol_baseline", float),
    ("output", "format", str),
    ("output", "path", str),
    ("output", "timings", lambda raw: raw.lower() in ("1", "true", "yes", "on")),
)


@dataclass
class RunConfig:
    # ladder
    t_lo: float = 1000.0
    t_hi: float = 2000.0
    anchor_t0: float | None = None
    tol: float = 1e-8
    cache: str | None = None
    # plan
    equations: tuple[str, ...] = PLAN_EQUATIONS
    T: tuple[float, ...] = (5000.0, 10000.0, 50000.0)
    nu: tuple[float, ...] = (0.0, 1.0)
    n_max: int = 4
    alpha: float = 0.5
    beta: float = 0.5
    tol_exact: float = 1e-4
    tol_sanity: float = 1e-4
    tol_ratio: float = 0.25
    tol_baseline: float = 1e-9
    # output
    format: str = "jsonl"
    path: str = "reports.jsonl"
    timings: bool = False

    def __post_init__(self):
        for name in ("tol", "tol_exact", "tol_sanity", "tol_ratio", "tol_baseline"):
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

    # -- construction --------------------------------------------------------

    @classmethod
    def from_ini(cls, path: str, overrides: dict | None = None) -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, configparser.Error) as exc:
            raise DomainError(f"config parse error in {path}: {exc}") from exc
        # configparser lowercases keys and strips values
        known = {(section, key.lower()): (key, parse) for section, key, parse in _INI_FIELDS}
        for section in parser.sections():
            if section not in {s for s, _ in known}:
                raise DomainError(f"config {path}: unknown section [{section}]")
        values: dict = {}
        for section, entries in parser.items():   # DEFAULT first: its keys join every section
            for name, raw in entries.items():
                if (section, name) not in known:
                    raise DomainError(f"config {path}: unknown key [{section}] {name}")
                key, parse = known[section, name]
                if raw:
                    try:
                        values[key] = parse(raw)
                    except ValueError as exc:
                        raise DomainError(
                            f"config parse error: [{section}] {key} = {raw!r}") from exc
        values.update(overrides or {})
        return cls(**values)

    # -- derived -------------------------------------------------------------

    def anchor(self) -> float:
        return self.anchor_t0 if self.anchor_t0 is not None else self.t_lo + 10.0

    def ladder_hash(self) -> str:
        """The `LadderTable.config_hash` of the ladder this config builds."""
        return ladder_config_hash(ZEvaluator(), self.t_lo, self.t_hi,
                                  self.anchor(), self.tol)

    def ladder_cache_path(self) -> str:
        if self.cache:
            return self.cache
        return os.path.join(cache_root(), f"ladder-{self.ladder_hash()}.npz")
