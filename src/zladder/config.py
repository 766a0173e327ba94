"""Run configuration: the settings of one run, each field set by the CLI
flag whose dest is its name.  A ladder is fixed by t_lo, t_hi and tol (its
anchor is a rule of `ladder`), and the sanity rows are judged at tol_exact.
The defaults are the paper's fixed plan, the one the test workflow pins.
The default ladder cache is named by `LadderTable.config_hash`, which every
report row records too; caches under older names are not read.
"""

from __future__ import annotations

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
