"""Outside-in tracing of zladder for the benchmark's traced runs.

`Tracer.install()` replaces each traced function where its callers look it
up: the class attribute for methods (`ZEvaluator.z`, `LadderTable.eval`,
the `LadderTable.load` classmethod) and, for module-level functions, every
attribute of a loaded `zladder` module that is bound to the same object
(`zladder.verify.integrate_adaptive`, `zladder.cli.build_ladder`, ...).  The
integrand handed to each quadrature call is wrapped as well, so the points it
receives are counted.  `uninstall()` puts every original object back.

Each traced call appends a span `[name, start, end, parent, points]` to an
in-memory list; the spans are written out once, when the run ends, and
`summarize()` turns them and the hook counts into the per-layer metrics.
The program itself is not modified.  This module imports nothing outside the
standard library at import time, so the benchmark's parent process can use
`summarize()` without numpy.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

VERIFY_FAMILIES = ("baseline", "theorem1", "corollary", "theorem2", "sanity")
INVERT_CONTRACT = 1e-10   # documented |phi_1(invert(y)) - y| bound

_HOOK = "trace.hook"


def _size(x) -> int:
    size = getattr(x, "size", None)
    if isinstance(size, int):
        return size
    try:
        return len(x)
    except TypeError:
        return 1


# ---------------------------------------------------------------------------
# hooks: run after a traced call returns, with tracing paused, inside a
# `trace.hook` span so their cost is not charged to the caller's self time;
# what a hook returns is kept in `Tracer.last` under the span name

def _after_build(counts, args, kwargs, table):
    counts["ladder.build_width"] += table.t_hi - table.t_lo
    counts["ladder.checkpoints"] = max(counts["ladder.checkpoints"], len(table.edges))


def _after_save(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["ladder.cache_bytes"] = max(counts["ladder.cache_bytes"], os.path.getsize(path))


def _after_load(counts, args, kwargs, table):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["ladder.cache_bytes"] = max(counts["ladder.cache_bytes"], os.path.getsize(path))
    counts["ladder.checkpoints"] = max(counts["ladder.checkpoints"], len(table.edges))


def invert_residuals(table, y, t):
    """|phi_1(t) - y| for an inverse `t = table.invert(y)`, elementwise; the
    documented bound is INVERT_CONTRACT.  The one implementation of the
    contract check, used by the invert hook and by the query workload."""
    import numpy as np

    return np.abs(np.asarray(table.eval(t)) - np.asarray(y, dtype=float))


def _after_invert(counts, args, kwargs, t):
    import numpy as np

    y = args[1] if len(args) > 1 else kwargs["y"]
    resid = invert_residuals(args[0], y, t)
    counts["ladder.invert_contract_miss"] += int(np.count_nonzero(resid > INVERT_CONTRACT))
    return resid


def _after_quadrature(key):
    def hook(counts, args, kwargs, result):
        counts[key] += result.panels_used
    return hook


def _after_family(family):
    def hook(counts, args, kwargs, result):
        counts[f"verify.{family}_rows"] += len(result) if isinstance(result, list) else 1
    return hook


# (span name, owner, attribute, index of the argument whose size is the
#  span's point count, after-hook).  An owner "module:Class" is a class whose
#  attribute is replaced; a bare module path means the function is replaced in
#  every loaded zladder module that binds it.
TARGETS = (
    ("rszeta.z", "zladder.rszeta:ZEvaluator", "z", 1, None),
    ("rszeta.zero_scan", "zladder.rszeta:ZEvaluator", "zero_scan", None, None),
    ("ladder.build", "zladder.ladder", "build_ladder", None, _after_build),
    ("ladder.eval", "zladder.ladder:LadderTable", "eval", 1, None),
    ("ladder.invert", "zladder.ladder:LadderTable", "invert", 1, _after_invert),
    ("ladder.save", "zladder.ladder:LadderTable", "save", None, _after_save),
    ("ladder.load", "zladder.ladder:LadderTable", "load", None, _after_load),
    ("quadrature.adaptive", "zladder.quadrature", "integrate_adaptive", None,
     _after_quadrature("quadrature.adaptive_panels")),
    ("quadrature.singular", "zladder.quadrature", "integrate_singular", None,
     _after_quadrature("quadrature.singular_levels")),
    ("specfun.bessel_zero", "zladder.specfun.bessel", "bessel_zero", None, None),
    ("specfun.bessel_j", "zladder.specfun.bessel", "bessel_j", 1, None),
    ("specfun.poly_eval", "zladder.specfun.orthopoly", "poly_eval", 2, None),
    ("verify.baseline", "zladder.verify", "verify_bessel_baseline", None,
     _after_family("baseline")),
    ("verify.theorem1", "zladder.verify", "verify_theorem1", None, _after_family("theorem1")),
    ("verify.corollary", "zladder.verify", "verify_corollary", None, _after_family("corollary")),
    ("verify.theorem2", "zladder.verify", "verify_theorem2", None, _after_family("theorem2")),
    ("verify.sanity", "zladder.verify", "sanity_theorem2_exact", None, _after_family("sanity")),
    ("cli.main", "zladder.cli", "main", None, None),
)

_QUADRATURE = {"quadrature.adaptive", "quadrature.singular"}


class Tracer:
    """Span recorder over the wrapped zladder entry points."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._paused = 0
        self.last: dict[str, object] = {}   # latest after-hook result per span name
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording --------------------------------------------------------

    def _wrap(self, name, fn, points_arg, after):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self
        wrap_integrand = name in _QUADRATURE

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            if wrap_integrand:
                args = (tracer._integrand(args[0]),) + args[1:]
            points = _size(args[points_arg]) if points_arg is not None else 0
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, points]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[2] = clock()
                stack.pop()
                counts[name + ".raised"] += 1
                raise
            span[2] = clock()
            stack.pop()
            if after is not None:
                with tracer.paused():
                    tracer.last[name] = after(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _integrand(self, f):
        module = getattr(f, "__module__", "") or ""
        layer = module.rsplit(".", 1)[-1] if module.startswith("zladder") else "bench"
        return self._wrap(f"{layer}.integrand", f, 0, None)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded; their time sits in one
        `trace.hook` span, so no traced span is charged for it."""
        span = [_HOOK, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
        self.spans.append(span)
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1
            span[2] = time.perf_counter()

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        import zladder.cli  # noqa: F401  (loads every module TARGETS names)

        try:
            for name, owner, attr, points_arg, after in TARGETS:
                if ":" in owner:
                    mod, cls_name = owner.split(":")
                    cls = getattr(sys.modules[mod], cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__, points_arg, after))
                    else:
                        new = self._wrap(name, raw, points_arg, after)
                    self._patch(cls, attr, new)
                else:
                    original = getattr(sys.modules[owner], attr)
                    new = self._wrap(name, original, points_arg, after)
                    for mod_name, module in list(sys.modules.items()):
                        if mod_name.split(".")[0] != "zladder":
                            continue
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, new)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# ---------------------------------------------------------------------------
# aggregation (pure Python; runs in the benchmark's parent process)

# Per-layer metrics: name -> (unit, better).  Times are totals over the
# traced run's fixed work; "_self_s" excludes time covered by child spans.
PER_LAYER = {
    "rszeta.z_points": ("count", "lower"),
    "rszeta.z_calls": ("count", "lower"),
    "rszeta.z_self_s": ("s", "lower"),
    "rszeta.z_pts_per_s": ("pts/s", "higher"),
    "rszeta.zero_scan_calls": ("count", "lower"),
    "rszeta.zero_scan_s": ("s", "lower"),
    "rszeta.self_s": ("s", "lower"),
    "ladder.build_self_s": ("s", "lower"),
    "ladder.build_z_points_per_t": ("pts/t", "lower"),
    "ladder.checkpoints": ("count", "lower"),
    "ladder.cache_bytes": ("bytes", "lower"),
    "ladder.save_s": ("s", "lower"),
    "ladder.load_s": ("s", "lower"),
    "ladder.eval_points": ("count", "lower"),
    "ladder.eval_self_s": ("s", "lower"),
    "ladder.eval_z_points_per_point": ("ratio", "lower"),
    "ladder.invert_calls": ("count", "lower"),
    "ladder.invert_self_s": ("s", "lower"),
    "ladder.invert_eval_calls_per_call": ("ratio", "lower"),
    "ladder.invert_raised": ("count", "lower"),
    "ladder.invert_contract_miss": ("count", "lower"),
    "ladder.self_s": ("s", "lower"),
    "quadrature.adaptive_calls": ("count", "lower"),
    "quadrature.adaptive_panels": ("count", "lower"),
    "quadrature.adaptive_points": ("count", "lower"),
    "quadrature.adaptive_self_s": ("s", "lower"),
    "quadrature.singular_calls": ("count", "lower"),
    "quadrature.singular_levels": ("count", "lower"),
    "quadrature.singular_points": ("count", "lower"),
    "quadrature.singular_self_s": ("s", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "specfun.bessel_zero_calls": ("count", "lower"),
    "specfun.bessel_zero_s": ("s", "lower"),
    "specfun.bessel_j_points": ("count", "lower"),
    "specfun.bessel_j_self_s": ("s", "lower"),
    "specfun.poly_eval_points": ("count", "lower"),
    "specfun.poly_eval_self_s": ("s", "lower"),
    "specfun.self_s": ("s", "lower"),
    **{f"verify.{fam}_{kind}": (unit, better)
       for fam in VERIFY_FAMILIES
       for kind, unit, better in (("s", "s", "lower"), ("rows", "count", "higher"))},
    "verify.self_s": ("s", "lower"),
    "cli.main_self_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.counter_mismatches": ("count", "lower"),
}

# Metrics that depend only on the program and the seed, never on the
# machine; two traced runs of the same seed must agree on them exactly.
DETERMINISTIC = tuple(
    name for name, (unit, _) in PER_LAYER.items()
    if unit in ("count", "bytes", "pts/t", "ratio") and not name.startswith("trace."))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: list, counts: dict) -> dict[str, float]:
    """Per-layer metrics (without the `trace.*` ones) from spans and counts."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    # ancestor-name sets, shared between spans with the same ancestry
    empty: frozenset = frozenset()
    memo: dict = {}
    ancestors = [empty] * n
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            key = (ancestors[parent], spans[parent][0])
            anc = memo.get(key)
            if anc is None:
                anc = memo[key] = key[0] | {key[1]}
            ancestors[i] = anc

    self_s: dict = defaultdict(float)
    incl_s: dict = defaultdict(float)
    calls: Counter = Counter()
    points: Counter = Counter()
    z_under: Counter = Counter()
    eval_calls_under_invert = 0
    for i, (name, start, end, parent, pts) in enumerate(spans):
        dur = end - start
        self_s[name] += dur - child_time[i]
        if name not in ancestors[i]:
            incl_s[name] += dur
        calls[name] += 1
        points[name] += pts
        if name == "rszeta.z":
            for outer in ("ladder.eval", "ladder.build"):
                if outer in ancestors[i]:
                    z_under[outer] += pts
        elif name == "ladder.eval" and "ladder.invert" in ancestors[i]:
            eval_calls_under_invert += 1
        elif name.endswith(".integrand") and parent >= 0:
            points[spans[parent][0] + ".integrand"] += pts

    layer_self: dict = defaultdict(float)
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value

    m = {
        "rszeta.z_points": points["rszeta.z"],
        "rszeta.z_calls": calls["rszeta.z"],
        "rszeta.z_self_s": self_s["rszeta.z"],
        "rszeta.z_pts_per_s": _ratio(points["rszeta.z"], self_s["rszeta.z"]),
        "rszeta.zero_scan_calls": calls["rszeta.zero_scan"],
        "rszeta.zero_scan_s": incl_s["rszeta.zero_scan"],
        "rszeta.self_s": layer_self["rszeta"],
        "ladder.build_self_s": self_s["ladder.build"],
        "ladder.build_z_points_per_t": _ratio(z_under["ladder.build"],
                                              counts.get("ladder.build_width", 0.0)),
        "ladder.checkpoints": counts.get("ladder.checkpoints", 0),
        "ladder.cache_bytes": counts.get("ladder.cache_bytes", 0),
        "ladder.save_s": incl_s["ladder.save"],
        "ladder.load_s": incl_s["ladder.load"],
        "ladder.eval_points": points["ladder.eval"],
        "ladder.eval_self_s": self_s["ladder.eval"],
        "ladder.eval_z_points_per_point": _ratio(z_under["ladder.eval"], points["ladder.eval"]),
        "ladder.invert_calls": points["ladder.invert"],
        "ladder.invert_self_s": self_s["ladder.invert"],
        "ladder.invert_eval_calls_per_call": _ratio(eval_calls_under_invert,
                                                    points["ladder.invert"]),
        "ladder.invert_raised": counts.get("ladder.invert.raised", 0),
        "ladder.invert_contract_miss": counts.get("ladder.invert_contract_miss", 0),
        "ladder.self_s": layer_self["ladder"],
        "quadrature.adaptive_calls": calls["quadrature.adaptive"],
        "quadrature.adaptive_panels": counts.get("quadrature.adaptive_panels", 0),
        "quadrature.adaptive_points": points["quadrature.adaptive.integrand"],
        "quadrature.adaptive_self_s": self_s["quadrature.adaptive"],
        "quadrature.singular_calls": calls["quadrature.singular"],
        "quadrature.singular_levels": counts.get("quadrature.singular_levels", 0),
        "quadrature.singular_points": points["quadrature.singular.integrand"],
        "quadrature.singular_self_s": self_s["quadrature.singular"],
        "quadrature.self_s": layer_self["quadrature"],
        "specfun.bessel_zero_calls": calls["specfun.bessel_zero"],
        "specfun.bessel_zero_s": incl_s["specfun.bessel_zero"],
        "specfun.bessel_j_points": points["specfun.bessel_j"],
        "specfun.bessel_j_self_s": self_s["specfun.bessel_j"],
        "specfun.poly_eval_points": points["specfun.poly_eval"],
        "specfun.poly_eval_self_s": self_s["specfun.poly_eval"],
        "specfun.self_s": layer_self["specfun"],
        "verify.self_s": layer_self["verify"],
        "cli.main_self_s": self_s["cli.main"],
        "cli.report_bytes": counts.get("cli.report_bytes", 0),
    }
    for fam in VERIFY_FAMILIES:
        m[f"verify.{fam}_s"] = incl_s[f"verify.{fam}"]
        m[f"verify.{fam}_rows"] = counts.get(f"verify.{fam}_rows", 0)
    return m
