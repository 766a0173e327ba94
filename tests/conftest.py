import hashlib
import json
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import settings
from numpy._core import _multiarray_umath

import zladder
from zladder import CacheError, LadderTable, ZEvaluator, build_ladder

# When a property fails, hypothesis's pytest plugin imports libcst (if it is
# installed) inside the report hook, to write a patch of the failing
# example.  That import raises a DeprecationWarning, and under `-W error` the
# run ends in INTERNALERROR instead of printing the example.  Import it here
# once with the warning ignored, so the hook finds it already loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:   # no libcst: the hook gives up quietly
        pass

# `--hypothesis-profile domain-sweep` selects the long domain sweep of
# test_domain.py; it is registered here, before the plugin loads it.
settings.register_profile("domain-sweep")


@pytest.fixture(scope="session")
def ev():
    return ZEvaluator()


@pytest.fixture(scope="session")
def small_ladder(ev):
    """[1000, 1090] at tol 1e-9: covers T in [~925, ~1005] for U <= 2."""
    return build_ladder(ev, 1000.0, 1090.0, tol=1e-9)


@pytest.fixture(scope="session")
def plan_ladder(ev):
    """The golden plan's ladder, [1000, 7000] at tol 1e-8."""
    return build_ladder(ev, 1000.0, 7000.0, tol=1e-8)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture(scope="session")
def timings():
    return {}


@pytest.fixture(scope="session")
def big_ladder_path():
    """The acceptance ladder's cache file: under ZLADDER_TEST_CACHE, else
    .cache/ at the repository root."""
    cache_dir = os.environ.get(
        "ZLADDER_TEST_CACHE",
        os.path.join(os.path.dirname(__file__), "..", ".cache"))
    return os.path.join(cache_dir, "acceptance-ladder.npz")


def ladder_fingerprint(src=os.path.dirname(zladder.__file__)):
    """What sets a ladder's bits besides its arguments: sha256 of the
    package's sources under `src`, numpy's version and the CPU features its
    loops dispatch on, NPY_DISABLE_CPU_FEATURES included."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    features = sorted(k for k, on in _multiarray_umath.__cpu_features__.items() if on)
    return {"sources": digest.hexdigest(), "numpy": np.__version__, "cpu_features": features,
            "NPY_DISABLE_CPU_FEATURES": os.environ.get("NPY_DISABLE_CPU_FEATURES", "")}


def cached_meta(meta_path):
    """The acceptance ladder's cache metadata, or None when it is missing,
    unreadable or records another fingerprint: a file built by other code or
    on other numpy loops may hold other bits, so it is built again."""
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(meta, dict) or meta.get("fingerprint") != ladder_fingerprint():
        return None
    return meta


@pytest.fixture(scope="session")
def big_ladder(ev, timings, big_ladder_path):
    """The acceptance ladder, [1e3, 1.08e5] at tol 1e-8, from its cache file
    (`big_ladder_path`), which it builds and writes when missing or when its
    metadata records another `ladder_fingerprint`."""
    path = big_ladder_path
    meta_path = path + ".meta"
    meta = cached_meta(meta_path)
    if meta is not None and os.path.exists(path):
        try:
            table = LadderTable.load(path, ev)
            timings["build"] = float(meta.get("build_seconds", 0.0))
            return table
        except CacheError:
            pass
    t0 = time.perf_counter()
    table = build_ladder(ev, 1000.0, 108000.0, tol=1e-8)
    timings["build"] = time.perf_counter() - t0
    os.makedirs(os.path.dirname(path), exist_ok=True)
    table.save(path)
    with open(meta_path, "w") as fh:
        json.dump({"build_seconds": timings["build"], "fingerprint": ladder_fingerprint()}, fh)
    return table
