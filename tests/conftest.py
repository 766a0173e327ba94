import json
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import settings

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


@pytest.fixture(scope="session")
def big_ladder(ev, timings, big_ladder_path):
    """The acceptance ladder, [1e3, 1.08e5] at tol 1e-8, from its cache file
    (`big_ladder_path`), which it builds and writes when missing."""
    path = big_ladder_path
    cache_dir = os.path.dirname(path)
    meta_path = path + ".meta"
    if os.path.exists(path):
        try:
            table = LadderTable.load(path, ev)
            timings["build"] = 0.0
            if os.path.exists(meta_path):
                with open(meta_path) as fh:
                    timings["build"] = float(json.load(fh).get("build_seconds", 0.0))
            return table
        except CacheError:
            pass
    t0 = time.perf_counter()
    table = build_ladder(ev, 1000.0, 108000.0, tol=1e-8)
    timings["build"] = time.perf_counter() - t0
    os.makedirs(cache_dir, exist_ok=True)
    table.save(path)
    with open(meta_path, "w") as fh:
        json.dump({"build_seconds": timings["build"]}, fh)
    return table
