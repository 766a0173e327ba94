import warnings

import numpy as np
import pytest

from zladder import ZEvaluator, build_ladder

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


@pytest.fixture(scope="session")
def ev():
    return ZEvaluator()


@pytest.fixture(scope="session")
def small_ladder(ev):
    """[1000, 1090] at tol 1e-9: covers T in [~925, ~1005] for U <= 2."""
    return build_ladder(ev, 1000.0, 1090.0, tol=1e-9)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260811)
