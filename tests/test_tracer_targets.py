"""The benchmark tracer's patch targets exist in the program.

`bench/tracer.py` wraps each entry of its TARGETS table where its callers
look it up; a target renamed or removed in `src/` would leave its metrics at
zero without an error.  The tracer imports only the standard library at
module level, so it is loaded here by path, without the benchmark harness.
"""

import importlib
import importlib.util
import os

import pytest

import zladder.quadrature
import zladder.verify

TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("zladder_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("name,owner,attr", [t[:3] for t in TARGETS],
                         ids=[t[0] for t in TARGETS])
def test_target_exists(name, owner, attr):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if class_name:
        # `Tracer.install` reads the class's own __dict__, not an inherited name
        assert attr in vars(getattr(module, class_name)), (name, owner, attr)
    else:
        assert callable(getattr(module, attr, None)), (name, owner, attr)


def test_verify_binds_the_quadrature_driver():
    # the tracer replaces integrate_adaptive in every zladder module bound to
    # it, so verify's binding must be the quadrature module's object
    assert zladder.verify.integrate_adaptive is zladder.quadrature.integrate_adaptive
