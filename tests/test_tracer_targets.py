"""The benchmark tracer's patch targets exist in the program.

`bench/tracer.py` wraps each entry of its TARGETS table where its callers
look it up; a target renamed or removed in `src/` would leave its metrics at
zero without an error.  The tracer imports only the standard library at
module level, so it is loaded here by path, without the benchmark harness.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

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


def test_cli_import_loads_every_target_module():
    # `Tracer.install` imports zladder.cli alone and then reads each owner
    # module from sys.modules, so a target module that the CLI loads lazily
    # fails every traced child with a KeyError; checked in a fresh interpreter
    modules = sorted({owner.partition(":")[0] for _, owner, *_ in TARGETS})
    code = ("import sys\n"
            "import zladder.cli\n"
            f"print([m for m in {modules!r} if m not in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(zladder.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"
