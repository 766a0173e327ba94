import os
import shutil
import subprocess
import sys

import zladder

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(deadline=None, database=None)
@given(x=st.integers(0, 100))
def test_fails(x):
    assert x < 50
'''


def test_failing_property_prints_its_example_under_w_error(tmp_path):
    # a failing hypothesis test under CI's `-W error`, with this directory's
    # conftest.py, reports its falsifying example and not an INTERNALERROR
    shutil.copy(os.path.join(os.path.dirname(__file__), "conftest.py"), tmp_path)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    src = os.path.dirname(os.path.dirname(zladder.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-W", "error", "-p",
                          "no:cacheprovider", "test_property.py"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout
